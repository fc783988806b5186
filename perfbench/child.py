"""Workload process of the benchmark: import ellinfo, run passes, report.

``run.py`` starts one of these per workload, plus a few ``--probe`` runs
that only import the library, to time set-up.  The process prints one JSON
line on standard output: the monotonic time at which the library was ready,
the reference-kernel time of that moment (see ``speed.py``) and, for a
workload, the wall and CPU time of every pass, the median kernel time
during the passes, the experiments
attempted, the failures, the peak resident set and, with ``--trace 1``, the
per-layer metrics of one traced pass run after the untraced passes.

    python3 perfbench/child.py --probe
    python3 perfbench/child.py --workload degeneracy --seed 0 --seconds 1 \
        --trace 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import ellinfo
from ellinfo import cli, elliptic, fixtures, grids, io, score, simulate, spectral, transport

#: Set-up ends here; the benchmark's own modules below are not part of it.
READY = time.monotonic()

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Back-to-back reference-kernel runs timed right after the import.
SETUP_KERNEL_RUNS = 15

LAYER_MODULES = {"grids": grids, "elliptic": elliptic, "fixtures": fixtures,
                 "score": score, "spectral": spectral, "transport": transport,
                 "simulate": simulate, "io": io, "cli": cli}


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _blas() -> str:
    deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{deps.get('name', '?')} {deps.get('version', '?')}"


def run_pass(experiments, seed: int, out_dir: Path, failures: list,
             sampler: speed.Sampler | None = None) -> tuple[float, float]:
    """Run every experiment once; returns (wall seconds, CPU seconds).  With
    a sampler, the samples' own time is taken out of both."""
    if sampler is not None:
        sampler.start()
    wall0, cpu0 = time.perf_counter(), _cpu_seconds()
    for i, experiment in enumerate(experiments):
        target = out_dir / f"experiment-{i}"
        try:
            experiment.run(seed, target)
        except Exception as exc:  # noqa: BLE001 - a failed experiment is a result
            failures.append(f"{experiment.name}: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(target, ignore_errors=True)
    wall, cpu = time.perf_counter() - wall0, _cpu_seconds() - cpu0
    if sampler is None:
        return wall, cpu
    sampling_s = sampler.stop()
    return wall - sampling_s, cpu - sampling_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.EXPERIMENTS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(ellinfo.__file__).resolve().parents:
        print(f"ellinfo was imported from {ellinfo.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    setup_kernel_s = speed.kernel_median(SETUP_KERNEL_RUNS)
    if args.probe:
        print(json.dumps({"ready": READY, "setup_kernel_s": setup_kernel_s,
                          "python": platform.python_version(),
                          "numpy": np.__version__, "scipy": scipy.__version__,
                          "blas": _blas()}))
        return 0
    if args.workload is None or args.out is None:
        parser.error("--workload and --out are required without --probe")

    experiments = workloads.EXPERIMENTS[args.workload]
    failures: list[str] = []
    passes = []
    sampler = speed.Sampler()
    start = time.perf_counter()
    while True:  # whole passes that fit in --seconds, at least one
        passes.append(run_pass(experiments, args.seed, args.out, failures, sampler))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    attempted = len(passes) * len(experiments)
    layers = None
    if args.trace:
        tracer = Tracer()
        tracer.install(LAYER_MODULES, extra_namespaces=(workloads,))
        traced_wall, _ = run_pass(experiments, args.seed, args.out, failures)
        attempted += len(experiments)
        untraced = float(np.median([wall for wall, _ in passes]))
        layers = tracer.layer_metrics(traced_wall, untraced)
    print(json.dumps({
        "ready": READY,
        "setup_kernel_s": setup_kernel_s,
        "passes": passes,
        "pass_kernel_s": sampler.median(),
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
