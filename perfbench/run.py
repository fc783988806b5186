"""Benchmark of the ellinfo package on four experiment workloads.

Run from the repository root:

    python3 perfbench/run.py --workload degeneracy --seed 0 --seconds 1 --trace 0
    python3 perfbench/run.py                   # every workload, one after another

Each workload runs in its own child process (``child.py``), which imports
the package from ``src/``, runs as many whole passes over the workload's
experiment list as fit in ``--seconds`` (at least one) and checks every
experiment's output.  Set-up time is the median over several child starts.
Times are adjusted for the drift of the host's speed, measured by a
reference kernel timed in the same process (``speed.py``); the report
prints the raw times beside them.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the child also runs one traced
pass and the JSON carries the per-layer metrics instead.  The exit status
is nonzero when a correctness check fails or the package is missing.

Artifacts go to a temporary directory under ``.perfbench_tmp/`` in the
repository root, removed before exit.  BLAS threads are fixed in the
children's environment only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalog import (END_TO_END, LAYER_METRICS, NOMINAL_S, PASS_ELASTICITY,
                     SETUP_ELASTICITY, WORKLOADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: Import-only child starts per run; with the workload child's own start
#: they give the set-up samples whose median is ``setup_s``.
SETUP_PROBES = 4

#: BLAS threads given to the children (capped by the CPUs available).
BLAS_THREADS = 1

#: Each run must end within 180 s; the workload child gets what is left.
RUN_LIMIT_S = 175.0


def speed_scale(kernel_s: float, elasticity: float) -> float:
    """Factor that turns a raw time into a speed-adjusted one (``speed.py``)."""
    return (NOMINAL_S / kernel_s) ** elasticity


class BenchError(RuntimeError):
    """The benchmark could not run: missing package or a crashed child."""


def child_env(tmp: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(args: list, env: dict, timeout: float) -> tuple[float, dict]:
    """Start a child, wait for it, and return (start time, its JSON line)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def tail(values: list) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run_workload(name: str, seed: int, seconds: float, trace: int, tmp: Path,
                 env: dict, deadline: float) -> tuple[dict, int, list]:
    """Set-up probes, then the workload child.  Returns (metrics, attempted,
    failures) and prints the human-readable report."""
    setups = []
    for _ in range(SETUP_PROBES):
        started, probe = run_child(["--probe"], env, timeout=60)
        setups.append((probe["ready"] - started, probe["setup_kernel_s"]))
    print(f"environment: nproc {len(os.sched_getaffinity(0))}, commit {commit()}, "
          f"python {probe['python']}, numpy {probe['numpy']}, scipy {probe['scipy']}, "
          f"blas {probe['blas']}, blas threads {env['OPENBLAS_NUM_THREADS']}")
    out = tmp / name
    started, result = run_child(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", str(out)],
        env, timeout=max(deadline - time.monotonic(), 1.0))
    setups.append((result["ready"] - started, result["setup_kernel_s"]))
    walls = [wall for wall, _ in result["passes"]]
    cpus = [cpu for _, cpu in result["passes"]]
    scale = speed_scale(result["pass_kernel_s"], PASS_ELASTICITY)
    attempted, failures = result["attempted"], result["failures"]
    raw = {"setup_s": statistics.median(t for t, _ in setups),
           "pass_s": statistics.median(walls),
           "cpu_s": statistics.median(cpus)}
    e2e = {
        "setup_s": statistics.median(t * speed_scale(k, SETUP_ELASTICITY)
                                     for t, k in setups),
        "pass_s": raw["pass_s"] * scale,
        "cpu_s": raw["cpu_s"] * scale,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    print(f"== workload {name}, seed {seed}: {WORKLOADS[name]}")
    print(f"   setup_s      {e2e['setup_s']:10.4f} s   median of {len(setups)} child "
          f"starts until the package is imported (raw {raw['setup_s']:.4f} s)")
    print(f"   pass_s       {e2e['pass_s']:10.4f} s   median wall time of "
          f"{len(walls)} pass(es) (raw {raw['pass_s']:.4f} s)")
    pct_tail = tail(walls)
    if pct_tail is None:
        print(f"   pass_s_tail         n/a     needs at least 11 passes, have {len(walls)}")
    else:
        print(f"   pass_s_tail  {pct_tail[1]:10.4f} s   p{pct_tail[0]:.1f} of "
              f"{len(walls)} passes")
    print(f"   cpu_s        {e2e['cpu_s']:10.4f} s   median user+sys CPU per pass "
          f"(raw {raw['cpu_s']:.4f} s)")
    print(f"   speed scale  {scale:10.4f}     pass times are raw x (NOMINAL_S / k) ** "
          f"{PASS_ELASTICITY:g}, reference kernel k = {result['pass_kernel_s'] * 1e3:.2f} ms, "
          f"NOMINAL_S = {NOMINAL_S * 1e3:g} ms")
    print(f"   set-up       raw x (NOMINAL_S / k) ** {SETUP_ELASTICITY:g}, per child "
          + ", ".join(f"{t:.4f} s at k = {k * 1e3:.2f} ms" for t, k in setups))
    print(f"   peak_rss_mb  {e2e['peak_rss_mb']:10.1f} MB  workload child")
    print(f"   fail_ratio   {len(failures)}/{attempted} experiments failed")
    print("   waiting      none: experiments run one after another in one "
          "process and nothing is queued")
    for failure in failures:
        print(f"   FAILED {failure}", file=sys.stderr)
    if not trace:
        return e2e, attempted, failures
    layers = result["layers"]
    self_sum = sum(v for k, v in layers.items()
                   if k.endswith(".self_s") and k.count(".") == 1)
    print(f"   traced pass  {layers['trace.pass_s']:10.4f} s   layer self times plus "
          f"benchmark self time sum to {self_sum:.4f} s; tracing overhead "
          f"{layers['trace.overhead_s']:+.4f} s")
    for key, (unit, _) in LAYER_METRICS.items():
        print(f"   {key:28s} {layers[key]:16.6g} {unit}")
    return layers, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="run as many whole passes as fit in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception: subprocess.run kills and reaps
    # the running child and the finally clause below removes the artifacts.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "ellinfo" / "__init__.py").is_file():
        print(f"no ellinfo package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    env = child_env(tmp, threads)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            values, n_attempted, failures = run_workload(
                name, args.seed, args.seconds, args.trace, tmp, env, deadline)
            prefix = "" if len(names) == 1 else f"{name}."
            for key, value in values.items():
                unit = LAYER_METRICS[key][0] if args.trace else END_TO_END[key]
                metrics[prefix + key] = {"value": value, "unit": unit}
            attempted += n_attempted
            failed += len(failures)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
