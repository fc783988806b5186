"""The benchmark's workloads: fixed experiment lists with correctness checks.

Each experiment is either a CLI invocation at its default configuration
(through ``ellinfo.cli.main``) or a direct call to a public library function
that the CLI does not expose.  Every experiment builds its own model contexts,
so no pass reuses a cache filled by an earlier pass.  Checks come from the
acceptance criteria and the library's own tests, as tolerances rather than
bit-exact values, so a change that legitimately moves a number in the last
digits still passes.

An experiment is a callable ``run(seed, out_dir)`` that raises
:class:`CheckFailed` (or any other exception) when the result is wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ellinfo import cli, fixtures, grids, simulate, transport


class CheckFailed(AssertionError):
    """An experiment ran but its output failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Experiment:
    name: str
    run: Callable[[int, Path], None]


# -- CLI experiments ---------------------------------------------------------


def cli_experiment(argv: str, check: Callable[[dict, Path], None]) -> Experiment:
    """Run ``ellinfo <argv> --seed S --out DIR`` and check its summary.json."""
    words = argv.split()

    def run(seed: int, out_dir: Path) -> None:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(words + ["--seed", str(seed), "--out", str(out_dir)])
        require(status == 0, f"exit status {status}: {stderr.getvalue().strip()}")
        artifacts = out_dir / words[0]
        summary = json.loads((artifacts / "summary.json").read_text(encoding="utf-8"))
        check(summary, artifacts)

    return Experiment(f"ellinfo {argv}", run)


def check_thm37(summary: dict, _artifacts: Path) -> None:
    ref, ladder = summary["refinement"], summary["ladder"]
    require(ref["verdict"] == "out_of_range_divergent", f"verdict {ref['verdict']}")
    require(ref["growth"] >= 2.0, f"refinement growth {ref['growth']:.3f} < 2")
    require(ladder["growth_top_half"] >= 3.0,
            f"ladder growth {ladder['growth_top_half']:.3f} < 3")
    require(ladder["max_quotient_times_m"] <= 17.6,
            f"max quotient*M {ladder['max_quotient_times_m']:.4f} > 17.6")


def check_verdict(expected: str) -> Callable[[dict, Path], None]:
    def check(summary: dict, _artifacts: Path) -> None:
        require(summary["verdict"] == expected,
                f"verdict {summary['verdict']}, expected {expected}")
    return check


def check_spectrum(summary: dict, _artifacts: Path) -> None:
    """Full spectrum of the PSD information operator at 33: 31^2 modes,
    largest first, none below rounding level."""
    require(summary["complete"] and summary["n_modes"] == 31 * 31,
            f"{summary['n_modes']} modes, complete={summary['complete']}")
    require(summary["lambda_max"] > 0.0, "lambda_max not positive")
    require(summary["decay_ratio"] >= -1e-12,
            f"lambda_min/lambda_max {summary['decay_ratio']:.3e} is negative "
            "beyond rounding")


def check_thm38(summary: dict, _artifacts: Path) -> None:
    verdicts = {key: summary[key]["verdict"] for key in
                ("square_bump", "square_in_range", "disk_quadrant_bump",
                 "disk_in_range")}
    require(verdicts == {"square_bump": "incompatible",
                         "square_in_range": "compatible_within_tol",
                         "disk_quadrant_bump": "incompatible",
                         "disk_in_range": "compatible_within_tol"},
            f"verdicts {verdicts}")
    require(summary["disk_quadrant_bump"]["zero_ray_witness"],
            "no zero-ray witness on the disk quadrant bump")
    require(summary["t_gamma_error"] <= 1e-4,
            f"exit-time error {summary['t_gamma_error']:.2e} > 1e-4")


def check_lan(summary: dict, _artifacts: Path) -> None:
    require(summary["mean_within_4se"], "LLR mean outside 4 SE")
    require(summary["var_within_4se"], "LLR variance outside 4 SE")
    require(summary["ks_pvalue"] >= 1e-3,
            f"KS p-value {summary['ks_pvalue']:.2e} < 1e-3")


def check_solve(tolerances: dict) -> Callable[[dict, Path], None]:
    """Max error per resolution, plus a complete solution table per grid."""
    def check(summary: dict, artifacts: Path) -> None:
        for res, tol in tolerances.items():
            result = summary["results"][str(res)]
            require(result["max_error"] <= tol,
                    f"max error {result['max_error']:.2e} > {tol:.0e} at {res}")
            with open(artifacts / f"solution_{res}.csv", "rb") as fh:
                lines = sum(1 for _ in fh)
            # one metadata line, one header line, one row per node
            require(lines == result["n_nodes"] + 2,
                    f"solution_{res}.csv has {lines} lines for "
                    f"{result['n_nodes']} nodes")
    return check


def check_verify_operators(summary: dict, _artifacts: Path) -> None:
    adj = summary["adjoint"]
    require(adj["max_defect"] <= adj["bound_5h"],
            f"adjoint defect {adj['max_defect']:.3e} > 5 h_mesh {adj['bound_5h']:.3e}")
    slopes = summary["linearization_slopes"]
    require(all(abs(s - 2.0) <= 0.1 for s in slopes), f"slopes {slopes}")


# -- library experiments ----------------------------------------------------

#: Resolution at which the library's own test bounds the transport mismatch
#: by 1e-3 max|psi|; the mismatch is a second-order discretization error.
TRANSPORT_TEST_RESOLUTION = 25


def run_solve_transport(_seed: int, _out: Path) -> None:
    """solve_transport on the in-range fixture at 17^2.

    The tolerance is the library test's 1e-3 max|psi| at 25^2, scaled by
    (h / h_25)^2 because the outflow mismatch converges at second order.
    """
    ctx = fixtures.build_context("square_ex1", 17)
    psi = fixtures.psi_fixture(ctx, "in_range")
    y, mismatch = transport.solve_transport(ctx, psi)
    h_test = 1.0 / (TRANSPORT_TEST_RESOLUTION - 1)
    tol = 1e-3 * float(np.max(np.abs(psi.values))) * (ctx.grid.h_mesh / h_test) ** 2
    require(mismatch <= tol, f"mismatch {mismatch:.3e} > {tol:.3e}")
    require(grids.norm_l2(y) > 0.0, "transport solution vanishes")


def run_kernel_element(_seed: int, _out: Path) -> None:
    ctx = fixtures.build_context("square_ex1", 17)
    h = transport.kernel_element(ctx, lambda x, y: x / y)
    ratio = grids.norm_l2(ctx.perturbation_source(h)) / grids.norm_l2(h)
    require(ratio <= 10.0 * ctx.grid.h_mesh,
            f"|T h|/|h| {ratio:.3e} > 10 h_mesh {10.0 * ctx.grid.h_mesh:.3e}")


def _bilinear_mass(nodes: np.ndarray) -> np.ndarray:
    """1-D mass matrix of piecewise-linear hat functions on the nodes."""
    h = np.diff(nodes)
    mass = np.zeros((nodes.size, nodes.size))
    for i, hi in enumerate(h):
        mass[i:i + 2, i:i + 2] += hi / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return mass


def run_info_identity(seed: int, _out: Path) -> None:
    """Criterion 9's ten Gram entries at n = 1e5, each within 4 SE.

    With Y = u(X) + eps the score product is eps^2 (I h1)(X) (I h2)(X) for
    the bilinear interpolants of the images, so its exact expectation is the
    integral of the interpolant product (tensor mass matrix), which the
    check uses as the reference.  The library's lumped-quadrature reference
    differs from it by up to 1.8 SE at this n on the 33 grid.
    """
    ctx = fixtures.build_context("square_ex1", 33)
    grid = ctx.grid
    mass_x, mass_y = _bilinear_mass(grid.xs), _bilinear_mass(grid.ys)
    fields, images = [], []
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        vals = np.sin(j * math.pi * (grid.x - 1.0)) * np.sin(k * math.pi * (grid.y - 1.0))
        vals[grid.collar_mask] = 0.0
        fields.append(grids.ScalarField(grid, vals))
        images.append(grid.reshape(ctx.apply_linearization(fields[-1]).values))
    for a in range(4):
        for b in range(a, 4):
            rep = simulate.info_identity_mc(ctx, fields[a], fields[b], 100_000, seed=seed)
            expected = float(np.sum(images[a] * (mass_x @ images[b] @ mass_y)))
            dev = abs(rep.empirical_mean - expected)
            require(dev <= 4.0 * rep.standard_error,
                    f"Gram entry ({a},{b}) off by {dev / rep.standard_error:.2f} SE")


def run_risk_study(seed: int, _out: Path) -> None:
    ctx = fixtures.build_context("square_ex1", 17)
    table = simulate.plugin_risk_study(ctx, fixtures.psi_fixture(ctx, "bump"),
                                       (500, 2000, 8000), replicates=200, seed=seed)
    require(table.ratio_last_first >= 2.0,
            f"normalized risk ratio {table.ratio_last_first:.3f} < 2")


#: Workload name -> its experiments, in the order a pass runs them.
EXPERIMENTS: dict[str, tuple[Experiment, ...]] = {
    "degeneracy": (
        cli_experiment("reproduce-thm37", check_thm37),
        cli_experiment("fisher", check_verdict("out_of_range_divergent")),
        cli_experiment("fisher --fixture disk_ex2 --psi in_range",
                       check_verdict("in_range")),
        cli_experiment("spectrum", check_spectrum),
    ),
    "transport_geometry": (
        cli_experiment("reproduce-thm38", check_thm38),
        Experiment("solve_transport(square_ex1@17, in_range)", run_solve_transport),
        Experiment("kernel_element(square_ex1@17, x/y)", run_kernel_element),
    ),
    "regression_mc": (
        cli_experiment("simulate", check_lan),
        cli_experiment("simulate --fixture disk_ex2 --replicates 500", check_lan),
        Experiment("info_identity_mc(square_ex1@33, 10 Gram entries, n=1e5)",
                   run_info_identity),
        Experiment("plugin_risk_study(square_ex1@17, bump, (500,2000,8000), R=200)",
                   run_risk_study),
    ),
    "forward": (
        cli_experiment("solve --resolution 129,257", check_solve({129: 1e-10, 257: 1e-8})),
        cli_experiment("solve --fixture disk_ex2 --resolution 96,192",
                       check_solve({96: 1e-10, 192: 1e-8})),
        cli_experiment("verify-operators", check_verify_operators),
        cli_experiment("verify-operators --fixture disk_ex2 --resolution 40",
                       check_verify_operators),
    ),
}
