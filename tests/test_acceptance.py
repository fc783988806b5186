"""Acceptance gate: eleven end-to-end checks, one per shipped guarantee.

Each test prints a single ``criterion N: PASS/FAIL`` line with the measured
quantities before asserting, so a verbose run doubles as a report.
"""

import math
import time
import warnings

import numpy as np
import pytest

from ellinfo.elliptic import Conductivity, DivergenceFormOperator, check_identifiability
from ellinfo.fixtures import (exact_solution, fixture_data, fixture_domain,
                              psi_fixture)
from ellinfo.grids import ScalarField, build_grid, inner_l2, norm_l2, random_smooth_field
from ellinfo.score import ScoreContext, gateaux_remainders, stability_report
from ellinfo.simulate import info_identity_mc, lan_mc
from ellinfo.spectral import degeneracy_profile, fisher_information, range_series
from ellinfo.transport import range_verdict, trace_curve


def _criterion(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num}: {status} - {detail}", flush=True)
    assert passed, f"criterion {num} failed: {detail}"


def _adjoint_defects(ctx, n_pairs=100, seed=7):
    """Max normalized pairing defect of the gradient-formula adjoint."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(n_pairs):
            h = random_smooth_field(ctx.grid, rng, apply_collar=False)
            g = random_smooth_field(ctx.grid, rng, apply_collar=False)
            lhs = inner_l2(ctx.apply_linearization(h), g)
            rhs = inner_l2(h, ctx.apply_adjoint(g))
            worst = max(worst, abs(lhs - rhs) / (norm_l2(h) * norm_l2(g)))
    return worst


@pytest.fixture(scope="module")
def transport_checks(ctx_cache):
    """Range verdicts for the four shipped functionals plus the exit-time
    oracle, shared between the transport and coherence criteria."""
    sq = ctx_cache("square_ex1", 33)
    dk = ctx_cache("disk_ex2", 96)
    curve = trace_curve(sq, (1.5, 1.5), direction="forward")
    return {
        ("square_ex1", "bump"): range_verdict(sq, psi_fixture(sq, "bump")),
        ("square_ex1", "in_range"): range_verdict(sq, psi_fixture(sq, "in_range")),
        ("disk_ex2", "quadrant_bump"): range_verdict(dk, psi_fixture(dk, "quadrant_bump")),
        ("disk_ex2", "in_range"): range_verdict(dk, psi_fixture(dk, "in_range")),
        "t_gamma_error": abs(curve.travel_time - math.log(4.0 / 3.0)),
    }


def test_criterion_01_exact_solution_recovery():
    """Unit conductivity reproduces the closed-form base solutions to
    solver precision, in under a second per fixture at the finest grid."""
    details = []
    ok = True
    for name in ("square_ex1", "disk_ex2"):
        grid = build_grid(fixture_domain(name, 65))
        f, g = fixture_data(name, grid)
        t0 = time.perf_counter()
        u = DivergenceFormOperator(Conductivity.constant(grid)).solve(f, g)
        runtime = time.perf_counter() - t0
        err = float(np.max(np.abs(u.values - exact_solution(name, grid).values)))
        ok = ok and err <= 1e-10 and runtime < 1.0
        details.append(f"{name} err {err:.3e} in {runtime:.3f}s")
    _criterion(1, ok, "; ".join(details))


def test_criterion_02_linearization_order():
    """The forward-map remainder is quadratic: log-log slope 2.0 +/- 0.1
    across five random conductivity/direction pairs."""
    grid = build_grid(fixture_domain("square_ex1", 33))
    f, g = fixture_data("square_ex1", grid)
    slopes = []
    for seed in range(100, 105):
        rng = np.random.default_rng(seed)
        s = random_smooth_field(grid, rng)
        theta = Conductivity(
            ScalarField(grid, 1.0 + 0.35 * s.values / np.abs(s.values).max()),
            eta=None)
        ctx = ScoreContext(theta, f, g)
        h = random_smooth_field(grid, rng)
        _, slope = gateaux_remainders(ctx, h)
        slopes.append(slope)
    ok = all(1.9 <= s <= 2.1 for s in slopes)
    _criterion(2, ok, "slopes " + ", ".join(f"{s:.4f}" for s in slopes))


def test_criterion_03_adjoint_consistency(ctx_cache):
    """The gradient-formula adjoint agrees with the exact transpose to
    O(h_mesh) over 100 random pairs, and the defect shrinks under mesh
    halving (a genuine halving on the disk; at least as fast on the square,
    where central differences superconverge)."""
    defects = {}
    for name in ("square_ex1", "disk_ex2"):
        for res in (33, 65):
            ctx = ctx_cache(name, res)
            defects[(name, res)] = (_adjoint_defects(ctx), 5.0 * ctx.grid.h_mesh)
    bound_ok = all(d <= b for d, b in defects.values())
    r_sq = defects[("square_ex1", 65)][0] / defects[("square_ex1", 33)][0]
    r_dk = defects[("disk_ex2", 65)][0] / defects[("disk_ex2", 33)][0]
    ok = bound_ok and r_sq <= 0.75 and 0.25 <= r_dk <= 0.75
    detail = (f"square {defects[('square_ex1', 33)][0]:.3e}->"
              f"{defects[('square_ex1', 65)][0]:.3e} (ratio {r_sq:.3f}), "
              f"disk {defects[('disk_ex2', 33)][0]:.3e}->"
              f"{defects[('disk_ex2', 65)][0]:.3e} (ratio {r_dk:.3f}), "
              f"all within 5*h_mesh: {bound_ok}")
    _criterion(3, ok, detail)


def test_criterion_04_stability_floor(ctx_cache):
    """Where the pointwise identifiability gate passes, the perturbation
    source keeps a positive lower-bound ratio over 200 random directions,
    stable to within 25% between the 33 and 65 grids."""
    ok = True
    details = []
    for name in ("square_ex1", "disk_ex2", "saddle"):
        ctx33 = ctx_cache(name, 33)
        c0_hat = check_identifiability(ctx33.u)
        rep33 = stability_report(ctx33, seed=0)
        rep65 = stability_report(ctx_cache(name, 65), seed=0)
        drift = abs(rep65.min_ratio_T / rep33.min_ratio_T - 1.0)
        ok = ok and c0_hat > 0.0 and rep33.applicable and rep65.applicable
        ok = ok and rep33.min_ratio_T > 0.0 and rep33.n_trials == 200 and drift <= 0.25
        details.append(f"{name} c0 {c0_hat:.3f} min_ratio "
                       f"{rep33.min_ratio_T:.3f}->{rep65.min_ratio_T:.3f} "
                       f"({100 * drift:.1f}%)")
    _criterion(4, ok, "; ".join(details))


def test_criterion_05_fisher_degeneracy(ctx_cache, decomp_cache, fisher_sweep):
    """For the non-negative bump on the square: the restricted partial sums
    M_N grow without plateau, the inverse quadratic form grows at least 2x
    from the 17 to the 65 grid, and every admissible degeneracy direction
    keeps quotient * M_N below 17.6.  All within five minutes."""
    t0 = time.perf_counter()
    ctx = ctx_cache("square_ex1", 33)
    psi = psi_fixture(ctx, "bump")
    decomp = decomp_cache("square_ex1", 33, subspace="collar_supported")
    prof = degeneracy_profile(decomp, psi)
    m = prof.fisher_partial
    half = int(np.argmin(np.abs(prof.orders - prof.orders[-1] / 2)))
    ladder_growth = float(m[-1] / m[half])
    eligible = m >= 2.0
    max_product = float(prof.product[eligible].max())
    sweep = fisher_sweep("square_ex1", "bump", (17, 33, 65))
    runtime = time.perf_counter() - t0
    ok = (ladder_growth >= 3.0
          and sweep.growth >= 2.0
          and sweep.verdict == "out_of_range_divergent"
          and sweep.lower_bounds == (False, False, False)
          and max_product <= 17.6
          and runtime < 300.0)
    detail = (f"ladder M_max/M_half {ladder_growth:.3f}, refinement growth "
              f"{sweep.growth:.2f} ({sweep.verdict}), max quotient*M "
              f"{max_product:.4f}, {runtime:.0f}s")
    _criterion(5, ok, detail)


def test_criterion_06_in_range_contrast(ctx_cache, decomp_cache):
    """For manufactured in-range functionals the partial sums plateau (top
    half of the spectrum within 5%) and the inverse quadratic form moves at
    most 20% under the same refinements."""
    plateaus = {}
    for name, res in (("square_ex1", 33), ("disk_ex2", 28)):
        ctx = ctx_cache(name, res)
        series, _ = range_series(decomp_cache(name, res), psi_fixture(ctx, "in_range"))
        plateaus[name] = float(series[-1] / series[len(series) // 2])
    variations = {}
    for name, grids in (("square_ex1", (17, 33, 65)), ("disk_ex2", (20, 28, 40))):
        values = []
        for res in grids:
            ctx = ctx_cache(name, res)
            rep = fisher_information(ctx, psi_fixture(ctx, "in_range"))
            values.append(rep.i_inverse_full)
        variations[name] = max(values) / min(values) - 1.0
    ok = (all(p <= 1.05 for p in plateaus.values())
          and all(v <= 0.20 for v in variations.values()))
    detail = (f"plateau square {plateaus['square_ex1']:.4f} / disk "
              f"{plateaus['disk_ex2']:.4f}; i_inverse variation square "
              f"{100 * variations['square_ex1']:.1f}% / disk "
              f"{100 * variations['disk_ex2']:.1f}%")
    _criterion(6, ok, detail)


def test_criterion_07_transport_obstruction(transport_checks):
    """Crossing-curve integrals reject both out-of-range bumps and accept
    both manufactured in-range functionals; the exit-time oracle holds."""
    v = transport_checks
    ok = (v[("square_ex1", "bump")].verdict == "incompatible"
          and v[("disk_ex2", "quadrant_bump")].verdict == "incompatible"
          and v[("disk_ex2", "quadrant_bump")].zero_ray_witness
          and v[("square_ex1", "in_range")].verdict == "compatible_within_tol"
          and v[("disk_ex2", "in_range")].verdict == "compatible_within_tol"
          and v["t_gamma_error"] <= 1e-4)
    detail = (f"square bump {v[('square_ex1', 'bump')].verdict}, disk quadrant "
              f"{v[('disk_ex2', 'quadrant_bump')].verdict} (witness "
              f"{v[('disk_ex2', 'quadrant_bump')].zero_ray_witness}), in-range "
              f"{v[('square_ex1', 'in_range')].verdict}/"
              f"{v[('disk_ex2', 'in_range')].verdict}, T_gamma err "
              f"{v['t_gamma_error']:.2e}")
    _criterion(7, ok, detail)


def test_criterion_08_lan_monte_carlo(ctx_cache):
    """Log-likelihood ratios under a 1/sqrt(n) perturbation match the
    Gaussian limit: both moments within 4 SE, KS distance at most 0.05."""
    t0 = time.perf_counter()
    ctx = ctx_cache("square_ex1", 33)
    h = random_smooth_field(ctx.grid, np.random.default_rng(3))
    h = ScalarField(ctx.grid, 2.0 * h.values / norm_l2(h))
    rep = lan_mc(ctx, h, n=10_000, replicates=2000, seed=42)
    runtime = time.perf_counter() - t0
    ok = (rep.extras["mean_within_4se"]
          and rep.extras["var_within_4se"]
          and rep.extras["ks_statistic"] <= 0.05
          and runtime < 600.0)
    detail = (f"mean {rep.empirical_mean:.4f} vs {rep.references['mean']:.4f}, "
              f"var {rep.empirical_variance:.4f} vs "
              f"{rep.references['variance']:.4f}, KS "
              f"{rep.extras['ks_statistic']:.4f}, {runtime:.0f}s")
    _criterion(8, ok, detail)


def test_criterion_09_information_identity(ctx_cache):
    """The empirical score Gram matrix over four basis directions matches
    the image inner products entrywise within 4 SE at n = 1e5."""
    ctx = ctx_cache("square_ex1", 33)
    grid = ctx.grid
    fields = []
    for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
        vals = (np.sin(j * math.pi * (grid.x - 1.0))
                * np.sin(k * math.pi * (grid.y - 1.0)))
        vals[grid.collar_mask] = 0.0
        fields.append(ScalarField(grid, vals))
    worst = 0.0
    ok = True
    for a in range(4):
        for b in range(a, 4):
            rep = info_identity_mc(ctx, fields[a], fields[b], 100_000, seed=17)
            dev = abs(rep.empirical_mean - rep.references["inner_product"])
            worst = max(worst, dev / rep.standard_error)
            ok = ok and rep.extras["within_4se"]
    _criterion(9, ok, f"10 Gram entries, worst deviation {worst:.2f} SE")


def test_criterion_10_kernel_witnesses(ctx_cache, decomp_cache):
    """The harmonic-base configuration traps constants in the kernel
    (relative kernel mass of psi = 1 at least 0.9) while the disk spectrum
    stays numerically injective (kernel mass below 1e-3 for 20 random psi)."""
    saddle = decomp_cache("saddle", 33)
    const_frac = saddle.kernel_mass_fraction(saddle.grid.field(1.0))
    disk = decomp_cache("disk_ex2", 10)
    rng = np.random.default_rng(11)
    disk_worst = max(
        disk.kernel_mass_fraction(
            random_smooth_field(disk.grid, rng, apply_collar=False))
        for _ in range(20))
    ok = const_frac >= 0.9 and disk_worst <= 1e-3
    detail = (f"saddle constant kernel mass {const_frac:.4f} "
              f"(kernel dim {saddle.n_kernel}), disk worst {disk_worst:.1e} "
              f"(kernel dim {disk.n_kernel})")
    _criterion(10, ok, detail)


def test_criterion_11_cross_module_coherence(transport_checks, fisher_sweep):
    """Spectral refinement and transport geometry agree on the
    classification of every shipped functional."""
    sweeps = {
        ("square_ex1", "bump"): fisher_sweep("square_ex1", "bump", (17, 25, 33)),
        ("square_ex1", "in_range"): fisher_sweep("square_ex1", "in_range", (17, 25, 33)),
        ("disk_ex2", "quadrant_bump"): fisher_sweep("disk_ex2", "quadrant_bump", (20, 28, 40)),
        ("disk_ex2", "in_range"): fisher_sweep("disk_ex2", "in_range", (20, 28, 40)),
    }
    agree = {"out_of_range_divergent": "incompatible",
             "in_range": "compatible_within_tol"}
    ok = True
    parts = []
    for key, sweep in sweeps.items():
        transport = transport_checks[key].verdict
        ok = ok and agree.get(sweep.verdict) == transport
        parts.append(f"{key[0]}/{key[1]}: {sweep.verdict}~{transport}")
    _criterion(11, ok, "; ".join(parts))
