"""Flow-line machinery: curve tracing, curve integrals, range verdicts,
transport solves, and first-integral kernel elements.

At theta = 1 the walk's discrete flow is exact: (x, y) on square_ex1,
(2x, -2y) on the saddle and r on the disk, so the curves are closed form
and the references integrate the bilinear psi along them independently."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ellinfo import score, transport
from ellinfo.fixtures import build_context, in_range_fixture, psi_fixture
from ellinfo.grids import ScalarField, make_bump, norm_l2
from ellinfo.spectral import fisher_information
from ellinfo.transport import (CURVE_TERMINATIONS, RANGE_VERDICTS, kernel_element,
                               line_integral, range_verdict, ray_integral_disk,
                               solve_transport, trace_curve,
                               _inflow_boundary_nodes, _support_min_radius,
                               _sweep_from_nodes)
from test_grids import rgi_interpolator

# a closed-form step that divides by zero or overflows must fail, not pass NaN
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

#: Rates (a, b) of the theta = 1 curves (x0 e^{a t}, y0 e^{b t}) on the square.
THETA1_RATES = {"square_ex1": (1.0, 1.0), "saddle": (2.0, -2.0)}


def annular_psi(grid, r0=0.55, width=0.20):
    """Radially symmetric mollifier ring, supported away from the origin."""
    r = np.hypot(grid.x, grid.y)
    s = (r - r0) / width
    vals = np.where(np.abs(s) < 1.0,
                    np.exp(-1.0 / np.maximum(1.0 - s**2, 1e-300)), 0.0)
    return ScalarField(grid, vals)


def piecewise_gauss(f, breaks, n=12):
    """Reference quadrature: n-point Gauss-Legendre between consecutive
    breakpoints, where the integrand is smooth."""
    x, w = np.polynomial.legendre.leggauss(n)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
    return float(np.sum((f(t.reshape(-1)).reshape(t.shape) @ w) * 0.5 * (hi - lo)[:, 0]))


def closed_form_exits(seed, rates):
    """Parameters at which (x0 e^{a t}, y0 e^{b t}) leaves [1, 2]^2 backward
    and forward."""
    ends = np.log(np.array([[1.0], [2.0]]) / np.asarray(seed)) / np.asarray(rates)
    return float(np.max(ends.min(axis=0))), float(np.min(ends.max(axis=0)))


def crossing_reference(ctx, psi, seed, rates):
    """Integral of psi's bilinear interpolant (scipy's, at Cartesian points)
    along the closed-form crossing curve through seed, split where it
    crosses the node lines."""
    grid, x0, rates = ctx.grid, np.asarray(seed, dtype=float), np.asarray(rates)
    t_lo, t_hi = closed_form_exits(x0, rates)
    kinks = np.concatenate([np.log(grid.xs / x0[0]) / rates[0],
                            np.log(grid.ys / x0[1]) / rates[1]])
    breaks = np.unique(np.concatenate([[t_lo, t_hi], kinks[(kinks > t_lo) & (kinks < t_hi)]]))
    interp = rgi_interpolator(grid, psi.values)
    return piecewise_gauss(lambda t: interp(x0 * np.exp(np.outer(t, rates))), breaks)


class TestCurveTracing:
    """Integral curves of the square base flow x' = x at theta = 1."""

    def test_exit_time_matches_logarithmic_flow(self, ctx_cache):
        """From (1.5, 1.5) the flow reaches x = 2 after exactly ln(4/3)."""
        ctx = ctx_cache("square_ex1", 25)
        curve = trace_curve(ctx, (1.5, 1.5), "forward")
        assert curve.termination == "boundary_exit"
        np.testing.assert_allclose(curve.travel_time, math.log(4.0 / 3.0),
                                   rtol=0.0, atol=1e-12)

    def test_backward_trace_reaches_inflow_corner(self, ctx_cache):
        """Backward in time the same point contracts to x = 1 after ln(3/2)."""
        ctx = ctx_cache("square_ex1", 25)
        curve = trace_curve(ctx, (1.5, 1.5), "backward")
        assert curve.termination == "boundary_exit"
        np.testing.assert_allclose(curve.travel_time, math.log(3.0 / 2.0),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name, res", [("square_ex1", 25), ("square_ex1", 33),
                                           ("saddle", 17)])
    def test_vertices_lie_on_closed_form_curves(self, ctx_cache, name, res):
        """Every vertex sits on (x0 e^{a t}, y0 e^{b t}) at its time, each
        after the seed exactly on a node line or dual face (the lines of the
        half-spacing grid), and the curves end at the closed-form exits."""
        ctx = ctx_cache(name, res)
        rates = np.array(THETA1_RATES[name])
        lines = np.linspace(1.0, 2.0, 2 * res - 1)
        for seed in [(1.5, 1.5), (1.2, 1.7), (1.9, 1.1)]:
            exits = closed_form_exits(seed, rates)
            for direction, t_exit in (("backward", exits[0]), ("forward", exits[1])):
                curve = trace_curve(ctx, seed, direction)
                assert curve.termination == "boundary_exit" and curve.n_steps > 0
                assert abs(curve.times[-1] - t_exit) <= 1e-12
                exact = np.asarray(seed) * np.exp(np.outer(curve.times, rates))
                assert np.max(np.abs(curve.points - exact)) <= 1e-12
                assert np.isin(curve.points[1:], lines).any(axis=1).all()

    def test_seed_validation(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 25)
        with pytest.raises(ValueError, match="direction"):
            trace_curve(ctx, (1.5, 1.5), "sideways")
        with pytest.raises(ValueError, match="inside"):
            trace_curve(ctx, (2.0, 1.5))

    def test_zero_integrand_integrates_to_zero(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 25)
        curve = trace_curve(ctx, (1.4, 1.7), "forward")
        assert line_integral(ctx.grid.field(0.0), curve) == 0.0


class TestDiskCurveTracing:
    """Integral curves of the disk flow, through the origin cell and across
    the 0 / 2 pi seam of the grid."""

    @pytest.mark.parametrize("seed", [(0.3, -1e-3), (0.3, 0.2), (-0.5, 0.4), (0.1, -0.8)])
    def test_forward_exits_along_ray_backward_reaches_origin(self, ctx_cache, seed):
        """At theta = 1 the curves are the rays r = |z| e^t: the exit time is
        ln(1/|z|), and backward the curve ends at the critical origin.  In
        grid coordinates theta stays put (rounding-level angular velocities
        count as zero), and each step crosses exactly one line r = const of
        the half-spacing grid."""
        ctx = ctx_cache("disk_ex2", 28)
        ray, r0 = np.asarray(seed) / math.hypot(*seed), math.hypot(*seed)
        lines = np.linspace(0.0, ctx.grid.rs[-1], 2 * ctx.grid.shape[0])
        fwd = trace_curve(ctx, seed, "forward")
        assert fwd.termination == "boundary_exit"
        assert abs(fwd.travel_time - math.log(1.0 / math.hypot(*seed))) <= 1e-12
        assert abs(math.hypot(*fwd.points[-1]) - 1.0) <= 1e-12
        assert np.all(fwd.points @ ray > 0.0)
        assert np.max(np.abs(fwd.points[:, 0] * ray[1] - fwd.points[:, 1] * ray[0])) <= 1e-12
        back = trace_curve(ctx, seed, "backward")
        assert back.termination == "critical_point"
        assert back.travel_time == math.inf and back.times[-1] == -math.inf
        assert math.hypot(*back.points[-1]) <= 1e-12
        assert fwd.n_steps == np.count_nonzero(lines > r0)
        assert back.n_steps == np.count_nonzero((lines > 0.0) & (lines < r0))
        for curve in (fwd, back):
            assert np.ptp(curve.steps[:, 0, 1]) == 0.0
            assert np.isin(curve.steps[1:, 0, 0], lines).all()
        with pytest.raises(ValueError, match="critical point"):
            line_integral(ctx.grid.field(1.0), back)

    def test_curves_cross_the_seam_continuously(self, ctx_cache):
        """With the theta bump the flow turns, and curves from either side of
        theta = 0 wrap across the seam: they move by at most one sub-cell
        diagonal per step and leave at nearly the same time."""
        ctx = ctx_cache("disk_ex2", 28, theta_bump=True)
        curves = [trace_curve(ctx, seed, direction) for seed in ((0.5, 1e-4), (0.5, -1e-4))
                  for direction in ("forward", "backward")]
        wraps = 0
        for curve in curves:
            theta = np.mod(np.arctan2(curve.points[:, 1], curve.points[:, 0]), 2.0 * math.pi)
            wraps += np.count_nonzero(np.abs(np.diff(theta)) > math.pi)
            assert np.max(np.linalg.norm(np.diff(curve.points, axis=0), axis=1)) \
                <= ctx.grid.h_mesh
        assert wraps >= 2
        assert curves[0].termination == curves[2].termination == "boundary_exit"
        assert abs(curves[0].travel_time - curves[2].travel_time) <= 1e-6
        assert curves[1].termination == curves[3].termination == "critical_point"


class TestCrossingConsistency:
    """The batched crossing integrals agree with ``line_integral`` along the
    curve that ``trace_curve`` walks from (almost) the same start."""

    def test_sweep_matches_line_integral(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 25)
        grid = ctx.grid
        rng = np.random.default_rng(5)
        ids = _inflow_boundary_nodes(ctx)
        pairs = np.column_stack([grid.x[ids], grid.y[ids]])
        for _ in range(3):
            center = rng.uniform(1.35, 1.65, 2)
            radius = rng.uniform(0.10, 0.16)
            psi = make_bump(grid, center, radius, 1.0)
            acc, _ = _sweep_from_nodes(ctx, pairs, psi.values, sign=1.0)
            scale = np.max(np.abs(acc))
            for i in np.argsort(-np.abs(acc))[:5]:
                gu = np.array([ctx.grad_u.vx[ids[i]], ctx.grad_u.vy[ids[i]]])
                start = pairs[i] + 1e-9 * gu / np.linalg.norm(gu)
                li = line_integral(psi, trace_curve(ctx, start, "forward"))
                assert abs(acc[i] - li) / scale <= 1e-4


def solve_ivp_curve(ctx, seed, sign):
    """Oracle: one scipy RK45 call per curve on the bilinear interpolant of
    the context's grad u, with terminal boundary and critical-point events.
    Returns the termination, the end parameter and the dense solution."""
    grid = ctx.grid
    interp = grid.interpolator(np.column_stack([ctx.grad_u.vx, ctx.grad_u.vy]))
    crit_tol = transport.CRIT_TOL_FACTOR * float(ctx.grad_u.magnitude().max())

    def flow(z):
        return interp(grid.grid_coords(z[None]))[0]

    def boundary(_s, z):
        return grid.boundary_distance(z[None])[0]

    def critical(_s, z):
        return math.hypot(*flow(z)) - crit_tol

    for event in (boundary, critical):
        event.terminal, event.direction = True, -1.0
    sol = solve_ivp(lambda _s, z: sign * flow(z), (0.0, 50.0), np.asarray(seed, dtype=float),
                    method="RK45", rtol=1e-10, atol=1e-12, events=[boundary, critical],
                    dense_output=True)
    kind = 0 if sol.t_events[0].size else 1
    return CURVE_TERMINATIONS[kind], float(sol.t_events[kind][0]), sol.sol


class TestBatchedTracerParity:
    """The cell walk against an independent ODE solve of the interpolated
    gradient field.  On the square grad u = (x, y) is bilinear, so the two
    agree to the solver's tolerance; on the polar grid the interpolant of
    r (cos t, sin t) is off by at most dt^2 / 8 relative, which bounds the
    gap there."""

    @pytest.mark.parametrize("name, res, seeds", [
        ("square_ex1", 25, [(1.5, 1.5), (1.2, 1.7), (1.9, 1.1)]),
        ("square_ex1", 33, [(1.5, 1.5), (1.2, 1.7), (1.9, 1.1)]),
        ("disk_ex2", 28, [(0.3, -1e-3), (0.3, 0.2), (-0.5, 0.4), (0.1, -0.8)])])
    def test_trace_curve_matches_solve_ivp(self, ctx_cache, name, res, seeds):
        """Terminations, travel times and every finite-time vertex, forward
        and backward, also where the disk's backward curves end at the
        critical origin (the walk at t = -inf, the solver at its event)."""
        ctx = ctx_cache(name, res)
        tol = ctx.grid.dt**2 / 8.0 if name == "disk_ex2" else 1e-9
        for seed in seeds:
            for direction, sign in (("forward", 1.0), ("backward", -1.0)):
                curve = trace_curve(ctx, seed, direction)
                term, s_end, dense = solve_ivp_curve(ctx, seed, sign)
                assert curve.termination == term
                finite = np.isfinite(curve.times)
                assert np.all(np.abs(curve.times[finite]) <= s_end + tol)
                ref = dense(np.minimum(np.abs(curve.times[finite]), s_end)).T
                assert np.max(np.abs(curve.points[finite] - ref)) <= tol
                if term == "boundary_exit":
                    assert abs(curve.travel_time - s_end) <= tol
                else:
                    assert curve.travel_time == math.inf
                    assert math.hypot(*dense(s_end)) <= 1e-5


class TestClosedFormCrossings:
    """Verdict integrals against the closed-form theta = 1 curves: the walk
    is exact for its flow, and Gauss-Legendre on each step is exact to
    rounding for the bilinear psi."""

    @pytest.mark.parametrize("name, res", [("square_ex1", 17), ("square_ex1", 25),
                                           ("square_ex1", 33), ("saddle", 17)])
    def test_verdict_integrals_match_closed_form(self, ctx_cache, name, res):
        ctx = ctx_cache(name, res)
        for kind in ("bump", "in_range"):
            psi = psi_fixture(ctx, kind)
            verdict = range_verdict(ctx, psi)
            assert verdict.n_unclassified == 0
            ref = [crossing_reference(ctx, psi, seed, THETA1_RATES[name])
                   for seed in verdict.seeds]
            peak = np.max(np.abs(psi.values))
            assert np.max(np.abs(verdict.integrals - ref)) <= 1e-10 * peak
            assert 0.0 < verdict.trace_error <= verdict.integral_tol


class TestCrossingResolution:
    """Crossing integrals of the in-range functional from the inflow nodes
    at 17^2.  The bilinear integrand has kinks at every cell edge a
    crossing passes; the walk's steps end on them, so the crossings from
    (1, y) and (y, 1) agree to rounding."""

    def test_crossings_match_mirror_and_converged_reference(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        grid = ctx.grid
        psi = in_range_fixture(ctx).psi
        ids = _inflow_boundary_nodes(ctx)
        nodes = np.column_stack([grid.x[ids], grid.y[ids]])
        crossings, _ = _sweep_from_nodes(ctx, nodes, psi.values, sign=1.0)
        scale = np.max(np.abs(crossings))
        index = {tuple(p): k for k, p in enumerate(np.round(nodes, 12).tolist())}
        mirror = [index[(y, x)] for x, y in np.round(nodes, 12).tolist()]
        # symmetric up to rounding in u and psi: 9.5e-14 of the largest crossing
        assert np.max(np.abs(crossings - crossings[mirror])) <= 1e-12 * scale
        ref = np.array([crossing_reference(ctx, psi, z, (1.0, 1.0)) for z in nodes])
        assert np.max(np.abs(crossings - ref)) <= 1e-10 * np.max(np.abs(psi.values))


class TestDiskRays:
    """Ray integrals on the disk, where curves are radii."""

    def test_radial_functional_gives_equal_rays(self, ctx_cache):
        ctx = ctx_cache("disk_ex2", 33)
        psi = annular_psi(ctx.grid)
        angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        vals = np.array([ray_integral_disk(psi, (math.cos(a), math.sin(a)))
                         for a in angles])
        assert np.ptp(vals) <= 1e-9 * np.abs(vals).max()

    @pytest.mark.parametrize("kind", ["quadrant_bump", "in_range"])
    def test_batched_rays_match_single_rays(self, ctx_cache, kind):
        """All rays in one call and in the disk verdict match a 12-point
        Gauss-Legendre rule per radial cell on the oracle interpolant at
        Cartesian points."""
        ctx = ctx_cache("disk_ex2", 40)
        psi = psi_fixture(ctx, kind)
        verdict = range_verdict(ctx, psi)
        t_min = math.log(_support_min_radius(psi) / 2.0)
        log_r = np.log(ctx.grid.rs)
        breaks = np.concatenate([[t_min], log_r[log_r > t_min]])
        interp = rgi_interpolator(ctx.grid, psi.values)
        ref = np.array([piecewise_gauss(lambda t: interp(np.exp(t)[:, None] * z), breaks)
                        for z in verdict.seeds])
        scale = np.max(np.abs(ref))
        np.testing.assert_array_equal(ray_integral_disk(psi, verdict.seeds), verdict.integrals)
        assert np.max(np.abs(verdict.integrals - ref)) <= 1e-12 * scale
        assert ray_integral_disk(psi, verdict.seeds[5]) == verdict.integrals[5]
        assert 0.0 < verdict.trace_error <= verdict.integral_tol

    def test_radial_functional_flags_constant_offset(self, ctx_cache):
        """All rays carry the same nonzero integral: solvable only up to a
        global constant, which gets its own verdict."""
        ctx = ctx_cache("disk_ex2", 33)
        verdict = range_verdict(ctx, annular_psi(ctx.grid))
        assert verdict.verdict == "constant_offset_detected"
        assert verdict.offset is not None and abs(verdict.offset) > 0.1

    def test_endpoint_validation(self, ctx_cache):
        dctx = ctx_cache("disk_ex2", 33)
        sctx = ctx_cache("square_ex1", 25)
        psi = annular_psi(dctx.grid)
        with pytest.raises(ValueError, match="boundary points"):
            ray_integral_disk(psi, (0.5, 0.0))
        with pytest.raises(ValueError, match="disk"):
            ray_integral_disk(psi_fixture(sctx, "bump"), (1.0, 0.0))

    def test_origin_touching_support_rejected(self, ctx_cache):
        ctx = ctx_cache("disk_ex2", 33)
        r = np.hypot(ctx.grid.x, ctx.grid.y)
        psi = ScalarField(ctx.grid, np.exp(-8.0 * r**2))
        with pytest.raises(RuntimeError, match="origin"):
            ray_integral_disk(psi, (1.0, 0.0))


class TestRangeVerdicts:
    """Crossing-integral classification on both geometries."""

    def test_square_bump_is_incompatible(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 25)
        verdict = range_verdict(ctx, psi_fixture(ctx, "bump"))
        assert verdict.verdict == "incompatible"
        assert verdict.max_abs_integral > 10.0 * verdict.threshold
        assert verdict.verdict in RANGE_VERDICTS

    def test_square_in_range_is_compatible(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 25)
        verdict = range_verdict(ctx, in_range_fixture(ctx).psi)
        assert verdict.verdict == "compatible_within_tol"
        assert verdict.max_abs_integral <= verdict.threshold

    @pytest.mark.parametrize("name", ["square_ex1", "saddle"])
    def test_bumped_conductivity_keeps_verdicts(self, ctx_cache, name):
        """With the default theta bump the curves are no longer closed form;
        the verdicts stay as at theta = 1."""
        ctx = ctx_cache(name, 33, theta_bump=True)
        bump = range_verdict(ctx, psi_fixture(ctx, "bump"))
        in_range = range_verdict(ctx, psi_fixture(ctx, "in_range"))
        assert bump.verdict == "incompatible" and bump.n_unclassified == 0
        assert in_range.verdict == "compatible_within_tol" and in_range.n_unclassified == 0
        for verdict in (bump, in_range):
            assert 0.0 < verdict.trace_error <= verdict.integral_tol

    def test_disk_quadrant_bump_is_incompatible_with_witness(self, ctx_cache):
        """A one-quadrant source loads some rays and misses others entirely,
        so an explicit zero-ray witness accompanies the failure."""
        ctx = ctx_cache("disk_ex2", 40)
        verdict = range_verdict(ctx, psi_fixture(ctx, "quadrant_bump"))
        assert verdict.verdict == "incompatible"
        assert verdict.zero_ray_witness
        assert verdict.max_abs_integral > 10.0 * verdict.threshold


class TestTransportSolve:
    """Solves of grad u . grad y = psi on the square: the field from the
    sparse discrete equation T^T y = W psi, shared with the inverse Fisher
    form, and the outflow mismatch from characteristics walked from the
    inflow boundary."""

    def test_zero_source_gives_zero_solution(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 25)
        y, mismatch = solve_transport(ctx, ctx.grid.field(0.0))
        np.testing.assert_array_equal(y.values, 0.0)
        assert mismatch == 0.0

    def test_in_range_source_solves_with_small_mismatch(self, ctx_cache):
        """A certified in-range functional crosses every flow line with
        near-zero total integral, so the outflow mismatch is tiny."""
        ctx = ctx_cache("square_ex1", 25)
        psi = in_range_fixture(ctx).psi
        y, mismatch = solve_transport(ctx, psi)
        assert mismatch <= 1e-3 * np.max(np.abs(psi.values))
        assert norm_l2(y) > 0.0

    def test_field_is_the_potential(self, ctx_cache):
        """For psi = I*(L phi) the discrete solution is phi itself."""
        ctx = ctx_cache("square_ex1", 33)
        fx = in_range_fixture(ctx)
        y, _ = solve_transport(ctx, fx.psi)
        np.testing.assert_allclose(y.values, fx.potential.values, rtol=0.0,
                                   atol=1e-8 * np.max(np.abs(fx.potential.values)))

    def test_field_agrees_with_characteristics_at_second_order(self, ctx_cache):
        """The characteristic field, walked back from every interior node to
        the inflow boundary, is the reference: the two discretisations part
        by 12.7 % of max|phi| at 17^2 and 5.9 % at 25^2, a ratio near
        (16/24)^2 = 0.44."""
        gaps = []
        for res in (17, 25):
            ctx = ctx_cache("square_ex1", res)
            grid = ctx.grid
            fx = in_range_fixture(ctx)
            nodes = np.column_stack([grid.x[grid.interior_ids], grid.y[grid.interior_ids]])
            acc, _ = _sweep_from_nodes(ctx, nodes, fx.psi.values, sign=-1.0)
            y, _ = solve_transport(ctx, fx.psi)
            gaps.append(np.max(np.abs(grid.restrict(y) - acc))
                        / np.max(np.abs(fx.potential.values)))
        assert gaps[0] <= 0.2
        assert gaps[1] / gaps[0] <= 0.55

    @pytest.mark.parametrize("res, n_inflow", [(17, 30), (25, 46)])
    def test_only_inflow_nodes_are_traced(self, ctx_cache, monkeypatch, res, n_inflow):
        """The mismatch walks one batch, of one lane per inflow node."""
        ctx = ctx_cache("square_ex1", res)
        batches = []

        def counting_walk(ctx, starts, signs):
            batches.append(len(starts))
            return walk(ctx, starts, signs)

        walk = transport._walk
        monkeypatch.setattr(transport, "_walk", counting_walk)
        solve_transport(ctx, psi_fixture(ctx, "bump"))
        assert batches == [len(_inflow_boundary_nodes(ctx))] == [n_inflow]

    @pytest.mark.parametrize("kind", ["bump", "in_range"])
    def test_singular_base_raises(self, ctx_cache, kind):
        """The saddle's T is singular: the refinement step moves the field
        by order one, so there is no solution to report."""
        ctx = ctx_cache("saddle", 17)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve_transport(ctx, psi_fixture(ctx, kind))

    def test_one_factorisation_serves_fisher_and_transport(self, monkeypatch):
        ctx = build_context("square_ex1", 17)
        factorisations = []

        def counting_splu(matrix):
            factorisations.append(matrix.shape)
            return splu(matrix)

        splu = score.spla.splu
        monkeypatch.setattr(score.spla, "splu", counting_splu)
        psi = in_range_fixture(ctx).psi
        fisher_information(ctx, psi)
        solve_transport(ctx, psi)
        solve_transport(ctx, psi_fixture(ctx, "bump"))
        assert factorisations == [(ctx.grid.n_interior, ctx.grid.n_interior)]

    def test_square_only_guard(self, ctx_cache):
        ctx = ctx_cache("disk_ex2", 33)
        with pytest.raises(ValueError, match="square"):
            solve_transport(ctx, ctx.grid.field(1.0))


class TestFisherTransportIdentity:
    """The paper's identity i_psi^{-1} = ||L phi||^2, with phi the solution
    of grad u . grad phi = psi, ties fisher_information to solve_transport."""

    @pytest.mark.parametrize("kind", ["bump", "in_range"])
    @pytest.mark.parametrize("bump", [None, True], ids=["theta1", "theta_bump"])
    @pytest.mark.parametrize("res", [25, 33, 49])
    def test_inverse_fisher_is_the_norm_of_L_phi(self, ctx_cache, res, bump, kind):
        ctx = ctx_cache("square_ex1", res, theta_bump=bump)
        psi = psi_fixture(ctx, kind)
        phi, _ = solve_transport(ctx, psi)
        assert norm_l2(ctx.op.apply_operator(phi)) ** 2 == pytest.approx(
            fisher_information(ctx, psi).i_inverse_full, rel=1e-12)


class TestKernelElements:
    """Approximate kernel directions built from first integrals."""

    def test_hyperbolic_first_integral_damps_source(self, ctx_cache):
        """h = exp(-r) x/y has div(h grad u) smaller than h by an O(h_mesh)
        factor: a genuine near-kernel direction.  The walk follows the rays
        x/y = const exactly, so x/y holds to rounding at the entry points."""
        ctx = ctx_cache("square_ex1", 17)
        h = kernel_element(ctx, lambda x, y: x / y, f_tol=1e-13)
        ratio = norm_l2(ctx.perturbation_source(h)) / norm_l2(h)
        assert ratio <= 10.0 * ctx.grid.h_mesh

    def test_harmonic_base_admits_constants(self, ctx_cache):
        """With a harmonic base solution the damping exponent vanishes, so
        F = 1 returns h = 1 and an exactly annihilated source."""
        ctx = ctx_cache("saddle", 17)
        h = kernel_element(ctx, lambda x, y: np.ones_like(x))
        np.testing.assert_allclose(h.values, 1.0, atol=1e-12)
        assert norm_l2(ctx.perturbation_source(h)) <= 1e-10

    def test_non_invariant_function_rejected(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        with pytest.raises(ValueError, match="drifts"):
            kernel_element(ctx, lambda x, y: x)

    def test_zero_function_rejected(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        with pytest.raises(ValueError, match="vanishes"):
            kernel_element(ctx, lambda x, y: np.zeros_like(x))
