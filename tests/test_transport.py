"""Flow-line machinery: curve tracing, curve integrals, range verdicts,
transport solves, and first-integral kernel elements."""

import math

import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp

from ellinfo import score, transport
from ellinfo.fixtures import build_context, in_range_fixture, psi_fixture
from ellinfo.grids import ScalarField, make_bump, norm_l2
from ellinfo.spectral import fisher_information
from ellinfo.transport import (CURVE_TERMINATIONS, N_CURVE_SAMPLES, N_RAY_SAMPLES,
                               RANGE_VERDICTS, kernel_element, line_integral,
                               range_verdict, ray_integral_disk,
                               solve_transport, trace_curve,
                               _inflow_boundary_nodes, _support_min_radius,
                               _sweep_from_nodes)
from test_grids import rgi_interpolator


def annular_psi(grid, r0=0.55, width=0.20):
    """Radially symmetric mollifier ring, supported away from the origin."""
    r = np.hypot(grid.x, grid.y)
    s = (r - r0) / width
    vals = np.where(np.abs(s) < 1.0,
                    np.exp(-1.0 / np.maximum(1.0 - s**2, 1e-300)), 0.0)
    return ScalarField(grid, vals)


def solve_ivp_curve(ctx, seed, sign):
    """Oracle: the tracer before batching, one scipy RK45 call per curve with
    terminal boundary and critical-point events, its dense output sampled
    at N_CURVE_SAMPLES uniform parameters.  Returns the termination, the
    end parameter, the samples and the accepted step count."""
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
    sol = solve_ivp(lambda _s, z: sign * flow(z), (0.0, transport.TIME_LIMIT),
                    np.asarray(seed, dtype=float), method="RK45", rtol=transport.ODE_TOL,
                    atol=1e-12, events=[boundary, critical], dense_output=True)
    kind = 0 if sol.t_events[0].size else 1
    s_end = float(sol.t_events[kind][0])
    return (CURVE_TERMINATIONS[kind], s_end,
            sol.sol(np.linspace(0.0, s_end, N_CURVE_SAMPLES)).T, sol.t.size - 1)


class TestCurveTracing:
    """Integral curves of grad u for the square base flow x' = x."""

    def test_exit_time_matches_logarithmic_flow(self, ctx_cache):
        """From (1.5, 1.5) the flow reaches x = 2 after exactly ln(4/3)."""
        ctx = ctx_cache("square_ex1", 25)
        curve = trace_curve(ctx, (1.5, 1.5), "forward")
        assert curve.termination == "boundary_exit"
        np.testing.assert_allclose(curve.travel_time, math.log(4.0 / 3.0),
                                   rtol=0.0, atol=1e-4)

    def test_backward_trace_reaches_inflow_corner(self, ctx_cache):
        """Backward in time the same point contracts to x = 1 after ln(3/2)."""
        ctx = ctx_cache("square_ex1", 25)
        curve = trace_curve(ctx, (1.5, 1.5), "backward")
        assert curve.termination == "boundary_exit"
        np.testing.assert_allclose(curve.travel_time, math.log(3.0 / 2.0),
                                   rtol=0.0, atol=1e-4)

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
    """Integral curves of the radial disk flow, traced through the origin
    cell and across the 0 / 2 pi seam of the grid."""

    @pytest.mark.parametrize("seed", [(0.3, -1e-3), (0.3, 0.2)])
    def test_forward_exits_along_ray_backward_reaches_origin(self, ctx_cache, seed):
        ctx = ctx_cache("disk_ex2", 28)
        ray = np.asarray(seed) / math.hypot(*seed)
        fwd = trace_curve(ctx, seed, "forward")
        assert fwd.termination == "boundary_exit"
        end = fwd.points[-1]
        assert abs(math.hypot(*end) - 1.0) <= 1e-12
        assert end @ ray > 0.0 and abs(end[0] * ray[1] - end[1] * ray[0]) <= 1e-4
        back = trace_curve(ctx, seed, "backward")
        assert back.termination == "critical_point"
        assert math.hypot(*back.points[-1]) <= 1e-4
        assert fwd.n_steps > 0 and back.n_steps > 0


class TestCrossingConsistency:
    """The boundary-to-boundary crossing accumulator agrees with explicit
    quadrature along the traced curve (fundamental theorem of calculus for
    the augmented flow ODE)."""

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


class TestBatchedTracerParity:
    """The batched Dormand-Prince tracer against one solve_ivp call per curve
    plus scipy's Simpson rule: same steps, same crossings."""

    @pytest.mark.parametrize("res", [25, 33])
    def test_verdict_integrals_match_solve_ivp(self, ctx_cache, res):
        ctx = ctx_cache("square_ex1", res)
        psis = [psi_fixture(ctx, kind) for kind in ("bump", "in_range")]
        verdicts = [range_verdict(ctx, psi) for psi in psis]
        ref = np.zeros((len(psis), len(verdicts[0].seeds)))
        for i, seed in enumerate(verdicts[0].seeds):
            for sign in (-1.0, 1.0):
                term, s_end, pts, _ = solve_ivp_curve(ctx, seed, sign)
                assert term == "boundary_exit"
                ss = np.linspace(0.0, s_end, N_CURVE_SAMPLES)
                for k, psi in enumerate(psis):
                    ref[k, i] += simpson(
                        ctx.grid.interpolator(psi.values)(ctx.grid.grid_coords(pts)), x=ss)
        for k, (psi, verdict) in enumerate(zip(psis, verdicts)):
            assert verdict.n_unclassified == 0
            peak = np.max(np.abs(psi.values))
            assert np.max(np.abs(verdict.integrals - ref[k])) <= 1e-6 * peak
            assert 0.0 < verdict.trace_error <= verdict.integral_tol

    @pytest.mark.parametrize("name, res, seeds", [
        ("square_ex1", 25, [(1.5, 1.5), (1.2, 1.7), (1.9, 1.1)]),
        ("square_ex1", 33, [(1.5, 1.5), (1.2, 1.7), (1.9, 1.1)]),
        ("disk_ex2", 28, [(0.3, -1e-3), (0.3, 0.2), (-0.5, 0.4), (0.1, -0.8)])])
    def test_trace_curve_matches_solve_ivp(self, ctx_cache, name, res, seeds):
        """Travel times, end points and step counts, forward and backward,
        also where the disk's backward curves stop at the critical point."""
        ctx = ctx_cache(name, res)
        for seed in seeds:
            for direction, sign in (("forward", 1.0), ("backward", -1.0)):
                curve = trace_curve(ctx, seed, direction)
                term, s_end, pts, n_steps = solve_ivp_curve(ctx, seed, sign)
                assert (curve.termination, curve.n_steps) == (term, n_steps)
                assert abs(curve.travel_time - s_end) <= 1e-10
                assert np.max(np.abs(curve.points - pts)) <= 1e-12


class TestCrossingResolution:
    """Crossing integrals of the in-range functional from the inflow nodes
    at 17^2.  Carrying psi in the ODE state let step control skip kinks of
    the bilinear integrand: the crossing from (1, 1.0625) came out 1.9 %
    off its mirror image from (1.0625, 1)."""

    @staticmethod
    def converged_crossing(ctx, psi, start):
        """Reference: psi carried in the state of one solve_ivp call at
        rtol 1e-10, with a one-point bilinear evaluator."""
        grid = ctx.grid
        cells = np.column_stack([ctx.grad_u.vx, ctx.grad_u.vy, psi.values])
        cells = cells.reshape(grid.shape + (3,))

        def rhs(_s, z):
            a, b = (z[0] - 1.0) / grid.hx, (z[1] - 1.0) / grid.hy
            i = min(max(int(a), 0), grid.shape[0] - 2)
            j = min(max(int(b), 0), grid.shape[1] - 2)
            a, b = a - i, b - j
            return ((1 - a) * ((1 - b) * cells[i, j] + b * cells[i, j + 1])
                    + a * ((1 - b) * cells[i + 1, j] + b * cells[i + 1, j + 1]))

        def exit_(_s, z):
            return min(z[0] - 1.0, 2.0 - z[0], z[1] - 1.0, 2.0 - z[1])

        exit_.terminal, exit_.direction = True, -1.0
        sol = solve_ivp(rhs, (0.0, transport.TIME_LIMIT), np.append(start, 0.0),
                        method="RK45", rtol=1e-10, atol=1e-13, events=[exit_])
        return float(sol.y_events[0][0][2])

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
        assert np.max(np.abs(crossings - crossings[mirror])) <= 1e-4 * scale
        ref = np.array([self.converged_crossing(ctx, psi, z) for z in nodes])
        error = np.max(np.abs(crossings - ref))
        # Simpson's rule on N_CURVE_SAMPLES samples of a C0 integrand errs at
        # O(ds^2) per cell edge crossed; the change under every other sample
        # bounds that error
        lanes = transport._trace(ctx, nodes, np.ones(len(nodes)))
        full, coarse = transport._lane_integrals(grid, psi.values, lanes, np.arange(len(nodes)))
        np.testing.assert_array_equal(full, crossings)
        assert error <= 1e-3 * scale
        assert error <= np.max(np.abs(coarse - full))


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
        """All rays in one call and in the disk verdict match one scipy
        Simpson call per ray on the oracle interpolant at Cartesian points."""
        ctx = ctx_cache("disk_ex2", 40)
        psi = psi_fixture(ctx, kind)
        verdict = range_verdict(ctx, psi)
        t_min = math.log(_support_min_radius(psi) / 2.0)
        ts = np.linspace(t_min, 0.0, N_RAY_SAMPLES)
        interp = rgi_interpolator(ctx.grid, psi.values)
        ref = np.array([simpson(interp(np.exp(ts)[:, None] * z), x=ts)
                        for z in verdict.seeds])
        scale = np.max(np.abs(ref))
        np.testing.assert_array_equal(ray_integral_disk(psi, verdict.seeds), verdict.integrals)
        assert np.max(np.abs(verdict.integrals - ref)) <= 1e-12 * scale
        assert ray_integral_disk(psi, verdict.seeds[5]) == verdict.integrals[5]
        assert verdict.trace_error is None

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
    form, and the outflow mismatch from characteristics traced from the
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
        """The characteristic field, traced back from every interior node to
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
        """The mismatch traces one batch, of one lane per inflow node."""
        ctx = ctx_cache("square_ex1", res)
        batches = []

        def counting_trace(ctx, starts, signs, schedule=None):
            batches.append(len(starts))
            return trace(ctx, starts, signs, schedule)

        trace = transport._trace
        monkeypatch.setattr(transport, "_trace", counting_trace)
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


class TestKernelElements:
    """Approximate kernel directions built from first integrals."""

    def test_hyperbolic_first_integral_damps_source(self, ctx_cache):
        """h = exp(-r) x/y has div(h grad u) smaller than h by an O(h_mesh)
        factor: a genuine near-kernel direction."""
        ctx = ctx_cache("square_ex1", 17)
        h = kernel_element(ctx, lambda x, y: x / y)
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
