"""Flow-line machinery: curve tracing, curve integrals, range verdicts,
characteristic transport solves, and first-integral kernel elements."""

import math

import numpy as np
import pytest

from ellinfo.fixtures import build_context, in_range_fixture, psi_fixture
from ellinfo.grids import ScalarField, make_bump, norm_l2
from ellinfo.transport import (RANGE_VERDICTS, kernel_element, line_integral,
                               range_verdict, ray_integral_disk,
                               solve_transport, trace_curve,
                               _inflow_boundary_nodes, _sweep_from_nodes)


def annular_psi(grid, r0=0.55, width=0.20):
    """Radially symmetric mollifier ring, supported away from the origin."""
    r = np.hypot(grid.x, grid.y)
    s = (r - r0) / width
    vals = np.where(np.abs(s) < 1.0,
                    np.exp(-1.0 / np.maximum(1.0 - s**2, 1e-300)), 0.0)
    return ScalarField(grid, vals)


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
            acc, _ = _sweep_from_nodes(ctx, pairs, psi.values, sign=1.0,
                                       nudge=True)
            scale = np.max(np.abs(acc))
            for i in np.argsort(-np.abs(acc))[:5]:
                gu = np.array([ctx.grad_u.vx[ids[i]], ctx.grad_u.vy[ids[i]]])
                start = pairs[i] + 1e-9 * gu / np.linalg.norm(gu)
                li = line_integral(psi, trace_curve(ctx, start, "forward"))
                assert abs(acc[i] - li) / scale <= 1e-4


class TestDiskRays:
    """Ray integrals on the disk, where curves are radii."""

    def test_radial_functional_gives_equal_rays(self, ctx_cache):
        ctx = ctx_cache("disk_ex2", 33)
        psi = annular_psi(ctx.grid)
        angles = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        vals = np.array([ray_integral_disk(psi, (math.cos(a), math.sin(a)))
                         for a in angles])
        assert np.ptp(vals) <= 1e-9 * np.abs(vals).max()

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
        with pytest.raises(ValueError, match="origin"):
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
    """Characteristic solves of grad u . grad y = psi on the square."""

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
