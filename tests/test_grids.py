"""Grid geometry, quadrature, stencils, interpolation, and field utilities."""

import math

import numpy as np
import pytest

from ellinfo.grids import (COLLAR_CELLS, DomainKind, DomainSpec, ScalarField,
                           build_grid, inner_l2, laplacian, make_bump,
                           norm_l2, random_smooth_field, sobolev_norm)


def square(n=17):
    return build_grid(DomainSpec(DomainKind.SQUARE, n))


def disk(n_r=12):
    return build_grid(DomainSpec(DomainKind.DISK, (n_r, 2 * n_r)))


class TestDomainSpec:
    """Resolution normalization and measure bookkeeping."""

    def test_int_resolution_broadcasts(self):
        """A bare int fills both axes."""
        spec = DomainSpec(DomainKind.SQUARE, 17)
        assert spec.resolution == (17, 17)

    def test_measure_normalization_tracks_domain(self):
        """The sampling measure is Lebesgue over the domain mass: 1 for the
        shifted square, pi for the disk."""
        assert DomainSpec(DomainKind.SQUARE, 17).measure_normalization == 1.0
        assert DomainSpec(DomainKind.DISK, (12, 24)).measure_normalization == math.pi

    def test_mismatched_normalization_rejected(self):
        with pytest.raises(ValueError, match="measure_normalization"):
            DomainSpec(DomainKind.SQUARE, 17, measure_normalization=2.0)

    def test_minimum_resolution_enforced(self):
        with pytest.raises(ValueError, match="minimum"):
            DomainSpec(DomainKind.SQUARE, 4)


class TestSquareGeometry:
    """Node layout, mesh size, and boundary classification on the square."""

    def test_node_counts(self):
        g = square(17)
        assert g.n_nodes == 17 * 17
        assert g.n_interior == 15 * 15
        assert g.n_nodes == g.n_interior + g.boundary_ids.size

    def test_h_mesh(self):
        assert square(33).h_mesh == pytest.approx(1.0 / 32.0)

    def test_boundary_nodes_on_edges(self):
        g = square(17)
        bx, by = g.x[g.boundary_ids], g.y[g.boundary_ids]
        on_edge = (np.isclose(bx, 1) | np.isclose(bx, 2)
                   | np.isclose(by, 1) | np.isclose(by, 2))
        assert on_edge.all()

    def test_collar_width(self):
        """The collar contains exactly the nodes within COLLAR_CELLS cells."""
        g = square(17)
        dist = np.minimum.reduce([g.x - 1, 2 - g.x, g.y - 1, 2 - g.y])
        expected = dist <= COLLAR_CELLS * g.h_mesh + 1e-12
        np.testing.assert_array_equal(g.collar_mask, expected)


class TestDiskGeometry:
    """Origin-free polar layout with the outer ring on the unit circle."""

    def test_no_origin_node_and_boundary_ring(self):
        g = disk(12)
        assert g.r.min() == pytest.approx(g.dr / 2.0)
        np.testing.assert_allclose(g.r[g.boundary_ids], 1.0, rtol=0, atol=1e-14)
        assert g.boundary_ids.size == g.shape[1]

    def test_h_mesh_is_max_spacing(self):
        g = disk(12)
        assert g.h_mesh == pytest.approx(max(g.dr, g.dt))

    def test_rings_cover_unit_radius(self):
        """r_i = (i + 1/2) dr with dr = 2/(2 n_r - 1) puts the last ring at 1."""
        g = disk(9)
        assert g.rs[-1] == pytest.approx(1.0)


class TestQuadrature:
    """Weights integrate the normalized Lebesgue measure."""

    def test_weights_sum_to_one(self):
        """Cell areas tile each domain, so total mass is 1 on both grids."""
        np.testing.assert_allclose(square(17).quad_weights.sum(), 1.0, rtol=1e-13)
        np.testing.assert_allclose(disk(12).quad_weights.sum(), 1.0, rtol=1e-13)

    def test_trapezoid_second_order(self):
        """integral of x^2 over the square carries an O(h^2) quadrature error
        that shrinks fourfold on mesh doubling."""
        exact = 7.0 / 3.0  # int_1^2 x^2 dx
        errs = []
        for n in (17, 33):
            g = square(n)
            errs.append(abs(float(np.sum(g.quad_weights * g.x**2)) - exact))
        assert errs[0] > 0
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_disk_polynomial_moment(self):
        """The annular weights integrate r^2 over the unit disk (pi/2, i.e.
        1/2 after normalization) to second order."""
        errs = []
        for n_r in (12, 24):
            g = disk(n_r)
            val = float(np.sum(g.quad_weights * (g.x**2 + g.y**2)))
            errs.append(abs(val - 0.5))
        assert errs[0] / errs[1] > 3.0

    def test_inner_product_matches_weights(self):
        g = square(17)
        rng = np.random.default_rng(0)
        a = g.field(rng.standard_normal(g.n_nodes))
        b = g.field(rng.standard_normal(g.n_nodes))
        expected = float(np.sum(g.quad_weights * a.values * b.values))
        assert inner_l2(a, b) == pytest.approx(expected, rel=1e-14)
        assert norm_l2(a) == pytest.approx(math.sqrt(inner_l2(a, a)), rel=1e-14)


class TestStencils:
    """Differential stencils are exact on low-order polynomials."""

    def test_square_gradient_exact_on_linear(self):
        g = square(17)
        vals = 2.0 * g.x - 3.0 * g.y + 1.0
        gx, gy = g.gradient(vals)
        np.testing.assert_allclose(gx, 2.0, atol=1e-12)
        np.testing.assert_allclose(gy, -3.0, atol=1e-12)

    def test_square_laplacian_exact_on_quadratic(self):
        """Central second differences reproduce Lap(x^2 + y^2) = 4 exactly."""
        g = square(17)
        lap = g.laplacian_values(g.x**2 + g.y**2)
        interior = g.reshape(lap)[1:-1, 1:-1]
        np.testing.assert_allclose(interior, 4.0, atol=1e-10)

    def test_disk_laplacian_exact_on_paraboloid(self):
        """The polar flux stencil is exact for radially quadratic fields away
        from the boundary ring."""
        g = disk(12)
        lap = g.reshape(g.laplacian_values((g.x**2 + g.y**2 - 1.0) / 2.0))
        np.testing.assert_allclose(lap[:-1, :], 2.0, atol=1e-10)

    def test_disk_gradient_on_radial_field(self):
        g = disk(16)
        gx, gy = g.gradient((g.x**2 + g.y**2 - 1.0) / 2.0)
        keep = g.r < 1.0 - g.dr  # one-sided closure at the rim is lower order
        np.testing.assert_allclose(gx[keep], g.x[keep], atol=5e-3)
        np.testing.assert_allclose(gy[keep], g.y[keep], atol=5e-3)

    def test_laplacian_field_wrapper(self):
        g = square(17)
        f = g.field(lambda x, y: x**2 - y**2)
        lap = laplacian(f)
        interior = g.reshape(lap.values)[1:-1, 1:-1]
        np.testing.assert_allclose(interior, 0.0, atol=1e-10)


class TestFieldPlumbing:
    """ScalarField construction, restriction, and scatter."""

    def test_field_from_callable_and_scalar(self):
        g = square(17)
        assert g.field(3.5).values.max() == 3.5
        f = g.field(lambda x, y: x + y)
        np.testing.assert_allclose(f.values, g.x + g.y)

    def test_wrong_length_rejected(self):
        g = square(17)
        with pytest.raises(ValueError, match="nodes"):
            ScalarField(g, np.zeros(7))

    def test_restrict_scatter_roundtrip(self):
        g = disk(12)
        rng = np.random.default_rng(1)
        interior = rng.standard_normal(g.n_interior)
        f = g.interior_field(interior)
        np.testing.assert_array_equal(g.restrict(f), interior)
        assert np.all(f.values[g.boundary_ids] == 0.0)


def evaluations(g, values, points):
    """The interpolant at the points, by the interpolator, by P @ values and
    by the point evaluator one point at a time."""
    f = g.point_evaluator(values)
    one_by_one = np.array([f(x, y) for x, y in np.asarray(points, dtype=float).tolist()])
    return (g.interpolator(values)(points), g.sample_matrix(points) @ values,
            one_by_one.reshape((len(points),) + np.shape(values)[1:]))


def special_points(g):
    """Corners, edges, nodes and points past the edge of the square; on the
    disk the origin, the origin cell, the 0 / 2 pi seam, the boundary ring
    and points past it."""
    if g.spec.kind is DomainKind.SQUARE:
        return np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0], [2.0, 2.0],
                         [1.5, 1.0], [2.0, 1.37], [1.0, 1.61], [1.23, 2.0],
                         [g.x[40], g.y[40]], [0.97, 1.4], [2.06, 2.02]])
    ring0 = g.rs[0]
    seam = [0.0, 1e-17, -1e-17, 1e-12, -1e-12, math.pi, 2.0 * math.pi - 1e-15]
    return np.array(
        [[0.0, 0.0], [0.3 * ring0, 0.1 * ring0], [-0.5 * ring0, -0.5 * ring0],
         [ring0, 0.0], [0.0, -ring0]]
        + [[0.7 * math.cos(t), 0.7 * math.sin(t)] for t in seam]
        + [[math.cos(t), math.sin(t)] for t in np.linspace(0.0, 2.0 * math.pi, 13)]
        + [[1.05, 0.2], [-0.3, -1.02]])


class TestInterpolation:
    """Bilinear interpolators, the sparse observation operator and the
    one-point evaluator on both grids, scalar and stacked."""

    def test_square_exact_on_bilinear(self):
        g = square(17)
        vals = 2.0 + g.x - 3.0 * g.y + 0.5 * g.x * g.y
        pts = np.array([[1.23, 1.77], [1.5, 1.5], [1.91, 1.08]])
        expected = 2.0 + pts[:, 0] - 3.0 * pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 1]
        for got in evaluations(g, vals, pts):
            np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_disk_origin_uses_ring_average(self):
        """Evaluation at the origin returns the innermost ring mean, so radial
        fields extend continuously across the missing center node."""
        g = disk(12)
        vals = g.r**2
        ring_mean = g.reshape(vals)[0].mean()
        for got in evaluations(g, vals, np.array([[0.0, 0.0]])):
            assert got[0] == pytest.approx(ring_mean)

    def test_disk_angular_wrap(self):
        """Interpolation is continuous across the 0 / 2 pi seam."""
        g = disk(16)
        eps = 1e-9
        pts = np.array([[0.7 * math.cos(-eps), 0.7 * math.sin(-eps)],
                        [0.7 * math.cos(eps), 0.7 * math.sin(eps)]])
        for below, above in evaluations(g, np.cos(g.t), pts):
            assert below == pytest.approx(above, abs=1e-7)

    def test_stacked_components_interpolate_together(self):
        """An (n_nodes, k) stack interpolates like k separate scalar calls."""
        for g in (square(17), disk(12)):
            a = g.x + 2.0 * g.y
            b = g.x * g.y
            stacked = g.interpolator(np.column_stack([a, b]))
            pts = np.array([[g.x[5], g.y[5]], [g.x[40], g.y[40]]])
            sep = np.column_stack([g.interpolator(a)(pts), g.interpolator(b)(pts)])
            np.testing.assert_allclose(stacked(pts), sep, rtol=1e-12)

    @pytest.mark.parametrize("g", [square(33), disk(28)], ids=["square", "disk"])
    def test_sample_matrix_matches_interpolator(self, g):
        """P(X) @ F reproduces the interpolator column by column, at random
        points and at every special point, including the extrapolation past
        the square's edges."""
        rng = np.random.default_rng(5)
        if g.spec.kind is DomainKind.SQUARE:
            pts = 1.0 + rng.random((5000, 2))
        else:
            r, t = np.sqrt(rng.random(5000)), 2.0 * math.pi * rng.random(5000)
            pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
        pts = np.vstack([pts, special_points(g)])
        F = rng.standard_normal((g.n_nodes, 3))
        ref, got, _ = evaluations(g, F, pts)
        assert got.shape == (len(pts), 3)
        assert np.max(np.abs(got - ref)) <= 1e-14

    @pytest.mark.parametrize("g", [square(33), disk(28)], ids=["square", "disk"])
    def test_point_evaluator_matches_interpolator(self, g):
        """The one-point evaluator reproduces the interpolator at random
        points, also past the square's edges and at r > 1, at every node, at
        the origin and on the seam; on the square bit for bit."""
        rng = np.random.default_rng(7)
        if g.spec.kind is DomainKind.SQUARE:
            pts = 0.9 + 1.2 * rng.random((4000, 2))
        else:
            r, t = 1.1 * np.sqrt(rng.random(4000)), 2.0 * math.pi * rng.random(4000)
            pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
        pts = np.vstack([pts, g.nodes, special_points(g),
                         [[0.0, 0.0], [0.3, -0.0], [0.3, -1e-17]]])
        F = rng.standard_normal((g.n_nodes, 2))
        ref, _, got = evaluations(g, F, pts)
        assert got.shape == (len(pts), 2)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        if g.spec.kind is DomainKind.SQUARE:
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("g", [square(33), disk(28)], ids=["square", "disk"])
    def test_sample_matrix_rows(self, g):
        """Every row sums to one; rows hold four entries except in the
        disk's origin cell, whose rows spread over all of ring 0."""
        rng = np.random.default_rng(6)
        pts = np.vstack([special_points(g), rng.uniform(-1.0, 2.0, (500, 2))])
        P = g.sample_matrix(pts)
        assert P.shape == (len(pts), g.n_nodes)
        assert P.indices.dtype == np.int32 and P.indptr.dtype == np.int32
        np.testing.assert_allclose(np.asarray(P.sum(axis=1)).ravel(), 1.0, atol=1e-14)
        counts = np.diff(P.indptr)
        if g.spec.kind is DomainKind.DISK:
            origin = np.hypot(pts[:, 0], pts[:, 1]) < g.rs[0]
            assert origin.sum() >= 3
            assert np.all(counts[origin] == g.shape[1])
            assert np.all(P[np.flatnonzero(origin)].indices < g.shape[1])
            counts = counts[~origin]
        assert np.all(counts == 4)


class TestBumpAndRandomFields:
    """Compactly supported test fields."""

    def test_bump_profile_and_support(self):
        g = square(33)
        bump = make_bump(g, (1.5, 1.5), 0.2, amplitude=2.0)
        assert bump.values.max() == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        outside = (g.x - 1.5) ** 2 + (g.y - 1.5) ** 2 >= 0.04
        assert np.all(bump.values[outside] == 0.0)

    def test_bump_clearance_enforced(self):
        """Support must stay COLLAR_CELLS mesh cells away from the boundary."""
        g = square(33)
        with pytest.raises(ValueError, match="clearance"):
            make_bump(g, (1.9, 1.5), 0.09)
        g_coarse = disk(10)
        with pytest.raises(ValueError, match="clearance"):
            make_bump(g_coarse, (0.6, 0.0), 0.2)

    def test_random_smooth_field_seeded(self):
        """Identical seeds give identical fields; the collar is zeroed."""
        g = square(17)
        f1 = random_smooth_field(g, 7)
        f2 = random_smooth_field(g, 7)
        np.testing.assert_array_equal(f1.values, f2.values)
        assert np.all(f1.values[g.collar_mask] == 0.0)
        free = random_smooth_field(g, 7, apply_collar=False)
        assert np.any(free.values[g.collar_mask] != 0.0)

    def test_sobolev_norm_orders_nest(self):
        g = square(17)
        f = random_smooth_field(g, 3)
        n0, n1, n2 = (sobolev_norm(f, k) for k in (0, 1, 2))
        assert n0 <= n1 <= n2
        assert n0 == pytest.approx(norm_l2(f), rel=1e-12)
