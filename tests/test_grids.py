"""Grid geometry, quadrature, stencils, interpolation, and field utilities."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator

from ellinfo.grids import (COLLAR_CELLS, DomainKind, DomainSpec, ScalarField,
                           _diff, build_grid, inner_l2, laplacian, make_bump,
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

    def test_disk_gradient_keeps_the_uncached_bits(self):
        """The cached angle rows give, bit for bit, what cos and sin of the
        angles computed per call give, with the division by r kept, for a
        field and a stack, on the first call and on later ones."""
        g = disk(20)
        for values in (g.x * g.y + g.y**3, random_smooth_field(
                g, np.random.default_rng(1), apply_collar=False, size=3).values):
            v = g.reshape(values)
            tail = (1,) * (v.ndim - 2)
            dvr = _diff(v, g.dr, 0)
            dvt = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * g.dt)
            R, ct, st = (a.reshape(a.shape + tail) for a in (
                g.rs[:, None], np.cos(g.ts)[None, :], np.sin(g.ts)[None, :]))
            expected = ((ct * dvr - st * dvt / R).reshape(values.shape),
                        (st * dvr + ct * dvt / R).reshape(values.shape))
            for _ in range(2):
                for got, want in zip(g.gradient(values), expected):
                    np.testing.assert_array_equal(got, want)

    def test_laplacian_field_wrapper(self):
        g = square(17)
        f = g.field(lambda x, y: x**2 - y**2)
        lap = laplacian(f)
        interior = g.reshape(lap.values)[1:-1, 1:-1]
        np.testing.assert_allclose(interior, 0.0, atol=1e-10)


class TestStackedCalculus:
    """Every calculus function takes an (n_nodes, k) stack and returns what
    k single-field calls return, bit for bit, on both grids."""

    @staticmethod
    def stack(g, k=6):
        return random_smooth_field(g, np.random.default_rng(3), apply_collar=False, size=k)

    @pytest.mark.parametrize("g", [square(33), disk(20)], ids=["square", "disk"])
    def test_derivatives(self, g):
        F = self.stack(g).values
        for op in (g.gradient, g.second_derivatives,
                   lambda v: (laplacian(ScalarField(g, v)).values,)):
            parts = op(F)
            for j in range(F.shape[1]):
                for part, single in zip(parts, op(np.ascontiguousarray(F[:, j]))):
                    assert part.shape == F.shape
                    np.testing.assert_array_equal(part[:, j], single)

    @pytest.mark.parametrize("g", [square(33), disk(20)], ids=["square", "disk"])
    def test_norms_and_inner_product(self, g):
        S = self.stack(g)
        cols = [ScalarField(g, S.values[:, j].copy()) for j in range(S.values.shape[1])]
        for order in (0, 1, 2):
            np.testing.assert_array_equal(sobolev_norm(S, order),
                                          [sobolev_norm(c, order) for c in cols])
        np.testing.assert_array_equal(norm_l2(S), [norm_l2(c) for c in cols])
        np.testing.assert_array_equal(inner_l2(S, S), [inner_l2(c, c) for c in cols])
        assert isinstance(sobolev_norm(cols[0], 2), float)
        assert isinstance(inner_l2(cols[0], cols[1]), float)

    def test_stack_plumbing(self):
        """Stacks reshape onto the tensor shape, restrict and scatter by row;
        a third axis is rejected."""
        g = disk(12)
        S = self.stack(g, 3)
        assert g.reshape(S.values).shape == g.shape + (3,)
        back = g.interior_field(g.restrict(S))
        np.testing.assert_array_equal(back.values[g.interior_ids], S.values[g.interior_ids])
        assert not back.values[g.boundary_ids].any()
        with pytest.raises(ValueError, match="nodes"):
            ScalarField(g, np.zeros((g.n_nodes, 2, 2)))


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


def rgi_interpolator(g, values):
    """Oracle: scipy's linear ``RegularGridInterpolator`` on the grid's tensor
    axes ((x, y) on the square, (r, theta) with the ring-0 average at the
    origin and a periodic column on the disk), extrapolating past the edges."""
    vals = np.asarray(values, dtype=float)
    v = vals.reshape(g.shape + vals.shape[1:])
    if g.spec.kind is DomainKind.SQUARE:
        axes = (g.xs, g.ys)
    else:
        axes = (np.concatenate([[0.0], g.rs]), np.append(g.ts, 2.0 * math.pi))
        origin = np.repeat(v[:1].mean(axis=1, keepdims=True), g.shape[1], axis=1)
        v = np.concatenate([origin, v], axis=0)
        v = np.concatenate([v, v[:, :1]], axis=1)
    rgi = RegularGridInterpolator(axes, v, method="linear",
                                  bounds_error=False, fill_value=None)

    def interp(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if g.spec.kind is DomainKind.DISK:
            pts = np.column_stack([np.hypot(pts[:, 0], pts[:, 1]),
                                   np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)])
        return rgi(pts)

    return interp


def evaluations(g, values, points):
    """The interpolant at Cartesian points, by the oracle and by the prepared
    interpolator at their grid coordinates."""
    return rgi_interpolator(g, values)(points), g.interpolator(values)(g.grid_coords(points))


def gathered_locate(g, coords):
    """Reference: the cells of grid coordinates, located arithmetically and
    clipped to the edge cells, and the offsets in them from the gathered
    nodes and widths, (c - nodes[k]) / widths[k], on every axis."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    k, offsets = [], []
    for ax, (nodes, origin, h) in enumerate(g._tensor_axes()):
        widths, c = np.diff(nodes), coords[:, ax]
        k.append(np.clip((c - origin) / h, 0, widths.size - 1).astype(np.intp))
        offsets.append((c - nodes[k[-1]]) / widths[k[-1]])
    return (k[0] * widths.size + k[1], *offsets)  # widths of axis 1


def sparse_product_interpolator(g, values):
    """Reference: the bilinear interpolant as one sparse product per call,
    whose row i is [1, s_i, t_i, s_i t_i] against the four table rows of
    point i's cell, located by :func:`gathered_locate`."""
    vals = np.asarray(values, dtype=float)
    v = g._tensor_values(vals)
    v00, v10, v01, v11 = v[:-1, :-1], v[1:, :-1], v[:-1, 1:], v[1:, 1:]
    table = np.stack([v00, v10 - v00, v01 - v00, (v11 - v10) - (v01 - v00)], axis=2)
    table = table.reshape((-1,) + vals.shape[1:])

    def interpolate(coords):
        cell, s, t = gathered_locate(g, coords)
        n = cell.size
        rows = np.column_stack([np.ones(n), s, t, s * t])
        col = 4 * cell
        P = sp.csr_matrix((rows.reshape(-1), np.stack([col, col + 1, col + 2, col + 3],
                                                      axis=1).reshape(-1),
                           np.arange(0, 4 * n + 1, 4)), shape=(n, table.shape[0]))
        return P @ table

    return interpolate


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
    """The prepared bilinear interpolator on both grids, scalar and stacked."""

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
        """An (n_nodes, k) stack interpolates like k separate scalar calls,
        bit for bit, in the origin cell too."""
        for g in (square(17), disk(12)):
            a = g.x + 2.0 * g.y
            b = g.x * g.y
            stacked = g.interpolator(np.column_stack([a, b]))
            pts = np.vstack([[[g.x[5], g.y[5]], [g.x[40], g.y[40]]], special_points(g)])
            coords = g.grid_coords(pts)
            sep = np.column_stack([g.interpolator(a)(coords), g.interpolator(b)(coords)])
            np.testing.assert_array_equal(stacked(coords), sep)

    @staticmethod
    def _test_points(g, rng):
        """5000 random points of the domain, then every special point."""
        if g.spec.kind is DomainKind.SQUARE:
            pts = 1.0 + rng.random((5000, 2))
        else:
            r, t = np.sqrt(rng.random(5000)), 2.0 * math.pi * rng.random(5000)
            pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
        return np.vstack([pts, special_points(g)])

    @pytest.mark.parametrize("g", [square(33), square(25), disk(28)],
                             ids=["square", "square25", "disk"])
    def test_prepared_interpolator_matches_oracle(self, g):
        """The prepared interpolator at grid coordinates reproduces the
        oracle at Cartesian points column by column, at random points and at
        every special point, including the extrapolation past the square's
        edges."""
        rng = np.random.default_rng(5)
        pts = self._test_points(g, rng)
        F = rng.standard_normal((g.n_nodes, 3))
        ref, got = evaluations(g, F, pts)
        assert got.shape == (len(pts), 3)
        assert np.max(np.abs(got - ref)) <= 1e-14

    @pytest.mark.parametrize("g", [square(33), square(25), disk(28)],
                             ids=["square", "square25", "disk"])
    def test_gather_matches_sparse_product(self, g):
        """The gather a + s b + t c + (s t) d sums in the order of the sparse
        product's rows, so a scalar and a 3-column stack agree with
        :func:`sparse_product_interpolator` bit for bit, past the edges, in
        the origin cell and at the seam too."""
        rng = np.random.default_rng(6)
        coords = g.grid_coords(self._test_points(g, rng))
        for F in (rng.standard_normal(g.n_nodes), rng.standard_normal((g.n_nodes, 3))):
            got = g.interpolator(F)(coords)
            assert got.shape == (len(coords),) + F.shape[1:]
            np.testing.assert_array_equal(got, sparse_product_interpolator(g, F)(coords))

    @pytest.mark.parametrize("g, dyadic", [(square(17), True), (square(33), True),
                                           (square(65), True), (square(25), False),
                                           (disk(28), False), (disk(32), False)],
                             ids=["square17", "square33", "square65", "square25",
                                  "disk28", "disk32"])
    def test_dyadic_axes(self, g, dyadic):
        """An axis is dyadic when h is a power of two and its nodes are
        origin + k h bit for bit: the square's at 2^m + 1 nodes, neither
        square 25's (h = 1/24) nor either disk axis."""
        assert [axis[-1] for axis in g._cells] == [dyadic, dyadic]

    @pytest.mark.parametrize("n", [17, 33, 65])
    def test_dyadic_locate_matches_gathered_offsets(self, n):
        """On dyadic axes the offsets x - k, with no gather, equal
        :func:`gathered_locate`'s (c - nodes[k]) / widths[k] bit for bit,
        and so do the cells: at random points, at every special point, and
        up to 0.5, 10 and 1e6 past each edge."""
        g = square(n)
        assert all(axis[-1] for axis in g._cells)
        rng = np.random.default_rng(n)
        coords = np.vstack([self._test_points(g, rng)]
                           + [rng.uniform(1.0 - far, 2.0 + far, (5000, 2))
                              for far in (0.5, 10.0, 1e6)])
        for got, ref in zip(g.locate(coords), gathered_locate(g, coords)):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("g", [square(33), disk(28)], ids=["square", "disk"])
    def test_partition_of_unity(self, g):
        """Constants are reproduced at every special point.  Fields bilinear
        in the grid coordinates are reproduced wherever the cells are
        bilinear in them: everywhere on the square, past its edges too; on
        the disk outside the origin cell, whose inner corners hold the ring-0
        mean, and short of the seam cell, whose 2 pi column repeats theta = 0."""
        coords = g.grid_coords(special_points(g))
        a0, a1 = (g.x, g.y) if g.spec.kind is DomainKind.SQUARE else (g.r, g.t)

        def bilinear(u, v):
            return 0.5 + 0.25 * u - 0.125 * v + 0.0625 * u * v

        got = g.interpolator(np.column_stack([np.full(g.n_nodes, 0.7),
                                              bilinear(a0, a1)]))(coords)
        assert np.max(np.abs(got[:, 0] - 0.7)) <= 1e-14
        u, v = coords.T
        keep = np.ones(len(coords), dtype=bool)
        if g.spec.kind is DomainKind.DISK:
            keep = (u >= g.rs[0]) & (v <= g.ts[-1])
            assert 0 < keep.sum() < len(keep) - 5
        expected = bilinear(u[keep], v[keep])
        assert np.max(np.abs(got[keep, 1] - expected)) <= 1e-14 * np.max(np.abs(expected))


def fresh_smooth_field(g, seed, kmax, apply_collar, contract=None):
    """The double-sine series of random_smooth_field with its tables built
    anew on every call, contracted as the library does unless ``contract``
    (coef, SX, SY) -> values is given."""
    rng = np.random.default_rng(seed)
    if g.spec.kind is DomainKind.SQUARE:
        X, Y = g.x - 1.0, g.y - 1.0
    else:
        X, Y = (g.x + 1.0) / 2.0, (g.y + 1.0) / 2.0
    ks = np.arange(1, kmax + 1)
    coef = rng.standard_normal((kmax, kmax))
    coef = coef * (ks[:, None] ** 2 + ks[None, :] ** 2) ** (-3.0 / 2.0)
    SX = np.sin(np.pi * ks[:, None] * X[None, :])
    SY = np.sin(np.pi * ks[:, None] * Y[None, :])
    vals = (contract(coef, SX, SY) if contract is not None
            else ((coef.T @ SX) * SY).sum(axis=0))
    if apply_collar:
        vals[g.collar_mask] = 0.0
    return vals


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

    @pytest.mark.parametrize("make", [lambda: square(21), lambda: disk(12)],
                             ids=["square", "disk"])
    def test_sine_table_reuse_is_bit_identical(self, make):
        """Fields drawn with the grid's cached sine tables equal a fresh
        evaluation of the series, for both kmax values and collar settings,
        and agree with a plain einsum of the series to rounding."""
        g = make()
        draws = [(1, 8, True), (2, 4, False), (3, 8, False), (4, 4, True),
                 (5, 8, True), (6, 4, False)]
        for seed, kmax, collar in draws:
            field = random_smooth_field(g, seed, kmax=kmax, apply_collar=collar)
            np.testing.assert_array_equal(
                field.values, fresh_smooth_field(g, seed, kmax, collar))
            series = fresh_smooth_field(g, seed, kmax, collar, contract=lambda c, sx, sy:
                                        np.einsum("kl,kn,ln->n", c, sx, sy))
            np.testing.assert_allclose(field.values, series, rtol=0.0, atol=1e-14)
        tables = g._sine_tables[8]
        random_smooth_field(g, 7)
        assert g._sine_tables[8] is tables and sorted(g._sine_tables) == [4, 8]

    @pytest.mark.parametrize("g", [square(33), disk(20)], ids=["square", "disk"])
    def test_stacked_draw_reads_the_same_stream(self, g):
        """A stack of k fields equals k successive single draws from the
        same generator, bit for bit, with and without the collar; size=1
        is a one-column stack."""
        for collar in (True, False):
            stack = random_smooth_field(g, np.random.default_rng(11), apply_collar=collar,
                                        size=5)
            rng = np.random.default_rng(11)
            cols = [random_smooth_field(g, rng, apply_collar=collar).values for _ in range(5)]
            assert stack.values.shape == (g.n_nodes, 5)
            np.testing.assert_array_equal(stack.values, np.column_stack(cols))
        one = random_smooth_field(g, 11, size=1)
        np.testing.assert_array_equal(one.values[:, 0], random_smooth_field(g, 11).values)

    def test_sobolev_norm_orders_nest(self):
        g = square(17)
        f = random_smooth_field(g, 3)
        n0, n1, n2 = (sobolev_norm(f, k) for k in (0, 1, 2))
        assert n0 <= n1 <= n2
        assert n0 == pytest.approx(norm_l2(f), rel=1e-12)
