"""Divergence-form solver: exactness, convergence, symmetry, validation,
and the face pattern shared by K and T."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from ellinfo.elliptic import (ELLIPTICITY_FLOOR, Conductivity,
                              DivergenceFormOperator, check_identifiability)
from ellinfo.fixtures import FIXTURE_NAMES, exact_solution, fixture_data, fixture_domain
from ellinfo.grids import (DomainKind, DomainSpec, ScalarField, build_grid,
                           inner_l2, norm_l2, random_smooth_field)


def square(n=17):
    return build_grid(DomainSpec(DomainKind.SQUARE, n))


def fixture_grid(name, resolution):
    return build_grid(fixture_domain(name, resolution))


def scaled(field, factor):
    return ScalarField(field.grid, factor * field.values)


class TestExactSolutions:
    """Every shipped fixture has a quadratic base solution that central
    differences reproduce to solver precision."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_unit_conductivity_recovers_closed_form(self, name):
        grid = fixture_grid(name, 33)
        f, g = fixture_data(name, grid)
        u = DivergenceFormOperator(Conductivity.constant(grid)).solve(f, g)
        expected = exact_solution(name, grid)
        assert norm_l2(ScalarField(grid, u.values - expected.values)) <= 1e-10

    def test_boundary_values_are_imposed_exactly(self):
        grid = fixture_grid("square_ex1", 17)
        f, g = fixture_data("square_ex1", grid)
        u = DivergenceFormOperator(Conductivity.constant(grid)).solve(f, g)
        np.testing.assert_array_equal(
            u.values[grid.boundary_ids], g.values[grid.boundary_ids])


class TestManufacturedConvergence:
    """A non-polynomial forced problem converges at second order."""

    @staticmethod
    def _error(n):
        grid = square(n)
        exact = np.sin(math.pi * (grid.x - 1.0)) * np.sin(math.pi * (grid.y - 1.0))
        f = ScalarField(grid, -2.0 * math.pi**2 * exact)
        u = DivergenceFormOperator(Conductivity.constant(grid)).solve(f)
        return norm_l2(ScalarField(grid, u.values - exact))

    def test_error_quarters_under_mesh_halving(self):
        e_coarse, e_fine = self._error(17), self._error(33)
        ratio = e_coarse / e_fine
        assert 3.4 <= ratio <= 4.6


class TestOperatorAlgebra:
    """Forward application, inversion, and the weighted symmetry of the
    zero-boundary solution operator."""

    def test_apply_operator_inverts_solve(self):
        grid = square(17)
        rng = np.random.default_rng(12)
        f = random_smooth_field(grid, rng, apply_collar=False)
        g = ScalarField(grid, grid.x + 0.5 * grid.y)
        theta = Conductivity.from_perturbation(
            grid, scaled(random_smooth_field(grid, rng, apply_collar=True), 0.1), eta=None)
        op = DivergenceFormOperator(theta)
        resid = op.apply_operator(op.solve(f, g))
        np.testing.assert_allclose(
            resid.values[grid.interior_ids], f.values[grid.interior_ids],
            rtol=0.0, atol=1e-10)

    def test_zero_boundary_inverse_is_self_adjoint(self):
        grid = square(15)
        rng = np.random.default_rng(3)
        theta = Conductivity.from_perturbation(
            grid, scaled(random_smooth_field(grid, rng), 0.2), eta=None)
        op = DivergenceFormOperator(theta)
        w1 = random_smooth_field(grid, rng, apply_collar=False)
        w2 = random_smooth_field(grid, rng, apply_collar=False)
        lhs = inner_l2(op.apply_inverse(w1), w2)
        rhs = inner_l2(w1, op.apply_inverse(w2))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)

    def test_inverse_quadratic_form_is_negative(self):
        """The operator is negative definite, so <w, V w> < 0 for w != 0."""
        grid = square(15)
        w = random_smooth_field(grid, np.random.default_rng(4), apply_collar=False)
        op = DivergenceFormOperator(Conductivity.constant(grid))
        assert inner_l2(w, op.apply_inverse(w)) < 0.0

    def test_cg_mode_matches_direct(self):
        grid = square(25)
        rng = np.random.default_rng(8)
        theta = Conductivity.from_perturbation(
            grid, scaled(random_smooth_field(grid, rng), 0.15), eta=None)
        f = random_smooth_field(grid, rng, apply_collar=False)
        u_direct = DivergenceFormOperator(theta, mode="direct").apply_inverse(f)
        op_cg = DivergenceFormOperator(theta, mode="cg", tol=1e-12)
        u_cg = op_cg.apply_inverse(f)
        assert op_cg.last_stats["mode"] == "cg"
        assert op_cg.last_stats["iterations"] > 0
        np.testing.assert_allclose(u_cg.values, u_direct.values, atol=1e-8)

    @pytest.mark.parametrize("name", ["square_ex1", "disk_ex2"])
    def test_cg_at_unit_conductivity_is_a_direct_solve(self, name):
        """The preconditioner is the exact inverse of the theta = 1 operator,
        so CG stops after one or two steps with the LU answer."""
        grid = fixture_grid(name, 25)
        f, g = fixture_data(name, grid)
        theta = Conductivity.constant(grid)
        u_direct = DivergenceFormOperator(theta, mode="direct").solve(f, g)
        op_cg = DivergenceFormOperator(theta, mode="cg")
        u_cg = op_cg.solve(f, g)
        assert op_cg.last_stats["mode"] == "cg"
        assert 1 <= op_cg.last_stats["iterations"] <= 2
        np.testing.assert_allclose(u_cg.values, u_direct.values, rtol=0.0, atol=1e-12)

    def test_cg_with_a_bump_on_the_periodic_disk(self):
        """A non-separable theta (three times the fixture's bump) on the disk:
        the theta = 1 inverse with its periodic angular factor still leaves
        only a few CG steps."""
        grid = fixture_grid("disk_ex2", 40)
        f, g = fixture_data("disk_ex2", grid)
        theta = Conductivity.with_bump(grid, (0.3, 0.25), 0.3, 0.45)
        u_direct = DivergenceFormOperator(theta, mode="direct").solve(f, g)
        op_cg = DivergenceFormOperator(theta, mode="cg", tol=1e-12)
        u_cg = op_cg.solve(f, g)
        assert 3 <= op_cg.last_stats["iterations"] <= 15
        np.testing.assert_allclose(u_cg.values, u_direct.values, rtol=0.0, atol=1e-10)

    def test_unknown_mode_rejected(self):
        grid = square(15)
        with pytest.raises(ValueError, match="mode"):
            DivergenceFormOperator(Conductivity.constant(grid), mode="qmr")


def _coo_faces(grid):
    """Face lists as the COO assembly built them, independently of
    ``Grid.faces`` (ring by ring on the disk): center, nb, geom, whether nb
    is a boundary node, and inward, the node beyond center away from nb."""
    ids = np.arange(grid.n_nodes).reshape(grid.shape)
    parts = []
    if grid.spec.kind is DomainKind.SQUARE:
        nx, ny = grid.shape
        I, J = (a.reshape(-1) for a in np.meshgrid(np.arange(1, nx - 1), np.arange(1, ny - 1),
                                                    indexing="ij"))
        for di, dj, h in ((-1, 0, grid.hx), (1, 0, grid.hx), (0, -1, grid.hy), (0, 1, grid.hy)):
            parts.append((ids[I, J], ids[I + di, J + dj], np.full(I.size, 1.0 / h**2),
                          ids[I - di, J - dj]))
    else:
        rs, dr, n_t = grid.rs, grid.dr, grid.shape[1]
        for i in range(grid.shape[0] - 1):
            row = ids[i]
            parts.append((row, ids[i + 1], np.full(n_t, (rs[i] + dr / 2.0) / (rs[i] * dr**2)),
                          ids[i - 1]))
            if i >= 1:  # no flux through the face at r = 0
                parts.append((row, ids[i - 1],
                              np.full(n_t, (rs[i] - dr / 2.0) / (rs[i] * dr**2)), ids[i + 1]))
            for shift in (-1, 1):
                parts.append((row, np.roll(row, -shift),
                              np.full(n_t, 1.0 / (rs[i] ** 2 * grid.dt**2)), np.roll(row, shift)))
    center, nb, geom, inward = (np.concatenate(a) for a in zip(*parts))
    return center, nb, geom, grid.boundary_mask[nb], inward


def _coo_reference(ctx):
    """K, C and T of a context assembled from COO triplets and converted to
    CSR, the assembly the shared face pattern replaced."""
    grid = ctx.grid
    center, nb, geom, bnd, inward = _coo_faces(grid)
    m, inner = grid.n_interior, ~bnd
    c_int, nb_int = grid.interior_index[center], grid.interior_index[nb[inner]]

    def csr(data, rows, cols, shape=(m, m)):
        return sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                             shape=shape).tocsr()

    th, u = ctx.theta.values, ctx.u.values
    coef = 0.5 * (th[center] + th[nb]) * geom * grid.quad_weights[center]
    K = csr([coef, -coef[inner]], [c_int, c_int[inner]], [c_int, nb_int])
    C = csr([coef[bnd]], [c_int[bnd]], [np.searchsorted(grid.boundary_ids, nb[bnd])],
            (m, grid.boundary_ids.size))
    q = geom * (u[nb] - u[center])
    T = csr([0.5 * q, 0.5 * q[inner], 1.0 * q[bnd], -0.5 * q[bnd]],
            [c_int, c_int[inner], c_int[bnd], c_int[bnd]],
            [c_int, nb_int, c_int[bnd], grid.interior_index[inward[bnd]]])
    return K, C, T


PATTERN_CONFIGS = [("square_ex1", 8, None), ("square_ex1", 17, None), ("square_ex1", 33, True),
                   ("saddle", 8, None), ("saddle", 17, None), ("saddle", 33, True),
                   ("disk_ex2", 8, None), ("disk_ex2", 20, None), ("disk_ex2", 40, True)]


class TestSharedFacePattern:
    """K and T are filled on one CSR pattern per grid, bit for bit the
    matrices of the COO assembly."""

    @pytest.mark.parametrize("name,resolution,bump", PATTERN_CONFIGS)
    def test_matrices_match_the_coo_assembly(self, ctx_cache, name, resolution, bump):
        ctx = ctx_cache(name, resolution, theta_bump=bump)
        for filled, ref in zip((ctx.op.K, ctx.op.C, ctx.T), _coo_reference(ctx)):
            for part in ("indptr", "indices", "data"):
                a, b = getattr(filled, part), getattr(ref, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part

    @pytest.mark.parametrize("name,resolution,bump", PATTERN_CONFIGS)
    def test_K_and_T_share_one_read_only_pattern(self, ctx_cache, name, resolution, bump):
        ctx = ctx_cache(name, resolution, theta_bump=bump)
        ctx.transport_lu()
        fs = ctx.grid.faces
        for M in (ctx.op.K, ctx.T):
            np.testing.assert_array_equal(M.indptr, fs.indptr)
            np.testing.assert_array_equal(M.indices, fs.indices)
            assert M.has_sorted_indices
        for arr in vars(fs).values():
            assert not arr.flags.writeable

    def test_disk_pattern_holds_ring_zero_and_the_seam(self, ctx_cache):
        """Ring 0 couples outward and around only; the seam column couples
        across theta = 0; the ring inside the boundary keeps its inward
        column, where T's extrapolation lands."""
        ctx = ctx_cache("disk_ex2", 20)
        n_r, n_t = ctx.grid.shape
        fs = ctx.grid.faces

        def columns(r):
            return list(fs.indices[fs.indptr[r]:fs.indptr[r + 1]])

        assert columns(0) == [0, 1, n_t - 1, n_t]
        assert columns(n_t) == [0, n_t, n_t + 1, 2 * n_t - 1, 2 * n_t]
        last = (n_r - 2) * n_t
        assert columns(last) == [last - n_t, last, last + 1, last + n_t - 1]
        assert ctx.T[last, last - n_t] != 0.0 and ctx.op.K[last, last - n_t] != 0.0

    @pytest.mark.parametrize("name", ["square_ex1", "disk_ex2"])
    def test_laplacian_is_the_unit_conductivity_operator(self, name):
        grid = fixture_grid(name, 20)
        v = random_smooth_field(grid, np.random.default_rng(21), apply_collar=False)
        lap = grid.laplacian_values(v.values)[grid.interior_ids]
        ref = DivergenceFormOperator(Conductivity.constant(grid)).apply_operator(v)
        ref = ref.values[grid.interior_ids]
        np.testing.assert_allclose(lap, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
        assert not grid.laplacian_values(v.values)[grid.boundary_ids].any()


class TestDiscreteSineOracle:
    """Product sine fields are exact eigenvectors of the unit-conductivity
    operator on the square, with the classical five-point eigenvalues."""

    @pytest.mark.parametrize("j,k", [(1, 1), (2, 3), (5, 5)])
    def test_inverse_scales_sine_modes_exactly(self, j, k):
        grid = square(17)
        h = grid.h_mesh
        mode = np.sin(j * math.pi * (grid.x - 1.0)) * np.sin(k * math.pi * (grid.y - 1.0))
        lam = (4.0 / h**2) * (math.sin(j * math.pi * h / 2.0) ** 2
                              + math.sin(k * math.pi * h / 2.0) ** 2)
        op = DivergenceFormOperator(Conductivity.constant(grid))
        u = op.apply_inverse(ScalarField(grid, mode))
        np.testing.assert_allclose(u.values, -mode / lam, atol=1e-12)


class TestConductivityValidation:
    """Admissibility checks: ellipticity floor, boundary trace, budget."""

    def test_ellipticity_floor_enforced(self):
        grid = square(15)
        with pytest.raises(ValueError, match="ellipticity floor"):
            Conductivity(grid.field(ELLIPTICITY_FLOOR - 0.01))

    def test_boundary_trace_must_be_one(self):
        grid = square(15)
        with pytest.raises(ValueError, match="boundary"):
            Conductivity(grid.field(1.1))

    def test_smoothness_budget_enforced(self):
        grid = square(15)
        bump = scaled(random_smooth_field(grid, np.random.default_rng(5)), 0.3)
        with pytest.raises(ValueError, match="eta"):
            Conductivity.from_perturbation(grid, bump, eta=1e-6)

    def test_non_finite_values_rejected(self):
        grid = square(15)
        vals = np.ones(grid.n_nodes)
        vals[grid.interior_ids[0]] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Conductivity(ScalarField(grid, vals))

    def test_with_bump_is_admissible(self):
        grid = square(33)
        theta = Conductivity.with_bump(grid, (1.6, 1.4), 0.28, 0.15)
        assert theta.min_value > ELLIPTICITY_FLOOR
        assert theta.perturbation_norm() > 0.0


class TestIdentifiability:
    """The pointwise lower bound c0_hat = min(Lap u + mu |grad u|^2)."""

    def test_square_base_matches_closed_form(self):
        grid = fixture_grid("square_ex1", 33)
        f, g = fixture_data("square_ex1", grid)
        rep = check_identifiability(Conductivity.constant(grid), f, g, mu=4.0)
        h = 1.0 / 32.0
        expected = 2.0 + 4.0 * 2.0 * (1.0 + h) ** 2
        np.testing.assert_allclose(rep.c0_hat, expected, rtol=1e-10)
        assert rep.passes

    def test_disk_base_matches_closed_form(self):
        grid = fixture_grid("disk_ex2", 33)
        f, g = fixture_data("disk_ex2", grid)
        rep = check_identifiability(Conductivity.constant(grid), f, g, mu=4.0)
        dr = 2.0 / 65.0
        np.testing.assert_allclose(rep.c0_hat, 2.0 + 4.0 * (dr / 2.0) ** 2, rtol=1e-3)
        assert rep.passes

    def test_harmonic_base_needs_gradient_term(self):
        """With f = 0 the Laplacian term vanishes, so mu = 0 fails and the
        gradient term alone must carry the bound."""
        grid = fixture_grid("saddle", 33)
        f, g = fixture_data("saddle", grid)
        theta = Conductivity.constant(grid)
        flat = check_identifiability(theta, f, g, mu=0.0, c0_min=1e-6)
        assert not flat.passes
        assert abs(flat.c0_hat) <= 1e-9
        lifted = check_identifiability(theta, f, g, mu=4.0, c0_min=1e-6)
        h = 1.0 / 32.0
        np.testing.assert_allclose(lifted.c0_hat, 32.0 * (1.0 + h) ** 2, rtol=1e-10)
        assert lifted.passes

    def test_report_records_inputs(self):
        grid = fixture_grid("square_ex1", 17)
        f, g = fixture_data("square_ex1", grid)
        op = DivergenceFormOperator(Conductivity.constant(grid))
        rep = check_identifiability(op.theta, f, g, mu=2.0, c0_min=1.5, op=op)
        assert rep.mu == 2.0
        assert rep.c0_min == 1.5
        assert rep.passes == (rep.c0_hat > 1.5)
