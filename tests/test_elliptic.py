"""Divergence-form solver: exactness, convergence, symmetry, validation,
and the face pattern shared by K and T."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ellinfo import elliptic
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


def base_solution(name, grid):
    """The fixture's solution u at theta = 1."""
    return DivergenceFormOperator(Conductivity.constant(grid)).solve(*fixture_data(name, grid))


def past_lu_size(monkeypatch):
    """Make every operator built afterwards take the size past the LU budget:
    no LU of K, and PCG preconditioned by the theta = 1 inverse."""
    monkeypatch.setattr(elliptic, "DIRECT_SOLVE_MAX_UNKNOWNS", 0)


def smooth_block(grid, seed, size=16):
    """A block of smooth interior right-hand sides."""
    return grid.restrict(random_smooth_field(grid, np.random.default_rng(seed),
                                             apply_collar=False, size=size))


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

    @pytest.mark.parametrize("name, res, bump", [("square_ex1", 33, None),
                                                  ("disk_ex2", 40, True), ("saddle", 25, None)])
    def test_apply_operator_on_a_stack_matches_single_calls(self, ctx_cache, name, res, bump):
        """An (n_nodes, 6) stack with boundary values gives each column's
        single call bit for bit."""
        op = ctx_cache(name, res, theta_bump=bump).op
        grid = op.grid
        stack = random_smooth_field(grid, np.random.default_rng(6), apply_collar=False, size=6)
        stack.values += np.outer(grid.x + 0.5 * grid.y, np.arange(1.0, 7.0))
        got = op.apply_operator(stack).values
        assert got.shape == (grid.n_nodes, 6)
        for j in range(6):
            np.testing.assert_array_equal(
                got[:, j], op.apply_operator(ScalarField(grid, stack.values[:, j])).values)

    def test_zero_boundary_inverse_is_self_adjoint(self):
        grid = square(15)
        rng = np.random.default_rng(3)
        theta = Conductivity.from_perturbation(
            grid, scaled(random_smooth_field(grid, rng), 0.2), eta=None)
        op = DivergenceFormOperator(theta)
        w1 = random_smooth_field(grid, rng, apply_collar=False)
        w2 = random_smooth_field(grid, rng, apply_collar=False)
        lhs = inner_l2(op.solve(w1), w2)
        rhs = inner_l2(w1, op.solve(w2))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1.0)

    def test_inverse_quadratic_form_is_negative(self):
        """The operator is negative definite, so <w, V w> < 0 for w != 0."""
        grid = square(15)
        w = random_smooth_field(grid, np.random.default_rng(4), apply_collar=False)
        op = DivergenceFormOperator(Conductivity.constant(grid))
        assert inner_l2(w, op.solve(w)) < 0.0

    def test_cg_mode_matches_direct(self, monkeypatch):
        """A random theta past the LU size: PCG by the theta = 1 inverse
        iterates to the LU's answer, inside the backward-error bound."""
        grid = square(25)
        rng = np.random.default_rng(8)
        theta = Conductivity.from_perturbation(
            grid, scaled(random_smooth_field(grid, rng), 0.15), eta=None)
        f = random_smooth_field(grid, rng, apply_collar=False)
        u_direct = DivergenceFormOperator(theta).solve(f)
        past_lu_size(monkeypatch)
        op_cg = DivergenceFormOperator(theta)
        u_cg = op_cg.solve(f)
        assert op_cg.mode == "separable" and op_cg._lu is None
        assert op_cg.last_stats["mode"] == "separable"
        assert op_cg.last_stats["iterations"] > 1
        assert op_cg.last_stats["backward_error"] <= elliptic.BACKWARD_ERROR_RTOL
        np.testing.assert_allclose(u_cg.values, u_direct.values, atol=1e-8)

    @pytest.mark.parametrize("name", ["square_ex1", "disk_ex2"])
    def test_cg_at_unit_conductivity_is_a_direct_solve(self, monkeypatch, name):
        """The preconditioner is the exact inverse of the theta = 1 operator,
        so PCG stops at step 1, x = M b: the separable apply bit for bit, at
        any size."""
        grid = fixture_grid(name, 25)
        f, g = fixture_data(name, grid)
        theta = Conductivity.constant(grid)
        op = DivergenceFormOperator(theta)
        u = op.solve(f, g)
        assert op.last_stats["mode"] == "separable" and op.last_stats["iterations"] == 1
        rhs = op.C @ g.values[grid.boundary_ids] - grid.weights_interior * grid.restrict(f)
        np.testing.assert_array_equal(grid.restrict(u), op._theta1_inverse @ rhs)
        past_lu_size(monkeypatch)
        op_cg = DivergenceFormOperator(theta)
        np.testing.assert_array_equal(op_cg.solve(f, g).values, u.values)
        assert op_cg.last_stats == op.last_stats

    def test_cg_with_a_bump_on_the_periodic_disk(self, monkeypatch):
        """A non-separable theta (three times the fixture's bump) on the disk:
        the theta = 1 inverse with its periodic angular factor still leaves
        only a few CG steps."""
        grid = fixture_grid("disk_ex2", 40)
        f, g = fixture_data("disk_ex2", grid)
        theta = Conductivity.with_bump(grid, (0.3, 0.25), 0.3, 0.45)
        u_direct = DivergenceFormOperator(theta).solve(f, g)
        past_lu_size(monkeypatch)
        op_cg = DivergenceFormOperator(theta)
        u_cg = op_cg.solve(f, g)
        assert 3 <= op_cg.last_stats["iterations"] <= 15
        np.testing.assert_allclose(u_cg.values, u_direct.values, rtol=0.0, atol=1e-10)

    def test_size_picks_the_solver(self, monkeypatch):
        """Up to ``DIRECT_SOLVE_MAX_UNKNOWNS`` interior unknowns, theta = 1
        takes the separable inverse and factors nothing, and any other theta,
        even one off by 1e-15 at a single node, takes the LU.  Beyond, both
        take the separable inverse as PCG's preconditioner.  The constant is
        read per operator."""
        grid = square(15)
        unit = Conductivity.constant(grid)
        bumped = Conductivity.with_bump(grid, (1.5, 1.5), 0.25, 0.15)
        nudged = grid.field(1.0)
        nudged.values[grid.interior_ids[0]] += 1e-15
        monkeypatch.setattr(elliptic, "DIRECT_SOLVE_MAX_UNKNOWNS", 13 * 13)
        op = DivergenceFormOperator(unit)
        assert op.mode == "separable" and op._lu is None
        for theta in (bumped, Conductivity(nudged, eta=None)):
            op = DivergenceFormOperator(theta)
            assert op.mode == "direct" and op._lu is not None
        monkeypatch.setattr(elliptic, "DIRECT_SOLVE_MAX_UNKNOWNS", 13 * 13 - 1)
        for theta in (unit, bumped):
            op = DivergenceFormOperator(theta)
            assert op.mode == "separable" and op._lu is None

    @pytest.mark.parametrize("name, res, center", [("square_ex1", 33, (1.5, 1.5)),
                                                   ("disk_ex2", 40, (0.3, 0.25))])
    def test_lu_pivots_on_the_diagonal(self, name, res, center):
        """K is SPD, so its LU takes a symmetric ordering and diagonal pivots:
        one permutation for rows and columns, less fill than ``splu``'s
        defaults (COLAMD, partial pivoting), and the same solution to 1e-12."""
        grid = fixture_grid(name, res)
        op = DivergenceFormOperator(Conductivity.with_bump(grid, center, 0.25, 0.15))
        lu, default = op._lu, spla.splu(op.K.tocsc())
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)
        assert lu.L.nnz + lu.U.nnz < 0.7 * (default.L.nnz + default.U.nnz)
        b = smooth_block(grid, 8, size=3)
        x = default.solve(b)
        np.testing.assert_allclose(lu.solve(b), x, rtol=0.0, atol=1e-12 * np.abs(x).max())


class TestSeparableSolve:
    """At theta = 1 the operator solves by its separable inverse, checked
    against a sparse LU of the same K on both domains."""

    @pytest.mark.parametrize("name,res", [("square_ex1", 17), ("square_ex1", 33),
                                          ("square_ex1", 129), ("disk_ex2", 20),
                                          ("disk_ex2", 40), ("disk_ex2", 96)])
    def test_matches_the_lu_of_the_same_operator(self, name, res):
        """Backward error at most 1e-14; each column within 1e-10 of the LU
        solution, and within 1e-13 of its own single solve (relative)."""
        grid = fixture_grid(name, res)
        op = DivergenceFormOperator(Conductivity.constant(grid))
        assert op.mode == "separable" and op._lu is None
        F = smooth_block(grid, res)
        block = op._solve_spd(F)
        assert op.last_stats["backward_error"] <= 1e-14
        lu = spla.splu(op.K.tocsc()).solve(F)
        for j in range(16):
            single = op._solve_spd(np.ascontiguousarray(F[:, j]))
            assert op.last_stats["backward_error"] <= 1e-14
            scale = np.abs(lu[:, j]).max()
            assert np.abs(block[:, j] - lu[:, j]).max() <= 1e-10 * scale
            assert np.abs(block[:, j] - single).max() <= 1e-13 * scale


class TestPCG:
    """The one PCG loop behind every solve with K."""

    @pytest.mark.parametrize("name,res,center", [("square_ex1", 25, (1.6, 1.4)),
                                                 ("disk_ex2", 40, (0.3, 0.25))])
    def test_block_with_the_separable_preconditioner_matches_the_lu(self, monkeypatch,
                                                                    name, res, center):
        """A bumped theta past the (patched) LU size iterates, and each column
        of a 16-column block is within 1e-10 of its single solve and of
        ``splu`` of the same K (relative)."""
        past_lu_size(monkeypatch)
        grid = fixture_grid(name, res)
        theta = Conductivity.with_bump(grid, center, 0.28, 0.3)
        op = DivergenceFormOperator(theta)
        assert op.mode == "separable" and op._lu is None
        F = smooth_block(grid, res)
        block = op._solve_spd(F)
        assert op.last_stats["iterations"] > 1
        assert op.last_stats["backward_error"] <= elliptic.BACKWARD_ERROR_RTOL
        lu = spla.splu(op.K.tocsc()).solve(F)
        for j in range(16):
            single = op._solve_spd(np.ascontiguousarray(F[:, j]))
            scale = np.abs(lu[:, j]).max()
            assert np.abs(block[:, j] - lu[:, j]).max() <= 1e-10 * scale
            assert np.abs(block[:, j] - single).max() <= 1e-10 * scale

    @pytest.mark.parametrize("name,res", [("square_ex1", 17), ("square_ex1", 129),
                                          ("square_ex1", 257), ("disk_ex2", 96),
                                          ("disk_ex2", 192)])
    def test_unit_conductivity_takes_one_step_at_every_size(self, name, res):
        """Below and past the LU size (257, disk 192) alike."""
        grid = fixture_grid(name, res)
        f, g = fixture_data(name, grid)
        op = DivergenceFormOperator(Conductivity.constant(grid))
        u = op.solve(f, g)
        assert op.last_stats["mode"] == "separable" and op.last_stats["iterations"] == 1
        assert op.last_stats["backward_error"] <= elliptic.BACKWARD_ERROR_RTOL
        error = np.abs(u.values - exact_solution(name, grid).values).max()
        assert error <= (1e-10 if res < 192 else 1e-8)

    def test_a_scaled_preconditioner_is_corrected(self, monkeypatch):
        """A theta = 1 inverse off by 0.1 % is a valid preconditioner: the
        step after x = M b recovers the LU solution on disk 20."""
        exact = DivergenceFormOperator._theta1_inverse.func
        monkeypatch.setattr(DivergenceFormOperator, "_theta1_inverse",
                            property(lambda op: 1.001 * exact(op)))
        grid = fixture_grid("disk_ex2", 20)
        f, g = fixture_data("disk_ex2", grid)
        op = DivergenceFormOperator(Conductivity.constant(grid))
        u = grid.restrict(op.solve(f, g))
        assert op.last_stats["iterations"] == 2
        assert op.last_stats["backward_error"] <= elliptic.BACKWARD_ERROR_RTOL
        rhs = op.C @ g.values[grid.boundary_ids] - grid.weights_interior * grid.restrict(f)
        lu = spla.splu(op.K.tocsc()).solve(rhs)
        assert np.abs(u - lu).max() <= 1e-10 * np.abs(lu).max()

    def test_iteration_cap_raises_naming_the_solve(self, monkeypatch):
        """A bumped theta past the LU size needs more steps than a cap of 2;
        on the LU, whose first step is exact, a cap of 1 serves."""
        grid = square(17)
        op = DivergenceFormOperator(Conductivity.with_bump(grid, (1.5, 1.5), 0.25, 0.15))
        past_lu_size(monkeypatch)
        op_pcg = DivergenceFormOperator(op.theta)
        monkeypatch.setattr(elliptic, "PCG_MAXITER", 2)
        with pytest.raises(RuntimeError, match=r"^separable solve of K: backward error .* "
                                               r"after 2 PCG steps \(bound 1e-12, cap 2\)$"):
            op_pcg.solve(grid.field(1.0))
        monkeypatch.setattr(elliptic, "PCG_MAXITER", 1)
        op.solve(grid.field(1.0))
        assert op.last_stats == {"mode": "direct", "iterations": 1,
                                 "backward_error": op.max_backward_error}


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


def _faces_reference(grid):
    """The arrays of ``grid.faces`` in field order, built all steps at once
    on (steps, m) stacks, as the face pattern was first built."""
    n1, m = grid.shape[1], grid.n_interior
    I, J = np.divmod(grid.interior_ids, n1)
    D0, D1, G = zip(*grid._face_steps())
    d0, d1 = np.array(D0)[:, None], np.array(D1)[:, None]
    valid = I + d0 >= 0
    nb = np.where(valid, (I + d0) * n1 + (J + d1) % n1, 0)
    inward = (I - d0) * n1 + (J - d1) % n1
    on_boundary = grid.boundary_mask[nb]
    rows = np.broadcast_to(np.arange(m), valid.shape)
    nb_col = np.where(valid & ~on_boundary, grid.interior_index[nb], m)
    table = np.sort(np.vstack([rows[:1], nb_col]), axis=0)
    indptr = np.concatenate([[0], np.cumsum(np.sum(table < m, axis=0))])
    col = grid.interior_index[np.where(on_boundary, inward, nb)]
    diag, off = ((indptr[:-1] + np.sum(table[:, None] < c, axis=0))[valid].astype(np.int32)
                 for c in (rows, col))
    return (np.broadcast_to(grid.interior_ids, valid.shape)[valid], nb[valid],
            np.array([np.broadcast_to(g, (m,)) for g in G])[valid], on_boundary[valid],
            indptr.astype(np.int32), table.T[table.T < m].astype(np.int32), diag, off)


PATTERN_CONFIGS = [("square_ex1", 8, None), ("square_ex1", 17, None), ("square_ex1", 33, True),
                   ("saddle", 8, None), ("saddle", 17, None), ("saddle", 33, True),
                   ("disk_ex2", 8, None), ("disk_ex2", 20, None), ("disk_ex2", 40, True),
                   ("square_ex1", (9, 14), None), ("disk_ex2", (12, 30), None)]


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
    def test_faces_match_the_all_steps_build(self, ctx_cache, name, resolution, bump):
        grid = ctx_cache(name, resolution, theta_bump=bump).grid
        for field, ref in zip(vars(grid.faces), _faces_reference(grid), strict=True):
            a = getattr(grid.faces, field)
            assert a.dtype == ref.dtype and a.tobytes() == ref.tobytes(), field

    def test_fill_sums_each_slot_in_order(self):
        """Parts whose slots repeat, within a part and across parts, fill the
        bits of one bincount over their concatenation."""
        fs = fixture_grid("square_ex1", 9).faces
        rng = np.random.default_rng(5)
        parts = [(rng.integers(0, fs.indices.size, n).astype(np.int32), rng.standard_normal(n))
                 for n in (300, 7, 120)]
        ref = np.bincount(np.concatenate([p[0] for p in parts]),
                          np.concatenate([p[1] for p in parts]), minlength=fs.indices.size)
        assert fs.fill(*parts).data.tobytes() == ref.tobytes()

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


def _traced_peak(call):
    """call()'s result and the peak of the memory it allocated, as traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFaceBuildMemory:
    """The faces and K are built one step, or one part, at a time."""

    def test_peak_memory_in_units_of_the_face_set(self):
        """Traced peaks at disk 96 over the bytes of its FaceSet: 1.95 for the
        grid and its faces, written step by step into arrays of their final
        size, and 0.90 for the theta = 1 operator, K filled part by part in
        place.  On (steps, m) stacks and one concatenated bincount they were
        3.2 and 1.5."""
        spec = fixture_domain("disk_ex2", 96)
        fs, faces_peak = _traced_peak(lambda: build_grid(spec).faces)
        unit = sum(a.nbytes for a in vars(fs).values())
        grid = build_grid(spec)
        grid.faces
        _, operator_peak = _traced_peak(lambda: DivergenceFormOperator(Conductivity.constant(grid)))
        assert faces_peak <= 2.25 * unit
        assert operator_peak <= 1.1 * unit


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
        u = op.solve(ScalarField(grid, mode))
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
    """The pointwise lower bound c0_hat = min(Lap u + mu |grad u|^2), mu = 4."""

    def test_square_base_matches_closed_form(self):
        grid = fixture_grid("square_ex1", 33)
        c0_hat = check_identifiability(base_solution("square_ex1", grid))
        h = 1.0 / 32.0
        expected = 2.0 + 4.0 * 2.0 * (1.0 + h) ** 2
        np.testing.assert_allclose(c0_hat, expected, rtol=1e-10)
        assert c0_hat > 0.0

    def test_disk_base_matches_closed_form(self):
        grid = fixture_grid("disk_ex2", 33)
        c0_hat = check_identifiability(base_solution("disk_ex2", grid))
        dr = 2.0 / 65.0
        np.testing.assert_allclose(c0_hat, 2.0 + 4.0 * (dr / 2.0) ** 2, rtol=1e-3)
        assert c0_hat > 0.0

    def test_harmonic_base_needs_gradient_term(self, monkeypatch):
        """With f = 0 the Laplacian term vanishes, so mu = 0 fails and the
        gradient term alone must carry the bound."""
        grid = fixture_grid("saddle", 33)
        u = base_solution("saddle", grid)
        assert elliptic.IDENTIFIABILITY_MU == 4.0
        monkeypatch.setattr(elliptic, "IDENTIFIABILITY_MU", 0.0)
        flat = check_identifiability(u)
        assert not flat > 1e-6
        assert abs(flat) <= 1e-9
        monkeypatch.undo()
        lifted = check_identifiability(u)
        h = 1.0 / 32.0
        np.testing.assert_allclose(lifted, 32.0 * (1.0 + h) ** 2, rtol=1e-10)
        assert lifted > 1e-6
