"""Linearized score machinery: source operator, adjoints, remainders,
stability diagnostics."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ellinfo import elliptic, score
from ellinfo.elliptic import Conductivity, DivergenceFormOperator
from ellinfo.fixtures import build_context, psi_fixture
from ellinfo.grids import (ScalarField, inner_l2, make_bump, norm_l2,
                           random_smooth_field)
from ellinfo.score import adjoint_defects, gateaux_remainders, stability_report
from test_acceptance import _adjoint_defects
from test_elliptic import past_lu_size


def interior_residual_norm(grid, got, oracle):
    d = got.values.copy()
    d[grid.interior_ids] -= oracle[grid.interior_ids]
    d[grid.boundary_ids] = 0.0
    return norm_l2(ScalarField(grid, d))


class TestPerturbationSource:
    """T(h) = div(h grad u) agrees with the product rule x.grad h + 2h for
    the square base solution, at second order."""

    @staticmethod
    def _relative_error(ctx, h):
        grid = ctx.grid
        hx, hy = grid.gradient(h.values)
        oracle = grid.x * hx + grid.y * hy + 2.0 * h.values
        return interior_residual_norm(grid, ctx.perturbation_source(h), oracle) / norm_l2(h)

    def test_product_rule_oracle_converges(self):
        errs = []
        for n in (17, 33):
            ctx = build_context("square_ex1", n)
            h = random_smooth_field(ctx.grid, np.random.default_rng(6))
            errs.append(self._relative_error(ctx, h))
        assert errs[1] <= 0.06
        assert errs[0] / errs[1] >= 2.5

    def test_source_is_linear(self):
        ctx = build_context("square_ex1", 17)
        rng = np.random.default_rng(1)
        h1 = random_smooth_field(ctx.grid, rng)
        h2 = random_smooth_field(ctx.grid, rng)
        combo = ScalarField(ctx.grid, 2.0 * h1.values - 3.0 * h2.values)
        expected = (2.0 * ctx.perturbation_source(h1).values
                    - 3.0 * ctx.perturbation_source(h2).values)
        np.testing.assert_allclose(
            ctx.perturbation_source(combo).values, expected, atol=1e-12)


class TestAdjointIdentities:
    """Transpose pairing, information consistency, and the gradient formula."""

    def test_exact_transpose_pairing(self):
        ctx = build_context("square_ex1", 25)
        rng = np.random.default_rng(14)
        h = random_smooth_field(ctx.grid, rng)
        w = random_smooth_field(ctx.grid, rng, apply_collar=False)
        lhs = inner_l2(ctx.apply_linearization(h), w)
        rhs = inner_l2(h, ctx.apply_adjoint_exact(w))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_information_matches_image_norm(self):
        ctx = build_context("square_ex1", 25)
        h = random_smooth_field(ctx.grid, np.random.default_rng(15))
        quad = inner_l2(h, ctx.apply_adjoint_exact(ctx.apply_linearization(h)))
        image = norm_l2(ctx.apply_linearization(h)) ** 2
        np.testing.assert_allclose(quad, image, rtol=1e-9)

    def test_gradient_formula_tracks_exact_transpose(self):
        """The pointwise formula grad u . grad V[g] is a consistent
        discretization of the exact transpose: O(h_mesh) in L2."""
        ctx = build_context("square_ex1", 25)
        w = random_smooth_field(ctx.grid, np.random.default_rng(9),
                                apply_collar=False)
        defect = norm_l2(ScalarField(
            ctx.grid,
            ctx.apply_adjoint(w).values - ctx.apply_adjoint_exact(w).values))
        assert defect / norm_l2(w) <= 5.0 * ctx.grid.h_mesh

    def test_gradient_formula_has_zero_trace(self):
        ctx = build_context("square_ex1", 17)
        w = random_smooth_field(ctx.grid, np.random.default_rng(2),
                                apply_collar=False)
        out = ctx.apply_adjoint(w)
        np.testing.assert_array_equal(out.values[ctx.grid.boundary_ids], 0.0)

    def test_dense_matrix_matches_operator(self):
        """The dense symmetrized matrix reproduces operator application in
        sqrt-weight coordinates."""
        ctx = build_context("square_ex1", 15)
        grid = ctx.grid
        B = ctx.dense_linearization_hat()
        h = random_smooth_field(grid, np.random.default_rng(2))
        sw = np.sqrt(grid.weights_interior)
        lhs = B @ (sw * grid.restrict(h))
        rhs = sw * grid.restrict(ctx.apply_linearization(h))
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)


class TestCollarWarning:
    """Perturbations must vanish on the boundary collar; others are flagged."""

    def test_non_collar_field_warns(self):
        ctx = build_context("square_ex1", 17)
        h = ScalarField(ctx.grid, ctx.grid.x - 1.0)
        with pytest.warns(RuntimeWarning, match="collar"):
            ctx.apply_linearization(h)

    def test_collar_supported_field_is_silent(self):
        ctx = build_context("square_ex1", 17)
        h = make_bump(ctx.grid, (1.5, 1.5), 0.3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ctx.apply_linearization(h)


class TestGateauxRemainders:
    """The forward map is differentiable with quadratic remainder."""

    def test_log_log_slope_is_two(self):
        ctx = build_context("square_ex1", 25)
        h = random_smooth_field(ctx.grid, np.random.default_rng(21))
        remainders, slope = gateaux_remainders(ctx, h)
        assert np.all(np.diff(remainders) < 0.0)
        assert 1.8 <= slope <= 2.2

    def test_slope_stable_across_directions(self):
        ctx = build_context("square_ex1", 25)
        for seed in (22, 23):
            h = random_smooth_field(ctx.grid, np.random.default_rng(seed))
            _, slope = gateaux_remainders(ctx, h)
            assert 1.8 <= slope <= 2.2


class TestGateauxSolves:
    """Each s is one CG solve on the context's LU, started from u_theta,
    against an oracle that builds and factors the operator at theta + s h."""

    @staticmethod
    def oracle(ctx, h):
        ih = ctx.apply_linearization(h).values
        rems, scale = [], 0.0
        for s in score.GATEAUX_STEPS:
            theta_s = Conductivity(ScalarField(ctx.grid, ctx.theta.values + s * h.values),
                                   eta=None)
            u_s = DivergenceFormOperator(theta_s).solve(ctx.f, ctx.g).values
            rems.append(np.max(np.abs(u_s - ctx.u.values - s * ih)))
            scale = max(scale, np.max(np.abs(u_s)))
        return np.asarray(rems), scale

    @pytest.mark.parametrize("name,res,bump", [("square_ex1", 33, None), ("disk_ex2", 40, None),
                                               ("square_ex1", 33, True)])
    def test_remainders_match_fresh_factorisations(self, ctx_cache, name, res, bump):
        """The solutions agree with the oracle's to 1e-10 of max |u_s|.  At
        s = 0.1 and 0.01, where the oracle's cancellation u_s - u_theta costs
        little, each remainder agrees to 1e-6 relative."""
        ctx = ctx_cache(name, res, theta_bump=bump)
        for seed in (1000, 1001):
            h = random_smooth_field(ctx.grid, np.random.default_rng(seed))
            stats = {}
            rems, slope = gateaux_remainders(ctx, h, stats=stats)
            ref, scale = self.oracle(ctx, h)
            assert np.max(np.abs(rems - ref)) <= 1e-10 * scale
            np.testing.assert_allclose(rems[:2], ref[:2], rtol=1e-6)
            assert abs(slope - 2.0) <= 0.05
            assert len(stats["cg_iterations"]) == 4
            assert all(1 <= n <= 12 for n in stats["cg_iterations"])
            assert stats["max_backward_error"] <= stats["bound"] == elliptic.BACKWARD_ERROR_RTOL

    def test_past_the_lu_size_the_operator_preconditioner_serves(self, monkeypatch):
        """A bumped theta past the LU size: the PCG takes the operator's
        theta = 1 inverse in place of the LU and reaches the same remainders."""
        ctx = build_context("disk_ex2", 28, theta_bump=True)
        assert ctx.op._lu is not None
        h = random_smooth_field(ctx.grid, np.random.default_rng(5))
        rems, _ = gateaux_remainders(ctx, h)
        past_lu_size(monkeypatch)
        ctx_cg = build_context("disk_ex2", 28, theta_bump=True)
        assert ctx_cg.op._lu is None
        rems_cg, _ = gateaux_remainders(ctx_cg, h)
        np.testing.assert_allclose(rems_cg, rems, rtol=1e-3)

    def test_iteration_cap_raises(self, monkeypatch):
        """At theta = 1 the solves with K stop at step 1, so a cap of 1 stops
        the first Gateaux solve, which M does not invert exactly."""
        ctx = build_context("square_ex1", 17)
        h = random_smooth_field(ctx.grid, np.random.default_rng(5))
        monkeypatch.setattr(elliptic, "PCG_MAXITER", 1)
        with pytest.raises(RuntimeError, match=r"^Gateaux solve at s = 0.1: backward error "
                                               r".* after 1 PCG steps \(bound 1e-12, cap 1\)$"):
            gateaux_remainders(ctx, h)

    def test_backward_error_bound_raises(self, monkeypatch):
        """The bound gates every solve: past it the first one, here the solve
        with K for I h, raises after the step cap."""
        ctx = build_context("square_ex1", 17)
        h = random_smooth_field(ctx.grid, np.random.default_rng(5))
        monkeypatch.setattr(elliptic, "BACKWARD_ERROR_RTOL", 1e-30)
        with pytest.raises(RuntimeError, match=r"^separable solve of K: backward error .* "
                                               r"after 50 PCG steps \(bound 1e-30, cap 50\)$"):
            gateaux_remainders(ctx, h)


class TestAdjointDefects:
    """The batched pairing check against the per-pair loop of criterion 3."""

    @pytest.mark.parametrize("name,res", [("square_ex1", 33), ("disk_ex2", 40)])
    def test_matches_the_per_pair_loop(self, ctx_cache, name, res):
        ctx = ctx_cache(name, res)
        defects = adjoint_defects(ctx, seed=7)
        assert defects.shape == (100,)
        np.testing.assert_allclose(defects.max(), _adjoint_defects(ctx, n_pairs=100, seed=7),
                                   rtol=1e-12)

    def test_every_pair_matches_its_single_evaluation(self, ctx_cache, monkeypatch):
        """Pair by pair, over several blocks and a partial last one (37 pairs)."""
        ctx = ctx_cache("square_ex1", 33)
        monkeypatch.setattr(score, "ADJOINT_PAIRS", 37)
        rng = np.random.default_rng(4)
        loop = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(37):
                h = random_smooth_field(ctx.grid, rng, apply_collar=False)
                g = random_smooth_field(ctx.grid, rng, apply_collar=False)
                lhs = inner_l2(ctx.apply_linearization(h), g)
                loop.append(abs(lhs - inner_l2(h, ctx.apply_adjoint(g))) / (norm_l2(h) * norm_l2(g)))
        np.testing.assert_allclose(adjoint_defects(ctx, seed=4), loop, rtol=1e-9,
                                   atol=1e-16)


class TestBlockSolves:
    """A block of right-hand sides is one solve, with a certificate for its
    worst column."""

    @pytest.mark.parametrize("mode", ["lu", "cg", "separable"])
    def test_block_records_its_worst_column(self, monkeypatch, mode):
        """The LU with a bumped theta, PCG by the theta = 1 inverse with that
        bumped theta past a patched LU size, and the separable inverse at
        theta = 1.  ``backward_error`` is the largest column backward error
        of the block's own answer, and ``max_backward_error`` keeps it."""
        if mode == "cg":
            past_lu_size(monkeypatch)
        ctx = build_context("disk_ex2", 20,
                            theta_bump=None if mode == "separable" else ((0.3, 0.25), 0.25, 0.15))
        F = ctx.grid.restrict(random_smooth_field(ctx.grid, np.random.default_rng(2),
                                                  apply_collar=False, size=5))
        block = ctx.op.apply_inverse_interior(F)
        worst = dict(ctx.op.last_stats)
        b = -(F.T * ctx.grid.weights_interior).T
        R, K_norm = ctx.op.K @ block - b, abs(ctx.op.K).sum(axis=1).max()
        errors = np.abs(R).max(axis=0) / (K_norm * np.abs(block).max(axis=0) + np.abs(b).max(axis=0))
        assert worst["backward_error"] == pytest.approx(errors.max(), rel=1e-12, abs=0.0)
        assert 0.0 < worst["backward_error"] <= elliptic.BACKWARD_ERROR_RTOL
        assert ctx.op.max_backward_error >= worst["backward_error"]
        assert worst["mode"] == {"lu": "direct"}.get(mode, "separable")
        assert (worst["iterations"] > 1) == (mode == "cg")
        for j in range(5):
            col = ctx.op.apply_inverse_interior(np.ascontiguousarray(F[:, j]))
            atol = (1e-10 if mode == "cg" else 1e-13) * np.abs(col).max()
            np.testing.assert_allclose(block[:, j], col, rtol=0.0, atol=atol)


class TestInformationBlocks:
    """The exact adjoint, I*I and the information operator G in h_hat = sqrt(w) h
    with its inverse take stacks, and each column equals its single apply."""

    @pytest.mark.parametrize("name, res", [("square_ex1", 17), ("disk_ex2", 20)])
    def test_field_stacks_match_single_fields(self, ctx_cache, name, res):
        ctx = ctx_cache(name, res)
        stack = random_smooth_field(ctx.grid, np.random.default_rng(4), size=3)
        for apply in (ctx.apply_adjoint_exact,
                      lambda f: ctx.apply_adjoint_exact(ctx.apply_linearization(f))):
            out = apply(stack).values
            assert out.shape == stack.values.shape
            for j in range(3):
                single = apply(ScalarField(ctx.grid, stack.values[:, j])).values
                assert np.linalg.norm(out[:, j] - single) <= 1e-13 * np.linalg.norm(single)

    @pytest.mark.parametrize("name, res", [("square_ex1", 17), ("disk_ex2", 20)])
    def test_hat_blocks_match_the_per_column_formulas(self, ctx_cache, name, res):
        """Oracles: G x = s I*I (x / s) and G^-1 x = S T^-1 W^-1 K W^-1 K W^-1
        T^-T S x, one column at a time through the LU of T^T."""
        ctx = ctx_cache(name, res)
        w = ctx.grid.weights_interior
        s, lu, K = np.sqrt(w), ctx.transport_lu(), ctx.op.K
        X = np.random.default_rng(6).standard_normal((ctx.grid.n_interior, 4))

        def inverse(x):
            z = K @ (lu.solve(s * x) / w)
            return s * lu.solve(K @ (z / w) / w, trans="T")

        for block, single in ((ctx._apply_info_hat, lambda x: s * ctx._apply_info(x / s)),
                              (ctx._apply_info_hat_inverse, inverse)):
            out = block(X)
            for j in range(4):
                col = single(X[:, j])
                assert np.linalg.norm(out[:, j] - col) <= 1e-13 * np.linalg.norm(col)
                np.testing.assert_array_equal(block(X[:, j]), col)


class TestTransportEquation:
    """The context alone solves and certifies T^T y = W psi."""

    @pytest.mark.parametrize("kind", ["bump", "in_range"])
    def test_singular_T_raises(self, ctx_cache, kind):
        """The saddle's T is singular.  Its refined y is backward stable, so
        only the refinement change, still large after the last step, refuses
        both the bump's system and the consistent in-range one."""
        ctx = ctx_cache("saddle", 17)
        rhs = ctx.grid.weights_interior * ctx.grid.restrict(psi_fixture(ctx, kind))
        cap = score.TRANSPORT_REFINEMENT_STEPS
        with pytest.raises(np.linalg.LinAlgError, match=f"after {cap} refinement steps") as err:
            ctx.solve_transport_equation(rhs)
        assert "singular" in str(err.value)
        error = float(re.search(r"backward error (\S+),", str(err.value)).group(1))
        assert error <= elliptic.BACKWARD_ERROR_RTOL

    def test_ill_conditioned_T_is_certified_by_its_backward_error(self):
        """kappa_1(T) of the square bump is about 1e12 at 193, so the relative
        residual of y exceeds TRANSPORT_SOLVE_RTOL.  Its normwise backward
        error stays near rounding, and the refinement converges."""
        ctx = build_context("square_ex1", 193)
        rhs = ctx.grid.weights_interior * ctx.grid.restrict(psi_fixture(ctx, "bump"))
        y, change = ctx.solve_transport_equation(rhs)
        r = rhs - ctx.T.T @ y
        assert elliptic.backward_error(r, abs(ctx.T).sum(axis=0).max(), y,
                                       np.abs(rhs).max()) <= 1e-12
        assert change <= score.TRANSPORT_SOLVE_RTOL
        assert np.linalg.norm(r) > score.TRANSPORT_SOLVE_RTOL * np.linalg.norm(rhs)

    @pytest.mark.parametrize("delta, steps", [(1e-4, 2), (0.5, None)])
    def test_refinement_runs_until_the_change_is_small(self, delta, steps):
        """An LU whose solves are off by the factor 1 + delta leaves y off by
        delta^(k+1) after k steps, and the change of step k is about delta^k:
        1e-4 takes two steps, and 0.5 is still changing after the last one."""
        ctx = build_context("square_ex1", 17)
        lu, solves = ctx.transport_lu(), []

        class Scaled:
            def solve(self, b, trans="N"):
                solves.append(trans)
                return (1.0 + delta) * lu.solve(b, trans=trans)

        ctx._transport_lu = Scaled()
        rhs = ctx.grid.weights_interior * ctx.grid.restrict(psi_fixture(ctx, "bump"))
        cap = score.TRANSPORT_REFINEMENT_STEPS
        if steps is None:
            with pytest.raises(np.linalg.LinAlgError, match=f"after {cap} refinement steps"):
                ctx.solve_transport_equation(rhs)
        else:
            y, _ = ctx.solve_transport_equation(rhs)
            np.testing.assert_allclose(y, lu.solve(rhs), rtol=1e-10)
        assert len(solves) == 1 + (steps or cap)  # the plain solve, then one per step

    @pytest.mark.parametrize("kind", ["bump", "in_range"])
    def test_returns_the_refined_solution_and_its_change(self, ctx_cache, kind):
        ctx = ctx_cache("square_ex1", 25)
        rhs = ctx.grid.weights_interior * ctx.grid.restrict(psi_fixture(ctx, kind))
        y, change = ctx.solve_transport_equation(rhs)
        y0 = ctx.transport_lu().solve(rhs)
        assert change == pytest.approx(np.linalg.norm(y - y0) / np.linalg.norm(y), rel=1e-12)
        assert 0.0 < change <= score.TRANSPORT_SOLVE_RTOL
        assert np.linalg.norm(ctx.T.T @ y - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_zero_rhs_gives_zero(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        y, change = ctx.solve_transport_equation(np.zeros(ctx.grid.n_interior))
        np.testing.assert_array_equal(y, 0.0)
        assert change == 0.0


class TestDenseLinearization:
    """B_hat built in blocks of BLOCK_COLUMNS columns, one solve each."""

    @pytest.mark.parametrize("name, res, bump", [("square_ex1", 33, None),
                                                 ("disk_ex2", 20, None),
                                                 ("square_ex1", 25, True)])
    def test_blocks_match_the_one_block_formula(self, ctx_cache, name, res, bump):
        ctx = ctx_cache(name, res, theta_bump=bump)
        w = ctx.grid.weights_interior
        s = np.sqrt(w)
        B = ctx.op._solve_spd(w[:, None] * ctx.T.toarray())
        ref = (s[:, None] * B) / s[None, :]
        got = ctx.dense_linearization_hat()
        assert got.flags.c_contiguous
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
        assert ctx.dense_linearization_hat() is not got  # not cached


class TestStabilityReport:
    """Monte Carlo lower-bound ratios under the identifiability gate."""

    def test_applicable_with_positive_minima(self):
        ctx = build_context("square_ex1", 17)
        rep = stability_report(ctx, seed=3)
        assert rep.applicable
        assert rep.n_trials == score.STABILITY_TRIALS == 200
        assert rep.min_ratio_T > 0.0
        assert rep.min_ratio_H2 > 0.0
        assert rep.ratios_T.shape == (200,)
        np.testing.assert_allclose(rep.min_ratio_T, rep.ratios_T.min())

    def test_same_seed_reproduces_ratios(self):
        ctx = build_context("square_ex1", 17)
        rep1 = stability_report(ctx, seed=3)
        rep2 = stability_report(ctx, seed=3)
        np.testing.assert_array_equal(rep1.ratios_T, rep2.ratios_T)
        np.testing.assert_array_equal(rep1.ratios_H2, rep2.ratios_H2)

    def test_blocks_match_the_single_field_ratios(self, ctx_cache, monkeypatch):
        """Over several blocks and a partial last one (45 trials), each ratio
        equals the one computed from its field alone."""
        ctx = ctx_cache("disk_ex2", 40)
        monkeypatch.setattr(score, "STABILITY_TRIALS", 45)
        rep = stability_report(ctx, seed=2)
        rng = np.random.default_rng(2)
        for j in range(45):
            h = random_smooth_field(ctx.grid, rng)
            ih = ctx.apply_linearization(h)
            assert rep.ratios_T[j] == pytest.approx(
                norm_l2(ctx.perturbation_source(h)) / norm_l2(h), rel=1e-12)
            assert rep.ratios_H2[j] == pytest.approx(
                score.sobolev_norm(ih, 2) / norm_l2(h), rel=1e-12)

    def test_memory_does_not_grow_with_trials(self, ctx_cache, monkeypatch):
        """Fields are drawn and solved in bounded blocks: the traced peak at
        400 trials is within 10 % of the peak at 50."""
        ctx = ctx_cache("disk_ex2", 40)
        monkeypatch.setattr(score, "STABILITY_TRIALS", 5)
        stability_report(ctx, seed=0)  # sine tables, collar mask
        peaks = []
        for n in (50, 400):
            monkeypatch.setattr(score, "STABILITY_TRIALS", n)
            tracemalloc.start()
            try:
                stability_report(ctx, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_failed_gate_marks_inapplicable(self, monkeypatch):
        """Without a positive pointwise bound c0_hat the ratio study is
        skipped rather than reported."""
        ctx = build_context("saddle", 17)
        monkeypatch.setattr(score, "check_identifiability", lambda u: 0.0)
        rep = stability_report(ctx, seed=0)
        assert not rep.applicable
        assert rep.c0_hat == 0.0 and rep.n_trials == 0
        assert np.isnan(rep.min_ratio_T)
        assert rep.ratios_T.size == 0

