"""Spectral analysis of the information operator: decompositions, range
series, degeneracy profiles, Fisher functionals, refinement sweeps."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from ellinfo import spectral
from ellinfo.fixtures import build_context, in_range_fixture, psi_fixture
from ellinfo.grids import ConfigError, ScalarField, inner_l2, norm_l2, random_smooth_field
from ellinfo.score import ScoreContext
from ellinfo.spectral import (EIG_RESIDUAL_RTOL, KERNEL_SEARCH_MODES, _observed_order,
                              degeneracy_profile, eigendecompose, fisher_information,
                              fisher_refinement, kernel_decomposition,
                              range_series)


class TestDecomposition:
    """Eigenpairs of the symmetrized information operator."""

    def test_spectrum_descends_and_collapses(self, ctx_cache, decomp_cache):
        """Eigenvalues are nonnegative, sorted, and decay by many orders of
        magnitude: the operator is severely smoothing."""
        d = decomp_cache("square_ex1", 15)
        lam = d.eigenvalues
        assert np.all(np.diff(lam) <= 1e-18)
        assert lam.min() >= -1e-12 * lam[0]
        assert lam[-1] / lam[0] < 1e-3

    def test_iterative_matches_dense_leaders(self, ctx_cache, decomp_cache):
        """The top ten pairs agree, the modes up to sign: their eigenvalues
        are simple on this fixture."""
        ctx = ctx_cache("square_ex1", 15)
        dense = decomp_cache("square_ex1", 15)
        lanczos = eigendecompose(ctx, n_modes=10)
        np.testing.assert_allclose(
            lanczos.eigenvalues, dense.eigenvalues[:10],
            rtol=0.0, atol=1e-12 * dense.eigenvalues[0])
        leaders = dense.modes[:, :10]
        signs = np.sign(np.sum(lanczos.modes * leaders, axis=0))
        np.testing.assert_allclose(lanczos.modes * signs, leaders, rtol=0.0,
                                   atol=1e-10 * np.abs(leaders).max())
        assert dense.complete and dense.mode == "dense"
        assert not lanczos.complete and lanczos.mode == "iterative"
        assert lanczos.residuals is not None

    def test_top_pairs_build_no_dense_matrix(self, ctx_cache, monkeypatch):
        """Fewer pairs than the interior dimension come from Lanczos alone,
        up to m - 1, each certified by its residual."""
        def refuse(self):
            raise AssertionError("dense linearization built for top pairs")

        monkeypatch.setattr(ScoreContext, "dense_linearization_hat", refuse)
        ctx = ctx_cache("square_ex1", 15)
        m = ctx.grid.n_interior
        for k in (1, m - 1):
            d = eigendecompose(ctx, n_modes=k)
            assert d.n_modes == k and d.mode == "iterative" and not d.complete
            assert np.all(d.residuals <= EIG_RESIDUAL_RTOL * d.eigenvalues[0])

    @pytest.mark.parametrize("extra", [0, 1, 500])
    def test_mode_count_at_or_past_the_dimension_is_the_full_spectrum(
            self, ctx_cache, decomp_cache, extra):
        ctx = ctx_cache("square_ex1", 15)
        dense = decomp_cache("square_ex1", 15)
        d = eigendecompose(ctx, n_modes=ctx.grid.n_interior + extra)
        assert d.complete and d.mode == "dense" and d.residuals is None
        np.testing.assert_array_equal(d.eigenvalues, dense.eigenvalues)
        np.testing.assert_array_equal(d.modes, dense.modes)

    def test_iterative_calls_agree_bit_for_bit(self, ctx_cache):
        """Lanczos starts from a fixed vector, so repeated calls in one
        process return identical pairs."""
        ctx = ctx_cache("square_ex1", 15)
        a, b = (eigendecompose(ctx, n_modes=6) for _ in range(2))
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.modes, b.modes)
        np.testing.assert_array_equal(a.residuals, b.residuals)

    def test_modes_are_weighted_orthonormal(self, decomp_cache):
        d = decomp_cache("square_ex1", 15)
        w = d.grid.weights_interior
        gram = (d.modes * w[:, None]).T @ d.modes
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-12)

    def test_collar_restricted_modes_vanish_on_collar(self, decomp_cache):
        d = decomp_cache("square_ex1", 15, subspace="collar_supported")
        body = d.modes[d.grid.collar_mask[d.grid.interior_ids], :]
        np.testing.assert_array_equal(body, 0.0)
        assert d.subspace == "collar_supported"

    def test_disk_interior_spectrum_has_no_kernel(self, decomp_cache):
        """On the disk the interior operator stays numerically injective."""
        d = decomp_cache("disk_ex2", 10)
        assert d.n_kernel == 0
        assert d.eigenvalues[-1] / d.eigenvalues[0] > 1e-8

    def test_argument_validation(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 15)
        with pytest.raises(ValueError, match="subspace"):
            eigendecompose(ctx, subspace="full")
        with pytest.raises(ValueError, match="full spectrum only"):
            eigendecompose(ctx, n_modes=5, subspace="collar_supported")
        for k in (0, -3):
            with pytest.raises(ValueError, match="n_modes must be positive"):
                eigendecompose(ctx, n_modes=k)


class TestDensePath:
    """The dense spectrum from one triangle of G = B_hat^T B_hat, solved in
    place: its memory, and the eigenvalues-only call."""

    @pytest.mark.parametrize("name, res", [("square_ex1", 15), ("disk_ex2", 10),
                                           ("square_ex1", 33)])
    def test_eigenvalues_only_match_the_decomposition(self, decomp_cache, name, res):
        d = decomp_cache(name, res)
        lam = spectral.dense_eigenvalues(d.ctx)
        assert lam.shape == d.eigenvalues.shape and np.all(np.diff(lam) <= 0.0)
        np.testing.assert_allclose(lam, d.eigenvalues, rtol=0.0,
                                   atol=1e-13 * d.eigenvalues[0])

    @pytest.mark.parametrize("call, budget", [
        (lambda ctx: eigendecompose(ctx), 3.25),
        (lambda ctx: eigendecompose(ctx, subspace="collar_supported"), 2.25),
        (lambda ctx: spectral.dense_eigenvalues(ctx), 2.25),
    ], ids=["full", "collar_supported", "eigenvalues_only"])
    def test_peak_memory_in_units_of_the_dense_matrix(self, call, budget):
        """Traced peak at square 33 over 8 m^2 bytes: G and LAPACK's 2 m^2
        workspace for eigenvectors, B_hat beside G only while it is formed."""
        ctx = build_context("square_ex1", 33)
        eigendecompose(ctx, n_modes=2)  # the operator's cached solver tables
        tracemalloc.start()
        try:
            call(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget * 8 * ctx.grid.n_interior ** 2


class TestKernelDecomposition:
    """Bottom eigenpairs by Lanczos on the inverse, through the T^T LU."""

    @pytest.mark.parametrize("name, res, kind", [
        *[("square_ex1", n, k) for n in (17, 25, 33) for k in ("bump", "in_range")],
        ("disk_ex2", 20, "in_range"), ("disk_ex2", 20, "quadrant_bump")])
    def test_matches_the_dense_kernel(self, ctx_cache, decomp_cache, name, res, kind):
        ctx = ctx_cache(name, res)
        psi = psi_fixture(ctx, kind)
        dense = decomp_cache(name, res)
        sparse = kernel_decomposition(ctx)
        assert sparse.n_kernel == dense.n_kernel
        assert abs(sparse.kernel_mass_fraction(psi)
                   - dense.kernel_mass_fraction(psi)) <= 1e-10
        assert sparse.kernel_tol == pytest.approx(dense.kernel_tol, rel=1e-12)

    @pytest.mark.parametrize("res", [17, 25, 33])
    def test_kernel_of_T_matches_the_dense_kernel(self, ctx_cache, decomp_cache, res):
        """On the singular saddle grids the sparse kernel of T has the dense
        kernel's dimension, the bump's mass on it is the dense kernel mass,
        and the in-range value is the dense pseudo-inverse sum."""
        ctx, dense = ctx_cache("saddle", res), decomp_cache("saddle", res)
        bump, in_range = psi_fixture(ctx, "bump"), psi_fixture(ctx, "in_range")
        report, (fraction, count, _) = spectral.singular_grid_fisher(ctx, bump)
        assert report.method == "kernel_mass" and report.i_inverse_full == np.inf
        assert count == dense.n_kernel
        assert abs(fraction - dense.kernel_mass_fraction(bump)) <= 1e-10
        report, _ = spectral.singular_grid_fisher(ctx, in_range)
        assert report.method == "bordered_solve"
        np.testing.assert_allclose(report.i_inverse_full, range_series(dense, in_range)[0][-1],
                                   rtol=1e-10)

    def test_kernel_of_T_widens_once_at_33(self, ctx_cache, monkeypatch):
        """Saddle 33 has 31 kernel vectors in T and in T^T: each search takes
        its first 16 pairs, then 32, of which one lies outside the kernel."""
        calls, lanczos = [], spectral._lanczos

        def counted(matvec, m, k, which):
            calls.append(k)
            return lanczos(matvec, m, k, which)

        monkeypatch.setattr(spectral, "_lanczos", counted)
        ctx = ctx_cache("saddle", 33)
        basis, inside, gap = spectral._null_space(ctx.T)
        assert calls == [16, 32] and basis.shape == (ctx.grid.n_interior, 31)
        assert inside <= spectral.NULL_SPACE_RTOL < gap

    @pytest.mark.parametrize("cutoff, message", [
        (1e-16, "not certified"), (1.0, "no end")], ids=["below_kernel", "above_every_pair"])
    def test_failed_kernel_certificate_raises(self, ctx_cache, monkeypatch, cutoff, message):
        """A cutoff below the kernel residuals, or one that every pair passes
        (no pair outside, no gap), fails the certificate."""
        monkeypatch.setattr(spectral, "NULL_SPACE_RTOL", cutoff)
        ctx = ctx_cache("saddle", 17)
        with pytest.raises(RuntimeError, match=message):
            spectral.singular_grid_fisher(ctx, psi_fixture(ctx, "bump"))

    def test_pairs_are_certified_and_reach_past_the_kernel(self, ctx_cache):
        """The disk at 20 has 31 kernel pairs, so the search must widen
        beyond its first pair count."""
        ctx = ctx_cache("disk_ex2", 20)
        d = kernel_decomposition(ctx)
        lam_1 = d.kernel_tol / spectral.KERNEL_TOL_FACTOR
        assert d.mode == "inverse" and not d.complete
        assert d.n_kernel == 31 and d.n_modes > KERNEL_SEARCH_MODES
        assert d.eigenvalues[0] > d.kernel_tol
        assert np.all(np.diff(d.eigenvalues) <= 0.0)
        assert np.all(d.residuals <= EIG_RESIDUAL_RTOL * lam_1)
        w = d.grid.weights_interior
        gram = (d.modes * w[:, None]).T @ d.modes
        np.testing.assert_allclose(gram, np.eye(d.n_modes), atol=1e-10)


class TestBlockResiduals:
    """The residual certificate is one block apply of G on the context."""

    @pytest.mark.parametrize("name, res", [("square_ex1", 17), ("disk_ex2", 20)])
    @pytest.mark.parametrize("solver", ["top", "kernel"])
    def test_match_the_per_pair_norms(self, ctx_cache, name, res, solver):
        """Oracle: ||s I*I(v / s) - lambda v|| for each pair v = s e alone."""
        ctx = ctx_cache(name, res)
        d = eigendecompose(ctx, 10) if solver == "top" else kernel_decomposition(ctx)
        s = np.sqrt(ctx.grid.weights_interior)
        per_pair = [np.linalg.norm(s * ctx._apply_info(v / s) - lam * v)
                    for lam, v in zip(d.eigenvalues, (d.modes * s[:, None]).T)]
        lam_1 = d.kernel_tol / spectral.KERNEL_TOL_FACTOR
        np.testing.assert_allclose(d.residuals, per_pair, rtol=0.0, atol=1e-12 * lam_1)


class TestSqrtAndSeries:
    """Spectral square root and the range-membership series."""

    def test_sqrt_composes_to_information(self, ctx_cache, decomp_cache):
        """The spectral square root sum_k lambda_k^{1/2} <h, e_k> e_k,
        applied twice, is the information operator."""
        ctx = ctx_cache("square_ex1", 15)
        d = decomp_cache("square_ex1", 15)
        root = np.sqrt(np.clip(d.eigenvalues, 0.0, None))

        def sqrt_apply(f):
            return ctx.grid.interior_field(d.modes @ (root * d.coefficients(f)))

        h = random_smooth_field(ctx.grid, np.random.default_rng(3))
        twice = sqrt_apply(sqrt_apply(h))
        info = ctx.apply_information(h)
        np.testing.assert_allclose(twice.values, info.values,
                                   atol=1e-12 * norm_l2(info))

    def test_series_is_nondecreasing(self, ctx_cache, decomp_cache):
        ctx = ctx_cache("square_ex1", 15)
        d = decomp_cache("square_ex1", 15)
        series, p0 = range_series(d, psi_fixture(ctx, "bump"))
        assert np.all(np.diff(series) >= 0.0)
        assert p0 >= 0.0

    def test_in_range_psi_has_negligible_kernel_mass(self, ctx_cache, decomp_cache):
        ctx = ctx_cache("square_ex1", 15)
        d = decomp_cache("square_ex1", 15)
        psi = psi_fixture(ctx, "in_range")
        _, p0 = range_series(d, psi)
        assert p0 <= 1e-6 * norm_l2(psi)

    def test_harmonic_base_kernel_absorbs_constants(self, ctx_cache, decomp_cache):
        """With a harmonic base solution the information operator kills a
        large subspace; the constant functional is mostly kernel mass."""
        ctx = ctx_cache("saddle", 17)
        d = decomp_cache("saddle", 17)
        assert d.n_kernel > 0
        frac = d.kernel_mass_fraction(ctx.grid.field(1.0))
        assert frac > 0.8
        _, p0 = range_series(d, ctx.grid.field(1.0))
        np.testing.assert_allclose(p0, norm_l2(d.kernel_project(ctx.grid.field(1.0))))


class TestDegeneracyProfiles:
    """Truncated inverse images h_N and their Fisher quotients."""

    def test_restricted_profile_keeps_product_one(self, ctx_cache, decomp_cache):
        """On the collar-restricted decomposition the mask is a no-op, so the
        pairing equals M_N and the product stays at one."""
        ctx = ctx_cache("square_ex1", 15)
        d = decomp_cache("square_ex1", 15, subspace="collar_supported")
        prof = degeneracy_profile(d, psi_fixture(ctx, "bump"))
        np.testing.assert_allclose(prof.mask_correction, 0.0, atol=1e-12)
        np.testing.assert_allclose(prof.product, 1.0, rtol=1e-8)

    @pytest.mark.parametrize("name, res", [("square_ex1", 17), ("disk_ex2", 28)])
    def test_block_ladder_matches_the_per_order_terms(self, ctx_cache, decomp_cache,
                                                      name, res):
        """Oracle: each h_N built alone from its first N kept modes, masked on
        the collar, imaged by one apply of I."""
        ctx = ctx_cache(name, res)
        d = decomp_cache(name, res, subspace="collar_supported")
        psi = psi_fixture(ctx, "bump")
        prof = degeneracy_profile(d, psi)
        keep, c = np.flatnonzero(~d.kernel_mask), d.coefficients(psi)
        for i, n in enumerate(prof.orders):
            h = ctx.grid.interior_field(d.modes[:, keep[:n]] @ (c[keep[:n]]
                                                                / d.eigenvalues[keep[:n]]))
            h.values[ctx.grid.collar_mask] = 0.0
            pairing = inner_l2(psi, h)
            info = norm_l2(ctx.grid.interior_field(ctx._apply_B(ctx.grid.restrict(h)))) ** 2
            np.testing.assert_allclose(
                [prof.pairing[i], prof.info_norm_sq[i], prof.quotient[i]],
                [pairing, info, info / pairing ** 2], rtol=1e-12, atol=0.0)

    def test_order_validation(self, ctx_cache, decomp_cache):
        ctx = ctx_cache("square_ex1", 15)
        d = decomp_cache("square_ex1", 15)
        psi = psi_fixture(ctx, "bump")
        with pytest.raises(ValueError, match="order"):
            degeneracy_profile(d, psi, orders=[0])
        with pytest.raises(ValueError, match="orders"):
            degeneracy_profile(d, psi, orders=[10**6])

    def test_empty_ladder_rejected(self, ctx_cache, decomp_cache):
        """An empty ladder is a config mistake, not numpy's zero-size
        reduction error."""
        ctx = ctx_cache("square_ex1", 15)
        d = decomp_cache("square_ex1", 15)
        with pytest.raises(ConfigError, match="orders must be non-empty"):
            degeneracy_profile(d, psi_fixture(ctx, "bump"), orders=[])


class TestFisherInformation:
    """The inverse Fisher quadratic form on a fixed grid."""

    def test_direct_and_spectral_agree_for_in_range(self, ctx_cache, decomp_cache):
        ctx = ctx_cache("square_ex1", 15)
        d = decomp_cache("square_ex1", 15)
        psi = psi_fixture(ctx, "in_range")
        direct = fisher_information(ctx, psi)
        np.testing.assert_allclose(direct.i_inverse_full,
                                   range_series(d, psi)[0][-1], rtol=1e-5)
        np.testing.assert_allclose(direct.i_value,
                                   1.0 / direct.i_inverse_full)

    @pytest.mark.parametrize("name, res", [("square_ex1", 15), ("square_ex1", 33),
                                           ("disk_ex2", 20)])
    @pytest.mark.parametrize("kind", ["bump", "in_range"])
    def test_direct_solve_matches_dense_reference(self, ctx_cache, name, res, kind):
        """The sparse transport solve reproduces the dense algorithm it
        replaced: an LU of the symmetrized linearization B_hat, solved
        transposed against sqrt(w) psi."""
        ctx = ctx_cache(name, res)
        psi = psi_fixture(ctx, kind)
        w = ctx.grid.weights_interior
        x = sla.lu_solve(sla.lu_factor(ctx.dense_linearization_hat()),
                         np.sqrt(w) * ctx.grid.restrict(psi), trans=1)
        report = fisher_information(ctx, psi)
        np.testing.assert_allclose(report.i_inverse_full, float(x @ x), rtol=1e-8)
        assert 0.0 <= report.rel_error <= 1e-6

    def test_direct_solve_builds_no_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense linearization built for a direct solve")

        monkeypatch.setattr(ScoreContext, "dense_linearization_hat", refuse)
        ctx = build_context("square_ex1", 17)
        assert fisher_information(ctx, psi_fixture(ctx, "bump")).method == "direct_solve"

    def test_transport_solution_is_the_potential(self, ctx_cache):
        """For psi = I*(L phi) the solution of T^T y = W psi is y = -W phi:
        the transport equation grad u . grad y = psi is solved by phi."""
        ctx = ctx_cache("square_ex1", 33)
        fx = in_range_fixture(ctx)
        w = ctx.grid.weights_interior
        y, _ = ctx.solve_transport_equation(w * ctx.grid.restrict(fx.psi))
        np.testing.assert_allclose(-y / w, ctx.grid.restrict(fx.potential),
                                   rtol=0.0, atol=1e-8 * np.max(np.abs(fx.potential.values)))

    def test_singular_grid_raises_for_direct_solve(self, ctx_cache):
        """The harmonic base makes the information matrix singular to
        working precision, which the residual check must catch."""
        ctx = ctx_cache("saddle", 17)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            fisher_information(ctx, psi_fixture(ctx, "bump"))

    def test_singular_grid_raises_for_consistent_system(self, ctx_cache):
        """Constants lie in the kernel of the saddle's T.  The in-range
        system is consistent, so its residual is at rounding level; only the
        refinement change exposes the noise in the value."""
        ctx = ctx_cache("saddle", 17)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            fisher_information(ctx, psi_fixture(ctx, "in_range"))

    def test_zero_functional_rejected(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 15)
        with pytest.raises(ValueError, match="vanishes"):
            fisher_information(ctx, ctx.grid.field(0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_functional_rejected(self, ctx_cache, bad):
        ctx = ctx_cache("square_ex1", 15)
        values = psi_fixture(ctx, "bump").values.copy()
        values[values != 0.0] = bad
        with pytest.raises(ConfigError, match="psi contains non-finite values"):
            fisher_information(ctx, ScalarField(ctx.grid, values))


class TestRefinementSweeps:
    """Grid-refinement classification of functionals."""

    def test_bump_functional_is_divergent(self, monkeypatch):
        """Every grid is certified, so the kernel diagnostics come from the
        sparse search and no dense B_hat is built."""
        def refuse(self):
            raise AssertionError("dense linearization built on a certified grid")

        monkeypatch.setattr(ScoreContext, "dense_linearization_hat", refuse)
        sweep = fisher_refinement("square_ex1", "bump", (17, 21, 25))
        assert sweep.kernel_counts == [5, 6, 8]
        assert all(0.0 < r <= EIG_RESIDUAL_RTOL for r in sweep.kernel_residuals)
        assert sweep.verdict == "out_of_range_divergent"
        assert sweep.growth >= 2.0
        assert sweep.lower_bounds == (False, False, False)
        assert np.all(np.diff(sweep.values) > 0.0)
        assert sweep.verdict_reason == "growth_on_every_pair"
        assert sweep.order < 0.0 and sweep.richardson_limit is None

    def test_in_range_functional_is_stable(self):
        """The differences 19.9 and 11.3 shrink at an observed order near 1.8,
        and the Richardson limit lies beyond the finest value."""
        sweep = fisher_refinement("square_ex1", "in_range", (17, 21, 25))
        assert sweep.verdict == "in_range"
        assert sweep.verdict_reason == "converged"
        assert sweep.variation <= 0.20
        assert 1.5 <= sweep.order <= 2.1
        assert sweep.values[-1] < sweep.richardson_limit < 1.1 * sweep.values[-1]

    @pytest.mark.parametrize("p", [-3.0, 0.5, 1.0, 2.0, 4.0])
    def test_observed_order_on_uneven_grids(self, p):
        """v = 3 + 2 h^p on the square's 17, 25, 33 spacings (h does not
        halve) gives back p and, for p > 0, the limit 3."""
        h = [1.0 / 16, 1.0 / 24, 1.0 / 32]
        order, limit = _observed_order(h, [3.0 + 2.0 * x ** p for x in h])
        assert order == pytest.approx(p, abs=1e-9)
        if p > 0:
            assert limit == pytest.approx(3.0, rel=1e-9)
        else:
            assert limit is None

    def test_observed_order_needs_one_sign(self):
        assert _observed_order([0.3, 0.2, 0.1], [1.0, 2.0, 1.5]) == (None, None)
        assert _observed_order([0.3, 0.2, 0.1], [1.0, 1.0, 1.5]) == (None, None)

    def test_singular_grids_report_exact_values(self, monkeypatch):
        """On the saddle every grid is singular; the in-range functional is
        consistent, so each grid reports the exact pseudo-inverse value from
        the bordered sparse solve, and the values converge at order 1.87.  The
        kernel diagnostics come from the sparse kernel of T, not from the
        search through the LU of T^T, and no dense matrix is built."""
        def refuse(*args):
            raise AssertionError("dense matrix or LU kernel search on a singular grid")

        monkeypatch.setattr(spectral, "kernel_decomposition", refuse)
        monkeypatch.setattr(ScoreContext, "dense_linearization_hat", refuse)
        sweep = fisher_refinement("saddle", "in_range", (17, 25, 33))
        assert sweep.kernel_counts == [15, 23, 31]
        assert all(0.0 < r <= spectral.NULL_SPACE_RTOL for r in sweep.kernel_residuals)
        assert all(f <= spectral.KERNEL_TOL_FACTOR for f in sweep.kernel_fractions)
        assert sweep.lower_bounds == (False, False, False)
        assert {r.method for r in sweep.reports} == {"bordered_solve"}
        assert sweep.verdict == "in_range"
        assert sweep.verdict_reason == "converged"
        assert sweep.order == pytest.approx(1.87, abs=0.01)
        assert sweep.richardson_limit == pytest.approx(563.6, abs=0.1)
        np.testing.assert_allclose(sweep.values, [504.41393743087, 535.83000139773,
                                                  547.36588080996], rtol=1e-10)

    def test_kernel_mass_on_every_grid_obstructs(self):
        """The bump has certified mass on ker T of the saddle on every grid, so
        its information is 0 there and the sweep reads no trend."""
        sweep = fisher_refinement("saddle", "bump", (17, 25, 33))
        assert sweep.verdict == "kernel_obstructed"
        assert sweep.verdict_reason == "kernel_mass"
        assert np.all(np.isinf(sweep.values))
        assert [r.i_value for r in sweep.reports] == [0.0, 0.0, 0.0]
        assert sweep.growth is sweep.variation is sweep.order is sweep.richardson_limit is None
        np.testing.assert_allclose(sweep.kernel_fractions, [0.17075, 0.148741, 0.141724],
                                   rtol=0.0, atol=5e-6)

    def test_kernel_mass_on_some_grids_is_undetermined(self, monkeypatch):
        """Kernel mass that does not persist over the sweep decides nothing."""
        fisher = spectral.singular_grid_fisher

        def coarsest_only(ctx, psi):
            report, kernel = fisher(ctx, psi)
            if ctx.grid.n_interior > 225:
                report = spectral.FisherReport("bordered_solve", 1.0, 1.0)
            return report, kernel

        monkeypatch.setattr(spectral, "singular_grid_fisher", coarsest_only)
        sweep = fisher_refinement("saddle", "bump", (17, 25, 33))
        assert sweep.verdict == "undetermined"
        assert sweep.verdict_reason == "kernel_mass_on_some_grids"
        assert sweep.growth is sweep.variation is sweep.order is sweep.richardson_limit is None

    def test_sweep_needs_three_grids(self):
        with pytest.raises(ValueError, match="three"):
            fisher_refinement("square_ex1", "bump", (17, 25))

    def test_sweep_needs_increasing_resolutions(self):
        with pytest.raises(ValueError, match="increasing"):
            fisher_refinement("square_ex1", "bump", (17, 25, 25))
