"""Monte Carlo studies: the score covariance identity, likelihood-ratio
asymptotics, and plug-in risk across sample sizes."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy import stats
from scipy.linalg import cho_solve, cholesky, solve_triangular

from ellinfo import simulate, spectral
from ellinfo.elliptic import Conductivity, DivergenceFormOperator, assemble
from ellinfo.fixtures import in_range_fixture, psi_fixture
from ellinfo.grids import (ConfigError, DomainKind, ScalarField, norm_l2,
                           random_smooth_field)
from ellinfo.score import ScoreContext
from ellinfo.simulate import (info_identity_mc, kolmogorov_sf, ks_normal, lan_mc,
                              plugin_risk_study)
from ellinfo.spectral import eigendecompose
from test_grids import rgi_interpolator


def direction(grid, seed, scale=1.0):
    h = random_smooth_field(grid, np.random.default_rng(seed))
    return ScalarField(grid, scale * h.values / norm_l2(h))


class TestDraw:
    """One seeded draw of the regression experiment: the design in grid
    coordinates and the prepared fields at it; each study draws its noise
    from the same generator next."""

    @pytest.mark.parametrize("name", ["square_ex1", "disk_ex2"])
    def test_same_seed_reproduces_draw(self, ctx_cache, name):
        ctx = ctx_cache(name, 17)
        interp = ctx.grid.interpolator(ctx.u.values)
        first = simulate._draw(ctx.grid, np.random.default_rng(4), 500, interp)
        second = simulate._draw(ctx.grid, np.random.default_rng(4), 500, interp)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", ["square_ex1", "disk_ex2"])
    def test_design_points_stay_in_domain(self, ctx_cache, name):
        """(x, y) in [1, 2]^2 on the square; (r, theta) in [0, 1] x [0, 2 pi)
        on the disk."""
        ctx = ctx_cache(name, 17)
        coords, _ = simulate._draw(ctx.grid, np.random.default_rng(1), 2000,
                                   ctx.grid.interpolator(ctx.u.values))
        assert coords.shape == (2000, 2)
        if ctx.grid.spec.kind is DomainKind.SQUARE:
            assert coords.min() >= 1.0 and coords.max() <= 2.0
        else:
            assert coords[:, 0].min() >= 0.0 and coords[:, 0].max() <= 1.0
            assert coords[:, 1].min() >= 0.0 and coords[:, 1].max() < 2.0 * math.pi

    @pytest.mark.parametrize("name", ["square_ex1", "disk_ex2"])
    def test_design_is_uniform_in_area(self, ctx_cache, name):
        """Under the normalized measure x - 1 on the square and r^2 on the
        disk are U(0, 1): their means stay within four standard errors of 1/2."""
        ctx = ctx_cache(name, 17)
        n = 20000
        coords, _ = simulate._draw(ctx.grid, np.random.default_rng(2), n,
                                   ctx.grid.interpolator(ctx.u.values))
        if ctx.grid.spec.kind is DomainKind.SQUARE:
            uniform = coords[:, 0] - 1.0
        else:
            uniform = coords[:, 0] ** 2
        assert abs(uniform.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / n)

    def test_noiseless_draw_keeps_the_design(self, ctx_cache):
        """The design is all that a draw takes from the generator, so a
        study's noise is the stream's next value, and the draw holds the
        interpolant of u at the design."""
        ctx = ctx_cache("square_ex1", 17)
        rng, stream = np.random.default_rng(0), np.random.default_rng(0)
        coords, u_x = simulate._draw(ctx.grid, rng, 100,
                                     ctx.grid.interpolator(ctx.u.values))
        np.testing.assert_array_equal(coords, 1.0 + stream.random((100, 2)))
        np.testing.assert_array_equal(rng.standard_normal(3), stream.standard_normal(3))
        oracle = rgi_interpolator(ctx.grid, ctx.u.values)
        np.testing.assert_allclose(u_x, np.asarray(oracle(coords)), atol=1e-14)

    @pytest.mark.parametrize("name", ["square_ex1", "disk_ex2"])
    def test_score_is_centered(self, ctx_cache, name):
        """Under the base conductivity the linearized score eps * (I h)(X)
        has mean zero; the empirical mean stays within four standard errors."""
        ctx = ctx_cache(name, 17)
        image = ctx.apply_linearization(direction(ctx.grid, 31))
        rng = np.random.default_rng(3)
        _, image_x = simulate._draw(ctx.grid, rng, 20000, ctx.grid.interpolator(image.values))
        scores = rng.standard_normal(20000) * image_x
        se = scores.std(ddof=1) / math.sqrt(len(scores))
        assert abs(scores.mean()) <= 4.0 * se


class TestCounts:
    """The LAN and risk studies' design: the interior node counts of n
    uniform points observed on dual cells, N ~ Multinomial(n, w)."""

    @staticmethod
    def _dual_cells(grid, coords):
        """Node of the dual cell holding each point, by the cells' own
        geometry: nearest node per axis on the square; on the disk, ring
        floor(r / dr) (the last ring's cell is its inner half) and nearest
        angle, modulo the seam."""
        if grid.spec.kind is DomainKind.SQUARE:
            i = np.rint((coords[:, 0] - 1.0) / grid.hx).astype(int)
            j = np.rint((coords[:, 1] - 1.0) / grid.hy).astype(int)
            return i * grid.shape[1] + j
        r, t = np.hypot(coords[:, 0], coords[:, 1]), np.arctan2(coords[:, 1], coords[:, 0])
        ring = np.minimum(np.floor(r / grid.dr).astype(int), grid.shape[0] - 1)
        angle = np.rint(t / grid.dt).astype(int) % grid.shape[1]
        return ring * grid.shape[1] + angle

    @pytest.mark.parametrize("name, res", [("square_ex1", 17), ("disk_ex2", 16)])
    def test_weights_are_the_dual_cell_law(self, ctx_cache, name, res):
        """10^6 uniform points fall in the nodes' dual cells with the
        frequencies that the quadrature weights predict: chi-square p >= 1e-3.
        So Multinomial(n, w) is the law of a uniform design's cell counts."""
        grid, n = ctx_cache(name, res).grid, 1_000_000
        rng = np.random.default_rng(11)
        if grid.spec.kind is DomainKind.SQUARE:
            coords = 1.0 + rng.random((n, 2))
        else:
            r, t = np.sqrt(rng.random(n)), 2.0 * math.pi * rng.random(n)
            coords = np.column_stack([r * np.cos(t), r * np.sin(t)])
        freq = np.bincount(self._dual_cells(grid, coords), minlength=grid.n_nodes)
        assert stats.chisquare(freq, n * grid.quad_weights).pvalue >= 1e-3

    @pytest.mark.parametrize("name, res", [("square_ex1", 17), ("disk_ex2", 16)])
    def test_ratio_scale_matches_the_lumped_norm(self, ctx_cache, name, res):
        """Over 2,000 replicates the mean of S = sum_j N_j d_j^2 lies within
        four exact standard errors of n d^T W d, the LAN reference's own
        quadrature: Var S = n (sum w d^4 - (sum w d^2)^2)."""
        ctx = ctx_cache(name, res)
        grid, n, replicates = ctx.grid, 10_000, 2000
        d_sq = ctx.solve_difference(direction(grid, 31, scale=2.0), 1.0 / math.sqrt(n)) ** 2
        s = [float(simulate._counts(grid, np.random.default_rng(child), n) @ d_sq)
             for child in np.random.SeedSequence(7).spawn(replicates)]
        w = grid.weights_interior
        se = math.sqrt(n * (w @ d_sq ** 2 - (w @ d_sq) ** 2) / replicates)
        assert abs(np.mean(s) - n * (w @ d_sq)) <= 4.0 * se

    def test_counts_keep_the_stream(self, ctx_cache):
        """The counts are one multinomial over the interior weights, all that
        the draw takes from the generator, so a study's noise is the stream's
        next value; n < 1 is refused with _draw's message."""
        grid = ctx_cache("square_ex1", 17).grid
        rng, stream = np.random.default_rng(0), np.random.default_rng(0)
        counts = simulate._counts(grid, rng, 500)
        w = grid.quad_weights[grid.interior_ids]
        np.testing.assert_array_equal(counts,
                                      stream.multinomial(500, np.append(w, 1.0 - w.sum()))[:-1])
        assert counts.shape == (grid.n_interior,) and counts.sum() <= 500
        np.testing.assert_array_equal(rng.standard_normal(3), stream.standard_normal(3))
        with pytest.raises(ConfigError, match="need at least one observation"):
            simulate._counts(grid, rng, 0)


class TestInfoIdentity:
    """E[score(h1) score(h2)] against the image inner product."""

    def test_covariance_matches_inner_product(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        h1 = direction(ctx.grid, 31)
        h2 = direction(ctx.grid, 32)
        rep = info_identity_mc(ctx, h1, h2, 20000, seed=6)
        assert rep.extras["within_4se"]
        assert rep.flags == ()
        assert rep.replicates is None

    def test_small_runs_get_flagged_not_judged(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        h1 = direction(ctx.grid, 31)
        rep = info_identity_mc(ctx, h1, h1, 50, seed=6)
        assert rep.flags == ("low_power",)
        assert "within_4se" not in rep.extras

    def test_empty_draw_rejected(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        h = direction(ctx.grid, 31)
        with pytest.raises(ValueError, match="observation"):
            info_identity_mc(ctx, h, h, 0)


class TestLanMC:
    """Gaussian limit of the likelihood ratio under 1/sqrt(n) perturbations."""

    @staticmethod
    def _run(ctx, replicates=150, seed=9):
        h = direction(ctx.grid, 31, scale=2.0)
        return lan_mc(ctx, h, 2000, replicates, seed=seed)

    def test_limit_moments_within_4se(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        rep = self._run(ctx)
        assert rep.references["mean"] == -0.5 * rep.references["variance"]
        assert rep.extras["mean_within_4se"]
        assert rep.extras["var_within_4se"]
        assert rep.extras["ks_pvalue"] > 0.01

    def test_same_seed_reproduces_statistics(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        r1 = self._run(ctx)
        r2 = self._run(ctx)
        np.testing.assert_array_equal(r1.statistics, r2.statistics)

    def test_few_replicates_get_flagged(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        rep = self._run(ctx, replicates=50)
        assert "low_power" in rep.flags

    def test_one_normal_has_the_full_noise_law(self, ctx_cache):
        """Given the design, the ratio -eps.d(X) - S/2 over fresh full-noise
        eps is N(-S/2, S), the law that the study draws from one normal:
        4,000 such draws at one square-17 design, its n observations
        expanded from the node counts (d = 0 in the boundary cells), pass the
        KS test against it."""
        ctx = ctx_cache("square_ex1", 17)
        h, n = direction(ctx.grid, 31, scale=2.0), 2000
        d = -ctx.solve_difference(h, 1.0 / math.sqrt(n))
        rng = np.random.default_rng(2033)
        d_x = np.zeros(n)
        inside = np.repeat(d, simulate._counts(ctx.grid, rng, n))
        d_x[:inside.size] = inside
        s = float(d_x @ d_x)
        ratios = [-float(rng.standard_normal(n) @ d_x) - 0.5 * s for _ in range(4000)]
        assert ks_normal(np.array(ratios), -0.5 * s, math.sqrt(s))[1] >= 1e-3

    def test_zero_direction_is_degenerate(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        rep = lan_mc(ctx, ctx.grid.field(0.0), 500, 120, seed=9)
        assert "degenerate_direction" in rep.flags
        assert rep.references["variance"] == 0.0


    @pytest.mark.parametrize("n", [0, -4])
    def test_empty_sample_rejected(self, ctx_cache, n):
        """n < 1 is refused before h / sqrt(n) is formed, with _draw's message,
        not as a bad conductivity or a math domain error."""
        ctx = ctx_cache("square_ex1", 17)
        h = psi_fixture(ctx, "bump")
        with pytest.raises(ConfigError, match="need at least one observation"):
            lan_mc(ctx, h, n, 10)

    @pytest.mark.parametrize("replicates", [1, 0])
    def test_fewer_than_two_replicates_rejected(self, ctx_cache, replicates):
        """One replicate has no standard error, so no verdict: lan_mc refuses
        it, not only the CLI, instead of reporting mean_within_4se from an
        infinite one."""
        ctx = ctx_cache("square_ex1", 17)
        with pytest.raises(ConfigError, match="need at least two replicates"):
            lan_mc(ctx, psi_fixture(ctx, "bump"), 100, replicates)


class TestKolmogorovSmirnov:
    """The in-library two-sided KS test against its oracle, scipy.stats."""

    def test_pvalue_matches_scipy_on_every_branch(self, monkeypatch):
        """P(D_n >= d) within 1e-9 of scipy's for n d^2 from 0.05 to 400,
        the closed-form ends n d <= 1 and n d >= n - 1, and d >= 1/2.  The
        grid runs Durbin's matrix where scipy does and where scipy runs
        Pomeranz's recursion instead (n <= 140, n d^2 in (0.754693, 4]),
        and the Pelz-Good series at every n above 140."""
        calls = {"durbin": [], "pelz_good": []}
        for name in calls:
            real = getattr(simulate, f"_{name}_cdf")
            monkeypatch.setattr(simulate, f"_{name}_cdf",
                                lambda n, d, real=real, name=name:
                                calls[name].append((n, n * d * d)) or real(n, d))
        for n in (1, 2, 10, 140, 141, 500, 2000, 100_000):
            d = np.concatenate([np.sqrt(np.geomspace(0.05, 400.0, 21) / n),
                                [0.7 / n, 1.0 / n, (n - 0.5) / n, 0.5, 0.62, 0.97]])
            d = d[(d > 0.0) & (d < 1.0)]
            ours = [kolmogorov_sf(n, float(x)) for x in d]
            np.testing.assert_allclose(ours, stats.kstwo.sf(d, n), rtol=1e-9, atol=0.0,
                                       err_msg=f"n = {n}")
        assert any(n <= 140 and 0.754693 < t <= 4.0 for n, t in calls["durbin"])
        assert any(n <= 140 and t <= 0.754693 for n, t in calls["durbin"])
        assert any(n > 140 for n, _ in calls["durbin"])
        assert {n for n, _ in calls["pelz_good"]} == {141, 500, 2000, 100_000}

    @pytest.mark.parametrize("n", (1, 2, 10, 140, 141, 2000))
    def test_statistic_is_bit_identical(self, n):
        rng = np.random.default_rng(n)
        for shift in (0.0, 0.4, 1.5):
            x = rng.normal(0.1 + shift, 1.7, n)
            ref = stats.kstest(x, "norm", args=(0.1, 1.7))
            d, p = ks_normal(x, 0.1, 1.7)
            assert d == ref.statistic
            assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("replicates", (2, 150))
    def test_lan_report_matches_scipy(self, ctx_cache, replicates):
        ctx = ctx_cache("square_ex1", 17)
        rep = lan_mc(ctx, direction(ctx.grid, 31, scale=2.0), 2000, replicates, seed=9)
        ref = stats.kstest(rep.statistics, "norm",
                           args=(rep.references["mean"],
                                 math.sqrt(rep.references["variance"])))
        assert rep.extras["ks_statistic"] == ref.statistic
        assert rep.extras["ks_pvalue"] == pytest.approx(ref.pvalue, rel=1e-9, abs=0.0)
        assert "variance_se" in rep.extras


class TestRiskStudy:
    """N * MSE of the spectral-cutoff plug-in estimator."""

    @staticmethod
    def _refuse_dense(monkeypatch):
        """The study needs only its top max(K) pairs: make a dense B_hat fail it."""
        def refuse(self):
            raise AssertionError("dense linearization built for a risk study")

        monkeypatch.setattr(ScoreContext, "dense_linearization_hat", refuse)

    def test_default_cutoff_risk_is_pinned(self, ctx_cache, monkeypatch):
        """The benchmark's study (square 17 bump, default cutoff, 200
        replicates, seed 0) keeps its seeded n*MSE to 1e-9 relative: the
        Lanczos modes agree across builds only to rounding, while any change
        of the estimator or of its random stream moves it far more.  The dense
        B_hat is refused throughout."""
        self._refuse_dense(monkeypatch)
        ctx = ctx_cache("square_ex1", 17)
        table = plugin_risk_study(ctx, psi_fixture(ctx, "bump"), (500, 2000, 8000),
                                  replicates=200, seed=0)
        assert table.k_values == (8, 13, 20) and table.flags == ()
        np.testing.assert_allclose(
            table.n_mse, [0.0032880325785042447, 0.011564350554428482, 0.029277292649856373],
            rtol=1e-9, atol=0.0)

    def test_in_range_risk_stays_bounded(self, ctx_cache, monkeypatch):
        """For an in-range functional the normalized risk follows the
        bounded partial sums M_K under a cutoff that reaches their plateau:
        no growth across a 16x sample range.  Its seeded n*MSE is pinned to
        1e-9 relative, with the dense B_hat refused."""
        self._refuse_dense(monkeypatch)
        ctx = ctx_cache("square_ex1", 17)
        table = plugin_risk_study(
            ctx, in_range_fixture(ctx).psi, (500, 2000, 8000),
            replicates=200, seed=2, cutoff=lambda n: math.ceil(3 * n ** (1 / 3)))
        assert table.ratio_last_first <= 2.0
        assert np.all(np.diff(table.reference_m_k) >= 0.0)
        np.testing.assert_allclose(
            table.n_mse, [350.8623032846457, 337.01933872369113, 346.08592349583387],
            rtol=1e-9, atol=0.0)

    def test_out_of_range_risk_grows(self, ctx_cache):
        """The bump functional inherits the divergence of its M_K ladder; its
        seeded n*MSE is pinned to 1e-9 relative."""
        ctx = ctx_cache("square_ex1", 17)
        table = plugin_risk_study(
            ctx, psi_fixture(ctx, "bump"), (500, 2000, 8000),
            replicates=200, seed=2, cutoff=lambda n: math.ceil(3 * n ** (1 / 3)))
        assert table.ratio_last_first >= 2.0
        np.testing.assert_allclose(
            table.n_mse, [0.044596887160003054, 0.07659993002972289, 0.12930729763167567],
            rtol=1e-9, atol=0.0)

    def test_disk_study_builds_no_dense_hat(self, ctx_cache, monkeypatch):
        """On the disk, too, the study needs only its top max(K) Lanczos
        pairs: with the dense B_hat refused it runs, and its table records
        the sample sizes, the replicate count, the seed, the default
        cutoffs ceil(n^(1/3)) and the flag for so few replicates."""
        self._refuse_dense(monkeypatch)
        ctx = ctx_cache("disk_ex2", 16)
        table = plugin_risk_study(ctx, psi_fixture(ctx, "constant"), (300, 900),
                                  replicates=6, seed=1)
        assert table.n_values == (300, 900) and table.k_values == (7, 10)
        assert table.replicates == 6 and table.seed == 1
        assert table.flags == ("low_replicates",)
        assert np.all(np.isfinite(table.n_mse)) and np.all(table.n_mse > 0.0)

    def test_mode_images_match_single_applies(self, ctx_cache, monkeypatch):
        """The study images its kept modes with one block apply of I; oracle:
        ``_apply_B`` of each mode alone, on the same certified Lanczos pairs.
        The images are the study's last apply, which its Gram matrices read."""
        ctx = ctx_cache("square_ex1", 17)
        seen, real = [], ScoreContext._apply_B
        monkeypatch.setattr(ScoreContext, "_apply_B",
                            lambda self, x: seen.append(real(self, x)) or seen[-1])
        plugin_risk_study(ctx, in_range_fixture(ctx).psi, (1000,), replicates=2, seed=0)
        images = seen[-1]
        decomp = eigendecompose(ctx, n_modes=images.shape[1])
        assert images.shape[1] == 10 and not np.any(decomp.kernel_mask)
        for k in range(images.shape[1]):
            col = real(ctx, decomp.modes[:, k])
            np.testing.assert_allclose(images[:, k], col, rtol=0.0,
                                       atol=1e-13 * np.abs(col).max())

    def test_cutoff_above_non_kernel_modes_rejected(self, ctx_cache):
        """The saddle at 9 has 7 kernel modes among its 49 pairs, so a cutoff
        of 49 asks for more modes than the 42 it can fit on."""
        ctx = ctx_cache("saddle", 9)
        with pytest.raises(ConfigError, match="K = 49 exceeds the 42 non-kernel"):
            plugin_risk_study(ctx, psi_fixture(ctx, "bump"), (100,), replicates=2,
                              cutoff=lambda n: 49)

    def test_noise_factor_reproduces_the_gram_matrix(self, ctx_cache):
        """The fit solves v = G^-1 c with ``cho_solve((U, False), .)``, U the
        upper factor of ``scipy.linalg.cholesky`` of G = Z1^T Z1, and scales
        its one noise normal by sqrt(c.v).  So U must be upper triangular,
        the solve must invert G, and c.v must be ||U^-T c||^2 to 1e-12."""
        ctx = ctx_cache("square_ex1", 17)
        decomp = eigendecompose(ctx, n_modes=8)
        images = ctx._apply_B(decomp.modes)
        counts = simulate._counts(ctx.grid, np.random.default_rng(5), 300)
        gram = images.T @ (counts[:, None] * images)
        upper = cholesky(gram)
        np.testing.assert_array_equal(np.tril(upper, -1), 0.0)
        c = decomp.coefficients(psi_fixture(ctx, "bump"))
        w = solve_triangular(upper, c, trans="T")
        assert c @ cho_solve((upper, False), c) == pytest.approx(w @ w, rel=1e-12, abs=0.0)
        rhs = np.arange(1.0, gram.shape[0] + 1.0)
        np.testing.assert_allclose(gram @ cho_solve((upper, False), rhs), rhs,
                                   rtol=0.0, atol=1e-10 * np.abs(rhs).max())

    @pytest.mark.parametrize("n_list, replicates, psi_value, message", [
        ((400,), 0, None, "at least one replicate"),
        ((400,), -3, None, "at least one replicate"),
        ((), 2, None, "at least one sample size"),
        ((400,), 2, math.nan, "psi contains non-finite values"),
        ((400,), 2, 0.0, "psi vanishes identically")],
        ids=["zero-replicates", "negative-replicates", "no-sample-size", "nan-psi",
             "zero-psi"])
    def test_empty_study_rejected(self, ctx_cache, monkeypatch, n_list, replicates,
                                  psi_value, message):
        """No replicate, no sample size, or a NaN or identically zero psi (no
        functional to estimate) is a caller's mistake, refused before any
        eigensolve, not a NaN or zero risk with an infinite ratio, or a
        numpy error."""
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolve before the parameter checks")

        monkeypatch.setattr(spectral, "eigendecompose", refuse)
        ctx = ctx_cache("square_ex1", 17)
        psi = (psi_fixture(ctx, "bump") if psi_value is None
               else ScalarField(ctx.grid, np.full(ctx.grid.n_nodes, psi_value)))
        with pytest.raises(ConfigError, match=message):
            plugin_risk_study(ctx, psi, n_list, replicates=replicates)

    @staticmethod
    def _patched_modes(monkeypatch, transform):
        """Route the study's eigensolve through ``transform`` of its modes."""
        decompose = spectral.eigendecompose

        def patched(*args, **kwargs):
            decomp = decompose(*args, **kwargs)
            return dataclasses.replace(decomp, modes=transform(decomp.modes.copy()))

        monkeypatch.setattr(spectral, "eigendecompose", patched)

    def test_rotating_a_kept_eigenspace_keeps_the_risk(self, ctx_cache, monkeypatch):
        """Disk 28 has the degenerate pair (2, 3); K = 20 at n = 8000 keeps it
        whole, so a rotation of its basis leaves the estimator, and the
        seeded risk, unchanged to 1e-12 relative."""
        ctx = ctx_cache("disk_ex2", 28)
        psi = psi_fixture(ctx, "quadrant_bump")
        base = plugin_risk_study(ctx, psi, (8000,), replicates=10, seed=3)
        assert base.k_values == (20,)

        def rotate(modes):
            c, s = math.cos(0.7), math.sin(0.7)
            modes[:, 1:3] = modes[:, 1:3] @ np.array([[c, s], [-s, c]])
            return modes

        self._patched_modes(monkeypatch, rotate)
        rotated = plugin_risk_study(ctx, psi, (8000,), replicates=10, seed=3)
        np.testing.assert_allclose(rotated.n_mse, base.n_mse, rtol=1e-12, atol=0.0)

    def test_mode_signs_leave_the_risk_bit_identical(self, ctx_cache, monkeypatch):
        """Flipping the signs of modes 1, 4 and 8 flips their coefficients
        and images with them: the risk is bit-identical."""
        ctx = ctx_cache("square_ex1", 17)
        psi = psi_fixture(ctx, "bump")
        base = plugin_risk_study(ctx, psi, (300, 900), replicates=6, seed=4,
                                 cutoff=lambda n: 8)

        def flip(modes):
            modes[:, [0, 3, 7]] *= -1.0
            return modes

        self._patched_modes(monkeypatch, flip)
        flipped = plugin_risk_study(ctx, psi, (300, 900), replicates=6, seed=4,
                                    cutoff=lambda n: 8)
        np.testing.assert_array_equal(flipped.n_mse, base.n_mse)
        assert np.all(base.n_mse > 0.0)

    def test_sample_size_below_cutoff_rejected(self, ctx_cache):
        """N < K leaves the plug-in regression underdetermined; the study
        refuses it before any draw."""
        ctx = ctx_cache("square_ex1", 17)
        with pytest.raises(ValueError, match="below their cutoffs"):
            plugin_risk_study(ctx, in_range_fixture(ctx).psi, (400, 10),
                              replicates=2, cutoff=lambda n: 12)

    def test_singular_gram_matrix_raises(self, ctx_cache, monkeypatch):
        """Vanishing mode images make the Gram matrix singular: the Cholesky
        factorisation fails loudly instead of returning a fit."""
        ctx = ctx_cache("square_ex1", 17)
        self._patched_modes(monkeypatch, np.zeros_like)
        with pytest.raises(np.linalg.LinAlgError):
            plugin_risk_study(ctx, in_range_fixture(ctx).psi, (200,), replicates=2,
                              cutoff=lambda n: 4)


# -- reference: the same experiments, replayed observation by observation --


def reference_draw(grid, rng, n):
    """The design, in Cartesian coordinates, drawn as the library draws it;
    each study draws its noise from ``rng`` next."""
    if grid.spec.kind is DomainKind.SQUARE:
        return 1.0 + rng.random((n, 2))
    r = np.sqrt(rng.random(n))
    t = 2.0 * math.pi * rng.random(n)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


def reference_nodes(grid, rng, n):
    """The interior node (position) of each of the n observations, from
    counts drawn as the library draws them; numpy's last bin takes the rest
    of the mass, the boundary cells."""
    w = grid.quad_weights[grid.interior_ids]
    counts = rng.multinomial(n, np.append(w, 1.0 - w.sum()))[:-1]
    return np.repeat(np.arange(grid.n_interior), counts)


def perturbed_solution(ctx, h, n):
    """Nodal u at theta + h / sqrt(n)."""
    grid = ctx.grid
    theta2 = Conductivity.from_perturbation(
        grid, ScalarField(grid, ctx.theta.field.values - 1.0 + h.values / math.sqrt(n)),
        eta=None)
    return DivergenceFormOperator(theta2).solve(ctx.f, ctx.g).values


def lu_difference(ctx, h, n):
    """Interior d = u_theta - u_{theta + h/sqrt(n)} from a sparse LU solve of
    (K + s K(h)) d' = s (C(h) g - K(h) u_theta), s = 1/sqrt(n), d = -d'."""
    grid, s = ctx.grid, 1.0 / math.sqrt(n)
    K_h, C_h = assemble(grid, h.values)
    rhs = s * (C_h @ ctx.u.values[grid.boundary_ids] - K_h @ grid.restrict(ctx.u))
    return -spla.splu((ctx.op.K + s * K_h).tocsc()).solve(rhs)


def reference_lan(ctx, h, n, replicates, seed):
    """The log-likelihood ratio from the residuals under both conductivities,
    each observation reading its node.  It sees the noise only along
    d(X) = u(X) - u2(X), so the noise is that component, -Z d(X) / ||d(X)||
    from the normal Z drawn after the design."""
    grid = ctx.grid
    u, u2 = grid.restrict(ctx.u), grid.restrict(perturbed_solution(ctx, h, n))
    llrs = []
    for child in np.random.SeedSequence(seed).spawn(replicates):
        rng = np.random.default_rng(child)
        x = reference_nodes(grid, rng, n)
        d_x = u[x] - u2[x]
        y = u[x] - rng.standard_normal() * d_x / np.linalg.norm(d_x)
        r0, r1 = y - u[x], y - u2[x]
        llrs.append(0.5 * np.sum(r0 * r0 - r1 * r1))
    return np.array(llrs)


def reference_identity(ctx, h1, h2, n, seed):
    grid = ctx.grid
    rng = np.random.default_rng(seed)
    x = reference_draw(grid, rng, n)
    eps = rng.standard_normal(n)
    u_x = rgi_interpolator(grid, ctx.u.values)(x)
    resid = (u_x + eps) - u_x
    scores = [resid * rgi_interpolator(grid, ctx.apply_linearization(h).values)(x)
              for h in (h1, h2)]
    return scores[0] * scores[1]


def reference_risk(ctx, psi, n_list, replicates, seed, k):
    """The plug-in error under the base conductivity, on the modes of the
    dense decomposition, imaged one at a time, each observation reading its
    node.  Given the design, the residuals are the noise, so the error
    c^T (Z1^T Z1)^-1 Z1^T eps is N(0, c^T (Z1^T Z1)^-1 c): that standard
    deviation times the one normal drawn after the design."""
    grid = ctx.grid
    decomp = eigendecompose(ctx)
    keep = np.flatnonzero(~decomp.kernel_mask)[:k]
    coeffs = decomp.coefficients(psi)[keep]
    images = np.column_stack([ctx._apply_B(decomp.modes[:, i]) for i in keep])
    root = np.random.SeedSequence(seed)
    n_mse = []
    for n in n_list:
        errors = []
        for child in root.spawn(replicates):
            rng = np.random.default_rng(child)
            design = images[reference_nodes(grid, rng, n)]
            sd = math.sqrt(coeffs @ np.linalg.solve(design.T @ design, coeffs))
            errors.append(sd * rng.standard_normal())
        n_mse.append(n * np.mean(np.square(errors)))
    return np.array(n_mse)


def assert_relative_match(got, ref, rel=1e-10):
    """Agreement to ``rel`` of the largest reference magnitude."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


class TestMatchesInterpolatorPath:
    """Seeded statistics agree with an oracle that replays the same design
    observation by observation: each of the n observations reads its node
    for the LAN and risk studies, and pointwise interpolation of every field
    serves the score identity."""

    @pytest.mark.parametrize("name, res", [("square_ex1", 17), ("disk_ex2", 16)])
    def test_lan_statistics(self, ctx_cache, name, res):
        ctx = ctx_cache(name, res)
        h = direction(ctx.grid, 31, scale=2.0)
        rep = lan_mc(ctx, h, 2000, 40, seed=9)
        assert_relative_match(rep.statistics, reference_lan(ctx, h, 2000, 40, 9))

    @pytest.mark.parametrize("name, res", [("square_ex1", 17), ("disk_ex2", 28)])
    def test_lan_statistics_match_extended_precision(self, ctx_cache, name, res):
        """At the default bump and n the ratios are about 1e-3: each statistic
        matches sqrt(S) Z - S/2 evaluated in long double on the same draw, with
        S = sum_j N_j d_j^2 summed in long double over the replayed counts and
        the study's d = u_theta - u_{theta + h/sqrt(n)}, and Z the normal drawn
        after the design, to 1e-12 of its own size.  That d is checked against
        an LU solve in :meth:`test_lan_difference_is_one_solve`."""
        ctx = ctx_cache(name, res)
        h, n, seed = psi_fixture(ctx, "bump"), 10_000, 0
        rep = lan_mc(ctx, h, n, 10, seed=seed)
        d = (-ctx.solve_difference(h, 1.0 / math.sqrt(n))).astype(np.longdouble)
        exact = []
        for child in np.random.SeedSequence(seed).spawn(10):
            rng = np.random.default_rng(child)
            d_x = d[reference_nodes(ctx.grid, rng, n)]
            s = np.sum(d_x * d_x)
            exact.append(np.sqrt(s) * np.longdouble(rng.standard_normal()) - s / 2)
        exact = np.array(exact)
        assert np.all(np.abs(rep.statistics - exact) <= 1e-12 * np.abs(exact))

    @pytest.mark.parametrize("name, res, bump", [("square_ex1", 33, None),
                                                 ("disk_ex2", 33, None),
                                                 ("square_ex1", 25, True)])
    def test_lan_difference_is_one_solve(self, ctx_cache, monkeypatch, name, res, bump):
        """The nodal d whose squares the study weighs by the counts equals the
        LU solve of its own equation to 1e-12 relative; subtracting
        u_{theta + h/sqrt(n)} from u_theta cancels about four digits and
        misses by about 1e-9."""
        ctx = ctx_cache(name, res, theta_bump=bump)
        h, n, seen = psi_fixture(ctx, "bump"), 10_000, []
        real = ScoreContext.solve_difference
        monkeypatch.setattr(ScoreContext, "solve_difference",
                            lambda self, h, s: seen.append(-real(self, h, s)) or -seen[-1])
        lan_mc(ctx, h, n, 2, seed=0)
        ref = lu_difference(ctx, h, n)
        assert len(seen) == 1
        assert np.max(np.abs(seen[0] - ref)) <= 1e-12 * np.max(np.abs(ref))
    def test_info_identity_statistics(self, ctx_cache):
        ctx = ctx_cache("square_ex1", 17)
        h1, h2 = direction(ctx.grid, 31), direction(ctx.grid, 32)
        rep = info_identity_mc(ctx, h1, h2, 5000, seed=6)
        ref = reference_identity(ctx, h1, h2, 5000, 6)
        assert_relative_match(rep.statistics, ref)
        assert rep.empirical_mean == pytest.approx(ref.mean(), rel=1e-10)

    @pytest.mark.parametrize("name, res, bump", [("square_ex1", 17, None),
                                                 ("disk_ex2", 28, None),
                                                 ("square_ex1", 25, True)])
    def test_risk_study(self, ctx_cache, name, res, bump):
        """The study's true model is the context's own theta, the bumped one
        too; K = 8 keeps every eigenspace of the disk whole, so its Lanczos
        basis and the dense one give the same estimator."""
        ctx = ctx_cache(name, res, theta_bump=bump)
        psi = psi_fixture(ctx, "bump")
        table = plugin_risk_study(ctx, psi, (300, 900), replicates=6, seed=4,
                                  cutoff=lambda n: 8)
        assert_relative_match(table.n_mse, reference_risk(ctx, psi, (300, 900), 6, 4, 8))
