"""Monte Carlo experiments for the regression model Y = u_theta(X) + noise.

Design points are drawn from the normalized measure on the domain (uniform
area), and every experiment is driven by spawned child seeds so reports are
bitwise reproducible.  The LAN and risk studies observe each nodal value on
its dual cell, whose area is the node's lumped weight w, so they see a
design of n points only through its interior node counts
N ~ Multinomial(n, w): one draw of O(m) per replicate in the m interior
nodes, and the lumped references are exact for it.  The score identity
study draws n points in grid coordinates ((r, theta) on the disk) and
evaluates its images there through one prepared ``Grid.interpolator``
closure.  Where a statistic sees the noise only through a linear image, the
study draws that image from its exact law given the design, next from the
same generator, as one normal: -eps.d(X) ~ N(0, S), S = sum_j N_j d_j^2,
for the likelihood ratio (d = u_theta - u_{theta + h/sqrt(n)}), and
c^T G^-1 Z1^T eps ~ N(0, c^T G^-1 c) for the plug-in error (Z1 the mode
images at the design, G = Z1^T Z1 = Z^T diag(N) Z with Z the nodal images,
c the functional's mode coefficients).  The three
studies check the mean-zero/variance structure of the linearized score,
the likelihood-ratio expansion against its predicted Gaussian limit, and
the growth of the normalized risk of a spectral-cutoff plug-in estimator of
a linear functional of the conductivity.  The limit is
tested by a two-sided Kolmogorov-Smirnov test computed here, on scipy's branch
rule (Simard and L'Ecuyer 2011): Ruben-Gambino closed forms at the ends, the
Smirnov tail, Durbin's matrix for the exact body and Pelz-Good for large n;
``scipy.stats.kstest`` is its test oracle and is never imported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve, cholesky

from ellinfo.elliptic import Conductivity
from ellinfo.grids import ConfigError, DomainKind, ScalarField, inner_l2, require_finite
from ellinfo.score import ScoreContext

#: Observation counts below this yield low-power reports that carry no verdict.
LOW_POWER_N = 100

#: Replicate counts below this are flagged in risk tables.
LOW_REPLICATES = 100


def _draw(grid, rng, n: int, evaluate):
    """One design in grid coordinates and ``evaluate`` at it.

    The design is uniform for the normalized measure: 1 + U on the square,
    (sqrt(U1), 2 pi U2) in (r, theta) on the disk.  The study draws its
    noise from ``rng`` next, so a seed fixes both.  ``evaluate`` is a
    ``Grid.interpolator`` closure prepared once per study.
    """
    if n < 1:
        raise ConfigError("need at least one observation")
    if grid.spec.kind is DomainKind.SQUARE:
        coords = rng.random((n, 2))
        coords += 1.0
    else:
        r = np.sqrt(rng.random(n))
        coords = np.column_stack([r, 2.0 * math.pi * rng.random(n)])
    return coords, evaluate(coords)


def _counts(grid, rng, n: int) -> np.ndarray:
    """Interior node counts of n uniform points observed on dual cells.

    A point lands in a node's dual cell with probability w, the cell's area
    under the normalized measure.  The appended bin takes the boundary
    nodes' cells, where the observed fields vanish, and is dropped.  The
    study draws its noise from ``rng`` next, so a seed fixes both.
    """
    if n < 1:
        raise ConfigError("need at least one observation")
    return rng.multinomial(n, np.append(grid.weights_interior, 0.0))[:-1]


@dataclass
class MCReport:
    """Summary of one Monte Carlo study against its analytic references."""

    seed: int
    n_samples: int
    replicates: int | None
    statistics: np.ndarray
    empirical_mean: float
    empirical_variance: float
    standard_error: float
    references: dict
    flags: tuple = ()
    extras: dict = field(default_factory=dict)


def info_identity_mc(ctx: ScoreContext, h1: ScalarField, h2: ScalarField,
                     n: int, seed: int = 0) -> MCReport:
    """Check E[score(h1) score(h2)] against the inner product <I h1, I h2>.

    The product statistic is averaged over one seeded draw; agreement within
    four standard errors is recorded, except for low-power runs (small n)
    which carry the flag instead of a verdict.
    """
    img1 = ctx.apply_linearization(h1)
    img2 = ctx.apply_linearization(h2)
    rng = np.random.default_rng(seed)
    _, images_x = _draw(ctx.grid, rng, n,
                        ctx.grid.interpolator(np.column_stack([img1.values,
                                                               img2.values])))
    eps = rng.standard_normal(n)  # n products eps^2 i1 i2: no shorter statistic
    i1_x, i2_x = images_x.T
    products = (eps * i1_x) * (eps * i2_x)
    reference = inner_l2(img1, img2)
    mean = float(products.mean())
    se = float(products.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    flags = ()
    extras = {}
    if n < LOW_POWER_N:
        flags = ("low_power",)
    else:
        extras["within_4se"] = bool(abs(mean - reference) <= 4.0 * se)
    return MCReport(seed=seed, n_samples=n,
                    replicates=None, statistics=products,
                    empirical_mean=mean,
                    empirical_variance=float(products.var(ddof=1)) if n > 1 else 0.0,
                    standard_error=se,
                    references={"inner_product": reference},
                    flags=flags, extras=extras)


def ks_normal(x, loc: float, scale: float) -> tuple[float, float]:
    """Two-sided one-sample Kolmogorov-Smirnov test of ``x`` against N(loc, scale^2):
    (D_n, P(D_n >= observed)), with D_n = max(D+, D-) formed bit for bit as
    ``scipy.stats.kstest`` forms it and the p-value from :func:`kolmogorov_sf`."""
    from scipy.special import ndtr

    n = len(x)
    cdf = ndtr((np.sort(x) - loc) / scale)
    d = float(max(np.max(np.arange(1.0, n + 1) / n - cdf),
                  np.max(cdf - np.arange(0.0, n) / n)))
    return d, kolmogorov_sf(n, d)


def kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided statistic of n observations.

    The branches are scipy's (``kstwo.sf``), after Simard and L'Ecuyer
    (2011, J. Stat. Softw. 39(11)): the Ruben-Gambino closed forms for
    n d <= 1 and n d >= n - 1 (0 at d = 1); twice ``scipy.special.smirnov``
    for d >= 1/2 and in the tail (n d^2 > 4 for n <= 140, 2.2 <= n d^2 < 370
    above, and 0 past 370); Pelz-Good for n > 140 with n d^1.5 > 1.4 (or
    n > 1e5); and Durbin's matrix everywhere else, including the n <= 140
    body where scipy runs Pomeranz's recursion (the two agree to 1e-13 on
    the CDF).  ``scipy.stats.kstwo.sf`` is the test oracle, to 1e-9 relative.
    """
    from scipy.special import smirnov

    t, tx = n * d, n * d * d
    if d <= 0.5 / n:
        p = 1.0
    elif t <= 1.0:
        p = 1.0 - float(np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1)))
    elif t >= n - 1:
        p = 2 * (1.0 - d) ** n
    elif n > 140 and d < 0.5 and tx >= 370.0:
        p = 0.0
    elif d >= 0.5 or tx > 4.0 or (n > 140 and tx >= 2.2):
        p = 2 * float(smirnov(n, d))
    elif n <= 140 or (n <= 100_000 and n * d ** 1.5 <= 1.4):
        p = 1.0 - _durbin_cdf(n, d)
    else:
        p = 1.0 - _pelz_good_cdf(n, d)
    return min(max(p, 0.0), 1.0)


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) as the (k, k) entry of n!/n^n H^n, with d = (k - h)/n and
    H Durbin's (2k - 1)-square matrix (Marsaglia, Tsang and Wang 2003),
    powered by squaring and rescaled by 2^128 as scipy does."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.cumprod(1.0 / np.arange(1, m + 1))           # 1/j!, j = 1..m
    w = np.concatenate(([1.0], inv_fact[:-1]))                  # 1/j!, j = 0..m-1
    v = (1.0 - h ** np.arange(1, m + 1)) * inv_fact
    v[-1] = (1.0 + max(2 * h - 1.0, 0.0) ** m - 2 * h ** m) * inv_fact[-1]
    H = np.zeros((m, m))
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = v[::-1]
    power, expnt, h_expnt, e = np.eye(m), 0, 0, n
    while e:
        if e & 1:
            power, expnt = power @ H, expnt + h_expnt
        H, h_expnt, e = H @ H, 2 * h_expnt, e >> 1
        if abs(H[k - 1, k - 1]) > 2.0 ** 128:
            H, h_expnt = H / 2.0 ** 128, h_expnt + 128
    p = float(power[k - 1, k - 1])
    for i in range(1, n + 1):
        p = i * p / n
        if abs(p) < 2.0 ** -128:
            p, expnt = p * 2.0 ** 128, expnt - 128
    return math.ldexp(p, expnt)


def _pelz_good_cdf(n: int, d: float) -> float:
    """P(D_n <= d) by the Pelz-Good (1976) expansion K0 + K1/sqrt(n) + K2/n +
    K3/n^1.5 in z = sqrt(n) d: the theta-function sums over odd integers by
    Horner in q = exp(-pi^2/(8 z^2)), then the extra K2 and K3 terms over all
    integers, in scipy's order of operations."""
    pi2, pi4, pi6, sqrt2pi = math.pi ** 2, math.pi ** 4, math.pi ** 6, math.sqrt(2 * math.pi)
    z = np.sqrt(n) * d
    z2, z3, z4, z6 = z ** 2, z ** 3, z ** 4, z ** 6
    qlog = -pi2 / 8 / z2
    if qlog < -708:
        return 0.0
    q = np.exp(qlog)
    k2 = (6 * z6 + 2 * z4, (2 * z4 - 5 * z2) * pi2 / 4, pi4 * (1 - 2 * z2) / 16)
    k3 = (-30 * z6 - 90 * z ** 8, pi2 * (135 * z4 - 96 * z6) / 4,
          pi4 * (-60 * z2 + 212 * z4) / 16, pi6 * (5 - 30 * z2) / 64)
    K = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m2 = (2 * k - 1) ** 2
        K *= np.power(q, 8 * k)
        K += np.array([1.0, -z2 + pi2 / 4 * m2,
                       k2[0] + k2[1] * m2 + k2[2] * m2 ** 2,
                       k3[0] + k3[1] * m2 + k3[2] * m2 ** 2 + k3[3] * m2 ** 3])
    K *= q
    K *= sqrt2pi
    K /= np.array([z, 6 * z4, 72 * z ** 7, 6480 * z ** 10])
    ks = np.arange(maxk, 0, -1)
    ks2 = ks ** 2
    q_pow = np.exp(-pi2 / 2 / z2) ** ks2
    K[2] += np.sum(ks2 * q_pow) * (pi2 * sqrt2pi / (-36 * z3))
    r3z, kpi = math.sqrt(3) * z, np.pi * ks
    K[3] += (np.sum((r3z + kpi) * (r3z - kpi) * ks2 * q_pow)
             * (pi2 * sqrt2pi / (216 * z6)))
    K /= np.power(n * 1.0, np.arange(4) / 2.0)
    return float(sum(K))


def lan_mc(ctx: ScoreContext, h: ScalarField, n: int, replicates: int,
           seed: int = 0) -> MCReport:
    """Monte Carlo for the log-likelihood ratio of the 1/sqrt(n) perturbation.

    Each replicate draws the node counts N of n points under the base
    conductivity (:func:`_counts`); the exact log-likelihood ratio against
    theta + h/sqrt(n), -eps.d(X) - S/2 with S = sum_j N_j d_j^2, is drawn as
    sqrt(S) Z - S/2 from one normal Z, its law given the design.  The nodal
    d is one solve shared across replicates
    (:meth:`ScoreContext.solve_difference`).  References are
    the predicted Gaussian limit: mean -||I h||^2/2, variance ||I h||^2;
    the two-sided Kolmogorov-Smirnov statistic and p-value against that
    Gaussian (:func:`ks_normal`, oracle ``scipy.stats.kstest``) are attached.
    """
    if n < 1:  # before 1/sqrt(n) scales h
        raise ConfigError("need at least one observation")
    if replicates < 2:
        raise ConfigError("need at least two replicates for a standard error")
    grid = ctx.grid
    Conductivity.from_perturbation(  # validates theta + h/sqrt(n)
        grid, ScalarField(grid, ctx.theta.field.values - 1.0 + h.values / math.sqrt(n)),
        eta=None)
    d_sq = ctx.solve_difference(h, 1.0 / math.sqrt(n)) ** 2
    image = ctx.apply_linearization(h)
    norm_sq = inner_l2(image, image)
    llrs = np.empty(replicates)
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(replicates)):
        rng = np.random.default_rng(child)
        s = float(_counts(grid, rng, n) @ d_sq)
        llrs[r] = math.sqrt(s) * rng.standard_normal() - 0.5 * s
    mean = float(llrs.mean())
    var = float(llrs.var(ddof=1))
    se = math.sqrt(var / replicates)
    references = {"mean": -0.5 * norm_sq, "variance": norm_sq}
    flags = ()
    extras = {}
    if norm_sq == 0.0:
        flags = ("degenerate_direction",)
    else:
        extras["ks_statistic"], extras["ks_pvalue"] = ks_normal(
            llrs, -0.5 * norm_sq, math.sqrt(norm_sq))
        extras["mean_within_4se"] = bool(abs(mean - references["mean"]) <= 4.0 * se)
        # Gaussian-based standard error of the sample variance.
        se_var = var * math.sqrt(2.0 / (replicates - 1))
        extras["variance_se"] = se_var
        extras["var_within_4se"] = bool(abs(var - references["variance"]) <= 4.0 * se_var)
    if replicates < LOW_REPLICATES:
        flags = flags + ("low_power",)
    return MCReport(seed=seed, n_samples=n, replicates=replicates,
                    statistics=llrs, empirical_mean=mean,
                    empirical_variance=var, standard_error=se,
                    references=references, flags=flags, extras=extras)


@dataclass
class RiskTable:
    """Normalized risk of the spectral-cutoff plug-in across sample sizes."""

    n_values: tuple
    k_values: tuple
    n_mse: np.ndarray
    ratio_last_first: float
    reference_m_k: np.ndarray
    replicates: int
    seed: int
    flags: tuple = ()


def _default_cutoff(n: int) -> int:
    return max(1, math.ceil(n ** (1.0 / 3.0)))


def plugin_risk_study(ctx: ScoreContext, psi: ScalarField, n_list,
                      replicates: int = 200, seed: int = 0,
                      cutoff: Callable[[int], int] = _default_cutoff) -> RiskTable:
    """Empirical N*MSE of a spectral-cutoff plug-in for the functional <psi, theta>.

    Data come from the base conductivity, so the residuals Y - u_theta(X) are
    the noise.  The estimator regresses them on the images Z1 = (I e_k)(X) of
    the top-K information eigenvectors and plugs the fit into the functional;
    K <= N follows ``cutoff`` (default ceil(N^{1/3})) and may not exceed the
    non-kernel modes.  With c the kept modes' psi-coefficients and v = G^-1 c,
    G = Z1^T Z1 = Z^T diag(N) Z by Cholesky (Z the nodal images, N the node
    counts of :func:`_counts`), the error given the design is N(0, c.v):
    sqrt(c.v) times one normal drawn after the counts.
    c.v is unchanged by a mode's sign flip or a rotation of a wholly kept
    degenerate eigenspace; a cutoff that splits one (disk 28 at K = 13 keeps
    mode 13 of the pair 13, 14) is defined by the mode it keeps.  Out of range
    the risk inherits the divergence of the partial sums M_K.  In range it
    tracks their plateau only under a cutoff that reaches it, such as
    3 N^{1/3} on square 17; under the default it grows 1.8-3.0x there over
    N = 500, 2000, 8000 (M_K 2.29x, 200 replicates, seeds 0-11) and meets M_K
    at K = 20 (-0.2 +- 1.5 % over seeds 1-12 at 1,000 replicates).
    Only the top max(K) pairs are computed: by certified Lanczos below the
    interior dimension, with no dense matrix.
    """
    from ellinfo.spectral import eigendecompose, range_series

    n_list = tuple(int(n) for n in n_list)
    if not n_list or replicates < 1:
        raise ConfigError("need at least one sample size and at least one replicate")
    require_finite(psi.values, "psi")
    if not np.any(ctx.grid.restrict(psi)):
        raise ConfigError("psi vanishes identically: the risk study has nothing to estimate")
    k_values = tuple(min(cutoff(n), ctx.grid.n_interior) for n in n_list)
    if any(n < k for n, k in zip(n_list, k_values)):
        raise ConfigError(f"sample sizes {n_list} fall below their cutoffs K = {k_values}")
    k_max = max(k_values)
    decomp = eigendecompose(ctx, n_modes=k_max)
    keep = np.flatnonzero(~decomp.kernel_mask)[:k_max]
    if keep.size < k_max:
        raise ConfigError(f"cutoff K = {k_max} exceeds the {keep.size} non-kernel "
                          "information modes of the grid")
    series, _ = range_series(decomp, psi)
    grid = ctx.grid
    coeffs = decomp.coefficients(psi)[keep]
    images = ctx._apply_B(decomp.modes[:, keep])
    flags = ("low_replicates",) if replicates < LOW_REPLICATES else ()
    root = np.random.SeedSequence(seed)
    n_mse = np.empty(len(n_list))
    for j, (n, k) in enumerate(zip(n_list, k_values)):
        errors = np.empty(replicates)
        z = images[:, :k]
        for r, child in enumerate(root.spawn(replicates)):
            rng = np.random.default_rng(child)
            gram = z.T @ (_counts(grid, rng, n)[:, None] * z)
            v = cho_solve((cholesky(gram), False), coeffs[:k])
            errors[r] = math.sqrt(coeffs[:k] @ v) * rng.standard_normal()
        n_mse[j] = n * float(np.mean(errors ** 2))
    ratio = float(n_mse[-1] / n_mse[0]) if n_mse[0] > 0 else math.inf
    reference = np.array([series[k - 1] for k in k_values])
    return RiskTable(n_values=n_list, k_values=k_values, n_mse=n_mse,
                     ratio_last_first=ratio, reference_m_k=reference,
                     replicates=replicates, seed=seed, flags=flags)
