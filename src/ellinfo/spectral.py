"""Spectral analysis of the information operator and Fisher functionals.

The linearization I acts on interior perturbations; the information operator
I*I is symmetric and positive semidefinite for the weighted discrete inner
product.  This module eigendecomposes it, evaluates the inverse Fisher
quadratic form psi^T (I*I)^{-1} psi by a certified sparse solve of the
discrete transport equation T^T y = W psi, and builds the degeneracy
sequences h_N whose normalized quotients certify vanishing information.
Divergence verdicts are never issued from a single grid: `fisher_refinement`
sweeps a family of meshes and classifies the growth of the inverse quadratic
form.  Where T is singular (the saddle's harmonic base), sparse Lanczos
certifies the kernels of T and T^T: psi with mass on ker T has zero
information, and a bordered sparse solve gives the others' exact value.

`eigendecompose` picks its solver from the request: the full spectrum is
dense, and a few top pairs come from certified Lanczos.  Dense spectra serve
only degeneracy ladders and the default `spectrum` command (eigenvalues
alone, `dense_eigenvalues`); the risk study and `spectrum --n-modes` take
their top pairs from Lanczos, and a sweep's kernel diagnostics come from
Lanczos on an inverse.  The score context applies the operator
G = B_hat^T B_hat and its inverse to vectors or blocks; every residual
certificate is one block apply of G, and a ladder one block apply of I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.linalg.blas import dsyrk

from ellinfo import elliptic
from ellinfo.grids import ConfigError, Grid, ScalarField, inner_l2, norm_l2, require_finite
from ellinfo.score import ScoreContext

#: Eigenvalues below this multiple of the top eigenvalue count as kernel, and
#: so does a larger mass fraction of psi on a certified ker T.
KERNEL_TOL_FACTOR = 1e-8

#: Residual tolerance (relative to lambda_1) for iterative eigenpairs.
EIG_RESIDUAL_RTOL = 1e-8

#: Refinement-sweep classification thresholds: total growth of the inverse
#: quadratic form marking divergence, and the observed convergence order
#: marking in-range.
DIVERGENCE_GROWTH = 2.0
MIN_CONVERGENCE_ORDER = 1.0

#: Largest interior dimension for which the refinement sweep computes kernel
#: diagnostics.  It bounds the cost of widening the sparse kernel search,
#: which grows with the kernel: 0.5 s at disk 28 (82 kernel modes) and 3.1 s
#: at disk 40 (220 modes) on a 2-core x86 VM with one BLAS thread.
KERNEL_SWEEP_MAX_DIM = 1500

#: Pair count of the first sparse kernel search; it doubles until complete.
KERNEL_SEARCH_MODES = 16

#: Largest ||A v||_2 / ||A||_1 of a vector in the kernel of A = T or T^T.  On the
#: saddle, 17 to 129, kernel pairs reach 1.0e-14 and the next pair 2.5e-2 to 2.0e-3.
NULL_SPACE_RTOL = 1e-6


@dataclass
class SpectralDecomposition:
    """Eigenpairs of the information operator, largest eigenvalue first.

    ``modes[:, k]`` holds the k-th eigenvector on interior nodes,
    orthonormal for the weighted discrete inner product.  Eigenvalues below
    ``kernel_tol`` form the numerical kernel; the projector onto it is
    available through :meth:`kernel_project`.

    ``subspace`` records which perturbation space was decomposed:
    ``interior`` is the full interior nodal space (whose deep spectrum
    contains first-integral near-kernel directions that no admissible
    perturbation can realize), while ``collar_supported`` restricts to
    fields vanishing on the boundary collar -- the discrete tangent space.
    Degeneracy ladders are meaningful on the latter; kernel geometry on the
    former.  ``mode`` records the solver that produced the pairs:
    ``dense``, ``iterative`` (Lanczos) or ``inverse`` (Lanczos on the
    inverse, see :func:`kernel_decomposition`).
    """

    ctx: ScoreContext
    eigenvalues: np.ndarray
    modes: np.ndarray
    kernel_tol: float
    mode: str
    complete: bool
    subspace: str = "interior"
    residuals: np.ndarray | None = None

    @property
    def grid(self) -> Grid:
        return self.ctx.grid

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @property
    def kernel_mask(self) -> np.ndarray:
        return self.eigenvalues <= self.kernel_tol

    @property
    def n_kernel(self) -> int:
        return int(np.count_nonzero(self.kernel_mask))

    def coefficients(self, psi: ScalarField) -> np.ndarray:
        """Weighted inner products <e_k, psi> against every computed mode."""
        w = self.grid.weights_interior
        return self.modes.T @ (w * self.grid.restrict(psi))

    def kernel_project(self, psi: ScalarField) -> ScalarField:
        mask = self.kernel_mask
        c = self.coefficients(psi)
        vals = self.modes[:, mask] @ c[mask]
        return self.grid.interior_field(vals)

    def kernel_mass_fraction(self, psi: ScalarField) -> float:
        """Share of the squared norm of psi carried by kernel modes."""
        total = norm_l2(psi) ** 2
        if total == 0.0:
            raise ConfigError("psi vanishes identically")
        c = self.coefficients(psi)
        return float(np.sum(c[self.kernel_mask] ** 2) / total)


def eigendecompose(ctx: ScoreContext, n_modes: int | None = None,
                   subspace: str = "interior") -> SpectralDecomposition:
    """Eigendecompose the information operator.

    The request picks the solver.  The full spectrum (``n_modes`` None, or
    at least the interior dimension m) solves the whole eigenproblem in place
    on one triangle of G (``mode='dense'``, ``complete``), in 3 m^2 doubles at
    most: G, overwritten by the eigenvectors, and LAPACK's workspace.  Fewer
    pairs come from implicitly restarted Lanczos on the matrix-free operator,
    each residual-checked (``mode='iterative'``); no dense matrix is formed.
    Near m Lanczos is slower: 200 of 961 pairs take 0.37 s, all of them 0.26 s,
    B_hat included, :func:`dense_eigenvalues` 0.16 s (2-core x86 VM, 1 BLAS thread).

    ``subspace='collar_supported'`` decomposes the quadratic form restricted
    to fields vanishing on the boundary collar, the discrete tangent space
    of admissible perturbations; it always takes the full spectrum, and the
    returned modes are padded with zeros on the collar and remain
    orthonormal.
    """
    if subspace not in ("interior", "collar_supported"):
        raise ConfigError("subspace must be 'interior' or 'collar_supported'")
    if n_modes is not None and n_modes < 1:
        raise ConfigError(f"n_modes must be positive, got {n_modes}")
    if subspace == "collar_supported" and n_modes is not None:
        raise ConfigError("the collar-restricted decomposition takes the full spectrum only")
    grid = ctx.grid
    m = grid.n_interior
    dense = n_modes is None or n_modes >= m
    free = (np.flatnonzero(~grid.collar_mask[grid.interior_ids])
            if subspace == "collar_supported" else slice(None))
    if dense:
        vals, vecs = eigh(_gram(ctx, free), lower=True, overwrite_a=True,
                          check_finite=False, driver="evd")
    else:
        vals, vecs = _lanczos(ctx._apply_info_hat, m, n_modes, "LM")
    vals, vecs = vals[::-1], vecs[:, ::-1]
    residuals = None if dense else _certified_residuals(ctx, vals, vecs, float(vals[0]))
    modes = np.zeros((m, vals.size))
    modes[free] = vecs
    modes /= np.sqrt(grid.weights_interior)[:, None]
    return SpectralDecomposition(ctx=ctx, eigenvalues=np.ascontiguousarray(vals),
                                 modes=modes, kernel_tol=kernel_tolerance(vals),
                                 mode="dense" if dense else "iterative",
                                 complete=dense, subspace=subspace,
                                 residuals=residuals)


def _gram(ctx: ScoreContext, free=slice(None)) -> np.ndarray:
    """Fortran-order lower triangle of G = B_hat^T B_hat, the only one LAPACK reads,
    by one ``dsyrk`` on a B_hat kept nowhere; an index array ``free`` restricts G."""
    gram = dsyrk(1.0, ctx.dense_linearization_hat().T, lower=1)
    return gram if isinstance(free, slice) else gram.T[np.ix_(free, free)].T


def dense_eigenvalues(ctx: ScoreContext) -> np.ndarray:
    """Every eigenvalue of G, largest first: the dense path without eigenvectors."""
    return eigh(_gram(ctx), lower=True, overwrite_a=True, check_finite=False,
                driver="evd", eigvals_only=True)[::-1].copy()


def kernel_tolerance(eigenvalues: np.ndarray) -> float:
    """``KERNEL_TOL_FACTOR`` times lambda_1 of a spectrum sorted largest first."""
    return KERNEL_TOL_FACTOR * float(eigenvalues[0]) if len(eigenvalues) else 0.0


def _lanczos(matvec, m: int, k: int, which: str) -> tuple[np.ndarray, np.ndarray]:
    """k eigenpairs of a symmetric operator on R^m by implicitly restarted
    Lanczos.  The start vector is fixed, so repeated calls agree bit for bit
    (ARPACK's default start is random), and generic: a symmetric start such
    as a constant would hide the eigenvectors that are odd under the square
    fixtures' x <-> y symmetry."""
    op = spla.LinearOperator((m, m), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, m)
    try:
        return spla.eigsh(op, k=k, which=which, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError("Lanczos iteration did not converge") from exc


def _certified_residuals(ctx: ScoreContext, vals: np.ndarray, vecs: np.ndarray,
                         lam_max: float) -> np.ndarray:
    """Residuals ||G v - lambda v|| of the columns v of ``vecs`` for G = B_hat^T
    B_hat, from one block apply of G on the context; raises unless every one
    is at most ``EIG_RESIDUAL_RTOL * lambda_1``."""
    residuals = np.linalg.norm(ctx._apply_info_hat(vecs) - vecs * vals, axis=0)
    if not np.all(residuals <= EIG_RESIDUAL_RTOL * max(lam_max, 1e-300)):
        raise RuntimeError(
            f"eigenpair residuals up to {residuals.max():.3e} exceed the "
            f"tolerance {EIG_RESIDUAL_RTOL:.1e} * lambda_1 = {lam_max:.3e}")
    return residuals


def _inverse_lanczos(apply_inverse, m: int, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Bottom eigenpairs of a positive operator on R^m, largest first, by Lanczos on its
    inverse: ``KERNEL_SEARCH_MODES`` pairs, doubled until one lies above ``cutoff``."""
    k = KERNEL_SEARCH_MODES
    while True:
        k = min(k, m - 1)
        mu, vecs = _lanczos(apply_inverse, m, k, "LA")
        if 1.0 / mu[0] > cutoff:
            return 1.0 / mu, vecs
        if k == m - 1:
            raise RuntimeError(f"kernel search found {k} kernel pairs and no end")
        k *= 2


def kernel_decomposition(ctx: ScoreContext) -> SpectralDecomposition:
    """The bottom of the information spectrum: every kernel pair, plus at
    least one pair above the kernel tolerance, largest eigenvalue first.

    Lanczos runs on the inverse of G = B_hat^T B_hat, which the context
    applies through its sparse LU of T^T (``_apply_info_hat_inverse``), so no
    dense matrix is formed; it widens until a pair lies above ``kernel_tol``
    (set by an iterative lambda_1), which shows that the kernel set is
    complete.  One block apply of G certifies every pair,
    ||G v - lambda v|| <= ``EIG_RESIDUAL_RTOL * lambda_1``, and a failed
    certificate raises RuntimeError; taken against the forward G, it holds
    for every pair however the LU of T^T is conditioned.
    """
    top = eigendecompose(ctx, 1)
    lam_max, kernel_tol = float(top.eigenvalues[0]), top.kernel_tol
    vals, vecs = _inverse_lanczos(ctx._apply_info_hat_inverse, ctx.grid.n_interior, kernel_tol)
    residuals = _certified_residuals(ctx, vals, vecs, lam_max)
    s = np.sqrt(ctx.grid.weights_interior)
    return SpectralDecomposition(ctx=ctx, eigenvalues=vals,
                                 modes=np.ascontiguousarray(vecs / s[:, None]),
                                 kernel_tol=kernel_tol, mode="inverse",
                                 complete=False, residuals=residuals)


def _null_space(a) -> tuple[np.ndarray, float, float]:
    """Orthonormal basis of the kernel of a square sparse A, its largest residual
    ||A v||_2 / ||A||_1 and the gap: the residual of the first pair outside it.

    Lanczos on (A^T A + delta I)^{-1}, delta = 1e-10 ||A^T A||_1, through one
    symmetric-mode splu, widens as :func:`kernel_decomposition`'s does; pairs up
    to delta + (``NULL_SPACE_RTOL`` ||A||_1)^2 are kernel.  Unless every kernel
    residual is at most ``NULL_SPACE_RTOL`` and the gap above it, RuntimeError."""
    gram, m, scale = (a.T @ a).tocsc(), a.shape[0], spla.norm(a, 1)
    delta = 1e-10 * spla.norm(gram, 1)
    cutoff = delta + (NULL_SPACE_RTOL * scale) ** 2
    lu = spla.splu(gram + delta * sp.identity(m, format="csc"), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0, options={"SymmetricMode": True})
    vals, vecs = _inverse_lanczos(lu.solve, m, cutoff)
    residuals = np.linalg.norm(a @ vecs, axis=0) / scale
    outside = int(np.count_nonzero(vals > cutoff))  # largest eigenvalue first
    inside, gap = residuals[outside:].max(initial=0.0), residuals[outside - 1]
    if not inside <= NULL_SPACE_RTOL < gap:
        raise RuntimeError(f"kernel not certified: residuals up to {inside:.1e} inside, "
                           f"{gap:.1e} outside, cutoff NULL_SPACE_RTOL = {NULL_SPACE_RTOL:.1e}")
    return vecs[:, outside:], float(inside), float(gap)


def range_series(decomp: SpectralDecomposition,
                 psi: ScalarField) -> tuple[np.ndarray, float]:
    """Partial sums M_N = sum_{k<=N} lambda_k^{-1} <e_k, psi>^2 over the
    non-kernel modes, plus the norm of the kernel component of psi.

    A bounded tail of M_N is the discrete signature of psi lying in the
    range of the adjoint; unbounded growth under refinement signals a
    divergent inverse Fisher form.
    """
    keep = ~decomp.kernel_mask
    c = decomp.coefficients(psi)
    terms = c[keep] ** 2 / decomp.eigenvalues[keep]
    p0_norm = math.sqrt(max(float(np.sum(c[decomp.kernel_mask] ** 2)), 0.0))
    return np.cumsum(terms), p0_norm


def _degeneracy_terms(decomp: SpectralDecomposition, psi: ScalarField,
                      orders: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairings <psi, h_N>, image norms ||I h_N||^2 and quotients
    ||I h_N||^2 / <psi, h_N>^2 for each of ``orders``, from one product for
    every h_N and one block apply of I.  h_N is the truncated inverse image
    sum_{k<=N} lambda_k^{-1} <e_k, psi> e_k with the boundary collar zeroed,
    so h_N is an admissible perturbation; its quotient is the inverse of the
    Fisher lower-bound candidate it generates, and 1/M_N exactly on the
    collar-restricted decomposition, where the mask changes nothing."""
    keep = np.flatnonzero(~decomp.kernel_mask)
    if not orders.size:
        raise ConfigError("orders must be non-empty")
    outside = (orders < 1) | (orders > len(keep))
    if np.any(outside):
        raise ConfigError(f"orders must lie in 1..{len(keep)}, got {orders[outside][0]}")
    idx = keep[:orders.max()]
    c = decomp.coefficients(psi)[idx] / decomp.eigenvalues[idx]
    ladder = c[:, None] * (np.arange(idx.size)[:, None] < orders)
    grid = decomp.grid
    h = grid.interior_field(decomp.modes[:, idx] @ ladder)
    h.values[grid.collar_mask] = 0.0
    pairing = inner_l2(psi, h)
    info_norm_sq = norm_l2(grid.interior_field(decomp.ctx._apply_B(grid.restrict(h)))) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(pairing != 0.0, info_norm_sq / pairing ** 2, math.inf)
    return pairing, info_norm_sq, quotient


@dataclass
class DegeneracyProfile:
    """Degeneracy quotients along a ladder of truncation orders."""

    orders: np.ndarray
    fisher_partial: np.ndarray      # M_N
    pairing: np.ndarray             # <psi, h_N>
    info_norm_sq: np.ndarray        # ||I h_N||^2
    quotient: np.ndarray            # info_norm_sq / pairing^2
    product: np.ndarray             # quotient * M_N (bounded for honest h_N)
    mask_correction: np.ndarray     # relative pairing shift caused by masking


def degeneracy_profile(decomp: SpectralDecomposition, psi: ScalarField,
                       orders=None) -> DegeneracyProfile:
    series, _ = range_series(decomp, psi)
    n_avail = len(series)
    if orders is None:
        orders = np.unique(np.geomspace(1, n_avail, num=min(24, n_avail)).round().astype(int))
    else:
        orders = np.asarray(sorted(set(int(v) for v in orders)))
    pairing, info_norm_sq, quotient = _degeneracy_terms(decomp, psi, orders)
    m_n = series[orders - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = np.abs(pairing - m_n) / np.where(m_n > 0, m_n, 1.0)
    return DegeneracyProfile(orders=orders, fisher_partial=m_n, pairing=pairing,
                             info_norm_sq=info_norm_sq, quotient=quotient,
                             product=quotient * m_n, mask_correction=correction)


@dataclass
class FisherReport:
    """Inverse Fisher quadratic form for one functional on one grid.

    ``method`` is ``direct_solve`` for the certified sparse solve; where T is
    singular (:func:`singular_grid_fisher`), ``kernel_mass`` when psi has
    certified mass on ker T (i_psi = 0, ``i_inverse_full`` inf), else
    ``bordered_solve``.  ``rel_error`` is the relative change of the transport
    solution y in the direct solve's last refinement step, certified with y's
    backward error by the score context; None off the direct solve.
    """

    method: str
    i_inverse_full: float
    i_value: float
    rel_error: float | None = None


def fisher_information(ctx: ScoreContext, psi: ScalarField) -> FisherReport:
    """Evaluate the inverse Fisher quadratic form psi -> psi^T (I*I)^{-1} psi.

    The score context solves and certifies the discrete transport equation
    T^T y = W psi (``ScoreContext.solve_transport_equation``, which raises
    ``LinAlgError`` for a singular T, the case of :func:`singular_grid_fisher`);
    as I = -K^{-1} W T, the form is ||W^{-1/2} K W^{-1} y||^2, from the context's
    factor K W^{-1} of G^{-1}.  ``rel_error`` is the solve's last relative refinement
    change of y.  A single grid never certifies divergence; that is the job of
    :func:`fisher_refinement`.
    """
    require_finite(psi.values, "psi")
    psi_int, w = ctx.grid.restrict(psi), ctx.grid.weights_interior
    if not np.any(psi_int):
        raise ConfigError("psi vanishes identically: Fisher functional undefined")
    y, rel_error = ctx.solve_transport_equation(w * psi_int)
    x = ctx._k_w_inverse(y) / np.sqrt(w)
    i_inverse = float(x @ x)
    return FisherReport(method="direct_solve", i_inverse_full=i_inverse, rel_error=rel_error,
                        i_value=1.0 / i_inverse if i_inverse > 0 else math.inf)


def singular_grid_fisher(ctx: ScoreContext, psi: ScalarField) -> tuple[FisherReport, tuple]:
    """The Fisher report where T is singular, with psi's mass fraction on ker T,
    its dimension and the largest residual of :func:`_null_space`'s bases V0 of
    ker T and U0 of ker T^T.  psi's weighted mass on ker T (``kernel_mass_fraction``'s,
    through a QR of W^{1/2} V0) above ``KERNEL_TOL_FACTOR`` makes i_psi = 0.  Else
    [[T^T, V0], [U0^T, 0]] [y0; mu] = [W psi; 0], certified by its backward error and
    mu ~ 0 (else RuntimeError), solves T^T y = W psi, and the form is the least
    ||W^{-1/2} K W^{-1} y||^2 over y0 + ker T^T: psi^T G^+ psi."""
    grid, T = ctx.grid, ctx.T
    (v0, res_v, _), (u0, res_u, _) = _null_space(T), _null_space(T.T.tocsr())
    if not 0 < (n := v0.shape[1]) == u0.shape[1]:
        raise RuntimeError(f"T^T y = W psi failed, but ker T and ker T^T have {n} and "
                           f"{u0.shape[1]} certified vectors")
    w, psi_int = grid.weights_interior, grid.restrict(psi)
    s = np.sqrt(w)
    coefficients = np.linalg.qr(s[:, None] * v0)[0].T @ (s * psi_int)
    kernel = (float(coefficients @ coefficients) / norm_l2(psi) ** 2, n, max(res_v, res_u))
    if kernel[0] > KERNEL_TOL_FACTOR:
        return FisherReport("kernel_mass", math.inf, 0.0), kernel
    rhs = np.concatenate([w * psi_int, np.zeros(n)])
    a = sp.bmat([[T.T, sp.csc_matrix(v0)], [sp.csc_matrix(u0.T), None]], format="csc")
    x = spla.splu(a).solve(rhs)
    error = elliptic.backward_error(rhs - a @ x, abs(a).sum(axis=1).max(), x, np.abs(rhs).max())
    border = float(np.linalg.norm(x[-n:]) / np.linalg.norm(rhs))
    if not (error <= elliptic.BACKWARD_ERROR_RTOL and border ** 2 <= KERNEL_TOL_FACTOR):
        raise RuntimeError(f"bordered transport solve not certified (backward error "
                           f"{error:.1e}, border {border:.1e})")
    z, zu = ctx._k_w_inverse(x[:-n]) / s, ctx._k_w_inverse(u0) / s[:, None]
    z -= zu @ np.linalg.lstsq(zu, z, rcond=None)[0]
    i_inverse = float(z @ z)
    return FisherReport("bordered_solve", i_inverse, 1.0 / i_inverse), kernel


def _grid_fisher(ctx: ScoreContext, psi: ScalarField) -> tuple[FisherReport, tuple]:
    """A sweep grid's report and kernel diagnostics: :func:`singular_grid_fisher`'s where T is
    singular, else from :func:`kernel_decomposition` up to ``KERNEL_SWEEP_MAX_DIM`` unknowns."""
    try:
        report = fisher_information(ctx, psi)
    except np.linalg.LinAlgError:
        return singular_grid_fisher(ctx, psi)
    if ctx.grid.n_interior > KERNEL_SWEEP_MAX_DIM:
        return report, (None, None, None)
    d = kernel_decomposition(ctx)
    return report, (d.kernel_mass_fraction(psi), d.n_kernel,
                    float(d.residuals.max()) * KERNEL_TOL_FACTOR / d.kernel_tol)


@dataclass
class RefinementSweep:
    """Inverse Fisher values across a family of grids, with classification."""

    fixture: str
    psi_kind: str
    resolutions: tuple
    interior_dims: tuple
    values: np.ndarray
    growth: float | None            # coarsest-to-finest ratio
    variation: float | None         # max/min - 1
    kernel_fractions: list
    kernel_counts: list             # kernel pairs found on each grid
    kernel_residuals: list          # largest kernel residual: / lambda_1, or ||T v|| / ||T||_1
    verdict: str
    verdict_reason: str             # the rule that decided the verdict
    order: float | None             # observed order p of the three finest values
    richardson_limit: float | None  # extrapolated value, when p > 0
    lower_bounds: tuple = ()        # all False: every value is exact
    reports: list = field(default_factory=list)


def _observed_order(h, values) -> tuple[float | None, float | None]:
    """Order p and limit of v(h) = v_inf + C h^p through the three finest
    (h, value) pairs; (None, None) unless both differences share one sign.
    The mesh ratios need not be equal: p solves (h2^p - h3^p) / (h1^p - h2^p)
    = (v3 - v2) / (v2 - v1), whose left side falls as p grows, by bisection."""
    (h1, h2, h3), (v1, v2, v3) = h[-3:], values[-3:]
    if v2 == v1 or (v3 - v2) / (v2 - v1) <= 0.0:
        return None, None
    log_a, log_b = math.log(h1 / h2), math.log(h2 / h3)
    lo, hi = -30.0, 30.0
    for _ in range(100):
        p = 0.5 * (lo + hi)
        ratio = (log_b / log_a if p == 0.0
                 else -math.expm1(-p * log_b) / math.expm1(p * log_a))
        lo, hi = (p, hi) if ratio > (v3 - v2) / (v2 - v1) else (lo, p)
    return p, (float(v3 + (v3 - v2) / math.expm1(p * log_b)) if p > 0.0 else None)


def fisher_refinement(fixture: str, psi_kind: str,
                      resolutions=(17, 25, 33), theta_bump=None,
                      psi_params: dict | None = None) -> RefinementSweep:
    """Classify a functional by sweeping the inverse Fisher form over grids.

    A grid where T is invertible reports a finite inverse form, so divergence
    is read off the refinement trend and stability needs a convergence
    certificate: growth on every pair (``DIVERGENCE_GROWTH`` in total) marks
    ``out_of_range_divergent``, and differences of one sign between the three
    finest grids that shrink at an observed order p >= 1 ``in_range``;
    anything else, such as values that change direction between grids, is
    ``undetermined``.  ``verdict_reason`` names the deciding rule.

    Where T is singular, :func:`singular_grid_fisher` gives exact values or
    certified kernel mass of psi (i_psi = 0): on every grid the sweep is
    ``kernel_obstructed``, on some ``undetermined``, with growth, variation,
    order and limit None.  So ``lower_bounds`` is all False.  The near-kernel
    fraction of :func:`kernel_decomposition` on the other grids is reported
    but decides nothing (:func:`_grid_fisher`).
    """
    from ellinfo.fixtures import build_context, psi_fixture

    if len(resolutions) < 3:
        raise ConfigError("refinement sweeps need at least three grids")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ConfigError("refinement sweeps need strictly increasing resolutions")
    rows = []
    for n in resolutions:
        ctx = build_context(fixture, n, theta_bump=theta_bump)
        report, kernel = _grid_fisher(ctx, psi_fixture(ctx, psi_kind, **(psi_params or {})))
        rows.append((ctx.grid.n_interior, ctx.grid.h_mesh, report, *kernel))
    dims, h_mesh, reports, fractions, counts, residuals = map(list, zip(*rows))
    values = np.array([report.i_inverse_full for report in reports])
    growth = variation = order = limit = None
    if np.any(np.isinf(values)):
        verdict, reason = (("kernel_obstructed", "kernel_mass") if np.all(np.isinf(values))
                           else ("undetermined", "kernel_mass_on_some_grids"))
    else:
        growth = float(values[-1] / values[0])
        variation = float(values.max() / values.min() - 1.0)
        order, limit = _observed_order(h_mesh, values)
        if growth >= DIVERGENCE_GROWTH and np.all(np.diff(values) > 0.0):
            verdict, reason = "out_of_range_divergent", "growth_on_every_pair"
        else:
            reason = ("non_monotone" if order is None
                      else "order_below_1" if order < MIN_CONVERGENCE_ORDER else "converged")
            verdict = "in_range" if reason == "converged" else "undetermined"
    return RefinementSweep(
        fixture=fixture, psi_kind=psi_kind, resolutions=tuple(resolutions),
        interior_dims=tuple(dims), values=values, growth=growth, variation=variation,
        kernel_fractions=fractions, kernel_counts=counts, kernel_residuals=residuals,
        verdict=verdict, verdict_reason=reason, order=order, richardson_limit=limit,
        lower_bounds=(False,) * len(reports), reports=reports)
