"""Spectral analysis of the information operator and Fisher functionals.

The linearization I acts on interior perturbations; the information operator
I*I is symmetric and positive semidefinite for the weighted discrete inner
product.  This module eigendecomposes it, evaluates the inverse Fisher
quadratic form psi^T (I*I)^{-1} psi by a certified sparse solve of the
discrete transport equation T^T y = W psi, and builds the degeneracy
sequences h_N whose normalized quotients certify vanishing information.
Divergence verdicts are never issued from a single grid: `fisher_refinement`
sweeps a family of meshes and classifies the growth of the inverse quadratic
form, falling back to a spectral lower bound on grids where T is singular to
working precision.

`eigendecompose` picks its solver from the request: the full spectrum is
dense, and a few top pairs come from certified Lanczos.  Dense spectra serve
only degeneracy ladders, the default `spectrum` command (eigenvalues alone,
`dense_eigenvalues`) and singular grids; the
risk study and `spectrum --n-modes` take their top pairs from Lanczos.  A
sweep's kernel diagnostics on certified grids come from Lanczos on the
inverse (`kernel_decomposition`).  The score context applies the operator
G = B_hat^T B_hat and its inverse to vectors or blocks; every residual
certificate is one block apply of G, and a ladder one block apply of I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import eigh
from scipy.linalg.blas import dsyrk

from ellinfo.grids import Grid, ScalarField, inner_l2, norm_l2
from ellinfo.score import TRANSPORT_SOLVE_RTOL, ScoreContext

#: Eigenvalues below this multiple of the top eigenvalue count as kernel.
KERNEL_TOL_FACTOR = 1e-8

#: Residual tolerance (relative to lambda_1) for iterative eigenpairs.
EIG_RESIDUAL_RTOL = 1e-8

#: Refinement-sweep classification thresholds: total growth of the inverse
#: quadratic form marking divergence, the kernel mass fraction marking
#: obstruction, and the observed convergence order marking in-range.
DIVERGENCE_GROWTH = 2.0
KERNEL_FRACTION_THRESHOLD = 0.5
MIN_CONVERGENCE_ORDER = 1.0

#: Largest interior dimension for which the refinement sweep computes kernel
#: diagnostics.  It bounds the cost of widening the sparse kernel search,
#: which grows with the kernel: 0.5 s at disk 28 (82 kernel modes) and 3.1 s
#: at disk 40 (220 modes) on a 2-core x86 VM with one BLAS thread.
KERNEL_SWEEP_MAX_DIM = 1500

#: Pair count of the first sparse kernel search; it doubles until complete.
KERNEL_SEARCH_MODES = 16

#: Floor applied to computed eigenvalues, as a multiple of lambda_1, when a
#: singular direct solve is replaced by a certified lower bound: symmetric
#: eigensolvers are backward stable, so true eigenvalues cannot exceed the
#: computed ones by more than a small multiple of eps * lambda_1.
EIG_FLOOR_FACTOR = 10.0 * float(np.finfo(float).eps)


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
            raise ValueError("psi vanishes identically")
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
        raise ValueError("subspace must be 'interior' or 'collar_supported'")
    if n_modes is not None and n_modes < 1:
        raise ValueError(f"n_modes must be positive, got {n_modes}")
    if subspace == "collar_supported" and n_modes is not None:
        raise ValueError("the collar-restricted decomposition takes the full spectrum only")
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


def kernel_decomposition(ctx: ScoreContext) -> SpectralDecomposition:
    """The bottom of the information spectrum: every kernel pair, plus at
    least one pair above the kernel tolerance, largest eigenvalue first.

    Lanczos runs on the inverse of G = B_hat^T B_hat, which the context
    applies through its sparse LU of T^T (``_apply_info_hat_inverse``), so no
    dense matrix is formed.  lambda_1 comes from an iterative top pair and
    sets ``kernel_tol``.  The pair count starts at ``KERNEL_SEARCH_MODES`` and
    doubles until a returned pair lies above ``kernel_tol``, which shows that
    the kernel set is complete.  One block apply of G certifies every pair,
    ||G v - lambda v|| <= ``EIG_RESIDUAL_RTOL * lambda_1``, and a failed
    certificate raises RuntimeError.  The LU is trustworthy only where T is
    certified nonsingular, as after a successful :func:`fisher_information`.
    """
    m = ctx.grid.n_interior
    top = eigendecompose(ctx, 1)
    lam_max, kernel_tol = float(top.eigenvalues[0]), top.kernel_tol
    k = KERNEL_SEARCH_MODES
    while True:
        k = min(k, m - 1)
        mu, vecs = _lanczos(ctx._apply_info_hat_inverse, m, k, "LA")
        vals = 1.0 / mu
        if vals[0] > kernel_tol:
            break
        if k == m - 1:
            raise RuntimeError(f"kernel search found {k} kernel pairs and no end")
        k *= 2
    residuals = _certified_residuals(ctx, vals, vecs, lam_max)
    s = np.sqrt(ctx.grid.weights_interior)
    return SpectralDecomposition(ctx=ctx, eigenvalues=vals,
                                 modes=np.ascontiguousarray(vecs / s[:, None]),
                                 kernel_tol=kernel_tol, mode="inverse",
                                 complete=False, residuals=residuals)


def sqrt_apply(decomp: SpectralDecomposition, h: ScalarField) -> ScalarField:
    """Spectral square root: sum_k lambda_k^{1/2} <h, e_k> e_k."""
    c = decomp.coefficients(h)
    vals = decomp.modes @ (np.sqrt(np.clip(decomp.eigenvalues, 0.0, None)) * c)
    return decomp.grid.interior_field(vals)


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


def _degeneracy_terms(decomp: SpectralDecomposition, psi: ScalarField, orders: np.ndarray,
                      masked: bool) -> tuple[ScalarField, np.ndarray, np.ndarray, np.ndarray]:
    """h_N for each of ``orders`` as one stack, with the pairings <psi, h_N>,
    image norms ||I h_N||^2 and quotients (:func:`degeneracy_sequence`), from
    one product for every h_N and one block apply of I."""
    keep = np.flatnonzero(~decomp.kernel_mask)
    outside = (orders < 1) | (orders > len(keep))
    if np.any(outside):
        raise ValueError(f"order {orders[outside][0]} outside 1..{len(keep)}")
    idx = keep[:orders.max()]
    c = decomp.coefficients(psi)[idx] / decomp.eigenvalues[idx]
    ladder = c[:, None] * (np.arange(idx.size)[:, None] < orders)
    grid = decomp.grid
    h = grid.interior_field(decomp.modes[:, idx] @ ladder)
    if masked:
        h.values[grid.collar_mask] = 0.0
    pairing = inner_l2(psi, h)
    info_norm_sq = norm_l2(grid.interior_field(decomp.ctx._apply_B(grid.restrict(h)))) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.where(pairing != 0.0, info_norm_sq / pairing ** 2, math.inf)
    return h, pairing, info_norm_sq, quotient


def degeneracy_sequence(decomp: SpectralDecomposition, psi: ScalarField,
                        n: int, masked: bool = True) -> tuple[ScalarField, float]:
    """Degeneracy direction h_N and its normalized quotient.

    h_N is the truncated inverse image sum_{k<=N} lambda_k^{-1} <e_k,psi> e_k,
    with the boundary collar zeroed out when ``masked`` (so h_N is admissible
    as a conductivity perturbation).  The quotient ||I h_N||^2 / <psi, h_N>^2
    is the inverse of the Fisher lower-bound candidate generated by h_N; for
    the unmasked sequence it equals 1/M_N exactly by spectral algebra.
    """
    h, _, _, quotient = _degeneracy_terms(decomp, psi, np.array([n]), masked)
    return ScalarField(h.grid, h.values[:, 0]), float(quotient[0])


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
                       orders=None, masked: bool = True) -> DegeneracyProfile:
    series, _ = range_series(decomp, psi)
    n_avail = len(series)
    if orders is None:
        orders = np.unique(np.geomspace(1, n_avail, num=min(24, n_avail)).round().astype(int))
    else:
        orders = np.asarray(sorted(set(int(v) for v in orders)))
        if orders[0] < 1 or orders[-1] > n_avail:
            raise ValueError(f"orders must lie in 1..{n_avail}")
    _, pairing, info_norm_sq, quotient = _degeneracy_terms(decomp, psi, orders, masked)
    m_n = series[orders - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        correction = np.abs(pairing - m_n) / np.where(m_n > 0, m_n, 1.0)
    return DegeneracyProfile(orders=orders, fisher_partial=m_n, pairing=pairing,
                             info_norm_sq=info_norm_sq, quotient=quotient,
                             product=quotient * m_n, mask_correction=correction)


@dataclass
class FisherReport:
    """Inverse Fisher quadratic form for one functional on one grid.

    ``method`` is ``direct_solve`` for the certified sparse solve and
    ``spectral_truncation`` for the singular-grid fallback of
    :func:`fisher_refinement`, whose values are flagged ``lower_bound``: the
    true quadratic form is at least this large (kernel terms are evaluated
    at an eigenvalue floor).  ``rel_error`` is the relative change of a
    direct-solve value under one step of iterative refinement; it is None
    for lower bounds.
    """

    method: str
    i_inverse_full: float
    i_value: float
    lower_bound: bool = False
    rel_error: float | None = None


def fisher_information(ctx: ScoreContext, psi: ScalarField) -> FisherReport:
    """Evaluate the inverse Fisher quadratic form psi -> psi^T (I*I)^{-1} psi.

    Solves the discrete transport equation T^T y = W psi through
    ``ScoreContext.solve_transport_equation``; as I = -K^{-1} W T, the form
    is ||W^{-1/2} K W^{-1} y||^2.  A residual or a refinement change of the
    value (``rel_error``) above ``TRANSPORT_SOLVE_RTOL`` raises, which also
    catches a singular T on a consistent system.  A single grid never
    certifies divergence; that is the job of :func:`fisher_refinement`.
    """
    grid = ctx.grid
    psi_int = grid.restrict(psi)
    if not np.any(psi_int):
        raise ValueError("psi vanishes identically: Fisher functional undefined")
    w = grid.weights_interior
    y0, y, residual = ctx.solve_transport_equation(w * psi_int)
    x0, x = (ctx.op.K @ (v / w) / np.sqrt(w) for v in (y0, y))
    i_inverse = float(x @ x)
    rel_error = abs(i_inverse - float(x0 @ x0)) / i_inverse
    if not (residual <= TRANSPORT_SOLVE_RTOL and rel_error <= TRANSPORT_SOLVE_RTOL):
        raise np.linalg.LinAlgError(
            f"source operator T numerically singular (residual {residual:.1e}, "
            f"refinement change {rel_error:.1e})")
    i_value = 1.0 / i_inverse if i_inverse > 0 else math.inf
    return FisherReport(method="direct_solve", i_inverse_full=i_inverse,
                        i_value=i_value, rel_error=rel_error)


@dataclass
class RefinementSweep:
    """Inverse Fisher values across a family of grids, with classification."""

    fixture: str
    psi_kind: str
    resolutions: tuple
    interior_dims: tuple
    values: np.ndarray
    growth: float                   # coarsest-to-finest ratio
    variation: float                # max/min - 1
    kernel_fractions: list
    kernel_counts: list             # kernel pairs found on each grid
    kernel_residuals: list          # largest sparse-search residual / lambda_1
    verdict: str
    verdict_reason: str             # the rule that decided the verdict
    order: float | None             # observed order p of the three finest values
    richardson_limit: float | None  # extrapolated value, when p > 0
    lower_bounds: tuple = ()        # grids where the value is only a bound
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


def _singular_grid_bound(psi: ScalarField,
                         decomp: SpectralDecomposition) -> FisherReport:
    """Certified lower bound for the inverse quadratic form on a grid where
    the information matrix is singular to working precision.

    Non-kernel terms of the spectral series are reliable as computed; kernel
    terms are bounded from below by flooring their eigenvalues at
    ``EIG_FLOOR_FACTOR * lambda_1`` (backward-stability bound).
    """
    m_series, _ = range_series(decomp, psi)
    lam = decomp.eigenvalues
    floor = EIG_FLOOR_FACTOR * float(lam[0])
    mask = decomp.kernel_mask
    c = decomp.coefficients(psi)
    kernel_part = float(np.sum(c[mask] ** 2 / np.maximum(lam[mask], floor)))
    value = float(m_series[-1]) + kernel_part
    return FisherReport(method="spectral_truncation", i_inverse_full=value,
                        i_value=1.0 / value, lower_bound=True)


def fisher_refinement(fixture: str, psi_kind: str,
                      resolutions=(17, 25, 33), theta_bump=None,
                      psi_params: dict | None = None) -> RefinementSweep:
    """Classify a functional by sweeping the inverse Fisher form over grids.

    Any fixed grid reports a finite inverse form, so divergence is read off
    the refinement trend and stability needs a convergence certificate:
    dominant kernel mass marks ``kernel_obstructed``, growth on every pair
    (``DIVERGENCE_GROWTH`` in total) ``out_of_range_divergent``, and
    differences of one sign between the three finest grids that shrink at
    an observed order p >= 1 ``in_range``; anything else, such as values
    that change direction between grids, is ``undetermined``.
    ``verdict_reason`` names the deciding rule.

    Grids where the source operator T is singular to working precision fall
    back to a certified lower bound (flagged in ``lower_bounds``); it is
    dense, so past ``DENSE_OPERATOR_MAX_DIM`` such a grid raises instead, as
    the square bump does from 193.  A lower bound can still certify growth
    -- provided the coarsest value is exact -- but never convergence.

    Kernel diagnostics run on grids of at most ``KERNEL_SWEEP_MAX_DIM``
    interior unknowns.  Where the Fisher solve certified T, they come from
    :func:`kernel_decomposition` through the same LU; on a singular grid,
    from the dense decomposition that also gives the lower bound.
    """
    from ellinfo.fixtures import build_context, psi_fixture

    if len(resolutions) < 3:
        raise ValueError("refinement sweeps need at least three grids")
    if any(b <= a for a, b in zip(resolutions, resolutions[1:])):
        raise ValueError("refinement sweeps need strictly increasing resolutions")
    psi_params = psi_params or {}
    dims, h_mesh, fractions, counts, residuals, reports = ([] for _ in range(6))
    for n in resolutions:
        ctx = build_context(fixture, n, theta_bump=theta_bump)
        psi = psi_fixture(ctx, psi_kind, **psi_params)
        try:
            report = fisher_information(ctx, psi)
        except np.linalg.LinAlgError:
            decomp = eigendecompose(ctx)
            report = _singular_grid_bound(psi, decomp)
        else:
            decomp = (kernel_decomposition(ctx)
                      if ctx.grid.n_interior <= KERNEL_SWEEP_MAX_DIM else None)
        dims.append(ctx.grid.n_interior)
        h_mesh.append(ctx.grid.h_mesh)
        fractions.append(None if decomp is None else decomp.kernel_mass_fraction(psi))
        counts.append(None if decomp is None else decomp.n_kernel)
        residuals.append(None if decomp is None or decomp.residuals is None else
                         float(decomp.residuals.max()) * KERNEL_TOL_FACTOR / decomp.kernel_tol)
        reports.append(report)
    values = np.array([report.i_inverse_full for report in reports])
    bounds = tuple(report.lower_bound for report in reports)
    growth = float(values[-1] / values[0])
    variation = float(values.max() / values.min() - 1.0)
    order, limit = _observed_order(h_mesh, values)
    known_fractions = [fr for fr in fractions if fr is not None]
    if known_fractions and max(known_fractions) > KERNEL_FRACTION_THRESHOLD:
        verdict, reason = "kernel_obstructed", "kernel_mass"
    elif (growth >= DIVERGENCE_GROWTH and not bounds[0]
          and np.all(np.diff(values) > 0.0)):
        verdict, reason = "out_of_range_divergent", "growth_on_every_pair"
    else:
        reason = ("lower_bound" if any(bounds) else "non_monotone" if order is None
                  else "order_below_1" if order < MIN_CONVERGENCE_ORDER else "converged")
        verdict = "in_range" if reason == "converged" else "undetermined"
    return RefinementSweep(fixture=fixture, psi_kind=psi_kind,
                           resolutions=tuple(resolutions), interior_dims=tuple(dims),
                           values=values, growth=growth, variation=variation,
                           kernel_fractions=fractions, kernel_counts=counts,
                           kernel_residuals=residuals, verdict=verdict,
                           verdict_reason=reason, order=order,
                           richardson_limit=limit, lower_bounds=bounds,
                           reports=reports)
