"""Score operator machinery around a base conductivity.

For the regression model Y = u_theta(X) + noise, the score in direction h is
(y - u_theta(x)) * Ih(x), where the linearization I maps a conductivity
perturbation h to -V[div(h grad u_theta)] and V is the zero-boundary inverse
of the base operator.  This module builds everything that depends only on the
base point: the solution u_theta, its gradient, the sparse source operator
T(h) = div(h grad u_theta), and the three linear maps

* ``apply_linearization``   I h         = -V[T h]
* ``apply_adjoint``         I* g        = grad u_theta . grad V[g]   (gradient formula)
* ``apply_adjoint_exact``   exact transpose of I in the weighted inner product
* ``apply_information``     I* I h using the exact transpose, so the quadratic
  form equals ||I h||^2 to rounding and the dense matrix is symmetric PSD.

The gradient-formula adjoint and the exact transpose are two discretizations
of the same operator; their gap is a first-order mesh quantity and is measured
by the adjoint-consistency diagnostics rather than hidden.

The context owns the information operator: in h_hat = S h, S = W^{1/2}, it is
G = B_hat^T B_hat with B_hat = S I S^{-1} (``dense_linearization_hat``, column blocks, uncached).
``_apply_info_hat`` applies G and, where T is nonsingular,
``_apply_info_hat_inverse`` applies G^{-1} = S T^{-1} W^{-1} K W^{-1} K W^{-1}
T^{-T} S through the one LU of T^T, which alone solves T^T y = W psi, certified by its
backward error as K's solves are (``solve_transport_equation``); raw maps take blocks too.

T is filled once as a sparse matrix in h on the grid's face pattern
(``Grid.faces``), the pattern of the elliptic operator K.  Faces between two
interior nodes average h; faces touching the boundary extrapolate h linearly
from the two nearest interior nodes, which keeps constants exactly in the
kernel of h -> T(h) when the base solution is discretely harmonic.

The assembly identity K(theta + s h) = K(theta) + s K(h), the same for C,
drives the Gateaux remainders and the LAN study: ``solve_difference`` solves
(K + s K(h)) d = s (C(h) g - K(h) u_theta) for d = u_{theta + s h} - u_theta in
the operator's PCG loop.  The other checks solve blocks of ``BLOCK_COLUMNS``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ellinfo import elliptic
from ellinfo.elliptic import Conductivity, DivergenceFormOperator, assemble, check_identifiability
from ellinfo.grids import (
    Grid,
    ScalarField,
    VectorField,
    inner_l2,
    norm_l2,
    random_smooth_field,
    sobolev_norm,
)

DENSE_OPERATOR_MAX_DIM = 4100

#: Bound on the relative refinement change of a transport solve, and its step cap.
TRANSPORT_SOLVE_RTOL = 1e-6
TRANSPORT_REFINEMENT_STEPS = 3

#: Fields per block of the batched checks, bounding their temporaries; even.
BLOCK_COLUMNS = 16


def _per_row(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d shaped to scale the rows of x, a vector or an (m, k) block."""
    return d if x.ndim == 1 else d[:, None]


def _collar_violation(grid: Grid, values: np.ndarray) -> bool:
    collar = values[grid.collar_mask]
    if collar.size == 0:
        return False
    scale = np.max(np.abs(values))
    return scale > 0 and np.max(np.abs(collar)) > 1e-12 * scale


class ScoreContext:
    """Base point for the linearized theory: theta, u_theta, and operators."""

    def __init__(self, theta: Conductivity, f, g=None):
        self.grid = theta.grid
        self.theta = theta
        self.f = f if isinstance(f, ScalarField) else self.grid.field(f)
        self.g = g if (g is None or isinstance(g, ScalarField)) else self.grid.field(g)
        self.op = DivergenceFormOperator(theta)
        self.u = self.op.solve(self.f, self.g)
        gx, gy = self.grid.gradient(self.u.values)
        self.grad_u = VectorField(self.grid, gx, gy)
        self.T = self._assemble_source_operator()
        self._transport_lu = None

    # -- assembly ----------------------------------------------------------

    def _assemble_source_operator(self) -> sp.csr_matrix:
        fs, u = self.grid.faces, self.u.values
        q = fs.geom * (u[fs.nb] - u[fs.center])
        inner, bnd = ~fs.nb_is_boundary, fs.nb_is_boundary
        # h averaged onto interior faces: half weight on each side; on
        # boundary faces h_b = 2 h_center - h_inward, so the face value
        # (h_center + h_b)/2 becomes (3 h_center - h_inward)/2: q more on
        # the diagonal and -q/2 at the inward slot
        return fs.fill((fs.diag, 0.5 * q), (fs.off[inner], 0.5 * q[inner]),
                       (fs.diag[bnd], q[bnd]), (fs.off[bnd], -0.5 * q[bnd]))

    def transport_lu(self) -> spla.SuperLU:
        """The context's one sparse LU of T^T, factored on first use;
        ``solve(b, trans="T")`` applies T^{-1}."""
        if self._transport_lu is None:
            self._transport_lu = spla.splu(self.T.T.tocsc())
        return self._transport_lu

    def solve_transport_equation(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """y of T^T y = rhs by :meth:`transport_lu`, refined (Skeel 1980) until a
        step changes y by at most ``TRANSPORT_SOLVE_RTOL`` relative, in at most
        ``TRANSPORT_REFINEMENT_STEPS`` steps, and that last change.  A normwise
        backward error (``elliptic.backward_error``) above ``BACKWARD_ERROR_RTOL``,
        or a last change above ``TRANSPORT_SOLVE_RTOL``, which alone exposes a
        singular T, raises ``LinAlgError``.  rhs = 0 gives (0, 0.0)."""
        if not np.any(rhs):
            return np.zeros_like(rhs), 0.0
        lu, Tt = self.transport_lu(), self.T.T
        y = lu.solve(rhs)
        for steps in range(1, TRANSPORT_REFINEMENT_STEPS + 1):
            y = y + (dy := lu.solve(rhs - Tt @ y))
            if (change := float(np.linalg.norm(dy) / np.linalg.norm(y))) <= TRANSPORT_SOLVE_RTOL:
                break
        t_norm = np.bincount(self.T.indices, np.abs(self.T.data)).max()  # ||T^T||_inf, T CSR
        error = elliptic.backward_error(rhs - Tt @ y, t_norm, y, np.abs(rhs).max())
        if not (error <= elliptic.BACKWARD_ERROR_RTOL and change <= TRANSPORT_SOLVE_RTOL):
            raise np.linalg.LinAlgError(
                f"source operator T numerically singular (backward error {error:.1e}, change "
                f"{change:.1e} after {steps} refinement steps); no unique transport solution")
        return y, change

    def _k_w_inverse(self, v: np.ndarray) -> np.ndarray:
        """K W^{-1} v, v a vector or a block: twice in G^{-1}, once in the Fisher form."""
        return self.op.K @ (v / _per_row(self.grid.weights_interior, v))

    # -- raw interior-vector maps (hot paths) ------------------------------

    def _apply_B(self, h_int: np.ndarray) -> np.ndarray:
        """I h on interior vectors: -V[T h]."""
        return -self.op.apply_inverse_interior(self.T @ h_int)

    def _apply_B_adjoint(self, g_int: np.ndarray) -> np.ndarray:
        """Exact transpose of _apply_B for the weighted inner product."""
        w = _per_row(self.grid.weights_interior, g_int)
        v = self.op.apply_inverse_interior(g_int)
        return -(self.T.T @ (w * v)) / w

    def _apply_info(self, h_int: np.ndarray) -> np.ndarray:
        return self._apply_B_adjoint(self._apply_B(h_int))

    def _apply_info_hat(self, x_hat: np.ndarray) -> np.ndarray:
        s = _per_row(np.sqrt(self.grid.weights_interior), x_hat)
        return s * self._apply_info(x_hat / s)

    def _apply_info_hat_inverse(self, x_hat: np.ndarray) -> np.ndarray:
        """G^-1 x_hat (module docstring); trustworthy only where T is certified nonsingular."""
        w = _per_row(self.grid.weights_interior, x_hat)
        s, lu = np.sqrt(w), self.transport_lu()
        z = self._k_w_inverse(self._k_w_inverse(lu.solve(s * x_hat)))
        return s * lu.solve(z / w, trans="T")

    # -- public field-level API --------------------------------------------

    def perturbation_source(self, h: ScalarField) -> ScalarField:
        """T(h) = div(h grad u_theta) as an interior nodal field."""
        return self.grid.interior_field(self.T @ self.grid.restrict(h))

    def apply_linearization(self, h: ScalarField) -> ScalarField:
        """I h = -V[div(h grad u_theta)].

        h should vanish on the boundary collar; other fields are accepted for
        closure studies but flagged with a warning.
        """
        if _collar_violation(self.grid, h.values):
            warnings.warn(
                "perturbation is not supported away from the boundary collar; "
                "applying the linearization anyway",
                RuntimeWarning,
                stacklevel=2,
            )
        return self.grid.interior_field(self._apply_B(self.grid.restrict(h)))

    def apply_adjoint(self, g: ScalarField) -> ScalarField:
        """I* g = grad u_theta . grad V[g] (gradient formula, zero trace); stacks too."""
        v = self.grid.interior_field(self.op.apply_inverse_interior(self.grid.restrict(g)))
        gx, gy = self.grid.gradient(v.values)
        vals = (self.grad_u.vx * gx.T + self.grad_u.vy * gy.T).T
        vals[self.grid.boundary_ids] = 0.0
        return ScalarField(self.grid, vals)

    def apply_adjoint_exact(self, g: ScalarField) -> ScalarField:
        """Exact discrete transpose of the linearization; stacks too."""
        return self.grid.interior_field(self._apply_B_adjoint(self.grid.restrict(g)))

    def apply_information(self, h: ScalarField) -> ScalarField:
        """Information operator I* I h (exact-transpose composition); stacks too."""
        return self.grid.interior_field(self._apply_info(self.grid.restrict(h)))

    # -- dense symmetrized linearization -----------------------------------

    def dense_linearization_hat(self) -> np.ndarray:
        """Dense matrix of I in coordinates orthonormalizing the weighted
        inner product (h_hat = sqrt(w) h).  In these coordinates the
        information operator is the plain symmetric PSD matrix B^T B.  Each call
        fills a new array, one solve per ``BLOCK_COLUMNS`` columns, kept nowhere."""
        m = self.grid.n_interior
        if m > DENSE_OPERATOR_MAX_DIM:
            raise RuntimeError(f"dense linearization refused: interior dimension {m} "
                               f"exceeds DENSE_OPERATOR_MAX_DIM = {DENSE_OPERATOR_MAX_DIM}")
        w, T, bhat = self.grid.weights_interior, self.T.tocsc(), np.empty((m, m))
        for j in range(0, m, BLOCK_COLUMNS):
            cols = slice(j, j + BLOCK_COLUMNS)
            bhat[:, cols] = self.op._solve_spd(w[:, None] * T[:, cols].toarray())
        bhat *= np.sqrt(w)[:, None]
        bhat /= np.sqrt(w)
        return bhat

    def solve_difference(self, h: ScalarField, s: float) -> np.ndarray:
        """d = u_{theta + s h} - u_theta, interior, by one certified solve (module docstring)."""
        K_h, C_h = assemble(self.grid, h.values)
        src = C_h @ self.u.values[self.grid.boundary_ids] - K_h @ self.grid.restrict(self.u)
        return self.op._pcg(self.op.K + s * K_h, s * src, f"Gateaux solve at s = {s:g}")


# -- verification-style diagnostics ---------------------------------------


def adjoint_defects(ctx: ScoreContext, n_pairs: int = 100, seed: int = 0) -> np.ndarray:
    """Defects |<I h, g> - <h, I* g>| / (||h|| ||g||) of the gradient-formula
    adjoint over random pairs without the collar, drawn h, g, h, g, ...
    from one generator."""
    rng, defects = np.random.default_rng(seed), []
    for i in range(0, 2 * n_pairs, BLOCK_COLUMNS):
        size = min(BLOCK_COLUMNS, 2 * n_pairs - i)
        hg = random_smooth_field(ctx.grid, rng, apply_collar=False, size=size).values
        h, g = ScalarField(ctx.grid, hg[:, 0::2]), ScalarField(ctx.grid, hg[:, 1::2])
        ih = ctx.grid.interior_field(ctx._apply_B(ctx.grid.restrict(h)))
        pairing = inner_l2(ih, g) - inner_l2(h, ctx.apply_adjoint(g))
        defects.append(np.abs(pairing) / (norm_l2(h) * norm_l2(g)))
    return np.concatenate(defects)


@dataclass
class StabilityReport:
    """Empirical lower-bound diagnostics for the linearization.

    Ratio entries are ||T h|| / ||h|| and ||I h||_{H^2} / ||h|| over random
    collar-supported smooth fields; the minima estimate the stability floor.
    """

    applicable: bool
    mu: float
    c0_hat: float
    n_trials: int
    seed: int
    min_ratio_T: float
    min_ratio_H2: float
    ratios_T: np.ndarray
    ratios_H2: np.ndarray


def _stability_ratios(ctx: ScoreContext, h: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    hn = norm_l2(h)
    h, hn = h.values[:, hn >= 1e-13], hn[hn >= 1e-13]
    th = ctx.T @ ctx.grid.restrict(h)
    ih = ctx.grid.interior_field(-ctx.op.apply_inverse_interior(th))
    return norm_l2(ctx.grid.interior_field(th)) / hn, sobolev_norm(ih, 2) / hn


def stability_report(ctx: ScoreContext, n_trials: int = 200, seed: int = 0,
                     mu: float = 4.0, c0_min: float = 0.0) -> StabilityReport:
    """The ratios over n_trials random fields of norm at least 1e-13, drawn in
    blocks of BLOCK_COLUMNS; each block is one solve, and its arrays are freed
    before the next draw, so memory does not grow with n_trials."""
    ident = check_identifiability(ctx.u, mu, c0_min)
    if not ident.passes:
        return StabilityReport(False, mu, ident.c0_hat, 0, seed,
                               math.nan, math.nan, np.array([]), np.array([]))
    rng = np.random.default_rng(seed)
    sizes = [min(BLOCK_COLUMNS, n_trials - i) for i in range(0, n_trials, BLOCK_COLUMNS)]
    blocks = [_stability_ratios(ctx, random_smooth_field(ctx.grid, rng, size=k)) for k in sizes]
    ratios_T, ratios_H2 = (np.concatenate(r) for r in zip(*blocks))
    return StabilityReport(True, mu, ident.c0_hat, ratios_T.size, seed,
                           float(ratios_T.min()), float(ratios_H2.min()),
                           ratios_T, ratios_H2)


def gateaux_remainders(ctx: ScoreContext, h: ScalarField,
                       s_values=(1e-1, 1e-2, 1e-3, 1e-4), stats: dict | None = None):
    """Sup-norm remainders ||G(theta + s h) - G(theta) - s I h|| and the
    fitted log-log slope (quadratic remainder means slope 2).

    Each s is one :meth:`ScoreContext.solve_difference` for d = G(theta + s h)
    - G(theta) in the operator's PCG loop, preconditioned by its solver of K; a
    failed certificate raises RuntimeError naming s.  ``stats``, if given,
    receives the PCG steps per s, the largest backward error and its bound.
    """
    ih = ctx._apply_B(ctx.grid.restrict(h))
    remainders, solves = [], []
    for s in s_values:
        d = ctx.solve_difference(h, s)
        solves.append(ctx.op.last_stats)
        remainders.append(np.max(np.abs(d - s * ih)))
    if stats is not None:
        stats.update(cg_iterations=[t["iterations"] for t in solves],
                     max_backward_error=max(t["backward_error"] for t in solves),
                     bound=elliptic.BACKWARD_ERROR_RTOL)
    slope = float(np.polyfit(np.log(s_values), np.log(remainders), 1)[0])
    return np.asarray(remainders), slope
