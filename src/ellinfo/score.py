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

T is filled once as a sparse matrix in h on the grid's face pattern
(``Grid.faces``), the pattern of the elliptic operator K.  Faces between two
interior nodes average h; faces touching the boundary extrapolate h linearly
from the two nearest interior nodes, which keeps constants exactly in the
kernel of h -> T(h) when the base solution is discretely harmonic.  For
perturbations vanishing on the collar the assembly identity
L_{theta + s h} = L_theta + s L_h holds exactly, which makes the Gateaux
remainder of the forward map exactly quadratic in s at the discrete level.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ellinfo.elliptic import Conductivity, DivergenceFormOperator, check_identifiability
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

#: Bound on the relative residual and refinement change of a transport solve.
TRANSPORT_SOLVE_RTOL = 1e-6


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
        self._B_hat: np.ndarray | None = None

    # -- assembly ----------------------------------------------------------

    def _assemble_source_operator(self) -> sp.csr_matrix:
        fs = self.grid.faces
        uvals = self.u.values
        q = fs.geom * (uvals[fs.nb] - uvals[fs.center])
        inner, bnd = ~fs.nb_is_boundary, fs.nb_is_boundary
        # h averaged onto interior faces: half weight on each side; on
        # boundary faces h_b = 2 h_center - h_inward, so the face value
        # (h_center + h_b)/2 becomes (3 h_center - h_inward)/2: q more on
        # the diagonal and -q/2 at the inward slot
        return fs.fill(np.concatenate([fs.diag, fs.off[inner], fs.diag[bnd], fs.off[bnd]]),
                       np.concatenate([0.5 * q, 0.5 * q[inner], q[bnd], -0.5 * q[bnd]]))

    def transport_lu(self) -> spla.SuperLU:
        """The context's one sparse LU of T^T, factored on first use;
        ``solve(b, trans="T")`` applies T^{-1}."""
        if self._transport_lu is None:
            self._transport_lu = spla.splu(self.T.T.tocsc())
        return self._transport_lu

    def solve_transport_equation(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """T^T y = rhs: y0 from :meth:`transport_lu`, y after one refinement
        step, and the relative residual of y.  Callers certify by the
        residual and the change from y0 to y, which alone exposes a singular
        T on a consistent system."""
        lu = self.transport_lu()
        y0 = lu.solve(rhs)
        y = y0 + lu.solve(rhs - self.T.T @ y0)
        residual = float(np.linalg.norm(self.T.T @ y - rhs) / np.linalg.norm(rhs))
        return y0, y, residual

    # -- raw interior-vector maps (hot paths) ------------------------------

    def _apply_B(self, h_int: np.ndarray) -> np.ndarray:
        """I h on interior vectors: -V[T h]."""
        return -self.op.apply_inverse_interior(self.T @ h_int)

    def _apply_B_adjoint(self, g_int: np.ndarray) -> np.ndarray:
        """Exact transpose of _apply_B for the weighted inner product."""
        w = self.grid.weights_interior
        v = self.op.apply_inverse_interior(g_int)
        return -(self.T.T @ (w * v)) / w

    def _apply_info(self, h_int: np.ndarray) -> np.ndarray:
        return self._apply_B_adjoint(self._apply_B(h_int))

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
        """I* g = grad u_theta . grad V[g] (gradient formula, zero trace)."""
        v = self.op.apply_inverse(g)
        gx, gy = self.grid.gradient(v.values)
        vals = self.grad_u.vx * gx + self.grad_u.vy * gy
        vals[self.grid.boundary_ids] = 0.0
        return ScalarField(self.grid, vals)

    def apply_adjoint_exact(self, g: ScalarField) -> ScalarField:
        """Exact discrete transpose of the linearization."""
        return self.grid.interior_field(self._apply_B_adjoint(self.grid.restrict(g)))

    def apply_information(self, h: ScalarField) -> ScalarField:
        """Information operator I* I h (exact-transpose composition)."""
        return self.grid.interior_field(self._apply_info(self.grid.restrict(h)))

    def forward_map(self, theta: Conductivity) -> ScalarField:
        """Solve the PDE for another conductivity with the same data (f, g)."""
        return DivergenceFormOperator(theta).solve(self.f, self.g)

    # -- dense symmetrized linearization -----------------------------------

    def dense_linearization_hat(self) -> np.ndarray:
        """Dense matrix of I in coordinates orthonormalizing the weighted
        inner product (h_hat = sqrt(w) h).  In these coordinates the
        information operator is the plain symmetric PSD matrix B^T B."""
        if self._B_hat is None:
            m = self.grid.n_interior
            if m > DENSE_OPERATOR_MAX_DIM:
                raise RuntimeError(
                    f"dense linearization refused: interior dimension {m} exceeds "
                    f"DENSE_OPERATOR_MAX_DIM = {DENSE_OPERATOR_MAX_DIM}"
                )
            w = self.grid.weights_interior
            T_dense = self.T.toarray()
            if self.op.mode != "direct" or self.op._lu is None:
                raise RuntimeError("dense linearization requires the direct solver")
            B = self.op._lu.solve(w[:, None] * T_dense)
            s = np.sqrt(w)
            self._B_hat = (s[:, None] * B) / s[None, :]
        return self._B_hat


# -- verification-style diagnostics ---------------------------------------


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


def stability_report(ctx: ScoreContext, n_trials: int = 200, seed: int = 0,
                     mu: float = 4.0, c0_min: float = 0.0) -> StabilityReport:
    ident = check_identifiability(ctx.theta, ctx.f, ctx.g, mu, c0_min, op=ctx.op)
    if not ident.passes:
        return StabilityReport(False, mu, ident.c0_hat, 0, seed,
                               math.nan, math.nan, np.array([]), np.array([]))
    rng = np.random.default_rng(seed)
    ratios_T, ratios_H2 = [], []
    for _ in range(n_trials):
        h = random_smooth_field(ctx.grid, rng)
        hn = norm_l2(h)
        if hn < 1e-13:
            continue
        t_norm = norm_l2(ctx.perturbation_source(h))
        ih = ctx.grid.interior_field(ctx._apply_B(ctx.grid.restrict(h)))
        ratios_T.append(t_norm / hn)
        ratios_H2.append(sobolev_norm(ih, 2) / hn)
    ratios_T = np.asarray(ratios_T)
    ratios_H2 = np.asarray(ratios_H2)
    return StabilityReport(True, mu, ident.c0_hat, ratios_T.size, seed,
                           float(ratios_T.min()), float(ratios_H2.min()),
                           ratios_T, ratios_H2)


@dataclass
class StabilityPair:
    lhs: float  # || theta1 - theta2 ||_{L^2}
    rhs: float  # || u_1 - u_2 ||_{H^2}


def stability_pair(theta1: Conductivity, theta2: Conductivity, f, g=None) -> StabilityPair:
    """Compare the conductivity gap with the solution gap for one data set."""
    if theta1.grid is not theta2.grid:
        raise ValueError("conductivities live on different grids")
    grid = theta1.grid
    b1 = theta1.values[grid.boundary_ids]
    b2 = theta2.values[grid.boundary_ids]
    if b1.size and np.max(np.abs(b1 - b2)) > 1e-12:
        raise ValueError("conductivities have different boundary values")
    u1 = DivergenceFormOperator(theta1).solve(f, g)
    u2 = DivergenceFormOperator(theta2).solve(f, g)
    diff_theta = ScalarField(grid, theta1.values - theta2.values)
    diff_u = ScalarField(grid, u1.values - u2.values)
    return StabilityPair(lhs=norm_l2(diff_theta), rhs=sobolev_norm(diff_u, 2))


def gateaux_remainders(ctx: ScoreContext, h: ScalarField,
                       s_values=(1e-1, 1e-2, 1e-3, 1e-4)):
    """Sup-norm remainders ||G(theta + s h) - G(theta) - s I h|| and the
    fitted log-log slope (quadratic remainder means slope 2)."""
    ih = ctx.grid.interior_field(ctx._apply_B(ctx.grid.restrict(h))).values
    remainders = []
    for s in s_values:
        theta_s = Conductivity(
            ScalarField(ctx.grid, ctx.theta.values + s * h.values), eta=None
        )
        u_s = ctx.forward_map(theta_s)
        rem = np.max(np.abs(u_s.values - ctx.u.values - s * ih))
        remainders.append(rem)
    remainders = np.asarray(remainders)
    slope = float(np.polyfit(np.log(np.asarray(s_values)), np.log(remainders), 1)[0])
    return remainders, slope
