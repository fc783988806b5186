"""Divergence-form elliptic operator: assembly, Dirichlet solves, inversion.

The PDE is div(theta * grad u) = f in the domain with u = g on the boundary.
Assembly is finite-volume flux form with the conductivity averaged onto cell
faces, which yields a symmetric positive definite system after weighting each
nodal equation by its quadrature weight (on the square this is the classic
5-point stencil).  The system matrix K is filled by one ``bincount`` on the
grid's face pattern (``Grid.faces``), which the source operator T shares;
the coupling C to boundary values has its own small build from the boundary
faces.  ``DivergenceFormOperator`` assembles and factorises K once; its ``solve`` handles Dirichlet data and its zero-boundary inverse
``apply_inverse`` is the discrete counterpart of the solution operator for
the Dirichlet problem with source w, self-adjoint for the weighted inner
product by construction.

Systems up to 200^2 unknowns are solved by sparse LU; beyond that (``solve
--resolution 257`` and the disk at 192) conjugate gradient takes over at
relative tolerance 1e-10, preconditioned by the exact fast-Poisson inverse of
the theta = 1 operator: 1-2 steps at theta = 1, 4-8 with the fixtures' bumps.
``last_stats`` holds the mode, iterations and residual of the last solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ellinfo.grids import Grid, ScalarField, laplacian, make_bump, sobolev_norm

ELLIPTICITY_FLOOR = 0.5
DIRECT_SOLVE_MAX_UNKNOWNS = 200 * 200
SOLVER_TOL = 1e-10


@dataclass
class Conductivity:
    """A valid conductivity: above the ellipticity floor, equal to one on the
    boundary, with a finite smoothness proxy for the perturbation theta - 1."""

    field: ScalarField
    eta: float | None = 0.5

    def __post_init__(self):
        self.validate()

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @property
    def min_value(self) -> float:
        return float(self.field.values.min())

    def perturbation_norm(self) -> float:
        """H^2 proxy norm of theta - 1 (stand-in for the smoothness ball radius)."""
        pert = ScalarField(self.grid, self.field.values - 1.0)
        return sobolev_norm(pert, 2)

    def validate(self):
        vals = self.field.values
        if not np.all(np.isfinite(vals)):
            raise ValueError("conductivity contains non-finite values")
        if self.min_value <= ELLIPTICITY_FLOOR:
            raise ValueError(
                f"conductivity minimum {self.min_value:.6g} violates the "
                f"ellipticity floor {ELLIPTICITY_FLOOR}"
            )
        bvals = vals[self.grid.boundary_ids]
        if bvals.size and np.max(np.abs(bvals - 1.0)) > 1e-12:
            raise ValueError("conductivity must equal 1 on the boundary")
        if self.eta is not None and self.perturbation_norm() >= self.eta:
            raise ValueError(
                f"perturbation norm {self.perturbation_norm():.6g} exceeds the "
                f"smoothness budget eta={self.eta}"
            )

    @classmethod
    def constant(cls, grid: Grid, value: float = 1.0, eta: float | None = None):
        return cls(grid.field(value), eta=eta)

    @classmethod
    def from_perturbation(cls, grid: Grid, perturbation: ScalarField, eta: float | None = None):
        return cls(ScalarField(grid, 1.0 + perturbation.values), eta=eta)

    @classmethod
    def with_bump(cls, grid: Grid, center, radius: float, amplitude: float,
                  eta: float | None = None):
        return cls.from_perturbation(grid, make_bump(grid, center, radius, amplitude), eta=eta)


class DivergenceFormOperator:
    """Assembled handle for L = div(theta grad .) with Dirichlet boundary.

    Exposes the weighted symmetric system matrix, forward application,
    Dirichlet solves with boundary data folded into the right-hand side, and
    the zero-boundary inverse.
    """

    def __init__(self, theta: Conductivity, mode: str = "auto", tol: float = SOLVER_TOL):
        if mode not in ("auto", "direct", "cg"):
            raise ValueError(f"unknown solver mode {mode!r}")
        self.grid = grid = theta.grid
        self.theta = theta
        self.tol = tol
        self._assemble()
        if mode == "auto":
            mode = "direct" if grid.n_interior <= DIRECT_SOLVE_MAX_UNKNOWNS else "cg"
        self.mode = mode
        self._lu = None
        if mode == "direct":
            self._lu = spla.splu(self.K.tocsc())
        self.last_stats: dict = {}

    def _assemble(self):
        grid = self.grid
        fs = grid.faces
        th = self.theta.values
        theta_face = 0.5 * (th[fs.center] + th[fs.nb])
        coef = theta_face * fs.geom * grid.quad_weights[fs.center]
        # K[c, c] accumulates +coef per face, K[c, nb] takes -coef
        inner = ~fs.nb_is_boundary
        self.K = fs.fill(np.concatenate([fs.diag, fs.off[inner]]),
                         np.concatenate([coef, -coef[inner]]))

        # coupling of interior equations to boundary values (for the lift)
        bmask = fs.nb_is_boundary
        b_pos = np.searchsorted(grid.boundary_ids, fs.nb[bmask])
        self.C = sp.coo_matrix(
            (coef[bmask], (grid.interior_index[fs.center[bmask]], b_pos)),
            shape=(grid.n_interior, grid.boundary_ids.size),
        ).tocsr()

    # -- linear algebra ----------------------------------------------------

    @cached_property
    def _theta1_inverse(self) -> spla.LinearOperator:
        """Exact inverse of the theta = 1 operator: the CG preconditioner.

        In the interior ordering, rows along x or r and columns along y or t,
        that operator is K0 = T1 (x) I + diag(c) (x) A2; its factors come from
        the faces of the first interior column and row.  With A2 = V Lam V^T
        and C^-1/2 T1 C^-1/2 = U Mu U^T, K0^-1 F = L [(L^T F V) / (mu + lam)] V^T
        with L = C^-1/2 U (Concus & Golub 1973).
        """
        grid, fs = self.grid, self.grid.faces
        n2 = grid.shape[1]
        origin = np.array(divmod(int(grid.interior_ids[0]), n2))[:, None]
        sel = np.flatnonzero((fs.center // n2 == origin[0]) | (fs.center % n2 == origin[1]))
        pos, nb_pos = (np.array(np.divmod(ids[sel], n2)) - origin for ids in (fs.center, fs.nb))
        coef = fs.geom[sel] * grid.quad_weights[fs.center[sel]]
        inner = ~fs.nb_is_boundary[sel]
        along1 = nb_pos[0] != pos[0]
        m1, m2 = pos.max(axis=1) + 1

        def stencil(faces, axis, m):
            i, j = pos[axis], nb_pos[axis]
            D = np.zeros((m, m))
            np.add.at(D, (i[faces], i[faces]), coef[faces])
            np.add.at(D, (i[faces & inner], j[faces & inner]), -coef[faces & inner])
            return D

        col, row = pos[1] == 0, pos[0] == 0
        c = np.bincount(pos[0][col & ~along1], coef[col & ~along1], minlength=m1) / 2.0
        lam, V = np.linalg.eigh(stencil(row & ~along1, 1, m2) / c[0])
        s = 1.0 / np.sqrt(c)
        mu, U = np.linalg.eigh(s[:, None] * stencil(col & along1, 0, m1) * s)
        L, denom = s[:, None] * U, mu[:, None] + lam
        return spla.LinearOperator(self.K.shape, dtype=float, matvec=lambda r: (
            L @ ((L.T @ r.reshape(m1, m2) @ V) / denom) @ V.T).reshape(r.shape))

    def _solve_spd(self, rhs: np.ndarray) -> np.ndarray:
        if self.mode == "direct":
            out = self._lu.solve(rhs)
            self.last_stats = {"mode": "direct", "iterations": 0}
        else:
            steps = []
            out, info = spla.cg(self.K, rhs, rtol=self.tol, atol=0.0, M=self._theta1_inverse,
                                maxiter=10 * rhs.size, callback=lambda _: steps.append(1))
            if info != 0:
                raise RuntimeError(f"conjugate gradient did not converge (info={info})")
            self.last_stats = {"mode": "cg", "iterations": len(steps)}
        if rhs.ndim == 1:
            res = self.K @ out - rhs
            denom = max(float(np.linalg.norm(rhs)), 1e-300)
            self.last_stats["residual"] = float(np.linalg.norm(res)) / denom
        return out

    def apply_operator(self, u: ScalarField) -> ScalarField:
        """L(u) at interior nodes from a full nodal field (boundary included)."""
        u_int = self.grid.restrict(u)
        u_b = u.values[self.grid.boundary_ids]
        resid = -(self.K @ u_int) + self.C @ u_b
        return self.grid.interior_field(resid / self.grid.weights_interior)

    def solve(self, f, g=None) -> ScalarField:
        """Solve div(theta grad u) = f with u = g on the boundary."""
        grid = self.grid
        f_field = f if isinstance(f, ScalarField) else grid.field(f)
        rhs = -grid.weights_interior * grid.restrict(f_field)
        if g is not None:
            g_field = g if isinstance(g, ScalarField) else grid.field(g)
            g_b = g_field.values[grid.boundary_ids]
            rhs = rhs + self.C @ g_b
        else:
            g_b = np.zeros(grid.boundary_ids.size)
        u_int = self._solve_spd(rhs)
        u = np.zeros(grid.n_nodes)
        u[grid.interior_ids] = u_int
        u[grid.boundary_ids] = g_b
        return ScalarField(grid, u)

    def apply_inverse(self, w) -> ScalarField:
        """Zero-boundary solution operator: u with L(u) = w, u = 0 on the boundary."""
        return self.solve(w, g=None)

    def apply_inverse_interior(self, w_int: np.ndarray) -> np.ndarray:
        """Same as apply_inverse but on raw interior vectors (hot path)."""
        rhs = -self.grid.weights_interior * w_int
        return self._solve_spd(rhs)


@dataclass
class IdentifiabilityReport:
    c0_hat: float
    mu: float
    c0_min: float
    passes: bool


def check_identifiability(theta: Conductivity, f, g, mu: float,
                          c0_min: float = 0.0,
                          op: DivergenceFormOperator | None = None) -> IdentifiabilityReport:
    """Pointwise lower bound underlying injectivity of the linearization.

    Computes c0_hat = min over interior nodes of (Lap u + mu * |grad u|^2) for
    the base solution u and reports whether it exceeds the configured floor.
    With mu = 0 this reduces to a sign condition on the source.
    """
    if op is None:
        op = DivergenceFormOperator(theta)
    grid = op.grid
    u = op.solve(f, g)
    lap = laplacian(u).values
    gx, gy = grid.gradient(u.values)
    quantity = lap + mu * (gx**2 + gy**2)
    c0_hat = float(quantity[grid.interior_ids].min())
    return IdentifiabilityReport(c0_hat=c0_hat, mu=mu, c0_min=c0_min,
                                 passes=bool(c0_hat > c0_min))
