"""Divergence-form elliptic operator: assembly, Dirichlet solves, inversion.

The PDE is div(theta * grad u) = f in the domain with u = g on the boundary.
Assembly is finite-volume flux form with the conductivity averaged onto cell
faces, which yields a symmetric positive definite system after weighting each
nodal equation by its quadrature weight (on the square this is the classic
5-point stencil).  ``assemble`` fills the system matrix K by one ``bincount``
on the grid's face pattern (``Grid.faces``), shared with the source operator
T, and the boundary coupling C; both are linear in the coefficient.
``DivergenceFormOperator`` prepares one solver of K; its ``solve`` handles
Dirichlet data, and its zero-boundary inverse ``apply_inverse``, the discrete
solution operator for a source w, is self-adjoint for the weighted inner product.

Every solve runs one block preconditioned CG loop (Hestenes & Stiefel 1952),
certified by the worst column's normwise backward error (Rigal & Gaches 1967).
The problem picks the preconditioner M: up to ``DIRECT_SOLVE_MAX_UNKNOWNS``
(200^2) unknowns a theta other than 1 takes a symmetric-mode sparse LU of K;
otherwise M is the exact inverse of the theta = 1 operator by fast
diagonalisation (Lynch, Rice & Thomas 1964).  Where M inverts K, x = M b ends
the loop at step 1.
``last_stats`` holds the mode (``direct`` or ``separable``, naming M), the
steps and the backward error of the last solve; ``max_backward_error`` the
largest so far.
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
BACKWARD_ERROR_RTOL = 1e-12  # bound on every solve's normwise backward error
PCG_MAXITER = 50  # PCG steps, each one apply of M and one product with A


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


def backward_error(r: np.ndarray, a_norm: float, x: np.ndarray, b_norm) -> float:
    """Worst column's normwise backward error ||r|| / (||A|| ||x|| + ||b||), infinity
    norms, of x, a vector or an (m, k) block, with r = b - A x and b_norm per column."""
    scale = np.maximum(a_norm * np.abs(x).max(axis=0) + b_norm, 1e-300)
    return float(np.max(np.abs(r).max(axis=0) / scale))


def assemble(grid: Grid, values: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """K and the boundary coupling C of div(a grad .) for nodal values a of
    any sign.  Both are linear in a: K(theta + s h) = K(theta) + s K(h)."""
    fs = grid.faces
    coef = 0.5 * (values[fs.center] + values[fs.nb]) * fs.geom * grid.quad_weights[fs.center]
    # K[c, c] accumulates +coef per face, K[c, nb] takes -coef
    inner = ~fs.nb_is_boundary
    K = fs.fill(np.concatenate([fs.diag, fs.off[inner]]), np.concatenate([coef, -coef[inner]]))
    # coupling of interior equations to boundary values (for the lift)
    bmask = fs.nb_is_boundary
    b_pos = np.searchsorted(grid.boundary_ids, fs.nb[bmask])
    C = sp.coo_matrix((coef[bmask], (grid.interior_index[fs.center[bmask]], b_pos)),
                      shape=(grid.n_interior, grid.boundary_ids.size)).tocsr()
    return K, C


class DivergenceFormOperator:
    """Assembled handle for L = div(theta grad .) with Dirichlet boundary.

    Exposes the weighted symmetric system matrix, forward application,
    Dirichlet solves with boundary data folded into the right-hand side, and
    the zero-boundary inverse.
    """

    def __init__(self, theta: Conductivity):
        self.grid = theta.grid
        self.theta = theta
        self.K, self.C = assemble(self.grid, theta.values)
        # size read per operator, so tests can patch it; validate() pins theta to 1 on the boundary
        big = self.grid.n_interior > DIRECT_SOLVE_MAX_UNKNOWNS
        self.mode = "direct" if not big and np.any(theta.values != 1.0) else "separable"
        self._lu = spla.splu(self.K.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                             options={"SymmetricMode": True}) if self.mode == "direct" else None
        self._K_norm = float(abs(self.K).sum(axis=1).max())
        self.last_stats: dict = {}
        self.max_backward_error = 0.0

    # -- linear algebra ----------------------------------------------------

    @cached_property
    def _theta1_inverse(self) -> spla.LinearOperator:
        """Exact inverse of the theta = 1 operator: the preconditioner without an LU.

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

        def matmat(F):  # (m, k): L^T on axis 0, then V on axis 1, for all k columns at once
            X = np.matmul(V.T, (L.T @ F.reshape(m1, -1)).reshape(m1, m2, -1)) / denom[..., None]
            return (L @ np.matmul(V, X).reshape(m1, -1)).reshape(F.shape)

        # a vector takes plain 2-D products: stacked ones would be m1 matrix-vector calls
        return spla.LinearOperator(self.K.shape, dtype=float, matmat=matmat, matvec=lambda r: (
            L @ ((L.T @ r.reshape(m1, m2) @ V) / denom) @ V.T).reshape(r.shape))

    def _pcg(self, A, rhs: np.ndarray, name: str) -> np.ndarray:
        """A^-1 rhs for SPD A and a vector or an (m, k) block: PCG from x = M rhs,
        all columns in step, until the worst column's ||b - A x|| / (||A|| ||x||
        + ||b||) (infinity norms, true residual) is at most BACKWARD_ERROR_RTOL;
        after PCG_MAXITER steps (x = M rhs is one) it raises RuntimeError."""
        M = self._theta1_inverse.dot if self._lu is None else self._lu.solve
        a_norm = self._K_norm if A is self.K else float(abs(A).sum(axis=1).max())
        b = rhs.reshape(rhs.shape[0], -1)
        x = M(rhs).reshape(b.shape)
        r, b_norm, steps, rz = b - A @ x, np.abs(b).max(axis=0), 1, None
        while (error := backward_error(r, a_norm, x, b_norm)) > BACKWARD_ERROR_RTOL \
                and steps < PCG_MAXITER:
            z = M(r.reshape(rhs.shape)).reshape(b.shape)  # a vector keeps M's vector path
            rz_old, rz = rz, np.einsum("ij,ij->j", r, z)
            # floored divisions: a column whose residual is exactly 0 gets beta = alpha = 0
            p = z if rz_old is None else np.add(z, rz / np.maximum(rz_old, 1e-300) * p, out=p)
            q = A @ p
            alpha = rz / np.maximum(np.einsum("ij,ij->j", p, q), 1e-300)
            x += alpha * p
            r -= alpha * q
            steps += 1
            if backward_error(r, a_norm, x, b_norm) <= BACKWARD_ERROR_RTOL:  # certify on b - A x
                r = b - A @ x
        self.last_stats = {"mode": self.mode, "iterations": steps, "backward_error": error}
        self.max_backward_error = max(self.max_backward_error, error)
        if error > BACKWARD_ERROR_RTOL:
            raise RuntimeError(f"{name}: backward error {error:.3e} after {steps} PCG steps "
                               f"(bound {BACKWARD_ERROR_RTOL:g}, cap {PCG_MAXITER})")
        return x.reshape(rhs.shape)

    def _solve_spd(self, rhs: np.ndarray) -> np.ndarray:
        """K^-1 rhs for a vector or an (m, k) block, by :meth:`_pcg`."""
        return self._pcg(self.K, rhs, f"{self.mode} solve of K")

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
        u = np.zeros(grid.n_nodes)
        if g is not None:
            g_field = g if isinstance(g, ScalarField) else grid.field(g)
            u[grid.boundary_ids] = g_field.values[grid.boundary_ids]
            rhs = rhs + self.C @ u[grid.boundary_ids]
        u[grid.interior_ids] = self._solve_spd(rhs)
        return ScalarField(grid, u)

    def apply_inverse(self, w) -> ScalarField:
        """Zero-boundary solution operator: u with L(u) = w, u = 0 on the boundary."""
        return self.solve(w, g=None)

    def apply_inverse_interior(self, w_int: np.ndarray) -> np.ndarray:
        """Same as apply_inverse but on raw interior vectors or blocks (hot path)."""
        return self._solve_spd(-(w_int.T * self.grid.weights_interior).T)


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
