"""Domains, tensor grids, discrete fields and calculus on them.

Two domain kinds are supported, both with unit-normalized sampling measure:

* ``square_shifted`` is the square [1, 2] x [1, 2] on a uniform tensor grid
  (Lebesgue measure already has mass one).
* ``unit_disk`` is the unit disk on a polar tensor grid whose radial nodes are
  cell-centered away from r = 0, with the outermost ring exactly on r = 1;
  the measure is Lebesgue divided by pi.

Fields store one value per grid node.  The discrete inner product uses
quadrature weights that sum to one exactly on both domains (trapezoid weights
on the square, exact annular sector areas on the disk).  First derivatives use
second-order central differences with one-sided closures at non-periodic
edges; the compact Laplacian uses the standard 5-point stencil on the square
and a flux form in polar coordinates on the disk, which kills the coordinate
singularity at the origin because the innermost face sits at r = 0.

Point evaluation is bilinear on both grids (in (r, theta) on the disk).
``Grid.sample_matrix(points)`` is the sparse observation operator P: it
locates the points once, and ``P @ F`` evaluates every column of a nodal
stack F there.  ``Grid.interpolator`` returns the same interpolant as a
callable on batches of points, and ``Grid.point_evaluator`` as a scalar
callable on one point, a few microseconds per call (the curve tracer's
Runge-Kutta stages).
"""

from __future__ import annotations

import dataclasses
import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator

MIN_RESOLUTION = 8

#: Collar width, in mesh cells, inside which "compactly supported" fields must
#: vanish.  Keeping two cells clear of the boundary keeps div(h grad u) well
#: defined discretely for collar-supported h.
COLLAR_CELLS = 2


class DomainKind(str, enum.Enum):
    SQUARE = "square_shifted"
    DISK = "unit_disk"


def _normalize_resolution(kind: DomainKind, resolution) -> tuple[int, int]:
    if isinstance(resolution, (int, np.integer)):
        res = (int(resolution), int(resolution))
    else:
        res = tuple(int(r) for r in resolution)
        if len(res) != 2:
            raise ValueError(f"resolution must be an int or a pair, got {resolution!r}")
    if min(res) < MIN_RESOLUTION:
        raise ValueError(
            f"resolution {res} below minimum {MIN_RESOLUTION} nodes per axis"
        )
    return res


@dataclass(frozen=True)
class DomainSpec:
    """Immutable description of a computational domain.

    ``resolution`` is ``(nx, ny)`` node counts for the square and
    ``(n_r, n_theta)`` for the disk.  A bare int is accepted and applied to
    both axes.  ``measure_normalization`` is the Lebesgue mass of the domain
    (1 for the shifted square, pi for the disk); the sampling measure divides
    by it.
    """

    kind: DomainKind
    resolution: tuple[int, int]
    measure_normalization: float = 0.0

    def __post_init__(self):
        kind = DomainKind(self.kind)
        object.__setattr__(self, "kind", kind)
        res = _normalize_resolution(kind, self.resolution)
        object.__setattr__(self, "resolution", res)
        norm = math.pi if kind is DomainKind.DISK else 1.0
        if self.measure_normalization == 0.0:
            object.__setattr__(self, "measure_normalization", norm)
        elif not math.isclose(self.measure_normalization, norm, rel_tol=1e-12):
            raise ValueError(
                f"measure_normalization {self.measure_normalization} does not match "
                f"domain kind {kind.value} (expected {norm})"
            )


@dataclass
class ScalarField:
    """Nodal scalar values on a grid."""

    grid: "Grid"
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape == self.grid.shape:
            self.values = self.values.reshape(-1)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"field has {self.values.shape} values for a grid with "
                f"{self.grid.n_nodes} nodes"
            )

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class VectorField:
    """Nodal vector values, components along the Cartesian coordinate axes."""

    grid: "Grid"
    vx: np.ndarray
    vy: np.ndarray

    def __post_init__(self):
        self.vx = np.asarray(self.vx, dtype=float).reshape(-1)
        self.vy = np.asarray(self.vy, dtype=float).reshape(-1)
        if self.vx.shape != (self.grid.n_nodes,) or self.vy.shape != (self.grid.n_nodes,):
            raise ValueError("vector field components do not match grid size")

    def magnitude(self) -> np.ndarray:
        return np.hypot(self.vx, self.vy)


class Grid:
    """Base class for the two tensor grids.

    Nodes are stored flat in C order of the logical (axis0, axis1) shape.
    Subclasses fill in coordinates, quadrature weights, masks and the
    differential stencils.
    """

    spec: DomainSpec
    shape: tuple[int, int]
    x: np.ndarray
    y: np.ndarray
    quad_weights: np.ndarray
    boundary_mask: np.ndarray

    def __init__(self, spec: DomainSpec):
        self.spec = spec

    # -- bookkeeping -------------------------------------------------------

    def _finalize(self):
        self.n_nodes = self.x.size
        self.interior_mask = ~self.boundary_mask
        self.interior_ids = np.flatnonzero(self.interior_mask)
        self.boundary_ids = np.flatnonzero(self.boundary_mask)
        self.n_interior = self.interior_ids.size
        # node id -> position in the interior numbering, -1 on the boundary
        self.interior_index = np.full(self.n_nodes, -1, dtype=int)
        self.interior_index[self.interior_ids] = np.arange(self.n_interior)
        self.weights_interior = self.quad_weights[self.interior_ids]
        for arr in (self.x, self.y, self.quad_weights, self.boundary_mask):
            arr.setflags(write=False)

    @property
    def nodes(self) -> np.ndarray:
        return np.column_stack([self.x, self.y])

    def reshape(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values).reshape(self.shape)

    def field(self, data=0.0) -> ScalarField:
        """Build a ScalarField from a scalar, an array, or a callable(x, y)."""
        if callable(data):
            vals = np.asarray(data(self.x, self.y), dtype=float)
            vals = np.broadcast_to(vals, (self.n_nodes,)).copy()
        elif np.isscalar(data):
            vals = np.full(self.n_nodes, float(data))
        else:
            vals = np.array(data, dtype=float)
        return ScalarField(self, vals)

    def interior_field(self, interior_values: np.ndarray) -> ScalarField:
        """Scatter a vector over interior nodes into a full field, zero boundary."""
        interior_values = np.asarray(interior_values, dtype=float)
        if interior_values.shape != (self.n_interior,):
            raise ValueError("interior vector has wrong length")
        vals = np.zeros(self.n_nodes)
        vals[self.interior_ids] = interior_values
        return ScalarField(self, vals)

    def restrict(self, field: ScalarField | np.ndarray) -> np.ndarray:
        vals = field.values if isinstance(field, ScalarField) else np.asarray(field)
        return vals.reshape(-1)[self.interior_ids]

    # -- geometry helpers, provided by subclasses --------------------------

    def boundary_distance(self) -> np.ndarray:
        raise NotImplementedError

    @property
    def h_mesh(self) -> float:
        raise NotImplementedError

    @property
    def collar_mask(self) -> np.ndarray:
        """Nodes within COLLAR_CELLS mesh cells of the domain boundary."""
        if not hasattr(self, "_collar_mask"):
            mask = self.boundary_distance() <= COLLAR_CELLS * self.h_mesh + 1e-12
            mask.setflags(write=False)
            self._collar_mask = mask
        return self._collar_mask

    def gradient(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def divergence(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def laplacian_values(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def second_derivatives(self, values):
        raise NotImplementedError

    def _tensor_values(self, values: np.ndarray):
        """The grid's two tensor axes and the values on them, of shape
        ``(len(axis0), len(axis1)) + values.shape[1:]``."""
        raise NotImplementedError

    def _axis_points(self, pts: np.ndarray) -> np.ndarray:
        """Coordinates of an (n, 2) array of points on the tensor axes."""
        return pts

    @staticmethod
    def _point_coords(x: float, y: float) -> tuple[float, float]:
        """Coordinates of one point on the tensor axes."""
        return x, y

    def interpolator(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Bilinear interpolant of nodal values (or an (n_nodes, k) stack),
        extrapolated linearly past the edges, as a callable on (n, 2) points."""
        axes, v = self._tensor_values(values)
        rgi = RegularGridInterpolator(axes, v, method="linear",
                                      bounds_error=False, fill_value=None)

        def _interp(points: np.ndarray) -> np.ndarray:
            return rgi(self._axis_points(np.atleast_2d(np.asarray(points, dtype=float))))

        return _interp

    def point_evaluator(self, values: np.ndarray) -> Callable[[float, float], list]:
        """One-point form of :meth:`interpolator` for an (n_nodes, k) stack.

        ``f(x, y)`` returns the k values at one point (one for plain nodal
        values) as a list of Python floats and does no numpy work, so pass
        Python floats.  Cells are
        located as ``RegularGridInterpolator`` locates them, clipped to the
        edge cells so that points past an edge extrapolate linearly, and the
        corners are summed in its order: on the square the values are
        bit-identical to the interpolator's.
        """
        axes, v = self._tensor_values(values)
        v = v.reshape(v.shape[:2] + (-1,))
        ax0, ax1 = axes[0].tolist(), axes[1].tolist()
        last0, last1 = len(ax0) - 2, len(ax1) - 2
        # cells[i][j][c]: component c at the corners (i, j), (i, j+1),
        # (i+1, j) and (i+1, j+1) of cell (i, j)
        cells = np.stack([v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:]], axis=-1).tolist()
        coords = self._point_coords

        def evaluate(x: float, y: float) -> list:
            c0, c1 = coords(x, y)
            i = min(max(bisect_right(ax0, c0) - 1, 0), last0)
            j = min(max(bisect_right(ax1, c1) - 1, 0), last1)
            a = (c0 - ax0[i]) / (ax0[i + 1] - ax0[i])
            b = (c1 - ax1[j]) / (ax1[j + 1] - ax1[j])
            w00, w01, w10, w11 = (1.0 - a) * (1.0 - b), (1.0 - a) * b, a * (1.0 - b), a * b
            return [w00 * p + w01 * q + w10 * r + w11 * s for p, q, r, s in cells[i][j]]

        return evaluate

    def sample_matrix(self, points: np.ndarray) -> sp.csr_matrix:
        """Sparse observation operator P of shape (n_points, n_nodes).

        Row i holds the bilinear weights of point i, so ``P @ values``
        evaluates the same interpolant as :meth:`interpolator` (including its
        linear extrapolation past the edges), and ``P @ F`` evaluates every
        column of an (n_nodes, k) stack at once.  Every row sums to one.
        """
        raise NotImplementedError


def _locate(coord: np.ndarray, nodes: np.ndarray, h: float):
    """Cell index and offset in cells on an axis of uniformly spaced nodes.

    The cell is found arithmetically and clipped to the first and last
    cells, so the offset leaves [0, 1] for points past an edge and the
    weights extrapolate linearly.  The offset is measured from the stored
    node coordinates, as ``RegularGridInterpolator`` measures it.
    """
    s = (coord - nodes[0]) / h
    cell = np.clip(np.floor(s, out=s), 0, nodes.size - 2, out=s).astype(np.int32)
    lo = nodes[cell]
    offset = np.subtract(coord, lo, out=s)
    offset /= nodes[cell + 1] - lo
    return cell, offset


def _bilinear_entries(row, row_step, a, col_lo, col_hi, b):
    """Node ids and weights of each point's four cell corners, shape (n, 4).

    The cell spans the flat row offsets ``row`` and ``row + row_step`` along
    axis 0, weighted 1 - a and a, and the axis-1 indices ``col_lo`` and
    ``col_hi``, weighted 1 - b and b.  Both arrays are filled in place, one
    column at a time, which keeps the memory of the build close to that of
    the matrix.
    """
    idx = np.empty((a.size, 4), dtype=np.int32)
    data = np.empty((a.size, 4))
    for c, (row_c, wa) in enumerate(((row, 1.0 - a), (row + row_step, a))):
        for d, (col, wb) in enumerate(((col_lo, 1.0 - b), (col_hi, b))):
            np.add(row_c, col, out=idx[:, 2 * c + d])
            np.multiply(wa, wb, out=data[:, 2 * c + d])
    return idx, data


def _four_point_csr(idx: np.ndarray, data: np.ndarray, n_nodes: int) -> sp.csr_matrix:
    """CSR matrix whose row i holds the four entries idx[i], data[i]."""
    n = idx.shape[0]
    indptr = np.arange(0, 4 * n + 1, 4, dtype=np.int32)
    return sp.csr_matrix((data.reshape(-1), idx.reshape(-1), indptr),
                         shape=(n, n_nodes))


class SquareGrid(Grid):
    """Uniform tensor grid on [1, 2] x [1, 2]."""

    def __init__(self, spec: DomainSpec):
        super().__init__(spec)
        nx, ny = spec.resolution
        self.shape = (nx, ny)
        self.xs = np.linspace(1.0, 2.0, nx)
        self.ys = np.linspace(1.0, 2.0, ny)
        self.hx = 1.0 / (nx - 1)
        self.hy = 1.0 / (ny - 1)
        X, Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        self.x = X.reshape(-1)
        self.y = Y.reshape(-1)

        wx = np.full(nx, self.hx)
        wx[[0, -1]] = self.hx / 2.0
        wy = np.full(ny, self.hy)
        wy[[0, -1]] = self.hy / 2.0
        self.quad_weights = np.outer(wx, wy).reshape(-1)

        bmask = np.zeros(self.shape, dtype=bool)
        bmask[0, :] = bmask[-1, :] = True
        bmask[:, 0] = bmask[:, -1] = True
        self.boundary_mask = bmask.reshape(-1)
        self._finalize()

    @property
    def h_mesh(self) -> float:
        return max(self.hx, self.hy)

    def boundary_distance(self) -> np.ndarray:
        return np.minimum.reduce([self.x - 1.0, 2.0 - self.x, self.y - 1.0, 2.0 - self.y])

    @staticmethod
    def _diff(v: np.ndarray, h: float, axis: int) -> np.ndarray:
        """Second-order first derivative, one-sided at the two edges."""
        v = np.moveaxis(v, axis, 0)
        d = np.empty_like(v)
        d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        return np.moveaxis(d, 0, axis)

    def gradient(self, values):
        v = self.reshape(values)
        gx = self._diff(v, self.hx, 0)
        gy = self._diff(v, self.hy, 1)
        return gx.reshape(-1), gy.reshape(-1)

    def divergence(self, vx, vy):
        fx = self._diff(self.reshape(vx), self.hx, 0)
        fy = self._diff(self.reshape(vy), self.hy, 1)
        return (fx + fy).reshape(-1)

    def laplacian_values(self, values):
        v = self.reshape(values)
        out = np.zeros_like(v)
        out[1:-1, 1:-1] = (
            (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / self.hx**2
            + (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / self.hy**2
        )
        return out.reshape(-1)

    def second_derivatives(self, values):
        v = self.reshape(values)
        fxx = np.zeros_like(v)
        fyy = np.zeros_like(v)
        fxy = np.zeros_like(v)
        fxx[1:-1, :] = (v[2:, :] - 2.0 * v[1:-1, :] + v[:-2, :]) / self.hx**2
        fyy[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / self.hy**2
        fxy[1:-1, 1:-1] = (
            v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]
        ) / (4.0 * self.hx * self.hy)
        return fxx.reshape(-1), fxy.reshape(-1), fyy.reshape(-1)

    def _tensor_values(self, values):
        vals = np.asarray(values, dtype=float)
        return (self.xs, self.ys), vals.reshape(self.shape + vals.shape[1:])

    def sample_matrix(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ny = self.shape[1]
        i, tx = _locate(pts[:, 0], self.xs, self.hx)
        j, ty = _locate(pts[:, 1], self.ys, self.hy)
        idx, data = _bilinear_entries(i * ny, ny, tx, j, j + 1, ty)
        return _four_point_csr(idx, data, self.n_nodes)


class DiskGrid(Grid):
    """Polar tensor grid on the unit disk.

    Radial nodes r_i = (i + 1/2) * dr with dr = 2 / (2 n_r - 1), so the first
    ring is half a cell away from the origin and the last ring lies exactly on
    r = 1 (the Dirichlet boundary).  The angular axis is periodic.  There is no
    node at the origin; point evaluation there uses the innermost ring average.
    """

    def __init__(self, spec: DomainSpec):
        super().__init__(spec)
        n_r, n_t = spec.resolution
        self.shape = (n_r, n_t)
        self.dr = 2.0 / (2 * n_r - 1)
        self.dt = 2.0 * math.pi / n_t
        self.rs = (np.arange(n_r) + 0.5) * self.dr
        self.ts = np.arange(n_t) * self.dt
        R, T = np.meshgrid(self.rs, self.ts, indexing="ij")
        self.r = R.reshape(-1)
        self.t = T.reshape(-1)
        self.x = self.r * np.cos(self.t)
        self.y = self.r * np.sin(self.t)

        # Exact annular sector areas, normalized by pi: the cells tile the
        # disk, so the weights sum to one up to rounding.
        a = np.maximum(self.rs - self.dr / 2.0, 0.0)
        b = np.minimum(self.rs + self.dr / 2.0, 1.0)
        ring_w = (b**2 - a**2) / 2.0 * self.dt / math.pi
        self.quad_weights = np.repeat(ring_w, n_t)

        bmask = np.zeros(self.shape, dtype=bool)
        bmask[-1, :] = True
        self.boundary_mask = bmask.reshape(-1)
        self._finalize()

    @property
    def h_mesh(self) -> float:
        return max(self.dr, self.dt)

    def boundary_distance(self) -> np.ndarray:
        return 1.0 - self.r

    def _polar_derivs(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dvr = np.empty_like(v)
        dvr[1:-1] = (v[2:] - v[:-2]) / (2.0 * self.dr)
        dvr[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * self.dr)
        dvr[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * self.dr)
        dvt = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * self.dt)
        return dvr, dvt

    def gradient(self, values):
        v = self.reshape(values)
        dvr, dvt = self._polar_derivs(v)
        R = self.rs[:, None]
        ct = np.cos(self.ts)[None, :]
        st = np.sin(self.ts)[None, :]
        gx = ct * dvr - st * dvt / R
        gy = st * dvr + ct * dvt / R
        return gx.reshape(-1), gy.reshape(-1)

    def divergence(self, vx, vy):
        ct = np.cos(self.ts)[None, :]
        st = np.sin(self.ts)[None, :]
        FX = self.reshape(vx)
        FY = self.reshape(vy)
        Fr = ct * FX + st * FY
        Ft = -st * FX + ct * FY
        dFr_r, _ = self._polar_derivs(Fr)
        _, dFt_t = self._polar_derivs(Ft)
        R = self.rs[:, None]
        out = dFr_r + Fr / R + dFt_t / R
        return out.reshape(-1)

    def laplacian_values(self, values):
        v = self.reshape(values)
        out = np.zeros_like(v)
        r_plus = self.rs + self.dr / 2.0
        r_minus = np.maximum(self.rs - self.dr / 2.0, 0.0)
        for i in range(self.shape[0] - 1):
            outer = r_plus[i] * (v[i + 1] - v[i])
            inner = r_minus[i] * (v[i] - v[i - 1]) if i > 0 else 0.0
            radial = (outer - inner) / (self.rs[i] * self.dr**2)
            ang = (np.roll(v[i], -1) - 2.0 * v[i] + np.roll(v[i], 1)) / (
                self.rs[i] ** 2 * self.dt**2
            )
            out[i] = radial + ang
        return out.reshape(-1)

    def second_derivatives(self, values):
        # Cartesian second derivatives by composing the first-derivative
        # stencils; adequate as an H^2 proxy on the polar grid.
        gx, gy = self.gradient(values)
        gxx, gxy1 = self.gradient(gx)
        gyx, gyy = self.gradient(gy)
        fxy = 0.5 * (np.asarray(gxy1) + np.asarray(gyx))
        return gxx, fxy, gyy

    def _tensor_values(self, values):
        vals = np.asarray(values, dtype=float)
        v = vals.reshape(self.shape + vals.shape[1:])
        # augment with the origin (ring average) and a periodic wrap column
        v_aug = np.empty((self.shape[0] + 1, self.shape[1] + 1) + vals.shape[1:])
        v_aug[1:, :-1] = v
        v_aug[1:, -1] = v[:, 0]
        v_aug[0, :] = v[0].mean(axis=0)
        axes = (np.concatenate([[0.0], self.rs]), np.append(self.ts, 2.0 * math.pi))
        return axes, v_aug

    def _axis_points(self, pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        t = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
        return np.column_stack([r, t])

    @staticmethod
    def _point_coords(x, y):
        return math.hypot(x, y), math.atan2(y, x) % (2.0 * math.pi)

    def sample_matrix(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n_t = self.shape[1]
        r = np.hypot(pts[:, 0], pts[:, 1])
        t = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)
        # n_t angular cells; the last one closes the seam at 2 pi onto column 0
        j, s = _locate(t, np.append(self.ts, 2.0 * math.pi), self.dt)
        j1 = np.where(j == n_t - 1, 0, j + 1).astype(np.int32)
        k, a = _locate(r, self.rs, self.dr)
        idx, data = _bilinear_entries(k * n_t, n_t, a, j, j1, s)
        in_origin = r < self.rs[0]
        origin = np.flatnonzero(in_origin)
        if origin.size == 0:
            return _four_point_csr(idx, data, self.n_nodes)
        # In the origin cell the inner corner is the augmented origin node of
        # ``interpolator``, the ring-0 average: its weight 1 - a0 spreads as
        # (1 - a0) / n_t over all of ring 0, so those rows get n_t entries:
        # the first four take the row's own slots, the rest are inserted.
        a0 = r[origin] / self.rs[0]
        s0 = s[origin]
        ring0 = np.repeat(((1.0 - a0) / n_t)[:, None], n_t, axis=1)
        rows = np.arange(origin.size)
        ring0[rows, j[origin]] += a0 * (1.0 - s0)
        ring0[rows, j1[origin]] += a0 * s0
        idx[origin] = np.arange(4)
        data[origin] = ring0[:, :4]
        at = np.repeat(4 * origin + 4, n_t - 4)
        indices = np.insert(idx.reshape(-1), at,
                            np.tile(np.arange(4, n_t, dtype=np.int32), origin.size))
        data = np.insert(data.reshape(-1), at, ring0[:, 4:].reshape(-1))
        indptr = 4 * np.arange(r.size + 1, dtype=np.int32)
        indptr[1:] += (n_t - 4) * np.cumsum(in_origin, dtype=np.int32)
        return sp.csr_matrix((data, indices, indptr), shape=(r.size, self.n_nodes))


def build_grid(spec: DomainSpec | None = None, *, kind=None, resolution=None) -> Grid:
    """Construct the grid for a domain spec (or ``kind`` plus ``resolution``)."""
    if spec is None:
        spec = DomainSpec(DomainKind(kind), resolution)
    if spec.kind is DomainKind.SQUARE:
        return SquareGrid(spec)
    return DiskGrid(spec)


# -- discrete calculus on fields ------------------------------------------


def _check_same_grid(f: ScalarField, g: ScalarField):
    if f.grid is not g.grid:
        raise ValueError("fields live on different grids")


def inner_l2(f: ScalarField, g: ScalarField) -> float:
    """Inner product in L^2 of the normalized sampling measure."""
    _check_same_grid(f, g)
    return float(np.sum(f.grid.quad_weights * f.values * g.values))


def norm_l2(f: ScalarField) -> float:
    return math.sqrt(max(inner_l2(f, f), 0.0))


def grad(f: ScalarField) -> VectorField:
    gx, gy = f.grid.gradient(f.values)
    return VectorField(f.grid, gx, gy)


def div(F: VectorField) -> ScalarField:
    return ScalarField(F.grid, F.grid.divergence(F.vx, F.vy))


def laplacian(f: ScalarField) -> ScalarField:
    """Compact discrete Laplacian; valid at interior nodes, zero on the boundary."""
    return ScalarField(f.grid, f.grid.laplacian_values(f.values))


def sobolev_norm(f: ScalarField, order: int) -> float:
    """Discrete Sobolev norm of integer order 0, 1 or 2.

    Orders 0 and 1 integrate over all nodes (edge derivatives are one-sided).
    The order-2 terms use second differences at interior nodes only, which
    avoids biased one-sided second-derivative closures at the boundary.
    """
    if order not in (0, 1, 2):
        raise ValueError("sobolev_norm supports orders 0, 1, 2")
    g = f.grid
    total = inner_l2(f, f)
    if order >= 1:
        gx, gy = g.gradient(f.values)
        total += float(np.sum(g.quad_weights * (gx**2 + gy**2)))
    if order == 2:
        fxx, fxy, fyy = g.second_derivatives(f.values)
        w_int = g.quad_weights[g.interior_ids]
        ids = g.interior_ids
        total += float(
            np.sum(w_int * (fxx[ids] ** 2 + fxy[ids] ** 2 + fyy[ids] ** 2))
        )
    return math.sqrt(max(total, 0.0))


def make_bump(grid: Grid, center, radius: float, amplitude: float = 1.0) -> ScalarField:
    """Smooth mollifier bump: amplitude * exp(-1 / (1 - s^2)), s = |x - c| / radius.

    The support ball must stay at least COLLAR_CELLS mesh cells away from the
    domain boundary so the bump is an admissible compactly supported field.
    """
    cx, cy = float(center[0]), float(center[1])
    if radius <= 0:
        raise ValueError("bump radius must be positive")
    margin = COLLAR_CELLS * grid.h_mesh
    if grid.spec.kind is DomainKind.SQUARE:
        clearance = min(cx - 1.0, 2.0 - cx, cy - 1.0, 2.0 - cy) - radius
    else:
        clearance = 1.0 - (math.hypot(cx, cy) + radius)
    if clearance + 1e-12 < margin:
        raise ValueError(
            f"bump support (center {center}, radius {radius}) leaves clearance "
            f"{clearance:.4g} to the boundary; need at least {margin:.4g} "
            f"({COLLAR_CELLS} mesh cells)"
        )
    s2 = ((grid.x - cx) ** 2 + (grid.y - cy) ** 2) / radius**2
    vals = np.zeros(grid.n_nodes)
    inside = s2 < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        vals[inside] = amplitude * np.exp(-1.0 / (1.0 - s2[inside]))
    return ScalarField(grid, vals)


def random_smooth_field(
    grid: Grid,
    rng: np.random.Generator | int,
    kmax: int = 8,
    decay: float = 3.0,
    apply_collar: bool = True,
) -> ScalarField:
    """Random smooth field from a truncated double-sine series.

    Coefficients are standard Gaussians damped by (k^2 + l^2)^(-decay/2), so
    realizations are smooth at the grid scale; with ``apply_collar`` the field
    is zeroed on the boundary collar to mimic compact support.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if grid.spec.kind is DomainKind.SQUARE:
        X = grid.x - 1.0
        Y = grid.y - 1.0
    else:
        X = (grid.x + 1.0) / 2.0
        Y = (grid.y + 1.0) / 2.0
    ks = np.arange(1, kmax + 1)
    coef = rng.standard_normal((kmax, kmax))
    damp = (ks[:, None] ** 2 + ks[None, :] ** 2) ** (-decay / 2.0)
    coef = coef * damp
    SX = np.sin(np.pi * ks[:, None] * X[None, :])
    SY = np.sin(np.pi * ks[:, None] * Y[None, :])
    vals = np.einsum("kl,kn,ln->n", coef, SX, SY, optimize=True)
    if apply_collar:
        vals = vals.copy()
        vals[grid.collar_mask] = 0.0
    return ScalarField(grid, vals)
