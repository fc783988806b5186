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
edges.

``Grid.faces`` is the grid's one face stencil: the flux faces of every
interior node (the 5-point stencil on the square, a polar flux form on the
disk whose innermost face sits at r = 0 and carries no flux, which kills the
coordinate singularity at the origin) and the interior CSR pattern they
fill.  The elliptic operator K, the source operator T and the compact
Laplacian are sums over these faces with theta, h or 1 on each face.

Point evaluation is bilinear on both grids, in grid coordinates: (x, y) on
the square, (r, theta) on the disk, whose tensor axes gain a ring at r = 0
holding the ring-0 mean and a seam column at theta = 2 pi.
``Grid.interpolator(F)`` prepares the per-cell coefficients of a nodal
stack F once and returns a plain function of (n, 2) grid coordinates; a call
locates the cells arithmetically and evaluates every column with one sparse
product.  ``Grid.grid_coords`` converts Cartesian points for callers that
hold them (the curve tracer, curve integrals, the score); the Monte Carlo
draws its design in grid coordinates and skips the round trip.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp

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


@dataclass(frozen=True)
class FaceSet:
    """Flux faces of all interior nodes and the interior CSR pattern they fill.

    Face k contributes ``a_k * geom[k] * (v[nb[k]] - v[center[k]])`` at
    ``center[k]`` to a divergence-form operator with coefficient a on the
    face.  ``diag[k]`` is the slot of (center, center) in the pattern
    (``indptr``, ``indices``, interior numbering, sorted columns) and
    ``off[k]`` the slot of (center, nb).  When nb is a boundary node,
    ``off[k]`` is instead the slot of (center, inward), inward being the node
    one step beyond center away from nb: a coefficient field is extrapolated
    linearly to the boundary through it, h_b = 2 h_center - h_inward.  That
    node is an interior neighbour of center, so the pattern is the same with
    or without extrapolation.  Every array is read-only and matrices filled
    by :meth:`fill` share ``indptr`` and ``indices``.
    """

    center: np.ndarray
    nb: np.ndarray
    geom: np.ndarray
    nb_is_boundary: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    diag: np.ndarray
    off: np.ndarray

    def fill(self, slots: np.ndarray, values: np.ndarray) -> sp.csr_matrix:
        """The matrix on the pattern whose entry at each slot sums, in
        order, the values given for that slot."""
        data = np.bincount(slots, values, minlength=self.indices.size)
        m = self.indptr.size - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(m, m))


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
        # kmax -> (SX, SY) sine tables of random_smooth_field
        self._sine_tables: dict[int, tuple] = {}
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

    def boundary_distance(self, points: np.ndarray | None = None) -> np.ndarray:
        """Distance to the boundary of each node, or of (n, 2) points (negative
        outside the domain)."""
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

    def _face_steps(self) -> Iterable[tuple[int, int, np.ndarray | float]]:
        """The face of each interior node (i, j) towards (i + d0, j + d1),
        as (d0, d1, geom): geom is a scalar or one value per interior node.
        Axis 1 wraps; a face past axis 0's start is dropped."""
        raise NotImplementedError

    @cached_property
    def faces(self) -> FaceSet:
        """The face stencil of :class:`FaceSet`, built once per grid.  Faces
        run step by step; each node's faces keep the order of the steps."""
        n1, m = self.shape[1], self.n_interior
        I, J = np.divmod(self.interior_ids, n1)
        D0, D1, G = zip(*self._face_steps())
        d0, d1 = np.array(D0)[:, None], np.array(D1)[:, None]
        valid = I + d0 >= 0  # (steps, m), as are the arrays below
        nb = np.where(valid, (I + d0) * n1 + (J + d1) % n1, 0)
        inward = (I - d0) * n1 + (J - d1) % n1
        on_boundary = self.boundary_mask[nb]
        # each row's columns in ascending order, padded with m: the row itself
        # and its interior neighbours; a slot is the row start plus the
        # number of the row's columns below the slot's column
        rows = np.broadcast_to(np.arange(m), valid.shape)
        nb_col = np.where(valid & ~on_boundary, self.interior_index[nb], m)
        table = np.sort(np.vstack([rows[:1], nb_col]), axis=0)
        indptr = np.concatenate([[0], np.cumsum(np.sum(table < m, axis=0))])
        col = self.interior_index[np.where(on_boundary, inward, nb)]
        diag, off = ((indptr[:-1] + np.sum(table[:, None] < c, axis=0))[valid].astype(np.int32)
                     for c in (rows, col))
        fs = FaceSet(np.broadcast_to(self.interior_ids, valid.shape)[valid], nb[valid],
                     np.array([np.broadcast_to(g, (m,)) for g in G])[valid],
                     on_boundary[valid], indptr.astype(np.int32),
                     table.T[table.T < m].astype(np.int32), diag, off)
        for arr in vars(fs).values():
            arr.setflags(write=False)
        return fs

    def laplacian_values(self, values: np.ndarray) -> np.ndarray:
        """The face sum of geom * (v[nb] - v[center]): the theta = 1
        operator at interior nodes, zero on the boundary."""
        fs = self.faces
        v = np.asarray(values, dtype=float).reshape(-1)
        return np.bincount(fs.center, fs.geom * (v[fs.nb] - v[fs.center]),
                           minlength=self.n_nodes)

    def second_derivatives(self, values):
        raise NotImplementedError

    def grid_coords(self, points: np.ndarray) -> np.ndarray:
        """Grid coordinates of (n, 2) Cartesian points, as ``interpolator``
        takes them: (x, y) on the square, (r, theta) on the disk."""
        raise NotImplementedError

    def _tensor_axes(self, values: np.ndarray):
        """The two interpolation axes, each as (nodes, origin, h): cell k
        spans nodes[k] to nodes[k + 1] and holds the coordinates c with
        floor((c - origin) / h) = k; and the nodal values on the axes, shape
        (len(axis0), len(axis1)) + values.shape[1:]."""
        raise NotImplementedError

    def interpolator(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Bilinear interpolant of nodal values (or an (n_nodes, k) stack),
        extrapolated linearly past the edges, as a callable on (n, 2) grid
        coordinates (``grid_coords`` converts Cartesian points).

        The build stores per cell the coefficients (a, b, c, d) of
        f = a + b s + c t + d s t in the cell's offsets s, t in [0, 1]; a
        call locates each point's cell arithmetically, clipped to the edge
        cells, and evaluates every column with one sparse product whose row
        i is [1, s_i, t_i, s_i t_i] against the four table rows of its cell.
        """
        vals = np.asarray(values, dtype=float)
        axes, v = self._tensor_axes(vals)
        v00, v10, v01, v11 = v[:-1, :-1], v[1:, :-1], v[:-1, 1:], v[1:, 1:]
        table = np.stack([v00, v10 - v00, v01 - v00, (v11 - v10) - (v01 - v00)], axis=2)
        table = table.reshape((-1,) + vals.shape[1:])
        cells = [(nodes, np.diff(nodes), origin, h) for nodes, origin, h in axes]
        m1 = cells[1][1].size

        def interpolate(coords: np.ndarray) -> np.ndarray:
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            n = coords.shape[0]
            rows = np.empty((n, 4))
            rows[:, 0] = 1.0
            k = []
            for ax, (nodes, widths, origin, h) in enumerate(cells):
                c = coords[:, ax]
                # truncating the clipped position is flooring it, then clipping
                x = np.subtract(c, origin)
                x /= h
                k.append(np.clip(x, 0, widths.size - 1, out=x).astype(np.intp))
                s = np.subtract(c, nodes.take(k[-1]), out=rows[:, 1 + ax])
                s /= widths.take(k[-1])
            np.multiply(rows[:, 1], rows[:, 2], out=rows[:, 3])
            col = np.multiply(k[0] * m1 + k[1], 4, dtype=np.int32)
            P = sp.csr_matrix((rows.reshape(-1),
                               np.stack([col, col + 1, col + 2, col + 3], axis=1).reshape(-1),
                               np.arange(0, 4 * n + 1, 4, dtype=np.int32)),
                              shape=(n, table.shape[0]))
            return P @ table

        return interpolate


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

    def boundary_distance(self, points=None):
        x, y = (self.x, self.y) if points is None else points.T
        return np.minimum.reduce([x - 1.0, 2.0 - x, y - 1.0, 2.0 - y])

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

    def _face_steps(self):
        gx, gy = 1.0 / self.hx**2, 1.0 / self.hy**2
        return ((-1, 0, gx), (1, 0, gx), (0, -1, gy), (0, 1, gy))

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

    def grid_coords(self, points):
        return np.asarray(points, dtype=float)

    def _tensor_axes(self, values):
        axes = ((self.xs, 1.0, self.hx), (self.ys, 1.0, self.hy))
        return axes, values.reshape(self.shape + values.shape[1:])


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

    def boundary_distance(self, points=None):
        return 1.0 - (self.r if points is None else np.hypot(points[:, 0], points[:, 1]))

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

    def _face_steps(self):
        # radial faces at r_{i +- 1/2} (none at r = 0) and periodic angular faces
        rs = self.rs[self.interior_ids // self.shape[1]]
        g_ang = 1.0 / (rs**2 * self.dt**2)
        return ((1, 0, (rs + self.dr / 2.0) / (rs * self.dr**2)),
                (-1, 0, (rs - self.dr / 2.0) / (rs * self.dr**2)),
                (0, -1, g_ang), (0, 1, g_ang))

    def second_derivatives(self, values):
        # Cartesian second derivatives by composing the first-derivative
        # stencils; adequate as an H^2 proxy on the polar grid.
        gx, gy = self.gradient(values)
        gxx, gxy1 = self.gradient(gx)
        gyx, gyy = self.gradient(gy)
        fxy = 0.5 * (np.asarray(gxy1) + np.asarray(gyx))
        return gxx, fxy, gyy

    def grid_coords(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.column_stack([np.hypot(pts[:, 0], pts[:, 1]),
                                np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * math.pi)])

    def _tensor_axes(self, values):
        # a ring at r = 0 holding the ring-0 mean, so the origin cell is an
        # ordinary cell, and a seam column at theta = 2 pi repeating column 0;
        # the mean sums in node order, so a stacked column matches its scalar
        # interpolant bit for bit
        v = values.reshape(self.shape + values.shape[1:])
        mean = v[0].cumsum(axis=0)[-1] / self.shape[1]
        v = np.concatenate([np.broadcast_to(mean, v[:1].shape), v])
        v = np.concatenate([v, v[:, :1]], axis=1)
        return ((np.concatenate([[0.0], self.rs]), -self.dr / 2.0, self.dr),
                (np.append(self.ts, 2.0 * math.pi), 0.0, self.dt)), v


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
    clearance = grid.boundary_distance(np.array([[cx, cy]]))[0] - radius
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
    is zeroed on the boundary collar to mimic compact support.  The sine
    tables are built once per grid and ``kmax``.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    ks = np.arange(1, kmax + 1)
    coef = rng.standard_normal((kmax, kmax))
    damp = (ks[:, None] ** 2 + ks[None, :] ** 2) ** (-decay / 2.0)
    coef = coef * damp
    if kmax not in grid._sine_tables:
        if grid.spec.kind is DomainKind.SQUARE:
            X, Y = grid.x - 1.0, grid.y - 1.0
        else:
            X, Y = (grid.x + 1.0) / 2.0, (grid.y + 1.0) / 2.0
        grid._sine_tables[kmax] = tuple(np.sin(np.pi * ks[:, None] * Z[None, :])
                                        for Z in (X, Y))
    SX, SY = grid._sine_tables[kmax]
    vals = ((coef.T @ SX) * SY).sum(axis=0)
    if apply_collar:
        vals[grid.collar_mask] = 0.0
    return ScalarField(grid, vals)
