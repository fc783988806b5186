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

``Grid.faces`` is the grid's one face stencil, built one face step at a
time: the flux faces of every interior node (the 5-point stencil on the
square, a polar flux form on the disk whose innermost face sits at r = 0 and
carries no flux, which kills the coordinate singularity at the origin) and
the interior CSR pattern they fill.  K, T and the compact Laplacian are sums
over these faces with theta, h or 1 on each face, K and T filled by parts.

Point evaluation is bilinear on both grids, in grid coordinates: (x, y) on
the square, (r, theta) on the disk, whose tensor axes gain a ring at r = 0
holding the ring-0 mean and a seam column at theta = 2 pi.
``Grid.cell_table(F)`` holds the per-cell bilinear coefficients of a nodal
stack F and ``Grid.locate`` finds the cells of (n, 2) grid coordinates
arithmetically, with the offsets in them (on the square's dyadic axes with
no gather, bit for bit).  ``Grid.interpolator(F)`` builds the table once
and returns a plain function of grid coordinates; a call locates the points
once and gathers each column in place from its cells' four coefficients.
``Grid.grid_coords`` converts Cartesian points for callers that hold them
(the curve tracer, curve integrals, the score); the Monte Carlo draws its
design in grid coordinates and skips the round trip.
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


class ConfigError(ValueError):
    """A caller's parameter that the library rejects; the CLI exits 2 on it."""


def require_finite(values: np.ndarray, what: str) -> None:
    """Refuse NaN or infinite ``values`` of ``what`` as a :class:`ConfigError`."""
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what} contains non-finite values")


class DomainKind(str, enum.Enum):
    SQUARE = "square_shifted"
    DISK = "unit_disk"


def _normalize_resolution(kind: DomainKind, resolution) -> tuple[int, int]:
    if isinstance(resolution, (int, np.integer)):
        res = (int(resolution), int(resolution))
    else:
        res = tuple(int(r) for r in resolution)
        if len(res) != 2:
            raise ConfigError(f"resolution must be an int or a pair, got {resolution!r}")
    if min(res) < MIN_RESOLUTION:
        raise ConfigError(
            f"resolution {res} below minimum {MIN_RESOLUTION} nodes per axis"
        )
    return res


@dataclass(frozen=True)
class DomainSpec:
    """Immutable description of a computational domain.

    ``resolution`` is ``(nx, ny)`` node counts for the square and
    ``(n_r, n_theta)`` for the disk.  A bare int is accepted and applied to
    both axes.
    """

    kind: DomainKind
    resolution: tuple[int, int]

    def __post_init__(self):
        kind = DomainKind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "resolution", _normalize_resolution(kind, self.resolution))


@dataclass
class ScalarField:
    """Nodal scalar values on a grid, or an (n_nodes, k) stack of k fields."""

    grid: "Grid"
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape == self.grid.shape:
            self.values = self.values.reshape(-1)
        if self.values.shape[:1] != (self.grid.n_nodes,) or self.values.ndim > 2:
            raise ValueError(
                f"field has {self.values.shape} values for a grid with "
                f"{self.grid.n_nodes} nodes"
            )


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


@dataclass(frozen=True)
class FaceSet:
    """Flux faces of all interior nodes, step-major, and the CSR pattern they fill.

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

    def fill(self, *parts: tuple[np.ndarray, np.ndarray]) -> sp.csr_matrix:
        """The matrix on the pattern whose slots sum, in order, the values of
        the (slots, values) parts, each added in place in runs of rising
        slots: no part is copied and no second data array is made."""
        data = np.zeros(self.indices.size)
        for slots, values in parts:
            ends = [0, *(np.flatnonzero(np.diff(slots) <= 0) + 1), slots.size]
            for a, b in zip(ends, ends[1:]):
                data[slots[a:b]] += values[a:b]
        m = self.indptr.size - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(m, m))


def _diff(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative along ``axis``, one-sided at its two
    edges: the square's x and y derivatives and the disk's radial one."""
    v = np.moveaxis(v, axis, 0)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(d, 0, axis)


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

    def reshape(self, values: np.ndarray) -> np.ndarray:
        """Node values, or an (n_nodes, k) stack, on the tensor shape."""
        return np.reshape(values, self.shape + np.shape(values)[1:])

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
        """Scatter interior values (or an (n_interior, k) stack), zero boundary."""
        interior_values = np.asarray(interior_values, dtype=float)
        if interior_values.shape[:1] != (self.n_interior,):
            raise ValueError("interior vector has wrong length")
        vals = np.zeros((self.n_nodes,) + interior_values.shape[1:])
        vals[self.interior_ids] = interior_values
        return ScalarField(self, vals)

    def restrict(self, field: ScalarField | np.ndarray) -> np.ndarray:
        vals = field.values if isinstance(field, ScalarField) else np.asarray(field)
        return vals[self.interior_ids]

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
        """The face stencil of :class:`FaceSet`, built once per grid, step by
        step into its arrays at their final size; each node's faces keep the
        order of the steps.  Beside the set the build holds a (steps + 1, m)
        int32 column table and one step's m-long temporaries."""
        n1, m = self.shape[1], self.n_interior
        I, J = np.divmod(self.interior_ids, n1)
        steps = tuple(self._face_steps())
        # the nodes with a face in a step are a suffix of the nodes, as I is sorted
        ends = np.cumsum([0] + [np.count_nonzero(I + d0 >= 0) for d0, _, _ in steps])
        spans = [(slice(a, b), slice(m - (b - a), m)) for a, b in zip(ends, ends[1:])]
        center, nb, geom, on_boundary, diag, off = (
            np.empty(ends[-1], t) for t in (np.intp, np.intp, float, bool, np.int32, np.int32))
        # table row 0 holds each node's own column, row k + 1 its step-k neighbour's
        # or m; off holds the column of each face's slot until the table is sorted
        table = np.full((len(steps) + 1, m), m, np.int32)
        table[0] = rows = np.arange(m, dtype=np.int32)
        for k, ((d0, d1, g), (s, v)) in enumerate(zip(steps, spans)):
            center[s], geom[s] = self.interior_ids[v], np.broadcast_to(g, (m,))[v]
            nb[s] = ((I + d0) * n1 + (J + d1) % n1)[v]
            on_boundary[s] = self.boundary_mask[nb[s]]
            inward = ((I - d0) * n1 + (J - d1) % n1)[v]
            off[s] = self.interior_index[np.where(on_boundary[s], inward, nb[s])]
            table[k + 1, v] = np.where(on_boundary[s], m, off[s])
        # sorted, each table column lists its node's CSR columns in order; a
        # slot is its row's start plus the row's columns below its column
        table.sort(axis=0)
        indptr = np.zeros(m + 1, np.int32)
        indptr[1:] = np.cumsum(sum(row < m for row in table))
        for s, v in spans:
            for slots, col in ((diag[s], rows[v]), (off[s], off[s].copy())):
                slots[:] = indptr[:-1][v] + sum(row[v] < col for row in table)
        fs = FaceSet(center, nb, geom, on_boundary, indptr, table.T[table.T < m], diag, off)
        for arr in vars(fs).values():
            arr.setflags(write=False)
        return fs

    def laplacian_values(self, values: np.ndarray) -> np.ndarray:
        """The face sum of geom * (v[nb] - v[center]), a stack column by
        column: the theta = 1 operator at interior nodes, zero on the boundary."""
        fs, v = self.faces, np.asarray(values, dtype=float)
        return np.stack([np.bincount(fs.center, fs.geom * (c[fs.nb] - c[fs.center]),
                                     minlength=self.n_nodes)
                         for c in v.reshape(v.shape[0], -1).T], axis=-1).reshape(v.shape)

    def second_derivatives(self, values):
        raise NotImplementedError

    def grid_coords(self, points: np.ndarray) -> np.ndarray:
        """Grid coordinates of (n, 2) Cartesian points, as ``interpolator``
        takes them: (x, y) on the square, (r, theta) on the disk."""
        raise NotImplementedError

    def _tensor_axes(self):
        """The two interpolation axes, each as (nodes, origin, h): cell k
        spans nodes[k] to nodes[k + 1] and holds the coordinates c with
        floor((c - origin) / h) = k."""
        raise NotImplementedError

    def _tensor_values(self, values: np.ndarray) -> np.ndarray:
        """The nodal values on the interpolation axes, shape
        (len(axis0), len(axis1)) + values.shape[1:]."""
        raise NotImplementedError

    @cached_property
    def _cells(self):
        """Per axis (nodes, widths, origin, h, dyadic) of the interpolation
        cells; dyadic: h is a power of two, nodes origin + k h and widths h
        bit for bit, as on the square at 2^m + 1 nodes, not on the disk."""
        cells = []
        for nodes, origin, h in self._tensor_axes():
            widths = np.diff(nodes)
            dyadic = (math.frexp(h)[0] == 0.5 and bool(np.all(widths == h))
                      and np.array_equal(nodes, origin + np.arange(nodes.size) * h))
            cells.append((nodes, widths, origin, h, dyadic))
        return tuple(cells)

    def locate(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cells of (n, 2) grid coordinates and the offsets in them, as
        (cell, s, t): cell is the flat index of a row of :meth:`cell_table`,
        found arithmetically and clipped to the edge cells, and s, t are the
        offsets along the two axes, in [0, 1] inside the cell and beyond it
        past the edges.  On a dyadic axis the offset (c - nodes[k]) / widths[k]
        is x - k, x = (c - origin) / h, bit for bit: dividing by h is exact,
        in cell 0 both are x, and past it the square's c - 1 is exact, so
        both round (c - origin - k h) / h once."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        k, offsets = [], []
        for ax, (nodes, widths, origin, h, dyadic) in enumerate(self._cells):
            c = coords[:, ax]
            # truncating the clipped x floors it, then clips; a dyadic offset needs x as is
            x = np.subtract(c, origin)
            x /= h
            k.append(np.clip(x, 0, widths.size - 1, out=None if dyadic else x).astype(np.intp))
            if dyadic:
                x -= k[-1]
            else:
                x = np.subtract(c, nodes.take(k[-1]))
                x /= widths.take(k[-1])
            offsets.append(x)
        return (k[0] * self._cells[1][1].size + k[1], *offsets)

    def cell_table(self, values: np.ndarray) -> np.ndarray:
        """Per cell the coefficients (a, b, c, d) of the bilinear interpolant
        f = a + b s + c t + d s t of nodal values (or an (n_nodes, k) stack)
        in the cell's offsets s, t: shape (cells, 4) + values.shape[1:]."""
        vals = np.asarray(values, dtype=float)
        v = self._tensor_values(vals)
        v00, v10, v01, v11 = v[:-1, :-1], v[1:, :-1], v[:-1, 1:], v[1:, 1:]
        table = np.stack([v00, v10 - v00, v01 - v00, (v11 - v10) - (v01 - v00)], axis=2)
        return table.reshape((-1, 4) + vals.shape[1:])

    def interpolator(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Bilinear interpolant of nodal values (or an (n_nodes, k) stack),
        extrapolated linearly past the edges, as a callable on (n, 2) grid
        coordinates (``grid_coords`` converts Cartesian points).

        The build stores each column's :meth:`cell_table` coefficients as
        four contiguous arrays; a call runs :meth:`locate` once and gathers
        every column in place as a + s b + t c + (s t) d at the points'
        cells, summed in that order.
        """
        table = self.cell_table(values)
        tail = table.shape[2:]
        coefs = np.ascontiguousarray(table.reshape(table.shape[:2] + (-1,)).transpose(2, 1, 0))

        def interpolate(coords: np.ndarray) -> np.ndarray:
            cell, s, t = self.locate(coords)
            weights, out = (s, t, s * t), np.empty((s.size, coefs.shape[0]))
            column, term = np.empty(s.size), np.empty(s.size)
            for j, (a, *bcd) in enumerate(coefs):
                # the cells are in range; "clip" spares take's buffered out
                a.take(cell, out=column, mode="clip")
                for w, b in zip(weights, bcd):
                    column += np.multiply(w, b.take(cell, out=term, mode="clip"), out=term)
                out[:, j] = column
            return out.reshape(s.shape + tail)

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

    def gradient(self, values):
        v = self.reshape(values)
        return tuple(_diff(v, h, ax).reshape(np.shape(values))
                     for ax, h in ((0, self.hx), (1, self.hy)))

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
        return tuple(d.reshape(np.shape(values)) for d in (fxx, fxy, fyy))

    def grid_coords(self, points):
        return np.asarray(points, dtype=float)

    def _tensor_axes(self):
        return (self.xs, 1.0, self.hx), (self.ys, 1.0, self.hy)

    def _tensor_values(self, values):
        return values.reshape(self.shape + values.shape[1:])


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
        self._trig = np.cos(self.ts)[None, :], np.sin(self.ts)[None, :]  # for gradient
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

    def gradient(self, values):
        v = self.reshape(values)
        dvr = _diff(v, self.dr, 0)
        dvt = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * self.dt)
        tail = (1,) * (v.ndim - 2)
        R, ct, st = (a.reshape(a.shape + tail) for a in (self.rs[:, None], *self._trig))
        gx = ct * dvr - st * dvt / R
        gy = st * dvr + ct * dvt / R
        return gx.reshape(np.shape(values)), gy.reshape(np.shape(values))

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

    def _tensor_axes(self):
        # a ring at r = 0 holding the ring-0 mean, so the origin cell is an
        # ordinary cell, and a seam column at theta = 2 pi repeating column 0
        return ((np.concatenate([[0.0], self.rs]), -self.dr / 2.0, self.dr),
                (np.append(self.ts, 2.0 * math.pi), 0.0, self.dt))

    def _tensor_values(self, values):
        # the mean sums in node order, so a stacked column matches its scalar
        # interpolant bit for bit
        v = values.reshape(self.shape + values.shape[1:])
        mean = v[0].cumsum(axis=0)[-1] / self.shape[1]
        v = np.concatenate([np.broadcast_to(mean, v[:1].shape), v])
        return np.concatenate([v, v[:, :1]], axis=1)


def build_grid(spec: DomainSpec) -> Grid:
    """Construct the grid for a domain spec."""
    if spec.kind is DomainKind.SQUARE:
        return SquareGrid(spec)
    return DiskGrid(spec)


# -- discrete calculus on fields ------------------------------------------


def _check_same_grid(f: ScalarField, g: ScalarField):
    if f.grid is not g.grid:
        raise ValueError("fields live on different grids")


def _node_sum(terms: np.ndarray):
    """Sum of (n,) terms, or per row of (k, n) terms, each row contiguous as
    in the 1-D sum: a stack's columns match single fields bit for bit."""
    total = np.ascontiguousarray(terms).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def inner_l2(f: ScalarField, g: ScalarField):
    """Inner product in L^2 of the normalized sampling measure (per column)."""
    _check_same_grid(f, g)
    return _node_sum(f.grid.quad_weights * f.values.T * g.values.T)


def norm_l2(f: ScalarField):
    return sobolev_norm(f, 0)


def laplacian(f: ScalarField) -> ScalarField:
    """Compact discrete Laplacian; valid at interior nodes, zero on the boundary."""
    return ScalarField(f.grid, f.grid.laplacian_values(f.values))


def sobolev_norm(f: ScalarField, order: int):
    """Discrete Sobolev norm of integer order 0, 1 or 2 (per column).

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
        total += _node_sum(g.quad_weights * (gx.T**2 + gy.T**2))
    if order == 2:
        ids = g.interior_ids
        fxx, fxy, fyy = (d[ids].T for d in g.second_derivatives(f.values))
        total += _node_sum(g.quad_weights[ids] * (fxx**2 + fxy**2 + fyy**2))
    norm = np.sqrt(np.maximum(total, 0.0))
    return float(norm) if norm.ndim == 0 else norm


def _support_s2(grid: Grid, center, radius: float, what: str) -> np.ndarray:
    """Squared distance of each node to ``center`` in units of ``radius``, for
    a ``what`` supported on that ball, which must stay at least COLLAR_CELLS
    mesh cells away from the domain boundary."""
    cx, cy = float(center[0]), float(center[1])
    if not radius > 0:  # NaN included
        raise ConfigError(f"{what} radius must be positive")
    margin = COLLAR_CELLS * grid.h_mesh
    clearance = grid.boundary_distance(np.array([[cx, cy]]))[0] - radius
    if not clearance + 1e-12 >= margin:  # a NaN center fails too
        raise ConfigError(
            f"{what} support (center {center}, radius {radius}) leaves clearance "
            f"{clearance:.4g} to the boundary; need at least {margin:.4g} "
            f"({COLLAR_CELLS} mesh cells)"
        )
    return ((grid.x - cx) ** 2 + (grid.y - cy) ** 2) / radius**2


def make_bump(grid: Grid, center, radius: float, amplitude: float = 1.0) -> ScalarField:
    """Smooth mollifier bump: amplitude * exp(-1 / (1 - s^2)), s = |x - c| / radius,
    an admissible compactly supported field (:func:`_support_s2`)."""
    if not math.isfinite(amplitude):
        raise ConfigError(f"bump amplitude must be finite, got {amplitude}")
    s2 = _support_s2(grid, center, radius, "bump")
    vals = np.zeros(grid.n_nodes)
    inside = s2 < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        vals[inside] = amplitude * np.exp(-1.0 / (1.0 - s2[inside]))
    return ScalarField(grid, vals)


def random_smooth_field(
    grid: Grid,
    rng: np.random.Generator | int,
    kmax: int = 8,
    apply_collar: bool = True,
    size: int | None = None,
) -> ScalarField:
    """Random smooth field from a truncated double-sine series.

    Coefficients are standard Gaussians damped by (k^2 + l^2)^(-3/2), so
    realizations are smooth at the grid scale; with ``apply_collar`` the field
    is zeroed on the boundary collar to mimic compact support.  The sine
    tables are built once per grid and ``kmax``.  ``size`` gives an (n_nodes,
    size) stack of that many successive draws, bit for bit.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    ks = np.arange(1, kmax + 1)
    coef = rng.standard_normal((1 if size is None else size, kmax, kmax))
    damp = (ks[:, None] ** 2 + ks[None, :] ** 2) ** -1.5
    coef = coef * damp
    if kmax not in grid._sine_tables:
        if grid.spec.kind is DomainKind.SQUARE:
            X, Y = grid.x - 1.0, grid.y - 1.0
        else:
            X, Y = (grid.x + 1.0) / 2.0, (grid.y + 1.0) / 2.0
        grid._sine_tables[kmax] = tuple(np.sin(np.pi * ks[:, None] * Z[None, :])
                                        for Z in (X, Y))
    SX, SY = grid._sine_tables[kmax]
    vals = ((coef.transpose(0, 2, 1) @ SX) * SY).sum(axis=1).T
    if apply_collar:
        vals[grid.collar_mask] = 0.0
    return ScalarField(grid, vals[:, 0] if size is None else vals)
