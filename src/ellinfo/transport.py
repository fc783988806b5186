"""Integral curves of the base gradient field and transport-based range checks.

If psi lies in the range of the adjoint linearization, the first-order PDE
grad u_theta . grad y = psi with zero trace has a solution, and psi must
integrate to zero along every integral curve of grad u_theta crossing the
domain.  This module traces those curves, evaluates the line-integral
obstructions, solves the transport problem on the non-trapping square
configuration (as the inverse Fisher form does, by T^T y = W psi, which the
score context solves and certifies; curves give the outflow mismatch), and
builds kernel elements from first integrals.

The curves follow the discrete flow on which T(h) = div(h grad u) is
assembled: each dual face carries the face difference of u as its velocity.
Pollock's (1988) semi-analytical cell walk, ``_walk``, traces that flow
exactly in grid coordinates ((x, y) on the square, (r, theta) on the disk),
one vectorised step per sub-cell crossed for all curves of a call.  psi is
bilinear on each step, where a ``GAUSS_ORDER``-point Gauss-Legendre rule
integrates it; the change under the rule one order higher certifies that.

On the disk configuration at theta = 1 the gradient field is radial with a
critical point at the origin, so curves are straight rays and the range
condition only forces ray integrals to share a common (unknown) constant;
a functional vanishing along one ray forces that constant to zero, which is
the witness pattern the verdicts look for; the disk verdict refuses any
other theta, whose curves are not rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ellinfo.grids import ConfigError, DomainKind, Grid, ScalarField, require_finite
from ellinfo.score import ScoreContext

#: Gauss-Legendre points per walk step and per radial cell of a disk ray.
GAUSS_ORDER = 4

#: Face velocities of at most this times the largest one count as zero.
CRIT_TOL_FACTOR = 1e-6

#: Line-integral noise floor: integral_tol = this times max|psi|.
INTEGRAL_TOL_FACTOR = 1e-4

#: Verdict threshold in units of integral_tol.
VERDICT_MARGIN = 10.0

#: Number of disk rays.
N_DISK_RAYS = 64

#: Samples per interpolator call: bounds a batch's memory.
_CHUNK_SAMPLES = 1 << 16

CURVE_TERMINATIONS = ("boundary_exit", "critical_point")
RANGE_VERDICTS = ("incompatible", "compatible_within_tol", "constant_offset_detected")


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 1 where den = 0 (the limits of expm1(w)/w and log1p(z)/z)."""
    return np.divide(num, den, out=np.ones_like(den), where=den != 0.0)


@dataclass
class IntegralCurve:
    """One integral curve of the discrete flow, as the walk's vertices.

    ``points`` are the vertices (Cartesian) and ``times`` the signed curve
    parameters at which the curve reaches them (negative when traced
    backward).  Row k of ``steps`` holds, in grid coordinates, the start,
    velocity and rate of the step from vertex k: after parameter s its
    position is start + velocity s expm1(rate s) / (rate s).  A curve ending
    at a critical point reaches its last vertex, the limit point of its
    path, at infinite time.  ``travel_time`` is the length of the parameter
    interval; ``n_steps`` counts the cells the curve crosses.
    """

    times: np.ndarray
    points: np.ndarray
    termination: str
    travel_time: float
    n_steps: int
    steps: np.ndarray

    def __post_init__(self):
        if self.termination not in CURVE_TERMINATIONS:
            raise ValueError(f"termination must be one of {CURVE_TERMINATIONS}")


@dataclass
class _Axis:
    """One grid-coordinate axis of the walk.  Sub-cell k spans lines[k] to
    lines[k + 1], ``half`` apart, in dual cell i = (k + shift) // 2; its faces
    sit at lines[0] + (2 i - shift + {0, 2}) half, with velocities faces[i]
    and faces[i + 1] (one column per node of the other axis)."""

    lines: np.ndarray
    half: float
    shift: int
    faces: np.ndarray
    periodic: bool = False


def _discrete_flow(ctx: ScoreContext) -> tuple[_Axis, _Axis]:
    """The walk's velocity field: the face differences (u_nb - u_c) / h of
    ``Grid.faces``, on which T is filled, and (u_{j+1} - u_j) / (dt r_i^2)
    across the disk's angular faces.  Boundary half-cells extend the
    neighbouring linear profile, the disk's face at r = 0 carries zero
    velocity, and velocities of at most CRIT_TOL_FACTOR times the largest
    count as zero."""
    grid = ctx.grid
    u = grid.reshape(ctx.u.values)

    def outer(d, first):  # faces along axis 0, with the outermost ones added
        return np.concatenate([first, d, 2.0 * d[-1:] - d[-2:-1]])

    if grid.spec.kind is DomainKind.SQUARE:
        axes = []
        for a, (nodes, h) in enumerate(((grid.xs, grid.hx), (grid.ys, grid.hy))):
            d = np.moveaxis(np.diff(u, axis=a), a, 0) / h
            lines = np.linspace(nodes[0], nodes[-1], 2 * nodes.size - 1)
            axes.append(_Axis(lines, h / 2.0, 1, outer(d, 2.0 * d[:1] - d[1:2])))
    else:
        n_r, n_t = grid.shape
        d_t = (np.roll(u, -1, axis=1) - u).T / (grid.dt * grid.rs**2)
        axes = [_Axis(np.linspace(0.0, grid.rs[-1], 2 * n_r), grid.dr / 2.0, 0,
                      outer(np.diff(u, axis=0) / grid.dr, np.zeros((1, n_t)))),
                _Axis(np.linspace(0.0, 2.0 * math.pi, 2 * n_t + 1), grid.dt / 2.0, 1,
                      np.take(d_t, np.arange(-1, n_t + 1), axis=0, mode="wrap"), True)]
    tol = CRIT_TOL_FACTOR * max(float(np.abs(ax.faces).max()) for ax in axes)
    for ax in axes:
        ax.faces[np.abs(ax.faces) <= tol] = 0.0
    return axes[0], axes[1]


def _walk(ctx: ScoreContext, starts: np.ndarray, signs: np.ndarray) -> list[IntegralCurve]:
    """Walk z' = sign v through the sub-cells of the discrete flow v from
    every Cartesian start, all lanes stepping together: one curve per lane.

    In a sub-cell each coordinate obeys c' = v0 + b (c - c0), so it reaches
    the line ahead after log1p((v_f - v0) / v0) / b if the velocity v_f
    there has the sign of v0.  A step takes the earlier exit, moves each
    coordinate by v0 expm1(b t) / b and snaps the exiting one onto its line.
    With no exit on either axis, a lane stops at the limit point of its
    path in that cell (``critical_point``).  Each coordinate is monotone in
    a dual cell, so a lane visits at most three of its sub-cells, and u
    rises (falls, if backward) strictly across every dual face crossed: a
    walk longer than 3 n_nodes steps raises ``RuntimeError``.
    """
    grid = ctx.grid
    axes = _discrete_flow(ctx)
    starts = np.asarray(starts, dtype=float).reshape(-1, 2)
    n = len(starts)
    sgn0 = np.asarray(signs, dtype=float)
    lane, sgn, c = np.arange(n), sgn0, grid.grid_coords(starts).copy()
    k = np.empty((n, 2), dtype=np.intp)
    for a, ax in enumerate(axes):
        k[:, a] = np.clip((c[:, a] - ax.lines[0]) // ax.half, 0, ax.lines.size - 2)
        c[:, a] = np.clip(c[:, a], ax.lines[k[:, a]], ax.lines[k[:, a] + 1])
    term, ends = np.zeros(n, dtype=np.intp), np.empty((n, 2))
    rows = [(np.empty(0, dtype=np.intp), np.empty((0, 3, 2)), np.empty(0))]

    def velocity(a, at):  # and rate, at ``at`` halves from lines[0] in each lane's dual cell
        ax, other = axes[a], axes[1 - a]
        i = (k[:, a] + ax.shift) // 2
        j = (k[:, 1 - a] + other.shift) // 2 % ax.faces.shape[1]
        lo, hi = sgn * ax.faces[i, j], sgn * ax.faces[i + 1, j]
        w = 0.5 * (at - (2 * i - ax.shift))
        return (1.0 - w) * lo + w * hi, (hi - lo) / (2.0 * ax.half)

    while lane.size:
        if len(rows) > 3 * grid.n_nodes + 1:
            raise RuntimeError(f"cell walk exceeded {3 * grid.n_nodes} steps")
        v, b, vf, target = (np.empty((lane.size, 2)) for _ in range(4))
        for a, ax in enumerate(axes):
            v[:, a], b[:, a] = velocity(a, (c[:, a] - ax.lines[0]) / ax.half)
            m = k[:, a] + (v[:, a] > 0)
            vf[:, a], _ = velocity(a, m)
            target[:, a] = ax.lines[m]
        b[v == 0.0] = 0.0
        d = target - c
        finite = v * vf > 0.0
        z = np.divide(vf - v, v, out=np.zeros_like(v), where=finite)
        tau = np.divide(d, v, out=np.full_like(v, np.inf), where=finite) * _ratio(np.log1p(z), z)
        t = tau.min(axis=1)
        crit, kept = np.isinf(t), t != 0.0  # a start on a line may leave its sub-cell at once
        rows.append((lane[kept], np.stack([c, v, b], axis=1)[kept], t[kept]))
        s = np.where(crit, 0.0, t)[:, None]
        moved = c + v * s * _ratio(np.expm1(b * s), b * s)
        out = crit.copy()
        for a, ax in enumerate(axes):
            n_sub = ax.lines.size - 1
            ex = (tau[:, a] <= t) & ~crit
            moved[:, a] = np.where(ex, target[:, a], np.clip(
                moved[:, a], ax.lines[k[:, a]], ax.lines[k[:, a] + 1]))
            k[:, a] += np.where(ex, np.where(v[:, a] > 0, 1, -1), 0)
            if ax.periodic:
                moved[:, a] = np.where(k[:, a] == n_sub, ax.lines[0],
                                       np.where(k[:, a] < 0, ax.lines[-1], moved[:, a]))
                k[:, a] %= n_sub
            else:
                out |= (k[:, a] < 0) | (k[:, a] >= n_sub)
        moved[crit] = (c + np.divide(d * v, v - vf, out=np.zeros_like(v),
                                     where=(v != 0.0) & ~finite))[crit]
        ends[lane[out]], term[lane[crit]] = moved[out], 1
        lane, sgn, c, k = lane[~out], sgn[~out], moved[~out], k[~out]
    ids, steps, durations = (np.concatenate(p) for p in zip(*rows))
    order = np.argsort(ids, kind="stable")
    steps, durations = steps[order], durations[order]
    first = np.concatenate([[0], np.cumsum(np.bincount(ids, minlength=n))])
    coords = np.insert(steps[:, 0], first[1:], ends, axis=0)  # each lane's vertices
    if grid.spec.kind is DomainKind.DISK:
        coords = coords[:, :1] * np.column_stack([np.cos(coords[:, 1]), np.sin(coords[:, 1])])
    curves = []
    for i, (lo, hi) in enumerate(zip(first[:-1], first[1:])):
        times = sgn0[i] * np.concatenate([[0.0], np.cumsum(durations[lo:hi])])
        curves.append(IntegralCurve(
            times=times, points=coords[lo + i:hi + i + 1],
            termination=CURVE_TERMINATIONS[term[i]], travel_time=abs(float(times[-1])),
            n_steps=int(np.isfinite(durations[lo:hi]).sum()), steps=steps[lo:hi]))
    return curves


def _step_integrals(interp, steps: np.ndarray, durations: np.ndarray, order: int) -> np.ndarray:
    """Integral of the prepared interpolant ``interp`` along each step (as
    ``IntegralCurve.steps``) with respect to the curve parameter, by the
    ``order``-point Gauss-Legendre rule; a chunk of steps is one call."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    out = np.empty(len(durations))
    size = _CHUNK_SAMPLES // order
    for lo in range(0, len(durations), size):
        step, tau = steps[lo:lo + size, :, None], durations[lo:lo + size]
        s = (0.5 * tau[:, None] * (1.0 + nodes))[..., None]
        ws = step[:, 2] * s
        pts = step[:, 0] + step[:, 1] * s * _ratio(np.expm1(ws), ws)
        vals = interp(pts.reshape(-1, 2)).reshape(s.shape[:2])
        out[lo:lo + size] = (vals @ weights) * (0.5 * tau)
    return out


def trace_curve(ctx: ScoreContext, x0, direction: str = "forward") -> IntegralCurve:
    """Trace the integral curve of the discrete flow through an interior
    point: a one-lane ``_walk`` to the boundary or a critical limit point."""
    if direction not in ("forward", "backward"):
        raise ConfigError("direction must be 'forward' or 'backward'")
    x0 = np.asarray(x0, dtype=float).reshape(1, 2)
    if ctx.grid.boundary_distance(x0)[0] <= 0.0:
        raise ConfigError("seed point must lie strictly inside the domain")
    sign = 1.0 if direction == "forward" else -1.0
    return _walk(ctx, x0, np.array([sign]))[0]


def _curve_integrals(grid: Grid, values: np.ndarray, curves: list,
                     order: int = GAUSS_ORDER) -> np.ndarray:
    """Integral of nodal ``values`` along each curve over its finite steps,
    with respect to the curve parameter, all steps in one batch."""
    durations = np.concatenate([[]] + [np.abs(np.diff(c.times)) for c in curves])
    finite = np.isfinite(durations)
    lanes = np.repeat(np.arange(len(curves)), [len(c.steps) for c in curves])[finite]
    steps = np.concatenate([np.empty((0, 3, 2))] + [c.steps for c in curves])
    per_step = _step_integrals(grid.interpolator(values), steps[finite], durations[finite], order)
    return np.bincount(lanes, weights=per_step, minlength=len(curves))


def _support_min_radius(psi: ScalarField) -> float:
    mags = np.abs(psi.values)
    if mags.max() == 0.0:
        return math.inf
    inner = float(np.hypot(psi.grid.x, psi.grid.y)[mags > 1e-9 * mags.max()].min())
    return max(inner - psi.grid.h_mesh, 0.0)


def _ray_integrals(psi: ScalarField, zs: np.ndarray, order: int) -> np.ndarray:
    """Ray integrals at the boundary points zs: the rays are the walk's paths
    r = r_0 e^t at theta = 1, one step per radial cell of the interpolant
    from the truncation radius to the boundary ring."""
    support_min_radius = _support_min_radius(psi)
    if support_min_radius == math.inf:
        return np.zeros(len(zs))
    if support_min_radius <= 0.0:
        raise RuntimeError(f"psi is nonzero within one mesh cell ({psi.grid.h_mesh:.3g}) of "
                           "the origin on this grid; the ray integrals cannot be truncated")
    rs = psi.grid.rs
    edges = np.concatenate([[support_min_radius / 2.0], rs[rs > support_min_radius / 2.0]])
    steps = np.zeros((len(zs), edges.size - 1, 3, 2))
    steps[:, :, 0, 0] = steps[:, :, 1, 0] = edges[:-1]
    steps[:, :, 0, 1] = psi.grid.grid_coords(zs)[:, 1:]
    steps[:, :, 2, 0] = 1.0
    per_step = _step_integrals(psi.grid.interpolator(psi.values), steps.reshape(-1, 3, 2),
                               np.tile(np.log(edges[1:] / edges[:-1]), len(zs)), order)
    return per_step.reshape(len(zs), -1).sum(axis=1)


def ray_integral_disk(psi: ScalarField, z):
    """Integral of psi along the ray t -> z e^t, t <= 0, through |z| = 1.

    The parametrization follows the radial flow of the disk configuration,
    so equality of these integrals across boundary points is the transport
    compatibility condition there: the integral of psi(r, theta_z) / r over
    r, by the walk's Gauss-Legendre rule on each radial cell.  psi must
    vanish within a mesh cell of the origin (else a ``RuntimeError``: a
    limit of the grid, as for a coarse I*(w)); the quadrature truncates at
    half the support radius.  A (k, 2) array of boundary points gives the k
    integrals.
    """
    z = np.asarray(z, dtype=float)
    zs = z.reshape(-1, 2)
    if np.any(np.abs(np.hypot(zs[:, 0], zs[:, 1]) - 1.0) > 1e-8):
        raise ConfigError("ray integrals are anchored at boundary points |z| = 1")
    if psi.grid.spec.kind is not DomainKind.DISK:
        raise ConfigError("ray integrals are defined on the disk configuration")
    integrals = _ray_integrals(psi, zs, GAUSS_ORDER)
    return float(integrals[0]) if z.ndim == 1 else integrals


@dataclass
class RangeVerdict:
    """Transport-compatibility classification of a functional.

    On the square configuration every crossing curve must integrate to
    (approximately) zero; on the disk all ray integrals must share a common
    constant, and any single vanishing ray forces that constant to zero.
    ``ode_steps`` counts the cells the walks cross (0 on the disk, whose
    rays are integrated without walking); ``trace_error`` is the largest
    change of an integral under the Gauss-Legendre rule one order higher.
    """

    seeds: np.ndarray
    integrals: np.ndarray
    max_abs_integral: float
    integral_tol: float
    threshold: float
    verdict: str
    zero_ray_witness: bool = False
    offset: float | None = None
    n_unclassified: int = 0
    ode_steps: int = 0
    trace_error: float | None = None
    curves: list = field(default_factory=list)

    def __post_init__(self):
        if self.verdict not in RANGE_VERDICTS:
            raise ValueError(f"verdict must be one of {RANGE_VERDICTS}")


def _square_seed_lattice(grid: Grid) -> np.ndarray:
    lo, hi = 1.0 + 2.5 * grid.h_mesh, 2.0 - 2.5 * grid.h_mesh
    axis = np.linspace(lo, hi, 13)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.reshape(-1), yy.reshape(-1)])


def range_verdict(ctx: ScoreContext, psi: ScalarField) -> RangeVerdict:
    """Classify psi by curve integrals of the base flow.

    Square-type domains: seeds fill the interior on a lattice; each seed
    generates a full crossing curve (backward plus forward walk, all in one
    ``_walk``) whose integral must vanish up to ``VERDICT_MARGIN`` times the
    noise floor.  Disk: integrals along ``N_DISK_RAYS`` boundary rays must
    agree; a vanishing ray alongside non-vanishing ones yields an
    incompatible verdict with the witness flag.  Rays are the flow's curves
    only at theta = 1, so any other theta raises ``RuntimeError``.  On both,
    ``trace_error`` is the largest change of an integral under the
    Gauss-Legendre rule one order higher, and a value above ``integral_tol``
    raises ``RuntimeError``.
    """
    require_finite(psi.values, "psi")  # nanmax below would skip NaN curves
    grid = ctx.grid
    peak = float(np.abs(psi.values).max())
    integral_tol = INTEGRAL_TOL_FACTOR * peak if peak > 0 else INTEGRAL_TOL_FACTOR
    threshold = VERDICT_MARGIN * integral_tol

    report = {}
    if grid.spec.kind is DomainKind.DISK:
        if np.any(ctx.theta.values != 1.0):
            raise RuntimeError("disk verdicts integrate psi along straight rays, the flow's "
                               "curves only at theta = 1; this theta is not identically 1")
        angles = np.linspace(0.0, 2.0 * math.pi, N_DISK_RAYS, endpoint=False)
        seeds = np.column_stack([np.cos(angles), np.sin(angles)])
        integrals = ray_integral_disk(psi, seeds)
        finer = _ray_integrals(psi, seeds, GAUSS_ORDER + 1)
    else:
        seeds = _square_seed_lattice(grid)
        n = len(seeds)
        curves = _walk(ctx, np.vstack([seeds, seeds]), np.repeat([-1.0, 1.0], n))
        exited = np.array([c.termination == "boundary_exit" for c in curves])
        classified = np.flatnonzero(exited[:n] & exited[n:])
        unclassified = n - classified.size
        if unclassified > 0.05 * n:
            raise RuntimeError(
                f"{unclassified}/{n} curves not classified; "
                "flow may be trapping or near-critical")
        integrals, finer = np.full(n, math.nan), np.full(n, math.nan)
        for out, order in ((integrals, GAUSS_ORDER), (finer, GAUSS_ORDER + 1)):
            halves = _curve_integrals(grid, psi.values, curves, order)
            out[classified] = halves[classified] + halves[n + classified]
        report = dict(n_unclassified=unclassified,
                      ode_steps=sum(c.n_steps for c in curves),
                      curves=[(curves[i], curves[n + i]) for i in classified])
    trace_error = float(np.nanmax(np.abs(finer - integrals)))
    if not trace_error <= integral_tol:
        raise RuntimeError(
            f"curve integrals not certified: change {trace_error:.2e} under the "
            f"{GAUSS_ORDER + 1}-point rule exceeds integral_tol {integral_tol:.2e}")
    max_abs = float(np.nanmax(np.abs(integrals)))
    verdict = "compatible_within_tol" if max_abs <= threshold else "incompatible"
    if grid.spec.kind is DomainKind.DISK:
        report["offset"] = offset = float(np.median(integrals))
        if np.max(np.abs(integrals - offset)) > threshold:
            verdict = "incompatible"
            report["zero_ray_witness"] = bool(np.min(np.abs(integrals)) <= threshold < max_abs)
        else:
            verdict = ("compatible_within_tol" if abs(offset) <= threshold
                       else "constant_offset_detected")
    return RangeVerdict(seeds=seeds, integrals=integrals, max_abs_integral=max_abs,
                        integral_tol=integral_tol, threshold=threshold, verdict=verdict,
                        trace_error=trace_error, **report)


def _sweep_from_nodes(ctx: ScoreContext, nodes: np.ndarray,
                      integrand_values: np.ndarray, sign: float):
    """Walk the flow from every node in one ``_walk`` to the boundary; returns
    the integrals of the nodal integrand along the walks (with respect to
    increasing curve parameter, forward or backward) and the exit points."""
    curves = _walk(ctx, nodes, np.full(len(nodes), float(sign)))
    if any(c.termination == "critical_point" for c in curves):
        raise RuntimeError(
            "critical point encountered; transport solve needs the "
            "non-trapping configuration")
    ends = np.array([c.points[-1] for c in curves]).reshape(-1, 2)
    return _curve_integrals(ctx.grid, integrand_values, curves), ends


def _square_only(ctx: ScoreContext, what: str) -> None:
    if ctx.grid.spec.kind is not DomainKind.SQUARE:
        raise ConfigError(f"{what} requires the non-trapping square configuration")


def _edge_fluxes(ctx: ScoreContext) -> np.ndarray:
    """Outward velocity of the walk's flow at each boundary node through each
    edge of the square (x = 1, x = 2, y = 1, y = 2), NaN off the edge: shape
    (4, n).  A node's velocity is the mean of its dual cell's two faces."""
    grid = ctx.grid
    ids = grid.boundary_ids
    vx, vy = (0.5 * (ax.faces[:-1] + ax.faces[1:]) for ax in _discrete_flow(ctx))
    pairs = ((grid.x[ids], vx.reshape(-1)[ids]), (grid.y[ids], vy.T.reshape(-1)[ids]))
    return np.array([np.where(np.abs(c - edge) < 1e-12, sign * g, np.nan)
                     for c, g in pairs for edge, sign in ((1.0, -1.0), (2.0, 1.0))])


def _inflow_boundary_nodes(ctx: ScoreContext) -> np.ndarray:
    """Boundary nodes (corners excluded) where the flow enters the square."""
    fluxes = _edge_fluxes(ctx)
    one_edge = np.count_nonzero(~np.isnan(fluxes), axis=0) == 1
    return ctx.grid.boundary_ids[one_edge & (np.nanmax(fluxes, axis=0) < 0)]


def solve_transport(ctx: ScoreContext, psi: ScalarField) -> tuple[ScalarField, float]:
    """Solve grad u_theta . grad y = psi with zero trace (square only).

    y = -(T^T)^{-1}(W psi) / w, solved and certified by the score context
    (``ScoreContext.solve_transport_equation``): a singular T (the saddle)
    raises ``LinAlgError``.  The outflow mismatch, the largest integral of
    psi over crossings traced from the inflow nodes, vanishes exactly when
    psi is transport-compatible.  For an incompatible psi, y is the discrete
    zero-trace solution, large and meaningless (max|y| about 1.7e3 for the
    square bump at 25^2): only the mismatch counts.
    """
    _square_only(ctx, "solve_transport")
    grid, w = ctx.grid, ctx.grid.weights_interior
    y, _ = ctx.solve_transport_equation(w * grid.restrict(psi))
    inflow = _inflow_boundary_nodes(ctx)
    crossings, _ = _sweep_from_nodes(ctx, np.column_stack([grid.x[inflow], grid.y[inflow]]),
                                     psi.values, sign=1.0)
    mismatch = float(np.max(np.abs(crossings))) if len(crossings) else 0.0
    return grid.interior_field(-y / w), mismatch


def kernel_element(ctx: ScoreContext, first_integral,
                   f_tol: float = 1e-6) -> ScalarField:
    """Near-kernel element h = exp(-r) F from a first integral F of the flow.

    r integrates the Laplacian of the base solution along backward walks
    from the inflow boundary, so that div(h grad u_theta) cancels to
    discretization order.  ``first_integral`` must be a vectorized callable
    constant along integral curves; constancy is verified to ``f_tol``
    against the entry points of the walks.  The result intentionally
    violates the collar condition: these directions approximate the kernel
    only in the unconstrained limit.
    """
    _square_only(ctx, "kernel_element")
    grid = ctx.grid
    lap = grid.reshape(grid.laplacian_values(ctx.u.values))
    lap = np.pad(lap[1:-1, 1:-1], 1, mode="edge").reshape(-1)  # edge rows copy their neighbours
    # interior and strictly outflow boundary nodes; every other boundary
    # node is the entry point of its curve and carries r = 0
    outflow = grid.boundary_ids[np.nanmin(_edge_fluxes(ctx), axis=0) > 0]
    ids = np.concatenate([grid.interior_ids, outflow])
    n_in = grid.n_interior
    r_vals, entries = _sweep_from_nodes(ctx, np.column_stack([grid.x[ids], grid.y[ids]]),
                                        lap, sign=-1.0)
    f_all = np.asarray(first_integral(grid.x, grid.y), dtype=float)
    f_nodes = f_all[grid.interior_ids]
    f_entry = np.asarray(first_integral(entries[:n_in, 0], entries[:n_in, 1]), dtype=float)
    scale = float(np.abs(f_nodes).max())
    if scale == 0.0:
        raise ConfigError("first integral vanishes identically")
    drift = float(np.abs(f_nodes - f_entry).max())
    if drift > f_tol * scale:
        raise ConfigError(
            f"first integral drifts by {drift:.3e} along curves; "
            "not constant on the flow")
    r = np.zeros(grid.n_nodes)
    r[ids] = r_vals
    return ScalarField(grid, np.exp(-r) * f_all)
