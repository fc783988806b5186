"""Integral curves of the base gradient field and transport-based range checks.

If psi lies in the range of the adjoint linearization, the first-order PDE
grad u_theta . grad y = psi with zero trace has a solution, and psi must
integrate to zero along every integral curve of grad u_theta crossing the
domain.  This module traces those curves, evaluates the line-integral
obstructions, solves the transport problem on the non-trapping square
configuration (as the inverse Fisher form does, by T^T y = W psi; curves give
the outflow mismatch), and builds kernel elements from first integrals.

The curves of one call step together through one tracer, ``_trace``: scipy's
RK45 (Dormand-Prince 5(4)) with each lane's own step size, every stage one
call of the prepared ``Grid.interpolator`` of grad u at all live lanes.
Integrands stay out of the ODE: integrals sample each lane's dense output
(or each disk ray, directly in grid coordinates (r, theta)) uniformly,
evaluate a chunk of lanes in one interpolator call and apply Simpson's
rule.  ``range_verdict`` certifies its integrals by step halving.

On the disk configuration at theta = 1 the gradient field is radial with a
critical point at the origin, so curves are straight rays and the range
condition only forces ray integrals to share a common (unknown) constant;
a functional vanishing along one ray forces that constant to zero, which is
the witness pattern the verdicts look for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ellinfo.grids import DomainKind, Grid, ScalarField
from ellinfo.score import TRANSPORT_SOLVE_RTOL, ScoreContext

#: Relative tolerance of the adaptive curve integrator (absolute: 1e-12).
ODE_TOL = 1e-8

#: A point counts as critical when |grad u| drops below this times max|grad u|.
CRIT_TOL_FACTOR = 1e-6

#: Line-integral noise floor: integral_tol = this times max|psi|.
INTEGRAL_TOL_FACTOR = 1e-4

#: Verdict threshold in units of integral_tol.
VERDICT_MARGIN = 10.0

#: Time horizon treated as a step limit (crossing times here are O(1)).
TIME_LIMIT = 50.0

#: Quadrature samples per traced curve and per disk ray; number of disk rays.
N_CURVE_SAMPLES = 1001
N_RAY_SAMPLES = 2001
N_DISK_RAYS = 64

#: Samples per interpolator call (whole lanes, curves or rays): bounds a batch's memory.
_CHUNK_SAMPLES = 1 << 16

CURVE_TERMINATIONS = ("boundary_exit", "critical_point", "step_limit")
RANGE_VERDICTS = ("incompatible", "compatible_within_tol", "constant_offset_detected")

# Dormand & Prince (1980) as in scipy's RK45: stages, 5th-order weights, error
# weights and the 4th-order dense output.
_DP_A = [np.array(a) for a in (
    [1 / 5], [3 / 40, 9 / 40], [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656])]
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


def _rms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", v, v)) / 2 ** 0.5


def _simpson(values: np.ndarray, ds) -> np.ndarray:
    """Composite Simpson rule on an odd number of samples spaced ds (last axis)."""
    return ds / 3.0 * (values[..., 0] + values[..., -1] + 4.0 * values[..., 1:-1:2].sum(-1)
                       + 2.0 * values[..., 2:-1:2].sum(-1))


def _dense(y0, h, Q, x):
    """Dense output y0 + h (x Q_0 + x^2 Q_1 + x^3 Q_2 + x^4 Q_3) at step fractions x."""
    x = x[..., None]
    acc = Q[..., 3, :] * x
    for j in (2, 1, 0):
        acc += Q[..., j, :]
        acc *= x
    acc *= h[..., None]
    acc += y0
    return acc


@dataclass
class IntegralCurve:
    """One traced integral curve of grad u_theta.

    ``times`` are signed curve parameters (negative when traced backward);
    ``points`` are the matching positions.  ``travel_time`` is the length of
    the parameter interval until termination; ``n_steps`` counts the
    accepted Runge-Kutta steps.
    """

    seed: tuple
    direction: str
    times: np.ndarray
    points: np.ndarray
    termination: str
    travel_time: float
    n_steps: int

    def __post_init__(self):
        if self.termination not in CURVE_TERMINATIONS:
            raise ValueError(f"termination must be one of {CURVE_TERMINATIONS}")


@dataclass
class _Lanes:
    """A traced batch: lane i runs z' = signs[i] grad u from starts[i] to
    parameter s_end[i] and point ends[i]; ``termination`` indexes
    ``CURVE_TERMINATIONS``.  Rows ``first[i]:first[i + 1]`` of t0, h, y0, Q
    are lane i's accepted steps: start parameter, size, start point and
    dense-output coefficients (``_dense``)."""

    starts: np.ndarray
    signs: np.ndarray
    termination: np.ndarray
    s_end: np.ndarray
    ends: np.ndarray
    n_steps: np.ndarray
    first: np.ndarray
    t0: np.ndarray
    h: np.ndarray
    y0: np.ndarray
    Q: np.ndarray

    def points(self, lanes) -> np.ndarray:
        """Dense output at N_CURVE_SAMPLES uniform parameters in [0, s_end]
        of each listed lane: shape (len(lanes), N_CURVE_SAMPLES, 2)."""
        ss = np.linspace(0.0, self.s_end[lanes], N_CURVE_SAMPLES, axis=-1)
        seg = np.empty(ss.shape, dtype=np.intp)
        for row, i in enumerate(lanes):
            lo, hi = self.first[i], self.first[i + 1]
            # as scipy's OdeSolution: at a knot, the step that ends there
            pos = np.searchsorted(self.t0[lo:hi], ss[row], side="left")
            seg[row] = lo + np.clip(pos - 1, 0, hi - lo - 1)
        return _dense(self.y0[seg], self.h[seg], self.Q[seg], (ss - self.t0[seg]) / self.h[seg])

    def curve(self, i: int, points: np.ndarray | None = None) -> IntegralCurve:
        s_end, sign = float(self.s_end[i]), float(self.signs[i])
        if s_end > 0.0:
            times = sign * np.linspace(0.0, s_end, N_CURVE_SAMPLES)
            points = self.points([i])[0] if points is None else points
        else:
            times, points = np.array([0.0]), self.starts[i].reshape(1, 2)
        return IntegralCurve(seed=tuple(self.starts[i]),
                             direction="forward" if sign > 0 else "backward",
                             times=times, points=points,
                             termination=CURVE_TERMINATIONS[self.termination[i]],
                             travel_time=abs(s_end), n_steps=int(self.n_steps[i]))

    def halved(self, lanes) -> tuple[np.ndarray, np.ndarray]:
        """Step schedule of the listed lanes with every step split in two."""
        sizes = np.concatenate([self.h[self.first[i]:self.first[i + 1]] for i in lanes])
        return (np.concatenate([[0], np.cumsum(2 * np.diff(self.first)[lanes])]),
                np.repeat(0.5 * sizes, 2))


def _trace(ctx: ScoreContext, starts: np.ndarray, signs: np.ndarray,
           schedule=None) -> _Lanes:
    """Trace z' = sign grad u_theta from every start, all lanes stepping together.

    scipy's RK45 per lane: Dormand-Prince 5(4), its initial step, RMS error
    norm and step controller, rtol ``ODE_TOL`` and atol 1e-12.  A lane stops
    in the step where it leaves the domain or |grad u| falls to crit_tol,
    the earlier crossing located on that step's dense output by bisection,
    or at ``TIME_LIMIT`` or a vanishing step (``step_limit``).  ``schedule``
    = (first, sizes) replaces the controller by the steps
    ``sizes[first[i]:first[i + 1]]`` of lane i, all accepted and the last
    taken once more if needed: the step-halving certificate.
    """
    grid = ctx.grid
    interp = grid.interpolator(np.column_stack([ctx.grad_u.vx, ctx.grad_u.vy]))
    crit_tol = CRIT_TOL_FACTOR * float(ctx.grad_u.magnitude().max())

    def margins(points, f):  # a lane stops where either falls to zero
        return np.column_stack([grid.boundary_distance(points),
                                np.hypot(f[:, 0], f[:, 1]) - crit_tol])

    n = len(starts)
    lane, y, sgn = np.arange(n), np.array(starts, dtype=float), np.asarray(signs, dtype=float)
    t, rejected = np.zeros(n), np.zeros(n, dtype=bool)
    term, s_end, ends, n_steps = np.full(n, 2), np.zeros(n), y.copy(), np.zeros(n, dtype=int)
    hits = np.zeros((n, 2), dtype=bool)
    steps = [(np.empty(0, dtype=int), np.empty(0), np.empty(0), np.empty((0, 2)),
              np.empty((0, 4, 2)))]

    def flow(points):
        return sgn[:, None] * interp(grid.grid_coords(points))

    g = margins(y, f := flow(y))
    if schedule is None:  # scipy's select_initial_step
        scale = 1e-12 + np.abs(y) * ODE_TOL
        d0, d1 = _rms(y / scale), _rms(f / scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            h0 = np.minimum(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1),
                            TIME_LIMIT)
            d2 = _rms((flow(y + h0[:, None] * f) - f) / scale) / h0
            h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, 1e-3 * h0),
                          (0.01 / np.maximum(d1, d2)) ** 0.2)
        h_abs = np.minimum(np.minimum(100.0 * h0, h1), TIME_LIMIT)
    while lane.size:
        if schedule is None:
            min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
            h_abs = np.where(rejected, h_abs, np.maximum(h_abs, min_step))
            stuck = ~(h_abs >= min_step)
        else:
            first, sizes = schedule
            k = first[lane] + n_steps[lane]
            h_abs, stuck = sizes[np.minimum(k, first[lane + 1] - 1)], k > first[lane + 1]
        t_new = np.minimum(t + h_abs, TIME_LIMIT)
        h = t_new - t
        K = np.empty((7,) + y.shape)
        K[0] = f
        for s, a in enumerate(_DP_A, start=1):
            K[s] = flow(y + np.tensordot(a, K[:s], 1) * h[:, None])
        y_new = y + h[:, None] * np.tensordot(_DP_B, K[:6], 1)
        K[6] = flow(y_new)
        accept = ~stuck
        if schedule is None:
            scale = 1e-12 + np.maximum(np.abs(y), np.abs(y_new)) * ODE_TOL
            err = _rms(np.tensordot(_DP_E, K, 1) * h[:, None] / scale)
            accept &= err < 1.0
            with np.errstate(divide="ignore"):
                grow = 0.9 * err ** -0.2
            h_abs = h * np.where(accept, np.minimum(np.where(rejected, 1.0, 10.0), grow),
                                 np.maximum(0.2, grow))
            rejected = ~accept
        a = np.flatnonzero(accept)
        steps.append((lane[a], t[a], h[a], y[a], np.einsum("sld,sk->lkd", K[:, a], _DP_P)))
        n_steps[lane[a]] += 1
        g_new = margins(y_new[a], K[6, a])
        hits[lane[a]] = (g[a] >= 0.0) & (g_new <= 0.0)
        y[a], f[a], t[a], g[a] = y_new[a], K[6, a], t_new[a], g_new
        done = stuck | (t >= TIME_LIMIT)
        done[a] |= hits[lane[a]].any(axis=1)
        s_end[lane[done]], ends[lane[done]] = t[done], y[done]
        lane, y, f, g, t, rejected, sgn, h_abs = (
            v[~done] for v in (lane, y, f, g, t, rejected, sgn, h_abs))
    ids, t0, hs, y0, Q = (np.concatenate(p) for p in zip(*steps))
    order = np.argsort(ids, kind="stable")
    first = np.concatenate([[0], np.cumsum(np.bincount(ids, minlength=n))])
    out = _Lanes(np.array(starts, dtype=float), np.asarray(signs, dtype=float), term, s_end,
                 ends, n_steps, first, t0[order], hs[order], y0[order], Q[order])
    # locate the crossings in the last step of each lane that had one
    last, x = first[1:] - 1, np.full((n, 2), np.inf)
    for c, event in enumerate((grid.boundary_distance,
                               lambda p: margins(p, interp(grid.grid_coords(p)))[:, 1])):
        i = np.flatnonzero(hits[:, c])
        lo, hi, s = np.zeros(i.size), np.ones(i.size), last[i]
        for _ in range(53 if i.size else 0):
            mid = 0.5 * (lo + hi)
            above = event(_dense(out.y0[s], out.h[s], out.Q[s], mid)) > 0.0
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        x[i, c] = hi
    i = np.flatnonzero(hits.any(axis=1))
    x_end, s = x[i].min(axis=1), last[i]
    term[i] = x[i].argmin(axis=1)
    s_end[i] = out.t0[s] + x_end * out.h[s]
    ends[i] = _dense(out.y0[s], out.h[s], out.Q[s], x_end)
    return out


def _lane_integrals(grid: Grid, values: np.ndarray, lanes: _Lanes, ids, points=None):
    """Integrals of nodal ``values`` along the listed lanes, with respect to
    the ODE parameter: Simpson's rule on the N_CURVE_SAMPLES samples of
    ``_Lanes.points`` and on every other sample.  A chunk of lanes is one
    interpolator call; ``points`` (a list) collects the samples."""
    interp, step = grid.interpolator(values), _CHUNK_SAMPLES // N_CURVE_SAMPLES
    full, coarse = np.empty(len(ids)), np.empty(len(ids))
    for sl in (slice(lo, lo + step) for lo in range(0, len(ids), step)):
        pts = lanes.points(ids[sl])
        if points is not None:
            points.extend(pts)
        vals = interp(grid.grid_coords(pts.reshape(-1, 2))).reshape(pts.shape[:2])
        ds = lanes.s_end[ids[sl]] / (N_CURVE_SAMPLES - 1)
        full[sl], coarse[sl] = _simpson(vals, ds), _simpson(vals[:, ::2], 2.0 * ds)
    return full, coarse


def trace_curve(ctx: ScoreContext, x0, direction: str = "forward",
                strict: bool = True) -> IntegralCurve:
    """Trace the integral curve of grad u_theta through an interior point.

    A one-lane ``_trace``: adaptive Dormand-Prince steps until boundary exit
    or a critical point; the returned curve is the dense output resampled
    uniformly in the curve parameter for quadrature.  ``strict`` raises if
    the time horizon ``TIME_LIMIT`` is exhausted before either event.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    x0 = np.asarray(x0, dtype=float).reshape(1, 2)
    if ctx.grid.boundary_distance(x0)[0] <= 0.0:
        raise ValueError("seed point must lie strictly inside the domain")
    sign = 1.0 if direction == "forward" else -1.0
    curve = _trace(ctx, x0, np.array([sign])).curve(0)
    if strict and curve.termination == "step_limit":
        raise RuntimeError(
            f"curve from {curve.seed} not classified within time {TIME_LIMIT}")
    return curve


def line_integral(psi: ScalarField, curve: IntegralCurve) -> float:
    """Integral of psi along the curve, oriented by increasing parameter."""
    if len(curve.times) < 3:
        return 0.0
    grid = psi.grid
    vals = grid.interpolator(psi.values)(grid.grid_coords(curve.points))
    return float(_simpson(vals, curve.travel_time / (len(curve.times) - 1)))


def _support_min_radius(psi: ScalarField) -> float:
    mags = np.abs(psi.values)
    if mags.max() == 0.0:
        return math.inf
    inner = float(np.hypot(psi.grid.x, psi.grid.y)[mags > 1e-9 * mags.max()].min())
    return max(inner - psi.grid.h_mesh, 0.0)


def ray_integral_disk(psi: ScalarField, z):
    """Integral of psi along the ray t -> z e^t, t <= 0, through |z| = 1.

    The parametrization follows the radial flow of the disk configuration,
    so equality of these integrals across boundary points is the transport
    compatibility condition there.  psi must vanish within a mesh cell of the
    origin (else a ``RuntimeError``: a limit of the grid, as for a coarse
    I*(w)); the quadrature truncates at e^t = half the support radius.  A
    (k, 2) array of boundary points gives the k integrals, a chunk of rays
    per interpolator call.
    """
    z = np.asarray(z, dtype=float)
    zs = z.reshape(-1, 2)
    if np.any(np.abs(np.hypot(zs[:, 0], zs[:, 1]) - 1.0) > 1e-8):
        raise ValueError("ray integrals are anchored at boundary points |z| = 1")
    if psi.grid.spec.kind is not DomainKind.DISK:
        raise ValueError("ray integrals are defined on the disk configuration")
    support_min_radius = _support_min_radius(psi)
    if support_min_radius == math.inf:
        integrals = np.zeros(len(zs))
    elif support_min_radius <= 0.0:
        raise RuntimeError(f"psi is nonzero within one mesh cell ({psi.grid.h_mesh:.3g}) of "
                           "the origin on this grid; the ray integrals cannot be truncated")
    else:
        t_min = math.log(support_min_radius / 2.0)
        # grid coordinates (e^t, angle of z) of the ray samples
        pts = np.empty((len(zs), N_RAY_SAMPLES, 2))
        pts[:, :, 0] = np.exp(np.linspace(t_min, 0.0, N_RAY_SAMPLES))
        pts[:, :, 1] = psi.grid.grid_coords(zs)[:, 1:]
        interp, step = psi.grid.interpolator(psi.values), _CHUNK_SAMPLES // N_RAY_SAMPLES
        vals = np.concatenate([interp(pts[lo:lo + step].reshape(-1, 2))
                               for lo in range(0, len(zs), step)])
        integrals = _simpson(vals.reshape(len(zs), -1), -t_min / (N_RAY_SAMPLES - 1))
    return float(integrals[0]) if z.ndim == 1 else integrals


@dataclass
class RangeVerdict:
    """Transport-compatibility classification of a functional.

    On the square configuration every crossing curve must integrate to
    (approximately) zero; on the disk all ray integrals must share a common
    constant, and any single vanishing ray forces that constant to zero.
    ``ode_steps`` sums the accepted Runge-Kutta steps of the traced curves
    (0 on the disk, whose rays are integrated without tracing);
    ``trace_error`` is the step-halving certificate of the square's
    integrals (None on the disk).
    """

    psi: ScalarField
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


def _square_seed_lattice(grid: Grid, n_per_axis: int = 13) -> np.ndarray:
    lo, hi = 1.0 + 2.5 * grid.h_mesh, 2.0 - 2.5 * grid.h_mesh
    axis = np.linspace(lo, hi, n_per_axis)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.reshape(-1), yy.reshape(-1)])


def range_verdict(ctx: ScoreContext, psi: ScalarField) -> RangeVerdict:
    """Classify psi by curve integrals of the base flow.

    Square-type domains: seeds fill the interior on a lattice; each seed
    generates a full crossing curve (backward plus forward trace, all in one
    ``_trace`` batch) whose integral must vanish up to ``VERDICT_MARGIN``
    times the noise floor.  The integrals are certified by step halving: the
    largest change under re-tracing with every step split in two, or under
    Simpson's rule on every other sample, is ``trace_error``, and a value
    above ``integral_tol`` raises ``RuntimeError``.  Disk: integrals along
    ``N_DISK_RAYS`` boundary rays must agree; a vanishing ray alongside
    non-vanishing ones yields an incompatible verdict with the witness flag.
    """
    grid = ctx.grid
    peak = float(np.abs(psi.values).max())
    integral_tol = INTEGRAL_TOL_FACTOR * peak if peak > 0 else INTEGRAL_TOL_FACTOR
    threshold = VERDICT_MARGIN * integral_tol

    if grid.spec.kind is DomainKind.DISK:
        angles = np.linspace(0.0, 2.0 * math.pi, N_DISK_RAYS, endpoint=False)
        seeds = np.column_stack([np.cos(angles), np.sin(angles)])
        integrals = ray_integral_disk(psi, seeds)
        offset = float(np.median(integrals))
        spread = float(np.max(np.abs(integrals - offset)))
        max_abs = float(np.max(np.abs(integrals)))
        if spread <= threshold:
            verdict = ("compatible_within_tol" if abs(offset) <= threshold
                       else "constant_offset_detected")
            witness = False
        else:
            verdict = "incompatible"
            witness = bool(np.min(np.abs(integrals)) <= threshold < max_abs)
        return RangeVerdict(psi=psi, seeds=seeds, integrals=integrals,
                            max_abs_integral=max_abs, integral_tol=integral_tol,
                            threshold=threshold, verdict=verdict,
                            zero_ray_witness=witness, offset=offset)

    seeds = _square_seed_lattice(grid)
    n = len(seeds)
    lanes = _trace(ctx, np.vstack([seeds, seeds]), np.repeat([-1.0, 1.0], n))
    exited = lanes.termination == 0
    classified = np.flatnonzero(exited[:n] & exited[n:])
    unclassified = n - classified.size
    if unclassified > 0.05 * n:
        raise RuntimeError(
            f"{unclassified}/{n} curves not classified; "
            "flow may be trapping or near-critical")
    ids = np.concatenate([classified, n + classified])
    points = []
    full, coarse = _lane_integrals(grid, psi.values, lanes, ids, points)
    halved = _trace(ctx, lanes.starts[ids], lanes.signs[ids], schedule=lanes.halved(ids))
    fine, _ = _lane_integrals(grid, psi.values, halved, np.arange(ids.size))
    fine[halved.termination != 0] = math.inf
    m = classified.size
    crossing = full[:m] + full[m:]
    trace_error = float(max(np.max(np.abs(fine[:m] + fine[m:] - crossing)),
                            np.max(np.abs(coarse[:m] + coarse[m:] - crossing))))
    if not trace_error <= integral_tol:
        raise RuntimeError(
            f"curve integrals not certified: step-halving change {trace_error:.2e} "
            f"exceeds integral_tol {integral_tol:.2e}")
    integrals = np.full(n, math.nan)
    integrals[classified] = crossing
    max_abs = float(np.max(np.abs(crossing)))
    verdict = "compatible_within_tol" if max_abs <= threshold else "incompatible"
    return RangeVerdict(psi=psi, seeds=seeds, integrals=integrals, max_abs_integral=max_abs,
                        integral_tol=integral_tol, threshold=threshold, verdict=verdict,
                        n_unclassified=unclassified, ode_steps=int(lanes.n_steps.sum()),
                        trace_error=trace_error,
                        curves=[(lanes.curve(i, points[j]), lanes.curve(n + i, points[m + j]))
                                for j, i in enumerate(classified)])


def _sweep_from_nodes(ctx: ScoreContext, nodes: np.ndarray,
                      integrand_values: np.ndarray, sign: float):
    """Trace the flow from every node in one ``_trace`` batch until boundary
    exit; returns the integrals of the nodal integrand along the traces (with
    respect to increasing curve parameter, forward or backward) and the exit
    points.  A trace from a boundary node into the domain leaves its node
    without an exit event, which needs the boundary distance to fall."""
    lanes = _trace(ctx, nodes, np.full(len(nodes), float(sign)))
    if np.any(lanes.termination == 1):
        raise RuntimeError(
            "critical point encountered; transport solve needs the "
            "non-trapping configuration")
    stopped = np.flatnonzero(lanes.termination != 0)
    if stopped.size:
        x0, y0 = nodes[stopped[0]]
        raise RuntimeError(f"curve from ({x0}, {y0}) did not reach the boundary")
    acc, _ = _lane_integrals(ctx.grid, integrand_values, lanes, np.arange(len(nodes)))
    return acc, lanes.ends


def _square_only(ctx: ScoreContext, what: str) -> None:
    if ctx.grid.spec.kind is not DomainKind.SQUARE:
        raise ValueError(f"{what} requires the non-trapping square configuration")


def _edge_fluxes(ctx: ScoreContext) -> np.ndarray:
    """Outward flux grad u . n at each boundary node through each edge of the
    square (x = 1, x = 2, y = 1, y = 2), NaN off the edge: shape (4, n)."""
    grid = ctx.grid
    ids = grid.boundary_ids
    pairs = ((grid.x[ids], ctx.grad_u.vx[ids]), (grid.y[ids], ctx.grad_u.vy[ids]))
    return np.array([np.where(np.abs(c - edge) < 1e-12, sign * g, np.nan)
                     for c, g in pairs for edge, sign in ((1.0, -1.0), (2.0, 1.0))])


def _inflow_boundary_nodes(ctx: ScoreContext) -> np.ndarray:
    """Boundary nodes (corners excluded) where the flow enters the square."""
    fluxes = _edge_fluxes(ctx)
    one_edge = np.count_nonzero(~np.isnan(fluxes), axis=0) == 1
    return ctx.grid.boundary_ids[one_edge & (np.nanmax(fluxes, axis=0) < 0)]


def solve_transport(ctx: ScoreContext, psi: ScalarField) -> tuple[ScalarField, float]:
    """Solve grad u_theta . grad y = psi with zero trace (square only).

    y = -(T^T)^{-1}(W psi) / w from ``ScoreContext.solve_transport_equation``,
    as in the inverse Fisher form; a residual or a refinement change of y
    above ``TRANSPORT_SOLVE_RTOL`` raises ``LinAlgError``, so a singular T
    (the saddle) raises as in ``fisher_information``.  The outflow mismatch,
    the largest integral of psi over crossings traced from the inflow nodes,
    vanishes exactly when psi is transport-compatible.  For an incompatible
    psi, y is the discrete zero-trace solution, large and meaningless (max|y|
    about 1.7e3 for the square bump at 25^2): only the mismatch counts.
    """
    _square_only(ctx, "solve_transport")
    grid = ctx.grid
    w = grid.weights_interior
    rhs = w * grid.restrict(psi)
    y = np.zeros(grid.n_interior)
    if np.any(rhs):
        y0, y, residual = ctx.solve_transport_equation(rhs)
        change = float(np.linalg.norm(y - y0) / np.linalg.norm(y))
        if not (residual <= TRANSPORT_SOLVE_RTOL and change <= TRANSPORT_SOLVE_RTOL):
            raise np.linalg.LinAlgError(
                f"source operator T numerically singular (residual {residual:.1e}, "
                f"refinement change {change:.1e}); no unique transport solution")
        y = -y / w
    inflow = _inflow_boundary_nodes(ctx)
    crossings, _ = _sweep_from_nodes(ctx, np.column_stack([grid.x[inflow], grid.y[inflow]]),
                                     psi.values, sign=1.0)
    mismatch = float(np.max(np.abs(crossings))) if len(crossings) else 0.0
    return grid.interior_field(y), mismatch


def kernel_element(ctx: ScoreContext, first_integral,
                   f_tol: float = 1e-6) -> ScalarField:
    """Near-kernel element h = exp(-r) F from a first integral F of the flow.

    r integrates the Laplacian of the base solution along backward traces
    from the inflow boundary, so that div(h grad u_theta) cancels to
    discretization order.  ``first_integral`` must be a vectorized callable
    constant along integral curves; constancy is verified against the traced
    entry points.  The result intentionally violates the collar condition:
    these directions approximate the kernel only in the unconstrained limit.
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
        raise ValueError("first integral vanishes identically")
    drift = float(np.abs(f_nodes - f_entry).max())
    if drift > max(f_tol, 1e3 * ODE_TOL) * scale:
        raise ValueError(
            f"first integral drifts by {drift:.3e} along curves; "
            "not constant on the flow")
    r = np.zeros(grid.n_nodes)
    r[ids] = r_vals
    return ScalarField(grid, np.exp(-r) * f_all)
