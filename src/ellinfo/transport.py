"""Integral curves of the base gradient field and transport-based range checks.

If psi lies in the range of the adjoint linearization, the first-order PDE
grad u_theta . grad y = psi with zero trace has a solution, and psi must
integrate to zero along every integral curve of grad u_theta crossing the
domain.  This module traces those curves, evaluates the line-integral
obstructions, solves the transport problem on the non-trapping square
configuration (as the inverse Fisher form does, by T^T y = W psi; curves give
the outflow mismatch), and builds kernel elements from first integrals.

All traces share one ODE right-hand side and terminal events (boundary exit,
critical point) from ``_flow_events``; each Runge-Kutta stage evaluates
grad u_theta, and any integrand carried along, through ``Grid.point_evaluator``.
Line and ray integrals evaluate their samples in one ``Grid.interpolator`` call.

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
from scipy.integrate import simpson, solve_ivp

from ellinfo.grids import DomainKind, Grid, ScalarField
from ellinfo.score import TRANSPORT_SOLVE_RTOL, ScoreContext

#: Relative tolerance of the adaptive curve integrator.
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

CURVE_TERMINATIONS = ("boundary_exit", "critical_point", "step_limit")
RANGE_VERDICTS = ("incompatible", "compatible_within_tol", "constant_offset_detected")


def _point_boundary_distance(grid: Grid, x: float, y: float) -> float:
    if grid.spec.kind is DomainKind.SQUARE:
        return min(x - 1.0, 2.0 - x, y - 1.0, 2.0 - y)
    return 1.0 - math.hypot(x, y)


def _flow_cache(ctx: ScoreContext) -> dict:
    cache = getattr(ctx, "_transport_cache", None)
    if cache is None:
        max_grad = float(ctx.grad_u.magnitude().max())
        cache = {
            "flow": ctx.grid.point_evaluator(np.column_stack([ctx.grad_u.vx,
                                                              ctx.grad_u.vy])),
            "max_grad": max_grad,
            "crit_tol": CRIT_TOL_FACTOR * max_grad,
        }
        ctx._transport_cache = cache
    return cache


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


def _flow_events(ctx: ScoreContext, sign: float, integrand=None):
    """Right-hand side and terminal events of the flow ODE z' = sign grad u.

    With nodal ``integrand`` values the state gains a third component, the
    integral of the integrand against increasing curve parameter (the ODE
    parameter in both directions), evaluated jointly with the flow: each
    Runge-Kutta stage costs one point evaluation.
    """
    cache = _flow_cache(ctx)
    crit_tol = cache["crit_tol"]
    grid = ctx.grid
    flow = cache["flow"] if integrand is None else grid.point_evaluator(
        np.column_stack([ctx.grad_u.vx, ctx.grad_u.vy,
                         np.asarray(integrand, dtype=float)]))

    def rhs(_s, z):
        g = flow(*z[:2].tolist())
        g[0] *= sign
        g[1] *= sign
        return g

    def hit_boundary(_s, z):
        return _point_boundary_distance(grid, z[0], z[1])

    def hit_critical(_s, z):
        g = flow(*z[:2].tolist())
        return math.hypot(g[0], g[1]) - crit_tol

    hit_boundary.terminal = True
    hit_boundary.direction = -1.0
    hit_critical.terminal = True
    hit_critical.direction = -1.0
    return rhs, hit_boundary, hit_critical


def trace_curve(ctx: ScoreContext, x0, direction: str = "forward",
                strict: bool = True) -> IntegralCurve:
    """Trace the integral curve of grad u_theta through an interior point.

    Adaptive Runge-Kutta with terminal events for boundary exit and critical
    points; the returned curve is resampled uniformly in the curve parameter
    for quadrature.  ``strict`` raises if the time horizon ``TIME_LIMIT`` is
    exhausted before either event fires.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    x0 = np.asarray(x0, dtype=float).reshape(2)
    if _point_boundary_distance(ctx.grid, x0[0], x0[1]) <= 0.0:
        raise ValueError("seed point must lie strictly inside the domain")
    sign = 1.0 if direction == "forward" else -1.0
    rhs, hit_boundary, hit_critical = _flow_events(ctx, sign)
    sol = solve_ivp(rhs, (0.0, TIME_LIMIT), x0, method="RK45", rtol=ODE_TOL,
                    atol=1e-12, events=[hit_boundary, hit_critical],
                    dense_output=True)
    if sol.t_events[0].size:
        termination, s_end = "boundary_exit", float(sol.t_events[0][0])
    elif sol.t_events[1].size:
        termination, s_end = "critical_point", float(sol.t_events[1][0])
    else:
        if strict:
            raise RuntimeError(
                f"curve from {tuple(x0)} not classified within time {TIME_LIMIT}")
        termination, s_end = "step_limit", float(sol.t[-1])
    ss = np.linspace(0.0, s_end, N_CURVE_SAMPLES) if s_end > 0 else np.array([0.0])
    pts = sol.sol(ss).T if s_end > 0 else x0.reshape(1, 2)
    return IntegralCurve(seed=tuple(x0), direction=direction, times=sign * ss,
                         points=pts, termination=termination,
                         travel_time=abs(s_end), n_steps=sol.t.size - 1)


def line_integral(psi: ScalarField, curve: IntegralCurve) -> float:
    """Integral of psi along the curve, oriented by increasing parameter."""
    if len(curve.times) < 3:
        return 0.0
    vals = psi.grid.interpolator(psi.values)(curve.points)
    ts = curve.times
    if ts[0] > ts[-1]:
        ts, vals = ts[::-1], vals[::-1]
    return float(simpson(vals, x=ts))


def _support_min_radius(psi: ScalarField, rtol: float = 1e-9) -> float:
    grid = psi.grid
    mags = np.abs(psi.values)
    peak = mags.max()
    if peak == 0.0:
        return math.inf
    rr = np.hypot(grid.x, grid.y)
    inner = float(rr[mags > rtol * peak].min())
    return max(inner - grid.h_mesh, 0.0)


def ray_integral_disk(psi: ScalarField, z,
                      support_min_radius: float | None = None) -> float:
    """Integral of psi along the ray t -> z e^t, t <= 0, through |z| = 1.

    The parametrization follows the radial flow of the disk configuration,
    so equality of these integrals across boundary points is the transport
    compatibility condition there.  psi must be supported away from the
    origin; the quadrature truncates at e^t = half the support radius,
    which ``support_min_radius`` passes in when the caller already has it.
    """
    z = np.asarray(z, dtype=float).reshape(2)
    if abs(math.hypot(z[0], z[1]) - 1.0) > 1e-8:
        raise ValueError("ray integrals are anchored at boundary points |z| = 1")
    if psi.grid.spec.kind is not DomainKind.DISK:
        raise ValueError("ray integrals are defined on the disk configuration")
    if support_min_radius is None:
        support_min_radius = _support_min_radius(psi)
    if support_min_radius == math.inf:
        return 0.0
    if support_min_radius <= 0.0:
        raise ValueError("psi support touches the origin; ray integral diverges")
    t_min = math.log(support_min_radius / 2.0)
    ts = np.linspace(t_min, 0.0, N_RAY_SAMPLES)
    pts = np.exp(ts)[:, None] * z[None, :]
    return float(simpson(psi.grid.interpolator(psi.values)(pts), x=ts))


@dataclass
class RangeVerdict:
    """Transport-compatibility classification of a functional.

    On the square configuration every crossing curve must integrate to
    (approximately) zero; on the disk all ray integrals must share a common
    constant, and any single vanishing ray forces that constant to zero.
    ``ode_steps`` sums the accepted Runge-Kutta steps of the traced curves
    (0 on the disk, whose rays are integrated without tracing).
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
    generates a full crossing curve (backward plus forward trace) whose
    integral must vanish up to ``VERDICT_MARGIN`` times the noise floor.
    Disk: integrals along ``N_DISK_RAYS`` boundary rays must agree; a
    vanishing ray alongside non-vanishing ones yields an incompatible
    verdict with the witness flag.
    """
    grid = ctx.grid
    peak = float(np.abs(psi.values).max())
    integral_tol = INTEGRAL_TOL_FACTOR * peak if peak > 0 else INTEGRAL_TOL_FACTOR
    threshold = VERDICT_MARGIN * integral_tol

    if grid.spec.kind is DomainKind.DISK:
        angles = np.linspace(0.0, 2.0 * math.pi, N_DISK_RAYS, endpoint=False)
        seeds = np.column_stack([np.cos(angles), np.sin(angles)])
        radius = _support_min_radius(psi)
        integrals = np.array([ray_integral_disk(psi, z, support_min_radius=radius)
                              for z in seeds])
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
    integrals = np.empty(len(seeds))
    curves = []
    unclassified = ode_steps = 0
    for i, seed in enumerate(seeds):
        back = trace_curve(ctx, seed, "backward", strict=False)
        fwd = trace_curve(ctx, seed, "forward", strict=False)
        ode_steps += back.n_steps + fwd.n_steps
        if back.termination != "boundary_exit" or fwd.termination != "boundary_exit":
            unclassified += 1
            integrals[i] = math.nan
            continue
        integrals[i] = line_integral(psi, back) + line_integral(psi, fwd)
        curves.append((back, fwd))
    if unclassified > 0.05 * len(seeds):
        raise RuntimeError(
            f"{unclassified}/{len(seeds)} curves not classified; "
            "flow may be trapping or near-critical")
    finite = integrals[np.isfinite(integrals)]
    max_abs = float(np.max(np.abs(finite)))
    verdict = "compatible_within_tol" if max_abs <= threshold else "incompatible"
    return RangeVerdict(psi=psi, seeds=seeds, integrals=integrals,
                        max_abs_integral=max_abs, integral_tol=integral_tol,
                        threshold=threshold, verdict=verdict,
                        n_unclassified=unclassified, ode_steps=ode_steps,
                        curves=curves)


def _sweep_from_nodes(ctx: ScoreContext, nodes: np.ndarray,
                      integrand_values: np.ndarray,
                      sign: float, nudge: bool = False):
    """Integrate the flow ODE augmented with d(acc)/dt = integrand from each
    node until boundary exit; returns accumulated integrals and exit points.

    ``integrand_values`` are nodal values, evaluated jointly with the flow
    (see :func:`_flow_events`).  ``sign`` selects forward (+1) or backward
    (-1) traces; the accumulator always represents the integral with respect
    to increasing curve parameter over the traversed segment.
    """
    rhs, hit_boundary, hit_critical = _flow_events(ctx, sign, integrand_values)
    acc = np.empty(len(nodes))
    exits = np.empty((len(nodes), 2))
    for i, (x0, y0) in enumerate(nodes):
        z0 = np.array([x0, y0, 0.0])
        if nudge:
            g = rhs(0.0, z0)
            step = 1e-9 / max(np.linalg.norm(g[:2]), 1e-12)
            z0 = np.array([x0 + step * g[0], y0 + step * g[1], 0.0])
        sol = solve_ivp(rhs, (0.0, TIME_LIMIT), z0, method="RK45",
                        rtol=ODE_TOL, atol=1e-12,
                        events=[hit_boundary, hit_critical])
        if sol.t_events[1].size:
            raise RuntimeError(
                "critical point encountered; transport solve needs the "
                "non-trapping configuration")
        if not sol.t_events[0].size:
            raise RuntimeError(
                f"curve from ({x0}, {y0}) did not reach the boundary")
        acc[i] = sol.y_events[0][0][2]
        exits[i] = sol.y_events[0][0][:2]
    return acc, exits


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
    in_nodes = np.column_stack([grid.x[inflow], grid.y[inflow]])
    crossings, _ = _sweep_from_nodes(ctx, in_nodes, psi.values, sign=1.0, nudge=True)
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
    lap = grid.reshape(grid.laplacian_values(ctx.u.values)).copy()
    lap[0, :] = lap[1, :]
    lap[-1, :] = lap[-2, :]
    lap[:, 0] = lap[:, 1]
    lap[:, -1] = lap[:, -2]
    lap = lap.reshape(-1)
    nodes = np.column_stack([grid.x[grid.interior_ids], grid.y[grid.interior_ids]])
    r_vals, entries = _sweep_from_nodes(ctx, nodes, lap, sign=-1.0)
    f_nodes = np.asarray(first_integral(nodes[:, 0], nodes[:, 1]), dtype=float)
    f_entry = np.asarray(first_integral(entries[:, 0], entries[:, 1]), dtype=float)
    scale = float(np.abs(f_nodes).max())
    if scale == 0.0:
        raise ValueError("first integral vanishes identically")
    drift = float(np.abs(f_nodes - f_entry).max())
    if drift > max(f_tol, 1e3 * ODE_TOL) * scale:
        raise ValueError(
            f"first integral drifts by {drift:.3e} along curves; "
            "not constant on the flow")
    vals = np.empty(grid.n_nodes)
    vals[grid.interior_ids] = np.exp(-r_vals) * f_nodes
    # Boundary nodes: entry points of their curves carry r = 0; strictly
    # outflow nodes carry the full crossing integral, traced with an inward
    # nudge so the exit event does not fire at the start.
    bids = grid.boundary_ids
    bx, by = grid.x[bids], grid.y[bids]
    outflow = np.nanmin(_edge_fluxes(ctx), axis=0) > 0
    r_bound = np.zeros(len(bids))
    if outflow.any():
        r_out, _ = _sweep_from_nodes(
            ctx, np.column_stack([bx[outflow], by[outflow]]), lap,
            sign=-1.0, nudge=True)
        r_bound[outflow] = r_out
    f_bound = np.asarray(first_integral(bx, by), dtype=float)
    vals[bids] = np.exp(-r_bound) * f_bound
    return ScalarField(grid, vals)
