"""Shipped model configurations and functional fixtures.

Three named configurations are available everywhere (library and CLI):

* ``square_ex1``  shifted square, f = 2, g = (|x|^2 - 1)/2.  At theta = 1 the
  solution is g itself, with gradient x bounded away from zero, so every
  integral curve crosses the domain in finite time.
* ``disk_ex2``    unit disk, f = 2, g = 0.  At theta = 1 the solution is
  (|x|^2 - 1)/2 with gradient x vanishing at the origin; integral curves are
  radial rays.
* ``saddle``      shifted square, f = 0, g = x1^2 - x2^2.  The base solution
  is discretely harmonic, so constants lie in the exact kernel of the
  linearization; the saddle point of g sits outside the domain, which keeps
  the flow non-trapping while preserving the kernel structure.

Functional fixtures for range/degeneracy studies come in three kinds:

* ``bump``           a nonnegative mollifier bump (out of range: its integral
  along crossing curves cannot vanish),
* ``quadrant_bump``  a disk bump confined to one angular sector, vanishing
  identically on some rays through the boundary,
* ``in_range``       psi manufactured as the exact discrete adjoint image
  I*(w) with w = L(phi) for a smooth compactly supported potential phi, so
  psi = grad u . grad phi up to quadrature and the transport solution is phi
  itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ellinfo.elliptic import Conductivity
from ellinfo.grids import (COLLAR_CELLS, DomainKind, DomainSpec, Grid,
                           ScalarField, build_grid, make_bump)
from ellinfo.score import ScoreContext

FIXTURE_NAMES = ("square_ex1", "disk_ex2", "saddle")
#: Parameters of each psi kind; a config file's ``[psi]`` sets all but ``value``.
_PSI_PARAMS = {"bump": ("center", "radius", "amplitude"), "quadrant_bump": ("amplitude",),
               "in_range": ("center", "radius"), "constant": ("value",)}
PSI_KINDS = tuple(_PSI_PARAMS)

_DEFAULT_THETA_BUMP = {
    "square_ex1": ((1.6, 1.4), 0.28, 0.15),
    "disk_ex2": ((0.3, 0.25), 0.3, 0.15),
    "saddle": ((1.6, 1.4), 0.28, 0.15),
}

_DEFAULT_PSI_BUMP = {
    DomainKind.SQUARE: ((1.5, 1.5), 0.12, 1.0),
    DomainKind.DISK: ((0.38, 0.09), 0.22, 1.0),
}

_QUADRANT_BUMP = ((-0.318198, 0.318198), 0.21, 1.0)  # 0.45 * (cos, sin)(135 deg)

_DEFAULT_POTENTIAL = {
    DomainKind.SQUARE: ((1.5, 1.5), 0.35),
    DomainKind.DISK: ((0.36, -0.18), 0.26),
}


def _window_bump(grid: Grid, center, radius: float) -> ScalarField:
    """Quartic window (1 - s^2)^4 on s < 1, zero outside.

    Compactly supported with three continuous derivatives at the cutoff but
    far flatter than the mollifier near the support edge, which keeps the
    manufactured functional concentrated on low-frequency modes.
    """
    cx, cy = float(center[0]), float(center[1])
    if radius <= 0:
        raise ValueError("window radius must be positive")
    clearance = grid.boundary_distance(np.array([[cx, cy]]))[0] - radius
    if clearance + 1e-12 < COLLAR_CELLS * grid.h_mesh:
        raise ValueError(
            f"window support (center {center}, radius {radius}) too close to "
            f"the boundary for this grid"
        )
    s2 = ((grid.x - cx) ** 2 + (grid.y - cy) ** 2) / radius**2
    vals = np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** 4, 0.0)
    return ScalarField(grid, vals)


def fixture_domain(name: str, resolution) -> DomainSpec:
    """Domain spec for a named configuration; an int resolution n means
    (n, n) nodes on the square and (n, 2n) on the disk."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    kind = DomainKind.DISK if name == "disk_ex2" else DomainKind.SQUARE
    if isinstance(resolution, (int, np.integer)):
        res = (int(resolution), 2 * int(resolution)) if kind is DomainKind.DISK \
            else (int(resolution), int(resolution))
    else:
        res = tuple(int(v) for v in resolution)
    return DomainSpec(kind, res)


def fixture_data(name: str, grid: Grid) -> tuple[ScalarField, ScalarField]:
    """Source f and boundary data g of a named configuration."""
    if name == "square_ex1":
        f = grid.field(2.0)
        g = grid.field(lambda x, y: (x**2 + y**2 - 1.0) / 2.0)
    elif name == "disk_ex2":
        f = grid.field(2.0)
        g = grid.field(0.0)
    elif name == "saddle":
        f = grid.field(0.0)
        g = grid.field(lambda x, y: x**2 - y**2)
    else:
        raise ValueError(f"unknown fixture {name!r}")
    return f, g


def exact_solution(name: str, grid: Grid) -> ScalarField:
    """Closed-form base solution at theta = 1 (exact for central differences,
    since every fixture solution is a quadratic polynomial)."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    if name == "saddle":
        return ScalarField(grid, grid.x**2 - grid.y**2)
    return ScalarField(grid, (grid.x**2 + grid.y**2 - 1.0) / 2.0)


def build_context(name: str, resolution, theta_bump=None, eta: float | None = None) -> ScoreContext:
    """Score context for a named configuration.

    ``theta_bump`` perturbs the base conductivity away from 1: pass True for
    the fixture default, or a (center, radius, amplitude) triple.
    """
    spec = fixture_domain(name, resolution)
    grid = build_grid(spec)
    if theta_bump is None:
        theta = Conductivity.constant(grid)
    else:
        if theta_bump is True:
            theta_bump = _DEFAULT_THETA_BUMP[name]
        center, radius, amplitude = theta_bump
        theta = Conductivity.with_bump(grid, center, radius, amplitude, eta=eta)
    f, g = fixture_data(name, grid)
    return ScoreContext(theta, f, g)


def bump_psi(grid: Grid, center=None, radius=None, amplitude=None) -> ScalarField:
    c0, r0, a0 = _DEFAULT_PSI_BUMP[grid.spec.kind]
    return make_bump(grid,
                     c0 if center is None else center,
                     r0 if radius is None else radius,
                     a0 if amplitude is None else amplitude)


def quadrant_bump_psi(grid: Grid, amplitude: float | None = None) -> ScalarField:
    """Disk bump supported in one angular sector, away from the origin."""
    if grid.spec.kind is not DomainKind.DISK:
        raise ValueError("the quadrant bump fixture lives on the disk")
    center, radius, a0 = _QUADRANT_BUMP
    return make_bump(grid, center, radius, a0 if amplitude is None else amplitude)


@dataclass
class InRangeFixture:
    psi: ScalarField
    potential: ScalarField   # phi: the transport solution matching psi
    source: ScalarField      # w = L(phi): psi = I*(w) exactly at the discrete level


def in_range_fixture(ctx: ScoreContext, center=None, radius=None) -> InRangeFixture:
    """Manufacture psi in the exact range of the discrete adjoint.

    phi is a quartic window bump, w = L_theta(phi), and psi = I*(w).  Because
    the zero-boundary inverse is exact on collar-supported fields, psi
    coincides with a consistent quadrature of grad u_theta . grad phi and the
    transport equation grad u . grad y = psi is solved by y = phi.
    """
    grid = ctx.grid
    c0, r0 = _DEFAULT_POTENTIAL[grid.spec.kind]
    center = c0 if center is None else center
    radius = r0 if radius is None else radius
    phi = _window_bump(grid, center, radius)
    w = ctx.op.apply_operator(phi)
    return InRangeFixture(psi=ctx.apply_adjoint_exact(w), potential=phi, source=w)


def in_range_psi(ctx: ScoreContext, center=None, radius=None) -> ScalarField:
    return in_range_fixture(ctx, center, radius).psi


def psi_fixture(ctx: ScoreContext, kind: str, **params) -> ScalarField:
    """Dispatcher used by the CLI; a parameter the kind does not take is a ValueError."""
    if kind not in _PSI_PARAMS:
        raise ValueError(f"unknown psi fixture kind {kind!r}; choose from {PSI_KINDS}")
    if extra := sorted(set(params) - set(_PSI_PARAMS[kind])):
        raise ValueError(f"psi kind {kind!r} takes {list(_PSI_PARAMS[kind])}, not {extra}")
    if kind == "bump":
        return bump_psi(ctx.grid, **params)
    if kind == "quadrant_bump":
        return quadrant_bump_psi(ctx.grid, **params)
    if kind == "in_range":
        return in_range_psi(ctx, **params)
    return ctx.grid.field(params.get("value", 1.0))


#: psi fixtures shipped for the cross-module coherence comparison:
#: (configuration, psi kind, expected classification).
SHIPPED_PSI_FIXTURES = (
    ("square_ex1", "bump", "out_of_range"),
    ("square_ex1", "in_range", "in_range"),
    ("disk_ex2", "quadrant_bump", "out_of_range"),
    ("disk_ex2", "in_range", "in_range"),
)
