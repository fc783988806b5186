"""Toolkit for the local information geometry of a divergence-form elliptic
inverse problem.

The forward model solves div(theta * grad u) = f on a planar domain with
Dirichlet data g, observes u at random design points under Gaussian noise,
and the toolkit provides the linearized score machinery around a base
conductivity theta: the linearization operator, its adjoint, the information
operator with its spectral decomposition, Fisher functionals and their
degeneracy diagnostics, transport-equation range checks along integral
curves of grad u, and Monte Carlo experiments for the likelihood expansion.
"""

from ellinfo.grids import (
    DomainKind,
    DomainSpec,
    Grid,
    ScalarField,
    VectorField,
    build_grid,
    inner_l2,
    laplacian,
    make_bump,
    norm_l2,
    random_smooth_field,
    sobolev_norm,
)
from ellinfo.elliptic import (
    Conductivity,
    DivergenceFormOperator,
    check_identifiability,
)
from ellinfo.score import ScoreContext, adjoint_defects, gateaux_remainders, stability_report
from ellinfo.spectral import (
    FisherReport,
    RefinementSweep,
    SpectralDecomposition,
    degeneracy_profile,
    eigendecompose,
    fisher_information,
    fisher_refinement,
    range_series,
)
from ellinfo.transport import (
    IntegralCurve,
    RangeVerdict,
    kernel_element,
    range_verdict,
    ray_integral_disk,
    solve_transport,
    trace_curve,
)
from ellinfo.simulate import (
    MCReport,
    RiskTable,
    info_identity_mc,
    lan_mc,
    plugin_risk_study,
)
from ellinfo import fixtures

__version__ = "0.1.0"

__all__ = [
    "DomainKind",
    "DomainSpec",
    "Grid",
    "ScalarField",
    "VectorField",
    "build_grid",
    "inner_l2",
    "norm_l2",
    "laplacian",
    "sobolev_norm",
    "make_bump",
    "random_smooth_field",
    "Conductivity",
    "DivergenceFormOperator",
    "check_identifiability",
    "ScoreContext",
    "stability_report",
    "gateaux_remainders",
    "adjoint_defects",
    "SpectralDecomposition",
    "eigendecompose",
    "range_series",
    "degeneracy_profile",
    "fisher_information",
    "fisher_refinement",
    "FisherReport",
    "RefinementSweep",
    "IntegralCurve",
    "RangeVerdict",
    "trace_curve",
    "ray_integral_disk",
    "range_verdict",
    "solve_transport",
    "kernel_element",
    "MCReport",
    "RiskTable",
    "info_identity_mc",
    "lan_mc",
    "plugin_risk_study",
    "fixtures",
]
