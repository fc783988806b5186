"""Names, reasons and units of the benchmark's workloads and metrics.

Plain data shared by the benchmark entry point (``run.py``), which must not
import the package it measures, and the workload process (``child.py``).
"""

#: Workload name -> why it is in the benchmark.
WORKLOADS = {
    "degeneracy": "Fisher sweeps, degeneracy ladder and spectrum: dense B_hat, "
                  "eigh, dense LU and the singular-grid fallback dominate",
    "transport_geometry": "curve tracing with one interpolation point per "
                          "Runge-Kutta stage; no spectral work",
    "regression_mc": "Monte Carlo replicate loops with batched interpolation "
                     "of 1e4 points per call, on the square and the disk",
    "forward": "large forward solves (LU and conjugate gradient), operator "
               "verification ladders and multi-megabyte solution CSVs",
}

#: End-to-end metric -> unit, measured with tracing off.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Speed adjustment of end-to-end times (see ``speed.py``): a raw time t is
#: reported as t * (NOMINAL_S / k) ** e, with k the median time of the
#: reference kernel measured alongside it and e the elasticity of passes or
#: of set-up.
NOMINAL_S = 0.0085
PASS_ELASTICITY = 0.5
SETUP_ELASTICITY = 1.0

#: The package's modules, one layer each.
LAYERS = ("grids", "elliptic", "fixtures", "score", "spectral", "transport",
          "simulate", "io", "cli")

#: Per-layer metrics reported by a traced run: name -> (unit, better).
LAYER_METRICS = {
    "grids.interp_builds": ("count", "lower"),
    "grids.interp_calls": ("count", "lower"),
    "grids.interp_points": ("count", "lower"),
    "grids.interp_s": ("s", "lower"),
    "grids.self_s": ("s", "lower"),
    "elliptic.operator_builds": ("count", "lower"),
    "elliptic.operator_build_s": ("s", "lower"),
    "elliptic.solves": ("count", "lower"),
    "elliptic.solve_s": ("s", "lower"),
    "elliptic.cg_iterations": ("count", "lower"),
    "elliptic.unknowns_max": ("count", "lower"),
    "elliptic.self_s": ("s", "lower"),
    "score.contexts": ("count", "lower"),
    "score.context_self_s": ("s", "lower"),
    "score.dense_bhat_builds": ("count", "lower"),
    "score.dense_bhat_s": ("s", "lower"),
    "score.dense_bytes_computed": ("B", "lower"),
    "score.applies": ("count", "lower"),
    "score.apply_s": ("s", "lower"),
    "score.self_s": ("s", "lower"),
    "spectral.eig_calls": ("count", "lower"),
    "spectral.eig_s": ("s", "lower"),
    "spectral.eig_dim_max": ("count", "lower"),
    "spectral.fisher_calls": ("count", "lower"),
    "spectral.fisher_s": ("s", "lower"),
    "spectral.fisher_fallbacks": ("count", "lower"),
    "spectral.exact_grid_ratio": ("ratio", "higher"),
    "spectral.ladder_s": ("s", "lower"),
    "spectral.sweep_self_s": ("s", "lower"),
    "spectral.self_s": ("s", "lower"),
    "transport.traces": ("count", "lower"),
    "transport.trace_s": ("s", "lower"),
    "transport.line_integral_s": ("s", "lower"),
    "transport.verdict_self_s": ("s", "lower"),
    "transport.unclassified_ratio": ("ratio", "lower"),
    "transport.solve_s": ("s", "lower"),
    "transport.kernel_s": ("s", "lower"),
    "transport.self_s": ("s", "lower"),
    "simulate.replicates": ("count", "lower"),
    "simulate.samples": ("count", "lower"),
    "simulate.lan_self_s": ("s", "lower"),
    "simulate.risk_self_s": ("s", "lower"),
    "simulate.identity_s": ("s", "lower"),
    "simulate.self_s": ("s", "lower"),
    "fixtures.psi_s": ("s", "lower"),
    "fixtures.self_s": ("s", "lower"),
    "io.files": ("count", "lower"),
    "io.bytes": ("B", "lower"),
    "io.write_s": ("s", "lower"),
    "io.self_s": ("s", "lower"),
    "cli.runs": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.pass_s": ("s", "lower"),
    "trace.untraced_pass_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}
