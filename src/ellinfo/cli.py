"""Command-line entry point: configure a fixture, run a named experiment,
emit deterministic CSV/JSON artifacts plus a provenance manifest.

Subcommands
-----------
solve             forward solves with error against the closed-form solution
verify-operators  adjoint/differentiability/stability verification battery
spectrum          eigendecomposition of the information operator
fisher            inverse-Fisher refinement sweep with range classification
transport         curve-integral range verdict for a functional
simulate          LAN Monte Carlo for the log-likelihood ratio
reproduce-thm37   degeneracy showcase: divergent inverse Fisher + quotient ladder
reproduce-thm38   transport showcase: crossing/ray obstructions on both domains

All experiment logic lives in the library; this module only parses
configuration, composes library calls, and serializes results.  Reruns with
identical configuration are byte-identical except for the manifest
timestamp.  Exit codes: 0 success, 2 configuration error, 1 runtime failure
(both failure modes emit a JSON error record on stderr before exiting).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ellinfo import io as eio
from ellinfo.elliptic import Conductivity, DivergenceFormOperator
from ellinfo.fixtures import (FIXTURE_NAMES, PSI_KINDS, build_context,
                              exact_solution, fixture_data, fixture_domain,
                              psi_fixture)
from ellinfo.grids import (MIN_RESOLUTION, DomainKind, ScalarField, build_grid,
                           inner_l2, norm_l2, random_smooth_field)
from ellinfo.score import ScoreContext, gateaux_remainders, stability_report
from ellinfo.simulate import lan_mc
from ellinfo.spectral import degeneracy_profile, eigendecompose, fisher_refinement
from ellinfo.transport import IntegralCurve, range_verdict, trace_curve

SUBCOMMANDS = ("solve", "verify-operators", "spectrum", "fisher", "transport",
               "simulate", "reproduce-thm37", "reproduce-thm38")

_SWEEP_DEFAULTS = {"square_ex1": (17, 25, 33), "saddle": (17, 25, 33),
                   "disk_ex2": (20, 28, 40)}
_TRANSPORT_DEFAULTS = {"square_ex1": 33, "saddle": 33, "disk_ex2": 96}


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit status 2."""


@dataclass
class ExperimentConfig:
    """Resolved settings of one CLI invocation (file values + flag overrides)."""

    subcommand: str
    fixture: str = "square_ex1"
    resolutions: tuple | None = None
    psi: str | None = None
    psi_params: dict = field(default_factory=dict)
    theta_bump: tuple | None = None
    eta: float | None = None
    seed: int = 0
    samples: int = 10_000
    replicates: int = 2000
    n_modes: int | None = None
    out: Path = Path("ellinfo-out")

    def as_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "fixture": self.fixture,
            "resolutions": list(self.resolutions) if self.resolutions else None,
            "psi": self.psi,
            "psi_params": self.psi_params,
            "theta_bump": list(self.theta_bump) if self.theta_bump else None,
            "eta": self.eta,
            "seed": self.seed,
            "samples": self.samples,
            "replicates": self.replicates,
            "n_modes": self.n_modes,
            "out": str(self.out),
        }


def _parse_resolutions(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad resolution list {text!r}: {exc}") from None
    if not values or any(v < MIN_RESOLUTION for v in values):
        raise ConfigError(
            f"resolutions must be integers >= {MIN_RESOLUTION}, got {text!r}")
    return values


def _parse_pair(text: str, label: str) -> tuple:
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) != 2:
        raise ConfigError(f"{label} must be two comma-separated numbers, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad {label} {text!r}: {exc}") from None


def _load_config_file(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config-file sections, and CLI flag overrides."""
    cfg = ExperimentConfig(subcommand=args.subcommand)
    if args.config:
        parser = _load_config_file(args.config)
        exp = parser["experiment"] if parser.has_section("experiment") else {}
        if "fixture" in exp:
            cfg.fixture = exp["fixture"].strip()
        if "resolution" in exp:
            cfg.resolutions = _parse_resolutions(exp["resolution"])
        if "seed" in exp:
            cfg.seed = int(exp["seed"])
        if "psi" in exp:
            cfg.psi = exp["psi"].strip()
        if parser.has_section("psi"):
            sec = parser["psi"]
            if "center" in sec:
                cfg.psi_params["center"] = _parse_pair(sec["center"], "psi center")
            if "radius" in sec:
                cfg.psi_params["radius"] = float(sec["radius"])
            if "amplitude" in sec:
                cfg.psi_params["amplitude"] = float(sec["amplitude"])
        if parser.has_section("theta"):
            sec = parser["theta"]
            if "eta" in sec:
                cfg.eta = None if sec["eta"].strip() == "none" else float(sec["eta"])
            keys = ("bump_center", "bump_radius", "bump_amplitude")
            present = [k for k in keys if k in sec]
            if present:
                if len(present) != 3:
                    raise ConfigError(
                        "theta bump needs bump_center, bump_radius and bump_amplitude")
                center = _parse_pair(sec["bump_center"], "theta bump center")
                cfg.theta_bump = (center, float(sec["bump_radius"]),
                                  float(sec["bump_amplitude"]))
        if parser.has_section("simulate"):
            sec = parser["simulate"]
            if "samples" in sec:
                cfg.samples = int(sec["samples"])
            if "replicates" in sec:
                cfg.replicates = int(sec["replicates"])
        if parser.has_section("output") and "dir" in parser["output"]:
            cfg.out = Path(parser["output"]["dir"])
    if args.fixture:
        cfg.fixture = args.fixture
    if args.resolution:
        cfg.resolutions = _parse_resolutions(args.resolution)
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "psi", None):
        cfg.psi = args.psi
    if getattr(args, "samples", None):
        cfg.samples = args.samples
    if getattr(args, "replicates", None):
        cfg.replicates = args.replicates
    if getattr(args, "n_modes", None):
        cfg.n_modes = args.n_modes
    if args.out:
        cfg.out = Path(args.out)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.fixture not in FIXTURE_NAMES:
        raise ConfigError(
            f"unknown fixture {cfg.fixture!r}; choose from {FIXTURE_NAMES}")
    if cfg.psi is not None and cfg.psi not in PSI_KINDS:
        raise ConfigError(f"unknown psi kind {cfg.psi!r}; choose from {PSI_KINDS}")
    if cfg.psi == "quadrant_bump" and cfg.fixture != "disk_ex2":
        raise ConfigError(
            "psi kind 'quadrant_bump' is a disk-ray fixture; it is not "
            f"defined on {cfg.fixture!r}")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if cfg.samples < 1 or cfg.replicates < 1:
        raise ConfigError("samples and replicates must be positive")
    if cfg.subcommand in ("fisher", "transport") and cfg.psi is None:
        cfg.psi = "bump"
    if cfg.resolutions is None:
        if cfg.subcommand == "fisher":
            cfg.resolutions = _SWEEP_DEFAULTS[cfg.fixture]
        elif cfg.subcommand == "transport":
            cfg.resolutions = (_TRANSPORT_DEFAULTS[cfg.fixture],)
        elif cfg.subcommand == "reproduce-thm37":
            cfg.resolutions = (17, 33, 65)
        elif cfg.subcommand == "reproduce-thm38":
            cfg.resolutions = (33, 96)
        else:
            cfg.resolutions = (33,)
    if cfg.subcommand == "fisher" and len(cfg.resolutions) < 3:
        raise ConfigError("fisher sweeps need at least three resolutions")
    if cfg.subcommand == "reproduce-thm38" and len(cfg.resolutions) != 2:
        raise ConfigError(
            "reproduce-thm38 takes two resolutions: square grid, disk grid")


# --------------------------------------------------------------------------
# subcommand implementations: each returns (summary, tables, curve_tables)
# where tables maps filename -> (columns, rows, meta).


def _run_solve(cfg: ExperimentConfig):
    tables = {}
    per_res = {}
    for res in cfg.resolutions:
        grid = build_grid(fixture_domain(cfg.fixture, res))
        f, g = fixture_data(cfg.fixture, grid)
        theta = Conductivity.constant(grid)
        t0 = time.perf_counter()
        u = DivergenceFormOperator(theta).solve(f, g)
        runtime = time.perf_counter() - t0
        err = float(np.max(np.abs(u.values - exact_solution(cfg.fixture, grid).values)))
        per_res[str(res)] = {"max_error": err, "runtime_s": runtime,
                             "n_nodes": grid.n_nodes}
        tables[f"solution_{res}.csv"] = (
            ("x", "y", "u"), list(zip(grid.x, grid.y, u.values)),
            {"fixture": cfg.fixture, "resolution": res})
    summary = {"fixture": cfg.fixture, "resolutions": list(cfg.resolutions),
               "theta": "constant 1", "results": per_res}
    return summary, tables, {}


def _run_verify_operators(cfg: ExperimentConfig):
    res = cfg.resolutions[0]
    ctx = build_context(cfg.fixture, res, theta_bump=cfg.theta_bump, eta=cfg.eta)
    grid = ctx.grid
    rng = np.random.default_rng(cfg.seed)
    defects = []
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(100):
            h = random_smooth_field(grid, rng, apply_collar=False)
            g = random_smooth_field(grid, rng, apply_collar=False)
            lhs = inner_l2(ctx.apply_linearization(h), g)
            rhs = inner_l2(h, ctx.apply_adjoint(g))
            defects.append(abs(lhs - rhs) / (norm_l2(h) * norm_l2(g)))
    defects = np.asarray(defects)
    slopes = []
    for k in range(3):
        h = random_smooth_field(grid, np.random.default_rng(cfg.seed + 1000 + k))
        _, slope = gateaux_remainders(ctx, h)
        slopes.append(slope)
    stab = stability_report(ctx, n_trials=200, seed=cfg.seed)
    summary = {
        "fixture": cfg.fixture, "resolution": res, "seed": cfg.seed,
        "adjoint": {"n_pairs": 100, "max_defect": float(defects.max()),
                    "mean_defect": float(defects.mean()),
                    "bound_5h": 5.0 * grid.h_mesh},
        "linearization_slopes": slopes,
        "stability": {"applicable": stab.applicable, "c0_hat": stab.c0_hat,
                      "min_ratio_T": stab.min_ratio_T,
                      "min_ratio_H2": stab.min_ratio_H2,
                      "n_trials": stab.n_trials},
    }
    tables = {"adjoint_defects.csv": (
        ("pair", "defect"), list(enumerate(defects)),
        {"fixture": cfg.fixture, "resolution": res, "seed": cfg.seed})}
    return summary, tables, {}


def _run_spectrum(cfg: ExperimentConfig):
    res = cfg.resolutions[0]
    ctx = build_context(cfg.fixture, res, theta_bump=cfg.theta_bump, eta=cfg.eta)
    decomp = eigendecompose(ctx, n_modes=cfg.n_modes)
    lam = decomp.eigenvalues
    summary = {
        "fixture": cfg.fixture, "resolution": res,
        "n_modes": int(lam.size), "complete": decomp.complete,
        "kernel_dim": int(decomp.kernel_mask.sum()),
        "lambda_max": float(lam[0]), "lambda_min": float(lam[-1]),
        "decay_ratio": float(lam[-1] / lam[0]),
    }
    tables = {"eigenvalues.csv": (
        ("k", "eigenvalue", "in_kernel"),
        [(k, lam[k], bool(decomp.kernel_mask[k])) for k in range(lam.size)],
        {"fixture": cfg.fixture, "resolution": res})}
    return summary, tables, {}


def _run_fisher(cfg: ExperimentConfig):
    sweep = fisher_refinement(cfg.fixture, cfg.psi, cfg.resolutions,
                              theta_bump=cfg.theta_bump,
                              psi_params=cfg.psi_params)
    rows = []
    for i, res in enumerate(sweep.resolutions):
        frac = sweep.kernel_fractions[i]
        rows.append((res, sweep.interior_dims[i], sweep.values[i],
                     bool(sweep.lower_bounds[i]),
                     float("nan") if frac is None else frac,
                     sweep.reports[i].method))
    summary = {
        "fixture": cfg.fixture, "psi": cfg.psi,
        "resolutions": list(sweep.resolutions),
        "i_inverse": [float(v) for v in sweep.values],
        "growth": sweep.growth, "variation": sweep.variation,
        "lower_bounds": list(sweep.lower_bounds),
        "verdict": sweep.verdict,
    }
    tables = {"refinement.csv": (
        ("resolution", "interior_dim", "i_inverse", "lower_bound",
         "kernel_fraction", "method"), rows,
        {"fixture": cfg.fixture, "psi": cfg.psi})}
    return summary, tables, {}


def _verdict_payload(v) -> dict:
    return {
        "verdict": v.verdict, "max_abs_integral": v.max_abs_integral,
        "integral_tol": v.integral_tol, "threshold": v.threshold,
        "zero_ray_witness": v.zero_ray_witness, "offset": v.offset,
        "n_curves": int(len(v.seeds)), "n_unclassified": v.n_unclassified,
        "ode_steps": v.ode_steps,
    }


def _run_transport(cfg: ExperimentConfig):
    res = cfg.resolutions[0]
    ctx = build_context(cfg.fixture, res, theta_bump=cfg.theta_bump, eta=cfg.eta)
    psi = psi_fixture(ctx, cfg.psi, **cfg.psi_params)
    verdict = range_verdict(ctx, psi)
    rows = [(i, verdict.seeds[i, 0], verdict.seeds[i, 1], verdict.integrals[i])
            for i in range(len(verdict.seeds))]
    summary = {"fixture": cfg.fixture, "resolution": res, "psi": cfg.psi,
               **_verdict_payload(verdict)}
    tables = {"curve_integrals.csv": (
        ("curve", "seed_x", "seed_y", "integral"), rows,
        {"fixture": cfg.fixture, "resolution": res, "psi": cfg.psi})}
    curves = {}
    if verdict.curves:
        export = [c for pair in verdict.curves[:6] for c in pair]
        curves["curves.csv"] = (export, {"fixture": cfg.fixture, "psi": cfg.psi})
    return summary, tables, curves


def _run_simulate(cfg: ExperimentConfig):
    res = cfg.resolutions[0]
    ctx = build_context(cfg.fixture, res, theta_bump=cfg.theta_bump, eta=cfg.eta)
    h = psi_fixture(ctx, cfg.psi or "bump", **cfg.psi_params)
    report = lan_mc(ctx, h, n=cfg.samples, replicates=cfg.replicates,
                    seed=cfg.seed)
    summary = {
        "fixture": cfg.fixture, "resolution": res, "seed": cfg.seed,
        "samples": cfg.samples, "replicates": cfg.replicates,
        "empirical_mean": report.empirical_mean,
        "empirical_variance": report.empirical_variance,
        "standard_error": report.standard_error,
        "references": report.references,
        "flags": list(report.flags),
        **{k: v for k, v in report.extras.items()},
    }
    rows = [(r, "llr", report.statistics[r]) for r in range(cfg.replicates)]
    tables = {"replicates.csv": (
        ("replicate", "statistic", "value"), rows,
        {"fixture": cfg.fixture, "resolution": res, "seed": cfg.seed})}
    return summary, tables, {}


def _run_thm37(cfg: ExperimentConfig):
    """Divergent inverse Fisher for a non-negative bump, plus the degeneracy
    ladder certifying i = 0 through vanishing quotients."""
    sweep = fisher_refinement("square_ex1", "bump", cfg.resolutions)
    exact = [r for r, lb in zip(sweep.resolutions, sweep.lower_bounds) if not lb]
    ladder_res = exact[-1] if exact else sweep.resolutions[0]
    ctx = build_context("square_ex1", ladder_res)
    psi = psi_fixture(ctx, "bump")
    decomp = eigendecompose(ctx, subspace="collar_supported")
    prof = degeneracy_profile(decomp, psi)
    m = prof.fisher_partial
    half_idx = int(np.argmin(np.abs(prof.orders - prof.orders[-1] / 2)))
    eligible = m >= 2.0
    max_product = float(prof.product[eligible].max()) if eligible.any() else float("nan")
    refinement_rows = [
        (res, sweep.interior_dims[i], sweep.values[i], bool(sweep.lower_bounds[i]),
         sweep.reports[i].method)
        for i, res in enumerate(sweep.resolutions)]
    ladder_rows = [
        (int(prof.orders[i]), m[i], prof.quotient[i], prof.product[i],
         prof.mask_correction[i])
        for i in range(len(prof.orders))]
    summary = {
        "experiment": "degenerate Fisher information for a non-negative bump",
        "refinement": {
            "resolutions": list(sweep.resolutions),
            "i_inverse": [float(v) for v in sweep.values],
            "growth": sweep.growth,
            "lower_bounds": list(sweep.lower_bounds),
            "verdict": sweep.verdict,
        },
        "ladder": {
            "resolution": ladder_res,
            "subspace": "collar_supported",
            "m_max": float(m[-1]),
            "m_half": float(m[half_idx]),
            "growth_top_half": float(m[-1] / m[half_idx]),
            "max_quotient_times_m": max_product,
        },
    }
    tables = {
        "refinement.csv": (
            ("resolution", "interior_dim", "i_inverse", "lower_bound", "method"),
            refinement_rows, {"fixture": "square_ex1", "psi": "bump"}),
        "ladder.csv": (
            ("order", "m_partial", "quotient", "product", "mask_correction"),
            ladder_rows, {"fixture": "square_ex1", "resolution": ladder_res,
                          "subspace": "collar_supported"}),
    }
    return summary, tables, {}


def _run_thm38(cfg: ExperimentConfig):
    """Transport obstructions: non-vanishing crossing integrals on the square,
    unequal ray integrals (with a vanishing-ray witness) on the disk."""
    square_res, disk_res = cfg.resolutions
    ctx_sq = build_context("square_ex1", square_res)
    curve = trace_curve(ctx_sq, (1.5, 1.5), direction="forward")
    t_gamma_error = abs(curve.travel_time - math.log(4.0 / 3.0))
    v_sq_bump = range_verdict(ctx_sq, psi_fixture(ctx_sq, "bump"))
    v_sq_in = range_verdict(ctx_sq, psi_fixture(ctx_sq, "in_range"))
    ctx_dk = build_context("disk_ex2", disk_res)
    v_dk_quad = range_verdict(ctx_dk, psi_fixture(ctx_dk, "quadrant_bump"))
    v_dk_in = range_verdict(ctx_dk, psi_fixture(ctx_dk, "in_range"))
    summary = {
        "experiment": "transport-curve range obstructions",
        "square_resolution": square_res, "disk_resolution": disk_res,
        "t_gamma_error": float(t_gamma_error),
        "square_bump": _verdict_payload(v_sq_bump),
        "square_in_range": _verdict_payload(v_sq_in),
        "disk_quadrant_bump": _verdict_payload(v_dk_quad),
        "disk_in_range": _verdict_payload(v_dk_in),
    }
    sq_rows = []
    for kind, v in (("bump", v_sq_bump), ("in_range", v_sq_in)):
        sq_rows.extend(
            (kind, i, v.seeds[i, 0], v.seeds[i, 1], v.integrals[i])
            for i in range(len(v.seeds)))
    dk_rows = []
    for kind, v in (("quadrant_bump", v_dk_quad), ("in_range", v_dk_in)):
        dk_rows.extend(
            (kind, i, v.seeds[i, 0], v.seeds[i, 1], v.integrals[i])
            for i in range(len(v.seeds)))
    tables = {
        "square_integrals.csv": (
            ("psi", "curve", "seed_x", "seed_y", "integral"), sq_rows,
            {"fixture": "square_ex1", "resolution": square_res}),
        "disk_rays.csv": (
            ("psi", "ray", "z_x", "z_y", "integral"), dk_rows,
            {"fixture": "disk_ex2", "resolution": disk_res}),
    }
    curves = {}
    if v_sq_bump.curves:
        export = [c for pair in v_sq_bump.curves[:6] for c in pair]
        curves["curves.csv"] = (export, {"fixture": "square_ex1", "psi": "bump"})
    return summary, tables, curves


_RUNNERS = {
    "solve": _run_solve,
    "verify-operators": _run_verify_operators,
    "spectrum": _run_spectrum,
    "fisher": _run_fisher,
    "transport": _run_transport,
    "simulate": _run_simulate,
    "reproduce-thm37": _run_thm37,
    "reproduce-thm38": _run_thm38,
}


def _emit(cfg: ExperimentConfig, summary: dict, tables: dict, curves: dict) -> Path:
    out_dir = cfg.out / cfg.subcommand
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (columns, rows, meta) in sorted(tables.items()):
        eio.write_table_csv(out_dir / name, columns, rows, meta=meta)
    for name, (curve_list, meta) in sorted(curves.items()):
        eio.write_curves_csv(out_dir / name, curve_list, meta=meta)
    eio.write_json(out_dir / "summary.json", summary)
    eio.write_manifest(out_dir / "manifest.json", cfg.as_dict(), cfg.seed)
    return out_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellinfo",
        description="Information-geometry experiments for the divergence-form "
                    "elliptic inverse problem.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="INI experiment configuration file")
        p.add_argument("--fixture", help=f"one of {', '.join(FIXTURE_NAMES)}")
        p.add_argument("--resolution",
                       help="comma-separated grid resolutions, e.g. 17,33,65")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--out", help="artifact output directory")
        if name in ("fisher", "transport", "simulate"):
            p.add_argument("--psi", help=f"functional kind: {', '.join(PSI_KINDS)}")
        if name == "simulate":
            p.add_argument("--samples", type=int, help="observations per replicate")
            p.add_argument("--replicates", type=int, help="Monte Carlo replicates")
        if name == "spectrum":
            p.add_argument("--n-modes", type=int, dest="n_modes",
                           help="number of top modes (default: full spectrum)")
    return parser


def _fail(status: int, kind: str, message: str) -> int:
    record = {"error": kind, "message": message}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        return _fail(2, "config", str(exc))
    try:
        summary, tables, curves = _RUNNERS[cfg.subcommand](cfg)
        out_dir = _emit(cfg, summary, tables, curves)
    except ConfigError as exc:
        return _fail(2, "config", str(exc))
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a numerical failure, not a config mistake
        return _fail(1, "LinAlgError", str(exc))
    except ValueError as exc:
        return _fail(2, "config", str(exc))
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        return _fail(1, type(exc).__name__, str(exc))
    n_artifacts = len(tables) + len(curves) + 2
    print(f"wrote {n_artifacts} artifacts to {out_dir}")
    if "verdict" in summary:
        print(f"verdict: {summary['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
