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
configuration, composes library calls, and serializes results.  Identical
reruns differ only in the manifest's timestamp and stage times.  Exit codes:
0 success; 2 for a ``ConfigError``, a configuration mistake caught here or by
the library (an inadmissible psi or theta bump, a grid too coarse for the psi
window); 1 for every other failure, a library ``ValueError`` included.  Both
failures emit a JSON error record on stderr before exiting.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ellinfo import io as eio
from ellinfo.elliptic import Conductivity, DivergenceFormOperator
from ellinfo.fixtures import (_PSI_PARAMS, FIXTURE_NAMES, PSI_KINDS, build_context,
                              exact_solution, fixture_data, fixture_domain, psi_fixture)
from ellinfo.grids import MIN_RESOLUTION, ConfigError, build_grid, random_smooth_field
from ellinfo.score import adjoint_defects, gateaux_remainders, stability_report
from ellinfo.simulate import lan_mc
from ellinfo.spectral import (EIG_RESIDUAL_RTOL, KERNEL_SWEEP_MAX_DIM, degeneracy_profile,
                              dense_eigenvalues, eigendecompose, fisher_refinement,
                              kernel_tolerance)
from ellinfo.transport import range_verdict, trace_curve


class Subcommand(NamedTuple):
    """One row of the subcommand table (``_SUBCOMMANDS``)."""

    run: Callable               # cfg -> (summary, tables, curve_tables, stages)
    resolutions: tuple          # default grids ...
    by_fixture: dict            # ... and where a fixture's differ
    counts: tuple               # (fewest, most) grids, and the rule that says so
    psi: str | None = None      # default functional kind
    flags: tuple = ()           # extra (flag, argparse keywords) pairs


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


def _parse_resolutions(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad resolution list {text!r}: {exc}") from None
    if not values or any(v < MIN_RESOLUTION for v in values):
        raise ConfigError(
            f"resolutions must be integers >= {MIN_RESOLUTION}, got {text!r}")
    return values


def _parse_point(text: str) -> tuple:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 2:
        raise ValueError("need two comma-separated numbers")
    return (float(parts[0]), float(parts[1]))


#: INI section -> key -> (ExperimentConfig field, parser of the value).  The
#: [psi] keys are every parameter that some psi kind takes, bar ``value``; a
#: key naming a center is a point.  The three [theta] bump keys set one field.
_CONFIG_KEYS = {
    "experiment": {"fixture": ("fixture", str.strip),
                   "resolution": ("resolutions", _parse_resolutions),
                   "seed": ("seed", int), "psi": ("psi", str.strip)},
    "psi": {key: ("psi_params", _parse_point if key.endswith("center") else float)
            for key in sorted(set().union(*_PSI_PARAMS.values()) - {"value"})},
    "theta": {"eta": ("eta", lambda text: None if text.strip() == "none" else float(text)),
              "bump_center": ("theta_bump", _parse_point),
              "bump_radius": ("theta_bump", float), "bump_amplitude": ("theta_bump", float)},
    "simulate": {"samples": ("samples", int), "replicates": ("replicates", int)},
    "output": {"dir": ("out", Path)},
}


def _read_config_file(path: str, cfg: ExperimentConfig) -> None:
    """Set cfg from the file; an unknown section or key is a ConfigError."""
    parser = configparser.ConfigParser(default_section="")  # [DEFAULT] is unknown too
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    bump = {}
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]; "
                              f"choose from {list(_CONFIG_KEYS)}")
        for key in parser[section]:
            if key not in _CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in config section [{section}]; "
                                  f"it takes {list(_CONFIG_KEYS[section])}")
            name, parse = _CONFIG_KEYS[section][key]
            text = parser.get(section, key, raw=True)
            try:  # a stray % fails the file's interpolation
                value = parse(parser[section][key])
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"bad {key} {text!r} in the config file ({exc})") from None
            if name == "psi_params":
                cfg.psi_params[key] = value
            elif name == "theta_bump":
                bump[key] = value
            else:
                setattr(cfg, name, value)
    if 0 < len(bump) < 3:
        raise ConfigError("theta bump needs bump_center, bump_radius and bump_amplitude")
    if bump:
        cfg.theta_bump = (bump["bump_center"], bump["bump_radius"], bump["bump_amplitude"])


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config-file sections, and CLI flag overrides."""
    cfg = ExperimentConfig(subcommand=args.subcommand)
    if args.config:
        _read_config_file(args.config, cfg)
    if args.fixture is not None:
        cfg.fixture = args.fixture
    if args.resolution is not None:
        cfg.resolutions = _parse_resolutions(args.resolution)
    if args.seed is not None:
        cfg.seed = args.seed
    for flag, _ in _SUBCOMMANDS[cfg.subcommand].flags:
        name = flag[2:].replace("-", "_")  # argparse's dest, an ExperimentConfig field
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if args.out:
        cfg.out = Path(args.out)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    row = _SUBCOMMANDS[cfg.subcommand]
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
    cfg.psi = cfg.psi or row.psi
    cfg.resolutions = cfg.resolutions or row.by_fixture.get(cfg.fixture, row.resolutions)
    fewest, most, rule = row.counts
    got = ",".join(map(str, cfg.resolutions))
    if not fewest <= len(cfg.resolutions) <= most:
        raise ConfigError(f"{cfg.subcommand} {rule}, got {got}")
    if most == math.inf and list(cfg.resolutions) != sorted(set(cfg.resolutions)):
        raise ConfigError(f"{cfg.subcommand} needs strictly increasing resolutions, got {got}")


# --------------------------------------------------------------------------
# subcommand implementations: each returns (summary, tables, curve_tables,
# stages): filename -> (names, columns, meta) with one sequence per column,
# filename -> (curves, meta), and stage name -> wall seconds (manifest only).


def _run_solve(cfg: ExperimentConfig):
    tables = {}
    per_res = {}
    stages = {}
    for res in cfg.resolutions:
        grid = build_grid(fixture_domain(cfg.fixture, res))
        f, g = fixture_data(cfg.fixture, grid)
        theta = Conductivity.constant(grid)
        t0 = time.perf_counter()
        op = DivergenceFormOperator(theta)
        u = op.solve(f, g)
        solver = op.last_stats
        stages[f"solve_{res}"] = time.perf_counter() - t0
        del op  # free the factorisation before the next grid is assembled
        err = float(np.max(np.abs(u.values - exact_solution(cfg.fixture, grid).values)))
        per_res[str(res)] = {"max_error": err, "n_nodes": grid.n_nodes,
                             "solver": solver}
        tables[f"solution_{res}.csv"] = (
            ("x", "y", "u"), (grid.x, grid.y, u.values),
            {"fixture": cfg.fixture, "resolution": res})
    summary = {"fixture": cfg.fixture, "resolutions": list(cfg.resolutions),
               "theta": "constant 1", "results": per_res}
    return summary, tables, {}, stages


def _run_verify_operators(cfg: ExperimentConfig):
    res = cfg.resolutions[0]
    ctx = build_context(cfg.fixture, res, theta_bump=cfg.theta_bump, eta=cfg.eta)
    t0 = time.perf_counter()
    defects = adjoint_defects(ctx, n_pairs=100, seed=cfg.seed)
    t1 = time.perf_counter()
    slopes, gateaux = [], []
    for k in range(3):
        h = random_smooth_field(ctx.grid, np.random.default_rng(cfg.seed + 1000 + k))
        gateaux.append({})
        slopes.append(gateaux_remainders(ctx, h, stats=gateaux[-1])[1])
    t2 = time.perf_counter()
    stab = stability_report(ctx, n_trials=200, seed=cfg.seed)
    stages = {"adjoint": t1 - t0, "gateaux": t2 - t1, "stability": time.perf_counter() - t2}
    summary = {
        "fixture": cfg.fixture, "resolution": res, "seed": cfg.seed,
        "adjoint": {"n_pairs": 100, "max_defect": float(defects.max()),
                    "mean_defect": float(defects.mean()), "bound_5h": 5.0 * ctx.grid.h_mesh},
        "linearization_slopes": slopes, "linearization_solves": gateaux,
        "stability": {"applicable": stab.applicable, "c0_hat": stab.c0_hat,
                      "min_ratio_T": stab.min_ratio_T, "min_ratio_H2": stab.min_ratio_H2,
                      "n_trials": stab.n_trials},
        "max_solve_backward_error": ctx.op.max_backward_error,
    }
    if not stab.applicable:
        summary["stability"]["reason"] = (
            f"identifiability gate failed (c0_hat = {stab.c0_hat:.3e}), "
            "so no stability ratio was sampled")
    tables = {"adjoint_defects.csv": (
        ("pair", "defect"), (np.arange(defects.size), defects),
        {"fixture": cfg.fixture, "resolution": res, "seed": cfg.seed})}
    return summary, tables, {}, stages


def _run_spectrum(cfg: ExperimentConfig):
    res = cfg.resolutions[0]
    ctx = build_context(cfg.fixture, res, theta_bump=cfg.theta_bump, eta=cfg.eta)
    if cfg.n_modes is None:  # the full spectrum reads no mode
        lam, residuals, complete = dense_eigenvalues(ctx), None, True
    else:
        decomp = eigendecompose(ctx, n_modes=cfg.n_modes)
        lam, residuals, complete = decomp.eigenvalues, decomp.residuals, decomp.complete
    in_kernel = lam <= kernel_tolerance(lam)
    summary = {
        "fixture": cfg.fixture, "resolution": res,
        "n_modes": int(lam.size), "complete": complete,
        "kernel_dim": int(in_kernel.sum()),
        "lambda_max": float(lam[0]), "lambda_min": float(lam[-1]),
        "decay_ratio": float(lam[-1] / lam[0]),
        "max_residual_rel": None if residuals is None else float(residuals.max() / lam[0]),
        "residual_rtol": None if residuals is None else EIG_RESIDUAL_RTOL,
    }
    if residuals is None:
        summary["max_residual_rel_reason"] = "dense eigh certifies no single pair"
    tables = {"eigenvalues.csv": (
        ("k", "eigenvalue", "in_kernel"),
        (np.arange(lam.size), lam, in_kernel),
        {"fixture": cfg.fixture, "resolution": res})}
    return summary, tables, {}, {}


def _sweep_payload(sweep) -> dict:
    return {"resolutions": list(sweep.resolutions),
            "i_inverse": [float(v) for v in sweep.values],
            "growth": sweep.growth, "lower_bounds": list(sweep.lower_bounds),
            "rel_errors": [r.rel_error for r in sweep.reports],
            "observed_order": sweep.order,
            "richardson_limit": sweep.richardson_limit,
            "verdict": sweep.verdict, "verdict_reason": sweep.verdict_reason}


def _sweep_table(sweep, meta: dict, kernel_fractions: bool) -> tuple:
    """refinement.csv of a sweep, with or without its kernel fractions."""
    names = ["resolution", "interior_dim", "i_inverse", "lower_bound", "method"]
    columns = [sweep.resolutions, sweep.interior_dims, sweep.values,
               np.asarray(sweep.lower_bounds, dtype=bool),
               [r.method for r in sweep.reports]]
    if kernel_fractions:
        names.insert(4, "kernel_fraction")
        columns.insert(4, [np.nan if f is None else f for f in sweep.kernel_fractions])
    return names, columns, meta


def _run_fisher(cfg: ExperimentConfig):
    sweep = fisher_refinement(cfg.fixture, cfg.psi, cfg.resolutions,
                              theta_bump=cfg.theta_bump,
                              psi_params=cfg.psi_params)
    summary = {"fixture": cfg.fixture, "psi": cfg.psi,
               "variation": sweep.variation, **_sweep_payload(sweep),
               "kernel_modes": sweep.kernel_counts,
               "kernel_residual": sweep.kernel_residuals}
    tables = {"refinement.csv": _sweep_table(
        sweep, {"fixture": cfg.fixture, "psi": cfg.psi}, kernel_fractions=True)}
    return summary, tables, {}, {}


def _verdict_payload(v) -> dict:
    return {
        "verdict": v.verdict, "max_abs_integral": v.max_abs_integral,
        "integral_tol": v.integral_tol, "threshold": v.threshold,
        "zero_ray_witness": v.zero_ray_witness, "offset": v.offset,
        "n_curves": int(len(v.seeds)), "n_unclassified": v.n_unclassified,
        "ode_steps": v.ode_steps, "trace_error": v.trace_error,
    }


def _curve_tables(verdict, fixture: str, psi: str) -> dict:
    """curves.csv: both halves of the first six traced crossing curves."""
    if not verdict.curves:
        return {}
    export = [c for pair in verdict.curves[:6] for c in pair]
    return {"curves.csv": (export, {"fixture": fixture, "psi": psi})}


def _run_transport(cfg: ExperimentConfig):
    res = cfg.resolutions[0]
    ctx = build_context(cfg.fixture, res, theta_bump=cfg.theta_bump, eta=cfg.eta)
    psi = psi_fixture(ctx, cfg.psi, **cfg.psi_params)
    verdict = range_verdict(ctx, psi)
    columns = _integral_columns(((cfg.psi, verdict),))[1:]
    summary = {"fixture": cfg.fixture, "resolution": res, "psi": cfg.psi,
               **_verdict_payload(verdict)}
    tables = {"curve_integrals.csv": (
        ("curve", "seed_x", "seed_y", "integral"), columns,
        {"fixture": cfg.fixture, "resolution": res, "psi": cfg.psi})}
    return summary, tables, _curve_tables(verdict, cfg.fixture, cfg.psi), {}


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
    tables = {"replicates.csv": (
        ("replicate", "statistic", "value"),
        (np.arange(cfg.replicates), np.full(cfg.replicates, "llr"),
         report.statistics[:cfg.replicates]),
        {"fixture": cfg.fixture, "resolution": res, "seed": cfg.seed})}
    return summary, tables, {}, {}


def _run_thm37(cfg: ExperimentConfig):
    """Divergent inverse Fisher for a non-negative bump, plus the degeneracy
    ladder certifying i = 0 through vanishing quotients."""
    sweep = fisher_refinement("square_ex1", "bump", cfg.resolutions)
    ladder_res = max((r for r, d in zip(sweep.resolutions, sweep.interior_dims)
                      if d <= KERNEL_SWEEP_MAX_DIM), default=sweep.resolutions[0])
    ctx = build_context("square_ex1", ladder_res)
    psi = psi_fixture(ctx, "bump")
    decomp = eigendecompose(ctx, subspace="collar_supported")
    prof = degeneracy_profile(decomp, psi)
    m = prof.fisher_partial
    half_idx = int(np.argmin(np.abs(prof.orders - prof.orders[-1] / 2)))
    eligible = m >= 2.0
    max_product = float(prof.product[eligible].max()) if eligible.any() else None
    summary = {
        "experiment": "degenerate Fisher information for a non-negative bump",
        "refinement": _sweep_payload(sweep),
        "ladder": {
            "resolution": ladder_res,
            "subspace": "collar_supported",
            "m_max": float(m[-1]),
            "m_half": float(m[half_idx]),
            "growth_top_half": float(m[-1] / m[half_idx]),
            "max_quotient_times_m": max_product,
        },
    }
    if max_product is None:
        summary["ladder"]["max_quotient_times_m_reason"] = "no order with M_N >= 2"
    tables = {
        "refinement.csv": _sweep_table(
            sweep, {"fixture": "square_ex1", "psi": "bump"}, kernel_fractions=False),
        "ladder.csv": (
            ("order", "m_partial", "quotient", "product", "mask_correction"),
            (prof.orders.astype(np.int64), m, prof.quotient, prof.product,
             prof.mask_correction),
            {"fixture": "square_ex1", "resolution": ladder_res,
             "subspace": "collar_supported"}),
    }
    return summary, tables, {}, {}


def _integral_columns(verdicts) -> tuple:
    """(psi kind, curve, seed x, seed y, integral) columns of (kind, verdict) pairs."""
    seeds = np.concatenate([v.seeds for _, v in verdicts])
    sizes = [len(v.seeds) for _, v in verdicts]
    return (np.repeat([kind for kind, _ in verdicts], sizes),
            np.concatenate([np.arange(n) for n in sizes]), seeds[:, 0], seeds[:, 1],
            np.concatenate([v.integrals for _, v in verdicts]))


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
    sq_columns = _integral_columns((("bump", v_sq_bump), ("in_range", v_sq_in)))
    dk_columns = _integral_columns((("quadrant_bump", v_dk_quad), ("in_range", v_dk_in)))
    tables = {
        "square_integrals.csv": (
            ("psi", "curve", "seed_x", "seed_y", "integral"), sq_columns,
            {"fixture": "square_ex1", "resolution": square_res}),
        "disk_rays.csv": (
            ("psi", "ray", "z_x", "z_y", "integral"), dk_columns,
            {"fixture": "disk_ex2", "resolution": disk_res}),
    }
    return summary, tables, _curve_tables(v_sq_bump, "square_ex1", "bump"), {}


_ANY = (1, math.inf, "")
_ONE = (1, 1, "takes one resolution")
_SWEEP = (3, math.inf, "sweeps need at least three resolutions")
_PSI_FLAG = ("--psi", {"help": f"functional kind: {', '.join(PSI_KINDS)}"})

#: Every subcommand, one row each: build_parser, _validate and main read only this.
_SUBCOMMANDS = {
    "solve": Subcommand(_run_solve, (33,), {}, _ANY),
    "verify-operators": Subcommand(_run_verify_operators, (33,), {}, _ONE),
    "spectrum": Subcommand(_run_spectrum, (33,), {}, _ONE, flags=(
        ("--n-modes", {"type": int, "help": "number of top modes, by certified Lanczos below "
                       "the interior dimension (default: full dense spectrum)"}),)),
    "fisher": Subcommand(_run_fisher, (17, 25, 33), {"disk_ex2": (20, 28, 40)}, _SWEEP,
                         psi="bump", flags=(_PSI_FLAG,)),
    "transport": Subcommand(_run_transport, (33,), {"disk_ex2": (96,)}, _ONE,
                            psi="bump", flags=(_PSI_FLAG,)),
    "simulate": Subcommand(_run_simulate, (33,), {}, _ONE, flags=(
        _PSI_FLAG, ("--samples", {"type": int, "help": "observations per replicate"}),
        ("--replicates", {"type": int, "help": "Monte Carlo replicates"}))),
    "reproduce-thm37": Subcommand(_run_thm37, (17, 33, 65), {}, _SWEEP),
    "reproduce-thm38": Subcommand(_run_thm38, (33, 96), {}, (
        2, 2, "takes two resolutions: square grid, disk grid")),
}


def _emit(cfg: ExperimentConfig, summary: dict, tables: dict, curves: dict,
          stages: dict) -> Path:
    out_dir = cfg.out / cfg.subcommand
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    for name, (names, columns, meta) in sorted(tables.items()):
        eio.write_table_csv(out_dir / name, names, columns, meta=meta)
    for name, (curve_list, meta) in sorted(curves.items()):
        eio.write_curves_csv(out_dir / name, curve_list, meta=meta)
    eio.write_json(out_dir / "summary.json", summary)
    stages["write"] = time.perf_counter() - t0
    eio.write_manifest(out_dir / "manifest.json", asdict(cfg), cfg.seed, stages)
    return out_dir


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellinfo",
        description="Information-geometry experiments for the divergence-form "
                    "elliptic inverse problem.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, row in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="INI experiment configuration file")
        p.add_argument("--fixture", help=f"one of {', '.join(FIXTURE_NAMES)}")
        p.add_argument("--resolution",
                       help="comma-separated grid resolutions, e.g. 17,33,65")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--out", help="artifact output directory")
        for flag, keywords in row.flags:
            p.add_argument(flag, **keywords)
    return parser


def _fail(status: int, kind: str, message: str) -> int:
    record = {"error": kind, "message": message}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    return status


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        t0 = time.perf_counter()
        summary, tables, curves, stages = _SUBCOMMANDS[cfg.subcommand].run(cfg)
        stages["run"] = time.perf_counter() - t0
        out_dir = _emit(cfg, summary, tables, curves, stages)
    except ConfigError as exc:
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
