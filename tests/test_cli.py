"""Command-line entry point: configuration, artifacts, determinism, and the
two headline reproduction experiments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import ellinfo
from ellinfo import cli, elliptic, score, spectral, transport
from ellinfo.cli import main
from ellinfo.elliptic import assemble
from ellinfo.fixtures import build_context, fixture_domain
from ellinfo.grids import MIN_RESOLUTION, build_grid
from ellinfo.score import ScoreContext


#: A legal [theta] bump on the square.
THETA_BUMP = "[theta]\nbump_center = 1.5, 1.5\nbump_radius = 0.3\nbump_amplitude = 0.2\n"


def run(args, tmp_path, name):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out


def load_summary(out, subcommand):
    return json.loads((out / subcommand / "summary.json").read_text())


def record_factorisations(monkeypatch):
    """Wrap ``splu``; the returned list collects every matrix it factors."""
    factored, real = [], spla.splu

    def counting(A, *a, **kw):
        factored.append(A)
        return real(A, *a, **kw)

    monkeypatch.setattr(spla, "splu", counting)
    return factored


def test_package_exports_resolve_once():
    """``from ellinfo import *`` in a fresh namespace binds every exported
    name and nothing else, and no name is listed twice."""
    namespace = {}
    exec("from ellinfo import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(set(ellinfo.__all__))
    assert len(set(ellinfo.__all__)) == len(ellinfo.__all__)


class TestImportCost:
    """Startup: importing the CLI loads no scipy module that only the tests
    need (scipy.stats, the Kolmogorov-Smirnov oracle; scipy.interpolate, the
    interpolation oracle), nor the curve integrators that the cell walk
    replaced by numpy's expm1 and log1p (scipy.integrate).  scipy.special
    loads only when a study calls its normal CDF or Smirnov tail, and
    scipy.stats never does."""

    @staticmethod
    def _loaded(code):
        src = str(Path(ellinfo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        probe = (f"import sys\n{code}\nprint(sorted(m for m in ('scipy.stats', "
                 "'scipy.interpolate', 'scipy.integrate', 'scipy.special') "
                 "if m in sys.modules))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=120, check=True)
        return result.stdout.strip().splitlines()[-1]

    def test_cli_import_skips_slow_scipy_modules(self):
        assert self._loaded("import ellinfo.cli") == "[]"

    def test_simulate_run_leaves_scipy_stats_unloaded(self, tmp_path):
        out = str(tmp_path / "out")
        loaded = self._loaded(
            "from ellinfo import cli\n"
            f"assert cli.main(['simulate', '--replicates', '2', '--samples', '200', "
            f"'--resolution', '17', '--out', {out!r}]) == 0")
        assert loaded == "['scipy.special']"


class TestSolveCommand:
    """Smoke path: solve a fixture and write its artifact set."""

    def test_artifacts_and_exactness(self, tmp_path, capsys):
        rc, out = run(["solve", "--fixture", "square_ex1",
                       "--resolution", "17"], tmp_path, "a")
        assert rc == 0
        assert (out / "solve" / "solution_17.csv").exists()
        assert (out / "solve" / "manifest.json").exists()
        summary = load_summary(out, "solve")
        assert summary["results"]["17"]["max_error"] <= 1e-10
        assert "wrote" in capsys.readouterr().out

    def test_largest_grid_solves_by_preconditioned_cg(self, tmp_path, capsys):
        """255^2 unknowns exceed the LU budget; PCG preconditioned by the
        theta = 1 inverse stops at step 1 with the exact discrete solution."""
        rc, out = run(["solve", "--fixture", "square_ex1",
                       "--resolution", "257"], tmp_path, "a")
        assert rc == 0
        result = load_summary(out, "solve")["results"]["257"]
        assert result["solver"]["mode"] == "separable"
        assert result["solver"]["iterations"] == 1
        assert 0.0 < result["solver"]["backward_error"] <= elliptic.BACKWARD_ERROR_RTOL
        assert result["max_error"] <= 1e-10
        capsys.readouterr()

    def test_manifest_records_config_hash(self, tmp_path):
        rc, out = run(["solve", "--fixture", "saddle",
                       "--resolution", "17"], tmp_path, "a")
        assert rc == 0
        manifest = json.loads((out / "solve" / "manifest.json").read_text())
        assert len(manifest["config_sha256"]) == 64
        assert "numpy" in manifest["versions"]
        assert "ellinfo" in manifest["versions"]


class TestConfigErrors:
    """Invalid configurations exit with status 2 and a JSON error record."""

    def test_unknown_fixture(self, tmp_path, capsys):
        rc, out = run(["solve", "--fixture", "cube_ex3",
                       "--resolution", "17"], tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert "cube_ex3" in record["message"]
        assert not (out / "solve").exists()

    def test_quadrant_bump_needs_disk(self, tmp_path, capsys):
        rc, out = run(["transport", "--fixture", "square_ex1",
                       "--resolution", "25", "--psi", "quadrant_bump"],
                      tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert "disk" in record["message"]
        assert not (out / "transport").exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        rc, _ = run(["solve", "--fixture", "square_ex1",
                     "--resolution", "17", "--seed", "-3"], tmp_path, "a")
        assert rc == 2
        capsys.readouterr()

    def test_resolution_below_grid_minimum(self, tmp_path, capsys):
        """The CLI's own floor is the grid's, so its message is the one seen."""
        rc, out = run(["solve", "--fixture", "square_ex1",
                       "--resolution", "6"], tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert f">= {MIN_RESOLUTION}" in record["message"]
        assert not (out / "solve").exists()

    @pytest.mark.parametrize("args, message", [
        (["simulate", "--resolution", "17", "--samples", "0"], "at least one observation"),
        (["simulate", "--resolution", "17", "--replicates", "0"], "at least two replicates"),
        (["spectrum", "--resolution", "12", "--n-modes", "-3"], "positive"),
        (["spectrum", "--resolution", "12", "--n-modes", "0"], "positive"),
    ], ids=["samples-0", "replicates-0", "n-modes-negative", "n-modes-0"])
    def test_non_positive_counts_rejected(self, tmp_path, capsys, args, message):
        """A count flag of zero is a value, not an absent flag.  The simulate
        counts are refused by the library's own rules, with its messages."""
        rc, out = run(args, tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert message in record["message"]
        assert not (out / args[0]).exists()

    @pytest.mark.parametrize("flag", ["--fixture", "--resolution"])
    def test_empty_flag_value_rejected(self, tmp_path, capsys, flag):
        """An empty value is a value: it must not fall back to the default."""
        args = ["solve", "--fixture", "square_ex1", "--resolution", "17"]
        args[args.index(flag) + 1] = ""
        rc, out = run(args, tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert not (out / "solve").exists()

    @pytest.mark.parametrize("subcommand", ["verify-operators", "spectrum", "transport",
                                            "simulate"])
    def test_extra_resolutions_rejected(self, tmp_path, capsys, subcommand):
        """A single-grid subcommand given two grids must not run the first and
        silently drop the second."""
        rc, out = run([subcommand, "--resolution", "17,33"], tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert "one resolution" in record["message"] and "17,33" in record["message"]
        assert not (out / subcommand).exists()

    @pytest.mark.parametrize("subcommand", ["fisher", "reproduce-thm37"])
    def test_sweeps_need_three_resolutions(self, tmp_path, capsys, subcommand):
        rc, out = run([subcommand, "--resolution", "17,33"], tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert "at least three resolutions" in record["message"]
        assert not (out / subcommand).exists()

    @pytest.mark.parametrize("subcommand, grids", [
        ("solve", "17,17"), ("solve", "33,17"), ("reproduce-thm37", "17,33,33")])
    def test_grid_lists_must_increase(self, tmp_path, capsys, subcommand, grids):
        """A repeated or unsorted list of grids is a config mistake for every
        subcommand that takes a family of them: nothing is solved or written."""
        rc, out = run([subcommand, "--resolution", grids], tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert record["message"] == (
            f"{subcommand} needs strictly increasing resolutions, got {grids}")
        assert not (out / subcommand).exists()

    def test_single_simulate_replicate_rejected(self, tmp_path, capsys):
        """One replicate has no standard error, so no verdict to report."""
        rc, out = run(["simulate", "--resolution", "17", "--replicates", "1",
                       "--samples", "100"], tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert "two replicates" in record["message"]
        assert not (out / "simulate").exists()

    @pytest.mark.parametrize("args, kind, key, takes", [
        (["fisher"], "in_range", "amplitude = 2", "'center', 'radius'"),
        (["transport", "--fixture", "disk_ex2", "--resolution", "20"], "quadrant_bump",
         "radius = 0.2", "'amplitude'"),
    ], ids=["in_range-amplitude", "quadrant_bump-radius"])
    def test_psi_key_the_kind_does_not_take(self, tmp_path, capsys, args, kind, key, takes):
        """A [psi] key that the chosen kind does not take is a config mistake,
        named with the keys the kind does take, and nothing is written."""
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[experiment]\npsi = {kind}\n\n[psi]\n{key}\n")
        rc, out = run(args + ["--config", str(cfg)], tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert all(s in record["message"] for s in (kind, key.split()[0], takes))
        assert not (out / args[0]).exists()

    @pytest.mark.parametrize("text", [
        "[experiment]\nseed = abc\n",
        "[psi]\nradius = wide\n",
        "[psi]\namplitude = 1e\n",
        "[theta]\neta = small\n",
        "[theta]\nbump_center = 1.5, 1.5\nbump_radius = r\nbump_amplitude = 0.1\n",
        "[simulate]\nsamples = 1.5\n",
        "[output]\ndir = 50%\n",
    ], ids=["seed", "psi-radius", "psi-amplitude", "eta", "bump-radius", "samples", "dir-percent"])
    def test_malformed_config_number(self, tmp_path, capsys, text):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        rc, out = run(["solve", "--config", str(cfg)], tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert "config file" in record["message"]
        assert not (out / "solve").exists()

    @pytest.mark.parametrize("text, names", [
        ("[experiment]\nresolutions = 9,10,11\n", "'resolutions'"),
        ("[simulate]\nsample = 5\n", "'sample'"),
        ("[psi]\nwidht = 3\n", "'widht'"),
        ("[output]\ndirectory = elsewhere\n", "'directory'"),
        ("[outptu]\ndir = elsewhere\n", "[outptu]"),
    ], ids=["experiment-resolutions", "simulate-sample", "psi-widht", "output-directory",
            "section-outptu"])
    def test_unknown_config_key_or_section(self, tmp_path, capsys, text, names):
        """A key or section that no setting reads is a config mistake, not a
        run at the defaults; the record names it, and nothing is written."""
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        rc, out = run(["simulate", "--config", str(cfg)], tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert names in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("args, text, message", [
        (["fisher", "--fixture", "disk_ex2", "--psi", "in_range", "--resolution", "8,9,10"],
         "", "window support"),
        (["fisher"], "[psi]\nradius = -1\n", "bump radius must be positive"),
        (["verify-operators", "--resolution", "17"],
         "[theta]\nbump_center = 1.5, 1.5\nbump_radius = 0.3\nbump_amplitude = -2\n",
         "ellipticity floor"),
        (["verify-operators", "--resolution", "17"],
         "[theta]\neta = 0.01\nbump_center = 1.5, 1.5\nbump_radius = 0.3\n"
         "bump_amplitude = 0.2\n", "smoothness budget"),
        (["simulate", "--resolution", "17"], "[psi]\namplitude = -400\n", "ellipticity floor"),
        (["verify-operators", "--resolution", "17"],
         "[theta]\nbump_center = 1.5, 1.5\nbump_radius = nan\nbump_amplitude = 0.2\n",
         "bump radius must be positive"),
        (["verify-operators", "--resolution", "17"],
         "[theta]\neta = nan\nbump_center = 1.5, 1.5\nbump_radius = 0.3\n"
         "bump_amplitude = 0.2\n", "smoothness budget"),
        (["transport", "--resolution", "17"], "[psi]\namplitude = nan\n",
         "bump amplitude must be finite"),
        (["fisher", "--resolution", "17,25,33"],
         "[theta]\neta = 0.01\nbump_center = 1.5, 1.5\nbump_radius = 0.3\n"
         "bump_amplitude = 0.2\n", "smoothness budget"),
        (["reproduce-thm38", "--fixture", "disk_ex2"], "",
         "reproduce-thm38 does not read the fixture setting, got 'disk_ex2'"),
        (["reproduce-thm37"], THETA_BUMP,
         "reproduce-thm37 does not read the theta_bump setting, got ((1.5, 1.5), 0.3, 0.2)"),
        (["reproduce-thm38"], THETA_BUMP, "does not read the theta_bump setting"),
        (["solve", "--resolution", "17"], THETA_BUMP, "solve does not read the theta_bump"),
        (["spectrum", "--resolution", "17"], "[theta]\neta = 0.01\n",
         "[theta] eta = 0.01 bounds a theta bump"),
    ], ids=["window-clearance", "psi-radius", "theta-floor", "theta-eta", "simulate-floor",
            "theta-radius-nan", "theta-eta-nan", "psi-amplitude-nan", "fisher-theta-eta",
            "thm38-fixture", "thm37-theta", "thm38-theta", "solve-theta", "eta-without-bump"])
    def test_mistake_caught_by_the_library(self, tmp_path, capsys, args, text, message):
        """A mistake that only the library can judge (a support too close to
        the boundary for the grid, a conductivity below the ellipticity floor
        or over the eta budget, a NaN that would pass a plain comparison) is
        a config mistake too, and so is a model setting that the run never
        reads (the showcases' fixed fixtures at theta = 1, solve's theta = 1,
        an eta with no theta bump to bound):
        exit 2 with a message naming it, and nothing is written."""
        cfg = tmp_path / "exp.ini"
        cfg.write_text(text)
        rc, out = run(args + ["--config", str(cfg)], tmp_path, "a")
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert message in record["message"]
        assert not out.exists()


class TestRuntimeErrors:
    """Numerical and capacity failures exit with status 1, never as config
    errors."""

    def test_linalg_error_is_not_a_config_error(self, tmp_path, capsys,
                                                monkeypatch):
        def singular(cfg):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(cli._SUBCOMMANDS, "solve", cli._SUBCOMMANDS["solve"]._replace(
            run=singular))
        rc, out = run(["solve", "--fixture", "square_ex1",
                       "--resolution", "17"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "LinAlgError", "message": "Singular matrix"}
        assert not (out / "solve").exists()

    def test_library_value_error_is_not_a_config_error(self, tmp_path, capsys,
                                                       monkeypatch):
        """Only a ConfigError exits 2; a plain ValueError from a run is a
        failure of the program."""
        def broken(cfg):
            raise ValueError("x")

        monkeypatch.setitem(cli._SUBCOMMANDS, "solve", cli._SUBCOMMANDS["solve"]._replace(
            run=broken))
        rc, out = run(["solve", "--resolution", "17"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ValueError", "message": "x"}
        assert not out.exists()

    def test_failure_while_resolving_the_config(self, tmp_path, capsys, monkeypatch):
        """An exception other than a ConfigError raised while the config is
        resolved gets a JSON record and exit 1, not a traceback."""
        def broken(cfg):
            raise RuntimeError("y")

        monkeypatch.setattr(cli, "_validate", broken)
        rc, out = run(["solve", "--resolution", "17"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "RuntimeError", "message": "y"}
        assert not out.exists()

    def test_gateaux_solve_failure(self, tmp_path, capsys, monkeypatch):
        """A Gateaux solve that reaches the PCG step cap is a numerical
        failure: exit 1, with the solve named, and no artifacts."""
        monkeypatch.setattr(elliptic, "PCG_MAXITER", 1)
        rc, out = run(["verify-operators", "--fixture", "square_ex1",
                       "--resolution", "17"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "RuntimeError"
        assert "Gateaux solve at s = 0.1" in record["message"]
        assert "after 1 PCG steps" in record["message"]
        assert not (out / "verify-operators").exists()

    def test_separable_solve_failure(self, tmp_path, capsys, monkeypatch):
        """A theta = 1 solve that fails its backward-error certificate is a
        numerical failure: exit 1, with the solve named, and no artifacts.
        PCG corrects a 1.001-scaled inverse in one more step, so the cap of 1
        keeps the failure."""
        exact = elliptic.DivergenceFormOperator._theta1_inverse.func
        monkeypatch.setattr(elliptic.DivergenceFormOperator, "_theta1_inverse",
                            property(lambda op: 1.001 * exact(op)))
        monkeypatch.setattr(elliptic, "PCG_MAXITER", 1)
        rc, out = run(["solve", "--fixture", "disk_ex2", "--resolution", "20"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "RuntimeError"
        assert record["message"].startswith("separable solve of K: backward error")
        assert "after 1 PCG steps" in record["message"]
        assert not (out / "solve").exists()

    def test_dense_size_refusal(self, tmp_path, capsys):
        rc, out = run(["spectrum", "--fixture", "square_ex1",
                       "--resolution", "129"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "RuntimeError"
        assert "16129" in record["message"]
        assert "DENSE_OPERATOR_MAX_DIM" in record["message"]
        assert not (out / "spectrum").exists()

    def test_top_modes_past_the_dense_budget(self, tmp_path, capsys):
        """The grid whose full spectrum is refused above still gives its top
        pairs; the summary's certificate puts each residual within
        EIG_RESIDUAL_RTOL * lambda_1."""
        rc, out = run(["spectrum", "--fixture", "square_ex1",
                       "--resolution", "129", "--n-modes", "10"], tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "spectrum")
        assert summary["n_modes"] == 10 and not summary["complete"]
        assert summary["residual_rtol"] == spectral.EIG_RESIDUAL_RTOL
        assert 0.0 < summary["max_residual_rel"] <= summary["residual_rtol"]
        assert "max_residual_rel_reason" not in summary
        capsys.readouterr()

    def test_uncertified_curve_integrals(self, tmp_path, capsys, monkeypatch):
        """A degraded one-point rule moves the integrals by more than
        integral_tol under the two-point rule: the certificate fails the
        verdict on both domains."""
        monkeypatch.setattr(transport, "GAUSS_ORDER", 1)
        for fixture, res in (("square_ex1", "17"), ("disk_ex2", "40")):
            rc, out = run(["transport", "--fixture", fixture,
                           "--resolution", res], tmp_path, fixture)
            assert rc == 1
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error"] == "RuntimeError"
            assert "not certified" in record["message"]
            assert not (out / "transport").exists()

    def test_disk_verdict_under_a_theta_bump(self, tmp_path, capsys):
        """The disk's ray verdict holds only at theta = 1: with the fixture's
        own [theta] bump the in-range psi would read incompatible with a
        zero-ray witness, so the run exits 1 with a record that says why,
        and writes nothing."""
        cfg = tmp_path / "theta.ini"
        cfg.write_text("[theta]\nbump_center = 0.3,0.25\nbump_radius = 0.3\n"
                       "bump_amplitude = 0.15\n")
        rc, out = run(["transport", "--fixture", "disk_ex2", "--psi", "in_range",
                       "--resolution", "40", "--config", str(cfg)], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "RuntimeError"
        assert "only at theta = 1; this theta is not identically 1" in record["message"]
        assert not (out / "transport").exists()

    def test_kernel_certificate_failure(self, tmp_path, capsys, monkeypatch):
        """A sparse kernel pair that fails its residual certificate fails
        the sweep; it does not fall back to the dense decomposition."""
        eigsh = spectral.spla.eigsh

        def corrupted(op, k, which, v0):
            vals, vecs = eigsh(op, k=k, which=which, v0=v0)
            return vals, (np.roll(vecs, 1, axis=0) if which == "LA" else vecs)

        monkeypatch.setattr(spectral.spla, "eigsh", corrupted)
        rc, out = run(["fisher", "--fixture", "square_ex1",
                       "--resolution", "17,21,25"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "RuntimeError"
        assert "residuals" in record["message"]
        assert not (out / "fisher").exists()

    def test_in_range_psi_reaching_the_origin_cell(self, tmp_path, capsys):
        """At disk 20^2 the in-range psi = I*(w) is nonzero on the innermost
        ring, so the ray integrals cannot be truncated: a limit of the grid,
        not a config mistake."""
        rc, out = run(["transport", "--fixture", "disk_ex2", "--psi", "in_range",
                       "--resolution", "20"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "RuntimeError"
        assert "origin on this grid" in record["message"]
        assert not (out / "transport").exists()


class TestFisherCommand:
    """The refinement sweep runs on the sparse transport solve alone."""

    def test_sweep_beyond_the_dense_budget(self, tmp_path, capsys):
        rc, out = run(["fisher", "--fixture", "square_ex1",
                       "--resolution", "33,65,129"], tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "fisher")
        assert summary["lower_bounds"] == [False, False, False]
        assert summary["verdict"] == "out_of_range_divergent"
        assert all(e <= 1e-6 for e in summary["rel_errors"])
        assert summary["verdict_reason"] == "growth_on_every_pair"
        capsys.readouterr()

    def test_singular_operator_past_the_dense_budget_is_certified(
            self, tmp_path, capsys, monkeypatch):
        """The saddle's source operator T is singular (its base solution is
        harmonic), so the Fisher solve fails its certificate on every grid.
        The sweep then certifies the kernels of T and T^T by sparse Lanczos,
        so a dense budget of 0 unknowns still gives every grid its verdict."""
        monkeypatch.setattr(score, "DENSE_OPERATOR_MAX_DIM", 0)
        for psi, verdict in (("bump", "kernel_obstructed"), ("in_range", "in_range")):
            rc, out = run(["fisher", "--fixture", "saddle", "--psi", psi], tmp_path, psi)
            assert rc == 0
            summary = load_summary(out, "fisher")
            assert summary["verdict"] == verdict
            assert summary["lower_bounds"] == [False, False, False]
        capsys.readouterr()

    def test_failed_kernel_certificate_exits_1(self, tmp_path, capsys, monkeypatch):
        """A kernel cutoff that every Lanczos pair passes leaves no pair
        outside the kernel, so no gap: the sweep exits 1 and writes nothing."""
        monkeypatch.setattr(spectral, "NULL_SPACE_RTOL", 1.0)
        rc, out = run(["fisher", "--fixture", "saddle"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "RuntimeError"
        assert "kernel search found" in record["message"]
        assert not (out / "fisher").exists()

    def test_square_sweep_past_the_dense_budget_is_certified(self, tmp_path, capsys):
        """T at 193^2 is ill conditioned (kappa_1 about 1e12) but not
        singular: its refined solve passes the backward-error gate, so the
        sweep needs no dense fallback."""
        rc, out = run(["fisher", "--resolution", "65,129,193"], tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "fisher")
        assert summary["verdict"] == "out_of_range_divergent"
        assert summary["lower_bounds"] == [False, False, False]
        capsys.readouterr()


class TestDeterminism:
    """Identical configurations produce byte-identical data artifacts."""

    def test_solve_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["solve", "--fixture", "square_ex1", "--resolution", "17"]
        rc1, out1 = run(list(args), tmp_path, "a")
        rc2, out2 = run(list(args), tmp_path, "b")
        assert rc1 == rc2 == 0
        for name in ("summary.json", "solution_17.csv"):
            b1 = (out1 / "solve" / name).read_bytes()
            b2 = (out2 / "solve" / name).read_bytes()
            assert b1 == b2
        solver = load_summary(out1, "solve")["results"]["17"]["solver"]
        assert set(solver) == {"mode", "iterations", "backward_error"}
        assert solver["mode"] == "separable" and solver["iterations"] == 1
        assert 0.0 < solver["backward_error"] <= elliptic.BACKWARD_ERROR_RTOL
        # wall times live in the manifest only
        stages = json.loads((out1 / "solve" / "manifest.json").read_text())["stages"]
        assert set(stages) == {"run", "solve_17", "write"}
        capsys.readouterr()

    @pytest.mark.parametrize("fixture,res", [("square_ex1", "17"), ("disk_ex2", "20")])
    def test_verify_operators_rerun_is_byte_identical(self, tmp_path, capsys, fixture, res):
        """The summary carries the solver certificates: PCG steps and backward
        errors per Gateaux direction, and the largest backward error of any
        solve.  The three checks' wall times go to the manifest."""
        args = ["verify-operators", "--fixture", fixture, "--resolution", res]
        rc1, out1 = run(list(args), tmp_path, "a")
        rc2, out2 = run(list(args), tmp_path, "b")
        assert rc1 == rc2 == 0
        for name in ("summary.json", "adjoint_defects.csv"):
            assert ((out1 / "verify-operators" / name).read_bytes()
                    == (out2 / "verify-operators" / name).read_bytes())
        summary = load_summary(out1, "verify-operators")
        solves = summary["linearization_solves"]
        assert len(solves) == len(summary["linearization_slopes"]) == 3
        for entry in solves:
            assert len(entry["cg_iterations"]) == 4
            assert all(n >= 1 for n in entry["cg_iterations"])
            assert 0.0 < entry["max_backward_error"] <= entry["bound"]
            assert entry["bound"] == elliptic.BACKWARD_ERROR_RTOL
        assert 0.0 < summary["max_solve_backward_error"] <= elliptic.BACKWARD_ERROR_RTOL
        stages = json.loads((out1 / "verify-operators" / "manifest.json").read_text())["stages"]
        assert set(stages) == {"adjoint", "gateaux", "stability", "run", "write"}
        capsys.readouterr()

    def test_verify_operators_factors_only_the_context_operator(self, tmp_path, capsys,
                                                                monkeypatch):
        """At theta = 1 the checks solve by the separable inverse and factor
        nothing.  With a bumped theta they share the context's one LU: no
        operator is built or factored per Gateaux step, and nothing else is
        factored."""
        own = build_context("disk_ex2", 20, theta_bump=((0.3, 0.25), 0.25, 0.15)).op.K.tocsc()
        factored = record_factorisations(monkeypatch)
        args = ["verify-operators", "--fixture", "disk_ex2", "--resolution", "20"]
        assert run(list(args), tmp_path, "a")[0] == 0
        assert factored == []
        cfg = tmp_path / "bump.ini"
        cfg.write_text("[theta]\nbump_center = 0.3, 0.25\nbump_radius = 0.25\n"
                       "bump_amplitude = 0.15\n")
        assert run(args + ["--config", str(cfg)], tmp_path, "b")[0] == 0
        assert len(factored) == 1
        assert factored[0].shape == own.shape and abs(factored[0] - own).max() == 0.0
        capsys.readouterr()

    @pytest.mark.parametrize("subcommand", ["reproduce-thm38", "spectrum", "fisher",
                                            "verify-operators"])
    def test_default_runs_factor_no_stiffness_matrix(self, tmp_path, capsys, monkeypatch,
                                                     subcommand):
        """Default contexts sit at theta = 1, so K is never factored; the
        sparse LUs left are those of T^T."""
        grids = {"reproduce-thm38": [("square_ex1", 33), ("disk_ex2", 96)],
                 "fisher": [("square_ex1", r) for r in (17, 25, 33)]}
        unit_K = [assemble(g, np.ones(g.n_nodes))[0] for g in (
            build_grid(fixture_domain(*spec))
            for spec in grids.get(subcommand, [("square_ex1", 33)]))]
        factored = record_factorisations(monkeypatch)
        assert run([subcommand], tmp_path, "a")[0] == 0
        assert not any(A.shape == K.shape and abs(A - K).max() == 0.0
                       for A in factored for K in unit_K)
        capsys.readouterr()

    def test_spectrum_rerun_is_byte_identical(self, tmp_path, capsys):
        """Both solver paths repeat byte for byte.  Lanczos pairs carry their
        residual certificate; the dense spectrum records null and a reason."""
        for name, extra in (("lanczos", ["--n-modes", "10"]), ("dense", [])):
            args = ["spectrum", "--fixture", "square_ex1", "--resolution", "15"] + extra
            rc1, out1 = run(list(args), tmp_path, name + "_a")
            rc2, out2 = run(list(args), tmp_path, name + "_b")
            assert rc1 == rc2 == 0
            for artifact in ("summary.json", "eigenvalues.csv"):
                assert ((out1 / "spectrum" / artifact).read_bytes()
                        == (out2 / "spectrum" / artifact).read_bytes())
            summary = load_summary(out1, "spectrum")
            if name == "lanczos":
                assert 0.0 < summary["max_residual_rel"] <= summary["residual_rtol"]
            else:
                assert summary["max_residual_rel"] is None
                assert summary["residual_rtol"] is None
                assert "eigh" in summary["max_residual_rel_reason"]
        capsys.readouterr()

    def test_thm38_rerun_is_byte_identical(self, tmp_path, capsys):
        """Every artifact of the transport showcase, the walked curves
        included, repeats byte for byte; only the manifest may differ."""
        args = ["reproduce-thm38", "--resolution", "17,40"]
        rc1, out1 = run(list(args), tmp_path, "a")
        rc2, out2 = run(list(args), tmp_path, "b")
        assert rc1 == rc2 == 0
        names = sorted(p.name for p in (out1 / "reproduce-thm38").iterdir())
        assert "curves.csv" in names
        assert names == sorted(p.name for p in (out2 / "reproduce-thm38").iterdir())
        for name in set(names) - {"manifest.json"}:
            b1 = (out1 / "reproduce-thm38" / name).read_bytes()
            b2 = (out2 / "reproduce-thm38" / name).read_bytes()
            assert b1 == b2, name
        capsys.readouterr()

    def test_fisher_rerun_is_byte_identical(self, tmp_path, capsys):
        """Also the report contract: the square solves directly on every
        grid, while on the saddle's singular grids the bump carries certified
        mass on ker T, so its information is 0 and its inverse form null.
        The summary records each grid's kernel count and the largest residual
        of its sparse kernel search: relative to lambda_1 on the square, and
        ||T v|| / ||T||_1 on the saddle."""
        for fixture, args, method, rtol, kernel_modes in (
                ("square", ["--fixture", "square_ex1", "--resolution", "17,21,25"],
                 "direct_solve", spectral.EIG_RESIDUAL_RTOL, [5, 6, 8]),
                ("saddle", ["--fixture", "saddle"], "kernel_mass", spectral.NULL_SPACE_RTOL,
                 [15, 23, 31])):
            rc1, out1 = run(["fisher"] + args, tmp_path, fixture + "_a")
            rc2, out2 = run(["fisher"] + args, tmp_path, fixture + "_b")
            assert rc1 == rc2 == 0
            for name in ("summary.json", "refinement.csv"):
                b1 = (out1 / "fisher" / name).read_bytes()
                b2 = (out2 / "fisher" / name).read_bytes()
                assert b1 == b2
            lines = (out1 / "fisher" / "refinement.csv").read_text().splitlines()
            rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
            assert len(rows) == 3
            assert {(r["method"], r["lower_bound"]) for r in rows} == {(method, "false")}
            summary = load_summary(out1, "fisher")
            assert summary["kernel_modes"] == kernel_modes
            assert all(0.0 < r <= rtol for r in summary["kernel_residual"])
            assert (summary["i_inverse"] == [None] * 3) == (fixture == "saddle")
        capsys.readouterr()


class TestConfigFile:
    """INI configuration with command-line overrides."""

    def test_file_settings_apply(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nfixture = saddle\nresolution = 17\nseed = 5\n")
        rc, out = run(["solve", "--config", str(cfg)], tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "solve")
        assert summary["fixture"] == "saddle"
        assert summary["resolutions"] == [17]
        capsys.readouterr()

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nfixture = saddle\nresolution = 17\n")
        rc, out = run(["solve", "--config", str(cfg),
                       "--fixture", "square_ex1"], tmp_path, "a")
        assert rc == 0
        assert load_summary(out, "solve")["fixture"] == "square_ex1"
        capsys.readouterr()

    def test_psi_section_parsed(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nfixture = square_ex1\nresolution = 25\npsi = bump\n"
            "[psi]\ncenter = 1.45, 1.55\nradius = 0.1\n")
        rc, out = run(["transport", "--config", str(cfg)], tmp_path, "a")
        assert rc == 0
        assert load_summary(out, "transport")["verdict"] == "incompatible"
        capsys.readouterr()

    def test_theta_section_keeps_square_verdicts(self, tmp_path, capsys):
        """The theta = 1 refusal is the disk's alone: the square's walked
        curves follow a bumped theta, and its bump psi stays incompatible."""
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[experiment]\nfixture = square_ex1\nresolution = 25\npsi = bump\n"
            "[theta]\nbump_center = 1.6, 1.4\nbump_radius = 0.28\nbump_amplitude = 0.15\n")
        rc, out = run(["transport", "--config", str(cfg)], tmp_path, "a")
        assert rc == 0
        assert load_summary(out, "transport")["verdict"] == "incompatible"
        capsys.readouterr()


class TestAuxiliaryCommands:
    """Remaining subcommands produce coherent summaries."""

    def test_spectrum(self, tmp_path, capsys, monkeypatch):
        """A mode count below the interior dimension is served by Lanczos
        alone: no dense B_hat is built."""
        def refuse(self):
            raise AssertionError("dense linearization built for --n-modes")

        monkeypatch.setattr(ScoreContext, "dense_linearization_hat", refuse)
        rc, out = run(["spectrum", "--fixture", "square_ex1",
                       "--resolution", "15", "--n-modes", "10"], tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "spectrum")
        assert summary["n_modes"] == 10
        assert not summary["complete"]
        assert summary["lambda_max"] > summary["lambda_min"] > 0.0
        assert (out / "spectrum" / "eigenvalues.csv").exists()
        capsys.readouterr()

    def test_simulate_flags_low_power(self, tmp_path, capsys):
        rc, out = run(["simulate", "--fixture", "square_ex1",
                       "--resolution", "17", "--samples", "500",
                       "--replicates", "60", "--seed", "9"], tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "simulate")
        assert "low_power" in summary["flags"]
        assert summary["references"]["variance"] > 0.0
        capsys.readouterr()

    def test_verify_operators(self, tmp_path, capsys):
        rc, out = run(["verify-operators", "--fixture", "square_ex1",
                       "--resolution", "17"], tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "verify-operators")
        assert summary["adjoint"]["max_defect"] <= summary["adjoint"]["bound_5h"]
        assert all(1.8 <= s <= 2.2 for s in summary["linearization_slopes"])
        assert summary["stability"]["applicable"]
        capsys.readouterr()

    #: Seed-0 summaries, 17 significant digits: every count and step of the
    #: battery (the identifiability mu, the adjoint pairs, the stability trials,
    #: the Gateaux steps and the sine modes of the random fields) moves them.
    PINNED = {
        ("square_ex1", "17"): {
            "max_defect": 0.005046872507297279, "mean_defect": 0.00132151117507692,
            "slopes": [2.0020989479943343, 1.9968508764983943, 1.997786002465785],
            "c0_hat": 11.031249999999062, "min_ratio_T": 7.875509505614347,
            "min_ratio_H2": 7.2229028316917185},
        ("disk_ex2", "20"): {
            "max_defect": 0.007382164329403487, "mean_defect": 0.0031970840459429896,
            "slopes": [2.002289639777541, 1.9964479369085875, 1.9976784437722828],
            "c0_hat": 2.0026298487292133, "min_ratio_T": 2.3736222105833273,
            "min_ratio_H2": 1.9320967855133682},
    }

    @pytest.mark.parametrize("fixture,res", sorted(PINNED))
    def test_verify_operators_numbers_are_pinned(self, tmp_path, capsys, fixture, res):
        """rtol 1e-9, not bit equality, so that other numpy and scipy
        releases pass; the counts are exact."""
        rc, out = run(["verify-operators", "--fixture", fixture, "--resolution", res],
                      tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "verify-operators")
        adjoint, stability = summary["adjoint"], summary["stability"]
        got = {"max_defect": adjoint["max_defect"], "mean_defect": adjoint["mean_defect"],
               "slopes": summary["linearization_slopes"], "c0_hat": stability["c0_hat"],
               "min_ratio_T": stability["min_ratio_T"], "min_ratio_H2": stability["min_ratio_H2"]}
        for key, want in self.PINNED[fixture, res].items():
            np.testing.assert_allclose(got[key], want, rtol=1e-9, atol=0.0, err_msg=key)
        assert adjoint["n_pairs"] == 100 and stability["n_trials"] == 200
        capsys.readouterr()

    def test_failed_stability_gate_is_null_with_a_reason(self, tmp_path, capsys,
                                                          monkeypatch):
        """Without a sample the stability minima are undefined: strict JSON
        nulls, explained next to them."""
        monkeypatch.setattr(score, "check_identifiability", lambda u: 0.0)
        rc, out = run(["verify-operators", "--fixture", "square_ex1",
                       "--resolution", "17"], tmp_path, "a")
        assert rc == 0
        text = (out / "verify-operators" / "summary.json").read_text()
        stability = json.loads(text, parse_constant=pytest.fail)["stability"]
        assert not stability["applicable"]
        assert stability["min_ratio_T"] is None and stability["min_ratio_H2"] is None
        assert "identifiability gate failed" in stability["reason"]
        capsys.readouterr()


class TestReproductions:
    """The two pinned experiment pipelines."""

    def test_thm37_pipeline(self, tmp_path, capsys):
        rc, out = run(["reproduce-thm37", "--resolution", "17,21,25"],
                      tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "reproduce-thm37")
        assert summary["refinement"]["verdict"] == "out_of_range_divergent"
        assert summary["refinement"]["verdict_reason"] == "growth_on_every_pair"
        assert summary["refinement"]["growth"] >= 2.0
        assert summary["ladder"]["growth_top_half"] >= 3.0
        assert summary["ladder"]["max_quotient_times_m"] <= 17.6
        assert (out / "reproduce-thm37" / "ladder.csv").exists()
        assert (out / "reproduce-thm37" / "refinement.csv").exists()
        assert "max_quotient_times_m_reason" not in summary["ladder"]
        capsys.readouterr()

    def test_thm37_ladder_without_an_eligible_order(self, tmp_path, capsys,
                                                     monkeypatch):
        """With no order where M_N >= 2 the maximum is undefined: a strict
        JSON null with its reason, not NaN."""
        real = cli.degeneracy_profile

        def flat(decomp, psi):
            prof = real(decomp, psi)
            prof.fisher_partial = np.ones_like(prof.fisher_partial)
            return prof

        monkeypatch.setattr(cli, "degeneracy_profile", flat)
        rc, out = run(["reproduce-thm37", "--resolution", "17,21,25"],
                      tmp_path, "a")
        assert rc == 0
        text = (out / "reproduce-thm37" / "summary.json").read_text()
        ladder = json.loads(text, parse_constant=pytest.fail)["ladder"]
        assert ladder["max_quotient_times_m"] is None
        assert ladder["max_quotient_times_m_reason"] == "no order with M_N >= 2"
        capsys.readouterr()

    def test_thm37_defaults_keep_the_ladder_within_the_spectrum_budget(
            self, tmp_path, capsys):
        """Every default grid is exact, and the ladder stays on the finest
        grid whose full spectrum the sweep computes (33, not 65)."""
        rc, out = run(["reproduce-thm37"], tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "reproduce-thm37")
        assert summary["refinement"]["lower_bounds"] == [False, False, False]
        assert all(e <= 1e-6 for e in summary["refinement"]["rel_errors"])
        assert summary["ladder"]["resolution"] == 33
        assert summary["ladder"]["growth_top_half"] >= 3.0
        capsys.readouterr()

    def test_thm38_pipeline(self, tmp_path, capsys):
        rc, out = run(["reproduce-thm38", "--resolution", "25,96"],
                      tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "reproduce-thm38")
        assert summary["t_gamma_error"] <= 1e-12
        assert summary["square_bump"]["verdict"] == "incompatible"
        assert summary["square_in_range"]["verdict"] == "compatible_within_tol"
        assert summary["disk_quadrant_bump"]["verdict"] == "incompatible"
        assert summary["disk_quadrant_bump"]["zero_ray_witness"]
        assert summary["disk_in_range"]["verdict"] == "compatible_within_tol"
        # square verdicts walk curves; disk verdicts integrate rays unwalked
        assert summary["square_bump"]["ode_steps"] > 0
        assert summary["square_in_range"]["ode_steps"] > 0
        assert summary["disk_quadrant_bump"]["ode_steps"] == 0
        assert summary["disk_in_range"]["ode_steps"] == 0
        for key in ("square_bump", "square_in_range", "disk_quadrant_bump", "disk_in_range"):
            assert 0.0 < summary[key]["trace_error"] <= summary[key]["integral_tol"]
        assert (out / "reproduce-thm38" / "curves.csv").exists()
        assert (out / "reproduce-thm38" / "disk_rays.csv").exists()
        capsys.readouterr()

    def test_thm38_needs_two_resolutions(self, tmp_path, capsys):
        rc, _ = run(["reproduce-thm38", "--resolution", "25"], tmp_path, "a")
        assert rc == 2
        capsys.readouterr()
