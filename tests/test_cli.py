"""Command-line entry point: configuration, artifacts, determinism, and the
two headline reproduction experiments."""

import json

import numpy as np
import pytest

from ellinfo import cli
from ellinfo.cli import main
from ellinfo.grids import MIN_RESOLUTION


def run(args, tmp_path, name):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out


def load_summary(out, subcommand):
    return json.loads((out / subcommand / "summary.json").read_text())


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


class TestRuntimeErrors:
    """Numerical and capacity failures exit with status 1, never as config
    errors."""

    def test_linalg_error_is_not_a_config_error(self, tmp_path, capsys,
                                                monkeypatch):
        def singular(cfg):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setitem(cli._RUNNERS, "solve", singular)
        rc, out = run(["solve", "--fixture", "square_ex1",
                       "--resolution", "17"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "LinAlgError", "message": "Singular matrix"}
        assert not (out / "solve").exists()

    def test_dense_size_refusal(self, tmp_path, capsys):
        rc, out = run(["fisher", "--fixture", "square_ex1",
                       "--resolution", "17,33,129"], tmp_path, "a")
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "RuntimeError"
        assert "16129" in record["message"]
        assert "DENSE_OPERATOR_MAX_DIM" in record["message"]
        assert not (out / "fisher").exists()


class TestDeterminism:
    """Identical configurations produce byte-identical data artifacts."""

    def test_fisher_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["fisher", "--fixture", "square_ex1", "--resolution", "17,21,25"]
        rc1, out1 = run(list(args), tmp_path, "a")
        rc2, out2 = run(list(args), tmp_path, "b")
        assert rc1 == rc2 == 0
        for name in ("summary.json", "refinement.csv"):
            b1 = (out1 / "fisher" / name).read_bytes()
            b2 = (out2 / "fisher" / name).read_bytes()
            assert b1 == b2
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


class TestAuxiliaryCommands:
    """Remaining subcommands produce coherent summaries."""

    def test_spectrum(self, tmp_path, capsys):
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


class TestReproductions:
    """The two pinned experiment pipelines."""

    def test_thm37_pipeline(self, tmp_path, capsys):
        rc, out = run(["reproduce-thm37", "--resolution", "17,21,25"],
                      tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "reproduce-thm37")
        assert summary["refinement"]["verdict"] == "out_of_range_divergent"
        assert summary["refinement"]["growth"] >= 2.0
        assert summary["ladder"]["growth_top_half"] >= 3.0
        assert summary["ladder"]["max_quotient_times_m"] <= 17.6
        assert (out / "reproduce-thm37" / "ladder.csv").exists()
        assert (out / "reproduce-thm37" / "refinement.csv").exists()
        capsys.readouterr()

    def test_thm38_pipeline(self, tmp_path, capsys):
        rc, out = run(["reproduce-thm38", "--resolution", "25,96"],
                      tmp_path, "a")
        assert rc == 0
        summary = load_summary(out, "reproduce-thm38")
        assert summary["t_gamma_error"] <= 1e-4
        assert summary["square_bump"]["verdict"] == "incompatible"
        assert summary["square_in_range"]["verdict"] == "compatible_within_tol"
        assert summary["disk_quadrant_bump"]["verdict"] == "incompatible"
        assert summary["disk_quadrant_bump"]["zero_ray_witness"]
        assert summary["disk_in_range"]["verdict"] == "compatible_within_tol"
        # square verdicts trace curves; disk verdicts integrate rays untraced
        assert summary["square_bump"]["ode_steps"] > 0
        assert summary["square_in_range"]["ode_steps"] > 0
        assert summary["disk_quadrant_bump"]["ode_steps"] == 0
        assert summary["disk_in_range"]["ode_steps"] == 0
        assert (out / "reproduce-thm38" / "curves.csv").exists()
        assert (out / "reproduce-thm38" / "disk_rays.csv").exists()
        capsys.readouterr()

    def test_thm38_needs_two_resolutions(self, tmp_path, capsys):
        rc, _ = run(["reproduce-thm38", "--resolution", "25"], tmp_path, "a")
        assert rc == 2
        capsys.readouterr()
