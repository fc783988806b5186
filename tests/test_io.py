"""Artifact writers: column-major CSV tables against the per-cell formatter
they replaced, which stays here as the oracle."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from ellinfo import io as eio


def oracle_cell(v) -> str:
    """One CSV cell, formatted by the Python type of the value."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def oracle_csv(names, rows, meta=None) -> bytes:
    lines = []
    if meta is not None:
        lines.append("# " + json.dumps(meta, sort_keys=True, separators=(",", ":")))
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(oracle_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def written(tmp_path, names, columns, meta=None) -> bytes:
    return eio.write_table_csv(tmp_path / "t.csv", names, columns, meta=meta).read_bytes()


SPECIAL_FLOATS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 0.1,
                           1e16, 1e17, 1.0, -2.5e-300, 1.7976931348623157e308])


class TestTableCsv:
    """Every column kind renders exactly as the per-cell formatter did."""

    def test_special_floats(self, tmp_path):
        got = written(tmp_path, ("v",), (SPECIAL_FLOATS,))
        assert got == oracle_csv(("v",), zip(SPECIAL_FLOATS))
        assert b"0.10000000000000001\n" in got
        assert b"-0\n" in got and b"nan\n" in got and b"1e+17\n" in got

    def test_int_bool_and_str_columns(self, tmp_path):
        n = SPECIAL_FLOATS.size
        columns = (np.arange(n) - 3, np.arange(n, dtype=np.uint32) * 1000,
                   np.arange(n) % 3 == 0, np.array(["llr", "a b", "x"] * 4)[:n],
                   np.linspace(-1.0, 1.0, n, dtype=np.float32))
        names = ("i", "u", "b", "s", "f32")
        meta = {"fixture": "square_ex1", "resolution": 17}
        assert written(tmp_path, names, columns, meta) == oracle_csv(
            names, zip(*columns), meta)

    def test_python_sequences(self, tmp_path):
        columns = ((17, 25, 33), [False, True, True], [0.5, float("nan"), 2.0],
                   ["direct", "bound", "direct"])
        names = ("res", "lower", "value", "method")
        assert written(tmp_path, names, columns) == oracle_csv(names, zip(*columns))

    def test_empty_table_is_metadata_and_header(self, tmp_path):
        meta = {"fixture": "disk_ex2"}
        got = written(tmp_path, ("k", "x"), (np.empty(0, dtype=int), np.empty(0)), meta)
        assert got == b'# {"fixture":"disk_ex2"}\nk,x\n'
        assert got == oracle_csv(("k", "x"), [], meta)

    def test_table_longer_than_one_block(self, tmp_path):
        n = 2 * eio._BLOCK_ROWS + 7
        rng = np.random.default_rng(4)
        columns = (np.arange(n), rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n))
        got = written(tmp_path, ("i", "v"), columns)
        assert got == oracle_csv(("i", "v"), zip(*columns))
        assert got.count(b"\n") == n + 1

    def test_curves_table(self, tmp_path):
        rng = np.random.default_rng(1)
        curves = [SimpleNamespace(times=np.linspace(0.0, -t, n), points=rng.random((n, 2)))
                  for t, n in ((0.3, 5), (0.0, 0), (1.1, 9))]
        rows = [(cid, t, x, y) for cid, c in enumerate(curves)
                for t, (x, y) in zip(c.times, c.points)]
        meta = {"psi": "bump"}
        got = eio.write_curves_csv(tmp_path / "c.csv", curves, meta=meta).read_bytes()
        assert got == oracle_csv(("curve_id", "t", "x", "y"), rows, meta)

    @pytest.mark.parametrize("column", [
        [1, "a"], [True, 2], [1.0, None], np.array([1.0, "a"], dtype=object)])
    def test_mixed_or_object_column_raises(self, tmp_path, column):
        with pytest.raises(TypeError):
            written(tmp_path, ("v",), (column,))

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="lengths"):
            written(tmp_path, ("a", "b"), (np.arange(3), np.arange(4.0)))


class TestCanonicalJson:
    """Summaries are strict JSON: sorted keys, no NaN or Infinity tokens."""

    def test_non_finite_floats_become_null(self):
        obj = {"b": [np.inf, 1.5], "a": float("nan"), "c": np.float64(-np.inf),
               "d": np.array([0.25, np.nan])}
        text = eio.canonical_json(obj)
        assert json.loads(text, parse_constant=pytest.fail) == {
            "a": None, "b": [None, 1.5], "c": None, "d": [0.25, None]}
        assert text.index('"a"') < text.index('"b"')

    def test_table_metadata_is_strict(self, tmp_path):
        got = written(tmp_path, ("v",), ([1.0],), {"limit": float("inf")})
        assert got.splitlines()[0] == b'# {"limit":null}'


class TestManifest:
    """The manifest records the numerical environment a run's bits depend on."""

    def test_blas_and_thread_settings(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        numerics = eio.build_manifest({}, [0], {})["numerics"]
        assert numerics["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}
        blas = numerics["blas"]
        assert blas is None or set(blas) == {"name", "version"}
        json.loads(eio.canonical_json(numerics))

    def test_blas_is_null_without_the_dict_mode(self, monkeypatch):
        """numpy before 1.26 has a show_config that takes no mode."""
        monkeypatch.setattr(np, "show_config", lambda: None)
        assert eio.build_manifest({}, [0], {})["numerics"]["blas"] is None
