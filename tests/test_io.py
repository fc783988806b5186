"""Artifact writers: column-major CSV tables against the per-cell formatter
they replaced, which stays here as the oracle."""

import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from ellinfo import io as eio
from ellinfo.elliptic import Conductivity, DivergenceFormOperator
from ellinfo.fixtures import fixture_data, fixture_domain
from ellinfo.grids import build_grid


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


def assert_float_cells(tmp_path, values):
    """A float column, written, equals the oracle's ``format(v, ".17g")`` of
    each cell (the float branch of ``oracle_cell``, without its type tests)."""
    values = np.asarray(values)
    expected = "v\n" + "".join(format(v, ".17g") + "\n" for v in values.tolist())
    assert written(tmp_path, ("v",), (values,)) == expected.encode()


class TestFloatRenderer:
    """Float cells are rendered from numpy character planes: the 17 digits of
    an exact product, placed in fixed notation for 1e-4 <= |v| < 1e16, with
    ``%.17g`` per cell elsewhere.  Each case is byte-compared with the oracle."""

    def test_ties_round_half_even(self, tmp_path):
        """M / 2**(k + 1) with M odd: for k = 1, 2 many cells have exactly 18
        significant digits ending in 5, so the 17th digit rounds half-even."""
        rng = np.random.default_rng(11)
        odd = rng.integers(2 ** 50, 2 ** 52, (19, 200)) * 2 + 1
        values = (odd / 2.0 ** np.arange(2, 21)[:, None]).ravel()
        assert_float_cells(tmp_path, np.concatenate([values, -values]))

    def test_neighbours_of_powers_of_ten(self, tmp_path):
        powers = 10.0 ** np.arange(-8, 18)
        steps = np.arange(-6, 7)[:, None]
        values = (powers.view(np.int64) + steps).view(np.float64).ravel()
        assert_float_cells(tmp_path, np.concatenate([values, -values]))

    def test_seventeen_nines(self, tmp_path):
        values = [float(f"{'9' * k}e{e}") for k in (15, 16, 17, 18) for e in range(-26, 4)]
        got = written(tmp_path, ("v",), (values,))
        assert got == oracle_csv(("v",), zip(values))
        assert b"\n0.00099999999999999999\n" not in got  # the literal parses to 1e-3
        assert b"\n0.001\n" in got

    def test_no_double_rounds_up_to_a_power_of_ten(self):
        """The double below each 10**k in fixed notation is more than half a
        unit of the 17th digit away, so the rounded digits never carry."""
        for k in range(-3, 17):
            below = float(Fraction(10) ** k)
            if Fraction(below) >= Fraction(10) ** k:
                below = np.nextafter(below, 0.0)
            assert Fraction(10) ** 17 - Fraction(below) * Fraction(10) ** (17 - k) > 0.5, k

    def test_edges_of_fixed_notation(self, tmp_path):
        values = [1e-4, np.nextafter(1e-4, 0), 1e16, np.nextafter(1e16, 0),
                  -1e-4, np.nextafter(-1e16, 0)]
        got = written(tmp_path, ("v",), (values,))
        assert got == oracle_csv(("v",), zip(values))
        assert got.split(b"\n")[1:5] == [b"0.0001", b"9.9999999999999991e-05",
                                         b"10000000000000000", b"9999999999999998"]

    def test_float32_and_float16_columns(self, tmp_path):
        half = np.arange(2 ** 16, dtype=np.uint16).view(np.float16)  # every float16
        single = np.random.default_rng(12).integers(0, 2 ** 32, half.size, dtype=np.uint32)
        columns = (half, single.view(np.float32))  # signalling NaNs among them
        assert written(tmp_path, ("h", "s"), columns) == oracle_csv(("h", "s"), zip(*columns))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_whole_exponent_range(self, tmp_path, seed):
        """3e5 doubles of random bits: one in 16 with any exponent field
        (zeros, subnormals, inf and NaN included), the rest with the binary
        exponents of fixed notation."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2 ** 64, 300_000, dtype=np.uint64)
        window = np.arange(bits.size) % 16 != 0
        exponent = rng.integers(1023 - 15, 1023 + 54, bits.size, dtype=np.uint64)
        bits[window] = bits[window] & ~np.uint64(0x7FF << 52) | exponent[window] << np.uint64(52)
        bits[:4] = [0, 1 << 63, 0x7FF << 52, 0x7FF8 << 48]
        assert_float_cells(tmp_path, bits.view(np.float64))

    def test_mixed_table_over_several_blocks(self, tmp_path):
        n = 3 * eio._BLOCK_ROWS + 5
        rng = np.random.default_rng(13)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 18, n)
        values[::97] = np.nan
        columns = (np.arange(n) - n // 2, values > 0, np.array(["a", "llr", "é,b", ""])[
            np.arange(n) % 4], values)
        names = ("i", "b", "s", "v")
        assert written(tmp_path, names, columns, {"n": n}) == oracle_csv(
            names, zip(*columns), {"n": n})

    @pytest.mark.parametrize("fixture, resolution", [("square_ex1", 65), ("disk_ex2", 40)])
    def test_solution_tables(self, tmp_path, fixture, resolution):
        """The x, y, u columns of a theta = 1 solve, as ``solve`` writes them."""
        grid = build_grid(fixture_domain(fixture, resolution))
        u = DivergenceFormOperator(Conductivity.constant(grid)).solve(*fixture_data(fixture, grid))
        columns = (grid.x, grid.y, u.values)
        assert written(tmp_path, ("x", "y", "u"), columns) == oracle_csv(
            ("x", "y", "u"), zip(*columns))

    def test_table_without_columns_raises(self, tmp_path):
        with pytest.raises(ValueError, match="at least one column"):
            written(tmp_path, (), ())


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
