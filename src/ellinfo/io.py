"""Deterministic artifact serialization: CSV tables, canonical JSON, manifests.

Every writer here is byte-deterministic for a fixed input: floats are
rendered with ``%.17g``, which round-trips but is not the shortest form (0.1
prints as ``0.10000000000000001``), JSON keys are sorted, and row order is
whatever the caller constructed.  The deliberately non-reproducible data --
the creation timestamp and the stage wall times -- live only in the run
manifest, so identical reruns produce identical data artifacts.

CSV blocks are rendered as uint8 character planes, a row per cell, with a
mask of the characters kept, and joined by one compress; float cells take
their digits from an exact product, so they equal CPython's ``%.17g``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

#: Rows rendered per write: a float column's planes and masks take 80 bytes
#: a row, so a block's stay in the L2 cache (16384-row blocks wrote 25 %
#: slower), and no table is ever held whole as text or Python objects.
_BLOCK_ROWS = 4096


def _jsonable(obj):
    """Recursively convert numpy containers and scalars to JSON-safe types;
    a non-finite float becomes None (JSON null), since strict JSON has no
    NaN or Infinity."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_json(obj) -> str:
    """Sorted-key, indented, strict JSON with a trailing newline."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(canonical_json(obj), encoding="utf-8")
    return path


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON rendering of a configuration."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def _typed_column(values) -> np.ndarray:
    """A column's cells as one array of a writable kind.  Object columns
    raise, and so do sequences of mixed scalar kinds, which numpy would
    quietly promote (``[True, 2]`` to integers, ``[1, "a"]`` to text)."""
    arr = np.asarray(values)
    if not isinstance(values, np.ndarray):
        kinds = {np.dtype(t).kind for t in set(map(type, values))}
        if kinds - {arr.dtype.kind}:
            raise TypeError(f"column mixes scalar kinds {sorted(kinds)}")
    if arr.dtype.kind not in "fiubU":
        raise TypeError(f"cannot write a column of dtype {arr.dtype}")
    return arr


#: Powers of ten that are exact doubles, 10**0 to 10**22.
_POW10 = 10.0 ** np.arange(23)


def _two_product(a, b):
    """a * b exactly, as hi + lo: Dekker's product of Veltkamp's 26-bit splits."""
    ca, cb = a * 134217729.0, b * 134217729.0  # 2**27 + 1
    ah, bh = ca - (ca - a), cb - (cb - b)
    hi = a * b
    return hi, ((ah * bh - hi) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)


def _fixed_tables() -> tuple[np.ndarray, np.ndarray]:
    """Fixed notation in 40 characters, ``-0.000`` and then each of the 17
    digits d0 ... d16 followed by a ``.``: the 8-character groups (as uint64)
    of four digits g < 10**4 and of ``-0.000`` with d0 (10**4 + d0), and the
    characters kept, by exponent X in [-4, 15], sign and trailing zeros."""
    groups = np.full((10010, 8), ord("."), np.uint8)
    groups[:10000, ::2] = np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1) % 10 + 48
    groups[10000:, :6] = np.frombuffer(b"-0.000", np.uint8)
    groups[10000:, 6] = np.arange(10) + 48
    x, neg, zeros, col = np.ogrid[-4:16, :2, :17, :40]
    keep = ((col == 0) & (neg == 1) | (col >= 1) & (col < np.where(x < 0, 2 - x, 1))
            | (col >= 6) & (col % 2 == 0) | (x >= 0) & (col == 7 + 2 * x))
    keep = keep & (col < np.maximum(39 - 2 * zeros, 7 + 2 * x))
    return groups.view(np.uint64)[:, 0], keep.reshape(-1, 40)


_GROUPS, _KEEP = _fixed_tables()


def _float_cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%.17g`` of float64 cells.  For 1e-4 <= |v| < 1e16 that is fixed
    notation of the 17 digits D = rint(|v| 10**(16 - X)), X the decimal
    exponent; the product is exact, so D rounds half-even as CPython does.
    The other cells (zeros, subnormals, non-finite) are formatted one by one."""
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    x = np.floor(np.log10(a)).astype(np.int64)
    # correct the estimate once, so that 10**16 <= |v| 10**(16 - X) < 10**17 exactly
    hi, lo = _two_product(a, _POW10[16 - x])
    x += (hi > 1e17) | (hi == 1e17) & (lo >= 0)
    x -= (hi < 1e16) | (hi == 1e16) & (lo < 0)
    hi, lo = _two_product(a, _POW10[16 - x])
    # hi is even, so this rounds half-even; no double in range rounds up to
    # 10**17 (test_io checks the gap), which would fail the take below
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    groups = np.empty((len(v), 5), np.int64)
    for k in range(4, 0, -1):
        q = d // 10000
        groups[:, k], d = d - 10000 * q, q
    groups[:, 0] = d + 10000
    chars = _GROUPS.take(groups).view(np.uint8)
    zeros = np.argmax(chars[:, 38:5:-2] != ord("0"), axis=1)
    keep = _KEEP.take(np.ravel_multi_index((x + 4, v < 0, zeros), (20, 2, 17)), axis=0)
    other = np.flatnonzero(~fast)
    text = np.array([b"%.17g" % c for c in v[other].tolist()], dtype="S24")
    chars[other, :24] = text.view(np.uint8).reshape(-1, 24)
    keep[other] = np.arange(40) < np.char.str_len(text)[:, None]
    return chars, keep


def _cells(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block of a column as uint8 character planes, a row per cell, and
    the mask of the characters each cell keeps."""
    kind = block.dtype.kind
    if kind == "f":
        with np.errstate(invalid="ignore"):  # signalling NaNs turn quiet
            return _float_cells(block.astype(np.float64))
    text = (np.where(block, b"true", b"false") if kind == "b" else
            np.char.encode(block, "utf-8") if kind == "U" else block.astype("S"))
    chars = text.view(np.uint8).reshape(block.size, -1)
    return chars, np.arange(chars.shape[1]) < np.char.str_len(text)[:, None]


def write_table_csv(path, names, columns, meta: dict | None = None) -> Path:
    """CSV with an optional single ``# {json}`` metadata header line.

    ``columns`` holds one sequence per name, each formatted by its dtype:
    float ``%.17g``, integer ``%d``, bool ``true``/``false``, str ``%s``.
    """
    path = Path(path)
    arrays = [_typed_column(c) for c in columns]
    if not arrays:
        raise ValueError("a table needs at least one column")
    n_rows = len(arrays[0])
    if len(names) != len(arrays) or any(len(a) != n_rows for a in arrays):
        raise ValueError(f"{len(names)} names for columns of lengths "
                         f"{[len(a) for a in arrays]}")
    ends = b"," * (len(arrays) - 1) + b"\n"
    with path.open("wb") as fh:
        if meta is not None:
            fh.write(b"# " + json.dumps(_jsonable(meta), sort_keys=True, allow_nan=False,
                                        separators=(",", ":")).encode() + b"\n")
        fh.write((",".join(names) + "\n").encode())
        for lo in range(0, n_rows, _BLOCK_ROWS):
            planes, keep = [], []
            for a, end in zip(arrays, ends):
                chars, mask = _cells(a[lo:lo + _BLOCK_ROWS])
                planes += [chars, np.full((len(chars), 1), end, np.uint8)]
                keep += [mask, np.ones((len(chars), 1), bool)]
            fh.write(np.compress(np.concatenate(keep, axis=1).ravel(),
                                 np.concatenate(planes, axis=1).ravel()))
    return path


def write_curves_csv(path, curves, meta: dict | None = None) -> Path:
    """Polyline table for traced integral curves: curve_id, t, x, y."""
    times = [np.asarray(c.times) for c in curves]
    points = np.concatenate([np.empty((0, 2))] + [np.asarray(c.points) for c in curves])
    columns = (np.repeat(np.arange(len(times)), [t.size for t in times]),
               np.concatenate([np.empty(0)] + times), points[:, 0], points[:, 1])
    return write_table_csv(path, ("curve_id", "t", "x", "y"), columns, meta=meta)


def _blas() -> dict | None:
    """Name and version of the BLAS numpy was built against; None where
    ``np.show_config`` has no dict mode (numpy before 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def build_manifest(config: dict, seeds, stages: dict) -> dict:
    """Provenance record: config hash, seeds, versions, the numerical
    environment (BLAS and its thread settings, None where unset), the wall
    times of the run's stages (seconds), and the only timestamp any artifact
    carries."""
    from ellinfo import __version__

    return {
        "config_sha256": config_hash(config),
        "seeds": _jsonable(seeds),
        "versions": {
            "ellinfo": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "platform": platform.platform(),
        "numerics": {
            "blas": _blas(),
            "threads": {name: os.environ.get(name)
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "stages": stages,
    }


def write_manifest(path, config: dict, seeds, stages: dict) -> Path:
    return write_json(path, build_manifest(config, seeds, stages))
