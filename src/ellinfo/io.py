"""Deterministic artifact serialization: CSV tables, canonical JSON, manifests.

Every writer here is byte-deterministic for a fixed input: floats are
rendered with ``%.17g``, which round-trips but is not the shortest form (0.1
prints as ``0.10000000000000001``), JSON keys are sorted, and row order is
whatever the caller constructed.  The deliberately non-reproducible data --
the creation timestamp and the stage wall times -- live only in the run
manifest, so identical reruns produce identical data artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np
import scipy

#: Rows formatted per write: no table is ever held whole as Python objects.
_BLOCK_ROWS = 4096

#: printf spec by numpy dtype kind; bool columns are turned into text first.
_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "U": "%s"}


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


def _typed_column(values) -> tuple[str, np.ndarray]:
    """A column's printf spec and its cells as one array.  Object columns
    raise, and so do sequences of mixed scalar kinds, which numpy would
    quietly promote (``[True, 2]`` to integers, ``[1, "a"]`` to text)."""
    arr = np.asarray(values)
    if not isinstance(values, np.ndarray):
        kinds = {np.dtype(t).kind for t in set(map(type, values))}
        if kinds - {arr.dtype.kind}:
            raise TypeError(f"column mixes scalar kinds {sorted(kinds)}")
    if arr.dtype.kind == "b":
        arr = np.where(arr, "true", "false")
    if arr.dtype.kind not in _FORMATS:
        raise TypeError(f"cannot write a column of dtype {arr.dtype}")
    return _FORMATS[arr.dtype.kind], arr


def write_table_csv(path, names, columns, meta: dict | None = None) -> Path:
    """CSV with an optional single ``# {json}`` metadata header line.

    ``columns`` holds one sequence per name, each formatted by its dtype:
    float ``%.17g``, integer ``%d``, bool ``true``/``false``, str ``%s``.
    """
    path = Path(path)
    specs, arrays = zip(*map(_typed_column, columns))
    n_rows = len(arrays[0])
    if len(names) != len(arrays) or any(len(a) != n_rows for a in arrays):
        raise ValueError(f"{len(names)} names for columns of lengths "
                         f"{[len(a) for a in arrays]}")
    row_format = ",".join(specs) + "\n"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        if meta is not None:
            fh.write("# " + json.dumps(_jsonable(meta), sort_keys=True, allow_nan=False,
                                       separators=(",", ":")) + "\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, n_rows, _BLOCK_ROWS):
            rows = zip(*(a[lo:lo + _BLOCK_ROWS].tolist() for a in arrays))
            fh.write(row_format * min(_BLOCK_ROWS, n_rows - lo)
                     % tuple(chain.from_iterable(rows)))
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
