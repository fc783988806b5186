"""Deterministic artifact serialization: CSV tables, canonical JSON, manifests.

Every writer here is byte-deterministic for a fixed input: floats are
rendered with a fixed shortest-roundtrip format, JSON keys are sorted, and
row order is whatever the caller constructed.  The one deliberately
non-reproducible datum -- the creation timestamp -- lives only in the run
manifest, so identical reruns produce identical data artifacts.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

FLOAT_FORMAT = ".17g"


def _jsonable(obj):
    """Recursively convert numpy containers and scalars to JSON-safe types."""
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
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def canonical_json(obj) -> str:
    """Sorted-key, indented JSON with a trailing newline."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(canonical_json(obj), encoding="utf-8")
    return path


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical JSON rendering of a configuration."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), FLOAT_FORMAT)
    return str(v)


def write_table_csv(path, columns, rows, meta: dict | None = None) -> Path:
    """CSV with an optional single ``# {json}`` metadata header line.

    ``rows`` is an iterable of sequences matching ``columns``; cells are
    rendered with the shared deterministic float format.
    """
    path = Path(path)
    lines = []
    if meta is not None:
        lines.append("# " + json.dumps(_jsonable(meta), sort_keys=True,
                                       separators=(",", ":")))
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_curves_csv(path, curves, meta: dict | None = None) -> Path:
    """Polyline table for traced integral curves: curve_id, t, x, y."""
    rows = []
    for cid, curve in enumerate(curves):
        for t, (x, y) in zip(curve.times, curve.points):
            rows.append((cid, t, x, y))
    return write_table_csv(path, ("curve_id", "t", "x", "y"), rows, meta=meta)


def build_manifest(config: dict, seeds) -> dict:
    """Provenance record: config hash, seeds, versions, and the only
    timestamp any artifact carries."""
    from ellinfo import __version__

    manifest = {
        "config_sha256": config_hash(config),
        "seeds": _jsonable(seeds),
        "versions": {
            "ellinfo": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "platform": platform.platform(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    return manifest


def write_manifest(path, config: dict, seeds) -> Path:
    return write_json(path, build_manifest(config, seeds))
