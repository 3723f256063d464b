"""Deterministic report serialization.

All emitted files are byte-identical across reruns with the same seed: keys
are sorted, floats are formatted with 12 significant digits, and wall-clock
fields are emitted as null (timings go to the run log, never into reports).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from .errors import IoFailure


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return format(float(x), ".12g")


def canonical_json(obj) -> str:
    """Render with sorted keys and fixed float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ",".join(canonical_json(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def digest_payload(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def _flat_items(prefix: str, value):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _flat_items(f"{prefix}.{k}" if prefix else str(k), value[k])
    elif isinstance(value, (list, tuple, np.ndarray)):
        seq = value.tolist() if isinstance(value, np.ndarray) else value
        for i, v in enumerate(seq):
            yield from _flat_items(f"{prefix}[{i}]", v)
    else:
        yield prefix, value


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return fmt_float(float(value)).strip('"')
    return str(value)


def emit_report(report, out_dir, prefix: str = "") -> list[Path]:
    """Write the report as JSON, ``{prefix}00_{theorem}.json``, and its
    measurements as a flat CSV, ``{prefix}measurements.csv``.

    File contents are a pure function of the report payload.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = report.payload()
        json_path = out_dir / f"{prefix}00_{report.theorem}.json"
        json_path.write_text(canonical_json(payload) + "\n")
        csv_buf = io.StringIO()
        writer = csv.writer(csv_buf, lineterminator="\n")
        writer.writerow(["theorem", "scenario_digest", "key", "value"])
        for key, value in _flat_items("", payload["measurements"]):
            writer.writerow([report.theorem, report.scenario_digest, key, _cell(value)])
        csv_path = out_dir / f"{prefix}measurements.csv"
        csv_path.write_text(csv_buf.getvalue())
        return [json_path, csv_path]
    except OSError as exc:
        raise IoFailure(f"could not write reports under {out_dir}: {exc}") from exc


def write_series_csv(path, header, rows):
    """Solution series CSV with the fixed float format."""
    try:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        Path(path).write_text(buf.getvalue())
    except OSError as exc:
        raise IoFailure(f"could not write series {path}: {exc}") from exc
