"""Deterministic report serialization, and every file a run writes.

Output layout under the chosen directory:

    manifest.json       deterministic; lists every emitted file
    reports/*.json      one per TheoremReport (canonical serialization)
    reports/*.csv       flat measurement tables
    series/*.csv        solution series (t, V_t, x_quantile_tag, Y, Z)
    run.log             wall-clock timings (not listed in the manifest; the
                        manifest and reports stay byte-identical across reruns)

All emitted files are byte-identical across reruns with the same seed: keys
are sorted, floats are formatted with 12 significant digits, and wall-clock
fields are emitted as null (timings go to the run log, never into reports).
Each file is written by ``write_file``, whose one failure is ``IoFailure``.
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


def _leaf(obj) -> tuple[str, str]:
    """A scalar's JSON token and its CSV cell.  A float is formatted once,
    for both (unquoted in the cell); any other cell is ``str`` of it."""
    if isinstance(obj, (float, np.floating)):
        token = fmt_float(float(obj))
        return token, token.strip('"')
    if obj is None:
        return "null", "None"
    if isinstance(obj, bool):
        return ("true" if obj else "false"), str(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj)), str(obj)
    if isinstance(obj, str):
        return json.dumps(obj), obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _render(obj, rows: list, key: str) -> str:
    """``obj`` as canonical JSON; each leaf's (key, cell) is appended to
    ``rows`` in the same order, keyed ``a.b`` inside a dict and ``a[i]``
    inside a list."""
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}:{_render(obj[k], rows, f'{key}.{k}' if key else str(k))}" for k in sorted(obj))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ",".join(_render(v, rows, f"{key}[{i}]") for i, v in enumerate(seq)) + "]"
    token, cell = _leaf(obj)
    rows.append((key, cell))
    return token


def canonical_json(obj) -> str:
    """Render with sorted keys and fixed float formatting."""
    return _render(obj, [], "")


def digest_payload(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def write_file(path: Path, text: str) -> Path:
    """Write ``text`` to ``path``, making its parent directory first; an
    ``OSError`` of either becomes an ``IoFailure`` that names ``path``."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise IoFailure(f"could not write {path}: {exc}") from exc
    return path


def _csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def emit_report(report, out_dir, prefix: str = "") -> list[Path]:
    """Write the report as JSON, ``{prefix}00_{theorem}.json``, and its
    measurements as a flat CSV, ``{prefix}measurements.csv``, from one
    rendering of its payload.

    File contents are a pure function of the report payload.
    """
    out_dir = Path(out_dir)
    rows = []  # every leaf of the payload, keyed from its top
    text = _render(report.payload(), rows, "")
    table = [
        (report.theorem, report.scenario_digest, key.removeprefix("measurements."), cell)
        for key, cell in rows
        if key.startswith("measurements.")
    ]
    return [
        write_file(out_dir / f"{prefix}00_{report.theorem}.json", text + "\n"),
        write_file(out_dir / f"{prefix}measurements.csv", _csv(["theorem", "scenario_digest", "key", "value"], table)),
    ]


def write_series_csv(path, header, rows) -> Path:
    """Solution series CSV with the fixed float format."""
    return write_file(Path(path), _csv(header, ([_leaf(v)[1] for v in row] for row in rows)))
