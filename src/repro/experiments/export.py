"""Exporting experiment results to CSV and JSON.

The drivers print paper-style tables; for plotting or regression
tracking, the same results can be written to files.  Export dispatches
on the tabular result protocol of
:mod:`repro.experiments.result` — any object with ``to_dict()``
(returning records), or with ``rows()``/``headers()``, exports — so
new experiments and the telemetry layer's
:class:`~repro.obs.trace.TraceSummary` need no exporter registration.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path


def result_to_rows(result) -> list[dict]:
    """Flatten any tabular result into records.

    Dispatches on the protocol, not on concrete types: ``to_dict()``
    wins if present; otherwise ``rows()`` is zipped with ``headers()``
    (or positional ``colN`` names when headers are missing too).
    """
    to_dict = getattr(result, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    rows_method = getattr(result, "rows", None)
    if callable(rows_method):
        rows = rows_method()
        headers_method = getattr(result, "headers", None)
        if callable(headers_method):
            names = headers_method()
        else:
            names = [f"col{i}" for i in range(len(rows[0]))] if rows else []
        return [dict(zip(names, row)) for row in rows]
    raise TypeError(
        f"don't know how to export {type(result).__name__}: it has "
        "neither to_dict() nor rows()"
    )


def write_csv(result, path: str | Path) -> Path:
    """Write a result as CSV; returns the path written."""
    path = Path(path)
    records = result_to_rows(result)
    if not records:
        raise ValueError("nothing to export")
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)
    return path


def write_json(result, path: str | Path) -> Path:
    """Write a result as JSON records; returns the path written."""
    path = Path(path)
    records = result_to_rows(result)
    path.write_text(json.dumps(records, indent=1))
    return path


def write_result(result, path: str | Path) -> Path:
    """Dispatch on the file extension (.csv or .json)."""
    path = Path(path)
    if path.suffix == ".csv":
        return write_csv(result, path)
    if path.suffix == ".json":
        return write_json(result, path)
    raise ValueError(
        f"unsupported export extension {path.suffix!r} "
        "(use .csv or .json)"
    )
