"""Lossless JSON and CSV serialization of report structures.

JSON output is strict (no bare NaN/Infinity literals); non-finite floats
round-trip through ``{"$float": "inf" | "-inf" | "nan"}`` tokens and
complex numbers through ``{"$complex": [re, im]}``.  Dataclasses and numpy
arrays are converted to plain containers on the way out.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import numpy as np

__all__ = [
    "SCHEMA",
    "to_jsonable",
    "from_jsonable",
    "dumps_report",
    "loads_report",
    "rows_to_csv",
    "flatten_rows",
]

SCHEMA = "kyle-stability/1"


def to_jsonable(obj):
    """Recursively convert a report structure to strict-JSON-safe data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"$complex": [to_jsonable(obj.real), to_jsonable(obj.imag)]}
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            return {"$float": "nan"}
        if math.isinf(value):
            return {"$float": "inf" if value > 0 else "-inf"}
        return value
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_jsonable(obj):
    """Inverse of :func:`to_jsonable` on plain containers (tokens decoded)."""
    if isinstance(obj, dict):
        if set(obj) == {"$float"}:
            return {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[obj["$float"]]
        if set(obj) == {"$complex"}:
            re_part, im_part = (from_jsonable(v) for v in obj["$complex"])
            return complex(re_part, im_part)
        return {k: from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    return obj


def dumps_report(report: dict, indent: int = 2) -> str:
    """Serialize a report dict to strict JSON text."""
    return json.dumps(to_jsonable(report), indent=indent, allow_nan=False)


def loads_report(text: str) -> dict:
    """Parse report JSON back into plain Python with tokens decoded."""
    return from_jsonable(json.loads(text))


def _csv_cell(value) -> str:
    if isinstance(value, complex):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def flatten_rows(result) -> list:
    """Normalize a command result into a list of flat row dicts for CSV.

    Lists of dicts pass through row by row; a single dict becomes one row.
    Nested dicts (and dataclasses) flatten with dotted keys, lists of dicts
    with dotted indices; other lists render as ';'-separated cells.
    """
    result = from_jsonable(to_jsonable(result))
    rows = result if isinstance(result, list) else [result]
    flat_rows = []
    for row in rows:
        if not isinstance(row, dict):
            row = {"value": row}
        flat: dict = {}
        _flatten_into(flat, row, prefix="")
        flat_rows.append(flat)
    return flat_rows


def _flatten_into(out: dict, obj: dict, prefix: str) -> None:
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            _flatten_into(out, value, prefix=f"{name}.")
        elif isinstance(value, list) and value and all(
            isinstance(v, dict) for v in value
        ):
            for i, item in enumerate(value):
                _flatten_into(out, item, prefix=f"{name}.{i}.")
        else:
            out[name] = _csv_cell(value)


def rows_to_csv(result) -> str:
    """Render a command result as CSV text (header row first)."""
    rows = flatten_rows(result)
    fieldnames: list = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
