"""The artifact format: how every report becomes JSON or CSV.

This is the one module that knows the format.  In JSON a ``Fraction``
becomes ``{"num", "den"}``, an infinite or NaN float becomes ``null``, a
dataclass becomes an object of its fields, tuples and arrays become lists
and numpy scalars become Python numbers; files are written with sorted keys
and a two-space indent.  A CSV cell is the ``repr`` of a float, ``num/den``
of a ``Fraction`` and empty for ``None``; lines end in CRLF.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import orjson


def jsonable(obj):
    """``obj`` as plain JSON values.  A dataclass is read one level at a
    time through :func:`dataclasses.fields`, so no field is ever copied."""
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, np.ndarray):
        # a numeric array with nothing to replace needs no walk
        plain = obj.dtype.kind in "biu" or obj.dtype.kind == "f" and np.isfinite(obj).all()
        return obj.tolist() if plain else jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        return jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _fmt(v) -> str:
    """One CSV cell."""
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def float_cells(values: np.ndarray) -> bytes:
    """``repr`` of each value of a 1-d float array, comma-joined: orjson's
    shortest round-trip digits, with ``repr`` for the cells it writes
    otherwise (nonzero ones outside [1e-4, 1e16), where ``repr`` takes
    exponent form, and inf and nan, which orjson writes as ``null``)."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    cells = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    a = np.abs(v)
    odd = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)) & (v != 0))
    if not len(odd):
        return cells
    split = cells.split(b",")
    for i in odd.tolist():
        split[i] = repr(float(v[i])).encode()
    return b",".join(split)


def write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)
