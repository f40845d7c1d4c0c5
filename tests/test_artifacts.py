"""The artifact format: the encoder, the CSV cells, and pinned artifacts."""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from fpplab._artifacts import jsonable, write_csv
from fpplab.cli import main


class _NoCopy:
    def __deepcopy__(self, memo):
        raise AssertionError("deep-copied")


@dataclass
class _Record:
    p: Fraction
    pair: tuple
    table: np.ndarray
    count: np.int64
    x: np.float64
    flag: np.bool_
    hi: float
    bad: float
    missing: None
    opaque: object


def test_jsonable_encodes_a_dataclass_as_its_fields():
    opaque = _NoCopy()
    rec = _Record(p=Fraction(3, 8), pair=(1, 2.5), table=np.array([[0.5, 1.0], [2.0, np.inf]]),
                  count=np.int64(7), x=np.float64(0.25), flag=np.bool_(True), hi=math.inf,
                  bad=math.nan, missing=None, opaque=opaque)
    out = jsonable({"records": [rec, {"q": Fraction(-1, 3), "r": np.float64(-np.inf)}]})
    first, second = out["records"]
    assert first.pop("opaque") is opaque  # read field by field, never copied
    assert first == {"p": {"num": 3, "den": 8}, "pair": [1, 2.5],
                     "table": [[0.5, 1.0], [2.0, None]], "count": 7, "x": 0.25,
                     "flag": True, "hi": None, "bad": None, "missing": None}
    assert second == {"q": {"num": -1, "den": 3}, "r": None}
    assert [type(first[k]) for k in ("count", "x", "flag")] == [int, float, bool]
    json.dumps(out, allow_nan=False)
    with pytest.raises(AssertionError, match="deep-copied"):
        dataclasses.asdict(rec)


def test_csv_cells_and_line_ends(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c", "d", "e"], [[0.1, math.inf, Fraction(2), None, True]])
    assert path.read_bytes() == b"a,b,c,d,e\r\n0.1,inf,2/1,,True\r\n"


# sha256 of artifacts of the default configs; their numbers come from exact
# Fractions, hashed weights and Wilson intervals, with no quasi-random draw
# and no least-squares fit
PINNED = {
    ("oracle", "oracle.json"):
        "23fd6fb5104801a40f2ced888f978c293f1ba0d0ffc7dff5dbbd0e561440f4ea",
    ("ld-trend", "ld_trend.json"):
        "d51b8c3fc55fbfdbd0a3d2b036993d539e4e5db74a1686c26023b97d4b4a03c9",
}


def test_default_artifacts_are_pinned(tmp_path):
    for (command, name), digest in PINNED.items():
        out = tmp_path / command
        assert main([command, "-o", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
