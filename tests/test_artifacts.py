"""The artifact format: the encoder, the CSV cells, and pinned artifacts."""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab._artifacts import float_cells, jsonable, write_csv
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


def _repr_cells(v: np.ndarray) -> bytes:
    return ",".join(map(repr, v.tolist())).encode()


def _neighbourhood(x: float, steps: int = 64) -> np.ndarray:
    """The ``steps`` floats on each side of ``x``, and ``x``, with their negatives."""
    up, down = [x], [x]
    with np.errstate(over="ignore"):  # past the largest float, up reaches inf
        for _ in range(steps):
            up.append(np.nextafter(up[-1], np.inf))
            down.append(np.nextafter(down[-1], -np.inf))
    v = np.array(down[::-1] + up[1:])
    return np.concatenate([v, -v])


def test_float_cells_equal_repr_on_random_bit_patterns():
    # every class of float64 bit pattern: normals of every exponent,
    # subnormals, +-0.0, +-inf and nan (an all-ones exponent)
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    v = bits.view(np.float64)
    sub = rng.integers(1, 2 ** 52, size=1000, dtype=np.uint64).view(np.float64)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny])
    logu = 10.0 ** rng.uniform(-6, 18, size=20_000)
    for chunk in (v, sub, -sub, special, logu, v[:0]):
        assert float_cells(chunk) == _repr_cells(chunk)
    assert np.isnan(v).any()  # inf, two patterns of 2^64, is among the specials
    assert ((v != 0) & (np.abs(v) < np.finfo(float).tiny)).any()  # subnormals


@pytest.mark.parametrize("edge", [1e-4, 1e16, 5e-324, np.finfo(float).max])
def test_float_cells_equal_repr_where_repr_switches_form(edge):
    v = _neighbourhood(edge)
    assert float_cells(v) == _repr_cells(v)
    assert float_cells(v[::-3]) == _repr_cells(v[::-3])  # a strided view


@given(st.lists(st.floats(width=64), max_size=40))
@settings(max_examples=300, deadline=None)
def test_float_cells_equal_repr_on_any_floats(xs):
    v = np.array(xs, dtype=np.float64)
    assert float_cells(v) == _repr_cells(v)


# sha256 of artifacts of the default configs; their numbers come from exact
# Fractions, hashed weights and Wilson intervals, with no quasi-random draw.
# The one least-squares fit, rate.json's zero-set trend slope, is a closed
# form of math.fsum sums over three points, so no BLAS kernel rounds it.
PINNED = {
    ("oracle", "oracle.json"):
        "4cbff3b425cba218494f9a07edd10724a43d7f5fb6745f52e65ac2ab053af5c9",
    ("ld-trend", "ld_trend.json"):
        "d51b8c3fc55fbfdbd0a3d2b036993d539e4e5db74a1686c26023b97d4b4a03c9",
    # every default rate point is exact, so no Monte-Carlo draw reaches these
    ("rate", "rate_points.csv"):
        "81b0820713e9ac43fe39d6fa2058df853c65b179965c7d267951a4830adf6171",
    ("rate", "rate.json"):
        "4fe7880b868c45d905a2668ec5bf3d8772925af7d12ec2b7e556c857ccf5ed23",
    ("rate", "surface.json"):
        "971606720ff95055fdaeae6eaf37bb9b70afe5b4c18cc0d9ad90f5a8121c2c7c",
}


def test_default_artifacts_are_pinned(tmp_path):
    for command in dict.fromkeys(command for command, _ in PINNED):
        assert main([command, "-o", str(tmp_path / command)]) == 0
    for (command, name), digest in PINNED.items():
        assert hashlib.sha256((tmp_path / command / name).read_bytes()).hexdigest() == digest, name
