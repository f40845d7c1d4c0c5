"""Command-line front end: configuration, dispatch, and artifact emission.

Every run validates its JSON config against a per-command schema (unknown
fields are rejected), fills each omitted key from the schema's ``default``
(the one table of CLI defaults), writes its artifacts into the output
directory (each JSON artifact with one key set per command, a part the
config did not ask for written as ``null``), and records a manifest holding
the resolved config, its hash, the seed, the cap, and the package version.
Nothing time-dependent is written, so a rerun with the same manifest
produces byte-identical artifacts.  ``--budget`` caps the all-pairs cells
of the table ``simulate`` writes (no cap by default), configurations per
exact probability on ``oracle`` (2^24), and configurations per exact point
on ``rate`` and ``ld-trend`` (2^13; past it, method ``auto`` samples).
``selftest`` has neither ``--seed`` nor ``--budget``.  The argument parser
and the package version are built once per process, so repeated
:func:`main` calls in one process (a benchmark loop, the tests, a scripted
sweep) pay for them once.

Exit codes: 0 success, 1 invariant failure (``invariant failed: <message>``
on stderr when a functional contract fails, or any uncaught error),
2 an unreadable config file (missing, not JSON, or holding a number that is
not finite), a config schema violation or a config value the model rejects,
3 a size cap exceeded: the enumeration or all-pairs budget, or the fixed
limit on box edges of ``rate``, which ``--budget`` does not raise.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from fpplab._artifacts import jsonable, write_csv, write_json

SCHEMA_VERSION = 1


@functools.cache
def _package_version() -> str:
    """The installed package version, looked up once per process."""
    try:
        from importlib.metadata import version

        return version("fpplab")
    except Exception:
        import fpplab

        return getattr(fpplab, "__version__", "unknown")


# ---------------------------------------------------------------------------
# config schemas
# ---------------------------------------------------------------------------

_FRACTION = {
    "type": "object",
    "properties": {
        "num": {"type": "integer"},
        "den": {"type": "integer", "exclusiveMinimum": 0},
    },
    "required": ["num", "den"],
    "additionalProperties": False,
}

_PROB = {"oneOf": [{"$ref": "#/$defs/fraction"},
                   {"type": "number", "minimum": 0, "maximum": 1}]}

_DISTRIBUTION = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "deterministic"},
                           "c": {"type": "number", "minimum": 0}},
            "required": ["kind", "c"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "two_point"},
                           "lo": {"type": "number", "minimum": 0},
                           "hi": {"type": "number", "minimum": 0},
                           "p_lo": _PROB},
            "required": ["kind", "lo", "hi", "p_lo"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "uniform"},
                           "a": {"type": "number", "minimum": 0},
                           "b": {"type": "number", "minimum": 0}},
            "required": ["kind", "a", "b"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "exponential"},
                           "rate": {"type": "number", "exclusiveMinimum": 0},
                           "shift": {"type": "number", "minimum": 0}},
            "required": ["kind", "rate"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "finite_support"},
                           "values": {"type": "array", "minItems": 1,
                                      "items": {"type": "number", "minimum": 0}},
                           "probs": {"type": "array", "minItems": 1,
                                     "items": _PROB}},
            "required": ["kind", "values", "probs"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "truncated"},
                           "base": {"$ref": "#/$defs/distribution"},
                           "cap": {"type": "number", "exclusiveMinimum": 0}},
            "required": ["kind", "base", "cap"],
            "additionalProperties": False,
        },
    ]
}

_POINT = {"type": "array", "minItems": 1, "items": {"type": "number"}}
_INT_POINT = {"type": "array", "minItems": 1, "items": {"type": "integer"}}
_PATH_POINTS = {"type": "array", "minItems": 2, "items": _POINT}

_METRIC = {
    "type": "object",
    "properties": {
        "kind": {"const": "norm_plus_highways"},
        "weights": {"type": "array", "minItems": 1,
                    "items": {"type": "number", "exclusiveMinimum": 0}},
        "highways": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "points": _PATH_POINTS,
                    "profile": {"type": "array", "minItems": 1,
                                "items": {"type": "array", "minItems": 2,
                                          "maxItems": 2,
                                          "items": {"type": "number"}}},
                },
                "required": ["points", "profile"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["weights", "highways"],
    "additionalProperties": False,
}

_RATE_FN = {
    "oneOf": [
        {
            "type": "object",
            "properties": {"kind": {"const": "analytic"},
                           "weights": {"type": "array", "minItems": 1,
                                       "items": {"type": "number",
                                                 "exclusiveMinimum": 0}},
                           "scale": {"type": "number", "exclusiveMinimum": 0, "default": 1.0}},
            "required": ["kind", "weights"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {"kind": {"const": "surface"},
                           "file": {"type": "string"}},
            "required": ["kind", "file"],
            "additionalProperties": False,
        },
    ]
}

_SEED = {"type": "integer", "minimum": 0, "default": 0}
_SAMPLES = {"type": "integer", "minimum": 1, "default": 200}
_METHOD = {"enum": ["auto", "exact", "mc"], "default": "auto"}
_BUDGET = {"type": "integer", "minimum": 1}


def _schema(properties: dict, required: list) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
        "$defs": {"distribution": _DISTRIBUTION, "fraction": _FRACTION},
    }


SCHEMAS = {
    "simulate": _schema(
        {
            "distribution": {"$ref": "#/$defs/distribution"},
            "dim": {"type": "integer", "minimum": 2, "maximum": 4},
            "n": {"type": "integer", "minimum": 1},
            "points": {"type": "array", "items": _INT_POINT},
            "truncation": {"type": "number", "exclusiveMinimum": 0},
            "geodesic_stats": {
                "type": "object",
                "properties": {
                    "b": {"type": "number", "exclusiveMinimum": 0},
                    "L_values": {"type": "array", "minItems": 1,
                                 "items": {"type": "number"}},
                },
                "required": ["b", "L_values"],
                "additionalProperties": False,
            },
            "seed": _SEED,
            "budget": _BUDGET,  # no default: no cap
        },
        ["distribution", "dim", "n"],
    ),
    "oracle": _schema(
        {
            "distribution": {"$ref": "#/$defs/distribution"},
            "dim": {"type": "integer", "minimum": 2, "maximum": 4},
            "n": {"type": "integer", "minimum": 1},
            "event": {
                "oneOf": [
                    {
                        "type": "object",
                        "properties": {"kind": {"const": "passage_time_at_most"},
                                       "x": _INT_POINT, "y": _INT_POINT,
                                       "t": {"type": "number"}},
                        "required": ["kind", "x", "y", "t"],
                        "additionalProperties": False,
                    },
                    {
                        "type": "object",
                        "properties": {"kind": {"const": "ld_lower"},
                                       "metric": _METRIC,
                                       "eps": {"type": "number", "minimum": 0}},
                        "required": ["kind", "metric", "eps"],
                        "additionalProperties": False,
                    },
                    {
                        "type": "object",
                        "properties": {"kind": {"const": "hub"},
                                       "x": _INT_POINT,
                                       "kappa": {"type": "number",
                                                 "exclusiveMinimum": 0}},
                        "required": ["kind", "x", "kappa"],
                        "additionalProperties": False,
                    },
                ]
            },
            "mc_samples": {"type": "integer", "minimum": 0, "default": 0},
            "fkg": {
                "type": "object",
                "properties": {"x1": _INT_POINT, "x2": _INT_POINT,
                               "t1": {"type": "number"},
                               "t2": {"type": "number"}},
                "required": ["x1", "x2", "t1", "t2"],
                "additionalProperties": False,
            },
            "seed": _SEED,
            "budget": {**_BUDGET, "default": 1 << 24},
        },
        ["distribution", "dim", "n", "event"],
    ),
    "rate": _schema(
        {
            "distribution": {"$ref": "#/$defs/distribution"},
            "x": {**_INT_POINT, "minItems": 2},
            "zeta_grid": {"type": "array", "minItems": 1, "uniqueItems": True,
                          "items": {"type": "number", "exclusiveMinimum": 0}},
            "n_ladder": {"type": "array", "minItems": 1, "uniqueItems": True,
                         "items": {"type": "integer", "minimum": 1}},
            "samples": _SAMPLES,
            "method": _METHOD,
            "time_constant": {
                "type": "object",
                "properties": {"n_ladder": {"type": "array", "minItems": 2,
                                            "uniqueItems": True,
                                            "items": {"type": "integer",
                                                      "minimum": 1}},
                               "samples": {**_SAMPLES, "minimum": 2}},
                "required": ["n_ladder"],
                "additionalProperties": False,
            },
            "seed": _SEED,
            "budget": {**_BUDGET, "default": 1 << 13},
        },
        ["distribution", "x", "n_ladder"],
    ),
    "highways": _schema(
        {
            "metric": _METRIC,
            "mode": {"enum": ["own", "build"], "default": "build"},
            "n_geodesics": {"type": "integer", "minimum": 1, "default": 12},
            "tol": {"type": "number", "exclusiveMinimum": 0, "default": 1e-6},
            "seed_pairs": {"type": "array", "default": [],
                           "items": {"type": "array", "minItems": 2,
                                     "maxItems": 2, "items": _POINT}},
            "seed": _SEED,
        },
        ["metric"],
    ),
    "functional": _schema(
        {
            "metric": _METRIC,
            "rate": _RATE_FN,
            "family": {"type": "array", "minItems": 1, "items": _PATH_POINTS},
            "probe_metric": _METRIC,
            "seed": _SEED,
        },
        ["metric", "rate"],
    ),
    "ld-trend": _schema(
        {
            "metric": _METRIC,
            "distribution": {"$ref": "#/$defs/distribution"},
            "eps": {"type": "number", "minimum": 0},
            "n_ladder": {"type": "array", "minItems": 1, "uniqueItems": True,
                         "items": {"type": "integer", "minimum": 1}},
            "samples": _SAMPLES,
            "method": _METHOD,
            "rate": _RATE_FN,
            "seed": _SEED,
            "budget": {**_BUDGET, "default": 1 << 13},
        },
        ["metric", "distribution", "eps", "n_ladder"],
    ),
    "selftest": _schema({}, []),
}

_TWO_POINT = {"kind": "two_point", "lo": 1.0, "hi": 2.0,
              "p_lo": {"num": 1, "den": 2}}
_DIAGONAL_METRIC = {
    "kind": "norm_plus_highways",
    "weights": [1.0, 1.0],
    "highways": [{"points": [[0.0, 0.0], [1.0, 1.0]],
                  "profile": [[2.0, 0.5]]}],
}

# the configs of runs without --config: only keys that differ from a schema default
DEFAULT_CONFIGS = {
    "simulate": {"distribution": _TWO_POINT, "dim": 2, "n": 8, "truncation": 2.0,
                 "geodesic_stats": {"b": 2.0, "L_values": [1.0, 1.5]}},
    "oracle": {"distribution": _TWO_POINT, "dim": 2, "n": 1,
               "event": {"kind": "passage_time_at_most",
                         "x": [0, 0], "y": [1, 1], "t": 2.0},
               "mc_samples": 400},
    "rate": {"distribution": _TWO_POINT, "x": [1, 0],
             "zeta_grid": [1.0, 1.2, 1.4, 1.7, 2.0],
             "n_ladder": [1, 2], "time_constant": {"n_ladder": [4, 8]}},
    "highways": {"metric": _DIAGONAL_METRIC, "n_geodesics": 6,
                 "seed_pairs": [[[0.0, 0.0], [1.0, 1.0]]]},
    "functional": {"metric": _DIAGONAL_METRIC,
                   "rate": {"kind": "analytic", "weights": [1.0, 1.0]}},
    "ld-trend": {"metric": {"kind": "norm_plus_highways",
                            "weights": [0.9, 0.9], "highways": []},
                 "distribution": _TWO_POINT, "eps": 1.5, "n_ladder": [1, 2],
                 "rate": {"kind": "analytic", "weights": [1.0, 1.0]}},
    "selftest": {},
}


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------


def _canonical(cfg) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _with_defaults(schema: dict, cfg: dict) -> dict:
    """``cfg``, valid against ``schema``, with each omitted key that has a
    schema ``default`` filled in, in nested objects too: of a ``oneOf`` the
    branch whose ``kind`` matches (a ``$ref`` holds no defaults)."""
    if "oneOf" in schema:
        schema = next(branch for branch in schema["oneOf"]
                      if branch["properties"]["kind"]["const"] == cfg["kind"])
    out = {key: copy.deepcopy(sub["default"])
           for key, sub in schema["properties"].items() if "default" in sub}
    for key, value in cfg.items():
        sub = schema["properties"][key]
        nested = isinstance(value, dict) and ("properties" in sub or "oneOf" in sub)
        out[key] = _with_defaults(sub, value) if nested else value
    return out


def _write_manifest(outdir: Path, command: str, cfg: dict, artifacts: list) -> None:
    """The manifest of a run on the resolved config ``cfg``; no seed or cap reads null."""
    canon = _canonical(cfg)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "package": "fpplab",
        "version": _package_version(),
        "command": command,
        "config": json.loads(canon),
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
        **{key: cfg[key] if key in cfg else None for key in ("seed", "budget")},
        "artifacts": sorted(artifacts),
    }
    write_json(outdir / "manifest.json", manifest)


def _metric_from(cfg_metric: dict, key: str):
    """The metric of a config, from the value at config key ``key``."""
    from fpplab.geometry import NormPlusHighways

    with _config_values(key):
        return NormPlusHighways.from_json(cfg_metric)


def _rate_fn_from(rec: dict, outdir: Path, dim: int):
    """The rate integrand of a config, for a metric of dimension ``dim``."""
    from fpplab.functional import AnalyticRate, SurfaceRate

    if rec["kind"] == "analytic":
        _check_dim("rate.weights", len(rec["weights"]), dim)
        return AnalyticRate(rec["weights"], scale=rec["scale"])
    from fpplab.elementary_rate import RateSurface

    path = Path(rec["file"])
    if not path.is_absolute():
        path = outdir / path
    with _config_values("rate.file"), open(path) as fh:
        J = SurfaceRate(RateSurface.from_json(json.load(fh)))
    _check_dim("rate.file", J.dim, dim)
    return J


class _ConfigValueError(Exception):
    """A config value that passes the schema but that the model rejects."""


@contextlib.contextmanager
def _config_values(key: str):
    """Turn a ValueError, TypeError, OSError or KeyError raised while
    building the law, event, metric, points, path family or rate surface at
    config key ``key`` (a dotted path such as ``event.y``) into a config
    error (exit 2) instead of a crash; the message ends with
    ``(in "<key>")``.  A ``GeometryError`` is a ``ValueError``."""
    try:
        yield
    except KeyError as exc:
        raise _ConfigValueError(f'missing key {exc} (in "{key}")') from exc
    except (ValueError, TypeError, OSError) as exc:
        raise _ConfigValueError(f'{exc} (in "{key}")') from exc


class _InvariantError(Exception):
    """A library invariant that failed on a valid config (exit 1)."""


def _check_dim(key: str, got: int, want: int) -> None:
    """A config error naming ``key`` when a value of dimension ``got`` meets
    a metric or box of dimension ``want``."""
    if got != want:
        with _config_values(key):
            raise ValueError(f"dimension {got} does not match dimension {want}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: dict, outdir: Path) -> list:
    from fpplab.model import EdgeDistribution, LatticeBox, sample_weights, truncate
    from fpplab.oracle import CapExceededError
    from fpplab.passage_time import (_check_all_pairs, geodesic_length_stats,
                                     rescaled_metric, uniform_gap)

    pts = cfg.get("points")
    truncation = cfg.get("truncation")
    gs = cfg.get("geodesic_stats")
    with _config_values("distribution"):
        dist = EdgeDistribution.from_spec(cfg["distribution"])
    box = LatticeBox(dimension=cfg["dim"], side=cfg["n"])
    if pts is not None:
        with _config_values("points"):
            box.vertex_id(np.asarray(pts))
    else:
        with _config_values("n"):
            _check_all_pairs(box)
    if truncation is not None:
        with _config_values("truncation"):
            truncate(dist, truncation)
    if gs is not None:
        with _config_values("geodesic_stats.b"):
            truncate(dist, gs["b"])
    seed = cfg["seed"]
    budget = cfg.get("budget")
    cells = (box.n_vertices if pts is None else len(pts)) ** 2  # of the table written
    if budget is not None and cells > budget:
        raise CapExceededError(cells, budget, "all-pairs cells")
    field = sample_weights(dist, box, seed)
    metric = rescaled_metric(field, points=None if pts is None else np.asarray(pts))
    metric.write_csv(outdir / "metric.csv")
    write_json(outdir / "simulate.json", {
        "dim": cfg["dim"], "n": cfg["n"], "seed": seed,
        "distribution": dist.spec(), "n_edges": box.n_edges,
        "n_grid_points": len(metric.points),
        "max_rescaled_value": float(metric.raw_times.max()) / metric.n,
        "uniform_gap": (None if truncation is None
                        else uniform_gap(field, truncation, seed=seed)),
        "geodesic_stats": None if gs is None else geodesic_length_stats(
            field, gs["b"], gs["L_values"], seed=seed),
    })
    print(f"simulate: wrote metric.csv ({len(metric.points)} grid points), "
          f"simulate.json")
    return ["metric.csv", "simulate.json"]


def _cmd_oracle(cfg: dict, outdir: Path) -> list:
    from fpplab.model import EdgeDistribution, LatticeBox
    from fpplab.oracle import (EventSpec, _fkg_endpoints, exact_event_probability,
                               fkg_supermultiplicativity_check,
                               monte_carlo_event_probability)

    seed = cfg["seed"]
    budget = cfg["budget"]
    ev = cfg["event"]
    with _config_values("distribution"):
        dist = EdgeDistribution.from_spec(cfg["distribution"])
    box = LatticeBox(dimension=cfg["dim"], side=cfg["n"])
    with _config_values("event"):
        if ev["kind"] == "passage_time_at_most":
            event = EventSpec.passage_time_at_most(ev["x"], ev["y"], ev["t"])
        elif ev["kind"] == "ld_lower":
            metric = _metric_from(ev["metric"], "event.metric")
            _check_dim("event.metric", metric.dim, cfg["dim"])
            event = EventSpec.ld_lower(metric, ev["eps"])
        else:
            event = EventSpec.hub(ev["x"], ev["kappa"])
    for key in ("x", "y"):
        if key in ev:
            with _config_values(f"event.{key}"):
                box.vertex_id(ev[key])
    mc_samples = cfg["mc_samples"]
    if not dist.is_finite_support and mc_samples == 0:
        with _config_values("mc_samples"):
            raise ValueError("a law without finite support is not enumerated, "
                             "so mc_samples must be positive")
    fk = cfg.get("fkg")
    if fk is not None:
        with _config_values("fkg"):
            _fkg_endpoints(box, fk["x1"], fk["x2"])
            if not dist.is_finite_support:
                raise ValueError("the fkg check enumerates, so it needs a finite-support law")

    exact = (exact_event_probability(event, dist, box, cap=budget)
             if dist.is_finite_support else None)
    mc = (monte_carlo_event_probability(event, dist, box, mc_samples, seed=seed)
          if mc_samples > 0 else None)
    fkg = (None if fk is None else fkg_supermultiplicativity_check(
        dist, box, fk["x1"], fk["x2"], fk["t1"], fk["t2"], cap=budget))
    write_json(outdir / "oracle.json", {
        "event": event.name, "dim": cfg["dim"], "n": cfg["n"],
        "distribution": dist.spec(), "seed": seed, "mc_samples": mc_samples,
        "p_exact": None if exact is None else exact.p,
        "n_configs": None if exact is None else exact.n_configs,
        "p_mc": None if mc is None else mc.p_hat,
        "ci": None if mc is None else [mc.ci_low, mc.ci_high],
        "fkg": fkg,
    })
    bits = [] if exact is None else [f"p_exact = {exact.p}"]
    bits += [] if mc is None else [f"p_mc = {mc.p_hat:.6g}"]
    print(f"oracle: {event.name}: " + ", ".join(bits))
    return ["oracle.json"]


def _cmd_rate(cfg: dict, outdir: Path) -> list:
    from fpplab.elementary_rate import (_canonical_direction, _domain_check, _scale_ladder,
                                        default_zeta_grid, estimate_rate_rung,
                                        estimate_time_constant, extend_surface,
                                        fekete_envelope, zero_set_check)
    from fpplab.model import EdgeDistribution
    from fpplab.oracle import _check_method, _rung_seeds

    with _config_values("distribution"):
        dist = EdgeDistribution.from_spec(cfg["distribution"])
    x = cfg["x"]
    seed = cfg["seed"]
    method = cfg["method"]
    with _config_values("method"):
        _check_method(method, dist)
    with _config_values("x"):
        xv = _canonical_direction(x)
    zetas = cfg.get("zeta_grid")
    if zetas is None:
        zetas = default_zeta_grid(dist, x)
    with _config_values("zeta_grid"):
        for z in zetas:
            _domain_check(dist, xv, z)
    tc_cfg = cfg.get("time_constant")
    if tc_cfg is not None:
        with _config_values("time_constant"):
            _scale_ladder(tc_cfg["n_ladder"])
    ladder = sorted(cfg["n_ladder"])

    # one seed and one field set per rung, shared by its speeds
    rungs = [estimate_rate_rung(dist, x, zetas, n, samples=cfg["samples"], seed=rung_seed,
                                method=method, enum_cap=cfg["budget"])
             for n, rung_seed in zip(ladder, _rung_seeds(seed, len(ladder)))]
    points = []
    envelope = []
    for per_z in zip(*rungs):
        points.extend(per_z)
        envelope.append(fekete_envelope(per_z) if len(per_z) > 1 else per_z[0])

    surface = extend_surface(envelope)
    surface.check_invariants()
    tc = zs = None
    if tc_cfg is not None:
        tc = estimate_time_constant(dist, x, tc_cfg["n_ladder"],
                                    samples=tc_cfg["samples"], seed=seed)
        with _config_values("zeta_grid"):  # the speeds must straddle the time constant
            zs = zero_set_check(surface, tc)

    rows = [["_".join(str(v) for v in p.x), p.zeta, p.n, p.estimate, *p.ci, p.method,
             p.censored, p.p_hat, p.samples or "", p.hits, p.seed] for p in points]
    write_csv(outdir / "rate_points.csv",
              ["x", "zeta", "n", "estimate", "ci_lo", "ci_hi", "method",
               "censored", "p_mc", "samples", "hits", "seed"], rows)
    surface.write_csv(outdir / "surface.csv")
    write_json(outdir / "surface.json", surface)
    write_json(outdir / "rate.json", {
        "x": list(x), "zeta_grid": [float(z) for z in zetas],
        "n_ladder": ladder, "n_points": len(points), "seed": seed,
        "invariants_ok": True, "time_constant": tc, "zero_set": zs})
    print(f"rate: {len(points)} points on {len(zetas)} speeds, surface "
          f"invariants ok; wrote rate_points.csv, surface.csv, surface.json, rate.json")
    return ["rate_points.csv", "surface.csv", "surface.json", "rate.json"]


def _cmd_highways(cfg: dict, outdir: Path) -> list:
    from fpplab.geometry import build_highway_network, network_from_highways

    metric = _metric_from(cfg["metric"], "metric")
    seed = cfg["seed"]
    if cfg["mode"] == "own":
        with _config_values("metric"):
            net = network_from_highways(metric)
    else:
        seed_pairs = [(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
                      for a, b in cfg["seed_pairs"]]
        for a, b in seed_pairs:
            _check_dim("seed_pairs", len(a), metric.dim)
            _check_dim("seed_pairs", len(b), metric.dim)
            if np.array_equal(a, b):
                with _config_values("seed_pairs"):
                    raise ValueError("a pair's endpoints coincide")
        net = build_highway_network(
            metric, n_geodesics=cfg["n_geodesics"], tol=cfg["tol"], seed=seed,
            seed_pairs=seed_pairs)
    write_json(outdir / "network.json", net.to_json())
    rows = [[d["k"], d["origin"], d["sup_distance"], d["n_pieces"], seed]
            for d in net.diagnostics]
    write_csv(outdir / "diagnostics.csv",
              ["k", "origin", "sup_distance", "n_pieces", "seed"], rows)
    last = net.diagnostics[-1]["sup_distance"] if net.diagnostics else 0.0
    print(f"highways: {len(net.chain.rides)} pieces, converged = {net.converged}, "
          f"final sup distance = {last:.3g}")
    return ["network.json", "diagnostics.csv"]


def _cmd_functional(cfg: dict, outdir: Path) -> list:
    from fpplab.functional import (FunctionalError, PathFamily, functional_report,
                                   strict_monotonicity_probe)
    from fpplab.geometry import LipschitzPath

    metric = _metric_from(cfg["metric"], "metric")
    J = _rate_fn_from(cfg["rate"], outdir, metric.dim)
    with _config_values("metric"):  # the functional integrates along its highways
        metric.validate_geodesics()
    family = None
    if "family" in cfg:
        with _config_values("family"):
            paths = [LipschitzPath(np.asarray(p, dtype=float)) for p in cfg["family"]]
            for path in paths:
                _check_dim("family", path.dim, metric.dim)
            family = PathFamily(paths)
    probe = None
    try:
        rep = functional_report(metric, J, family=family)
        if "probe_metric" in cfg:
            smaller = _metric_from(cfg["probe_metric"], "probe_metric")
            _check_dim("probe_metric", smaller.dim, metric.dim)
            with _config_values("probe_metric"):
                smaller.validate_geodesics()
            probe = strict_monotonicity_probe(smaller, metric, J, seed=cfg["seed"])
    except FunctionalError as exc:  # a contract of the functional failed: exit 1
        raise _InvariantError(str(exc)) from exc
    write_json(outdir / "functional.json", {
        **jsonable(rep), "monotonicity_probe": probe,
        # queries below the surface's tabulated speeds, read at its boundary cell
        "rate_surface": ({"flagged_queries": J.n_flagged}
                         if cfg["rate"]["kind"] == "surface" else None)})

    width = max(len(f"{v:.12g}") for v in
                (rep.geodesic_sum, rep.intrinsic, rep.sup_bound))
    print("expression        " + "value".rjust(width))
    print("geodesic sum      " + f"{rep.geodesic_sum:.12g}".rjust(width))
    print("intrinsic         " + f"{rep.intrinsic:.12g}".rjust(width))
    print("sup lower bound   " + f"{rep.sup_bound:.12g}".rjust(width))
    print(f"delta intrinsic   {rep.delta_intrinsic:.3g}")
    print(f"delta sup         {rep.delta_sup:.3g}")
    if probe is not None:
        print(f"probe: smaller metric {probe.value_smaller_metric:.12g} > "
              f"larger metric {probe.value_larger_metric:.12g}")
    return ["functional.json"]


def _cmd_ld_trend(cfg: dict, outdir: Path) -> list:
    from fpplab.functional import empirical_ld_trend, functional_geodesic_sum
    from fpplab.model import EdgeDistribution
    from fpplab.oracle import _check_method

    metric = _metric_from(cfg["metric"], "metric")
    with _config_values("distribution"):
        dist = EdgeDistribution.from_spec(cfg["distribution"])
    with _config_values("method"):
        _check_method(cfg["method"], dist)
    fv = None
    if "rate" in cfg:
        J = _rate_fn_from(cfg["rate"], outdir, metric.dim)
        with _config_values("metric"):
            metric.validate_geodesics()
        fv = functional_geodesic_sum(metric, J)
    table = empirical_ld_trend(
        metric, dist, cfg["eps"], cfg["n_ladder"],
        samples=cfg["samples"], seed=cfg["seed"], method=cfg["method"],
        enum_cap=cfg["budget"], functional_value=fv)
    write_json(outdir / "ld_trend.json", table)
    rows = [[r.n, r.method, r.p,
             getattr(r.p_exact, "numerator", None), getattr(r.p_exact, "denominator", None),
             r.rate, *(r.ci or (None, None)), r.censored, r.samples, r.hits, r.seed]
            for r in table.rows]
    write_csv(outdir / "ld_trend.csv",
              ["n", "method", "p", "p_num", "p_den", "rate", "rate_ci_lo",
               "rate_ci_hi", "censored", "samples", "hits", "seed"], rows)
    shown = ", ".join(f"n={r.n}: " + ("censored" if r.censored else f"{r.rate:.4f}")
                      for r in table.rows)
    tail = f" (functional value {fv:.6g})" if fv is not None else ""
    print(f"ld-trend: rates {shown}{tail}")
    return ["ld_trend.json", "ld_trend.csv"]


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def _selftest_checks():
    """Fast cross-module invariant suite; yields (name, passed, detail)."""
    from fpplab.elementary_rate import (RatePoint, estimate_rate_rung, extend_surface,
                                        fekete_envelope)
    from fpplab.functional import AnalyticRate, functional_report
    from fpplab.geometry import NormPlusHighways, build_highway_network
    from fpplab.model import EdgeDistribution, LatticeBox, sample_weights
    from fpplab.oracle import (EventSpec, chernoff_upper_tail, crude_lower_bound,
                               exact_event_probability,
                               fkg_supermultiplicativity_check,
                               monte_carlo_event_probability)
    from fpplab.passage_time import disjoint_paths, hub_check, uniform_gap

    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))

    def deterministic_exactness():
        from fpplab.passage_time import rescaled_metric

        box = LatticeBox(dimension=2, side=8)
        field = sample_weights(EdgeDistribution.deterministic(1.0), box, 0)
        m = rescaled_metric(field)
        pts = m.points.astype(float)
        want = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2) / box.side
        ok = np.array_equal(m.matrix, want)
        return ok, "rescaled metric equals the l1 pseudometric exactly"

    def oracle_half():
        box = LatticeBox(dimension=2, side=1)
        ev = EventSpec.passage_time_at_most([0, 0], [1, 0], 1.0)
        p = exact_event_probability(ev, tp, box).p
        return p == Fraction(1, 2), f"p = {p}"

    def oracle_seven_sixteenths():
        box = LatticeBox(dimension=2, side=1)
        ev = EventSpec.passage_time_at_most([0, 0], [1, 1], 2.0)
        p = exact_event_probability(ev, tp, box).p
        return p == Fraction(7, 16), f"p = {p}"

    def mc_within_3se():
        box = LatticeBox(dimension=2, side=1)
        ev = EventSpec.passage_time_at_most([0, 0], [1, 1], 2.0)
        mc = monte_carlo_event_probability(ev, tp, box, 400, seed=0)
        p = 7.0 / 16.0
        se = math.sqrt(p * (1 - p) / 400)
        return abs(mc.p_hat - p) <= 3 * se, f"|{mc.p_hat} - {p}| vs 3se = {3 * se:.4f}"

    def fkg_slack():
        box = LatticeBox(dimension=2, side=2)
        rep = fkg_supermultiplicativity_check(tp, box, [1, 0], [1, 0], 1.5, 1.5)
        return rep.slack >= 0, f"slack = {rep.slack}"

    def crude_bound():
        # the bound's threshold is per edge; it bounds P(T <= t * l1)
        box = LatticeBox(dimension=2, side=2)
        ev = EventSpec.passage_time_at_most([0, 0], [2, 0], 2.5)
        p = exact_event_probability(ev, tp, box).p
        lb = crude_lower_bound(tp, [0, 0], [2, 0], 1.25)
        return lb <= p, f"bound {lb} vs exact {p}"

    def gap_bound():
        for n in (4, 8):
            box = LatticeBox(dimension=2, side=n)
            field = sample_weights(tp, box, 7)
            rep = uniform_gap(field, 1.0, seed=3)
            if not rep.within_bound:
                return False, f"gap {rep.gap} exceeds bound {rep.bound} at n={n}"
        return True, "gap within 2bd/n at n = 4, 8"

    def disjoint_paths_small():
        box = LatticeBox(dimension=2, side=2)
        coords = box.all_vertex_coords()
        for x in coords:
            for y in coords:
                if np.array_equal(x, y):
                    continue
                paths = disjoint_paths(box, x, y)
                l1 = int(np.abs(y - x).sum())
                if len(paths) != 2:
                    return False, f"{x}->{y}: {len(paths)} paths"
                interiors = []
                for p in paths:
                    if p.hops not in (l1, l1 + 2):
                        return False, f"{x}->{y}: bad length {p.hops}"
                    if np.any(p.vertices < 0) or np.any(p.vertices > 2):
                        return False, f"{x}->{y}: leaves the box"
                    interiors.append(set(map(tuple, p.vertices[1:-1])))
                if interiors[0] & interiors[1]:
                    return False, f"{x}->{y}: interior overlap"
        return True, "all ordered pairs of the side-2 box"

    def highway_diagonal():
        D = NormPlusHighways([1, 1], [([[0, 0], [1, 1]], 0.5)])
        if D.evaluate_many([[0, 0]], [[1, 1]])[0] != 1.0:
            return False, "diagonal distance is not 1.0"
        rep = functional_report(D, AnalyticRate([1.0, 1.0]))
        ok = (rep.geodesic_sum == 1.0 and abs(rep.intrinsic - 1.0) < 1e-9
              and abs(rep.sup_bound - 1.0) < 1e-9)
        return ok, (f"three expressions: {rep.geodesic_sum}, "
                    f"{rep.intrinsic}, {rep.sup_bound}")

    def network_build():
        # seed the designated geodesic so the endpoint segments are covered
        D = NormPlusHighways([1, 1], [([[0, 0], [1, 1]], 0.5)])
        net = build_highway_network(
            D, n_geodesics=6, tol=1e-6, seed=0,
            seed_pairs=[(np.zeros(2), np.ones(2))])
        sups = [d["sup_distance"] for d in net.diagnostics]
        mono = all(a >= b - 1e-12 for a, b in zip(sups, sups[1:]))
        return (net.converged and mono and sups[-1] <= 1e-3,
                f"diagnostics {['%.2g' % s for s in sups]}")

    def rate_exact_log2():
        pt = estimate_rate_rung(tp, [1, 0], [1.0], 1)[0]
        ok = (pt.method == "exact-oracle" and pt.p_exact == Fraction(1, 2)
              and abs(pt.estimate - math.log(2)) < 1e-12)
        return ok, f"rate = {pt.estimate:.6f}, p = {pt.p_exact}"

    def fekete_pick():
        pts = [RatePoint(x=(1, 0), zeta=1.0, n=n, estimate=v, ci=(v, v),
                         method="exact-oracle", censored=False, p_hat=None,
                         p_exact=None, samples=None, hits=None, seed=None)
               for n, v in [(1, 0.9), (2, 0.7), (3, 0.72)]]
        env = fekete_envelope(pts)
        return env.estimate == 0.7, f"envelope = {env.estimate}"

    def surface_invariants():
        pts = estimate_rate_rung(tp, [1, 0], (1.0, 1.2, 1.5, 1.8, 2.0), 1)
        surf = extend_surface(pts)
        surf.check_invariants()
        return True, f"{len(surf.cells)} cells pass the structural checks"

    def chernoff_empirical():
        lam, eps, n, hops = 0.8, 1.8, 4, 4
        bound = chernoff_upper_tail(tp, lam, eps, n, hops)
        rng = np.random.default_rng(11)
        sums = tp.sample_from_uniforms(rng.uniform(size=(2000, hops))).sum(axis=1)
        freq = float(np.mean(sums >= eps * n))
        return freq <= bound, f"freq {freq:.4f} <= bound {bound:.4f}"

    def hub_deterministic():
        box = LatticeBox(dimension=2, side=4)
        field = sample_weights(EdgeDistribution.deterministic(1.0), box, 0)
        rep = hub_check(field, [2, 2], 1.0)
        return rep.is_hub, f"center hub slack {rep.worst_time_slack:.3g}"

    def rng_determinism():
        box = LatticeBox(dimension=2, side=6)
        a = sample_weights(tp, box, 5).weights
        b = sample_weights(tp, box, 5).weights
        c = sample_weights(tp, box, 6).weights
        return (np.array_equal(a, b) and not np.array_equal(a, c),
                "same seed agrees, different seed differs")

    return [
        ("deterministic-metric-exact", deterministic_exactness),
        ("oracle-p-half", oracle_half),
        ("oracle-p-seven-sixteenths", oracle_seven_sixteenths),
        ("mc-within-3se", mc_within_3se),
        ("fkg-slack-nonnegative", fkg_slack),
        ("crude-bound-below-exact", crude_bound),
        ("truncation-gap-bound", gap_bound),
        ("disjoint-paths-exhaustive-small", disjoint_paths_small),
        ("highway-diagonal-fixture", highway_diagonal),
        ("network-build-converges", network_build),
        ("rate-exact-log2", rate_exact_log2),
        ("fekete-envelope-pick", fekete_pick),
        ("surface-structural-invariants", surface_invariants),
        ("chernoff-bound-respected", chernoff_empirical),
        ("hub-deterministic-center", hub_deterministic),
        ("weight-rng-deterministic", rng_determinism),
    ]


def _cmd_selftest(cfg: dict, outdir: Path) -> tuple[list, int]:
    results = []
    failed = 0
    for name, fn in _selftest_checks():
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append({"name": name, "passed": bool(ok), "detail": detail})
        if not ok:
            failed += 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    write_json(outdir / "selftest.json",
               {"results": results, "n_failed": failed, "n_checks": len(results)})
    print(f"selftest: {len(results) - failed}/{len(results)} checks passed")
    return ["selftest.json"], failed


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser of all seven commands, built once per process.

    It depends only on :data:`SCHEMAS`, ``parse_args`` returns a fresh
    ``Namespace`` per call, and argparse looks up ``sys.stdout`` and
    ``sys.stderr`` only when it prints, so one parser serves every
    :func:`main` call in a process.
    """
    parser = argparse.ArgumentParser(
        prog="fpplab",
        description="First-passage percolation large-deviations laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_by_cmd = {
        "simulate": "sample a weight field and emit the rescaled box metric",
        "oracle": "exact and Monte-Carlo event probabilities, FKG checks",
        "rate": "estimate rate points, extend the surface, check its laws",
        "highways": "build a highway network and report its diagnostics",
        "functional": "evaluate the rate functional by its three expressions",
        "ld-trend": "finite-box lower-deviation probabilities along a ladder",
        "selftest": "run the fast cross-module invariant suite",
    }
    per_point = "configurations per exact point; past it, method auto samples"
    budget_counts = {"simulate": "all-pairs cells", "rate": per_point, "ld-trend": per_point,
                     "oracle": "configurations per exact probability"}
    for cmd, schema in SCHEMAS.items():
        p = sub.add_parser(cmd, help=help_by_cmd[cmd])
        p.add_argument("--config", type=str, default=None,
                       help="JSON config file (defaults to a built-in fixture)")
        p.add_argument("-o", "--output", type=str, default=None,
                       help="output directory (default: $FPPLAB_OUTPUT_DIR or .)")
        if "seed" in schema["properties"]:
            p.add_argument("--seed", type=int, help="override the config seed")
        if "budget" in schema["properties"]:
            budget = schema["properties"]["budget"]
            cap = budget["default"] if "default" in budget else "no cap"
            p.add_argument("--budget", type=int, help=f"cap on {budget_counts[cmd]} (default: {cap})")
    return parser


def _finite_number(token: str) -> float:
    """A JSON number token as a float, rejected unless finite: Python's JSON
    reader accepts ``NaN``, ``Infinity`` and ``-Infinity`` and reads
    ``1e999`` as ``inf``."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def _effective_config(args) -> dict:
    """The config file (or the command's default config) with ``--seed`` and
    ``--budget`` applied where the command has them.  Raises ``OSError`` for a file that cannot be read
    and ``ValueError`` for one that is not JSON or holds a number that is not
    finite."""
    if args.config is not None:
        with open(args.config) as fh:
            cfg = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    else:
        cfg = copy.deepcopy(DEFAULT_CONFIGS[args.command])
    for key in ("seed", "budget"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


@functools.cache
def _validator(command: str):
    """The config validator of a command, built once per process.  The
    schemas themselves are checked against the metaschema by the tests."""
    from jsonschema.validators import validator_for

    schema = SCHEMAS[command]
    return validator_for(schema)(schema)


def main(argv=None) -> int:
    from jsonschema.exceptions import best_match

    from fpplab.oracle import CapExceededError

    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
    except (OSError, ValueError) as exc:
        print(f"invalid config file: {exc}", file=sys.stderr)
        return 2
    error = best_match(_validator(args.command).iter_errors(cfg))
    if error is not None:
        print(f"config schema violation: {error.message}", file=sys.stderr)
        return 2
    cfg = _with_defaults(SCHEMAS[args.command], cfg)

    outdir = Path(args.output or os.environ.get("FPPLAB_OUTPUT_DIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "selftest":
            artifacts, failed = _cmd_selftest(cfg, outdir)
            _write_manifest(outdir, args.command, cfg,
                            artifacts + ["manifest.json"])
            return 1 if failed else 0
        runner = {
            "simulate": _cmd_simulate,
            "oracle": _cmd_oracle,
            "rate": _cmd_rate,
            "highways": _cmd_highways,
            "functional": _cmd_functional,
            "ld-trend": _cmd_ld_trend,
        }[args.command]
        artifacts = runner(cfg, outdir)
    except _ConfigValueError as exc:
        print(f"invalid config value: {exc}", file=sys.stderr)
        return 2
    except _InvariantError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        if exc.fixed:
            print(f"size limit exceeded: {exc}; --budget does not raise it", file=sys.stderr)
        else:
            print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    _write_manifest(outdir, args.command, cfg, artifacts + ["manifest.json"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
