"""Seeded job lists for the three workloads, and the checks on their outputs.

Each workload is a fixed list of ``fpplab`` CLI jobs.  The workload seed
draws everything random in the configs (MC seeds, event thresholds, Halton
seeds, random highway families); the program only ever sees the config
files written here.  Every job carries a check that reads its artifacts and
returns a list of problems (empty when the output is correct).  The checks
compare exact results with ``reference`` and test invariants; none of them
pins a float taken from an earlier run.

Why these workloads (they stress different layers, so each later
optimisation has one workload that exercises it and one that does not):

* ``exact-enum``: enumeration oracle on tiny boxes.  Thousands of heap
  Dijkstra solves on 5-9 vertex graphs; sampling and geometry are idle.
* ``mc-lattice``: seeded Monte Carlo and all-pairs metrics on boxes of
  81-1089 vertices, plus artifact writing.  A few large solves instead of
  many tiny ones; enumeration and geometry are idle.
* ``highway-geometry``: continuum highway metrics, network builds and
  strict-monotonicity probes.  The lattice layers are idle, so it is the
  no-change control for lattice optimisations.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import reference

WORKLOADS = ("exact-enum", "mc-lattice", "highway-geometry")

HALF = {"num": 1, "den": 2}
THIRD = {"num": 1, "den": 3}
EXP1 = {"kind": "exponential", "rate": 1.0}


def two_point(p_lo: dict) -> dict:
    return {"kind": "two_point", "lo": 1.0, "hi": 2.0, "p_lo": p_lo}


def frac(rec) -> Fraction:
    return Fraction(rec["num"], rec["den"])


@dataclass
class Job:
    name: str
    command: str
    config: dict
    check: Callable[["Job"], list[str]]
    out: Path = field(default=Path("."))
    argv: list[str] = field(default_factory=list)

    def read_json(self, name: str):
        with open(self.out / name) as fh:
            return json.load(fh)


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's job list, with config files written under ``workdir``."""
    rng = np.random.default_rng(seed)
    jobs = {"exact-enum": exact_enum, "mc-lattice": mc_lattice,
            "highway-geometry": highway_geometry}[workload](rng)
    for job in jobs:
        jobdir = workdir / job.name
        jobdir.mkdir(parents=True, exist_ok=True)
        cfg = jobdir / "config.json"
        cfg.write_text(json.dumps(job.config, sort_keys=True, indent=1))
        job.out = jobdir / "out"
        job.argv = [job.command, "--config", str(cfg), "-o", str(job.out)]
    return jobs


# ---------------------------------------------------------------------------
# exact-enum


def _endpoints(rng, d: int, n: int):
    verts = reference.box_vertices(d, n)
    i, j = rng.choice(len(verts), size=2, replace=False)
    return list(verts[i]), list(verts[j])


def _dyadic_threshold(rng, l1: int) -> float:
    """A threshold in [l1, 2 l1) on the half-integer grid, so 0 < p < 1."""
    return float(rng.integers(2 * l1, 4 * l1)) / 2


def _atoms(cfg: dict):
    dist = cfg["distribution"]
    p_lo = frac(dist["p_lo"])
    return [dist["lo"], dist["hi"]], [p_lo, 1 - p_lo]


def _check_passage(job: Job) -> list[str]:
    cfg, rep = job.config, job.read_json("oracle.json")
    ev = cfg["event"]
    values, probs = _atoms(cfg)
    want = reference.passage_probability(values, probs, cfg["dim"], cfg["n"],
                                         ev["x"], ev["y"], ev["t"])
    got = frac(rep["p_exact"])
    problems = [] if got == want else [f"p_exact {got} != reference {want}"]
    if "fkg" in cfg:
        fk = cfg["fkg"]
        lhs, f1, f2 = reference.fkg_terms(values, probs, cfg["n"], fk["x1"], fk["x2"],
                                          fk["t1"], fk["t2"])
        got = {k: frac(rep["fkg"][k]) for k in ("lhs", "rhs", "slack")}
        if (got["lhs"], got["rhs"]) != (lhs, f1 * f2):
            problems.append(f"fkg lhs/rhs {got['lhs']}/{got['rhs']} != "
                            f"reference {lhs}/{f1 * f2}")
        if got["slack"] < 0 or got["slack"] != got["lhs"] - got["rhs"]:
            problems.append(f"fkg slack {got['slack']} is negative or inconsistent")
    return problems


def _check_ld_lower(job: Job) -> list[str]:
    cfg, rep = job.config, job.read_json("oracle.json")
    ev = cfg["event"]
    values, probs = _atoms(cfg)
    want = reference.ld_lower_probability(values, probs, cfg["dim"], cfg["n"],
                                          ev["metric"]["weights"], ev["eps"])
    got = frac(rep["p_exact"])
    return [] if got == want else [f"p_exact {got} != reference {want}"]


def _check_ld_trend(job: Job) -> list[str]:
    cfg, rep = job.config, job.read_json("ld_trend.json")
    values, probs = _atoms(cfg)
    weights = cfg["metric"]["weights"]
    problems = []
    if [row["n"] for row in rep["rows"]] != cfg["n_ladder"]:
        problems.append("ld-trend rows do not follow the ladder")
    for row in rep["rows"]:
        want = reference.ld_lower_probability(values, probs, len(weights), row["n"],
                                              weights, cfg["eps"])
        if row["p_exact"] is None or frac(row["p_exact"]) != want:
            problems.append(f"n={row['n']}: p_exact {row['p_exact']} != reference {want}")
    return problems


def _dyadic_norm(rng) -> dict:
    """A highway-free metric with dyadic weights, so D is exact in floats."""
    return {"kind": "norm_plus_highways",
            "weights": [float(rng.integers(6, 11)) / 8 for _ in range(2)],
            "highways": []}


def exact_enum(rng) -> list[Job]:
    jobs = []
    for name, d, n, p_lo in (("passage-d2-half", 2, 2, HALF),
                             ("passage-d2-third", 2, 2, THIRD),
                             ("passage-d3-half", 3, 1, HALF)):
        x, y = _endpoints(rng, d, n)
        t = _dyadic_threshold(rng, int(np.abs(np.subtract(x, y)).sum()))
        jobs.append(Job(name, "oracle", {
            "distribution": two_point(p_lo), "dim": d, "n": n, "mc_samples": 0,
            "event": {"kind": "passage_time_at_most", "x": x, "y": y, "t": t},
        }, _check_passage))

    # FKG: x1 and x1 + x2 distinct nonzero vertices of the side-2 box
    verts = [v for v in reference.box_vertices(2, 2) if any(v)]
    i, j = rng.choice(len(verts), size=2, replace=False)
    x1, x12 = np.array(verts[i]), np.array(verts[j])
    x2 = x12 - x1
    t1 = _dyadic_threshold(rng, int(np.abs(x1).sum()))
    t2 = _dyadic_threshold(rng, int(np.abs(x2).sum()))
    jobs.append(Job("fkg-d2", "oracle", {
        "distribution": two_point(HALF), "dim": 2, "n": 2, "mc_samples": 0,
        "event": {"kind": "passage_time_at_most", "x": [0, 0], "y": x12.tolist(),
                  "t": t1 + t2},
        "fkg": {"x1": x1.tolist(), "x2": x2.tolist(), "t1": t1, "t2": t2},
    }, _check_passage))

    # eps >= 1.5: nearly every configuration reaches the last source vertex
    # (8.6-9 of 9 on average for every weight draw), so the cost of the
    # enumeration hardly depends on the seed
    jobs.append(Job("ld-lower-d2", "oracle", {
        "distribution": two_point(HALF), "dim": 2, "n": 2, "mc_samples": 0,
        "event": {"kind": "ld_lower", "metric": _dyadic_norm(rng),
                  "eps": float(rng.integers(6, 9)) / 4},
    }, _check_ld_lower))
    jobs.append(Job("ld-trend", "ld-trend", {
        "distribution": two_point(HALF), "metric": _dyadic_norm(rng),
        "eps": float(rng.integers(6, 9)) / 4, "n_ladder": [1, 2], "method": "exact",
        "seed": int(rng.integers(0, 2**31)),
    }, _check_ld_trend))
    return jobs


# ---------------------------------------------------------------------------
# mc-lattice


def _check_rate(job: Job) -> list[str]:
    rep = job.read_json("rate.json")
    problems = [] if rep["invariants_ok"] is True else ["surface invariants not ok"]
    with open(job.out / "rate_points.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = len(job.config["zeta_grid"]) * len(job.config["n_ladder"])
    if len(rows) != expected:
        problems.append(f"{len(rows)} rate points, expected {expected}")
    for row in rows:
        lo, est = float(row["ci_lo"]), float(row["estimate"])
        hi = math.inf if row["ci_hi"] == "inf" else float(row["ci_hi"])
        if row["method"] != "monte-carlo" or not lo <= est <= hi:
            problems.append(f"rate point n={row['n']} zeta={row['zeta']}: "
                            f"{row['method']} estimate {est} outside [{lo}, {hi}]")
    if "time_constant" in job.config:
        tc = rep["time_constant"]
        if tc["ns"] != job.config["time_constant"]["n_ladder"]:
            problems.append("time-constant ladder missing from rate.json")
        lo, hi = tc["ci"]
        if not lo <= tc["mu_hat"] <= hi:
            problems.append(f"time constant {tc['mu_hat']} outside [{lo}, {hi}]")
    return problems


def _check_simulate(job: Job) -> list[str]:
    gap = job.read_json("simulate.json")["uniform_gap"]
    return [] if gap["within_bound"] is True else [f"truncation gap {gap} exceeds bound"]


def _check_rerun_of(first: Job) -> Callable[[Job], list[str]]:
    def check(job: Job) -> list[str]:
        problems = _check_simulate(job)
        names = sorted(p.name for p in first.out.iterdir())
        if names != sorted(p.name for p in job.out.iterdir()):
            problems.append("rerun wrote a different artifact set")
        _, mismatch, errors = filecmp.cmpfiles(first.out, job.out, names, shallow=False)
        if mismatch or errors:
            problems.append(f"rerun artifacts differ: {mismatch + errors}")
        return problems

    return check


def _check_oracle_mc(job: Job) -> list[str]:
    rep = job.read_json("oracle.json")
    lo, hi = rep["ci"]
    problems = [] if lo <= rep["p_mc"] <= hi else [f"p_mc {rep['p_mc']} outside [{lo}, {hi}]"]
    if rep["mc_samples"] != job.config["mc_samples"] or rep["p_exact"] is not None:
        problems.append("oracle report does not match a Monte-Carlo-only job")
    return problems


def mc_lattice(rng) -> list[Job]:
    def seed():
        return int(rng.integers(0, 2**31))

    simulate_d2 = Job("simulate-d2", "simulate", {
        "distribution": two_point(HALF), "dim": 2, "n": 16, "seed": seed(),
        "truncation": float(rng.uniform(1.0, 2.0)),
    }, _check_simulate)
    return [
        Job("rate-exponential", "rate", {
            "distribution": EXP1, "x": [1, 0],
            "zeta_grid": sorted(rng.uniform(0.4, 0.6, size=3).tolist()),
            "n_ladder": [8, 16, 32], "samples": 40, "method": "mc", "seed": seed(),
        }, _check_rate),
        # integer weights: passage times take the bucket-queue engine.  The
        # zero-set check needs speeds on both sides of the time constant
        # (about 1.45 here), so one speed is drawn below it and one above.
        Job("rate-two-point", "rate", {
            "distribution": two_point(HALF), "x": [1, 0],
            "zeta_grid": [float(rng.uniform(lo, hi))
                          for lo, hi in ((1.05, 1.25), (1.3, 1.6), (1.75, 1.95))],
            "n_ladder": [4, 8], "samples": 40, "method": "mc", "seed": seed(),
            "time_constant": {"n_ladder": [8, 16, 32], "samples": 40},
        }, _check_rate),
        simulate_d2,
        Job("simulate-d2-rerun", "simulate", dict(simulate_d2.config),
            _check_rerun_of(simulate_d2)),
        Job("simulate-d3", "simulate", {
            "distribution": EXP1, "dim": 3, "n": 8, "seed": seed(),
            "truncation": float(rng.uniform(1.0, 2.0)),
        }, _check_simulate),
        Job("oracle-mc", "oracle", {
            "distribution": EXP1, "dim": 2, "n": 6, "mc_samples": 200, "seed": seed(),
            "event": {"kind": "passage_time_at_most", "x": [0, 0], "y": [6, 6],
                      "t": float(rng.uniform(3.0, 6.0))},
        }, _check_oracle_mc),
    ]


# ---------------------------------------------------------------------------
# highway-geometry

# criterion-06 network fixtures: (norm weights, [(polyline, discount or profile)])
NETWORK_FIXTURES = [
    ([1.0, 1.0], [([[0.0, 0.0], [1.0, 1.0]], 0.5)]),
    ([1.0, 1.0], [([[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [1.0, 0.8]])]),
    ([1.5, 0.8], [([[0.0, 0.0], [1.0, 0.0]], 0.6), ([[0.0, 1.0], [1.0, 1.0]], 0.9)]),
    ([1.0, 1.0], [([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 0.4)]),
]

# the first criterion-08 slowdown pair: (faster metric, slower metric).  A
# probe evaluates both metrics on 1275 pairs, over a second per probe, so a
# pass holds two probes: this one and one on a random family.
SLOWDOWN_PAIR = (([1.0, 1.0], [([[0.0, 0.0], [1.0, 1.0]], 0.5)]),
                 ([1.0, 1.0], [([[0.0, 0.0], [1.0, 1.0]], 0.6)]))


def _metric_json(weights, highways) -> dict:
    out = []
    for points, speed in highways:
        pts = np.asarray(points, dtype=float)
        length = float(np.abs(np.diff(pts, axis=0)).sum())
        profile = [[length, float(speed)]] if np.isscalar(speed) else speed
        out.append({"points": pts.tolist(), "profile": profile})
    return {"kind": "norm_plus_highways", "weights": [float(w) for w in weights],
            "highways": out}


def random_highway_family(rng, k: int):
    """Criterion 07's rejection sampler with the family size fixed to ``k``.

    Draws k segments with random discounts and random norm weights until
    fpplab accepts them as a disjoint geodesic family with a network.
    """
    from fpplab.geometry import (GeometryError, LipschitzPath, NormPlusHighways,
                                 network_from_highways)

    while True:
        highways = []
        for _ in range(k):
            a = rng.uniform(0.05, 0.95, 2)
            b = rng.uniform(0.05, 0.95, 2)
            if np.abs(a - b).sum() < 0.15:
                break
            highways.append(([a.tolist(), b.tolist()], float(rng.uniform(0.3, 0.95))))
        else:
            weights = rng.uniform(0.5, 2.0, 2).tolist()
            try:
                network_from_highways(NormPlusHighways(
                    weights, [(LipschitzPath(p), lam) for p, lam in highways]))
            except GeometryError:
                continue
            return weights, highways


def _check_network(job: Job) -> list[str]:
    net = job.read_json("network.json")
    sups = [row["sup_distance"] for row in net["diagnostics"]]
    problems = [] if net["converged"] is True else ["network did not converge"]
    if not sups or any(b > a + 1e-12 for a, b in zip(sups, sups[1:])):
        problems.append(f"sup_distance not non-increasing: {sups}")
    return problems


def _check_functional(job: Job) -> list[str]:
    rep = job.read_json("functional.json")
    if not all(math.isfinite(rep[k]) for k in ("geodesic_sum", "intrinsic", "sup_bound")):
        return ["functional report is not finite"]
    return []


def _check_probe(job: Job) -> list[str]:
    probe = job.read_json("functional.json")["monotonicity_probe"]
    problems = _check_functional(job)
    if not probe["value_larger_metric"] < probe["value_smaller_metric"]:
        problems.append(f"slower metric's functional {probe['value_larger_metric']} is "
                        f"not below {probe['value_smaller_metric']}")
    return problems


def highway_geometry(rng) -> list[Job]:
    def seed():
        return int(rng.integers(0, 2**31))

    jobs = []
    for i, (weights, hws) in enumerate(NETWORK_FIXTURES):
        jobs.append(Job(f"highways-{i}", "highways", {
            "metric": _metric_json(weights, hws), "mode": "build", "n_geodesics": 8,
            "tol": 1e-6, "seed": seed(),
            "seed_pairs": [[p[0], p[-1]] for p, _ in hws],
        }, _check_network))
    fast, slow = SLOWDOWN_PAIR
    jobs.append(Job("probe-fixture", "functional", {
        "metric": _metric_json(*slow), "probe_metric": _metric_json(*fast),
        "rate": {"kind": "analytic", "weights": [1.0, 1.0]}, "seed": seed(),
    }, _check_probe))
    # one family per size, so the cost per pass does not depend on the seed;
    # the multi-highway families get the three-formula report without a probe
    for k in (1, 2, 3):
        weights, hws = random_highway_family(rng, k)
        rate_weights = rng.uniform(0.5, 2.0, 2).tolist()
        cfg = {"metric": _metric_json(weights, hws)}
        if k == 1:
            # J = (g - zeta)^+ with the metric's own norm g: every highway with
            # a discount below 1 then has a positive rate, so the slowdown
            # strictly lowers the functional (with random J weights both
            # functionals can be 0)
            speedup = float(rng.uniform(0.6, 0.9))
            cfg["probe_metric"] = _metric_json(weights, [(p, lam * speedup) for p, lam in hws])
            cfg["rate"] = {"kind": "analytic", "weights": weights}
            cfg["seed"] = seed()
            jobs.append(Job("probe-random-1", "functional", cfg, _check_probe))
        else:
            cfg["rate"] = {"kind": "analytic", "weights": rate_weights}
            jobs.append(Job(f"functional-random-{k}", "functional", cfg, _check_functional))
    return jobs
