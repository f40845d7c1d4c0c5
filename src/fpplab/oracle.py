"""Exact small-instance probabilities and analytic bounds.

The enumeration oracle walks every weight configuration of a finite-support
law on the edges of a small box and reports event probabilities as exact
rationals.  It is the ground truth that the simulators are audited against.
Analytic companions: the crude per-edge lower bound, the lower-tail rate of
an i.i.d. sum (a Legendre transform of the log moment generating function),
and Chernoff upper-tail bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from fpplab._artifacts import jsonable
from fpplab.geometry import _pair_eval
from fpplab.model import (EdgeDistribution, LatticeBox, WeightField, _edge_arrays,
                          sample_weight_rows)
from fpplab.passage_time import (_arc_table, _batch_rows, _batched_distances, _hub_budgets,
                                 _hub_times, _pair_ids, _region_mask, _seeded_passage_times)

__all__ = [
    "EventSpec",
    "ExactProbability",
    "CapExceededError",
    "exact_event_probability",
    "MCEstimate",
    "monte_carlo_event_probability",
    "wilson_interval",
    "LDTrendRow",
    "estimate_event_rate",
    "validate_decreasing",
    "FKGReport",
    "fkg_supermultiplicativity_check",
    "crude_lower_bound",
    "cramer_rate",
    "iid_sum_lower_tail_rate",
    "chernoff_upper_tail",
    "chernoff_best_lambda",
]


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configuration cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(f"enumeration needs {required} configurations, cap is {cap}")
        self.required = required
        self.cap = cap


@dataclass(frozen=True)
class EventSpec:
    """A weight-field event.

    ``kind`` is one of ``passage_time_at_most``, ``ld_lower``, ``hub`` or
    ``custom``.  All built-in kinds are decreasing: raising any edge weight
    can only destroy the event, never create it.
    """

    kind: str
    params: dict
    decreasing: bool
    name: str

    @classmethod
    def passage_time_at_most(cls, x, y, t, region=None) -> "EventSpec":
        """T(x, y) <= t among paths in the region.

        Every backend applies one comparison: the float passage time (edge
        weights summed along a best path from x) against ``float(t)`` with
        ``<=`` and no tolerance.  Exact enumeration and Monte Carlo therefore
        test the same event; with non-dyadic atoms such as 0.1 and 0.2 that
        event is the one on the binary values, where 0.1 + 0.2 > 0.3.
        """
        return cls(
            kind="passage_time_at_most",
            params={"x": tuple(int(c) for c in x), "y": tuple(int(c) for c in y),
                    "t": float(t), "region": region},
            decreasing=True,
            name=f"T({tuple(int(c) for c in x)},{tuple(int(c) for c in y)})<={float(t)}",
        )

    @classmethod
    def ld_lower(cls, metric, eps: float) -> "EventSpec":
        """All vertex pairs of the box satisfy T-hat(x, y) <= D(x, y) + eps.

        ``metric`` is D: an object with ``evaluate_many(X, Y)`` or a bare
        ``(x, y) -> float`` callable.
        """
        return cls(
            kind="ld_lower",
            params={"metric": metric, "eps": float(eps)},
            decreasing=True,
            name=f"LD-lower(eps={float(eps)})",
        )

    @classmethod
    def hub(cls, x, kappa: float) -> "EventSpec":
        return cls(
            kind="hub",
            params={"x": tuple(int(c) for c in x), "kappa": float(kappa)},
            decreasing=True,
            name=f"hub({tuple(int(c) for c in x)},kappa={float(kappa)})",
        )

    @classmethod
    def custom(cls, fn: Callable[[WeightField], bool], decreasing: bool, name: str) -> "EventSpec":
        return cls(kind="custom", params={"fn": fn}, decreasing=decreasing, name=name)


# ---------------------------------------------------------------------------
# compiled events


@dataclass(frozen=True)
class _CompiledEvent:
    """An event compiled for one box and law.

    ``test`` maps a (B, n_edges) block of weight rows with B <= ``rows`` to
    a (B,) boolean array.
    """

    test: Callable[[np.ndarray], np.ndarray]
    rows: int


def _live_edges(event: EventSpec, box: LatticeBox) -> np.ndarray:
    """Ids of the edges an event sees: those inside a passage event's region, or all."""
    mask = _region_mask(box, event.params.get("region"))
    if mask is None:
        return np.arange(box.n_edges)
    _, _, (u_flat, v_flat) = _edge_arrays(box.dimension, box.side)
    return np.nonzero(mask[u_flat] & mask[v_flat])[0]


def _predicate(event: EventSpec, box: LatticeBox, dist: EdgeDistribution) -> _CompiledEvent:
    """Compile an event once into a batched test over weight rows."""
    if event.kind == "passage_time_at_most":
        p = event.params
        mask = _region_mask(box, p["region"])
        sid, tid = _pair_ids(box, p["x"], p["y"], mask)
        nbr, eid = _arc_table(box, mask)
        sources = np.array([sid])
        t = p["t"]

        def test(W):
            return _batched_distances(W, sources, nbr, eid)[:, 0, tid] <= t

        return _CompiledEvent(test, _batch_rows(box, 1))

    if event.kind == "ld_lower":
        p = event.params
        n = box.side
        grid = np.asarray(box.all_vertex_coords(), dtype=np.int64)
        gids = np.atleast_1d(box.vertex_id(grid))
        i, j = np.divmod(np.arange(len(grid) ** 2), len(grid))
        D = _pair_eval(p["metric"])(grid[i] / n, grid[j] / n).reshape(len(grid), len(grid))
        budget = D + p["eps"]
        nbr, eid = _arc_table(box, None)

        def test(W):
            dist_arr = _batched_distances(W, gids, nbr, eid)[:, :, gids]
            return ~np.any(dist_arr / n > budget, axis=(1, 2))

        return _CompiledEvent(test, _batch_rows(box, len(gids)))

    if event.kind == "hub":
        sid, hop_budget, time_budget = _hub_budgets(box, event.params["x"],
                                                    event.params["kappa"])

        def test(W):
            vals, _ = _hub_times(W, box, sid, hop_budget, time_budget)
            return np.all(vals <= time_budget, axis=1)

        return _CompiledEvent(test, _batch_rows(box, 1))

    if event.kind != "custom":
        raise ValueError(f"unknown event kind {event.kind!r}")
    # a custom event sees a whole field through opaque code: one row at a time
    # through a shared buffer
    buf = np.empty(box.n_edges)
    shared_field = WeightField(box=box, distribution=dist, master_seed=0, weights=buf)
    fn = event.params["fn"]

    def test(W):
        out = np.empty(len(W), dtype=bool)
        for i, row in enumerate(W):
            buf[:] = row
            out[i] = bool(fn(shared_field))
        return out

    return _CompiledEvent(test, _batch_rows(box, 1))


def _enumerate(test, values, probs, live: np.ndarray, n_edges: int,
               rows: int) -> tuple[list[Fraction], list[int | None]]:
    """Exact probabilities of the outcome columns of ``test`` over every
    configuration of the ``live`` edges; the other edges hold ``values[0]``.

    Configurations are walked as mixed-radix indices (base ``len(values)``,
    first live edge most significant) in batches of ``rows``.  Hits are
    counted per atom-multiplicity class, keyed by the index of the sorted
    digits, and the exact sum of count times atom-probability product is
    taken once per class.  Returns the probabilities and the hit counts,
    which are ``None`` unless all atoms are equally likely.
    """
    s, m = len(values), len(live)
    required = s ** m
    place = s ** np.arange(m - 1, -1, -1, dtype=np.int64)
    vals = np.asarray(values, dtype=float)
    uniform = all(q == probs[0] for q in probs)
    block = np.full((min(rows, required), n_edges), vals[0])
    per_class: dict[int, np.ndarray] = {}
    for start in range(0, required, rows):
        idx = np.arange(start, min(start + rows, required), dtype=np.int64)
        digits = idx[:, None] // place % s
        w = block[:len(idx)]
        w[:, live] = vals[digits]
        hits = test(w).reshape(len(idx), -1).astype(np.int64)
        if uniform:  # every configuration has the same probability
            keys, inverse = np.zeros(1, dtype=np.int64), np.zeros(len(idx), dtype=np.int64)
        else:
            keys, inverse = np.unique(np.sort(digits, axis=1) @ place, return_inverse=True)
        sums = np.zeros((len(keys), hits.shape[1]), dtype=np.int64)
        np.add.at(sums, inverse, hits)
        for key, row in zip(keys.tolist(), sums):
            per_class[key] = per_class.get(key, 0) + row

    def class_probability(key: int) -> Fraction:
        mult = np.bincount(np.asarray(key) // place % s, minlength=s)
        return math.prod((q ** int(k) for q, k in zip(probs, mult)), start=Fraction(1))

    total = sum(row.astype(object) * class_probability(key) for key, row in per_class.items())
    counts = [int(c) for c in per_class[0]] if uniform else [None] * len(total)
    return list(total), counts


@dataclass(frozen=True)
class ExactProbability:
    p: Fraction
    n_configs: int
    n_satisfying: int | None

    @property
    def numerator(self) -> int:
        return self.p.numerator

    @property
    def denominator(self) -> int:
        return self.p.denominator


DEFAULT_ENUMERATION_CAP = 1 << 24


def exact_event_probability(
    event: EventSpec,
    dist: EdgeDistribution,
    box: LatticeBox,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ExactProbability:
    """Exact probability of an event under a finite-support law.

    Only edges the event can see are enumerated (for region-restricted
    passage events the rest of the box is marginalised away exactly), and
    the cap is checked before the event is compiled.  The event is compiled
    once; configurations are walked in batches of weight
    rows, each batch tested at once by a vectorised shortest-path solve.
    Hits are counted per atom-multiplicity class, so the exact rational is
    one sum of count times atom-probability product per class.  A passage
    event holds when the float passage time satisfies ``T <= t``, the rule
    Monte Carlo applies too.

    ``n_configs`` is the number of configurations enumerated;
    ``n_satisfying`` counts the hits when all atoms are equally likely and
    is ``None`` otherwise.
    """
    if not dist.is_finite_support:
        raise ValueError("the enumeration oracle needs a finite-support law")
    values, probs = dist.atoms()
    live = _live_edges(event, box)
    required = len(values) ** len(live)
    if required > cap:
        raise CapExceededError(required, cap)

    compiled = _predicate(event, box, dist)
    (p,), (count,) = _enumerate(compiled.test, values, probs, live, box.n_edges,
                                compiled.rows)
    return ExactProbability(p=p, n_configs=required, n_satisfying=count)


# ---------------------------------------------------------------------------
# Monte-Carlo companion


def wilson_interval(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one sample")
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class MCEstimate:
    p_hat: float
    successes: int
    samples: int
    ci_low: float
    ci_high: float


def monte_carlo_event_probability(
    event: EventSpec,
    dist: EdgeDistribution,
    box: LatticeBox,
    samples: int,
    seed: int = 0,
) -> MCEstimate:
    """Monte-Carlo frequency of an event, with a Wilson confidence interval.

    The one event sampler: one field per replicate seed, sampled as weight
    rows by :func:`~fpplab.model.sample_weight_rows`.  A passage event goes
    through :func:`~fpplab.passage_time._seeded_passage_times` (block-diagonal
    csgraph, faster than Bellman-Ford on boxes too big to enumerate); every
    other event through the compiled test of the exact oracle.
    """
    rep_seeds = np.random.SeedSequence(seed).generate_state(samples, np.uint64)
    if event.kind == "passage_time_at_most":
        p = event.params
        times = _seeded_passage_times(dist, box, rep_seeds, p["x"], p["y"], p["region"])
        k = int(np.count_nonzero(times <= p["t"]))
    else:
        compiled = _predicate(event, box, dist)
        k = 0
        for start in range(0, samples, compiled.rows):
            W = sample_weight_rows(dist, box, rep_seeds[start:start + compiled.rows])
            k += int(np.count_nonzero(compiled.test(W)))
    lo, hi = wilson_interval(k, samples)
    return MCEstimate(p_hat=k / samples, successes=k, samples=samples, ci_low=lo, ci_high=hi)


# ---------------------------------------------------------------------------
# finite-scale rates


@dataclass(frozen=True)
class LDTrendRow:
    """-(1/n) log P(E) of one event at scale n, exact or by Monte Carlo.

    Exact rows carry ``p_exact``, ``ci=None`` and the configuration count
    in ``samples``.  Monte-Carlo rows carry the hit count and the rate
    interval, the decreasing image of the Wilson interval on p.
    """

    n: int
    method: str
    p: float
    p_exact: Fraction | None
    rate: float | None          # inf when p == 0 exactly; None when censored
    ci: tuple[float, float] | None
    censored: bool
    samples: int
    hits: int | None
    seed: int

    def to_json(self) -> dict:
        return {**jsonable(self),
                "rate_is_infinite": self.rate is not None and math.isinf(self.rate)}


def _check_method(method: str, dist: EdgeDistribution) -> None:
    """Raise ``ValueError`` unless :func:`estimate_event_rate` accepts
    ``method`` for ``dist``."""
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" and not dist.is_finite_support:
        raise ValueError("exact method requires a finite-support distribution")


def estimate_event_rate(
    event: EventSpec,
    dist: EdgeDistribution,
    box: LatticeBox,
    n: int,
    samples: int,
    seed: int,
    method: str = "auto",
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
) -> LDTrendRow:
    """-(1/n) log P(event) on ``box``, with an interval.

    Enumerates under ``method='exact'``, and under ``'auto'`` when the law
    has finite support and the configurations fit ``enum_cap``; otherwise
    samples ``samples`` fields from ``seed`` by
    :func:`monte_carlo_event_probability`.  The rate is ``inf`` at p == 0
    and never below ``+0.0``.  A sample with no hit is censored: rate
    ``None``, interval ``(-(1/n) log hi, inf)`` from the upper Wilson limit.
    """
    _check_method(method, dist)

    def rate(p: float) -> float:
        return math.inf if p <= 0.0 else max(-math.log(p) / n, 0.0) + 0.0

    if method != "mc" and dist.is_finite_support:
        try:
            res = exact_event_probability(event, dist, box, cap=enum_cap)
        except CapExceededError:
            if method == "exact":
                raise
        else:
            return LDTrendRow(n=n, method="exact-oracle", p=float(res.p), p_exact=res.p,
                              rate=rate(float(res.p)), ci=None, censored=False,
                              samples=res.n_configs, hits=None, seed=seed)
    mc = monte_carlo_event_probability(event, dist, box, samples, seed)
    censored = mc.successes == 0
    return LDTrendRow(n=n, method="monte-carlo", p=mc.p_hat, p_exact=None,
                      rate=None if censored else rate(mc.p_hat),
                      ci=(rate(mc.ci_high), math.inf if censored else rate(mc.ci_low)),
                      censored=censored, samples=samples, hits=mc.successes, seed=seed)


def validate_decreasing(
    event: EventSpec,
    dist: EdgeDistribution,
    box: LatticeBox,
    trials: int = 32,
    seed: int = 0,
) -> int:
    """Count monotone-perturbation violations of a claimed decreasing event.

    Samples a field, bumps one random edge weight upward, and checks the
    indicator never flips from false to true.  Returns the violation count
    (zero for genuinely decreasing events).
    """
    compiled = _predicate(event, box, dist)
    rng = np.random.default_rng(seed)
    sup = dist.support_supremum()
    violations = 0
    for start in range(0, trials, compiled.rows):
        seeds, edges = [], []
        for _ in range(start, min(start + compiled.rows, trials)):
            seeds.append(int(rng.integers(0, 2**63)))  # per trial: field seed, then edge
            edges.append(int(rng.integers(0, box.n_edges)))
        before = sample_weight_rows(dist, box, seeds)
        after = before.copy()
        rows = np.arange(len(seeds))
        after[rows, edges] = sup if math.isfinite(sup) else before[rows, edges] + 1.0
        flipped = compiled.test(after) & ~compiled.test(before)
        violations += int(np.count_nonzero(flipped))
    return violations


# ---------------------------------------------------------------------------
# supermultiplicativity (in-box surrogate)


def _fkg_endpoints(box: LatticeBox, x1, x2) -> tuple[int, int, int]:
    """Vertex ids of 0, x1 and x1 + x2; ``ValueError`` unless x1 and x1 + x2
    are vertices of the box.  The step x2 itself may point backwards."""
    x1 = np.asarray(x1, dtype=np.int64)
    x2 = np.asarray(x2, dtype=np.int64)
    if x1.shape != x2.shape:
        raise ValueError("x1 and x2 have different lengths")
    x12 = x1 + x2
    if np.any(x12 < 0) or np.any(x12 > box.side):
        raise ValueError("x1 + x2 must stay in the box")
    return (box.vertex_id(np.zeros(box.dimension, dtype=np.int64)), box.vertex_id(x1),
            box.vertex_id(x12))


@dataclass(frozen=True)
class FKGReport:
    lhs: Fraction
    factor_first: Fraction
    factor_second: Fraction
    rhs: Fraction
    slack: Fraction


def fkg_supermultiplicativity_check(
    dist: EdgeDistribution,
    box: LatticeBox,
    x1,
    x2,
    t1: float,
    t2: float,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> FKGReport:
    """Exact check of P(T(0, x1+x2) <= t1+t2) >= P(T(0, x1) <= t1) P(T(x1, x1+x2) <= t2).

    This is the in-box surrogate of supermultiplicativity: the second factor
    keeps the translated endpoints instead of invoking stationarity, because
    a finite box is not translation invariant.  Both factor events are
    decreasing in the weights and their intersection forces the left event
    through the triangle inequality, so the slack is provably nonnegative.
    """
    if not dist.is_finite_support:
        raise ValueError("the enumeration oracle needs a finite-support law")
    id0, id1, id12 = _fkg_endpoints(box, x1, x2)
    values, probs = dist.atoms()
    required = len(values) ** box.n_edges
    if required > cap:
        raise CapExceededError(required, cap)

    sources = np.array([id0, id1])
    nbr, eid = _arc_table(box, None)

    def test(W):
        dist_arr = _batched_distances(W, sources, nbr, eid)
        return np.stack([dist_arr[:, 0, id12] <= t1 + t2, dist_arr[:, 0, id1] <= t1,
                         dist_arr[:, 1, id12] <= t2], axis=1)

    (lhs, f1, f2), _ = _enumerate(test, values, probs, np.arange(box.n_edges),
                                  box.n_edges, _batch_rows(box, 2))
    rhs = f1 * f2
    return FKGReport(lhs=lhs, factor_first=f1, factor_second=f2, rhs=rhs, slack=lhs - rhs)


# ---------------------------------------------------------------------------
# analytic bounds


def crude_lower_bound(dist: EdgeDistribution, u, v, t: float):
    """nu([a, t]) ** |u - v|_1, a lower bound for P(T(u, v) <= t |u - v|_1).

    Exact rational when the law's CDF is rational at t; float otherwise.
    Requires t >= the support infimum (below it the bound is void).
    """
    if t < dist.support_infimum:
        raise ValueError("t must be at least the support infimum")
    hops = int(np.abs(np.asarray(u, dtype=np.int64) - np.asarray(v, dtype=np.int64)).sum())
    q = dist.cdf_fraction(t)
    if q is not None:
        return q ** hops
    return dist.cdf(t) ** hops


def iid_sum_lower_tail_rate(dist: EdgeDistribution, zeta: float, n: int) -> float:
    """-(1/n) log P(sum of n i.i.d. weights <= n zeta), exact for finite laws.

    This finite-n quantity decreases to the Legendre-transform rate as n
    grows; it is the sharp comparison point for box estimates at finite n.
    """
    if not dist.is_finite_support:
        raise ValueError("exact lower-tail sums need a finite-support law")
    values, probs = dist.atoms()
    # dynamic programming over exact (value, probability) pairs
    layer: dict[float, Fraction] = {0.0: Fraction(1)}
    for _ in range(n):
        nxt: dict[float, Fraction] = {}
        for tot, p in layer.items():
            for v, q in zip(values, probs):
                key = tot + v
                nxt[key] = nxt.get(key, Fraction(0)) + p * q
        layer = nxt
    p_tail = sum((p for tot, p in layer.items() if tot <= zeta * n), Fraction(0))
    if p_tail == 0:
        return math.inf
    return -math.log(float(p_tail)) / n


def cramer_rate(dist: EdgeDistribution, zeta: float, tol: float = 1e-10) -> float:
    """Lower-tail large-deviation rate of an i.i.d. sum at level zeta.

    The Legendre transform sup over lam <= 0 of lam zeta - log E[exp(lam tau)].
    Zero at and above the mean; -log nu({a}) at the support infimum a when an
    atom sits there, infinite there otherwise; +inf below the support.
    """
    from scipy.optimize import minimize_scalar  # slow to import; no CLI command needs it
    a = dist.support_infimum
    if zeta < a:
        return math.inf
    mean = dist.mean()
    if zeta >= mean:
        return 0.0
    if zeta == a:
        atom = dist.atom_at_infimum()
        return -math.log(float(atom)) if atom > 0 else math.inf

    def neg_obj(lam: float) -> float:
        return -(lam * zeta - dist.log_mgf(lam))

    best = 0.0
    L = 1.0
    while True:
        res = minimize_scalar(neg_obj, bounds=(-L, 0.0), method="bounded",
                              options={"xatol": tol * 1e-3})
        val = -res.fun
        hugging = res.x < -0.99 * L
        improved = val > best + tol * 0.1
        best = max(best, val)
        if L >= 1e8 or (not hugging and not improved):
            break
        L *= 4.0
    return max(0.0, best)


def chernoff_upper_tail(dist: EdgeDistribution, lam: float, eps: float, n: int, hops: int) -> float:
    """Chernoff bound exp(-lam eps n) E[exp(lam tau)]^hops for the upper tail
    of the passage time: any fixed path with the given hop count witnesses
    P(T >= eps n) <= P(path sum >= eps n) <= this bound."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    log_bound = -lam * eps * n + hops * dist.log_mgf(lam)
    return math.exp(min(log_bound, 700.0))


def chernoff_best_lambda(
    dist: EdgeDistribution,
    eps: float,
    n: int,
    hops: int,
    lam_grid: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Grid-optimised Chernoff bound; returns (best lam, best bound)."""
    if lam_grid is None:
        lam_grid = np.geomspace(1e-3, 64.0, 121)
    best_lam, best_bound = None, math.inf
    for lam in lam_grid:
        try:
            bnd = chernoff_upper_tail(dist, float(lam), eps, n, hops)
        except ValueError:
            continue
        if bnd < best_bound:
            best_lam, best_bound = float(lam), bnd
    if best_lam is None:
        raise ValueError("no finite bound on the grid (mgf diverges everywhere)")
    return best_lam, best_bound
