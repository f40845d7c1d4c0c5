"""Exact small-instance probabilities and analytic bounds.

The enumeration oracle sums over every weight configuration of a
finite-support law on the edges of a small box, settling whole subtrees of
configurations by monotone bounds, and reports event probabilities as exact
rationals.  It is the ground truth that the simulators are audited against.
Analytic companions: the crude per-edge lower bound, the lower-tail rate of
an i.i.d. sum (a Legendre transform of the log moment generating function),
and Chernoff upper-tail bounds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from fpplab.model import EdgeDistribution, LatticeBox, _edge_arrays, _integral, sample_weight_rows
from fpplab.passage_time import (_arc_table, _batch_rows, _batched_distances, _hub_budgets,
                                 _hub_times, _pair_ids, _region_mask, _seeded_passage_times)

_CRAMER_TOL = 1e-10  # tolerance of cramer_rate's bounded maximisation
_CHERNOFF_LAMBDAS = np.geomspace(1e-3, 64.0, 121)  # the grid chernoff_best_lambda searches
_Z95 = 1.959963984540054  # the two-sided 95% standard normal quantile

__all__ = [
    "EventSpec",
    "ExactProbability",
    "CapExceededError",
    "exact_event_probability",
    "MCEstimate",
    "monte_carlo_event_probability",
    "wilson_interval",
    "LDTrendRow",
    "estimate_event_rates",
    "FKGReport",
    "fkg_supermultiplicativity_check",
    "crude_lower_bound",
    "cramer_rate",
    "iid_sum_lower_tail_rate",
    "chernoff_upper_tail",
    "chernoff_best_lambda",
]


class CapExceededError(RuntimeError):
    """Raised when a computation would exceed a size cap.

    ``required`` and ``cap`` count ``what``: the configurations of an
    enumeration, the cells of an all-pairs table or the edges of a box.
    ``fixed`` marks a cap that no budget raises.
    """

    def __init__(self, required: int, cap: int, what: str = "configurations",
                 fixed: bool = False):
        kind = "fixed limit" if fixed else "cap"
        super().__init__(f"{required} {what} needed, {kind} is {cap}")
        self.required = required
        self.cap = cap
        self.fixed = fixed


@dataclass(frozen=True)
class EventSpec:
    """A weight-field event, one of the paper's three kinds.

    ``kind`` is ``passage_time_at_most`` (T(0, nx) <= n zeta, which defines
    J), ``ld_lower`` (the lower-tail event T-hat_n <= D + eps) or ``hub``.
    Each is decreasing: raising any edge weight can only destroy the event,
    never create it, which is what lets the exact walk settle a subtree by
    its bounds.  The constructors reject a NaN threshold, against which every
    comparison is false, so the probability would be silently wrong, and a
    ``kappa`` that is not finite and positive.
    """

    kind: str
    params: dict
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
        x, y = (tuple(int(c) for c in _integral(v)) for v in (x, y))
        t = _not_nan(t, "t")
        return cls(kind="passage_time_at_most", params={"x": x, "y": y, "t": t, "region": region},
                   name=f"T({x},{y})<={t}")

    @classmethod
    def ld_lower(cls, metric, eps: float) -> "EventSpec":
        """All vertex pairs of the box satisfy T-hat(x, y) <= D(x, y) + eps.

        ``metric`` is D, read at the rescaled vertices through its
        ``evaluate_many(X, Y)``.
        """
        eps = _not_nan(eps, "eps")
        return cls(kind="ld_lower", params={"metric": metric, "eps": eps},
                   name=f"LD-lower(eps={eps})")

    @classmethod
    def hub(cls, x, kappa: float) -> "EventSpec":
        x = tuple(int(c) for c in _integral(x))
        kappa = float(kappa)
        if not 0 < kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {kappa}")
        return cls(kind="hub", params={"x": x, "kappa": kappa}, name=f"hub({x},kappa={kappa})")


def _not_nan(value, what: str) -> float:
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{what} must be a number, got NaN")
    return value


# ---------------------------------------------------------------------------
# compiled events


@dataclass(frozen=True)
class _CompiledEvent:
    """An event compiled for one box and law.

    ``test`` maps a (B, n_edges) block of weight rows with B <= ``rows`` to
    a (B,) boolean array.  ``anchors`` holds the (P, 2, d) end points of the
    segments the event's paths join, which order the edges of the exact walk
    (:func:`_edge_order`).  The test decreases in every weight, so the walk
    may settle a subtree by its bounds.
    """

    test: Callable[[np.ndarray], np.ndarray]
    rows: int
    anchors: np.ndarray


def _live_edges(event: EventSpec, box: LatticeBox) -> np.ndarray:
    """Ids of the edges an event sees: those inside a passage event's region, or all."""
    mask = _region_mask(box, event.params.get("region"))
    if mask is None:
        return np.arange(box.n_edges)
    _, _, (u_flat, v_flat) = _edge_arrays(box.dimension, box.side)
    return np.nonzero(mask[u_flat] & mask[v_flat])[0]


def _predicate(event: EventSpec, box: LatticeBox) -> _CompiledEvent:
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

        return _CompiledEvent(test, _batch_rows(box, 1), np.array([(p["x"], p["y"])], dtype=float))

    if event.kind == "ld_lower":
        p = event.params
        n = box.side
        # all_vertex_coords lists the vertices in id order, so row k is vertex k
        grid = np.asarray(box.all_vertex_coords(), dtype=np.int64)
        sources = np.arange(box.n_vertices)
        i, j = np.divmod(np.arange(len(grid) ** 2), len(grid))
        D = p["metric"].evaluate_many(grid[i] / n, grid[j] / n).reshape(len(grid), len(grid))
        budget = D + p["eps"]
        nbr, eid = _arc_table(box, None)

        def test(W):
            dist_arr = _batched_distances(W, sources, nbr, eid)
            return ~np.any(dist_arr / n > budget, axis=(1, 2))

        centre = np.full(box.dimension, n / 2)
        return _CompiledEvent(test, _batch_rows(box, len(sources)), np.array([(centre, centre)]))

    if event.kind != "hub":
        raise ValueError(f"unknown event kind {event.kind!r}")
    x = event.params["x"]
    sid, hop_budget, time_budget = _hub_budgets(box, x, event.params["kappa"])

    def test(W):
        vals, _ = _hub_times(W, box, sid, hop_budget, time_budget)
        return np.all(vals <= time_budget, axis=1)

    return _CompiledEvent(test, _batch_rows(box, 1), np.array([(x, x)], dtype=float))


def _edge_order(box: LatticeBox, live: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """The live edges in walk order: by l1 distance from the edge's midpoint
    to the nearest anchor segment, ties by edge id."""
    base, axis, _ = _edge_arrays(box.dimension, box.side)
    mid = base[live] + 0.5 * np.eye(box.dimension)[axis[live]]
    start, step = anchors[:, 0], anchors[:, 1] - anchors[:, 0]
    off = mid[:, None, :] - start                                  # (E, P, d)
    # |off - u step|_1 is convex and piecewise linear in u, so its least
    # value on [0, 1] sits at an end or where one coordinate vanishes
    u = np.divide(off, step, out=np.zeros_like(off), where=step != 0)
    u = np.concatenate([u, np.zeros_like(off[..., :1]), np.ones_like(off[..., :1])], axis=2)
    u = np.clip(u, 0.0, 1.0)                                        # (E, P, d + 2)
    gap = np.abs(off[:, :, None, :] - u[..., None] * step[:, None, :]).sum(axis=3)
    return live[np.lexsort((live, gap.min(axis=(1, 2))))]


def _enumerate(event: _CompiledEvent, values, probs, box: LatticeBox,
               live: np.ndarray) -> tuple[Fraction, int, int]:
    """Exact probability of ``event.test`` over every configuration of the
    ``live`` edges; the other edges hold ``values[0]``.

    One depth-first factoring walk over the tree of partial configurations.
    A node at depth k fixes the atoms of the first k live edges in
    :func:`_edge_order`.  Its bounds are the outcomes with every free edge
    at the largest atom and at the smallest.  The event's test decreases in
    every weight (float addition is monotone, so a float passage time and
    ``T <= t`` are too), so when both bounds agree, every completion of the
    node agrees with them: the node is settled.  An unsettled node splits
    into one child per atom of its next edge; the child with the largest
    atom keeps its parent's upper bound, the one with the smallest its lower
    bound.  A leaf (k = m) is one configuration, so its two bounds are one.

    Nodes wait on a stack of blocks, one per depth, with the deepest on
    top, and are taken ``event.rows`` at a time, so at most (m + 1) s
    ``event.rows`` nodes wait.  A block keeps its nodes' two outcomes in one
    (2, N) array.  Its untested bounds become weight rows in one gather
    from the two fill rows, the upper bounds first, with the fixed atoms
    written over them; its children are written through a (parent, atom)
    view, so no Python runs per node.  A settled node that holds the event
    adds one to an integer count of its class: its depth k and the
    multiplicities of its fixed atoms, or k alone when all atoms are
    equally likely.  Its free edges' probabilities sum to 1, so the class
    probability is the product of its fixed atoms' probabilities, and the
    node stands for s^(m - k) configurations.  Both are exact Python
    numbers, taken once per class, so no sum overflows however large s^m
    is.  Returns ``(p, n_satisfying,
    rows_tested)``, the last the number of rows passed to ``event.test``.
    """
    s, m, rows = len(values), len(live), event.rows
    vals = np.asarray(values, dtype=float)
    order = _edge_order(box, live, event.anchors)
    uniform = all(q == probs[0] for q in probs)
    fills = np.full((2, box.n_edges), vals[0])  # the free edges of the upper and lower bound
    fills[0, order] = vals[-1]  # the atoms are sorted
    atoms = np.arange(s, dtype=np.min_scalar_type(s - 1))
    per_class: dict[tuple, int] = {}  # (k, multiplicities) -> settled nodes that hold the event
    rows_tested = 0
    # a block: depth k, fixed atoms (N, k), and the (2, N) outcomes of the
    # upper and lower bound, -1 while untested
    stack = [(0, np.zeros((1, 0), atoms.dtype), np.full((2, 1), -1))]
    while stack:
        k, fixed, out = stack.pop()
        if len(fixed) > rows:  # take the block's tail now, its head later
            stack.append((k, fixed[:-rows], out[:, :-rows]))
            fixed, out = fixed[-rows:], out[:, -rows:]
        if k == m:  # a leaf's two bounds are its one configuration
            out = np.maximum(out[:1], out[1:])
        untested = out < 0
        if untested.any():
            bound, node = np.nonzero(untested)  # the upper bounds' rows first
            W = fills[bound]
            W[:, order[:k]] = vals[fixed[node]]
            out[untested] = np.concatenate([event.test(W[a:a + rows])
                                            for a in range(0, len(W), rows)])
            rows_tested += len(W)
        hi, lo = out[0], out[-1]
        settled = (hi == lo) & (hi >= 0)
        held = settled & (hi == 1)
        if held.any():
            if uniform:  # one class per depth, its atoms all counted as the first
                per_class[k, (k,)] = per_class.get((k, (k,)), 0) + int(held.sum())
            else:
                mult, counts = np.unique((fixed[held, :, None] == atoms).sum(axis=1),
                                         axis=0, return_counts=True)
                for key, c in zip(map(tuple, mult.tolist()), counts.tolist()):
                    per_class[k, key] = per_class.get((k, key), 0) + c
        if not settled.all():
            parents = np.flatnonzero(~settled)
            # written through (parent, atom) views of the children's arrays
            kids = np.empty((len(parents), s, k + 1), atoms.dtype)
            kids[:, :, :k] = fixed[parents, None]
            kids[:, :, k] = atoms
            kid_out = np.full((2, len(parents), s), -1)
            kid_out[0, :, -1] = hi[parents]
            kid_out[1, :, 0] = lo[parents]
            stack.append((k + 1, kids.reshape(-1, k + 1), kid_out.reshape(2, -1)))

    p = sum((c * math.prod(map(pow, probs, mult), start=Fraction(1))
             for (_, mult), c in per_class.items()), Fraction(0))
    count = sum(c * s ** (m - k) for (k, _), c in per_class.items())
    return p, count, rows_tested


@dataclass(frozen=True)
class ExactProbability:
    p: Fraction
    n_configs: int
    n_satisfying: int
    rows_tested: int

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
    once into a batched test, a vectorised shortest-path solve over blocks
    of weight rows, and walked by :func:`_enumerate`.  That walk fixes the
    edges one at a time, nearest the event's end points first, and settles
    a whole subtree of configurations as soon as the free edges at the
    largest and at the smallest atom give the same outcome.  Hits are
    counted per atom-multiplicity class, so the exact rational is one sum of
    count times atom-probability product per class.  A passage event holds
    when the float passage time satisfies ``T <= t``, the rule Monte Carlo
    applies too.

    ``n_configs`` is the number of configurations of the live edges, s^m,
    tested or settled in a subtree; ``n_satisfying`` counts the hits among
    them, whatever the atoms' probabilities.  ``rows_tested`` is the number
    of weight rows the walk passed to the compiled test, bound rows and
    leaves alike: the walk's cost, which the artifacts do not record.
    """
    if not dist.is_finite_support:
        raise ValueError("the enumeration oracle needs a finite-support law")
    values, probs = dist.atoms()
    live = _live_edges(event, box)
    required = len(values) ** len(live)
    if required > cap:
        raise CapExceededError(required, cap)

    p, count, rows_tested = _enumerate(_predicate(event, box), values, probs, box, live)
    return ExactProbability(p=p, n_configs=required, n_satisfying=count, rows_tested=rows_tested)


# ---------------------------------------------------------------------------
# Monte-Carlo companion


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n < 1 or not 0 <= k <= n:
        raise ValueError(f"need at least one sample and k in 0..n, got k={k}, n={n}")
    z = _Z95
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


def _replicate_seeds(samples, seed: int) -> np.ndarray:
    """The ``samples`` replicate seeds that ``seed`` spawns, one per field;
    ``ValueError`` unless ``samples`` is a positive integer."""
    if not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples}")
    return np.random.SeedSequence(seed).generate_state(samples, np.uint64)


def _rung_seeds(seed: int, count: int) -> list[int]:
    """One seed per rung of a scale ladder: the first state word of each of
    the ``count`` children that ``seed`` spawns."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(count)]


def _event_hits(events, dist: EdgeDistribution, box: LatticeBox, samples,
                seed: int) -> list[int]:
    """Per event, how many of the ``samples`` fields drawn from ``seed`` hold it.

    Every event sees the same fields, one per replicate seed (common random
    numbers).  Passage events with the same end points and the same region
    object share one block-diagonal csgraph solve (faster than Bellman-Ford
    on boxes too big to enumerate), stopped at their largest threshold:
    csgraph's ``limit`` is inclusive and keeps every distance within it
    exact, so each count is, bit for bit, that of a solve stopped at its own
    t.  Every other event runs its compiled test over the fields as weight
    rows.  ``ValueError`` unless ``samples`` is a positive integer.
    """
    rep_seeds = _replicate_seeds(samples, seed)
    hits = [0] * len(events)
    solves: dict[tuple, list[int]] = {}  # (x, y, id(region)) -> indices of its passage events
    for i, event in enumerate(events):
        p = event.params
        if event.kind == "passage_time_at_most":
            solves.setdefault((p["x"], p["y"], id(p["region"])), []).append(i)
            continue
        compiled = _predicate(event, box)
        for start in range(0, samples, compiled.rows):
            W = sample_weight_rows(dist, box, rep_seeds[start:start + compiled.rows])
            hits[i] += int(np.count_nonzero(compiled.test(W)))
    for group in solves.values():
        p = events[group[0]].params
        # csgraph rejects a negative limit; with t < 0 nothing counts anyway
        times = _seeded_passage_times(dist, box, rep_seeds, p["x"], p["y"], p["region"],
                                      limit=max(max(events[i].params["t"] for i in group), 0.0))
        for i in group:
            hits[i] = int(np.count_nonzero(times <= events[i].params["t"]))
    return hits


def monte_carlo_event_probability(
    event: EventSpec,
    dist: EdgeDistribution,
    box: LatticeBox,
    samples: int,
    seed: int = 0,
) -> MCEstimate:
    """Monte-Carlo frequency of an event, with a Wilson confidence interval.

    The hits of :func:`_event_hits` for the one event: one field per
    replicate seed, sampled as weight rows by
    :func:`~fpplab.model.sample_weight_rows`.  ``samples`` must be a
    positive integer, or ``ValueError``.
    """
    (k,) = _event_hits([event], dist, box, samples, seed)
    lo, hi = wilson_interval(k, samples)
    return MCEstimate(p_hat=k / samples, successes=k, samples=samples, ci_low=lo, ci_high=hi)


# ---------------------------------------------------------------------------
# finite-scale rates


@dataclass(frozen=True)
class LDTrendRow:
    """-(1/n) log P(E) of one event at scale n, exact or by Monte Carlo.

    Exact rows carry ``p_exact``, ``ci=None`` and the configuration count
    in ``samples``.  Monte-Carlo rows carry the hit count and the rate
    interval, the decreasing image of the Wilson interval on p.  A row is
    written as its fields.
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
    rate_is_infinite: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "rate_is_infinite",
                           self.rate is not None and math.isinf(self.rate))


def _check_method(method: str, dist: EdgeDistribution) -> None:
    """Raise ``ValueError`` unless :func:`estimate_event_rates` accepts
    ``method`` for ``dist``."""
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" and not dist.is_finite_support:
        raise ValueError("exact method requires a finite-support distribution")


def _rate(p: float, n: int) -> float:
    """-(1/n) log p: ``inf`` at p == 0 and never below ``+0.0``."""
    return math.inf if p <= 0.0 else max(-math.log(p) / n, 0.0) + 0.0


def estimate_event_rates(
    events,
    dist: EdgeDistribution,
    box: LatticeBox,
    n: int,
    samples: int,
    seed: int,
    method: str = "auto",
    enum_cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[LDTrendRow]:
    """-(1/n) log P(event) on ``box`` for each of ``events``, with an interval.

    One decision for the whole list.  It enumerates every event under
    ``method='exact'``, and under ``'auto'`` when the law has finite support
    and every event's configurations fit ``enum_cap``; the cap compares
    s^m, the configurations of the live edges, so events that see the same
    edges are enumerated all or none.  Otherwise it samples one set of
    ``samples`` fields from ``seed`` for all events by :func:`_event_hits`,
    so the rows are dependent while each interval is valid on its own.  The
    rate is ``inf`` at p == 0 and never below ``+0.0``.  A sample with no
    hit is censored: rate ``None``, interval ``(-(1/n) log hi, inf)`` from
    the upper Wilson limit.
    """
    _check_method(method, dist)
    if method != "mc" and dist.is_finite_support:
        try:
            found = [exact_event_probability(ev, dist, box, cap=enum_cap) for ev in events]
        except CapExceededError:
            if method == "exact":
                raise
        else:
            return [LDTrendRow(n=n, method="exact-oracle", p=float(res.p), p_exact=res.p,
                               rate=_rate(float(res.p), n), ci=None, censored=False,
                               samples=res.n_configs, hits=None, seed=seed)
                    for res in found]
    rows = []
    for hits in _event_hits(events, dist, box, samples, seed):
        p = hits / samples
        lo, hi = wilson_interval(hits, samples)
        censored = hits == 0
        rows.append(LDTrendRow(n=n, method="monte-carlo", p=p, p_exact=None,
                               rate=None if censored else _rate(p, n),
                               ci=(_rate(hi, n), math.inf if censored else _rate(lo, n)),
                               censored=censored, samples=samples, hits=hits, seed=seed))
    return rows


# ---------------------------------------------------------------------------
# supermultiplicativity (in-box surrogate)


def _fkg_endpoints(box: LatticeBox, x1, x2) -> tuple[int, int, int]:
    """Vertex ids of 0, x1 and x1 + x2; ``ValueError`` unless x1 and x2 are
    integer vectors and x1 and x1 + x2 are vertices of the box.  The step x2
    itself may point backwards."""
    x1, x2 = (_integral(x).astype(np.int64) for x in (x1, x2))
    if x1.shape != x2.shape:
        raise ValueError("x1 and x2 have different lengths")
    x12 = x1 + x2
    if np.any(x12 < 0) or np.any(x12 > box.side):
        raise ValueError("x1 + x2 must stay in the box")
    return (box.vertex_id(np.zeros(box.dimension, dtype=np.int64)), box.vertex_id(x1),
            box.vertex_id(x12))


@dataclass(frozen=True)
class FKGReport:
    """The three exact probabilities of an FKG check and its slack, written
    as its fields."""

    lhs: Fraction
    factor_first: Fraction
    factor_second: Fraction
    rhs: Fraction
    slack: Fraction
    slack_nonnegative: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "slack_nonnegative", self.slack >= 0)


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
    through the triangle inequality, so the slack is provably nonnegative
    (Harris-FKG).  Each term is one :func:`exact_event_probability` of a
    passage event, so the law and the cap are checked there.
    """
    x0, x1, x12 = (box.vertex_coords(i) for i in _fkg_endpoints(box, x1, x2))
    events = (EventSpec.passage_time_at_most(x0, x12, t1 + t2),
              EventSpec.passage_time_at_most(x0, x1, t1),
              EventSpec.passage_time_at_most(x1, x12, t2))
    lhs, f1, f2 = (exact_event_probability(ev, dist, box, cap).p for ev in events)
    rhs = f1 * f2
    return FKGReport(lhs=lhs, factor_first=f1, factor_second=f2, rhs=rhs, slack=lhs - rhs)


# ---------------------------------------------------------------------------
# analytic bounds


def crude_lower_bound(dist: EdgeDistribution, u, v, t: float):
    """nu([a, t]) ** |u - v|_1, a lower bound for P(T(u, v) <= t |u - v|_1).

    Exact rational when the law's CDF is rational at t; float otherwise.
    Requires integer vertices u and v and t >= the support infimum (below it
    the bound is void).
    """
    if _not_nan(t, "t") < dist.support_infimum:
        raise ValueError("t must be at least the support infimum")
    hops = int(np.abs(_integral(u).astype(np.int64) - _integral(v).astype(np.int64)).sum())
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
    zeta = _not_nan(zeta, "zeta")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
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


def cramer_rate(dist: EdgeDistribution, zeta: float) -> float:
    """Lower-tail large-deviation rate of an i.i.d. sum at level zeta.

    The Legendre transform sup over lam <= 0 of lam zeta - log E[exp(lam tau)].
    Zero at and above the mean; -log nu({a}) at the support infimum a when an
    atom sits there, infinite there otherwise; +inf below the support.
    """
    from scipy.optimize import minimize_scalar  # slow to import; no CLI command needs it
    a = dist.support_infimum
    if _not_nan(zeta, "zeta") < a:
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
                              options={"xatol": _CRAMER_TOL * 1e-3})
        val = -res.fun
        hugging = res.x < -0.99 * L
        improved = val > best + _CRAMER_TOL * 0.1
        best = max(best, val)
        if L >= 1e8 or (not hugging and not improved):
            break
        L *= 4.0
    return max(0.0, best)


def _check_chernoff_args(eps: float, n, hops) -> None:
    """Raise ``ValueError`` naming the first of ``eps``, ``n`` (the scale) and
    ``hops`` that a Chernoff bound cannot take."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not n > 0:
        raise ValueError(f"n must be positive, got {n}")
    if not isinstance(hops, numbers.Integral) or hops < 0:
        raise ValueError(f"hops must be a nonnegative integer, got {hops}")


def chernoff_upper_tail(dist: EdgeDistribution, lam: float, eps: float, n: int, hops: int) -> float:
    """Chernoff bound exp(-lam eps n) E[exp(lam tau)]^hops for the upper tail
    of the passage time: any fixed path with the given hop count witnesses
    P(T >= eps n) <= P(path sum >= eps n) <= this bound."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam}")
    _check_chernoff_args(eps, n, hops)
    log_bound = -lam * eps * n + hops * dist.log_mgf(lam)
    return math.exp(min(log_bound, 700.0))


def chernoff_best_lambda(
    dist: EdgeDistribution,
    eps: float,
    n: int,
    hops: int,
) -> tuple[float, float]:
    """Chernoff bound minimised over ``_CHERNOFF_LAMBDAS``; returns (best lam, best bound)."""
    # checked before the grid, whose loop takes a ValueError for a diverging mgf
    _check_chernoff_args(eps, n, hops)
    best_lam, best_bound = None, math.inf
    for lam in _CHERNOFF_LAMBDAS:
        try:
            bnd = chernoff_upper_tail(dist, float(lam), eps, n, hops)
        except ValueError:
            continue
        if bnd < best_bound:
            best_lam, best_bound = float(lam), bnd
    if best_lam is None:
        raise ValueError("no finite bound on the grid (mgf diverges everywhere)")
    return best_lam, best_bound
