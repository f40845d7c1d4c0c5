"""Exact enumeration oracle, Monte-Carlo companion, and probability bounds."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab.model import EdgeDistribution, LatticeBox, sample_weight_rows, sample_weights, truncate
from fpplab.oracle import (
    CapExceededError,
    EventSpec,
    chernoff_best_lambda,
    chernoff_upper_tail,
    cramer_rate,
    crude_lower_bound,
    estimate_event_rates,
    exact_event_probability,
    fkg_supermultiplicativity_check,
    iid_sum_lower_tail_rate,
    monte_carlo_event_probability,
    wilson_interval,
)
from fpplab.geometry import NormPlusHighways
from fpplab.oracle import _live_edges, _predicate
from fpplab.passage_time import (_BLOCK_VERTICES, _arc_table, _batched_distances,
                                 _region_mask, _seeded_passage_times, _solve_rows, hub_check)
from reference import reference_dijkstra

TP = EdgeDistribution.two_point(1, 2, Fraction(1, 2))


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


def test_single_step_event_is_one_half():
    box = LatticeBox(2, 1)
    ev = EventSpec.passage_time_at_most((0, 0), (1, 0), 1.0)
    res = exact_event_probability(ev, TP, box)
    assert res.p == Fraction(1, 2)


def test_corner_to_corner_event_is_seven_sixteenths():
    box = LatticeBox(2, 1)
    ev = EventSpec.passage_time_at_most((0, 0), (1, 1), 2.0)
    res = exact_event_probability(ev, TP, box)
    assert res.p == Fraction(7, 16)
    assert res.n_configs == 16
    assert res.n_satisfying == 7
    assert res.numerator == 7 and res.denominator == 16


def test_exact_probability_brute_force_cross_check():
    """Re-derive the corner event by explicit enumeration over all 2^4 fields."""
    hits = 0
    for combo in itertools.product([1.0, 2.0], repeat=4):
        # edges of the unit square: bottom, top, left, right
        bottom, top, left, right = combo
        t = min(bottom + right, left + top)
        if t <= 2.0:
            hits += 1
    assert Fraction(hits, 16) == Fraction(7, 16)


def test_region_event_thin_strip():
    box = LatticeBox(2, 1)
    ev = EventSpec.passage_time_at_most((0, 0), (1, 0), 1.0, region=((0, 1), (0, 0)))
    res = exact_event_probability(ev, TP, box)
    assert res.p == Fraction(1, 2)
    assert res.n_configs == 2  # only the single live edge is enumerated


def test_nonuniform_law_exact_probability():
    skew = EdgeDistribution.two_point(1, 2, Fraction(1, 3))
    box = LatticeBox(2, 1)
    ev = EventSpec.passage_time_at_most((0, 0), (1, 0), 1.0)
    res = exact_event_probability(ev, skew, box)
    assert res.p == Fraction(1, 3)
    assert res.n_satisfying == 8  # the edge from (0, 0) to (1, 0) is light


def test_cap_exceeded_carries_counts():
    box = LatticeBox(2, 3)
    ev = EventSpec.passage_time_at_most((0, 0), (3, 3), 6.0)
    with pytest.raises(CapExceededError) as ei:
        exact_event_probability(ev, TP, box, cap=100)
    assert ei.value.required == 2 ** box.n_edges
    assert ei.value.cap == 100


def test_exact_rejects_continuous_law():
    box = LatticeBox(2, 1)
    ev = EventSpec.passage_time_at_most((0, 0), (1, 0), 1.0)
    with pytest.raises(ValueError):
        exact_event_probability(ev, EdgeDistribution.uniform(0, 1), box)


# ---------------------------------------------------------------------------
# Monte-Carlo companion
# ---------------------------------------------------------------------------


def test_mc_matches_exact_within_three_se():
    box = LatticeBox(2, 1)
    ev = EventSpec.passage_time_at_most((0, 0), (1, 1), 2.0)
    mc = monte_carlo_event_probability(ev, TP, box, samples=400, seed=0)
    assert mc.samples == 400
    assert mc.successes == round(mc.p_hat * 400)
    p = 7 / 16
    se = math.sqrt(p * (1 - p) / 400)
    assert abs(mc.p_hat - p) <= 3 * se
    assert mc.ci_low <= p <= mc.ci_high


def test_mc_is_seed_deterministic():
    box = LatticeBox(2, 1)
    ev = EventSpec.passage_time_at_most((0, 0), (1, 1), 2.0)
    a = monte_carlo_event_probability(ev, TP, box, samples=100, seed=5)
    b = monte_carlo_event_probability(ev, TP, box, samples=100, seed=5)
    assert a.p_hat == b.p_hat and a.successes == b.successes


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 50)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi > 0.0
    lo, hi = wilson_interval(50, 50)
    assert hi == pytest.approx(1.0) and lo < 1.0
    lo, hi = wilson_interval(25, 50)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def _test_rows(compiled, W):
    """The compiled test of every row of W, a batch at a time."""
    return np.concatenate([compiled.test(W[a:a + compiled.rows])
                           for a in range(0, len(W), compiled.rows)])


def test_threshold_events_are_decreasing():
    # the factoring walk settles a subtree from its two bounds, which is exact
    # only because raising an edge weight never creates an event of any kind
    law = EdgeDistribution.finite_support([1.0, 1.5, 2.0],
                                          [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    box = LatticeBox(2, 2)
    W = sample_weight_rows(law, box, np.random.SeedSequence(1).generate_state(64, np.uint64))
    top = law.atoms()[0][-1]
    metric = NormPlusHighways(weights=[1.5, 1.5], highways=[])
    for event in (EventSpec.passage_time_at_most((0, 0), (2, 1), 4.0, region=((0, 2), (0, 1))),
                  EventSpec.ld_lower(metric, 0.25), EventSpec.hub((1, 1), 1.5)):
        compiled = _predicate(event, box)
        before = _test_rows(compiled, W)
        assert 0 < before.sum() < len(W), event.name
        destroyed = 0
        for e in range(box.n_edges):
            raised = W.copy()
            raised[:, e] = top
            after = _test_rows(compiled, raised)
            assert not np.any(after & ~before), (event.name, e)
            destroyed += int(np.count_nonzero(before & ~after))
        assert destroyed > 0, event.name


# ---------------------------------------------------------------------------
# FKG supermultiplicativity
# ---------------------------------------------------------------------------


def test_fkg_slack_nonnegative_exhaustive_grid():
    box = LatticeBox(2, 1)
    for t1 in (1.0, 1.5, 2.0):
        for t2 in (1.0, 1.5, 2.0):
            rep = fkg_supermultiplicativity_check(
                TP, box, (1, 0), (0, 1), t1, t2, cap=1 << 12)
            assert isinstance(rep.slack, Fraction)
            assert rep.slack >= 0
            assert rep.lhs == rep.rhs + rep.slack
            assert rep.rhs == rep.factor_first * rep.factor_second


def test_fkg_slack_known_value():
    box = LatticeBox(2, 2)
    rep = fkg_supermultiplicativity_check(
        TP, box, (1, 0), (1, 0), 1.5, 1.5, cap=1 << 14)
    assert rep.slack == Fraction(1, 2)


def test_fkg_checks_law_and_cap_before_any_walk(monkeypatch):
    import fpplab.oracle

    def no_walk(*args):
        pytest.fail("the factoring walk ran past a failed precondition")

    monkeypatch.setattr(fpplab.oracle, "_enumerate", no_walk)
    box = LatticeBox(2, 2)
    with pytest.raises(CapExceededError) as ei:
        fkg_supermultiplicativity_check(TP, box, (1, 0), (1, 0), 1.5, 1.5,
                                        cap=2 ** box.n_edges - 1)
    assert (ei.value.required, ei.value.cap) == (2 ** box.n_edges, 2 ** box.n_edges - 1)
    with pytest.raises(ValueError, match="finite-support"):
        fkg_supermultiplicativity_check(EdgeDistribution.uniform(1, 2), box,
                                        (1, 0), (1, 0), 1.5, 1.5)


# ---------------------------------------------------------------------------
# crude bound, Cramer chain, Chernoff
# ---------------------------------------------------------------------------


def test_crude_lower_bound_tight_on_straight_line():
    # per-edge threshold 1.25 on a two-edge straight segment: the bound
    # cdf(1.25)^2 = 1/4 equals the true P(both edges light) exactly
    box = LatticeBox(2, 2)
    bound = crude_lower_bound(TP, (0, 0), (2, 0), 1.25)
    assert bound == Fraction(1, 4)
    ev = EventSpec.passage_time_at_most((0, 0), (2, 0), 2.5)
    exact = exact_event_probability(ev, TP, box).p
    assert bound <= exact


def test_crude_lower_bound_below_exact_on_grid():
    box = LatticeBox(2, 2)
    pairs = [((0, 0), (1, 0)), ((0, 0), (2, 0)), ((0, 0), (1, 1)), ((0, 0), (2, 2))]
    for u, v in pairs:
        l1 = abs(u[0] - v[0]) + abs(u[1] - v[1])
        for t in (1.0, 1.3, 1.8, 2.0):
            bound = crude_lower_bound(TP, u, v, t)
            ev = EventSpec.passage_time_at_most(u, v, t * l1)
            exact = exact_event_probability(ev, TP, box, cap=1 << 14).p
            assert bound <= exact


def test_iid_lower_tail_rate_log2_at_floor():
    # P(sum of n weights <= n) = 2^{-n}: rate is exactly log 2
    assert iid_sum_lower_tail_rate(TP, 1.0, 4) == pytest.approx(math.log(2), abs=1e-12)
    # zeta below the support infimum is impossible: infinite rate
    assert iid_sum_lower_tail_rate(TP, 0.5, 4) == math.inf
    # at the mean the finite-n event still excludes configurations:
    # P(S_4 <= 6) = 11/16, so the rate is positive but modest
    assert iid_sum_lower_tail_rate(TP, 1.5, 4) == pytest.approx(
        -math.log(11 / 16) / 4, abs=1e-12)
    # at the support supremum the event is sure
    assert iid_sum_lower_tail_rate(TP, 2.0, 4) == 0.0


def test_iid_rate_dominates_cramer_rate():
    for zeta in (1.0, 1.1, 1.2, 1.35, 1.5):
        for n in (2, 4, 8):
            finite_n = iid_sum_lower_tail_rate(TP, zeta, n)
            asym = cramer_rate(TP, zeta)
            assert finite_n >= asym - 1e-12


def test_cramer_rate_closed_form_two_point():
    # at zeta = 1 the optimal tilt puts all mass on the light atom: rate log 2
    assert cramer_rate(TP, 1.0) == pytest.approx(math.log(2), abs=1e-9)
    assert cramer_rate(TP, 1.5) == 0.0
    # relative entropy form at an interior zeta
    zeta = 1.25
    q = 2.0 - zeta  # mass on the light atom under the tilted law
    want = q * math.log(q / 0.5) + (1 - q) * math.log((1 - q) / 0.5)
    assert cramer_rate(TP, zeta) == pytest.approx(want, abs=1e-7)


def test_chernoff_formula_and_optimum():
    lam, eps, n, hops = 0.8, 1.8, 4, 4
    want = math.exp(-lam * eps * n + hops * TP.log_mgf(lam))
    assert chernoff_upper_tail(TP, lam, eps, n, hops) == pytest.approx(want, rel=1e-12)
    best_lam, best = chernoff_best_lambda(TP, eps, n, hops)
    assert best <= want
    assert best == chernoff_upper_tail(TP, best_lam, eps, n, hops)
    with pytest.raises(ValueError):
        chernoff_upper_tail(TP, -0.1, eps, n, hops)


_MC_EVENT = EventSpec.passage_time_at_most([0, 0], [1, 1], 2.0)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: crude_lower_bound(TP, (0, 0), (2, 0), math.nan), "t must",
                 id="crude-nan-t"),
    pytest.param(lambda: cramer_rate(TP, math.nan), "zeta must", id="cramer-nan-zeta"),
    pytest.param(lambda: iid_sum_lower_tail_rate(TP, math.nan, 3), "zeta must",
                 id="iid-nan-zeta"),
    pytest.param(lambda: iid_sum_lower_tail_rate(TP, 1.5, 0), "n must", id="iid-zero-n"),
    pytest.param(lambda: chernoff_upper_tail(TP, math.nan, 1.8, 4, 4), "lam must",
                 id="chernoff-nan-lam"),
    pytest.param(lambda: chernoff_upper_tail(TP, math.inf, 1.8, 4, 4), "lam must",
                 id="chernoff-inf-lam"),
    pytest.param(lambda: chernoff_upper_tail(TP, 0.8, math.nan, 4, 4), "eps must",
                 id="chernoff-nan-eps"),
    pytest.param(lambda: chernoff_best_lambda(TP, 0.0, 4, 4), "eps must",
                 id="best-lambda-zero-eps"),
    pytest.param(lambda: chernoff_upper_tail(TP, 0.8, 1.8, -4, 4), "n must",
                 id="chernoff-negative-n"),
    pytest.param(lambda: chernoff_upper_tail(TP, 0.8, 1.8, 0, 4), "n must",
                 id="chernoff-zero-n"),
    pytest.param(lambda: chernoff_upper_tail(TP, 0.8, 1.8, 4, -4), "hops must",
                 id="chernoff-negative-hops"),
    pytest.param(lambda: chernoff_upper_tail(TP, 0.8, 1.8, 4, 2.5), "hops must",
                 id="chernoff-fractional-hops"),
    pytest.param(lambda: chernoff_best_lambda(TP, 1.8, -4, 4), "n must",
                 id="best-lambda-negative-n"),
    pytest.param(lambda: chernoff_best_lambda(TP, 1.8, 4, -4), "hops must",
                 id="best-lambda-negative-hops"),
    pytest.param(lambda: wilson_interval(5, 3), "k in 0..n", id="wilson-k-above-n"),
    pytest.param(lambda: wilson_interval(-1, 3), "k in 0..n", id="wilson-negative-k"),
    pytest.param(lambda: monte_carlo_event_probability(_MC_EVENT, TP, LatticeBox(2, 1), -1),
                 "samples must", id="mc-negative-samples"),
    pytest.param(lambda: monte_carlo_event_probability(_MC_EVENT, TP, LatticeBox(2, 1), 0),
                 "samples must", id="mc-zero-samples"),
    pytest.param(lambda: monte_carlo_event_probability(_MC_EVENT, TP, LatticeBox(2, 1), 2.5),
                 "samples must", id="mc-fractional-samples"),
])
def test_analytic_bounds_reject_bad_arguments(call, match):
    # each returned 0, inf or nan, a "bound" above 1 or below the true tail
    # (a negative n or hops), or failed in arithmetic, or blamed the wrong
    # argument: a diverging mgf for an eps of zero.  The Monte-Carlo sample
    # counts failed in numpy (-1), in the Wilson interval (0) or with a
    # TypeError (2.5), none naming samples
    with pytest.raises(ValueError, match=match):
        call()


def test_chernoff_best_lambda_of_a_truncated_exponential():
    # the law is bounded, so lam above the base rate 1 gives finite bounds
    law = truncate(EdgeDistribution.exponential(1.0), 2.0)
    lam, bound = chernoff_best_lambda(law, 1.8, 4, 4)
    assert lam > 1.0 and 0.0 < bound < 1.0


def test_chernoff_bound_respected_empirically():
    lam, eps = 0.8, 1.8
    box = LatticeBox(2, 4)
    n, hops = 4, 4
    _, bound = chernoff_best_lambda(TP, eps, n, hops)
    rng_seeds = np.random.SeedSequence(17).generate_state(400, np.uint64)
    hits = 0
    for s in rng_seeds:
        field = sample_weights(TP, box, int(s))
        from fpplab.passage_time import restricted_passage_time
        if restricted_passage_time(field, (0, 0), (4, 0)) >= eps * n:
            hits += 1
    assert hits / 400 <= bound


# ---------------------------------------------------------------------------
# batched enumeration against per-configuration references
# ---------------------------------------------------------------------------


def _all_configs(values, n_edges):
    return np.array(list(itertools.product(values, repeat=n_edges)), dtype=float)


@pytest.mark.parametrize("d, n, values, region", [
    (2, 1, (0.0, 0.3), None),
    (2, 2, (0.1, 0.7), None),
    (3, 1, (0.1, 0.2), None),
    (2, 2, (0.0, 0.3), [(0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2)]),
])
def test_batched_distances_equal_reference_dijkstra(d, n, values, region):
    box = LatticeBox(d, n)
    mask = None
    if region is not None:
        mask = np.zeros(box.n_vertices, dtype=bool)
        for v in region:
            mask[box.vertex_id(v)] = True
    sources = np.array([0, box.n_vertices // 2, box.n_vertices - 1])  # all in the region
    W = _all_configs(values, box.n_edges)
    nbr, eid = _arc_table(box, mask)
    got = _batched_distances(W, sources, nbr, eid)
    for b, w in enumerate(W):
        for k, s in enumerate(sources):
            want = reference_dijkstra(box, w, int(s), mask)
            assert np.array_equal(got[b, k], want), (b, int(s))


def test_three_atom_law_matches_per_configuration_product():
    # an atom at 0 and non-dyadic atoms and probabilities: every configuration
    # gets its own Fraction product in the reference
    law = EdgeDistribution.finite_support([0.0, 0.3, 0.7],
                                          [Fraction(1, 5), Fraction(1, 3), Fraction(7, 15)])
    values, probs = law.atoms()
    box = LatticeBox(2, 1)
    want = {"event": Fraction(0), "lhs": Fraction(0), "f1": Fraction(0), "f2": Fraction(0)}
    hits = 0
    for combo in itertools.product(range(3), repeat=box.n_edges):
        w = np.array([values[i] for i in combo])
        cp = math.prod((probs[i] for i in combo), start=Fraction(1))
        d0 = reference_dijkstra(box, w, box.vertex_id((0, 0)))
        d1 = reference_dijkstra(box, w, box.vertex_id((1, 0)))
        want["event"] += cp * bool(d0[box.vertex_id((1, 1))] <= 0.7)
        hits += bool(d0[box.vertex_id((1, 1))] <= 0.7)
        want["lhs"] += cp * bool(d0[box.vertex_id((1, 1))] <= 0.3 + 0.7)
        want["f1"] += cp * bool(d0[box.vertex_id((1, 0))] <= 0.3)
        want["f2"] += cp * bool(d1[box.vertex_id((1, 1))] <= 0.7)
    res = exact_event_probability(EventSpec.passage_time_at_most((0, 0), (1, 1), 0.7),
                                  law, box)
    assert res.p == want["event"]
    assert res.n_configs == 81 and res.n_satisfying == hits
    rep = fkg_supermultiplicativity_check(law, box, (1, 0), (0, 1), 0.3, 0.7)
    assert (rep.lhs, rep.factor_first, rep.factor_second) == (
        want["lhs"], want["f1"], want["f2"])


@pytest.mark.parametrize("p_lo", [Fraction(1, 2), Fraction(1, 3)])
def test_partial_last_batch_is_enumerated(p_lo, monkeypatch):
    # three rows a batch: every block of more than three nodes is taken in
    # parts, the last one often short, and so are the bound tests of a part
    import fpplab.oracle

    monkeypatch.setattr(fpplab.oracle, "_batch_rows", lambda box, n_sources: 3)
    law = EdgeDistribution.two_point(1, 2, p_lo)
    box = LatticeBox(2, 2)
    ev = EventSpec.passage_time_at_most((0, 0), (2, 1), 4.0)
    assert _predicate(ev, box).rows == 3
    W = _all_configs((1.0, 2.0), box.n_edges)
    target = box.vertex_id((2, 1))
    hits = [reference_dijkstra(box, w, 0)[target] <= 4.0 for w in W]
    res = exact_event_probability(ev, law, box)
    assert res.n_configs == 4096
    assert res.n_satisfying == sum(hits)
    want = sum((p_lo ** int((w == 1.0).sum()) * (1 - p_lo) ** int((w == 2.0).sum())
                for w, hit in zip(W, hits) if hit), Fraction(0))
    assert res.p == want


def test_region_event_counts_only_live_configurations():
    box = LatticeBox(2, 2)
    ev = EventSpec.passage_time_at_most((0, 0), (2, 1), 4.0, region=((0, 2), (0, 1)))
    res = exact_event_probability(ev, TP, box)
    assert res.n_configs == 2 ** 7  # the 7 edges of the 3 x 2 strip
    assert res.p == Fraction(13, 16) and res.n_satisfying == 104


def test_mc_successes_at_frozen_seeds():
    # pinned from the per-field heap engine: batching must not move a count
    corner = EventSpec.passage_time_at_most((0, 0), (1, 1), 2.0)
    assert monte_carlo_event_probability(corner, TP, LatticeBox(2, 1), 400, seed=0).successes == 157
    assert monte_carlo_event_probability(corner, TP, LatticeBox(2, 1), 100, seed=5).successes == 36
    far = EventSpec.passage_time_at_most((0, 0), (8, 8), 19.0)
    assert _BLOCK_VERTICES // LatticeBox(2, 8).n_vertices < 300  # spans several chunks
    assert monte_carlo_event_probability(far, TP, LatticeBox(2, 8), 300, seed=3).successes == 253
    law = EdgeDistribution.finite_support([0.0, 0.3, 0.7],
                                          [Fraction(1, 5), Fraction(1, 3), Fraction(7, 15)])
    strip = EventSpec.passage_time_at_most((0, 0), (4, 1), 1.2, region=((0, 4), (0, 1)))
    assert monte_carlo_event_probability(strip, law, LatticeBox(2, 4), 300, seed=11).successes == 79


_EXP1 = EdgeDistribution.exponential(1.0)


@pytest.mark.parametrize("law, n, x, y, t, region", [
    # thresholds at sums of the atoms 1 and 2, so some fields meet T == t
    (TP, 3, (0, 0), (3, 3), 6.0, None),
    (TP, 3, (0, 0), (3, 3), 8.0, None),
    (TP, 3, (0, 0), (3, 3), 9.0, None),
    (_EXP1, 4, (0, 0), (4, 4), 5.0, None),
    (TP, 4, (0, 0), (4, 1), 6.0, ((0, 4), (0, 1))),
    (TP, 3, (0, 0), (3, 3), -1.0, None),
    (_EXP1, 3, (0, 0), (3, 3), math.inf, None),
], ids=["tie-low", "tie-mid", "tie-high", "exponential", "region", "negative-t", "infinite-t"])
def test_mc_early_stop_counts_equal_the_full_solve(law, n, x, y, t, region):
    """The Monte-Carlo solve stops at t; its hits are those of the full solve."""
    box, samples, seed = LatticeBox(2, n), 300, 4
    ev = EventSpec.passage_time_at_most(x, y, t, region=region)
    mc = monte_carlo_event_probability(ev, law, box, samples, seed)
    rep_seeds = np.random.SeedSequence(seed).generate_state(samples, np.uint64)
    full = _seeded_passage_times(law, box, rep_seeds, x, y, region)
    assert mc.successes == np.count_nonzero(full <= t)
    stopped = _seeded_passage_times(law, box, rep_seeds, x, y, region, limit=max(t, 0.0))
    assert stopped.tobytes() == np.where(full <= max(t, 0.0), full, math.inf).tobytes()
    if law is TP and t >= 0:
        assert np.any(full == t)  # the inclusive limit keeps these fields
    if t < 0:
        assert mc.successes == 0
    if math.isinf(t):
        assert mc.successes == samples


def test_event_rate_enumerates_or_falls_back_to_monte_carlo():
    ev = EventSpec.passage_time_at_most((0, 0), (2, 1), 4.0)
    box = LatticeBox(2, 2)  # 12 edges: 4096 configurations
    (exact,) = estimate_event_rates([ev], TP, box, 2, 100, 5, "auto", enum_cap=4096)
    assert (exact.method, exact.ci, exact.samples, exact.seed) == ("exact-oracle", None, 4096, 5)
    assert exact.rate == -math.log(float(exact.p_exact)) / 2
    (mc,) = estimate_event_rates([ev], TP, box, 2, 100, 5, "auto", enum_cap=4095)
    assert (mc.method, mc.p_exact, mc.samples, mc.seed) == ("monte-carlo", None, 100, 5)
    assert mc.hits == monte_carlo_event_probability(ev, TP, box, 100, seed=5).successes
    assert mc.ci[0] <= mc.rate <= mc.ci[1]
    with pytest.raises(CapExceededError):
        estimate_event_rates([ev], TP, box, 2, 100, 5, "exact", enum_cap=4095)
    with pytest.raises(ValueError, match="finite-support"):
        estimate_event_rates([ev], EdgeDistribution.exponential(1.0), box, 2, 10, 0, "exact")
    with pytest.raises(ValueError, match="unknown method"):
        estimate_event_rates([ev], TP, box, 2, 10, 0, "fast")


def _one_event_calls(events, *args):
    return [row for ev in events for row in estimate_event_rates([ev], *args)]


def test_event_rates_of_shared_passage_events_equal_one_event_calls():
    # three thresholds on both sides of a typical T((0,0),(6,0)) under
    # Exp(1): one solve stopped at the largest, one count per threshold
    law, box = EdgeDistribution.exponential(1.0), LatticeBox(2, 6)
    events = [EventSpec.passage_time_at_most((0, 0), (6, 0), t) for t in (0.5, 2.5, 5.0)]
    rows = estimate_event_rates(events, law, box, 6, 80, 7)
    assert rows == _one_event_calls(events, law, box, 6, 80, 7)
    assert [r.method for r in rows] == ["monte-carlo"] * 3
    hits = [r.hits for r in rows]
    assert hits == sorted(hits) and hits[0] < 80 // 2 < hits[-1]


def test_exact_event_rates_equal_one_event_calls():
    box = LatticeBox(2, 2)
    events = [EventSpec.passage_time_at_most((0, 0), (2, 1), t) for t in (3.0, 4.0, 5.0)]
    rows = estimate_event_rates(events, TP, box, 2, 100, 5)
    assert rows == _one_event_calls(events, TP, box, 2, 100, 5)
    assert [(r.method, r.samples) for r in rows] == [("exact-oracle", 4096)] * 3


def test_event_rates_of_mixed_events_count_each_events_hits():
    # ld_lower and hub events run their compiled tests on the shared fields;
    # passage events with other end points get a solve of their own
    law, box = EdgeDistribution.exponential(1.0), LatticeBox(2, 2)
    events = [EventSpec.ld_lower(NormPlusHighways([0.9, 0.9], []), 1.5),
              EventSpec.passage_time_at_most((0, 0), (2, 2), 2.5),
              EventSpec.hub((1, 1), 1.6),
              EventSpec.passage_time_at_most((0, 0), (1, 2), 2.0)]
    rows = estimate_event_rates(events, law, box, 2, 50, 3)
    assert [r.hits for r in rows] == [
        monte_carlo_event_probability(ev, law, box, 50, 3).successes for ev in events]
    assert rows == _one_event_calls(events, law, box, 2, 50, 3)


def test_hub_event_values_are_pinned():
    # exact Fractions and frozen-seed Monte-Carlo hits of hub events, pinned
    # from the per-field hub check the batched hub test replaced
    fixture = exact_event_probability(EventSpec.hub((0, 0), 2.0),
                                      EdgeDistribution.two_point(1.0, 2.0, 0.5), LatticeBox(2, 1))
    assert (fixture.p, fixture.n_configs, fixture.n_satisfying) == (Fraction(1), 16, 16)
    zero_atom = EdgeDistribution.two_point(0, 3, Fraction(1, 3))
    assert exact_event_probability(EventSpec.hub((1, 1), 1.5), TP, LatticeBox(2, 2)).p == \
        Fraction(1, 16)
    assert exact_event_probability(EventSpec.hub((0, 0), 1.5), zero_atom, LatticeBox(2, 2)).p == \
        Fraction(78173, 531441)
    assert exact_event_probability(EventSpec.hub((0, 0, 0), 1.5), TP, LatticeBox(3, 1)).p == \
        Fraction(511, 4096)
    for event, law, box, samples, seed, hits in [
        (EventSpec.hub((0, 0), 2.0), TP, LatticeBox(2, 1), 400, 0, 400),
        (EventSpec.hub((2, 2), 1.6), TP, LatticeBox(2, 4), 300, 3, 12),
        (EventSpec.hub((0, 0), 1.2), zero_atom, LatticeBox(2, 6), 200, 7, 3),
        (EventSpec.hub((1, 1, 1), 1.6), EdgeDistribution.exponential(1.0), LatticeBox(3, 2), 200,
         9, 151),
    ]:
        assert monte_carlo_event_probability(event, law, box, samples, seed).successes == hits


# ---------------------------------------------------------------------------
# the factoring walk against a brute-force walk
# ---------------------------------------------------------------------------


def _brute_force(event, law, box):
    """(p, n_configs, n_satisfying) of an event by testing every configuration
    of its live edges and adding its exact atom-probability product."""
    values, probs = law.atoms()
    live = _live_edges(event, box)
    idx = np.array(list(itertools.product(range(len(values)), repeat=len(live))),
                   dtype=np.int64).reshape(len(values) ** len(live), len(live))
    W = np.full((len(idx), box.n_edges), values[0])
    W[:, live] = np.asarray(values)[idx]
    hits = _test_rows(_predicate(event, box), W)
    product = {}
    p = Fraction(0)
    for row in idx[hits]:
        mult = tuple(np.bincount(row, minlength=len(values)).tolist())
        if mult not in product:
            product[mult] = math.prod((q ** c for q, c in zip(probs, mult)), start=Fraction(1))
        p += product[mult]
    return p, len(idx), int(hits.sum())


_LAWS = {
    "half": TP,
    "third": EdgeDistribution.two_point(1, 2, Fraction(1, 3)),
    "three-atom": EdgeDistribution.finite_support([1.0, 1.5, 2.0],
                                                  [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]),
    "zero-atom": EdgeDistribution.two_point(0, 3, Fraction(1, 3)),
    "tenths": EdgeDistribution.two_point(0.1, 0.2, Fraction(1, 2)),
    "non-dyadic-three": EdgeDistribution.finite_support(
        [0.0, 0.3, 0.7], [Fraction(1, 5), Fraction(1, 3), Fraction(7, 15)]),
}

# three-atom laws on the 12-edge boxes would need 3^12 brute-force tests per event
_CELLS = [(law, d, n) for law in ("half", "third", "zero-atom", "tenths")
          for d, n in ((2, 1), (2, 2), (3, 1))]
_CELLS += [(law, 2, 1) for law in ("three-atom", "non-dyadic-three")]


def _battery_events(law, d, n):
    """Passage (whole box and a region), ld_lower and hub events of one cell,
    with thresholds on float sums of atoms, where a path's time can tie them."""
    values, _ = law.atoms()
    lo, hi = values[0], values[-1]
    origin, far, axis_end = (0,) * d, (n,) * d, (n,) + (0,) * (d - 1)
    hops = d * n
    ties = {hops * lo, (hops - 1) * lo + hi, sum([lo, hi] * (hops // 2)) + lo * (hops % 2)}
    events = [EventSpec.passage_time_at_most(origin, far, t) for t in sorted(ties)]
    events.append(EventSpec.passage_time_at_most(origin, axis_end, n * lo + (n - 1) * (hi - lo)))
    strip = ((0, n),) + ((0, 0),) * (d - 2) + ((0, 1),)
    events.append(EventSpec.passage_time_at_most(origin, (n,) + (0,) * (d - 2) + (1,),
                                                 n * lo + hi, region=strip))
    metric = NormPlusHighways(weights=[(lo + hi) / 2] * d, highways=[])
    events += [EventSpec.ld_lower(metric, eps) for eps in ((hi - lo) / 2, (hi - lo) / 4)]
    events += [EventSpec.hub(origin, kappa) for kappa in ((lo + hi) / 2, (3 * lo + hi) / 4)]
    return events


@pytest.mark.parametrize("law, d, n", _CELLS)
def test_factoring_walk_equals_brute_force(law, d, n):
    dist, box = _LAWS[law], LatticeBox(d, n)
    for event in _battery_events(dist, d, n):
        res = exact_event_probability(event, dist, box)
        assert (res.p, res.n_configs, res.n_satisfying) == _brute_force(event, dist, box), \
            event.name


@pytest.mark.parametrize("law, d, n", _CELLS)
def test_factoring_walk_equals_brute_force_on_fkg_terms(law, d, n):
    dist, box = _LAWS[law], LatticeBox(d, n)
    values, _ = dist.atoms()
    x0, x1 = (0,) * d, (1,) + (0,) * (d - 1)
    x2 = (n - 1,) + (1,) * (d - 1)
    x12 = tuple(a + b for a, b in zip(x1, x2))
    t1, t2 = values[0], sum(values[:1] * (sum(x2) - 1), values[-1])
    rep = fkg_supermultiplicativity_check(dist, box, x1, x2, t1, t2)
    want = [_brute_force(EventSpec.passage_time_at_most(a, b, t), dist, box)[0]
            for a, b, t in ((x0, x12, t1 + t2), (x0, x1, t1), (x1, x12, t2))]
    assert [rep.lhs, rep.factor_first, rep.factor_second] == want


def test_pinned_tie_of_non_dyadic_atoms():
    # 0.1 + 0.2 = 0.30000000000000004 > 0.3: at t = 0.3 only an all-0.1 path
    # meets the threshold, at the next float up any light edge does
    box = LatticeBox(2, 1)
    law = _LAWS["tenths"]
    for t, want in ((0.3, Fraction(7, 16)), (0.30000000000000004, Fraction(15, 16))):
        event = EventSpec.passage_time_at_most((0, 0), (1, 1), t)
        res = exact_event_probability(event, law, box)
        assert res.p == want
        assert (res.p, res.n_configs, res.n_satisfying) == _brute_force(event, law, box)


def test_walk_of_a_large_axis_cell_stays_small_and_fast():
    # 2^24 configurations; the walk settles them after a few dozen bound tests
    import time
    import tracemalloc

    event = EventSpec.passage_time_at_most((0, 0), (3, 0), 4.0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        res = exact_event_probability(event, TP, LatticeBox(2, 3))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.p, res.n_configs, res.n_satisfying) == (Fraction(1, 2), 16777216, 8388608)
    assert res.rows_tested == 12
    assert elapsed < 1.0
    assert peak <= 32 * 2 ** 20


def test_rows_tested_on_the_diagonal_cell():
    # the walk's cost in rows, bound rows and leaves alike: a faster kernel
    # makes each row cheaper, and this count shows that it tests no fewer
    event = EventSpec.passage_time_at_most((0, 0), (3, 3), 8.4)
    res = exact_event_probability(event, TP, LatticeBox(2, 3))
    assert (res.p, res.n_configs) == (Fraction(7735709, 8388608), 16777216)
    assert res.rows_tested == 859756


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("p_lo", [Fraction(1, 2), Fraction(1, 3)])
def test_axis_cell_beyond_int64_is_the_closed_form(n, p_lo):
    # T((0,0),(n,0)) <= n under {1, 2}: only the straight path of n light
    # edges meets it, so p = p_lo^n.  2^(2n(n+1)) configurations, far past
    # int64, which the class counts once overflowed
    box = LatticeBox(2, n)
    event = EventSpec.passage_time_at_most((0, 0), (n, 0), n)
    res = exact_event_probability(event, EdgeDistribution.two_point(1, 2, p_lo), box,
                                  cap=1 << 300)
    assert res.p == p_lo ** n
    assert res.n_configs == 2 ** box.n_edges
    assert res.n_satisfying == 2 ** (box.n_edges - n)


def test_library_events_reject_non_integer_vertices():
    # int() used to truncate them: (2.9, 0) named (2, 0) and (0.5, 1) named (0, 1)
    with pytest.raises(ValueError, match="integers"):
        EventSpec.passage_time_at_most((0, 0), (2.9, 0), 3)
    with pytest.raises(ValueError, match="integers"):
        EventSpec.passage_time_at_most((0.5, 0), (2, 0), 3)
    with pytest.raises(ValueError, match="integers"):
        EventSpec.hub((0.5, 1), 2)
    # nor do the FKG check and the crude bound: x1 = (1.5, 0) was checked as
    # (1, 0) with slack 1/2, and (0.5, 0) bounded as the point (0, 0)
    with pytest.raises(ValueError, match="integers"):
        fkg_supermultiplicativity_check(TP, LatticeBox(2, 2), (1.5, 0), (0.5, 0), 1.5, 1.5)
    with pytest.raises(ValueError, match="integers"):
        fkg_supermultiplicativity_check(TP, LatticeBox(2, 2), (1, 0), (0.5, 0), 1.5, 1.5)
    with pytest.raises(ValueError, match="integers"):
        crude_lower_bound(TP, (0.5, 0), (2, 0), 1.25)
    # integral floats name their vertex
    assert EventSpec.passage_time_at_most((0.0, 0), (2.0, 0), 3).params["y"] == (2, 0)
    assert EventSpec.hub((1.0, 1), 2).params["x"] == (1, 1)
    assert crude_lower_bound(TP, (0.0, 0), (2.0, 0), 1.25) == Fraction(1, 4)
    assert fkg_supermultiplicativity_check(TP, LatticeBox(2, 2), (1.0, 0), (1.0, 0), 1.5,
                                           1.5).slack == Fraction(1, 2)


def test_passage_event_rejects_nan_threshold():
    # a NaN t made every comparison false: p = 0, exact and sampled
    with pytest.raises(ValueError, match="NaN"):
        EventSpec.passage_time_at_most((0, 0), (1, 1), math.nan)


def test_ld_lower_event_rejects_nan_eps():
    # a NaN eps made the budget test pass everywhere: p = 1
    metric = NormPlusHighways(weights=[1.5, 1.5], highways=[])
    with pytest.raises(ValueError, match="NaN"):
        EventSpec.ld_lower(metric, math.nan)


@pytest.mark.parametrize("kappa", [math.nan, 0.0, -1.0, math.inf])
def test_hub_event_rejects_non_positive_kappa(kappa):
    # a NaN kappa got past the compile-time kappa <= 0 check and gave p = 0;
    # an infinite one gave the source the budget inf * 0 = nan, and p = 0
    with pytest.raises(ValueError, match="kappa must be positive"):
        EventSpec.hub((0, 0), kappa)
    field = sample_weights(TP, LatticeBox(2, 2), 0)
    with pytest.raises(ValueError, match="kappa must be positive"):
        hub_check(field, (1, 1), kappa)


# ---------------------------------------------------------------------------
# randomized walk against the brute-force walk
# ---------------------------------------------------------------------------

_ATOM_GRIDS = {"integers": (1, 4), "dyadics": (4, 12), "tenths": (10, 30)}  # (den, top numerator)


@st.composite
def _walk_cells(draw):
    """A finite law, a box, one event of each kind and a few weight rows,
    with thresholds drawn at a float sum of atoms, one ulp either side of
    it, or between two sums.

    A law with three atoms gets the 4-edge box only: on a 12-edge box its
    brute force would test 3^12 rows per event."""
    d, n, s = draw(st.sampled_from([(2, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 2)]))
    den, top = _ATOM_GRIDS[draw(st.sampled_from(sorted(_ATOM_GRIDS)))]
    values = sorted(draw(st.lists(st.integers(0, top), min_size=s, max_size=s, unique=True)))
    values = [v / den for v in values]
    weights = draw(st.lists(st.integers(1, 6), min_size=s, max_size=s, unique=True))
    law = EdgeDistribution.finite_support(values, [Fraction(w, sum(weights)) for w in weights])
    box = LatticeBox(d, n)

    def vertex(lo=(0,) * d, hi=(n,) * d):
        return tuple(draw(st.integers(a, b)) for a, b in zip(lo, hi))

    def atom_sum(fewest, most):
        t = 0.0
        for w in draw(st.lists(st.sampled_from(values), min_size=fewest, max_size=most)):
            t += w  # summed in path order, as a passage time is
        return t

    def threshold(fewest, most):
        t = atom_sum(fewest, most)
        where = draw(st.sampled_from(["at", "below", "above", "between"]))
        if where == "between":
            return (t + atom_sum(fewest, most)) / 2
        return {"at": t, "below": np.nextafter(t, -math.inf),
                "above": np.nextafter(t, math.inf)}[where]

    region = None
    if draw(st.booleans()):
        a, b = vertex(), vertex()
        region = tuple((min(p, q), max(p, q)) for p, q in zip(a, b))
        x = vertex(*zip(*region))
        y = vertex(*zip(*region))
    else:
        x, y = vertex(), vertex()
    # D + eps with D = w |x - y|_1 / n: a pair's budget n D + n eps meets a
    # sum of atoms when w is an atom (a metric weight must be positive) and
    # n eps the gap of two sums
    metric = NormPlusHighways(weights=[draw(st.sampled_from(values)) or 1.0] * d, highways=[])
    eps = max(threshold(1, 2) - atom_sum(1, 2), 0.0) / n
    kappa = threshold(1, 2)
    hops = max(1, sum(abs(a - b) for a, b in zip(x, y)))  # the l1 length of x to y
    events = [EventSpec.passage_time_at_most(x, y, threshold(hops, hops + 2), region=region),
              EventSpec.ld_lower(metric, eps),
              EventSpec.hub(vertex(), kappa if kappa > 0 else values[-1])]
    rows = draw(st.lists(st.lists(st.sampled_from(values), min_size=box.n_edges,
                                  max_size=box.n_edges), min_size=1, max_size=9))
    return law, box, events, np.array(rows)


@given(_walk_cells())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_random_walk_cells_equal_brute_force(cell):
    law, box, events, W = cell
    for event in events:
        res = exact_event_probability(event, law, box)
        assert (res.p, res.n_configs, res.n_satisfying) == _brute_force(event, law, box), \
            event.name
    # the batched kernel against csgraph's Dijkstra, on drawn rows of the law
    passage = events[0].params
    mask = _region_mask(box, passage["region"])
    sid = box.vertex_id(passage["x"])
    got = _batched_distances(W, np.array([sid]), *_arc_table(box, mask))[:, 0]
    assert got.tobytes() == _solve_rows(W, box, sid, mask).tobytes()
