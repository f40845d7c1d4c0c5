"""The three functional expressions, monotonicity probe, and the LD trend table."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fpplab.elementary_rate import RatePoint, extend_surface
from fpplab.functional import (
    AnalyticRate,
    FunctionalError,
    PathFamily,
    SurfaceRate,
    empirical_ld_trend,
    functional_geodesic_sum,
    functional_intrinsic,
    functional_report,
    functional_sup_lower_bound,
    strict_monotonicity_probe,
)
from fpplab import functional
from fpplab.geometry import (
    GeodesyError,
    GeometryError,
    LipschitzPath,
    NormPlusHighways,
    _transfer_params,
    network_from_highways,
)
from fpplab.model import EdgeDistribution

TP = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
J = AnalyticRate([1.0, 1.0])


def diag_metric(lam=0.5):
    return NormPlusHighways([1.0, 1.0], [(LipschitzPath([[0, 0], [1, 1]]), lam)])


def piecewise_metric():
    hw = LipschitzPath([[0.0, 0.0], [1.0, 0.0]])
    return NormPlusHighways([1.0, 1.0], [(hw, [[0.5, 0.5], [1.0, 0.8]])])


def non_geodesic_metric():
    """Each highway passes the construction checks, but hopping to the faster
    one beats riding the slower, so the slower is not a geodesic of the metric."""
    return NormPlusHighways([1.0, 1.0], [
        (LipschitzPath([[0.0, 0.5], [1.0, 0.5]]), 0.9),
        (LipschitzPath([[0.1, 0.6], [0.9, 0.6]]), 0.1)])


def highway_family(D):
    return PathFamily([path for path, _, _ in D.chain.rides])


def l1_metric(x, y):
    return float(np.abs(np.asarray(x) - np.asarray(y)).sum())


# ---------------------------------------------------------------------------
# rate integrands
# ---------------------------------------------------------------------------


def test_analytic_rate_values():
    assert J((1, 1), 1.0) == 1.0
    assert J((1, 0), 0.6) == pytest.approx(0.4)
    assert J((1, 0), 2.0) == 0.0  # clipped at zero
    half = AnalyticRate([1.0, 1.0], scale=0.5)
    assert half((1, 1), 1.0) == 0.5


def test_analytic_rate_joint_homogeneity():
    for u, z in [((1, 1), 1.0), ((0.3, 0.7), 0.4), ((2, 0), 1.1)]:
        assert J(np.array(u) * 2, z * 2) == 2 * J(u, z)


def test_analytic_rate_rejects_bad_parameters():
    with pytest.raises(FunctionalError):
        AnalyticRate([1.0, -1.0])
    with pytest.raises(FunctionalError):
        AnalyticRate([1.0, 1.0], scale=0.0)
    with pytest.raises(FunctionalError):
        AnalyticRate([1.0, 1.0], scale=math.inf)


def _toy_surface():
    def pt(x, zeta, est):
        return RatePoint(x=x, zeta=zeta, n=4, estimate=est, ci=(est, est),
                         method="exact-oracle")
    return extend_surface([
        pt((1, 0), 1.0, 0.7), pt((1, 0), 1.5, 0.0),
        pt((0, 1), 1.0, 0.7), pt((0, 1), 1.5, 0.0),
        pt((1, 1), 2.0, 0.8), pt((1, 1), 3.0, 0.0),
    ])


def test_surface_rate_exact_on_tabulated_rays():
    JS = SurfaceRate(_toy_surface())
    assert JS((1, 0), 1.0) == pytest.approx(0.7)
    assert JS((1, 0), 1.25) == pytest.approx(0.35)
    assert JS((1, 1), 2.0) == pytest.approx(0.8)
    assert JS((0, 0), 5.0) == 0.0
    assert JS.n_flagged == 0


def test_surface_rate_homogeneity_by_rescaling():
    JS = SurfaceRate(_toy_surface())
    assert JS((2, 0), 2.5) == pytest.approx(2 * JS((1, 0), 1.25))
    # negative components reach the same ray through reflection
    assert JS((-1, 0), 1.25) == pytest.approx(JS((1, 0), 1.25))


def test_surface_rate_blends_between_rays():
    JS = SurfaceRate(_toy_surface())
    v_axis = JS((1, 0), 1.2)
    v_diag = JS((1, 1), 2.4)
    blended = JS((1, 0.5), 1.8)
    assert min(0.0, v_axis, v_diag) <= blended <= max(v_axis, v_diag) + 1e-12


def test_surface_rate_flags_below_range_queries():
    JS = SurfaceRate(_toy_surface())
    before = JS.n_flagged
    JS((1, 0), 0.2)  # below the lowest tabulated speed on the ray
    assert JS.n_flagged == before + 1


# ---------------------------------------------------------------------------
# path families
# ---------------------------------------------------------------------------


def test_path_family_is_frozen():
    """The family is checked once, at construction, and cannot change after."""
    fam = PathFamily(paths=[LipschitzPath([[0, 0], [0.5, 0.5]]),
                            LipschitzPath([[0.5, 0.5], [1, 0]])])
    assert isinstance(fam.paths, tuple) and len(fam.paths) == 2
    assert fam.n_touch_points == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.paths = (LipschitzPath([[0, 0], [1, 1]]),) * 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam.n_touch_points = 0


def test_path_family_rejects_overlap():
    with pytest.raises(GeometryError):
        PathFamily(paths=[
            LipschitzPath([[0, 0], [1, 1]]),
            LipschitzPath([[0.5, 0.5], [1, 1]]),
        ])


def test_path_family_from_network():
    D = diag_metric()
    fam = PathFamily([path for path, _, _ in network_from_highways(D).chain.rides])
    assert len(fam.paths) == 1 and fam.n_touch_points == 0


# ---------------------------------------------------------------------------
# the three expressions
# ---------------------------------------------------------------------------


def test_diagonal_fixture_exact():
    D = diag_metric()
    assert functional_geodesic_sum(D, J) == 1.0
    assert functional_intrinsic(D, J) == pytest.approx(1.0, abs=1e-12)
    assert functional_sup_lower_bound(D, J, highway_family(D)) == 1.0


def test_no_highways_means_zero():
    D = NormPlusHighways([1.0, 1.0], [])
    assert functional_geodesic_sum(D, J) == 0.0
    assert functional_intrinsic(D, J) == 0.0
    assert functional_sup_lower_bound(D, J, PathFamily(paths=[])) == 0.0


def test_halving_the_discount_raises_the_value():
    lo = diag_metric(0.25)
    hi = diag_metric(0.5)
    v_lo = functional_geodesic_sum(lo, J)
    v_hi = functional_geodesic_sum(hi, J)
    assert v_lo == 1.5 and v_hi == 1.0
    assert v_lo > v_hi


def test_piecewise_profile_all_three_expressions():
    D = piecewise_metric()
    rep = functional_report(D, J)
    # (1 - 0.5) * 0.5 + (1 - 0.8) * 0.5
    assert rep.geodesic_sum == pytest.approx(0.35, abs=1e-12)
    assert rep.intrinsic == pytest.approx(0.35, abs=1e-12)
    assert rep.sup_bound == pytest.approx(0.35, abs=1e-12)
    assert rep.n_highways == 1 and rep.family_size == 1


def test_contribution_additive_over_highways():
    two = NormPlusHighways([1.0, 1.0], [
        (LipschitzPath([[0, 0], [1, 0]]), 0.6),
        (LipschitzPath([[0, 1], [1, 1]]), 0.9)])
    parts = []
    for hw, lam in [([[0, 0], [1, 0]], 0.6), ([[0, 1], [1, 1]], 0.9)]:
        one = NormPlusHighways([1.0, 1.0], [(LipschitzPath(hw), lam)])
        parts.append(functional_geodesic_sum(one, J))
    total = functional_geodesic_sum(two, J)
    assert parts[0] == pytest.approx(0.4, abs=1e-12)
    assert parts[1] == pytest.approx(0.1, abs=1e-12)
    assert total == parts[0] + parts[1]


def test_intrinsic_additive_under_subdivision():
    D = piecewise_metric()
    whole = functional_intrinsic(D, J)
    halves = [
        functional_sup_lower_bound(
            D, J, PathFamily(paths=[LipschitzPath([[a, 0], [b, 0]])]))
        for a, b in [(0.0, 0.5), (0.5, 1.0)]
    ]
    assert whole == pytest.approx(sum(halves), abs=1e-12)


def test_scaling_rate_by_two_is_exact_everywhere():
    D = piecewise_metric()
    fam = highway_family(D)
    J2 = AnalyticRate([1.0, 1.0], scale=2.0)
    assert functional_geodesic_sum(D, J2) == 2 * functional_geodesic_sum(D, J)
    assert functional_intrinsic(D, J2) == 2 * functional_intrinsic(D, J)
    assert functional_sup_lower_bound(D, J2, fam) == 2 * functional_sup_lower_bound(D, J, fam)


def test_sup_bound_quarter_share():
    D = diag_metric()
    quarter = PathFamily(paths=[LipschitzPath([[0, 0], [0.25, 0.25]])])
    assert functional_sup_lower_bound(D, J, quarter) == 0.25


def test_sup_bound_off_highway_is_zero():
    D = diag_metric()
    off = PathFamily(paths=[LipschitzPath([[0, 1], [1, 0]])])
    assert functional_sup_lower_bound(D, J, off) == 0.0


def test_sup_bound_never_exceeds_geodesic_sum():
    D = piecewise_metric()
    geo = functional_geodesic_sum(D, J)
    families = [
        PathFamily(paths=[LipschitzPath([[0.1, 0], [0.6, 0]])]),
        PathFamily(paths=[LipschitzPath([[0, 0], [0.5, 0]]),
                          LipschitzPath([[0.5, 0], [1, 0]])]),
        PathFamily(paths=[LipschitzPath([[0, 0.5], [1, 0.5]])]),
    ]
    for fam in families:
        assert functional_sup_lower_bound(D, J, fam) <= geo + 1e-12


def test_sup_bound_straddling_the_discount_break():
    """[1/4, 3/4] on the profile highway, either way round: one half at
    discount 1/2, the other at 4/5, so J = (1 - lam) g over each half."""
    D = piecewise_metric()
    for ends in ([[0.25, 0.0], [0.75, 0.0]], [[0.75, 0.0], [0.25, 0.0]]):
        fam = PathFamily(paths=[LipschitzPath(ends)])
        assert functional_sup_lower_bound(D, J, fam) == pytest.approx(
            0.25 * 0.5 + 0.25 * 0.2, abs=1e-15)


def test_sub_ulp_breakpoint_leaves_the_highway():
    """(0.5, 1e-17) lies a sub-ulp l1 step past (0.5, 0), so the path drops
    it: the ride keeps the corner at (0.5, 0), transfer parameters are
    computed without an invalid product, and the metric's own highway bounds
    the sup by the whole geodesic sum (it read 0.75 of 1.0 when the ride
    skipped the corner)."""
    path = LipschitzPath([[0, 0], [0.5, 0], [0.5, 1e-17], [1, 1]])
    assert path.points.tolist() == [[0, 0], [0.5, 0], [1, 1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _transfer_params(path.points, path.cum, path.points)
    D = NormPlusHighways([1.0, 1.0], [(path, 0.5)])
    assert D.chain.blocks[0].pts.tolist() == [[0, 0], [0.5, 0], [1, 1]]
    rep = functional_report(D, AnalyticRate([1, 1]))
    assert (rep.geodesic_sum, rep.delta_sup) == (1.0, 0.0)


@pytest.mark.parametrize("evaluate", [
    lambda D: functional_geodesic_sum(D, J),
    lambda D: functional_intrinsic(D, J),
    lambda D: functional_report(D, J),
    lambda D: strict_monotonicity_probe(D, NormPlusHighways([1.0, 1.0], []), J),
    lambda D: strict_monotonicity_probe(diag_metric(0.5), D, J),
], ids=["geodesic-sum", "intrinsic", "report", "probe-smaller", "probe-larger"])
def test_non_geodesic_metric_raises(evaluate):
    """The functional integrates along the metric's highways, so each entry
    point refuses a metric whose highways are not its geodesics."""
    with pytest.raises(GeodesyError, match="highway 0 fails the geodesic identity"):
        evaluate(non_geodesic_metric())


def test_report_cross_check_enforced(monkeypatch):
    D = diag_metric()
    rep = functional_report(D, J)
    assert abs(rep.delta_intrinsic) <= 1e-12
    j = rep.to_json()
    assert j["geodesic_sum"] == 1.0
    assert j["family_size"] == 1
    assert j["cross_tol"] == 1e-9
    # the intrinsic value drifts from the geodesic sum by one quadrature ulp,
    # so a zero cross tolerance must trip
    monkeypatch.setattr(functional, "_CROSS_TOL", 0.0)
    with pytest.raises(FunctionalError):
        functional_report(D, J)


# ---------------------------------------------------------------------------
# strict monotonicity
# ---------------------------------------------------------------------------


def test_probe_smaller_metric_wins():
    rep = strict_monotonicity_probe(diag_metric(0.5), diag_metric(0.6), J)
    assert rep.value_smaller == 1.0
    assert rep.value_larger == pytest.approx(0.8, abs=1e-12)
    assert rep.max_order_violation == 0.0
    assert rep.witness is not None


def test_probe_report_matches_parent():
    """Criterion 08's first slowdown pair at seed 0, pinned from the
    per-pair probe that preceded the batched one."""
    rep = strict_monotonicity_probe(diag_metric(0.5), diag_metric(0.6), J)
    assert rep.to_json()["margin"] == 1e-9
    assert rep.n_pairs == 4851
    assert rep.max_order_violation == 0.0
    assert [w.tolist() for w in rep.witness] == [[0.0, 0.0], [1.0, 1.0]]
    assert rep.value_smaller == 1.0
    assert rep.value_larger == 0.8


def test_probe_witness_is_the_first_largest_rise(monkeypatch):
    """Witness and order violation are those a loop over the pair list
    finds, on a pair grid where several pairs share the largest rise."""
    from scipy.stats import qmc

    mid = [[0.3, 0.7], [0.7, 0.3]]  # useless between the corners
    fast = NormPlusHighways([1.0, 1.0], [(LipschitzPath(mid), 0.5)])
    slow = NormPlusHighways([1.0, 1.0], [(LipschitzPath(mid), 0.6)])
    monkeypatch.setattr(functional, "_PROBE_PAIRS", 10)
    rep = strict_monotonicity_probe(fast, slow, J, seed=3)
    pts = [np.zeros(2), np.ones(2), np.full(2, 0.5)]
    for row in qmc.Halton(d=4, scramble=True, seed=3).random(10):
        pts.extend([row[:2], row[2:]])
    pairs = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
    rises = [slow.evaluate(a, b) - fast.evaluate(a, b) for a, b in pairs]
    gap = max(rises)
    assert rises.count(gap) >= 2
    witness = pairs[rises.index(gap)]
    assert rep.n_pairs == len(pairs)
    assert rep.max_order_violation == max(0.0, -min(rises))
    assert np.array_equal(rep.witness[0], witness[0])
    assert np.array_equal(rep.witness[1], witness[1])


def test_probe_highway_beats_plain_norm():
    rep = strict_monotonicity_probe(
        diag_metric(0.5), NormPlusHighways([1.0, 1.0], []), J)
    assert rep.value_smaller == 1.0
    assert rep.value_larger == 0.0


def test_probe_rejects_equal_metrics():
    with pytest.raises(FunctionalError):
        strict_monotonicity_probe(diag_metric(0.5), diag_metric(0.5), J)


def test_probe_rejects_wrong_order():
    with pytest.raises(FunctionalError):
        strict_monotonicity_probe(diag_metric(0.6), diag_metric(0.5), J)


# ---------------------------------------------------------------------------
# empirical LD trend
# ---------------------------------------------------------------------------


def scaled_l1(x, y):
    return 0.9 * l1_metric(x, y)


def test_ld_trend_impossible_event_has_infinite_rate():
    tab = empirical_ld_trend(scaled_l1, TP, 0.05, [1], dim=2)
    row = tab.rows[0]
    assert row.method == "exact-oracle"
    assert row.p_exact == 0
    assert row.samples == 16  # 2^4 configurations enumerated
    assert row.rate == math.inf
    j = row.to_json()
    assert j["rate"] is None
    assert j["rate_is_infinite"] is True


def test_ld_trend_sure_event_has_zero_rate():
    tab = empirical_ld_trend(l1_metric, TP, 2.0, [1], dim=2)
    row = tab.rows[0]
    assert row.p_exact == 1
    assert row.rate == 0.0


def test_ld_trend_exact_ladder_values():
    tab = empirical_ld_trend(scaled_l1, TP, 2.0, [1, 2], dim=2)
    assert [r.p_exact for r in tab.rows] == [Fraction(15, 16), Fraction(4095, 4096)]
    for r in tab.rows:
        assert r.rate == pytest.approx(-math.log(float(r.p_exact)) / r.n)


def test_ld_trend_probability_monotone_in_eps():
    ps = []
    for eps in (0.05, 0.5, 2.0):
        tab = empirical_ld_trend(scaled_l1, TP, eps, [2], dim=2)
        ps.append(tab.rows[0].p_exact)
    assert ps[0] <= ps[1] <= ps[2]
    assert ps[0] == 0 and ps[2] == Fraction(4095, 4096)


def test_ld_trend_mc_censored_row():
    tab = empirical_ld_trend(scaled_l1, TP, 0.05, [1], dim=2,
                             method="mc", samples=50, seed=4)
    row = tab.rows[0]
    assert row.method == "monte-carlo"
    assert row.censored and row.hits == 0
    assert row.rate is None
    assert row.ci[0] > 0 and row.ci[1] == math.inf
    j = row.to_json()
    assert j["ci"][1] is None


def test_ld_trend_mc_regular_row():
    tab = empirical_ld_trend(scaled_l1, TP, 2.0, [2], dim=2,
                             method="mc", samples=60, seed=9)
    row = tab.rows[0]
    assert not row.censored
    assert row.hits > 0
    assert row.ci[0] - 1e-12 <= row.rate <= row.ci[1] + 1e-12


def test_ld_trend_table_json_is_qualitative():
    tab = empirical_ld_trend(scaled_l1, TP, 2.0, [1], dim=2, functional_value=0.35)
    j = tab.to_json()
    assert j["functional_value"] == 0.35
    assert "qualitative" in j["comparison"]
    assert len(j["rows"]) == 1


def test_ld_trend_metric_object_supplies_dim():
    D = diag_metric()
    tab = empirical_ld_trend(D, TP, 2.0, [1])
    assert tab.rows[0].n == 1
    with pytest.raises(ValueError):
        empirical_ld_trend(l1_metric, TP, 2.0, [1])  # bare callable, no dim
    with pytest.raises(ValueError):
        empirical_ld_trend(D, TP, -0.1, [1])
