"""Point rates, scale envelopes, surface extension, and the zero-set check."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fpplab._artifacts import jsonable
from fpplab.model import EdgeDistribution, LatticeBox, sample_weight_rows, truncate
from fpplab.elementary_rate import (
    RatePoint,
    RateSurface,
    SurfaceConflictError,
    default_zeta_grid,
    estimate_rate_rung,
    estimate_time_constant,
    extend_surface,
    fekete_envelope,
    zero_set_check,
)
from fpplab.oracle import EventSpec, _predicate, monte_carlo_event_probability, wilson_interval

TP = EdgeDistribution.two_point(1, 2, Fraction(1, 2))


def _pt(x, zeta, n, est, method="exact-oracle", ci=None, **kw):
    return RatePoint(x=tuple(x), zeta=float(zeta), n=n, estimate=est,
                     ci=ci or (est, est), method=method, **kw)


# ---------------------------------------------------------------------------
# admissible speeds
# ---------------------------------------------------------------------------


def test_boundary_speed_needs_an_atom():
    # two-point law has an atom at its infimum: zeta = |x|_1 is admissible
    pt = estimate_rate_rung(TP, (1, 0), [1.0], 2)[0]
    assert pt.method == "exact-oracle"
    # uniform law has no atom there: the boundary speed is inadmissible
    with pytest.raises(ValueError):
        estimate_rate_rung(EdgeDistribution.uniform(1.0, 2.0), (1, 0), [1.0], 2,
                           method="mc", samples=10)
    # strictly above the threshold it works again
    estimate_rate_rung(EdgeDistribution.uniform(1.0, 2.0), (1, 0), [1.2], 1,
                       method="mc", samples=10)


def test_below_threshold_always_rejected():
    with pytest.raises(ValueError):
        estimate_rate_rung(TP, (1, 1), [1.5], 2)  # below 2 = a |x|_1
    with pytest.raises(ValueError, match="at least one speed"):
        estimate_rate_rung(TP, (1, 0), [], 8, method="mc")


# ---------------------------------------------------------------------------
# exact points
# ---------------------------------------------------------------------------


def test_exact_rate_log2_single_edge():
    pt = estimate_rate_rung(TP, (1, 0), [1.0], 1)[0]
    assert pt.p_exact == Fraction(1, 2)
    assert pt.estimate == pytest.approx(math.log(2), abs=1e-12)
    assert pt.ci == (pt.estimate, pt.estimate)


def test_exact_rate_thin_strip_region():
    # restricted to the bottom edge row of the unit box, two edges must
    # both be light to meet speed 1: p = 1/4
    pt = estimate_rate_rung(TP, (1, 0), [1.0], 2, region=((0, 2), (0, 0)))[0]
    assert pt.p_exact == Fraction(1, 4)
    assert pt.estimate == pytest.approx(math.log(2), abs=1e-12)


def test_deterministic_law_has_zero_rate():
    det = EdgeDistribution.deterministic(1.0)
    pt = estimate_rate_rung(det, (1, 0), [1.0], 3)[0]
    assert pt.estimate == 0.0
    assert pt.p_exact == 1


def test_direction_reflection_is_free():
    a = estimate_rate_rung(TP, (1, 0), [1.0], 1)[0]
    b = estimate_rate_rung(TP, (-1, 0), [1.0], 1)[0]
    assert a.x == b.x == (1, 0)
    assert a.estimate == b.estimate


# ---------------------------------------------------------------------------
# Monte-Carlo points
# ---------------------------------------------------------------------------


def test_mc_point_frozen_seed():
    pt = estimate_rate_rung(TP, (1, 0), [1.4], 8, samples=300, seed=7, method="mc")[0]
    assert pt.method == "monte-carlo"
    assert pt.hits == 111
    assert pt.p_hat == pytest.approx(0.37)
    assert pt.estimate == pytest.approx(-math.log(0.37) / 8, abs=1e-12)
    assert pt.ci[0] < pt.estimate < pt.ci[1]
    assert not pt.censored


def test_mc_censored_point_is_one_sided():
    pt = estimate_rate_rung(TP, (1, 0), [1.01], 12, samples=60, seed=3, method="mc")[0]
    assert pt.censored
    assert pt.hits == 0
    assert pt.estimate == pytest.approx(0.234213, abs=1e-5)
    assert pt.ci[1] == math.inf
    j = jsonable(pt)
    assert j["censored"] is True
    assert j["ci"][1] is None


def test_all_hit_mc_point_has_no_negative_zero():
    # every field meets speed 2 = the heavy weight, so p_hat = 1 and the
    # upper Wilson limit is 1
    pt = estimate_rate_rung(TP, (1, 0), [2.0], 2, samples=50, seed=3, method="mc")[0]
    assert pt.hits == 50
    assert math.copysign(1.0, pt.estimate) == 1.0
    assert math.copysign(1.0, pt.ci[0]) == 1.0


def test_boundary_speed_of_an_all_zero_truncated_law():
    # min(tau, 0) is 0 on every edge: zeta = 0 sits at the infimum, where
    # the law holds all its mass, so every field hits
    law = truncate(EdgeDistribution.exponential(1.0), 0.0)
    pt = estimate_rate_rung(law, (1, 0), [0.0], 2, samples=20, method="mc")[0]
    assert pt.hits == 20
    assert pt.estimate == 0.0


def test_mc_hits_agree_across_samplers():
    # a region-restricted passage event, sampled three ways from one seed
    law = EdgeDistribution.exponential(1.0)
    box, region = LatticeBox(2, 6), ((0, 6), (0, 1))
    event = EventSpec.passage_time_at_most((0, 0), (6, 0), 3.6, region=region)
    pt = estimate_rate_rung(law, (2, 0), [1.2], 3, samples=90, seed=5, region=region)[0]
    mc = monte_carlo_event_probability(event, law, box, 90, seed=5)
    W = sample_weight_rows(law, box, np.random.SeedSequence(5).generate_state(90, np.uint64))
    compiled = _predicate(event, box)
    bellman_ford = sum(int(np.count_nonzero(compiled.test(W[i:i + compiled.rows])))
                       for i in range(0, 90, compiled.rows))
    assert 0 < pt.hits == mc.successes == bellman_ford < 90


# ---------------------------------------------------------------------------
# rungs: the speeds of one scale
# ---------------------------------------------------------------------------


_EXP1 = EdgeDistribution.exponential(1.0)


@pytest.mark.parametrize("law, x, zetas, n, kw, method", [
    pytest.param(_EXP1, (1, 0), (0.4, 0.6, 0.9), 8, {}, "monte-carlo", id="mc-exponential"),
    # 2^144 configurations exceed the cap, so 'auto' samples the whole rung
    pytest.param(TP, (1, 0), (1.05, 1.35, 1.8), 8, {}, "monte-carlo", id="mc-two-point"),
    pytest.param(TP, (1, 0), (1.0, 1.3, 1.7), 2, {}, "exact-oracle", id="exact"),
    pytest.param(_EXP1, (2, 0), (0.5, 0.7, 1.0), 3, {"region": ((0, 6), (0, 1))},
                 "monte-carlo", id="mc-region"),
    pytest.param(TP, (1, 0), (1.0, 1.5, 2.0), 2, {"region": ((0, 2), (0, 0))},
                 "exact-oracle", id="exact-region"),
])
def test_rung_equals_its_points_field_for_field(law, x, zetas, n, kw, method):
    rung = estimate_rate_rung(law, x, zetas, n, samples=90, seed=5, **kw)
    assert rung == [estimate_rate_rung(law, x, [z], n, samples=90, seed=5, **kw)[0] for z in zetas]
    assert [p.method for p in rung] == [method] * len(zetas)
    if method == "monte-carlo":  # one field set: a field that meets a speed meets every faster one
        hits = [p.hits for p in rung]
        assert hits == sorted(hits) and len(set(hits)) > 1
        assert {p.seed for p in rung} == {5}


def test_rate_point_json_exact_fraction():
    pt = estimate_rate_rung(TP, (1, 0), [1.0], 1)[0]
    j = jsonable(pt)
    assert j["p_exact"] == {"num": 1, "den": 2}
    assert j["method"] == "exact-oracle"


# ---------------------------------------------------------------------------
# scale envelope
# ---------------------------------------------------------------------------


def test_fekete_envelope_takes_the_minimum():
    ladder = [_pt((1, 0), 1.2, 2, 0.9), _pt((1, 0), 1.2, 4, 0.7),
              _pt((1, 0), 1.2, 8, 0.72)]
    env = fekete_envelope(ladder)
    assert env.estimate == 0.7
    assert env.n == 4
    assert env.method == "fekete-envelope"


def test_fekete_envelope_validates_ladder():
    with pytest.raises(ValueError):
        fekete_envelope([])
    with pytest.raises(ValueError):
        fekete_envelope([_pt((1, 0), 1.2, 4, 0.9), _pt((1, 0), 1.2, 2, 0.7)])
    with pytest.raises(ValueError):
        fekete_envelope([_pt((1, 0), 1.2, 2, 0.9), _pt((1, 1), 1.2, 4, 0.7)])


# ---------------------------------------------------------------------------
# time constant
# ---------------------------------------------------------------------------


def test_time_constant_bracket_and_trend():
    tc = estimate_time_constant(TP, (1, 0), [4, 8], samples=400, seed=11)
    lo, hi = tc.bracket
    assert (lo, hi) == (1.0, 1.5)
    assert lo <= tc.mu_hat <= hi
    assert tc.mu_hat == pytest.approx(1.4816, abs=1e-4)
    assert tc.non_increasing_within_ci
    assert tc.ci[0] < tc.mu_hat < tc.ci[1]


def test_time_constant_means_frozen():
    # pinned from one restricted_passage_time solve per field
    tc = estimate_time_constant(EdgeDistribution.exponential(1.0), (1, 1), [2, 4, 8],
                                samples=30, seed=11)
    assert tc.means == (1.081487500655792, 0.9646755582840976, 0.8560496146959559)
    assert tc.half_widths == (0.18324370120335517, 0.0735882111338606, 0.0605049269040716)


def test_mc_region_point_frozen_seed():
    pt = estimate_rate_rung(EdgeDistribution.exponential(1.0), (2, 0), [0.7], 3,
                            samples=90, seed=5, region=((0, 6), (0, 1)))[0]
    assert (pt.hits, pt.estimate) == (2, 1.2688874965901065)
    with pytest.raises(ValueError, match="endpoints must belong to the region"):
        estimate_rate_rung(EdgeDistribution.exponential(1.0), (2, 0), [0.7], 3,
                           samples=5, region=((1, 6), (0, 1)))


def test_time_constant_rejects_bad_ladder():
    for ladder in ([8, 4], [8, 8]):
        with pytest.raises(ValueError):
            estimate_time_constant(TP, (1, 0), ladder, samples=10)


def test_time_constant_needs_a_sample():
    # samples=0 warned on a mean of an empty slice and reported mu_hat nan;
    # one field gave a zero-width interval, as if the mean were exact
    for samples in (0, 1, 2.5):
        with pytest.raises(ValueError, match="samples must"):
            estimate_time_constant(TP, (1, 0), [2, 4], samples=samples)


# ---------------------------------------------------------------------------
# surface extension
# ---------------------------------------------------------------------------


def test_extension_homogenizes_onto_primitive_rays():
    surf = extend_surface([_pt((2, 0), 2.4, 4, 1.2)])
    cell = surf.ray((1, 0))[0]
    assert cell.direction == (1, 0)
    assert cell.zeta == pytest.approx(1.2)
    assert cell.value == pytest.approx(0.6)
    val, flag = surf.value_at((2, 0), 2.4)
    assert val == pytest.approx(1.2) and flag is None


def test_extension_merges_reflected_directions():
    surf = extend_surface([
        _pt((1, 1), 2.2, 4, 0.5),
        _pt((-1, 1), 2.2, 4, 0.3, ci=(0.2, 0.6)),
    ])
    ray = surf.ray((1, 1))
    assert len(ray) == 1
    assert ray[0].value == pytest.approx(0.3)
    assert len(ray[0].sources) == 2


def test_extension_conflict_detection():
    with pytest.raises(SurfaceConflictError):
        extend_surface([
            _pt((1, 0), 1.2, 4, 0.5, ci=(0.48, 0.52)),
            _pt((1, 0), 1.2, 8, 0.9, ci=(0.88, 0.92)),
        ])


def test_extension_monotone_envelope_tags():
    # a bigger direction at no greater speed with a smaller value pulls
    # the (1, 0) cell down and records the transform
    surf = extend_surface([
        _pt((1, 0), 1.2, 4, 0.5),
        _pt((1, 1), 1.2, 4, 0.2),
    ])
    cell = surf.ray((1, 0))[0]
    assert cell.value == pytest.approx(0.2)
    assert "monotone-envelope" in cell.modified


def test_extension_convex_envelope_in_speed():
    vals = {1.0: 1.0, 1.1: 0.9, 1.2: 0.3, 1.3: 0.15, 1.5: 0.0}
    surf = extend_surface([_pt((1, 0), z, 4, v) for z, v in vals.items()])
    ray = surf.ray((1, 0))
    got = [round(c.value, 10) for c in ray]
    # the 0.9 bulge at speed 1.1 is replaced by the chord value 0.65
    assert got == [1.0, 0.65, 0.3, 0.15, 0.0]
    tagged = [c for c in ray if "convex-envelope" in c.modified]
    assert len(tagged) == 1 and tagged[0].zeta == pytest.approx(1.1)
    surf.check_invariants()


def test_surface_invariants_catch_violations():
    good = extend_surface([_pt((1, 0), 1.0, 2, 0.7), _pt((1, 0), 1.5, 2, 0.0)])
    assert good.check_invariants()
    bad = RateSurface(cells=list(good.cells))
    bad.cells[1].value = 0.9  # increasing in zeta
    with pytest.raises(AssertionError):
        bad.check_invariants()


def test_value_at_boundary_flags():
    surf = extend_surface([_pt((1, 0), 1.0, 2, 0.7), _pt((1, 0), 1.5, 2, 0.0)])
    val, flag = surf.value_at((1, 0), 1.25)
    assert val == pytest.approx(0.35) and flag is None
    val, flag = surf.value_at((1, 0), 2.0)
    assert val == 0.0 and "above" in flag
    val, flag = surf.value_at((1, 0), 0.9)
    assert val is None and "below" in flag
    with pytest.raises(KeyError):
        surf.value_at((0, 1), 1.2)


def test_surface_json_round_trip_and_csv(tmp_path):
    surf = extend_surface([
        _pt((1, 0), 1.0, 2, 0.7),
        _pt((1, 0), 1.5, 2, 0.0),
        _pt((1, 1), 2.2, 4, 0.4),
    ])
    back = RateSurface.from_json(jsonable(surf))
    assert back.value_at((1, 0), 1.25) == surf.value_at((1, 0), 1.25)
    assert back.directions() == surf.directions()
    out = tmp_path / "surface.csv"
    surf.write_csv(out)
    raw = out.read_bytes()
    assert b"\r\n" in raw
    header = raw.decode().split("\r\n")[0]
    for col in ("direction", "zeta", "value", "ci_lo", "ci_hi", "method"):
        assert col in header


def test_default_zeta_grid_spans_bracket():
    grid = default_zeta_grid(TP, (1, 0))
    assert len(grid) == 5
    assert grid[0] > 1.0
    assert grid[-1] == pytest.approx(1.5)
    assert np.all(np.diff(grid) > 0)


# ---------------------------------------------------------------------------
# zero-set comparison
# ---------------------------------------------------------------------------


def _mc_surface_n8():
    pts = estimate_rate_rung(TP, (1, 0), (1.05, 1.2, 1.35, 1.65, 1.8), 8, samples=500, seed=5,
                             method="mc")
    return extend_surface(pts), pts


def test_zero_set_check_passes_at_scale_eight():
    surf, pts = _mc_surface_n8()
    assert [round(p.estimate, 4) for p in pts] == [
        0.6395, 0.4024, 0.2422, 0.0129, 0.0013]
    tc = estimate_time_constant(TP, (1, 0), [4, 8], samples=400, seed=11)
    rep = zero_set_check(surf, tc)
    assert rep.zero_ok and rep.positive_ok and rep.trend_ok
    assert rep.passed
    assert rep.trend_slope < 0


def test_zero_set_check_sees_finite_size_bias():
    """Small-scale exact rates stay positive above the time constant."""
    pts = [estimate_rate_rung(TP, (1, 0), [z], 2)[0] for z in (1.05, 1.2, 1.35, 1.65, 1.8)]
    surf = extend_surface(pts)
    tc = estimate_time_constant(TP, (1, 0), [4, 8], samples=400, seed=11)
    rep = zero_set_check(surf, tc)
    assert not rep.zero_ok
    assert not rep.passed


def test_exact_and_mc_test_the_same_event_on_non_dyadic_atoms():
    # the float sum 0.1 + 0.2 exceeds 0.3, so only the straight path with two
    # light edges reaches (2, 0) in time 0.3: both backends must agree on 1/4
    law = EdgeDistribution.two_point(0.1, 0.2, Fraction(1, 2))
    exact = estimate_rate_rung(law, (1, 0), [0.15], 2, method="exact")[0]
    assert exact.p_exact == Fraction(1, 4)
    mc = estimate_rate_rung(law, (1, 0), [0.15], 2, samples=400, seed=0, method="mc")[0]
    lo, hi = wilson_interval(mc.hits, mc.samples)
    assert lo <= 0.25 <= hi
