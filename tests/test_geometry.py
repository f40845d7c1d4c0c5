"""Continuum paths, norm-plus-highways metrics, and highway networks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab._segments import (
    complement_segments,
    fvec,
    merge_intervals,
    point_on_segment,
    segment_intersection,
)
from fpplab.functional import AnalyticRate
from fpplab.geometry import (
    GeodesyError,
    GeometryError,
    HWChain,
    LipschitzPath,
    NormPlusHighways,
    build_highway_network,
    check_path_family,
    cut_path_against,
    gradient_by_paths,
    hw_insert,
    metric_derivative,
    network_from_highways,
    remove_loops,
)
from fpplab.geometry import _MIN_PIECE_LENGTH, _axis_projections, _halton, _norm, _path_integrals
from fpplab.model import EdgeDistribution, LatticeBox, sample_weights
from fpplab.passage_time import _BLOCK_VERTICES, ContinuousMetric
from reference import DenseGridMetric

F = Fraction


def diag_metric():
    """Unit-square diagonal highway at discount 1/2: D(corner, corner) = 1."""
    return NormPlusHighways([1.0, 1.0], [(LipschitzPath([[0, 0], [1, 1]]), 0.5)])


def piecewise_metric():
    """Horizontal highway, first half at discount 1/2, second at 4/5."""
    hw = LipschitzPath([[0.0, 0.0], [1.0, 0.0]])
    return NormPlusHighways([1.0, 1.0], [(hw, [[0.5, 0.5], [1.0, 0.8]])])


# ---------------------------------------------------------------------------
# exact segment helpers
# ---------------------------------------------------------------------------


def test_segment_intersection_transversal_point():
    out = segment_intersection(fvec((0, 0)), fvec((1, 1)), fvec((0, 1)), fvec((1, 0)))
    assert out == ("point", F(1, 2), F(1, 2))


def test_segment_intersection_disjoint_parallel():
    out = segment_intersection(fvec((0, 0)), fvec((1, 0)), fvec((0, 1)), fvec((1, 1)))
    assert out is None


def test_segment_intersection_collinear_overlap():
    out = segment_intersection(fvec((0, 0)), fvec((1, 0)), fvec((0.5, 0)), fvec((2, 0)))
    kind, (t0, t1), (u0, u1) = out
    assert kind == "overlap"
    assert (t0, t1) == (F(1, 2), F(1))
    assert (u0, u1) == (F(0), F(1, 3))


def test_segment_intersection_endpoint_touch():
    out = segment_intersection(fvec((0, 0)), fvec((1, 0)), fvec((1, 0)), fvec((1, 1)))
    assert out == ("point", F(1), F(0))


def test_point_on_segment_exact():
    assert point_on_segment(fvec((0.5, 0.5)), fvec((0, 0)), fvec((1, 1))) == F(1, 2)
    assert point_on_segment(fvec((0.5, 0.25)), fvec((0, 0)), fvec((1, 1))) is None
    assert point_on_segment(fvec((2, 2)), fvec((0, 0)), fvec((1, 1))) is None


def test_merge_intervals_and_complement():
    merged = merge_intervals([(F(0), F(1, 4)), (F(1, 8), F(1, 2)), (F(3, 4), F(3, 4))])
    assert merged == [(F(0), F(1, 2)), (F(3, 4), F(3, 4))]
    rest = complement_segments((F(0), F(1)), merged)
    # the isolated touch point splits the right piece but has zero length
    assert rest == [(F(1, 2), F(3, 4)), (F(3, 4), F(1))]


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def test_path_canonical_parametrization():
    p = LipschitzPath([[0, 0], [1, 0], [1, 1]])
    assert p.length_l1 == 2.0
    assert np.array_equal(p.point_at(0.5), [0.5, 0.0])
    assert np.array_equal(p.point_at(1.5), [1.0, 0.5])
    exact = p.point_at_frac(F(3, 2))
    assert exact == (F(1), F(1, 2))


def test_path_drops_duplicate_breakpoints():
    p = LipschitzPath([[0, 0], [0, 0], [1, 0], [1, 0], [1, 1]])
    assert p.n_pieces == 2
    with pytest.raises(GeometryError):
        LipschitzPath([[0.3, 0.3], [0.3, 0.3]])


def test_subpath_exact_endpoints():
    p = LipschitzPath([[0, 0], [1, 0], [1, 1]])
    sub = p.subpath(F(1, 2), F(3, 2))
    assert sub.length_l1 == 1.0
    assert np.array_equal(sub.points[0], [0.5, 0.0])
    assert np.array_equal(sub.points[-1], [1.0, 0.5])


def test_self_intersection_detection():
    straight = LipschitzPath([[0, 0], [1, 1]])
    assert straight.is_injective()
    assert straight.first_self_intersection() is None
    bow = LipschitzPath([[0, 0], [1, 0], [1, 1], [0.5, -0.5]])
    assert not bow.is_injective()
    assert bow.first_self_intersection() == (F(2, 3), F(10, 3))
    with pytest.raises(GeometryError, match="^path backtracks along itself$"):
        LipschitzPath([[0, 0], [1, 0], [0.5, 0]]).first_self_intersection()
    with pytest.raises(GeometryError, match="^path has a positive-length self-overlap$"):
        LipschitzPath([[0, 0], [1, 0], [1, 1], [0.5, 1], [0.5, 0], [0.75, 0]]).is_injective()


@pytest.mark.parametrize("points, spliced", [
    # the loop's start is the path's start (a == 0), its end the path's end (b == length)
    ([[0, 0], [1, 0], [1, 1], [0, 1], [0, -0.5]], [[0, 0], [0, -0.5]]),
    ([[0, 0], [1, 0], [1, 1], [0.5, 0]], [[0, 0], [0.5, 0]]),
])
def test_remove_loops_splices_at_the_path_ends(points, spliced):
    assert np.array_equal(remove_loops(LipschitzPath(points)).points, spliced)


def test_remove_loops_keeps_endpoints():
    bow = LipschitzPath([[0, 0], [1, 0], [1, 1], [0.5, 0.0], [0.5, -0.5]])
    clean = remove_loops(bow)
    assert clean.is_injective()
    assert np.array_equal(clean.points[0], [0, 0])
    assert np.array_equal(clean.points[-1], [0.5, -0.5])
    assert clean.length_l1 <= bow.length_l1


def test_cut_path_against_crossing_obstacle():
    path = LipschitzPath([[0, 0], [1, 1]])
    obstacle = LipschitzPath([[0, 1], [1, 0]])
    parts = cut_path_against(path, [obstacle])
    assert len(parts) == 2
    assert np.array_equal(parts[0].points[-1], [0.5, 0.5])
    assert np.array_equal(parts[1].points[0], [0.5, 0.5])
    total = sum(part.length_l1 for part in parts)
    assert total == path.length_l1


def test_cut_path_against_collinear_overlap():
    path = LipschitzPath([[0, 0], [1, 0]])
    obstacle = LipschitzPath([[0.25, 0], [0.5, 0]])
    parts = cut_path_against(path, [obstacle])
    lens = sorted(part.length_l1 for part in parts)
    assert lens == [0.25, 0.5]


def test_cut_path_against_overlap_crossing_and_touch():
    path = LipschitzPath([[0, 0], [1, 0], [1, 1]])
    obstacles = [LipschitzPath([[0.25, 0], [0.5, 0]]),      # overlap
                 LipschitzPath([[0.5, 0.5], [1.5, 0.5]]),    # crossing
                 LipschitzPath([[0.75, -1], [0.75, 0]])]     # touch
    parts = cut_path_against(path, obstacles)
    assert [part.points.tolist() for part in parts] == [
        [[0, 0], [0.25, 0]], [[0.5, 0], [0.75, 0]], [[0.75, 0], [1, 0], [1, 0.5]],
        [[1, 0.5], [1, 1]]]


def test_check_path_family_counts_touches_and_names_the_paths():
    a = LipschitzPath([[0, 0], [1, 1]])
    b = LipschitzPath([[0, 1], [1, 0]])
    c = LipschitzPath([[0.25, 0.25], [0.75, 0.75]])
    loop = LipschitzPath([[0, 0], [1, 1], [1, 0], [0, 1]])
    assert check_path_family([a, b]) == 1
    assert check_path_family([a]) == 0
    # a crossing, a shared end, and two ends on the third path
    assert check_path_family([a, LipschitzPath([[0, 1], [1, 0], [1, 1]]),
                              LipschitzPath([[0, 0], [0, 1]])]) == 4
    with pytest.raises(GeometryError, match="^family paths overlap on positive length$"):
        check_path_family([a, c], "family path")
    with pytest.raises(GeometryError, match="^highways must be pairwise disjoint$"):
        check_path_family([a, b], "highway", allow_touch=False)
    with pytest.raises(GeometryError, match="^network path 1 is not injective$"):
        check_path_family([a, loop], "network path")
    with pytest.raises(GeometryError, match="^highways must be pairwise disjoint$"):
        NormPlusHighways([1.0, 1.0], [(a, 0.5), (b, 0.5)])


# ---------------------------------------------------------------------------
# norm-plus-highways metrics
# ---------------------------------------------------------------------------


def test_diagonal_fixture_exact_values():
    D = diag_metric()
    one = D.evaluate((0, 0), (1, 1))
    assert one == 1.0
    assert D.evaluate_many([(0, 0)], [(1, 1)])[0] == one
    # the classic access fixture: enter at (1/4,1/4), leave at (3/4,3/4)
    assert D.evaluate((0.25, 0.0), (0.75, 1.0)) == 1.0


def test_piecewise_profile_value():
    D = piecewise_metric()
    assert D.evaluate((0, 0), (1, 0)) == pytest.approx(0.65, abs=1e-12)
    # half-highway rides isolate each discount
    assert D.evaluate((0, 0), (0.5, 0)) == pytest.approx(0.25, abs=1e-12)
    assert D.evaluate((0.5, 0), (1, 0)) == pytest.approx(0.4, abs=1e-12)


def test_metric_never_exceeds_norm():
    D = diag_metric()
    rng = np.random.default_rng(3)
    for _ in range(40):
        x, y = rng.random(2), rng.random(2)
        g = float(np.abs(x - y).sum())
        assert D.evaluate(x, y) <= g + 1e-12


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=50, deadline=None)
def test_metric_symmetry_on_grid(a, b, c, d):
    D = diag_metric()
    x = np.array([a, b]) / 10.0
    y = np.array([c, d]) / 10.0
    assert D.evaluate(x, y) == pytest.approx(D.evaluate(y, x), abs=1e-12)


def test_metric_triangle_inequality_sampled():
    D = piecewise_metric()
    rng = np.random.default_rng(8)
    pts = rng.random((10, 2))
    for i in range(10):
        for j in range(10):
            for k in range(10):
                lhs = D.evaluate(pts[i], pts[k])
                rhs = D.evaluate(pts[i], pts[j]) + D.evaluate(pts[j], pts[k])
                assert lhs <= rhs + 1e-9


@given(st.tuples(st.integers(0, 8), st.integers(0, 8)),
       st.tuples(st.integers(0, 8), st.integers(0, 8)),
       st.tuples(st.integers(0, 8), st.integers(0, 8)))
@settings(max_examples=40, deadline=None)
def test_equicontinuity_in_first_argument(xa, xb, y):
    D = diag_metric()
    x1 = np.array(xa) / 8.0
    x2 = np.array(xb) / 8.0
    yy = np.array(y) / 8.0
    g = float(np.abs(x1 - x2).sum())
    assert abs(D.evaluate(x1, yy) - D.evaluate(x2, yy)) <= g + 1e-12


def test_weighted_norm_enters_distances():
    D = NormPlusHighways([2.0, 1.0], [(LipschitzPath([[0, 0], [1, 0]]), 0.5)])
    # off-highway vertical move costs the light weight
    assert D.evaluate((0.5, 0.2), (0.5, 0.7)) == pytest.approx(0.5, abs=1e-12)
    # horizontal highway ride halves the heavy weight
    assert D.evaluate((0, 0), (1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_crossing_highways_rejected():
    with pytest.raises(GeometryError):
        NormPlusHighways([1.0, 1.0], [
            (LipschitzPath([[0, 0], [1, 1]]), 0.5),
            (LipschitzPath([[0, 1], [1, 0]]), 0.5),
        ])


def test_non_geodesic_highway_rejected():
    # a bulging path at full speed rides longer than the straight norm cost:
    # a well-formed metric, whose geodesy check fails
    D = NormPlusHighways([1.0, 1.0], [(LipschitzPath([[0, 0], [0.5, 0.4], [1, 0]]), 1.0)])
    with pytest.raises(GeodesyError, match="^highway 0 fails the geodesic identity"):
        D.validate_geodesics()
    # discounts outside (0, 1] are rejected outright
    with pytest.raises(GeometryError):
        NormPlusHighways([1.0, 1.0], [(LipschitzPath([[0, 0], [1, 0]]), 1.2)])


@pytest.mark.parametrize("profile", [
    [[-1.0, 0.5], [2.0, 0.5]],              # a piece ending before the start
    [[0.0, 0.5], [2.0, 0.5]],               # a piece of length zero at the start
    [[1.0, 0.5], [1.0, 0.6], [2.0, 0.8]],   # a repeated end
])
def test_profile_ends_must_be_positive_and_strictly_increasing(profile):
    with pytest.raises(GeometryError, match="strictly increasing"):
        NormPlusHighways([1.0, 1.0], [(LipschitzPath([[0, 0], [1, 1]]), profile)])


def test_validate_geodesics_passes_on_fixtures():
    diag_metric().validate_geodesics()
    piecewise_metric().validate_geodesics()


def test_validate_geodesics_checks_once_and_repeats_its_verdict(monkeypatch):
    """The metric has no mutators, so the first verdict stands: later calls
    repeat it, a failure with the same message, without evaluating again."""
    calls = []
    check = NormPlusHighways._geodesy_failure
    monkeypatch.setattr(NormPlusHighways, "_geodesy_failure",
                        lambda self: calls.append(self) or check(self))
    D = diag_metric()
    bad = NormPlusHighways([1.0, 1.0], [
        (LipschitzPath([[0.0, 0.5], [1.0, 0.5]]), 0.9),
        (LipschitzPath([[0.1, 0.6], [0.9, 0.6]]), 0.1)])
    messages = []
    for _ in range(3):
        D.validate_geodesics()
        with pytest.raises(GeodesyError) as info:
            bad.validate_geodesics()
        messages.append(str(info.value))
    assert calls == [D, bad]
    assert messages[0].startswith("highway 0 fails the geodesic identity")
    assert messages == messages[:1] * 3


#: a bent highway whose ends are closer through one of its points than
#: along the whole ride
BENT_WEIGHTS = [0.8743689283901803, 0.572940647216373]
BENT_HIGHWAY = [[0.4495834022497391, 0.28039231371241397],
                [0.3873036173603971, 0.8458800940288905],
                [0.8371759559643198, 0.8342921299556982],
                [0.0717978619016061, 0.8582430760734917]]


def test_a_route_may_reenter_its_highway_across_a_bend():
    """Leaving the highway and re-entering it across a bend beats the whole
    ride between its ends; the pool has transfer nodes from each ride to
    itself, so evaluate finds that route, and the chord check fails."""
    D = NormPlusHighways(BENT_WEIGHTS, [(LipschitzPath(BENT_HIGHWAY), 0.22752897302439162)])
    a, b = np.array(BENT_HIGHWAY[0]), np.array(BENT_HIGHWAY[-1])
    val = D.evaluate(a, b)
    assert val == pytest.approx(0.15158920492856542, abs=1e-15)
    assert D.geodesic(a, b)[1] == pytest.approx(val, abs=1e-15)
    assert val <= DenseGridMetric(D).evaluate(a, b) < D.chain.blocks[0].cum[-1]
    length = D.chain.blocks[0].path.length_l1
    with pytest.raises(GeodesyError, match=rf"highway 0 fails the geodesic identity "
                                           rf"at params \(0, {length:.6g}\)"):
        D.validate_geodesics()


def test_geodesic_matches_evaluate_and_its_chain_sum():
    """The geodesic's metric length, the chain sum over its breakpoints and
    65 evenly spaced parameters, is its value."""
    D = diag_metric()
    for x, y in [((0, 0), (1, 1)), ((0.25, 0.0), (0.75, 1.0)), ((0.1, 0.8), (0.9, 0.3))]:
        path, val = D.geodesic(x, y)
        assert val == pytest.approx(D.evaluate(x, y), abs=1e-12)
        assert np.allclose(path.points[0], x) and np.allclose(path.points[-1], y)
        pts = path.point_at(np.union1d(path.cum, np.linspace(0.0, path.length_l1, 65)))
        assert D.evaluate_many(pts[:-1], pts[1:]).sum() == pytest.approx(val, rel=1e-9)


def test_geodesic_rejects_coincident_endpoints():
    with pytest.raises(GeometryError, match="endpoints coincide"):
        diag_metric().geodesic((0.25, 0.25), (0.25, 0.25))


def _two_highway_target():
    """Criterion 06's insertion target."""
    return NormPlusHighways([1.0, 1.0], [
        (LipschitzPath([[0.0, 0.0], [0.45, 0.45]]), 0.5),
        (LipschitzPath([[0.55, 0.45], [1.0, 0.1]]), 0.7),
    ])


def _three_highway_family():
    """A piecewise profile, a vertical segment and a monotone elbow."""
    return NormPlusHighways([1.0, 1.25], [
        (LipschitzPath([[0.1, 0.15], [0.8, 0.15]]), [[0.35, 0.5], [0.7, 0.8]]),
        (LipschitzPath([[0.9, 0.1], [0.9, 0.9]]), 0.6),
        (LipschitzPath([[0.1, 0.4], [0.35, 0.4], [0.35, 0.85]]), 0.45),
    ])


# (evaluate, geodesic value) at 10 seeded pairs.  On pairs 2, 3 and 8 of the
# three-highway family a uniform 17-point access grid reads up to 0.00625 more.
_MULTI_HIGHWAY_VALUES = [
    (_two_highway_target, 6, [
        (0.20032300745110887, 0.20032300745110887),
        (0.6159138769036607, 0.6159138769036607),
        (1.2861179818143653, 1.2861179818143653),
        (1.0116638231425443, 1.0116638231425443),
        (0.8017821440926653, 0.8017821440926653),
        (0.7748008976474481, 0.7748008976474481),
        (0.9789153724237325, 0.9789153724237325),
        (0.555137589902626, 0.555137589902626),
        (0.3837989140236542, 0.3837989140236542),
        (0.16157134924819538, 0.16157134924819538),
    ]),
    (_three_highway_family, 3, [
        (0.8845783101038548, 0.8845783101038549),
        (0.5576947148642085, 0.5576947148642085),
        (0.7424662394457965, 0.7424662394457965),
        (0.749350679817507, 0.749350679817507),
        (0.6859217006381567, 0.6859217006381567),
        (0.8866972070486647, 0.8866972070486647),
        (0.5780648166914428, 0.5780648166914428),
        (0.89087788350273, 0.8908778835027301),
        (0.6788379803943313, 0.6788379803943313),
        (0.8428455693126853, 0.8428455693126853),
    ]),
]


@pytest.mark.parametrize("make, seed, expected", _MULTI_HIGHWAY_VALUES,
                         ids=["two-highways", "three-highways"])
def test_multi_highway_values_match_parent(make, seed, expected):
    D = make()
    rng = np.random.default_rng(seed)
    for want_ev, want_geo in expected:
        x, y = rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)
        assert D.evaluate(x, y) == pytest.approx(want_ev, abs=1e-14)
        assert D.geodesic(x, y)[1] == pytest.approx(want_geo, abs=1e-14)


def test_transfer_between_two_highways_is_exact():
    """Ride the rail to x = 0.53, hop 0.1 up to the post and ride it:
    0.2 * 0.43 + 0.1 + 0.2 * 0.6 = 0.306.  No uniform access grid on the
    rail holds x = 0.53."""
    D = _metric([1.0, 1.0], [([[0.1, 0.2], [0.9, 0.2]], 0.2),
                             ([[0.53, 0.3], [0.53, 0.9]], 0.2)])
    x, y = (0.1, 0.2), (0.53, 0.9)
    assert D.evaluate(x, y) == pytest.approx(0.306, abs=1e-14)
    assert D.geodesic(x, y)[1] == pytest.approx(0.306, abs=1e-14)


def test_transfer_at_a_two_coordinate_crossing_is_exact():
    """In d=3 the cheapest hop joins the points where the highways cross in
    x and y, at parameters 10/19 and 61/76 of their pieces: ride 0.2 * 1.1
    * 10/19, hop 0.6 in z, ride 0.2 * 1.2 * 15/76, 29/38 in all."""
    D = _metric([1.0, 1.0, 1.0], [([[0.1, 0.1, 0.2], [0.9, 0.4, 0.2]], 0.2),
                                  ([[0.2, 0.9, 0.8], [0.6, 0.1, 0.8]], 0.2)])
    x, y = (0.1, 0.1, 0.2), (0.6, 0.1, 0.8)
    assert D.evaluate(x, y) == pytest.approx(29 / 38, abs=1e-14)
    assert D.geodesic(x, y)[1] == pytest.approx(29 / 38, abs=1e-14)


def test_to_json_round_trip():
    D = piecewise_metric()
    back = NormPlusHighways.from_json(D.to_json())
    rng = np.random.default_rng(5)
    for _ in range(10):
        x, y = rng.random(2), rng.random(2)
        assert back.evaluate(x, y) == D.evaluate(x, y)


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------


def _metric(weights, hws):
    return NormPlusHighways(weights, [(LipschitzPath(p), lam) for p, lam in hws])


# criterion 06's network fixtures and insertion target, and a three-highway family
_BATCH_METRICS = {
    "diagonal": diag_metric,
    "profile": piecewise_metric,
    "two-rails": lambda: _metric([1.5, 0.8], [([[0.0, 0.0], [1.0, 0.0]], 0.6),
                                              ([[0.0, 1.0], [1.0, 1.0]], 0.9)]),
    "elbow": lambda: _metric([1.0, 1.0], [([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 0.4)]),
    "two-highways": _two_highway_target,
    "three-highways": _three_highway_family,
}


def _boundary_pairs(D, n=4851, seed=0):
    """n shuffled pairs: every pair (x == y included) of the cube corners,
    the highways' table breakpoints and random points on the highways, then
    random pairs of the cube."""
    rng = np.random.default_rng(seed)
    special = [np.array(c, dtype=float) for c in np.ndindex(*([2] * D.dim))]
    for b in D.chain.blocks:
        special.extend(b.pts)
        special.extend(b.path.point_at(rng.uniform(0.0, b.path.length_l1, 4)))
    X = [a for a in special for _ in special]
    Y = [b for _ in special for b in special]
    fill = n - len(X)
    X = np.concatenate([X, rng.random((fill, D.dim))])
    Y = np.concatenate([Y, rng.random((fill, D.dim))])
    order = rng.permutation(n)
    return X[order], Y[order]


@pytest.mark.parametrize("make", _BATCH_METRICS.values(), ids=_BATCH_METRICS.keys())
def test_evaluate_many_equals_per_pair_evaluate(make):
    D = make()
    X, Y = _boundary_pairs(D)
    want = np.array([D.evaluate(x, y) for x, y in zip(X, Y)])
    rows = D.chain._batch_rows()
    assert 1 < rows < len(X) - 1 and len(X) % rows != 0  # the walk ends on a short chunk
    for n in (1, rows - 1, rows, rows + 1, len(X)):
        assert np.array_equal(D.evaluate_many(X[:n], Y[:n]), want[:n])


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3)])
def test_continuous_evaluate_many_rows_equal_rows_alone(d, n):
    field = sample_weights(EdgeDistribution.exponential(1.0), LatticeBox(d, n), 3)
    cm = ContinuousMetric(field, 1.5)
    rows = _BLOCK_VERTICES // (cm.box.n_vertices + 1)  # solves per block-diagonal chunk
    rng = np.random.default_rng(9)
    P = rng.random((rows + 3, d))
    P[1] = np.round(P[1] * n) / n  # a lattice site
    # more distinct X rows than one chunk holds, some of them repeated
    X = np.concatenate([P, P[:5], P[::-1]])
    Y = rng.random((len(X), d))
    Y[0] = X[0]
    want = np.array([cm.evaluate(x, y) for x, y in zip(X, Y)])
    for k in (1, rows, rows + 1, len(X)):
        assert np.array_equal(cm.evaluate_many(X[:k], Y[:k]), want[:k])
    assert cm.evaluate_many(np.empty((0, d)), np.empty((0, d))).shape == (0,)


def test_evaluate_many_validates_shapes():
    D = diag_metric()
    bad = [
        (np.zeros((3, 2)), np.zeros((2, 2))),
        (np.zeros((3, 3)), np.zeros((3, 3))),
        (np.zeros(2), np.zeros(2)),
        (np.zeros((1, 1, 2)), np.zeros((1, 1, 2))),
    ]
    for X, Y in bad:
        with pytest.raises(GeometryError):
            D.evaluate_many(X, Y)
    with pytest.raises(GeometryError):
        D.evaluate((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def test_evaluate_many_of_no_pairs_is_empty():
    for D in (diag_metric(), NormPlusHighways([1.0, 1.0], [])):
        out = D.evaluate_many(np.empty((0, 2)), np.empty((0, 2)))
        assert out.shape == (0,)


def _random_family(rng, dim):
    """1-3 disjoint highways: polylines of 1-2 pieces, monotone in every
    coordinate so that they are geodesics, each with a constant discount or
    a two-piece profile."""
    while True:
        highways = []
        for _ in range(int(rng.integers(1, 4))):
            pts = np.sort(rng.uniform(0.05, 0.95, (int(rng.integers(2, 4)), dim)), axis=0)
            flip = rng.random(dim) < 0.5
            pts[:, flip] = 1.0 - pts[:, flip]
            path = LipschitzPath(pts)
            lam = rng.uniform(0.3, 0.95, 2)
            total = path.length_l1
            speed = (float(lam[0]) if rng.random() < 0.5
                     else [[rng.uniform(0.2, 0.8) * total, lam[0]], [total, lam[1]]])
            highways.append((path, speed))
        try:
            return NormPlusHighways(rng.uniform(0.5, 2.0, dim), highways)
        except GeometryError:
            continue


@pytest.mark.parametrize("dim", [2, 3])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_values_never_exceed_a_dense_access_grid(dim, seed):
    """Every value is at most that through the uniform 65-point access grid,
    and is realized by the polyline that geodesic returns."""
    rng = np.random.default_rng(seed)
    D = _random_family(rng, dim)
    # random points, then 50 on each highway, where transfers pay most
    on = [b.path.point_at(rng.uniform(0.0, b.path.length_l1, (2, 50)))
          for b in D.chain.blocks]
    X, Y = (np.concatenate([rng.random((100, dim))] + [pts[k] for pts in on])
            for k in (0, 1))
    vals = D.evaluate_many(X, Y)
    assert np.all(vals <= DenseGridMetric(D).evaluate_many(X, Y) + 1e-12)
    for x, y, val in zip(X[::20], Y[::20], vals[::20]):
        assert D.geodesic(x, y)[1] == pytest.approx(val, abs=1e-12)


def _random_bent_family(rng, dim):
    """1-3 disjoint highways through 2-5 unsorted points, so that each may
    bend back in any coordinate, each with a constant discount, low enough
    that a shortcut across a bend often pays."""
    while True:
        try:
            return NormPlusHighways(rng.uniform(0.5, 2.0, dim), [
                (LipschitzPath(rng.uniform(0.05, 0.95, (int(rng.integers(2, 6)), dim))),
                 float(rng.uniform(0.05, 0.5)))
                for _ in range(int(rng.integers(1, 4)))])
        except GeometryError:
            continue


@pytest.mark.parametrize("dim", [2, 3])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_bent_highways_make_a_metric(dim, seed):
    """On non-monotone highways the values obey the triangle inequality, stay
    at most the dense-grid bound and are realized by geodesic; a family that
    passes validate_geodesics rides each highway between any two of its
    points."""
    rng = np.random.default_rng(seed)
    D = _random_bent_family(rng, dim)
    blocks = D.chain.blocks
    # pairs on each highway, through a grid along it, where shortcuts across
    # its bends land
    for b in blocks:
        X, Y = b.path.point_at(rng.uniform(0.0, b.path.length_l1, (2, 8)))
        V = b.path.point_at(np.linspace(0.0, b.path.length_l1, 17))
        Xv, Yv, Vv = np.repeat(X, len(V), 0), np.repeat(Y, len(V), 0), np.tile(V, (len(X), 1))
        via = (D.evaluate_many(Xv, Vv) + D.evaluate_many(Vv, Yv)).reshape(len(X), -1)
        assert np.all(D.evaluate_many(X, Y) <= via.min(axis=1) + 1e-12)
    # random pairs, then pairs on each highway
    on = [b.path.point_at(rng.uniform(0.0, b.path.length_l1, (2, 5))) for b in blocks]
    X, Y = (np.concatenate([rng.random((5, dim))] + [pts[k] for pts in on]) for k in (0, 1))
    vals = D.evaluate_many(X, Y)
    assert np.all(vals <= DenseGridMetric(D).evaluate_many(X, Y) + 1e-12)
    for x, y, val in zip(X[::5], Y[::5], vals[::5]):
        assert D.geodesic(x, y)[1] == pytest.approx(val, abs=1e-12)
    try:
        D.validate_geodesics()
    except GeodesyError:
        return
    for b in blocks:
        s, t = rng.uniform(0.0, b.path.length_l1, (2, 20))
        ride = np.abs(b.cum_at(t) - b.cum_at(s))
        assert D.evaluate_many(b.path.point_at(s), b.path.point_at(t)) == pytest.approx(
            ride, abs=1e-12)


def _reference_query(chain, X, Y):
    """The query kernel in its former layout, kept as the reference for the
    values: ``(B, K, K)`` ride tables, ``(2B, K, P)`` access tables and a
    ``(B, N, N)`` pool crossing, each reduced over its middle axes.  It
    reads its norms through ``_norm``: it is the reference for the layout,
    and the norm has its own test."""
    def ride_table(cum_a, cum_b):
        out = cum_a[:, :, None] - cum_b[..., None, :]
        return np.abs(out, out=out)

    best = chain.gnorm(X - Y)
    if not chain.blocks:
        return best
    B = len(X)
    P = np.concatenate([X, Y])
    g = _norm(P[:, None, :] - chain.nodes, chain.weights)
    v = g.copy()
    for block in chain.blocks:
        proj = _axis_projections(block.pts, block.ts, P)
        cost = _norm(P[:, None, :] - block.path.point_at(proj), chain.weights)
        ride = np.broadcast_to(block.access_cum, (len(P), len(block.access_cum)))
        c = np.concatenate([g[:, block.rows], cost], axis=1)
        cum = np.concatenate([ride, block.cum_at(proj)], axis=1)
        route = ride_table(cum[:B], cum[B:])
        route += c[:B, :, None]
        route += c[B:, None, :]
        best = np.minimum(best, route.reshape(B, -1).min(axis=1))
        route = ride_table(cum, block.access_cum)
        route += c[:, :, None]
        v[:, block.rows] = np.minimum(v[:, block.rows], route.min(axis=1))
    route = v[:B, :, None] + chain.M
    route += v[B:, None, :]
    return np.minimum(best, route.reshape(B, -1).min(axis=1))


def _random_profiled_bent_family(rng, dim):
    """1-3 disjoint highways through 2-4 unsorted points, each with a
    constant discount or a two-piece profile."""
    while True:
        highways = []
        for _ in range(int(rng.integers(1, 4))):
            path = LipschitzPath(rng.uniform(0.05, 0.95, (int(rng.integers(2, 5)), dim)))
            lam = rng.uniform(0.1, 0.9, 2)
            total = path.length_l1
            highways.append((path, float(lam[0]) if rng.random() < 0.5 else
                             [[rng.uniform(0.2, 0.8) * total, lam[0]], [total, lam[1]]]))
        try:
            return NormPlusHighways(rng.uniform(0.5, 2.0, dim), highways)
        except GeometryError:
            continue


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_query_many_equals_the_reference_kernel(dim, seed):
    """Bit for bit the values of the former kernel, on bent highways with
    two-piece profiles, at x == y pairs and highway breakpoints, and on
    batches one row short of, exactly and one row over a chunk."""
    rng = np.random.default_rng([dim, seed])
    make = (_random_family, _random_bent_family, _random_profiled_bent_family)[seed % 3]
    chain = make(rng, dim).chain
    special = np.concatenate([np.eye(dim), *(b.pts for b in chain.blocks),
                              *(b.path.point_at(rng.uniform(0.0, b.path.length_l1, 3))
                                for b in chain.blocks)])
    rows = chain._batch_rows()
    n = rows + 1
    i, j = rng.integers(0, len(special), (2, n))
    X, Y = special[i], special[j]
    loose = rng.random(n) < 0.3
    X[loose] = rng.random((loose.sum(), dim))
    Y[::7] = X[::7]
    for k in (rows - 1, rows, rows + 1):
        want = _reference_query(chain, X[:k], Y[:k])
        assert chain.query_many(X[:k], Y[:k]).tobytes() == want.tobytes()


def _fixed_order_norm(v, w) -> float:
    """``|v_0| w_0 + |v_1| w_1 + ...`` in Python floats, left to right.
    CPython fuses no multiply and add, so this reads the same on every
    machine.  Not ``sum()``, which compensates from Python 3.12 on."""
    acc = 0.0
    for vk, wk in zip(v, w):
        acc = acc + abs(float(vk)) * float(wk)
    return acc


@pytest.mark.parametrize("d", [2, 3, 4])
def test_norm_is_the_fixed_order_sum(d):
    """Bit for bit the fixed-order sum, on a batch of rows, a stack of them
    and one vector, and every row reads what it reads alone; so does the
    ``gnorm`` of a metric, of its pool and of an analytic rate."""
    rng = np.random.default_rng(d)
    w = rng.uniform(0.5, 2.0, d)
    D = NormPlusHighways(w, [])
    for shape in [(400, d), (20, 30, d), (d,)]:
        V = rng.standard_normal(shape)
        rows = V.reshape(-1, d)
        want = np.array([_fixed_order_norm(v, w) for v in rows]).reshape(shape[:-1])
        for norm in (_norm(V, w), D.gnorm(V), D.chain.gnorm(V), AnalyticRate(w).gnorm(V)):
            assert np.asarray(norm).tobytes() == want.tobytes()
        alone = np.array([_norm(v, w) for v in rows]).reshape(shape[:-1])
        assert alone.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_highway_free_geodesic_equals_evaluate(dim):
    """Without highways the geodesic is the straight hop, and its value is
    the norm that ``evaluate`` reads, to the last bit."""
    rng = np.random.default_rng([dim, 300])
    w = rng.uniform(0.5, 2.0, dim)
    D = NormPlusHighways(w, [])
    for x, y in zip(*rng.random((2, 300, dim))):
        assert D.geodesic(x, y)[1] == D.evaluate(x, y) == _fixed_order_norm(x - y, w)


# ---------------------------------------------------------------------------
# min-plus chains and insertion
# ---------------------------------------------------------------------------


def test_chain_base_is_the_norm():
    chain = HWChain(np.array([1.0, 1.0]))
    assert chain.query((0, 0), (1, 1)) == 2.0
    assert chain.query((0.25, 0), (0.5, 0.5)) == 0.75


def test_query_many_equals_per_pair_queries():
    """A batch of pairs reads bit for bit what each pair reads alone."""
    chains = [HWChain(np.array([1.0, 2.0]))]
    for metric in (diag_metric(), piecewise_metric()):
        chains.append(metric.chain)
        chains.append(build_highway_network(metric, n_geodesics=3, seed=1).chain)
    rng = np.random.default_rng(4)
    X, Y = rng.random((300, 2)), rng.random((300, 2))
    X[:40], Y[:40] = np.round(X[:40] * 4) / 4, np.round(Y[:40] * 4) / 4
    Y[-3:] = X[-3:]
    for chain in chains:
        want = np.array([chain.query(x, y) for x, y in zip(X, Y)])
        assert chain.query_many(X, Y).tobytes() == want.tobytes()
        assert chain.query_many(X[:0], Y[:0]).shape == (0,)


def test_hw_insert_reaches_target_and_stays_above():
    D = diag_metric()
    chain = HWChain(D.weights)
    geo, val = D.geodesic((0, 0), (1, 1))
    assert val == 1.0
    nxt = hw_insert(chain, [geo], D)
    assert nxt.query((0, 0), (1, 1)) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(2)
    for _ in range(25):
        x, y = rng.random(2), rng.random(2)
        q2 = nxt.query(x, y)
        assert q2 <= chain.query(x, y) + 1e-12   # insertion only lowers
        assert q2 >= D.evaluate(x, y) - 1e-9     # never below the target


def test_hw_insert_rejects_non_geodesic():
    D = diag_metric()
    chain = HWChain(D.weights)
    elbow = LipschitzPath([[0, 0], [1, 0], [1, 1]])
    with pytest.raises(GeodesyError):
        hw_insert(chain, [elbow], D)


def test_network_from_highways_recovers_profile():
    D = piecewise_metric()
    net = network_from_highways(D)
    assert net.converged
    assert net.chain is D.chain
    block = net.chain.blocks[0]
    ratio = np.diff(block.cum) / D.gnorm(np.diff(block.pts, axis=0))
    assert D.discounts[0].tolist() == [0.5, 0.8]
    assert np.abs(ratio - D.discounts[0]).max() <= 1e-9


def test_build_highway_network_seeded_convergence():
    D = diag_metric()
    net = build_highway_network(
        D, n_geodesics=6, tol=1e-6,
        seed_pairs=[(np.zeros(2), np.ones(2))], seed=0)
    assert net.converged
    sups = [rec["sup_distance"] for rec in net.diagnostics]
    assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
    assert sups[-1] <= 1e-6
    origins = {rec["origin"] for rec in net.diagnostics}
    assert "seed" in origins
    check_path_family([path for path, _, _ in net.chain.rides], "network path")


def test_build_highway_network_drops_pieces_that_round_to_a_point():
    """On this bent highway one cut of a geodesic leaves an exact piece of
    l1 length 1.3e-17, whose two ends round to one float point; the cut
    drops it instead of failing to build it."""
    D = NormPlusHighways([1.4976615081667115, 1.5944673176621542], [(LipschitzPath(
        [[0.33477895219135867, 0.8931941214111336], [0.561067765116948, 0.3420746201683626],
         [0.798897989971258, 0.4276857175308544]]), [[1.100849636385162, 0.7574048153984829]])])
    net = build_highway_network(D, n_geodesics=4, tol=1e-6, seed=176)
    assert len(net.diagnostics) == 4
    assert all(path.length_l1 > _MIN_PIECE_LENGTH for path, _, _ in net.chain.rides)
    check_path_family([path for path, _, _ in net.chain.rides], "network path")


def test_network_build_closes_one_pool_per_geodesic(monkeypatch):
    """The pieces of one geodesic join the network in one pool build, and a
    pool closes its costs with one Floyd-Warshall: the empty pool first,
    then one pool per geodesic that adds pieces, one of which adds four."""
    from fpplab import geometry

    D = diag_metric()
    pools, closures = [], []
    init, closure = geometry.HWChain.__init__, geometry._floyd_warshall
    monkeypatch.setattr(geometry.HWChain, "__init__",
                        lambda self, *a, **k: pools.append(self) or init(self, *a, **k))
    monkeypatch.setattr(geometry, "_floyd_warshall",
                        lambda *a, **k: closures.append(a) or closure(*a, **k))
    net = build_highway_network(D, n_geodesics=6, seed=0)
    counts = [0] + [rec["n_pieces"] for rec in net.diagnostics]
    assert counts == [0, 1, 2, 4, 5, 7, 11]
    assert len(pools) == 1 + 6 and len(closures) == 6
    assert len(pools[-1].rides) == 11
    assert hw_insert(pools[-1], [], D) is pools[-1]


def test_hw_insert_needs_cost_linear_on_each_piece(monkeypatch):
    """Fixture 2's highway changes discount at x = 1/2: inserted as one bare
    segment left unrefined its cost is not linear, split there it is, and
    the pool then reads the metric.  hw_insert splits a bare segment itself,
    at its transfer parameters, also over a symmetric profile, whose
    midpoint reads half the increment though the cost bends twice."""
    from fpplab import geometry

    D = piecewise_metric()
    chain = HWChain(D.weights)
    with monkeypatch.context() as m:
        m.setattr(geometry, "_transfer_params", lambda *a: np.empty(0))
        with pytest.raises(GeodesyError, match="not linear on piece 0"):
            hw_insert(chain, [LipschitzPath([[0, 0], [1, 0]])], D)
    symmetric = NormPlusHighways([1.0, 1.0], [(LipschitzPath([[0, 0], [0.75, 0]]),
                                               [[0.25, 0.5], [0.5, 0.8], [0.75, 0.5]])])
    rng = np.random.default_rng(8)
    X, Y = rng.random((2000, 2)), rng.random((2000, 2))
    for target, points in [(D, [[0, 0], [0.5, 0], [1, 0]]), (D, [[0, 0], [1, 0]]),
                           (symmetric, [[0, 0], [0.75, 0]])]:
        nxt = hw_insert(chain, [LipschitzPath(points)], target)
        assert np.array_equal(nxt.query_many(X, Y), target.evaluate_many(X, Y))


def _random_segments(rng, k):
    """k disjoint geodesic segments with random discounts and norm weights,
    drawn as criterion 07 draws them."""
    while True:
        highways = []
        for _ in range(k):
            a, b = rng.uniform(0.05, 0.95, (2, 2))
            if np.abs(a - b).sum() < 0.15:
                break
            highways.append((LipschitzPath([a, b]), float(rng.uniform(0.3, 0.95))))
        else:
            try:
                D = NormPlusHighways(rng.uniform(0.5, 2.0, 2), highways)
                D.validate_geodesics()
                return D
            except GeometryError:
                continue


_NETWORK_METRICS = {
    **{name: _BATCH_METRICS[name] for name in ("diagonal", "profile", "two-rails", "elbow")},
    **{f"random-{k}-{seed}": (lambda k=k, seed=seed: _random_segments(
        np.random.default_rng(seed), k)) for k in (1, 2, 3) for seed in (0, 1)},
    "d3-crossing": lambda: _metric([1.0, 1.2, 0.8], [
        ([[0.1, 0.1, 0.2], [0.9, 0.4, 0.2]], 0.4), ([[0.2, 0.9, 0.8], [0.6, 0.1, 0.8]], 0.5)]),
}


@pytest.mark.parametrize("make", _NETWORK_METRICS.values(), ids=_NETWORK_METRICS.keys())
def test_network_reconstruction_reads_the_metric(make):
    """Criterion 06's builds on the fixtures, random segment families and a d=3
    family: the rebuilt pool reads the metric everywhere, not only at the
    probe pairs."""
    D = make()
    seeds = [(b.path.points[0], b.path.points[-1]) for b in D.chain.blocks]
    net = build_highway_network(D, n_geodesics=8, seed_pairs=seeds, seed=0)
    assert net.converged
    rng = np.random.default_rng(11)
    # random pairs, then pairs on the highways, where transfers pay most
    on = [b.path.point_at(rng.uniform(0.0, b.path.length_l1, (2, 100)))
          for b in D.chain.blocks]
    X, Y = (np.concatenate([rng.random((400, D.dim))] + [pts[k] for pts in on])
            for k in (0, 1))
    assert np.max(np.abs(net.chain.query_many(X, Y) - D.evaluate_many(X, Y))) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_halton_equals_scipy_scrambled_halton(d):
    """Bit for bit scipy's scrambled Halton points, over seeds 0-19 and,
    across the seeds, every length from 1 to 200."""
    from scipy.stats import qmc

    for seed in range(20):
        want = qmc.Halton(d=d, scramble=True, seed=seed).random(200)
        for n in range(seed + 1, 201, 20):
            assert _halton(d, n, seed).tobytes() == want[:n].tobytes()
    assert _halton(d, 0, 0).shape == (0, d)


def test_network_json_shape():
    D = diag_metric()
    net = network_from_highways(D)
    j = net.to_json()
    assert j["converged"] is True
    assert len(j["paths"]) == len(net.chain.rides)
    rec = j["paths"][0]
    assert len(rec["params"]) == len(rec["cum"])


# ---------------------------------------------------------------------------
# metric derivative and gradients
# ---------------------------------------------------------------------------


def test_metric_derivative_on_highway():
    D = diag_metric()
    hw = LipschitzPath([[0, 0], [1, 1]])
    md = metric_derivative(D, hw, t=1.0)
    assert md.value == pytest.approx(0.5, abs=1e-9)
    assert not md.flagged


def test_metric_derivative_flagged_at_discount_break():
    D = piecewise_metric()
    hw = LipschitzPath([[0, 0], [1, 0]])
    md = metric_derivative(D, hw, t=0.5)
    assert md.flagged
    assert md.one_sided_gap == pytest.approx(0.3, abs=1e-6)
    with pytest.raises(GeometryError):
        metric_derivative(D, hw, t=0.0)


def test_gradient_classification():
    D = diag_metric()
    on = gradient_by_paths(D, (0.5, 0.5), (1, 1))
    assert on.kind == "analytic" and on.value == pytest.approx(1.0, abs=1e-12)
    across = gradient_by_paths(D, (0.5, 0.5), (1, -1))
    assert across.kind == "analytic" and across.value == pytest.approx(2.0, abs=1e-12)
    off = gradient_by_paths(D, (0.25, 0.75), (1, 0))
    assert off.kind == "analytic" and off.value == pytest.approx(1.0, abs=1e-12)
    end = gradient_by_paths(D, (0.0, 0.0), (1, 1))
    assert end.kind == "upper-bound" and end.boundary
    zero = gradient_by_paths(D, (0.5, 0.5), (0, 0))
    assert zero.value == 0.0


def test_gradient_along_a_two_piece_profile():
    """Along the profile highway the speed is each half's discount; the
    discount break at x = 1/2 is a boundary case."""
    D = piecewise_metric()
    for z, lam in (((0.25, 0.0), 0.5), ((0.75, 0.0), 0.8)):
        for u in ((1, 0), (-2, 0)):
            est = gradient_by_paths(D, z, u)
            assert est.kind == "analytic" and not est.boundary
            assert est.value == lam * abs(u[0])
        across = gradient_by_paths(D, z, (0, 1))
        assert across.kind == "analytic" and across.value == 1.0
    mid = gradient_by_paths(D, (0.5, 0.0), (1, 0))
    assert mid.kind == "upper-bound" and mid.boundary and mid.value == 1.0


# ---------------------------------------------------------------------------
# Hausdorff integration
# ---------------------------------------------------------------------------


def test_hausdorff_integral_of_one_is_euclidean_length():
    diag = LipschitzPath([[0, 0], [1, 1]])
    val = _path_integrals([diag], lambda x, u: 1.0, 8)
    assert val == pytest.approx(math.sqrt(2), rel=1e-12)


def test_hausdorff_integral_additive_over_touching_paths():
    a = LipschitzPath([[0, 0], [0.5, 0.5]])
    b = LipschitzPath([[0.5, 0.5], [1, 1]])
    val = _path_integrals([a, b], lambda x, u: 1.0, 8)
    assert val == pytest.approx(math.sqrt(2), rel=1e-12)


def test_hausdorff_integrand_sees_unit_tangent():
    seen = []

    def f(x, u):
        seen.append(np.array(u))
        return 1.0

    _path_integrals([LipschitzPath([[0, 0], [1, 1]])], f, 2)
    for u in seen:
        assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-12)
