"""Restricted passage times, the rescaled box pseudometric, and path helpers."""

import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab._artifacts import jsonable
from fpplab.model import (EdgeDistribution, LatticeBox, WeightField, _edge_arrays,
                          sample_weight_rows, sample_weights)
from fpplab.passage_time import (
    ContinuousMetric,
    DiscretePath,
    disjoint_paths,
    geodesic_length_stats,
    hub_check,
    rescaled_metric,
    restricted_passage_time,
    uniform_gap,
)
from fpplab.passage_time import (_BLOCK_VERTICES, _arc_table, _batch_rows, _bellman_ford_rounds,
                                 _region_mask, _seeded_passage_times, _solve, _solve_rows)
from fpplab.oracle import EventSpec, _predicate
from reference import reference_dijkstra


def _det_field(d, n, value=1.0):
    return sample_weights(EdgeDistribution.deterministic(value), LatticeBox(d, n), 0)


# ---------------------------------------------------------------------------
# shortest-path engine
# ---------------------------------------------------------------------------


def test_deterministic_weights_give_l1_times():
    field = _det_field(2, 5)
    for x, y in [((0, 0), (5, 5)), ((1, 2), (4, 0)), ((3, 3), (3, 3))]:
        want = abs(x[0] - y[0]) + abs(x[1] - y[1])
        assert restricted_passage_time(field, x, y) == want


@pytest.mark.parametrize("law", [
    EdgeDistribution.two_point(1, 3, Fraction(1, 2)),
    EdgeDistribution.finite_support([0.1, 0.2, 0.7], [Fraction(1, 3)] * 3),
    EdgeDistribution.two_point(0, 1, Fraction(1, 2)),
], ids=["integer", "non-dyadic", "zero-atom"])
@pytest.mark.parametrize("region", [None, ((0, 6), (1, 4))], ids=["box", "strip"])
def test_passage_times_match_reference_dijkstra(law, region):
    box = LatticeBox(2, 6)
    coords = box.all_vertex_coords()
    mask = None if region is None else (coords[:, 1] >= 1) & (coords[:, 1] <= 4)
    x = (0, 1)
    for seed in range(3):
        field = sample_weights(law, box, seed)
        want = reference_dijkstra(box, field.weights, box.vertex_id(x), mask)
        for vid, y in enumerate(coords):
            if mask is None or mask[vid]:
                assert restricted_passage_time(field, x, y, region=region) == want[vid]


def test_winding_region_geodesic_is_found():
    # a snake through columns 0, 2, 4, 6 of the 7 x 7 box: the only path from
    # (0, 0) to (0, 6) has 30 edges, more than the 2dn = 24 of the whole box
    snake = [(i, j) for j in (0, 2, 4, 6) for i in range(7)] + [(6, 1), (0, 3), (6, 5)]
    field = _det_field(2, 6)
    assert restricted_passage_time(field, (0, 0), (0, 6), region=snake) == 30
    t, path = restricted_passage_time(field, (0, 0), (0, 6), region=snake, return_path=True)
    assert t == 30 and path.hops == 30


def test_geodesic_tie_break_is_pinned():
    # integer weights tie many geodesics; the smallest-id predecessor rule
    # picks this one, the same path the earlier heap engine returned
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    field = sample_weights(tp, LatticeBox(2, 5), 9)
    t, path = restricted_passage_time(field, (0, 0), (5, 5), return_path=True)
    assert t == 11.0
    assert [tuple(v) for v in path.vertices.tolist()] == [
        (0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (4, 2), (5, 2), (5, 3), (5, 4), (5, 5)]


def test_zero_weight_geodesics_are_self_avoiding_and_stable():
    field = sample_weights(EdgeDistribution.two_point(0, 1, Fraction(1, 2)), LatticeBox(2, 8), 0)
    for y in [(8, 8), (8, 0), (3, 5)]:
        t, path = restricted_passage_time(field, (0, 0), y, return_path=True)
        assert path.endpoints() == ((0, 0), y)
        assert path.is_vertex_self_avoiding()
        v = path.vertices
        assert sum(field.weights[field.box.edge_id(a, b)] for a, b in zip(v, v[1:])) == t
        again = restricted_passage_time(field, (0, 0), y, return_path=True)[1]
        assert np.array_equal(again.vertices, path.vertices)


def test_geodesic_is_consistent_with_time():
    tp = EdgeDistribution.two_point(1, 4, Fraction(1, 3))
    field = sample_weights(tp, LatticeBox(2, 5), 3)
    t, path = restricted_passage_time(field, (0, 0), (5, 5), return_path=True)
    assert isinstance(path, DiscretePath)
    assert path.endpoints() == ((0, 0), (5, 5))
    assert path.is_vertex_self_avoiding()
    v = path.vertices
    assert sum(field.weights[field.box.edge_id(a, b)] for a, b in zip(v, v[1:])) == t


def test_region_restriction_lengthens_or_disconnects():
    field = _det_field(2, 4)
    free = restricted_passage_time(field, (0, 0), (4, 0))
    strip = restricted_passage_time(field, (0, 0), (4, 0), region=((0, 4), (0, 0)))
    assert strip == free == 4.0  # the straight path lies inside the strip
    # keeping only the endpoints leaves nothing to walk on
    cut, path = restricted_passage_time(
        field, (0, 0), (4, 0), region=[(0, 0), (4, 0)], return_path=True)
    assert math.isinf(cut)
    assert path is None


_SPLIT = [(x, y) for x in (0, 1, 3, 4) for y in range(5)]  # column x = 2 is cut out


@pytest.mark.parametrize("region", [None, ((0, 4), (0, 0)), _SPLIT],
                         ids=["box", "strip", "disconnecting"])
@pytest.mark.parametrize("rows", [1, 2, 7])
def test_solve_rows_equal_per_field_solves(region, rows):
    law = EdgeDistribution.exponential(1.0)
    box = LatticeBox(2, 4)
    mask = _region_mask(box, region)
    W = sample_weight_rows(law, box, np.arange(rows))
    live = np.arange(box.n_vertices) if mask is None else np.nonzero(mask)[0]
    sources = live[np.arange(rows) % len(live)]
    got = _solve_rows(W, box, sources, mask)
    want = np.array([_solve(WeightField(box, law, 0, w), s, mask)[0]
                     for w, s in zip(W, sources)])
    assert got.tobytes() == want.tobytes()
    if region is _SPLIT:
        assert np.isinf(got[0, box.vertex_id((4, 0))])  # row 0 starts at (0, 0)


@pytest.mark.parametrize("region", [None, ((0, 4), (0, 0)), _SPLIT],
                         ids=["box", "strip", "disconnecting"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_seeded_passage_times_equal_per_field_solves(region, offset):
    """Seed counts around one chunk of rows, so the last chunk is short,
    full, or a single row."""
    law = EdgeDistribution.exponential(1.0)
    box = LatticeBox(2, 4)
    seeds = np.arange(_BLOCK_VERTICES // box.n_vertices + offset, dtype=np.uint64)
    got = _seeded_passage_times(law, box, seeds, (0, 0), (4, 0), region)
    want = np.array([restricted_passage_time(sample_weights(law, box, s), (0, 0), (4, 0),
                                             region) for s in seeds])
    assert got.tobytes() == want.tobytes()
    if region is _SPLIT:
        assert np.all(np.isinf(got))


def test_region_must_contain_endpoints():
    field = _det_field(2, 4)
    with pytest.raises(ValueError):
        restricted_passage_time(field, (0, 0), (4, 4), region=((0, 2), (0, 2)))


def test_explicit_region_detour():
    """Knock out the middle of the box and force the geodesic around it."""
    field = _det_field(2, 2)
    region = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    t = restricted_passage_time(field, (1, 0), (1, 2), region=region)
    assert t == 4.0


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_passage_time_symmetry_random_field(x0, y0, x1, y1):
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    field = sample_weights(tp, LatticeBox(2, 4), 7)
    a = restricted_passage_time(field, (x0, y0), (x1, y1))
    b = restricted_passage_time(field, (x1, y1), (x0, y0))
    assert a == b


# ---------------------------------------------------------------------------
# rescaled pseudometric
# ---------------------------------------------------------------------------


def test_rescaled_metric_matches_l1_over_n():
    field = _det_field(2, 8)
    rm = rescaled_metric(field)
    pts = rm.points
    l1 = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2) / 8.0
    assert np.array_equal(rm.matrix, l1)


def test_rescaled_metric_pseudometric_axioms():
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    field = sample_weights(tp, LatticeBox(2, 4), 5)
    m = rescaled_metric(field).matrix
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0.0)
    n = m.shape[0]
    for i, j, k in itertools.product(range(0, n, 5), repeat=3):
        assert m[i, k] <= m[i, j] + m[j, k] + 1e-12


def test_rescaled_metric_csv_round_trip(tmp_path):
    field = _det_field(2, 2)
    rm = rescaled_metric(field)
    out = tmp_path / "metric.csv"
    rm.write_csv(out)
    raw = out.read_bytes()
    assert b"\r\n" in raw
    lines = raw.decode().strip().split("\r\n")
    header = lines[0].split(",")
    assert header[0] == "source"
    body = [ln.split(",") for ln in lines[1:]]
    assert len(body) == rm.matrix.shape[0]
    got = np.array([[float(v) for v in row[1:]] for row in body])
    assert np.array_equal(got, rm.matrix)


@pytest.mark.parametrize("law, d, n, seed, points, sha256", [
    (EdgeDistribution.two_point(1, 2, Fraction(1, 2)), 2, 4, 3, None,
     "c72651dc35218f73c183595eecfe8f6bfe30fb78813693d8bb8d384c24611c65"),
    (EdgeDistribution.exponential(1.0), 3, 2, 5, None,
     "ba48f9e99340121f7b131ca19f1731f68214ba20f30fc6ef4c740b9e5f8e5e26"),
    (EdgeDistribution.two_point(1, 2, Fraction(1, 3)), 2, 6, 8,
     [[0, 0], [6, 6], [3, 1], [2, 5], [6, 0]],
     "fa30abd9e8efa675c5930284458b70b9f35837ffb9f21b93fb0ffe463e7ab8be"),
], ids=["two-point", "exponential", "points"])
def test_metric_csv_bytes_are_pinned(tmp_path, law, d, n, seed, points, sha256):
    # digests of files written through csv.writer with repr(float(v)) per cell
    rm = rescaled_metric(sample_weights(law, LatticeBox(d, n), seed), points=points)
    out = tmp_path / "metric.csv"
    rm.write_csv(out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def _per_cell_csv(rm) -> bytes:
    # the row-by-row writer that formats every cell, the reference for write_csv
    labels = ["_".join(map(str, p)) for p in rm.points]
    lines = [",".join(["source"] + labels) + "\r\n"]
    for lbl, raw in zip(labels, rm.raw_times):
        lines.append(lbl + "," + ",".join(map(repr, (raw / rm.n).tolist())) + "\r\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("law, d, n, seed, points", [
    (EdgeDistribution.two_point(0, 1, Fraction(3, 4)), 2, 5, 1, None),
    (EdgeDistribution.exponential(1.0), 3, 3, 2, None),
    (EdgeDistribution.exponential(1.0), 2, 6, 3, [[5, 1], [0, 0], [3, 4], [5, 1], [2, 2]]),
    (EdgeDistribution.exponential(1.0), 2, 6, 4, [[3, 2]]),
    (EdgeDistribution.two_point(1, 2, Fraction(1, 2)), 2, 1, 5, None),
    # cells below 1e-4 and from 1e16 up, where repr takes exponent form
    (EdgeDistribution.two_point(1e-6, 1, Fraction(1, 2)), 2, 3, 6, None),
    (EdgeDistribution.two_point(1e17, 3e17, Fraction(1, 2)), 2, 3, 7, None),
], ids=["zero-atom", "exponential", "unsorted-repeated-points", "single-point", "n1",
        "tiny", "huge"])
def test_metric_csv_equals_per_cell_writer(tmp_path, law, d, n, seed, points):
    rm = rescaled_metric(sample_weights(law, LatticeBox(d, n), seed), points=points)
    out = tmp_path / "metric.csv"
    rm.write_csv(out)
    assert out.read_bytes() == _per_cell_csv(rm)


def test_metric_csv_pending_cells_stay_compact(tmp_path):
    # the writer holds one row's cells at a time, as one bytes object
    rm = rescaled_metric(sample_weights(EdgeDistribution.exponential(1.0), LatticeBox(3, 6), 0))
    assert len(rm.points) == 343
    tracemalloc.start()
    try:
        rm.write_csv(tmp_path / "metric.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_200_000


def test_rescaled_metric_explicit_points_guard():
    big = _det_field(2, 70)  # 71^2 = 5041 vertices > all-pairs cap
    with pytest.raises(ValueError):
        rescaled_metric(big)
    pts = np.array([[0, 0], [70, 0], [70, 70]])
    rm = rescaled_metric(big, points=pts)
    assert rm.matrix.shape == (3, 3)
    assert rm.matrix[0, 2] == 2.0


# ---------------------------------------------------------------------------
# continuum extension and the truncation gap
# ---------------------------------------------------------------------------


def test_continuous_metric_agrees_on_grid_nodes():
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    field = sample_weights(tp, LatticeBox(2, 6), 1)
    cm = ContinuousMetric(field, b=2.0)
    tf = field.truncated(2.0)
    for u, v in [((0, 0), (6, 6)), ((2, 1), (5, 4))]:
        want = restricted_passage_time(tf, u, v) / 6.0
        got = cm.evaluate(np.array(u) / 6.0, np.array(v) / 6.0)
        assert abs(got - want) < 1e-12


def _reference_access_costs(cm, X):
    """c_X(u) for one point X of [0, n]^d by a loop over the edges at each
    vertex u: the free leg to u itself, or to a point of an edge at u (its far
    end or the projection of X) plus the ride into u, with the same float
    formula per candidate."""
    box, b, w = cm.box, cm.b, cm.field.weights
    out = []
    for u in box.all_vertex_coords().tolist():
        delta = [float(xc) - float(uc) for xc, uc in zip(X, u)]
        s1 = sum(abs(c) for c in delta)
        best = b * s1
        for axis, step in itertools.product(range(box.dimension), (1, -1)):
            v = list(u)
            v[axis] += step
            if not 0 <= v[axis] <= box.side:
                continue
            wt = float(w[box.edge_id(u, v)])
            base_wo = s1 - abs(delta[axis])
            da = step * delta[axis]  # how far X sits along the edge
            best = min(best, b * (base_wo + abs(delta[axis] - step)) + wt)
            if 0.0 < da < 1.0:
                best = min(best, b * base_wo + da * wt)
        out.append(best)
    return np.array(out)


@pytest.mark.parametrize("d, n", [(2, 1), (2, 5), (3, 3)])
def test_access_costs_equal_per_edge_reference(d, n):
    box = LatticeBox(d, n)
    rng = np.random.default_rng(d * 10 + n)
    vertices = box.all_vertex_coords()[:: max(1, box.n_vertices // 9)].astype(float)
    face = rng.uniform(0, n, size=(6, d))
    face[np.arange(6), rng.integers(0, d, size=6)] = rng.choice([0.0, float(n)], size=6)
    on_edges = np.floor(rng.uniform(0, n, size=(4, d)))
    on_edges[:, 0] += rng.uniform(0, 1, size=4)
    X = np.concatenate([vertices, face, on_edges, rng.uniform(0, n, size=(6, d))])
    laws = [EdgeDistribution.two_point(1, 2, Fraction(1, 2)),
            EdgeDistribution.two_point(0, 3, Fraction(1, 3)),
            EdgeDistribution.exponential(1.0)]
    for law, b in itertools.product(laws, (1.5, 3.0)):
        cm = ContinuousMetric(sample_weights(law, box, 5), b)
        got = cm.access_costs(X)
        for row, x in zip(got, X):
            assert np.array_equal(row, _reference_access_costs(cm, x))
        assert np.array_equal(cm.access_costs(X[0]), got[0])


@pytest.mark.parametrize("d,n,b", [(2, 4, 1.0), (2, 8, 2.0), (3, 4, 1.0)])
def test_uniform_gap_within_truncation_bound(d, n, b):
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    field = sample_weights(tp, LatticeBox(d, n), 13)
    rep = uniform_gap(field, b)
    assert rep.within_bound
    assert rep.bound == 2.0 * b * d / n
    assert 0.0 <= rep.gap <= rep.bound
    assert rep.n_pairs > 0


@pytest.mark.parametrize("b", [math.nan, math.inf, 0.0, -1.0])
def test_continuous_metric_needs_a_finite_positive_level(b):
    # a NaN level gave a gap of 0.0 against a NaN bound; an infinite one met
    # the zero distances of the access costs as inf * 0
    field = sample_weights(EdgeDistribution.two_point(1, 2, Fraction(1, 2)), LatticeBox(2, 2), 0)
    with pytest.raises(ValueError, match="truncation level b must be positive and finite"):
        ContinuousMetric(field, b)
    with pytest.raises(ValueError, match="truncation level b must be positive and finite"):
        uniform_gap(field, b)


# ---------------------------------------------------------------------------
# disjoint paths
# ---------------------------------------------------------------------------


def _check_disjoint_family(box, x, y):
    paths = disjoint_paths(box, x, y)
    d = box.dimension
    l1 = int(np.abs(np.asarray(x) - np.asarray(y)).sum())
    assert len(paths) == d
    interiors = []
    for p in paths:
        assert p.endpoints() == (tuple(x), tuple(y))
        assert p.is_vertex_self_avoiding()
        assert p.hops in (l1, l1 + 2)
        assert np.all(p.vertices >= 0) and np.all(p.vertices <= box.side)
        interiors.append({tuple(v) for v in p.vertices[1:-1]})
    for a, b in itertools.combinations(interiors, 2):
        assert not (a & b)


def test_disjoint_paths_exhaustive_2d():
    box = LatticeBox(2, 3)
    coords = [(x, y) for x in range(4) for y in range(4)]
    for x, y in itertools.permutations(coords, 2):
        _check_disjoint_family(box, x, y)


def test_disjoint_paths_sampled_3d():
    box = LatticeBox(3, 3)
    rng = np.random.default_rng(0)
    for _ in range(60):
        x = tuple(rng.integers(0, 4, size=3).tolist())
        y = tuple(rng.integers(0, 4, size=3).tolist())
        if x == y:
            continue
        _check_disjoint_family(box, x, y)


# ---------------------------------------------------------------------------
# hubs and geodesic length statistics
# ---------------------------------------------------------------------------


def test_hub_check_deterministic_center():
    field = _det_field(2, 4)
    rep = hub_check(field, (2, 2), kappa=1.0)
    assert rep.is_hub  # all times from the center are at most 4 = kappa * n
    assert rep.worst_time_slack >= 0.0
    assert rep.n_targets == field.box.n_vertices
    j = jsonable(rep)
    assert j["vertex"] == [2, 2]
    assert j["is_hub"] is True


def test_hub_check_fails_for_tiny_kappa():
    field = _det_field(2, 4)
    rep = hub_check(field, (0, 0), kappa=0.5)
    assert not rep.is_hub
    assert rep.worst_time_slack < 0.0


def _reference_hub(field, x, kappa):
    """An independent hub check: a hop-layered relaxation over the edge list
    (every edge relaxed both ways per hop with ``np.minimum.at``), each
    target read at its own hop budget."""
    box = field.box
    sid = box.vertex_id(x)
    coords = box.all_vertex_coords()
    l1 = np.abs(coords - np.asarray(x, dtype=np.int64)[None, :]).sum(axis=1)
    hop_budget = 2 * l1 + 4
    time_budget = kappa * l1.astype(np.float64)
    _, _, (u_flat, v_flat) = _edge_arrays(box.dimension, box.side)
    w = field.weights
    cur = np.full(box.n_vertices, math.inf)
    cur[sid] = 0.0
    vals = np.full(box.n_vertices, math.inf)
    first_ok = np.full(box.n_vertices, -1, dtype=np.int64)
    first_ok[cur <= time_budget] = 0
    for h in range(1, int(hop_budget.max()) + 1):
        nxt = cur.copy()
        np.minimum.at(nxt, v_flat, cur[u_flat] + w)
        np.minimum.at(nxt, u_flat, cur[v_flat] + w)
        cur = nxt
        first_ok[(first_ok < 0) & (cur <= time_budget)] = h
        vals[hop_budget == h] = cur[hop_budget == h]
    time_slack = time_budget - vals
    view = time_slack.copy()
    view[sid] = math.inf
    worst = int(np.argmin(view))
    reached = (hop_budget - first_ok)[first_ok >= 0]
    return (bool(np.all(vals <= time_budget)), float(time_slack[worst]),
            tuple(int(c) for c in coords[worst]), int(reached.min()) if len(reached) else None)


@pytest.mark.parametrize("law", [
    EdgeDistribution.two_point(1, 2, Fraction(1, 2)),
    EdgeDistribution.two_point(0, 3, Fraction(1, 3)),
    EdgeDistribution.exponential(1.0),
], ids=["two-point", "zero-atom", "exp"])
@pytest.mark.parametrize("d, n", [(2, 1), (2, 4), (2, 7), (3, 2)])
def test_hub_check_equals_hop_layered_reference(law, d, n):
    box = LatticeBox(d, n)
    event_rows, want_hub = [], []
    for seed, x, kappa in itertools.product(range(4), [(0,) * d, (n // 2,) * d],
                                            (0.5, 1.0, 1.3, 1.7, 2.5)):
        field = sample_weights(law, box, seed)
        rep = hub_check(field, x, kappa)
        want = _reference_hub(field, x, kappa)
        assert (rep.is_hub, rep.worst_time_slack, rep.worst_time_slack_target,
                rep.worst_hop_slack) == want, (seed, x, kappa)
        assert (rep.vertex, rep.kappa, rep.n_targets) == (x, kappa, box.n_vertices)
        if x[0] == 0 and kappa == 1.3:
            event_rows.append(field.weights)
            want_hub.append(rep.is_hub)
    # the compiled hub event tests a block of rows at once, with the same answers
    test = _predicate(EventSpec.hub((0,) * d, 1.3), box).test
    assert test(np.array(event_rows)).tolist() == want_hub


def test_hub_hop_slack_counts_rounds_up_to_the_largest_budget():
    # zero-weight snake from (0, 0) that comes back to (0, 1) at hop 21, one
    # past the largest hop budget 2 * 8 + 4; every other edge costs 10
    snake = ([(i, 0) for i in range(5)] + [(4, j) for j in range(1, 5)]
             + [(i, 4) for i in (3, 2, 1, 0)] + [(i, 3) for i in range(4)]
             + [(i, 2) for i in (3, 2, 1, 0)] + [(0, 1)])
    box = LatticeBox(2, 4)
    w = np.full(box.n_edges, 10.0)
    for u, v in zip(snake, snake[1:]):
        w[box.edge_id(u, v)] = 0.0
    field = WeightField(box=box, distribution=EdgeDistribution.two_point(0, 10, Fraction(1, 2)),
                        master_seed=0, weights=w)
    rep = hub_check(field, (0, 0), 1.0)
    assert rep.worst_hop_slack == 2 * 2 + 4 - 20  # (0, 2) at hop 20, not (0, 1) at hop 21
    assert (rep.is_hub, rep.worst_time_slack, rep.worst_time_slack_target,
            rep.worst_hop_slack) == _reference_hub(field, (0, 0), 1.0)


def test_geodesic_length_stats_ladder():
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    field = sample_weights(tp, LatticeBox(2, 6), 21)
    stats = geodesic_length_stats(field, b=2.0, L_values=[1.0, 50.0])
    assert stats.max_hops >= 6  # some pair spans the box
    flags = {row.L: row.long_geodesic for row in stats.ladder}
    assert flags[1.0] is True
    assert flags[50.0] is False
    for rec in stats.pairs:
        assert rec.hops >= abs(rec.source[0] - rec.target[0])


# ---------------------------------------------------------------------------
# batched Bellman-Ford rounds
# ---------------------------------------------------------------------------


def _reference_rounds(W, sources, nbr, eid):
    """The round kernel in its former layout, kept as the reference for every
    round: one gather, add and minimum per neighbour slot, copied out."""
    n_rows, n_vert = len(W), len(nbr)
    padded = np.concatenate([W, np.full((n_rows, 1), math.inf)], axis=1)
    slots = [(nbr[:, k], padded[:, None, eid[:, k]]) for k in range(nbr.shape[1])]
    dist = np.full((n_rows, len(sources), n_vert), math.inf)
    dist[:, np.arange(len(sources)), sources] = 0.0
    rounds = [dist.copy()]
    for _ in range(n_vert):
        nxt = dist.copy()
        for cols, w in slots:
            np.minimum(nxt, dist[..., cols] + w, out=nxt)
        if np.array_equal(nxt, dist):
            return rounds
        dist = nxt
        rounds.append(dist.copy())
    raise ValueError("edge weights must be nonnegative")


@pytest.mark.parametrize("d, n, region", [
    (2, 2, None),
    (2, 3, None),
    (2, 3, ((0, 3), (1, 2))),
    (2, 3, [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2), (3, 2), (3, 3)]),
    (3, 2, None),
    (3, 2, ((0, 2), (0, 1), (1, 2))),
])
def test_every_round_equals_the_per_slot_kernel(d, n, region):
    # _hub_times reads the rounds before the fixed point, so every round is
    # pinned, not the distances alone.  A region sends its cut arcs to the
    # inf padding edge; zero atoms give ties and free hops
    box = LatticeBox(d, n)
    mask = _region_mask(box, region)
    nbr, eid = _arc_table(box, mask)
    inside = np.flatnonzero(mask) if mask is not None else np.arange(box.n_vertices)
    rng = np.random.default_rng(d * 10 + n)
    atoms = np.array([0.0, 0.0, 0.1, 0.7, 1.0, 2.0])
    for sources in (inside[:1], inside[-1:], inside):
        for B in (1, 7, _batch_rows(box, len(sources))):
            W = atoms[rng.integers(0, len(atoms), (B, box.n_edges))]
            W[: B // 2] += rng.exponential(1.0, (B // 2, box.n_edges))
            want = _reference_rounds(W, sources, nbr, eid)
            got = [dist.copy() for dist in _bellman_ford_rounds(W, sources, nbr, eid)]
            assert len(got) == len(want), (len(sources), B)
            for h, (a, b) in enumerate(zip(got, want)):
                assert a.tobytes() == b.tobytes(), (len(sources), B, h)
