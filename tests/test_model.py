"""Edge-weight laws, lattice boxes, and the counter-based weight sampler."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab.model import (
    EdgeDistribution,
    LatticeBox,
    WeightField,
    _adjacency,
    _edge_arrays,
    _neighbours,
    sample_weight_rows,
    sample_weights,
    subcritical_atom_check,
    truncate,
)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def test_two_point_atoms_and_mean():
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    values, probs = tp.atoms()
    assert values == (1.0, 2.0)
    assert probs == (Fraction(1, 2), Fraction(1, 2))
    assert tp.mean() == 1.5
    assert tp.support_infimum == 1.0
    assert tp.support_supremum() == 2.0


def test_cdf_fraction_is_exact():
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 3))
    assert tp.cdf_fraction(0.5) == Fraction(0)
    assert tp.cdf_fraction(1.0) == Fraction(1, 3)
    assert tp.cdf_fraction(1.7) == Fraction(1, 3)
    assert tp.cdf_fraction(2.0) == Fraction(1)
    # continuous laws have no exact rational cdf
    assert EdgeDistribution.uniform(0.0, 1.0).cdf_fraction(0.5) is None


def test_finite_support_probabilities_sum_to_one():
    with pytest.raises(ValueError):
        EdgeDistribution.finite_support([1, 2], [Fraction(1, 3), Fraction(1, 3)])
    fs = EdgeDistribution.finite_support(
        [1, 2, 4], [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
    assert fs.mean() == 1 * 0.25 + 2 * 0.5 + 4 * 0.25


def test_truncation_caps_support():
    tp = EdgeDistribution.two_point(1, 3, Fraction(1, 2))
    tr = truncate(tp, 2.0)
    assert tr.support_supremum() == 2.0
    assert tr.cdf(2.0) == 1.0
    u = np.linspace(0.0, 0.999, 100)
    assert np.array_equal(tr.sample_from_uniforms(u),
                          np.minimum(tp.sample_from_uniforms(u), 2.0))


@pytest.mark.parametrize("kind, args, what", [
    ("deterministic", (math.inf,), "c"),
    ("deterministic", (math.nan,), "c"),
    ("two_point", (1.0, math.inf, Fraction(1, 2)), "hi"),
    ("two_point", (math.nan, 2.0, Fraction(1, 2)), "lo"),
    ("uniform", (0.0, math.inf), "b"),
    ("uniform", (math.nan, 1.0), "a"),
    ("exponential", (math.nan,), "rate"),
    ("exponential", (math.inf,), "rate"),
    ("exponential", (1.0, math.inf), "shift"),
    ("finite_support", ([math.nan, 1.0], [Fraction(1, 2)] * 2), "values"),
    ("finite_support", ([1.0, math.inf], [Fraction(1, 2)] * 2), "values"),
])
def test_laws_reject_non_finite_parameters(kind, args, what):
    # an infinite weight made a connected pair's passage time inf, and a NaN
    # one sampled NaN weights or sorted a NaN atom into the table
    with pytest.raises(ValueError, match=f"{what} must be finite"):
        getattr(EdgeDistribution, kind)(*args)


@pytest.mark.parametrize("law", [EdgeDistribution.two_point(1, 2, Fraction(1, 2)),
                                 EdgeDistribution.exponential(1.0)],
                         ids=["two_point", "exponential"])
def test_truncate_rejects_nan_and_keeps_the_law_at_inf(law):
    # a NaN level returned the law, or built one capped at NaN; min(tau, inf) = tau
    with pytest.raises(ValueError, match="NaN"):
        truncate(law, math.nan)
    assert truncate(law, math.inf) is law


def test_two_point_log_mgf_closed_form():
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    lam = 0.7
    want = math.log(0.5 * math.exp(lam) + 0.5 * math.exp(2 * lam))
    assert abs(tp.log_mgf(lam) - want) < 1e-14


def test_exponential_log_mgf_diverges_at_rate():
    ex = EdgeDistribution.exponential(1.0)
    assert math.isfinite(ex.log_mgf(0.5))
    with pytest.raises(ValueError):
        ex.log_mgf(1.5)


def _truncated_mgf_by_quadrature(law, lam):
    """E[exp(lam * min(tau, cap))]: the base density on [support infimum,
    cap) by quadrature, plus the atom at the cap."""
    from scipy.integrate import quad

    base, cap = law.params
    lo = base.support_infimum
    if base.kind == "uniform":
        a, b = base.params
        density = lambda t: 1.0 / (b - a)  # noqa: E731
    else:
        rate, shift = base.params
        density = lambda t: rate * math.exp(-rate * (t - shift))  # noqa: E731
    cont = quad(lambda t: density(t) * math.exp(lam * t), lo, cap)[0] if cap > lo else 0.0
    return cont + (1.0 - base.cdf(cap)) * math.exp(lam * cap)


@pytest.mark.parametrize("law", [
    truncate(EdgeDistribution.exponential(1.0), 2.0),
    truncate(EdgeDistribution.exponential(2.0, shift=0.5), 1.25),
    truncate(EdgeDistribution.uniform(1.0, 3.0), 2.0),
    truncate(EdgeDistribution.uniform(1.0, 2.0), 1.0),
], ids=["exp", "shifted-exp", "uniform", "uniform-capped-at-a"])
@pytest.mark.parametrize("lam", [-2.0, 0.5, 1.0, 1.5, 3.0])
def test_truncated_log_mgf_matches_quadrature(law, lam):
    # lam = 1.0 meets rate 1 of the first law; lam > rate is finite for a bounded law
    want = math.log(_truncated_mgf_by_quadrature(law, lam))
    assert law.log_mgf(lam) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_spec_round_trip():
    laws = [
        EdgeDistribution.deterministic(1.5),
        EdgeDistribution.two_point(1, 2, Fraction(2, 5)),
        EdgeDistribution.uniform(0.5, 2.0),
        EdgeDistribution.exponential(2.0, shift=0.25),
        EdgeDistribution.finite_support([1, 2, 3],
                                        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]),
        truncate(EdgeDistribution.two_point(1, 3, Fraction(1, 2)), 2.0),
    ]
    for law in laws:
        rec = law.spec()
        back = EdgeDistribution.from_spec(rec)
        assert back.spec() == rec
        ugrid = np.linspace(0.0, 0.999, 50)
        assert np.allclose(back.sample_from_uniforms(ugrid),
                           law.sample_from_uniforms(ugrid))


def test_sample_from_uniforms_two_point_split():
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    out = tp.sample_from_uniforms(np.array([0.0, 0.4999, 0.5, 0.9]))
    assert out.tolist() == [1.0, 1.0, 2.0, 2.0]


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), 0.1])
def test_two_point_and_deterministic_are_finite_support_tables(p):
    q = Fraction(p)
    pairs = [(EdgeDistribution.two_point(1, 2.5, p),
              EdgeDistribution.finite_support([1, 2.5], [q, 1 - q])),
             (EdgeDistribution.deterministic(1.5), EdgeDistribution.finite_support([1.5], [1]))]
    # at float(p), on both sides of it, and at the ends of [0, 1)
    u = np.array([0.0, np.nextafter(float(p), 0.0), float(p), np.nextafter(float(p), 1.0),
                  1.0 - 2.0 ** -53])
    for law, table in pairs:
        assert law.atoms() == table.atoms()
        assert law.sample_from_uniforms(u).tobytes() == table.sample_from_uniforms(u).tobytes()
    assert pairs[0][0].sample_from_uniforms(u).tolist() == np.where(u < float(p), 1.0, 2.5).tolist()


@given(st.floats(min_value=0.0, max_value=0.999), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_inverse_cdf_monotone(u, which):
    laws = [
        EdgeDistribution.two_point(1, 2, Fraction(1, 2)),
        EdgeDistribution.uniform(0.5, 2.0),
        EdgeDistribution.exponential(1.0),
    ]
    law = laws[which]
    lo, hi = law.sample_from_uniforms(np.array([u, min(u + 1e-4, 0.9995)]))
    assert lo <= hi


# ---------------------------------------------------------------------------
# lattice boxes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 2), (3, 5)])
def test_box_edge_and_vertex_counts(d, n):
    box = LatticeBox(dimension=d, side=n)
    assert box.n_vertices == (n + 1) ** d
    assert box.n_edges == d * n * (n + 1) ** (d - 1)


def test_vertex_id_round_trip():
    box = LatticeBox(dimension=3, side=3)
    coords = box.all_vertex_coords()
    ids = box.vertex_id(coords)
    assert sorted(ids.tolist()) == list(range(box.n_vertices))


@pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 2), (3, 5)])
def test_edge_id_round_trips_every_edge(d, n):
    box = LatticeBox(dimension=d, side=n)
    _, _, (u, v) = _edge_arrays(d, n)
    coords = box.all_vertex_coords()
    for e in range(box.n_edges):
        assert box.edge_id(coords[u[e]], coords[v[e]]) == e
        assert box.edge_id(coords[v[e]], coords[u[e]]) == e
    corner, step = np.zeros(d, dtype=int), np.eye(d, dtype=int)[0]
    far = np.full(d, n)
    bad = [(corner, corner), (far, far),  # u == v, where the padding slots point
           (corner, np.ones(d, dtype=int)), (corner, 2 * step),  # not neighbours
           (corner, -step), (far, far + step)]  # a vertex outside the box
    for x, y in bad:
        with pytest.raises(ValueError):
            box.edge_id(x, y)


def test_non_integer_coordinates_are_rejected():
    # truncation used to name another vertex: (2.9, 0) read as (2, 0), and
    # (0.7, 0)-(1.2, 0) as edge 0; a rescaled metric stored the point
    # (2, 2.9) as (2, 2), and disjoint paths from (0.5, 0) started at (0, 0)
    from fpplab.passage_time import disjoint_paths, rescaled_metric, restricted_passage_time

    box = LatticeBox(2, 3)
    for bad in ([2.9, 0], [[1, 1], [2.9, 0]], [np.nan, 0]):
        with pytest.raises(ValueError, match="integers"):
            box.vertex_id(bad)
    with pytest.raises(ValueError, match="integers"):
        box.edge_id([0.7, 0], [1.2, 0])
    field = sample_weights(EdgeDistribution.two_point(1, 2, 0.5), box, 0)
    with pytest.raises(ValueError, match="integers"):
        restricted_passage_time(field, (0, 0), (2.5, 1))
    # integral floats keep their ids, one point or many
    assert box.vertex_id([1.0, 2.0]) == box.vertex_id([1, 2]) == 6
    assert box.vertex_id(np.array([[1.0, 2.0], [0.0, 0.0]])).tolist() == [6, 0]
    assert box.edge_id([0.0, 0.0], [1.0, 0.0]) == 0
    assert restricted_passage_time(field, (0.0, 0.0), (2.0, 1.0)) == \
        restricted_passage_time(field, (0, 0), (2, 1))
    with pytest.raises(ValueError, match="integers"):
        rescaled_metric(field, points=[(0.5, 0), (2, 2.9)])
    with pytest.raises(ValueError, match="integers"):
        disjoint_paths(box, (0.5, 0), (2, 2))
    assert rescaled_metric(field, points=[(0.0, 0), (2, 2.0)]).points.tolist() == [[0, 0], [2, 2]]
    assert [p.vertices.tolist() for p in disjoint_paths(box, (0.0, 0), (2.0, 2))] == \
        [p.vertices.tolist() for p in disjoint_paths(box, (0, 0), (2, 2))]


# ---------------------------------------------------------------------------
# weight sampling
# ---------------------------------------------------------------------------


def test_sample_weights_deterministic_in_seed():
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    box = LatticeBox(dimension=2, side=6)
    a = sample_weights(tp, box, 11)
    b = sample_weights(tp, box, 11)
    c = sample_weights(tp, box, 12)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


_EVERY_LAW = [
    EdgeDistribution.deterministic(1.5),
    EdgeDistribution.two_point(1, 2, Fraction(1, 3)),
    EdgeDistribution.uniform(0.5, 2.0),
    EdgeDistribution.exponential(1.0, shift=0.25),
    EdgeDistribution.finite_support([0.0, 1.0, 2.5],
                                    [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]),
    truncate(EdgeDistribution.exponential(2.0), 0.7),
    truncate(EdgeDistribution.uniform(0.0, 1.0), 0.3),
]


@pytest.mark.parametrize("law", _EVERY_LAW, ids=lambda law: law.kind)
@pytest.mark.parametrize("d, n", [(2, 4), (3, 2)])
def test_sample_weight_rows_equal_sample_weights(law, d, n):
    box = LatticeBox(d, n)
    seeds = [0, 1, 7, 123456789, 2**63 + 5, 2**64 - 1, -3]
    rows = sample_weight_rows(law, box, seeds)
    assert rows.shape == (len(seeds), box.n_edges)
    for row, seed in zip(rows, seeds):
        assert row.tobytes() == sample_weights(law, box, seed).weights.tobytes()
    # a uint64 seed array, as SeedSequence.generate_state returns, gives the same rows
    again = sample_weight_rows(law, box, np.array(seeds[:6], dtype=np.uint64))
    assert again.tobytes() == rows[:6].tobytes()


def test_cached_edge_tables_are_read_only():
    base, axis, (u, v) = _edge_arrays(2, 3)
    for arr in (base, axis, u, v, *_adjacency(2, 3), *_neighbours(2, 3)):
        assert not arr.flags.writeable


def test_sample_weights_support():
    fs = EdgeDistribution.finite_support([1, 2, 4],
                                         [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)])
    box = LatticeBox(dimension=2, side=8)
    field = sample_weights(fs, box, 0)
    assert set(np.unique(field.weights)) <= {1.0, 2.0, 4.0}
    assert field.weights.shape == (box.n_edges,)


def test_truncated_field_is_min_coupling():
    tp = EdgeDistribution.two_point(1, 3, Fraction(1, 2))
    box = LatticeBox(dimension=2, side=5)
    field = sample_weights(tp, box, 4)
    tf = field.truncated(2.0)
    assert isinstance(tf, WeightField)
    assert np.array_equal(tf.weights, np.minimum(field.weights, 2.0))


def test_weight_frequencies_near_law():
    """The counter-based generator should not bias the marginal law."""
    tp = EdgeDistribution.two_point(1, 2, Fraction(1, 2))
    box = LatticeBox(dimension=2, side=16)
    field = sample_weights(tp, box, 2024)
    frac_light = float(np.mean(field.weights == 1.0))
    se = math.sqrt(0.25 / box.n_edges)
    assert abs(frac_light - 0.5) < 4 * se


# ---------------------------------------------------------------------------
# percolation atom condition
# ---------------------------------------------------------------------------


def test_subcritical_atom_check_exact_in_d2():
    ok = subcritical_atom_check(
        EdgeDistribution.finite_support([0, 1], [Fraction(1, 4), Fraction(3, 4)]), 2)
    assert ok.subcritical and ok.exact_threshold
    at_threshold = subcritical_atom_check(
        EdgeDistribution.finite_support([0, 1], [Fraction(1, 2), Fraction(1, 2)]), 2)
    assert not at_threshold.subcritical  # the inequality is strict
    # only an atom at zero counts, not one at a positive infimum
    assert subcritical_atom_check(truncate(EdgeDistribution.exponential(1.0), 0.0), 2).atom == 1
    shifted = truncate(EdgeDistribution.exponential(1.0, shift=0.5), 0.5)
    assert subcritical_atom_check(shifted, 2).atom == 0


def test_atom_at_infimum_of_each_kind():
    assert EdgeDistribution.two_point(1, 2, Fraction(1, 3)).atom_at_infimum() == Fraction(1, 3)
    assert EdgeDistribution.finite_support(
        [0.7, 0.2], [Fraction(1, 4), Fraction(3, 4)]).atom_at_infimum() == Fraction(3, 4)
    assert EdgeDistribution.deterministic(1.5).atom_at_infimum() == 1
    assert EdgeDistribution.uniform(1.0, 2.0).atom_at_infimum() == 0
    # a truncated continuous law holds all its mass at the infimum only when
    # the cap sits there
    exp1 = EdgeDistribution.exponential(1.0)
    assert truncate(exp1, 0.0).atom_at_infimum() == 1
    assert truncate(exp1, 0.5).atom_at_infimum() == 0
    assert truncate(EdgeDistribution.exponential(1.0, shift=0.5), 0.5).atom_at_infimum() == 1
    assert truncate(EdgeDistribution.uniform(1.0, 3.0), 2.0).atom_at_infimum() == 0


def test_subcritical_atom_check_d3_table_value():
    rep = subcritical_atom_check(EdgeDistribution.two_point(1, 2, Fraction(1, 2)), 3)
    assert rep.atom == 0
    assert rep.subcritical
    assert abs(rep.threshold - 0.2488126) < 1e-7
    with pytest.raises(ValueError):
        subcritical_atom_check(EdgeDistribution.deterministic(1.0), 4)
