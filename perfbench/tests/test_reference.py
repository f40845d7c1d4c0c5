"""The benchmark's independent exact references, pinned to known anchors.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from fractions import Fraction

import pytest

import reference

HALF = [Fraction(1, 2), Fraction(1, 2)]


def test_single_edge_is_one_half():
    # one edge of the side-1 square, uniform two-point {1, 2}, T <= 1
    assert reference.passage_probability([1.0, 2.0], HALF, 2, 1, (0, 0), (1, 0), 1.0) \
        == Fraction(1, 2)


def test_unit_square_diagonal_is_seven_sixteenths():
    assert reference.passage_probability([1.0, 2.0], HALF, 2, 1, (0, 0), (1, 1), 2.0) \
        == Fraction(7, 16)


def test_side_two_corner_to_corner():
    # d=2, n=2, (0,0) -> (2,2), t=5, uniform two-point {1, 2}
    assert reference.passage_probability([1.0, 2.0], HALF, 2, 2, (0, 0), (2, 2), 5.0) \
        == Fraction(3105, 4096)


def test_simple_path_counts():
    assert len(reference.simple_paths(2, 1, (0, 0), (1, 1))) == 2
    assert len(reference.simple_paths(2, 2, (0, 0), (2, 2))) == 12
    assert len(reference.simple_paths(3, 1, (0, 0, 0), (1, 1, 1))) == 18


def test_all_pairs_agrees_with_simple_paths():
    idx = reference.configurations(len(reference.box_edges(2, 2)), 2)
    apsp = reference.all_pairs_times([1.0, 2.0], idx, 2, 2)
    verts = reference.box_vertices(2, 2)
    for j in (1, 5, 8):
        want = reference.passage_times([1.0, 2.0], idx, 2, 2, verts[0], verts[j])
        assert (apsp[:, 0, j] == want).all()


def test_class_probability_matches_per_configuration_products():
    probs = [Fraction(1, 3), Fraction(2, 3)]
    idx = reference.configurations(4, 2)
    holds = idx.sum(axis=1) % 2 == 0
    want = Fraction(0)
    for row in idx[holds]:
        p = Fraction(1)
        for a in row:
            p *= probs[a]
        want += p
    assert reference.class_probability(idx, holds, probs) == want


def test_fkg_terms_have_nonnegative_slack():
    lhs, f1, f2 = reference.fkg_terms([1.0, 2.0], HALF, 2, (1, 0), (1, 0), 1.5, 1.5)
    assert (lhs, f1, f2) == (Fraction(3, 4), Fraction(1, 2), Fraction(1, 2))
    assert lhs - f1 * f2 >= 0


@pytest.mark.parametrize("eps, want", [(0.25, Fraction(1, 4096)),
                                       (1.5, Fraction(4033, 4096))])
def test_ld_lower_extremes(eps, want):
    assert reference.ld_lower_probability([1.0, 2.0], HALF, 2, 2, [0.875, 1.125], eps) == want


def test_ld_lower_at_huge_eps_is_certain():
    assert reference.ld_lower_probability([1.0, 2.0], HALF, 2, 1, [1.0, 1.0], 10.0) == 1
