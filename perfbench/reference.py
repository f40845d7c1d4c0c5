"""Exact event probabilities computed without fpplab, for the output checks.

The oracle enumerates weight configurations edge by edge and runs a heap
Dijkstra per configuration.  This module reaches the same rationals another
way: every configuration at once as a numpy array, passage times as the
minimum over the box's simple paths (or a Floyd-Warshall sweep for all
pairs), and probabilities summed per atom-multiplicity class.  Edge order
is this module's own; an i.i.d. law makes the probability independent of it.

Weights, thresholds and norm weights must be dyadic rationals so that
floating-point sums and comparisons are exact on both sides.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def box_vertices(d: int, n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(n + 1), repeat=d))


def box_edges(d: int, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Nearest-neighbour edges of [0, n]^d as (u, v) with v = u + e_axis."""
    edges = []
    for u in box_vertices(d, n):
        for axis in range(d):
            if u[axis] < n:
                v = list(u)
                v[axis] += 1
                edges.append((u, tuple(v)))
    return edges


def configurations(n_edges: int, n_atoms: int) -> np.ndarray:
    """All atom-index vectors, shape (n_atoms ** n_edges, n_edges)."""
    grids = np.indices((n_atoms,) * n_edges).reshape(n_edges, -1).T
    return np.ascontiguousarray(grids, dtype=np.int64)


def simple_paths(d: int, n: int, x, y) -> list[list[int]]:
    """Every self-avoiding lattice path from x to y, as lists of edge indices."""
    x, y = tuple(x), tuple(y)
    edges = box_edges(d, n)
    nbrs: dict[tuple, list[tuple[tuple, int]]] = {v: [] for v in box_vertices(d, n)}
    for k, (u, v) in enumerate(edges):
        nbrs[u].append((v, k))
        nbrs[v].append((u, k))
    out: list[list[int]] = []

    def walk(v, seen, path):
        if v == y:
            out.append(list(path))
            return
        for w, k in nbrs[v]:
            if w not in seen:
                seen.add(w)
                path.append(k)
                walk(w, seen, path)
                path.pop()
                seen.remove(w)

    walk(x, {x}, [])
    return out


def class_probability(idx: np.ndarray, holds: np.ndarray, probs) -> Fraction:
    """Exact probability of the configurations where ``holds`` is true.

    Configurations with the same count of each atom have the same
    probability, so they are grouped before any Fraction arithmetic.
    """
    probs = [Fraction(p) for p in probs]
    counts = np.stack([(idx[holds] == a).sum(axis=1) for a in range(len(probs))], axis=1)
    if counts.shape[0] == 0:
        return Fraction(0)
    classes, mult = np.unique(counts, axis=0, return_counts=True)
    total = Fraction(0)
    for row, m in zip(classes, mult):
        p = Fraction(int(m))
        for a, c in enumerate(row):
            p *= probs[a] ** int(c)
        total += p
    return total


def passage_times(values, idx: np.ndarray, d: int, n: int, x, y) -> np.ndarray:
    """T(x, y) for every configuration row of ``idx``."""
    if tuple(x) == tuple(y):
        return np.zeros(idx.shape[0])
    w = np.asarray(values, dtype=float)[idx]
    return np.min(np.stack([w[:, p].sum(axis=1) for p in simple_paths(d, n, x, y)]),
                  axis=0)


def all_pairs_times(values, idx: np.ndarray, d: int, n: int) -> np.ndarray:
    """All-pairs passage times, shape (configs, V, V), vertices in row-major order."""
    verts = box_vertices(d, n)
    pos = {v: i for i, v in enumerate(verts)}
    w = np.asarray(values, dtype=float)[idx]
    dist = np.full((idx.shape[0], len(verts), len(verts)), np.inf)
    for i in range(len(verts)):
        dist[:, i, i] = 0.0
    for k, (u, v) in enumerate(box_edges(d, n)):
        dist[:, pos[u], pos[v]] = w[:, k]
        dist[:, pos[v], pos[u]] = w[:, k]
    for m in range(len(verts)):
        dist = np.minimum(dist, dist[:, :, m, None] + dist[:, None, m, :])
    return dist


def passage_probability(values, probs, d: int, n: int, x, y, t) -> Fraction:
    """P(T(x, y) <= t) on the box [0, n]^d under the i.i.d. finite law."""
    idx = configurations(len(box_edges(d, n)), len(values))
    return class_probability(idx, passage_times(values, idx, d, n, x, y) <= t, probs)


def fkg_terms(values, probs, n: int, x1, x2, t1, t2):
    """(lhs, first factor, second factor) of the in-box FKG check.

    lhs = P(T(0, x1 + x2) <= t1 + t2), first = P(T(0, x1) <= t1) and
    second = P(T(x1, x1 + x2) <= t2), on the box [0, n]^d with d = len(x1).
    """
    x1, x2 = tuple(x1), tuple(x2)
    x12 = tuple(a + b for a, b in zip(x1, x2))
    origin = (0,) * len(x1)
    d = len(x1)
    idx = configurations(len(box_edges(d, n)), len(values))
    lhs = passage_times(values, idx, d, n, origin, x12) <= t1 + t2
    f1 = passage_times(values, idx, d, n, origin, x1) <= t1
    f2 = passage_times(values, idx, d, n, x1, x12) <= t2
    return tuple(class_probability(idx, h, probs) for h in (lhs, f1, f2))


def ld_lower_probability(values, probs, d: int, n: int, norm_weights, eps) -> Fraction:
    """P(T(u, v) / n <= |u - v|_w / n + eps for all vertex pairs u, v).

    This is the ``ld_lower`` event for a weighted l1 norm without highways,
    evaluated on every vertex of the box.
    """
    verts = np.asarray(box_vertices(d, n), dtype=float)
    norm = np.abs(verts[:, None, :] - verts[None, :, :]) @ np.asarray(norm_weights, dtype=float)
    idx = configurations(len(box_edges(d, n)), len(values))
    times = all_pairs_times(values, idx, d, n)
    holds = np.all(times / n <= norm[None] / n + eps, axis=(1, 2))
    return class_probability(idx, holds, probs)
