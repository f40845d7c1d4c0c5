"""Passage times on boxes: restricted shortest paths, rescaled and continuous
box metrics, disjoint lattice paths, hubs, and geodesic length statistics.

Conventions.  A weight field lives on the box [0, n]^d (see
:mod:`fpplab.model`).  The rescaled pseudometric holds (1/n) T(u, v) for
pairs of grid vertices u, v, where T is the passage time restricted to the
box.  Unreachable pairs (under a region restriction that
disconnects them) get the value ``math.inf`` rather than an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from fpplab._artifacts import float_cells
from fpplab.model import (LatticeBox, WeightField, _adjacency, _integral, _neighbours,
                          sample_weight_rows)

__all__ = [
    "DiscretePath",
    "restricted_passage_time",
    "RescaledMetric",
    "rescaled_metric",
    "ContinuousMetric",
    "uniform_gap",
    "GapReport",
    "disjoint_paths",
    "HubReport",
    "hub_check",
    "GeodesicRecord",
    "LongGeodesicFlag",
    "GeodesicStats",
    "geodesic_length_stats",
]


@dataclass(frozen=True)
class DiscretePath:
    """A nearest-neighbour lattice path, stored as its vertex coordinates."""

    vertices: np.ndarray  # (r + 1, d) integer array

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.int64)
        object.__setattr__(self, "vertices", v)
        if v.ndim != 2 or len(v) < 1:
            raise ValueError("a path needs at least one vertex")
        if np.any(np.abs(np.diff(v, axis=0)).sum(axis=1) != 1):
            raise ValueError("consecutive path vertices must be lattice neighbours")

    @property
    def hops(self) -> int:
        return len(self.vertices) - 1

    def endpoints(self) -> tuple[tuple, tuple]:
        return tuple(self.vertices[0]), tuple(self.vertices[-1])

    def is_vertex_self_avoiding(self) -> bool:
        seen = set(map(tuple, self.vertices))
        return len(seen) == len(self.vertices)


# ---------------------------------------------------------------------------
# region restrictions


def _region_mask(box: LatticeBox, region) -> np.ndarray | None:
    """Normalise a region spec to a boolean mask over flat vertex ids.

    Accepts ``None`` (whole box), a per-axis tuple of (lo, hi) coordinate
    bounds (a sub-box / cylinder), or an iterable of vertex coordinate tuples.
    """
    if region is None:
        return None
    if isinstance(region, tuple) and len(region) == box.dimension and all(
        isinstance(r, (tuple, list)) and len(r) == 2 for r in region
    ):
        coords = box.all_vertex_coords()
        mask = np.ones(box.n_vertices, dtype=bool)
        for axis, (lo, hi) in enumerate(region):
            mask &= (coords[:, axis] >= lo) & (coords[:, axis] <= hi)
        return mask
    mask = np.zeros(box.n_vertices, dtype=bool)
    for v in region:
        mask[box.vertex_id(v)] = True
    return mask


# ---------------------------------------------------------------------------
# the shortest-path solve


#: Vertices in one block-diagonal graph of :func:`_seeded_passage_times`; a
#: chunk holds as many weight rows as fit.  csgraph's multi-source solve slows down on
#: larger graphs: at d=2 n=64 one row per solve was the fastest.
_BLOCK_VERTICES = 1 << 12


def _box_graph(W: np.ndarray, box: LatticeBox, mask=None, access=None) -> sp.csr_matrix:
    """Block-diagonal CSR graph of the box, one block per row of ``W``.

    Each edge gives two arcs costing its weight; arcs into a vertex outside
    ``mask`` cost ``inf``.  With ``access`` (one row per row of ``W``), an
    extra vertex numbered ``n_vertices`` in each block gets an arc of cost
    ``access[b, u]`` to every vertex u.  Block b holds vertices
    ``b * size`` to ``(b + 1) * size - 1``, with ``size`` the vertices per
    block; no arc joins two blocks.
    """
    indptr, nbrs, eids = _adjacency(box.dimension, box.side)
    data = W[:, eids]
    if mask is not None:
        data = np.where(mask[nbrs], data, math.inf)
    if access is not None:
        indptr = np.append(indptr, indptr[-1] + box.n_vertices)
        nbrs = np.concatenate([nbrs, np.arange(box.n_vertices)])
        data = np.concatenate([data, access], axis=1)
    rows, nnz = data.shape
    size = len(indptr) - 1
    if rows > 1:
        shift = np.arange(rows)[:, None]
        indptr = np.append((indptr[:-1] + nnz * shift).ravel(), rows * nnz)
        nbrs = (nbrs + size * shift).ravel()
    return sp.csr_matrix((data.ravel(), nbrs, indptr), shape=(rows * size, rows * size))


def _solve(field: WeightField, sources, mask=None):
    """Passage times from ``sources`` on the box graph of a field.

    Every single-field solve goes through this one scipy csgraph Dijkstra on
    the one-block :func:`_box_graph`.  Returns the distance rows and the CSR
    graph.
    """
    graph = _box_graph(field.weights[None], field.box, mask)
    return _scipy_dijkstra(graph, directed=True, indices=sources), graph


def _solve_rows(W: np.ndarray, box: LatticeBox, sources, mask=None, access=None,
                limit: float = math.inf) -> np.ndarray:
    """Passage times from one source per weight row: shape ``(B, size)``.

    ``W`` is a ``(B, n_edges)`` block of weight rows of ``box`` and
    ``sources`` one vertex id, or one per row.  ``access`` adds each
    block's access vertex (see :func:`_box_graph`), so ``size`` is
    ``n_vertices`` plus one with it and ``n_vertices`` without.  All rows go
    into one block-diagonal :func:`_box_graph` and one csgraph Dijkstra with
    ``min_only=True`` from every block's source.  The blocks are disjoint
    components, so each block's distances are its own field's, bit for bit
    those of a one-block solve of that field.  The search stops at
    ``limit``: a vertex farther than it reads ``inf``, and one at most
    ``limit`` away (ties included) keeps its exact distance.
    """
    size = box.n_vertices + (access is not None)
    starts = np.asarray(sources, dtype=np.int64) + size * np.arange(len(W))
    dist = _scipy_dijkstra(_box_graph(W, box, mask, access), directed=True, indices=starts,
                           min_only=True, limit=limit)
    return dist.reshape(len(W), size)


def _seeded_passage_times(dist, box: LatticeBox, seeds, x, y, region=None,
                          limit: float = math.inf) -> np.ndarray:
    """T(x, y) among paths in ``region``, under the field of each seed in turn.

    The fields are sampled as weight rows and solved by :func:`_solve_rows`
    a chunk at a time, as many rows per chunk as fit in
    :data:`_BLOCK_VERTICES` vertices (one row when a single box has more).
    Each value equals ``restricted_passage_time(sample_weights(dist, box,
    seed), x, y, region)`` bit for bit where that is at most ``limit``, and
    is ``inf`` where it is larger.
    """
    mask = _region_mask(box, region)
    sid, tid = _pair_ids(box, x, y, mask)
    rows = max(1, _BLOCK_VERTICES // box.n_vertices)
    out = np.empty(len(seeds))
    for start in range(0, len(seeds), rows):
        W = sample_weight_rows(dist, box, seeds[start:start + rows])
        out[start:start + rows] = _solve_rows(W, box, sid, mask, limit=limit)[:, tid]
    return out


def _pair_ids(box: LatticeBox, x, y, mask) -> tuple[int, int]:
    """Vertex ids of x and y, both of which must lie in the region mask."""
    sid, tid = box.vertex_id(x), box.vertex_id(y)
    if mask is not None and not (mask[sid] and mask[tid]):
        raise ValueError("both endpoints must belong to the region")
    return sid, tid


# ---------------------------------------------------------------------------
# Bellman-Ford over weight rows: enumerable boxes and hubs

#: Elements in one temporary of a batched Bellman-Ford solve; a batch holds as
#: many weight rows as fit.  Larger batches measured no faster and cost peak memory.
_BATCH_ELEMENTS = 1 << 16


def _arc_table(box: LatticeBox, mask) -> tuple[np.ndarray, np.ndarray]:
    """The box's neighbour table (:func:`fpplab.model._neighbours`), with
    every arc touching a vertex outside the region mask sent to the padding
    edge ``n_edges``, which :func:`_bellman_ford_rounds` fills with ``inf``,
    so it never relaxes."""
    nbr, eid = _neighbours(box.dimension, box.side)
    if mask is not None:
        eid = np.where(mask[:, None] & mask[nbr], eid, box.n_edges)
    return nbr, eid


def _batch_rows(box: LatticeBox, n_sources: int) -> int:
    """Weight rows per batch of a Bellman-Ford solve from ``n_sources`` sources."""
    return max(1, _BATCH_ELEMENTS // (n_sources * box.n_vertices * 2 * box.dimension))


def _bellman_ford_rounds(W: np.ndarray, sources: np.ndarray, nbr: np.ndarray, eid: np.ndarray):
    """Yield the passage times from every source under every weight row,
    shape (B, S, V), after each Bellman-Ford round: round h holds the
    cheapest times over paths of at most h edges, round 0 the sources alone.

    Each round sets ``dist[v] = min(dist[v], min_k dist[nbr[v, k]] + w[eid[v, k]])``
    for all slots ``k`` at once, in a vertex-first layout: the times are
    held as (V, B, S), so one gather through the transposed neighbour table
    copies whole (B, S) blocks into a (2d, V, B, S) temporary, the weights,
    gathered once per call, are added to it, and one reduction over its
    leading slot axis takes the minimum.  ``min`` is exact, so the order of
    the slots changes no value.  The rounds stop after the last one that
    changes a value.  Each round is a new array, yielded as a (B, S, V) view.
    """
    n_vert = len(nbr)
    padded = np.concatenate([W, np.full((len(W), 1), math.inf)], axis=1)
    cols, w = nbr.T, padded.T[eid.T, :, None]  # (2d, V) and (2d, V, B, 1)
    dist = np.full((n_vert, len(W), len(sources)), math.inf)
    dist[sources, :, np.arange(len(sources))] = 0.0
    yield dist.transpose(1, 2, 0)
    # a best path has at most V - 1 edges, so round V changes nothing
    for _ in range(n_vert):
        arrival = dist.take(cols, axis=0)
        arrival += w
        nxt = np.minimum(dist, np.minimum.reduce(arrival, axis=0))
        if (nxt == dist).all():
            return
        dist = nxt
        yield dist.transpose(1, 2, 0)
    raise ValueError("edge weights must be nonnegative")


def _batched_distances(W: np.ndarray, sources: np.ndarray, nbr: np.ndarray,
                       eid: np.ndarray) -> np.ndarray:
    """Passage times from every source under every weight row, shape (B, S, V).

    The fixed point of :func:`_bellman_ford_rounds`.  Weights are nonnegative
    and float addition is monotone, so it is the float sum along a best path
    from the source, bit for bit what a heap Dijkstra returns.
    """
    for dist in _bellman_ford_rounds(W, sources, nbr, eid):
        pass
    return dist


def _geodesic(graph: sp.csr_matrix, dist: np.ndarray, source: int, target: int,
              box: LatticeBox) -> DiscretePath:
    """Rebuild a geodesic from the distances of one source.

    An arc u -> v is tight when dist[u] + w == dist[v].  The predecessor of v
    is the smallest-id u on a tight arc with dist[u] < dist[v] or, across a
    zero-weight plateau, with fewer tight-arc hops from the source; the pair
    (dist, hops) falls strictly along every predecessor step, so chains end
    at the source.
    """
    src = np.repeat(np.arange(graph.shape[0]), np.diff(graph.indptr))
    dst = graph.indices
    tight = np.isfinite(dist[dst]) & (dist[src] + graph.data == dist[dst])
    hop_graph = sp.csr_matrix((np.ones(int(tight.sum())), (src[tight], dst[tight])),
                              shape=graph.shape)
    hops = _scipy_dijkstra(hop_graph, directed=True, indices=source, unweighted=True)
    ok = tight & ((dist[src] < dist[dst]) | (hops[src] < hops[dst]))
    pred = np.full(graph.shape[0], graph.shape[0])
    np.minimum.at(pred, dst[ok], src[ok])
    chain = [target]
    while chain[-1] != source:
        chain.append(int(pred[chain[-1]]))
    chain.reverse()
    return DiscretePath(box.vertex_coords(np.asarray(chain)))


def restricted_passage_time(field: WeightField, x, y, region=None, return_path: bool = False):
    """Passage time between vertices x and y among paths staying in a region.

    Parameters
    ----------
    field : WeightField
    x, y : vertex coordinates (length-d integer sequences)
    region : None for the whole box, a per-axis ((lo, hi), ...) sub-box, or
        an explicit iterable of vertex coordinates.
    return_path : also return the geodesic as a :class:`DiscretePath`.  Each
        vertex's predecessor is the smallest-id neighbour u that is strictly
        closer to x with T(x, u) + w(u, v) == T(x, v).  Across zero-weight
        edges, where such a neighbour can tie v, the tie goes to the smallest
        id among those with fewer hops from x on such exact arcs.  Reruns
        reconstruct the same self-avoiding geodesic.

    Returns ``math.inf`` (and ``None`` for the path) when the restriction
    disconnects x from y.
    """
    box = field.box
    mask = _region_mask(box, region)
    sid, tid = _pair_ids(box, x, y, mask)
    dist, graph = _solve(field, sid, mask)
    t = float(dist[tid])
    if not return_path:
        return t
    if math.isinf(t):
        return t, None
    return t, _geodesic(graph, dist, sid, tid, box)


# ---------------------------------------------------------------------------
# rescaled box pseudometric


class RescaledMetric:
    """All-pairs rescaled passage times on a set of integer grid points.

    ``matrix[i, j]`` is (1/n) T(points[i], points[j]).  The raw matrix is
    symmetrised by a pointwise min with its transpose; the two triangular
    halves agree up to float rounding and the min removes that rounding
    asymmetry.
    """

    def __init__(self, n: int, points: np.ndarray, raw_times: np.ndarray):
        self.n = n
        self.points = points
        self.raw_times = np.minimum(raw_times, raw_times.T)

    @property
    def matrix(self) -> np.ndarray:
        """Rescaled all-pairs values, (1/n) T."""
        return self.raw_times / self.n

    def write_csv(self, path) -> None:
        """RFC 4180 CSV; one row per source point, row-major vertex labels.

        Cells are ``repr`` of the rescaled values ``raw_times / n``, a row at
        a time by :func:`~fpplab._artifacts.float_cells`; ``\r\n`` ends each
        line, and labels such as ``0_3`` never need quoting.
        """
        labels = ["_".join(map(str, p)) for p in self.points]
        assert all(lbl.replace("_", "").isdigit() for lbl in labels)  # no quoting needed
        with open(path, "wb") as fh:
            fh.write((",".join(["source"] + labels) + "\r\n").encode())
            for lbl, raw in zip(labels, self.raw_times):
                fh.write(lbl.encode() + b"," + float_cells(raw / self.n) + b"\r\n")


def _check_all_pairs(box: LatticeBox) -> None:
    """Raise ``ValueError`` unless :func:`rescaled_metric` accepts the whole
    of ``box`` as its grid (at most 4097 vertices)."""
    if box.n_vertices > 4097:
        raise ValueError(
            "all-pairs on a box this large is not supported; pass an explicit grid subset"
        )


def rescaled_metric(field: WeightField, points=None) -> RescaledMetric:
    """Rescaled box pseudometric on a grid subset, one Dijkstra per source."""
    box = field.box
    if points is None:
        _check_all_pairs(box)
        pts = box.all_vertex_coords()
    else:
        pts = _integral(points).astype(np.int64)
        if pts.ndim == 1:
            pts = pts[None, :]
    ids = box.vertex_id(pts)
    dist, _ = _solve(field, ids)
    return RescaledMetric(box.side, pts, dist[:, ids])


# ---------------------------------------------------------------------------
# continuous interpolation of the truncated metric


class ContinuousMetric:
    """Continuous extension of the truncated box metric to all of X = [0,1]^d.

    Between two continuum points the value is the minimum of the direct cost
    b |x - y|_1 and the best route that pays b per unit l1 distance to reach a
    point on some edge, rides that edge linearly into one of its endpoints,
    crosses the lattice at truncated passage times, and exits symmetrically.
    Per-edge objectives are piecewise linear in the entry point, so minimising
    over the entry candidates {endpoints, coordinate projection} is exact.
    Values coincide with the truncated rescaled metric on grid points, and
    deviate from it by at most 2bd/n uniformly.  The edge weights at each
    vertex, ``wplus`` and ``wminus``, are gathered once through the even and
    odd slots of the box's neighbour table.
    """

    def __init__(self, field: WeightField, b: float):
        self.b = float(b)
        if not 0 < self.b < math.inf:
            raise ValueError(f"truncation level b must be positive and finite, got {b}")
        self.field = field.truncated(self.b)
        box = field.box
        self.box = box
        self.n = box.side
        self.dim = box.dimension
        self.coords = box.all_vertex_coords().astype(np.float64)
        # wplus[a, u] / wminus[a, u]: weight of the edge from u to u + e_a /
        # u - e_a, inf where it leaves the box (the padding edge)
        _, eid = _neighbours(self.dim, self.n)
        padded = np.append(self.field.weights, math.inf)
        self.wplus, self.wminus = padded[eid[:, 0::2].T], padded[eid[:, 1::2].T]

    def access_costs(self, X: np.ndarray) -> np.ndarray:
        """c_X(u): cheapest way to reach vertex u from continuum point X
        through a single free leg plus a partial ride of an edge at u.

        X is one point of the box [0, n]^d or a ``(B, d)`` array of them;
        the result is one cost per vertex, per row of X.
        """
        X = np.asarray(X, dtype=np.float64)
        delta = X[..., None, :] - self.coords  # (..., V, d)
        absd = np.abs(delta)
        s1 = absd.sum(axis=-1)
        best = self.b * s1  # entry at the vertex itself
        for axis in range(self.dim):
            base_wo = s1 - absd[..., axis]
            da = delta[..., axis]
            wplus, wminus = self.wplus[axis], self.wminus[axis]
            with np.errstate(invalid="ignore"):
                # full ride from the far endpoint
                cand = self.b * (base_wo + np.abs(da - 1.0)) + wplus
                np.minimum(best, cand, out=best)
                cand = self.b * (base_wo + np.abs(da + 1.0)) + wminus
                np.minimum(best, cand, out=best)
                # entry at the orthogonal projection, when it is interior
                proj_plus = (da > 0.0) & (da < 1.0)
                cand = self.b * base_wo + da * wplus
                np.minimum(best, np.where(proj_plus, cand, math.inf), out=best)
                proj_minus = (da < 0.0) & (da > -1.0)
                cand = self.b * base_wo + (-da) * wminus
                np.minimum(best, np.where(proj_minus, cand, math.inf), out=best)
        return best

    def evaluate_many(self, X, Y) -> np.ndarray:
        """Values between the rows of X and Y, two ``(B, d)`` arrays of
        points of X = [0, 1]^d (rescaled by 1/n).

        The routes from each distinct row of X are one solve from an extra
        vertex whose arcs carry that row's access costs; the solves run as
        block-diagonal chunks of :data:`_BLOCK_VERTICES` vertices.
        """
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if X.ndim != 2 or X.shape != Y.shape or X.shape[1] != self.dim:
            raise ValueError(f"points must be two arrays of shape (B, {self.dim})")
        if np.any(X < 0) or np.any(X > 1) or np.any(Y < 0) or np.any(Y > 1):
            raise ValueError("points must lie in [0, 1]^d")
        X, Y = self.n * X, self.n * Y
        direct = self.b * np.abs(X - Y).sum(axis=1)
        V = self.box.n_vertices
        rows = max(1, _BLOCK_VERTICES // (V + 1))
        ux, inv = np.unique(X, axis=0, return_inverse=True)
        inv = inv.reshape(-1)  # numpy 2.0.0 shapes it (B, 1)
        dX = np.empty((len(ux), V))
        for s in range(0, len(ux), rows):
            part = ux[s:s + rows]
            W = np.broadcast_to(self.field.weights, (len(part), self.box.n_edges))
            dX[s:s + rows] = _solve_rows(W, self.box, V, access=self.access_costs(part))[:, :V]
        through = np.empty(len(X))
        for s in range(0, len(X), rows):
            cY = self.access_costs(Y[s:s + rows])
            through[s:s + rows] = np.min(dX[inv[s:s + rows]] + cY, axis=1)
        return np.minimum(direct, through) / self.n

    def evaluate(self, x, y) -> float:
        """Value at continuum points x, y of X = [0, 1]^d (rescaled by 1/n)."""
        return float(self.evaluate_many(np.asarray(x, dtype=np.float64)[None],
                                        np.asarray(y, dtype=np.float64)[None])[0])


@dataclass(frozen=True)
class GapReport:
    gap: float
    bound: float
    n_pairs: int
    within_bound: bool


def uniform_gap(field: WeightField, b: float, seed: int = 0) -> GapReport:
    """Sup over sampled pairs of |T-hat^(b) - T-tilde|, with its 2bd/n bound.

    The evaluation set mixes the two main corners, grid-aligned points, and
    seeded uniform points of X, so both exact-grid and strictly interior
    behaviour are exercised.
    """
    box = field.box
    n, d = box.side, box.dimension
    rng = np.random.default_rng(seed)
    pts = [np.zeros(d), np.ones(d), np.full(d, 0.5)]
    pts.append(np.minimum(1.0, np.floor(rng.uniform(0, n + 1, size=d)) / n))
    pts.extend(rng.uniform(0, 1, size=(6, d)))
    eval_points = np.clip(np.asarray(pts), 0.0, 1.0)

    cm = ContinuousMetric(field, b)
    floors = np.minimum(np.floor(eval_points * n).astype(np.int64), n)
    ids = np.atleast_1d(box.vertex_id(floors))
    disc = _solve(cm.field, ids)[0][:, ids] / n

    i, j = np.triu_indices(len(eval_points), 1)
    tv = cm.evaluate_many(eval_points[i], eval_points[j])
    worst = max([0.0] + np.abs(disc[i, j] - tv).tolist())
    bound = 2.0 * b * d / n
    return GapReport(gap=worst, bound=bound, n_pairs=len(i), within_bound=worst <= bound + 1e-12)


# ---------------------------------------------------------------------------
# disjoint lattice paths


def disjoint_paths(box: LatticeBox, x, y) -> list[DiscretePath]:
    """d vertex-disjoint (except at endpoints) lattice paths from x to y.

    The paths stay in the box.  Axes where the endpoints agree contribute a
    detour path shifted off the base monotone path (length |x-y|_1 + 2); axes
    where they differ contribute a staircase visiting the axes in cyclic
    order (length |x-y|_1).  Works for any distinct pair of box vertices.
    """
    d, n = box.dimension, box.side
    x0, y0 = (_integral(p).astype(np.int64) for p in (x, y))
    if x0.shape != (d,) or y0.shape != (d,):
        raise ValueError("endpoints must be length-d coordinate vectors")
    if np.any(x0 < 0) or np.any(x0 > n) or np.any(y0 < 0) or np.any(y0 > n):
        raise ValueError("endpoints must lie in the box")
    if np.array_equal(x0, y0):
        raise ValueError("endpoints must be distinct")

    # normalise: reflect so equal coordinates sit strictly below n and
    # unequal ones increase, then order equal axes first
    flip = np.zeros(d, dtype=bool)
    for i in range(d):
        if x0[i] == y0[i]:
            flip[i] = x0[i] == n
        else:
            flip[i] = x0[i] > y0[i]
    xr = np.where(flip, n - x0, x0)
    yr = np.where(flip, n - y0, y0)
    equal_axes = [i for i in range(d) if xr[i] == yr[i]]
    diff_axes = [i for i in range(d) if xr[i] != yr[i]]
    perm = equal_axes + diff_axes  # new axis j is original axis perm[j]
    xn = xr[perm]
    yn = yr[perm]
    i0 = len(equal_axes)

    def denormalise(path_coords: list[np.ndarray]) -> DiscretePath:
        arr = np.stack(path_coords)
        orig = np.empty_like(arr)
        for j, a in enumerate(perm):
            orig[:, a] = arr[:, j]
        orig = np.where(flip[None, :], n - orig, orig)
        return DiscretePath(orig)

    def staircase(start: np.ndarray, target: np.ndarray, axis_order: list[int]) -> list[np.ndarray]:
        cur = start.copy()
        out = [cur.copy()]
        for a in axis_order:
            while cur[a] != target[a]:
                cur[a] += 1 if target[a] > cur[a] else -1
                out.append(cur.copy())
        return out

    base = staircase(xn, yn, list(range(i0, d)))

    paths = []
    for i in range(i0):
        shifted = [p.copy() for p in base]
        for p in shifted:
            p[i] += 1
        paths.append(denormalise([xn.copy()] + shifted + [yn.copy()]))
    m = d - i0
    for k in range(m):
        order = [i0 + ((k + j) % m) for j in range(m)]
        paths.append(denormalise(staircase(xn, yn, order)))
    return paths


# ---------------------------------------------------------------------------
# hubs


@dataclass(frozen=True)
class HubReport:
    vertex: tuple
    kappa: float
    is_hub: bool
    worst_time_slack: float
    worst_time_slack_target: tuple
    worst_hop_slack: int | None
    n_targets: int


def _hub_budgets(box: LatticeBox, x, kappa: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Source id, hop budgets 2 |x-y|_1 + 4 and time budgets kappa |x-y|_1 of
    every target y."""
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    sid = box.vertex_id(x)
    l1 = np.abs(box.all_vertex_coords() - np.asarray(x, dtype=np.int64)[None, :]).sum(axis=1)
    return sid, 2 * l1 + 4, kappa * l1.astype(np.float64)


def _hub_times(W: np.ndarray, box: LatticeBox, sid: int, hop_budget: np.ndarray,
               time_budget: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per weight row and target, two (B, V) arrays: the cheapest time from
    the source within the target's hop budget, and the first round at which
    the target's time meets its time budget (-1 if none up to the largest
    hop budget).

    Round h of :func:`_bellman_ford_rounds` holds the cheapest times within
    h hops; past its last round every round is the same.
    """
    h_max = int(hop_budget.max())
    vals = np.full((len(W), box.n_vertices), math.inf)
    first_ok = np.full((len(W), box.n_vertices), -1, dtype=np.int64)
    rounds = _bellman_ford_rounds(W, np.array([sid]), *_arc_table(box, None))
    for h, dist in zip(range(h_max + 1), rounds):
        cur = dist[:, 0]
        first_ok[(first_ok < 0) & (cur <= time_budget)] = h
        vals[:, hop_budget == h] = cur[:, hop_budget == h]
    later = hop_budget > h
    vals[:, later] = cur[:, later]
    return vals, first_ok


def hub_check(field: WeightField, x, kappa: float) -> HubReport:
    """Is x a hub: every target y admits a path with time at most
    kappa |x-y|_1 using at most 2 |x-y|_1 + 4 hops?

    Target y is served by round ``2 |x-y|_1 + 4`` of the Bellman-Ford rounds
    from x (:func:`_bellman_ford_rounds`), the cheapest time within that many
    hops.  The worst hop slack is the hop budget less the first round at
    which a target's time meets its time budget, over the targets that do.
    """
    box = field.box
    sid, hop_budget, time_budget = _hub_budgets(box, x, kappa)
    vals, first_ok = (a[0] for a in _hub_times(field.weights[None], box, sid, hop_budget,
                                               time_budget))
    is_hub = bool(np.all(vals <= time_budget))
    time_slack = time_budget - vals
    # the source satisfies its own budgets trivially; report slack over others
    time_slack_view = time_slack.copy()
    time_slack_view[sid] = math.inf
    worst_idx = int(np.argmin(time_slack_view))
    reached = (hop_budget - first_ok)[first_ok >= 0]
    return HubReport(
        vertex=tuple(int(c) for c in np.asarray(x)),
        kappa=float(kappa),
        is_hub=is_hub,
        worst_time_slack=float(time_slack[worst_idx]),
        worst_time_slack_target=tuple(int(c) for c in box.vertex_coords(worst_idx)),
        worst_hop_slack=int(reached.min()) if len(reached) else None,
        n_targets=int(box.n_vertices),
    )


# ---------------------------------------------------------------------------
# geodesic length statistics

_RANDOM_PAIRS = 8  # seeded random vertex pairs geodesic_length_stats draws


@dataclass(frozen=True)
class GeodesicRecord:
    """One sampled pair's truncated-field geodesic: its time and edge count."""

    source: tuple[int, ...]
    target: tuple[int, ...]
    time: float
    hops: int


@dataclass(frozen=True)
class LongGeodesicFlag:
    """Whether some sampled geodesic has at least ``threshold_hops`` = L n edges."""

    L: float
    threshold_hops: float
    long_geodesic: bool


@dataclass(frozen=True)
class GeodesicStats:
    """The sampled geodesics of :func:`geodesic_length_stats`, their largest
    edge count and the long-geodesic flag per L."""

    pairs: tuple[GeodesicRecord, ...]
    max_hops: int
    ladder: tuple[LongGeodesicFlag, ...]


def geodesic_length_stats(
    field: WeightField,
    b: float,
    L_values: Sequence[float],
    seed: int = 0,
) -> GeodesicStats:
    """Hop counts of truncated-field geodesics and long-geodesic indicators.

    Samples corner-to-corner plus ``_RANDOM_PAIRS`` seeded random vertex
    pairs, records the geodesic edge counts under the b-truncated weights,
    and for each L in the ladder reports whether some sampled geodesic has
    at least L n edges.  Truncated weights are finite and the box is
    connected, so every pair has a geodesic.
    """
    box = field.box
    n, d = box.side, box.dimension
    tf = field.truncated(b)
    rng = np.random.default_rng(seed)
    pairs = [(np.zeros(d, dtype=np.int64), np.full(d, n, dtype=np.int64))]
    pairs.append((np.zeros(d, dtype=np.int64), np.array([n] + [0] * (d - 1))))
    for _ in range(_RANDOM_PAIRS):
        u = rng.integers(0, n + 1, size=d)
        v = rng.integers(0, n + 1, size=d)
        if np.array_equal(u, v):
            continue
        pairs.append((u, v))
    records = []
    for u, v in pairs:
        t, path = restricted_passage_time(tf, u, v, return_path=True)
        records.append(GeodesicRecord(source=tuple(map(int, u)), target=tuple(map(int, v)),
                                      time=float(t), hops=path.hops))
    max_hops = max(r.hops for r in records)
    ladder = tuple(LongGeodesicFlag(L=float(L), threshold_hops=float(L) * n,
                                    long_geodesic=max_hops >= float(L) * n)
                   for L in L_values)
    return GeodesicStats(pairs=tuple(records), max_hops=max_hops, ladder=ladder)
