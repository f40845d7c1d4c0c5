"""Continuum geometry: Lipschitz paths, highway metrics, and derivative,
gradient and integral tools on the unit cube.

The central objects are piecewise-linear paths with canonical arc-length
parametrization, pseudometrics of "weighted l1 norm plus discounted highways"
type, and the recursive insertion of highways into a base norm.  Everything
operating on incidence (intersection, cutting, injectivity) uses exact
rational arithmetic via :mod:`fpplab._segments`; floats are binary rationals,
so these decisions carry no rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.sparse.csgraph import csgraph_from_dense
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra
from scipy.sparse.csgraph import floyd_warshall as _floyd_warshall

from ._artifacts import jsonable
from ._segments import (
    complement_segments,
    fvec,
    flerp,
    point_on_segment,
    segment_intersection,
    _parallel,
)


#: Element budget of one temporary array in :meth:`HWChain.query_many`,
#: which walks its pairs in chunks of as many rows as fit.
_BATCH_ELEMENTS = 1 << 16

_GEODESY_TOL = 1e-9       # relative slack of the geodesic identity of a highway or inserted curve
_MIN_PIECE_LENGTH = 1e-9  # cut_path_against drops pieces no longer than this (l1)
_LOOP_ROUNDS = 128        # splices remove_loops makes before it gives up
_DERIVATIVE_LEVELS = 6    # steps of metric_derivative's halving ladder
_DERIVATIVE_TOL = 1e-6    # spread (or one-sided gap) above which metric_derivative flags


class GeometryError(ValueError):
    """Invalid geometric input (non-injective path, overlapping highways, ...)."""


class GeodesyError(GeometryError):
    """A curve offered as a geodesic fails the geodesic identity."""


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


class LipschitzPath:
    """Piecewise-linear path in [0, 1]^d with unit-speed l1 parametrization.

    The path is stored as its breakpoint polyline.  The canonical parameter
    of a point is the cumulative l1 length from the start, so ``point_at(t)``
    moves at l1 speed one and the parameter domain is ``[0, length_l1]``.
    A breakpoint whose l1 step leaves the cumulative parameter unchanged (a
    duplicate or a sub-ulp step) is dropped, so the parameters increase.
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
            raise GeometryError("path needs at least two points of dimension >= 1")
        if not np.all(np.isfinite(pts)):
            raise GeometryError("path breakpoints must be finite")
        keep, cum = [0], [0.0]
        for i in range(1, pts.shape[0]):
            nxt = cum[-1] + np.abs(pts[i] - pts[keep[-1]]).sum()
            if nxt != cum[-1]:
                keep.append(i)
                cum.append(nxt)
        if len(keep) < 2:
            raise GeometryError("path is a single point after removing duplicates")
        self.points = pts[keep]
        self.dim = pts.shape[1]
        self.cum = np.array(cum)
        self._frac_cache = None

    # -- exact views --------------------------------------------------------

    @property
    def _frac(self):
        """(points as Fraction tuples, exact cumulative l1 params)."""
        if self._frac_cache is None:
            fpts = [fvec(p) for p in self.points]
            cum = [Fraction(0)]
            for a, b in zip(fpts[:-1], fpts[1:]):
                cum.append(cum[-1] + sum(abs(x - y) for x, y in zip(a, b)))
            self._frac_cache = (fpts, cum)
        return self._frac_cache

    # -- basic measurements --------------------------------------------------

    @property
    def length_l1(self) -> float:
        return float(self.cum[-1])

    @property
    def n_pieces(self) -> int:
        return self.points.shape[0] - 1

    def pieces(self):
        """Yield (p0, p1, t0, t1) for each linear piece, t the canonical param."""
        for i in range(self.n_pieces):
            yield self.points[i], self.points[i + 1], float(self.cum[i]), float(self.cum[i + 1])

    def point_at(self, t):
        """Point at canonical parameter t (scalar or array)."""
        t = np.asarray(t, dtype=float)
        t = np.clip(t, 0.0, self.cum[-1])
        out = np.empty(t.shape + (self.dim,))
        for a in range(self.dim):
            out[..., a] = np.interp(t, self.cum, self.points[:, a])
        return out

    def point_at_frac(self, t: Fraction):
        """Exact point at an exact canonical parameter."""
        fpts, cum = self._frac
        if t <= cum[0]:
            return fpts[0]
        if t >= cum[-1]:
            return fpts[-1]
        for i in range(len(cum) - 1):
            if cum[i] <= t <= cum[i + 1]:
                s = (t - cum[i]) / (cum[i + 1] - cum[i])
                return flerp(fpts[i], fpts[i + 1], s)
        raise AssertionError("unreachable")

    def subpath(self, a: Fraction, b: Fraction) -> "LipschitzPath":
        """Restriction to exact canonical parameters a <= b."""
        if b <= a:
            raise GeometryError("empty subpath")
        fpts, cum = self._frac
        pts = [self.point_at_frac(a)]
        for p, c in zip(fpts, cum):
            if a < c < b:
                pts.append(p)
        pts.append(self.point_at_frac(b))
        return LipschitzPath(np.array([[float(c) for c in p] for p in pts]))

    # -- incidence -----------------------------------------------------------

    def first_self_intersection(self):
        """Earliest pair of distinct canonical params hitting one point.

        Returns (t_early, t_late) as exact Fractions, or None if the path is
        injective.  A positive-length self-overlap raises, since splicing it
        out is not well defined.
        """
        fpts, cum = self._frac
        n = len(fpts) - 1
        hits = []
        for i in range(n):
            for j in range(i + 1, n):
                res = segment_intersection(fpts[i], fpts[i + 1], fpts[j], fpts[j + 1])
                if res is None:
                    continue
                if res[0] == "overlap":
                    (t0, t1), (u0, u1) = res[1], res[2]
                    if j == i + 1:
                        # adjacent pieces legitimately share the joint
                        if t1 - t0 == 0 and t0 == 1 and min(u0, u1) == 0:
                            continue
                        raise GeometryError("path backtracks along itself")
                    raise GeometryError("path has a positive-length self-overlap")
                t, u = res[1], res[2]
                if j == i + 1 and t == 1 and u == 0:
                    continue
                ga = cum[i] + t * (cum[i + 1] - cum[i])
                gb = cum[j] + u * (cum[j + 1] - cum[j])
                if ga != gb:
                    hits.append((min(ga, gb), max(ga, gb)))
        if not hits:
            return None
        return min(hits)

    def is_injective(self) -> bool:
        return self.first_self_intersection() is None

    def __repr__(self):
        return f"LipschitzPath({self.n_pieces} pieces, l1 length {self.length_l1:g})"


def remove_loops(path: LipschitzPath) -> LipschitzPath:
    """Splice out self-intersections until the path is injective, in at most
    ``_LOOP_ROUNDS`` splices."""
    for _ in range(_LOOP_ROUNDS):
        hit = path.first_self_intersection()
        if hit is None:
            return path
        a, b = hit
        total = path._frac[1][-1]
        pts = []
        if a > 0:
            pts.extend(path.subpath(Fraction(0), a).points)
        else:
            pts.append(path.points[0])
        if b < total:
            tail = path.subpath(b, total).points
            pts.extend(tail if len(pts) == 0 else tail[1:] if np.array_equal(pts[-1], tail[0]) else tail)
        arr = np.asarray(pts, dtype=float)
        if arr.shape[0] < 2:
            raise GeometryError("loop removal collapsed the path to a point")
        path = LipschitzPath(arr)
    raise GeometryError("loop removal did not terminate")


def cut_path_against(path: LipschitzPath, obstacles: Sequence[LipschitzPath]) -> list[LipschitzPath]:
    """Maximal closed subpaths of ``path`` meeting the obstacles in a set of
    l1-length zero, each longer than ``_MIN_PIECE_LENGTH``.

    Positive-length overlaps with an obstacle are removed outright; an
    isolated crossing splits the path, and both resulting closed subpaths keep
    the crossing point as an endpoint.  A subpath whose exact l1 length is at
    most ``_MIN_PIECE_LENGTH`` is dropped: its ends may round to one float
    point.  Returns possibly zero subpaths, in order along the original path.
    """
    fpts, cum = path._frac
    removed: list[tuple[Fraction, Fraction]] = []
    for obs in obstacles:
        opts, _ = obs._frac
        for i in range(len(fpts) - 1):
            for j in range(len(opts) - 1):
                res = segment_intersection(fpts[i], fpts[i + 1], opts[j], opts[j + 1])
                if res is None:
                    continue
                if res[0] == "point":
                    t = res[1]
                    g = cum[i] + t * (cum[i + 1] - cum[i])
                    removed.append((g, g))
                else:
                    t0, t1 = res[1]
                    g0 = cum[i] + t0 * (cum[i + 1] - cum[i])
                    g1 = cum[i] + t1 * (cum[i + 1] - cum[i])
                    removed.append((g0, g1))
    keep = complement_segments((Fraction(0), cum[-1]), removed)
    return [path.subpath(a, b) for a, b in keep if b - a > _MIN_PIECE_LENGTH]


def check_path_family(paths: Sequence[LipschitzPath], name: str = "path",
                      allow_touch: bool = True) -> int:
    """The number of touch points of a family of injective, pairwise
    disjoint paths (isolated common points, allowed with ``allow_touch``).

    Raises ``GeometryError`` naming the first non-injective ``{name} k``, or
    saying that the ``{name}s`` overlap on positive length (or, without
    ``allow_touch``, that they must be pairwise disjoint).
    """
    for k, p in enumerate(paths):
        if not p.is_injective():
            raise GeometryError(f"{name} {k} is not injective")
    touches = set()
    for a in range(len(paths)):
        fa, _ = paths[a]._frac
        for b in range(a + 1, len(paths)):
            fb, _ = paths[b]._frac
            for i in range(len(fa) - 1):
                for j in range(len(fb) - 1):
                    res = segment_intersection(fa[i], fa[i + 1], fb[j], fb[j + 1])
                    if res is None:
                        continue
                    if res[0] == "overlap" or not allow_touch:
                        raise GeometryError(f"{name}s overlap on positive length" if allow_touch
                                            else f"{name}s must be pairwise disjoint")
                    touches.add(flerp(fa[i], fa[i + 1], res[1]))
    return len(touches)


# ---------------------------------------------------------------------------
# weighted l1 norm plus discounted highways
# ---------------------------------------------------------------------------


def _norm_factory(weights: np.ndarray) -> Callable:
    col = np.asarray(weights, dtype=float)[:, None]

    def g(v):
        # one dot product per vector, so a vector in a batch of rows is
        # rounded exactly as it is on its own
        a = np.abs(np.asarray(v, dtype=float))
        return (a[..., None, :] @ col)[..., 0, 0]

    return g


def _axis_projections(pts: np.ndarray, ts: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Axis-aligned foot points of the rows of X on the interior of a polyline.

    For each linear piece of the polyline through ``pts`` (at parameters
    ``ts``) and each coordinate axis moving on that piece, the parameter
    where the polyline matches a row of X in that coordinate.  These are
    exactly the interior candidates at which the map t -> g(x - sigma(t))
    can kink, so minimizing over them plus the breakpoints is exact.
    Returns a ``(B, pieces * dim)`` array for the ``(B, dim)`` rows of X.  A
    slot whose axis does not move on its piece, or whose foot point is not
    interior, holds ``ts[0]``, which every caller already has among its
    candidates, so a minimum over the slots is unchanged by it.
    """
    p0 = pts[:-1]
    delta = pts[1:] - p0
    moving = delta != 0.0
    frac = (X[:, None, :] - p0) / np.where(moving, delta, 1.0)
    inside = moving & (frac > 0.0) & (frac < 1.0)
    params = np.where(inside, ts[:-1, None] + frac * (ts[1:] - ts[:-1])[:, None], ts[0])
    return params.reshape(len(X), -1)


def _transfer_params(pts: np.ndarray, ts: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Parameters on the polyline ``sigma`` through ``pts`` (at parameters
    ``ts``) of the vertices of the hop cost ``g(sigma(s) - tau(t))``, ``tau``
    the polyline through the points ``other``: per pair of pieces, in local
    coordinates (u, v) on the unit square, the crossings of two lines where a
    piece ends or one coordinate of the two points agrees, each one 2x2 solve
    (Cramer's rule)."""
    da, db = np.diff(pts, axis=0)[:, None], np.diff(other, axis=0)[None]
    # line rows (cu, cv, c) for cu * u + cv * v = c, per piece pair
    coord = np.stack(np.broadcast_arrays(da, -db, other[None, :-1] - pts[:-1, None]), -1)
    ends = [[1.0, 0, 0], [1, 0, 1], [0, 1, 0], [0, 1, 1]]
    lines = np.concatenate([np.broadcast_to(ends, coord.shape[:2] + (4, 3)), coord], axis=2)
    p, q = (np.moveaxis(lines[:, :, k], -1, 0) for k in np.triu_indices(lines.shape[2], 1))
    det = p[0] * q[1] - p[1] * q[0]
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel lines: inf or nan
        u = (p[2] * q[1] - p[1] * q[2]) / det
        v = (p[0] * q[2] - p[2] * q[0]) / det
    inside = (u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (v <= 1.0)
    return (ts[:-1, None, None] + u * np.diff(ts)[:, None, None])[inside]


def _ride_table(cum_a: np.ndarray, cum_b: np.ndarray) -> np.ndarray:
    """``|cum_a - cum_b|``, broadcast, as one fresh array."""
    out = cum_a - cum_b
    return np.abs(out, out=out)


def _hops(D: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The weighted l1 norms of the difference vectors D, ``(..., dim)``, as
    one 2-D matrix-vector product: a stacked one rounds each norm alike and
    is an order of magnitude slower."""
    a = np.abs(D)
    return (a.reshape(-1, a.shape[-1]) @ weights).reshape(a.shape[:-1])


def _normalize_profile(speed, total: float):
    """A discount as (param_end, lam) pieces: a constant covers the whole
    path; a profile needs positive, strictly increasing ends, the last at
    the path's length."""
    if np.isscalar(speed):
        profile = ((float(total), float(speed)),)
    else:
        profile = tuple((float(end), float(lam)) for end, lam in speed)
        ends = [end for end, _ in profile]
        if (not all(a < b for a, b in zip([0.0] + ends, ends))
                or abs(ends[-1] - total) > 1e-9 * max(1.0, total)):
            raise GeometryError("speed profile must cover the path in increasing pieces: "
                                "positive, strictly increasing ends, the last at its length")
    for _, lam in profile:
        if not (0.0 < lam <= 1.0):
            raise GeometryError(f"discount factor {lam} outside (0, 1]")
    return profile


def _highway_ride(path: LipschitzPath, profile, gnorm: Callable):
    """A highway's ride ``(ts, cum, lam)``: the path's breakpoints merged with
    the profile's ends, the discounted norm length up to each, and the
    discount of each piece between them, that of the first profile piece
    ending at or after its midpoint."""
    ends, lams = np.array(profile).T
    ts = np.unique(np.concatenate([path.cum, np.minimum(ends, path.length_l1)]))
    steps = gnorm(np.diff(path.point_at(ts), axis=0))
    lam = lams[np.minimum(np.searchsorted(ends, 0.5 * (ts[:-1] + ts[1:])), len(lams) - 1)]
    return ts, np.concatenate([[0.0], np.cumsum(lam * steps)]), lam


class NormPlusHighways:
    """Pseudometric: weighted l1 norm, discounted along a disjoint highway family.

    ``weights`` are the positive per-axis norm weights, each highway is an
    injective Lipschitz path together with a discount in (0, 1] (a constant or
    a piecewise-constant profile given as (param_end, lam) pieces).  Highway k
    is ride k of ``self.chain``, the :class:`HWChain` node pool that answers
    every query, exactly: its table is the highway's discounted length,
    linear between the merged breakpoints, and ``self.discounts[k]`` holds
    the discount of each piece of that table, the one record of it.

    Construction checks only that the input is well formed: the weights, the
    dimensions, the profiles, and an injective, pairwise disjoint family.
    The pool is a metric for every such family, so a highway need not be a
    geodesic of it; :meth:`validate_geodesics` is the one geodesy check, for
    the consumers that integrate along the highways.
    """

    def __init__(self, weights, highways):
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1 or np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise GeometryError("norm weights must be positive and finite")
        self.dim = self.weights.shape[0]
        self.gnorm = _norm_factory(self.weights)

        self.discounts = []
        rides = []
        for path, speed in highways:
            if not isinstance(path, LipschitzPath):
                path = LipschitzPath(path)
            if path.dim != self.dim:
                raise GeometryError("highway dimension does not match the norm")
            ts, cum, lam = _highway_ride(path, _normalize_profile(speed, path.length_l1),
                                         self.gnorm)
            rides.append((path, ts, cum))
            self.discounts.append(lam)
        check_path_family([path for path, _, _ in rides], "highway", allow_touch=False)
        self.chain = HWChain(self.weights, rides)

    # -- geodesy -------------------------------------------------------------

    def validate_geodesics(self):
        """Exact check that each highway realizes the metric between its points,
        raising :class:`GeodesyError`.  The metric has no mutators, so the
        verdict of the first call is kept and later calls repeat it."""
        if not hasattr(self, "_geodesy"):
            self._geodesy = self._geodesy_failure()
        if self._geodesy is not None:
            raise GeodesyError(self._geodesy)

    def _geodesy_failure(self) -> str | None:
        """The first highway whose chord fails the geodesic identity, or None.

        One check per highway is exact: no ride is shorter than the metric,
        and the metric obeys the triangle inequality, so a shortcut between
        any two points of a highway would also shorten the metric between
        its ends below the whole ride.  The K chords are one batch."""
        ends = np.array([b.pts[[0, -1]] for b in self.chain.blocks]).reshape(-1, 2, self.dim)
        vals = self.evaluate_many(ends[:, 0], ends[:, 1])
        for k, (block, val) in enumerate(zip(self.chain.blocks, vals)):
            ride = block.cum[-1] - block.cum[0]
            if abs(val - ride) > _GEODESY_TOL * (1.0 + ride):
                return (
                    f"highway {k} fails the geodesic identity at "
                    f"params (0, {block.ts[-1]:.6g}): metric {val:.12g} "
                    f"vs ride {ride:.12g}"
                )
        return None

    # -- evaluation ------------------------------------------------------------

    def evaluate_many(self, X, Y) -> np.ndarray:
        """Distances between the rows of X and Y, two ``(B, dim)`` arrays
        (:meth:`HWChain.query_many`)."""
        return self.chain.query_many(X, Y)

    def evaluate(self, x, y) -> float:
        return float(self.evaluate_many(np.asarray(x, dtype=float)[None],
                                        np.asarray(y, dtype=float)[None])[0])

    # -- geodesics ---------------------------------------------------------------

    def geodesic(self, x, y):
        """A distance-realizing polyline from x to y.

        Built on the candidate graph: query points, access nodes, and the query
        points' axis projections, with straight norm hops between all pairs
        and discounted hops between parameter-consecutive points of the same
        highway.  Any graph edge is geometrically a straight segment, so the
        returned polyline is just the visited point sequence.  Returns
        (path, value).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.array_equal(x, y):
            raise GeometryError("geodesic endpoints coincide")
        pts = [x, y]
        hw_params: list[list[tuple[float, int]]] = []
        for block in self.chain.blocks:
            params = np.unique(np.concatenate([
                block.params, _axis_projections(block.pts, block.ts, np.stack([x, y])).ravel()]))
            entries = []
            for t in params:
                entries.append((float(t), len(pts)))
                pts.append(block.path.point_at(t))
            hw_params.append(entries)
        P = np.asarray(pts)
        E = np.abs(P[:, None, :] - P[None, :, :]) @ self.weights
        for block, entries in zip(self.chain.blocks, hw_params):
            for (t0, i0), (t1, i1) in zip(entries[:-1], entries[1:]):
                ride = float(block.cum_at(t1) - block.cum_at(t0))
                if ride < E[i0, i1]:
                    E[i0, i1] = ride
                    E[i1, i0] = ride
        dist, pred = _csgraph_dijkstra(csgraph_from_dense(E, null_value=np.inf), directed=False,
                                       indices=0, return_predecessors=True)
        order = [1]
        while order[-1] != 0:
            p = int(pred[order[-1]])
            if p < 0:
                raise GeometryError("no route between the query points")
            order.append(p)
        order.reverse()
        poly = P[order]
        return LipschitzPath(poly), float(dist[1])

    def to_json(self) -> dict:
        """The metric as config JSON, each highway's profile read off its
        table: one (param_end, lam) entry per table piece."""
        return jsonable({
            "kind": "norm_plus_highways",
            "weights": self.weights,
            "highways": [{"points": b.path.points, "profile": np.stack([b.ts[1:], lam], axis=1)}
                         for b, lam in zip(self.chain.blocks, self.discounts)],
        })

    @classmethod
    def from_json(cls, data: dict) -> "NormPlusHighways":
        highways = [
            (LipschitzPath(np.asarray(h["points"], dtype=float)),
             [(e, l) for e, l in h["profile"]])
            for h in data["highways"]
        ]
        return cls(data["weights"], highways)


# ---------------------------------------------------------------------------
# recursive highway insertion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    """One ride's share of an :class:`HWChain` node pool."""

    rows: slice             # its rows of ``HWChain.nodes`` and ``HWChain.M``
    path: LipschitzPath
    ts: np.ndarray          # the ride's breakpoint parameters
    pts: np.ndarray         # its points at ``ts``
    cum: np.ndarray         # its cumulative cost at ``ts``, linear in between
    params: np.ndarray      # access parameters along the ride
    access_cum: np.ndarray  # the cost at ``params``

    def cum_at(self, t) -> np.ndarray:
        return np.interp(np.asarray(t, dtype=float), self.ts, self.cum)


class HWChain:
    """The one min-plus node pool: of :class:`NormPlusHighways`, of the
    insertion recursion and of highway networks.

    A pool is built from rides ``(path, ts, cum)``: a polyline, its breakpoint
    parameters and the cumulative cost at them, linear in between.  Each ride
    gets one :class:`_Block` of access nodes, its breakpoints and its transfer
    parameters to every ride, itself included (:func:`_transfer_params`), and
    M is the min-plus closure of the nodes' pairwise costs (norm hops between
    all nodes, rides within a block), closed once, by one Floyd-Warshall.  A
    query adds its points' axis projections onto each ride as entry
    candidates.  Values are exact, so they form a metric: a route's cost is
    piecewise linear in its entry, transfer and exit parameters, so it is
    least at a vertex.  A ride of length zero there is no cheaper than
    skipping that ride; otherwise entry and exit sit at breakpoints or
    projections of the query points, and each transfer pair at a vertex of
    its hop cost, a hop that leaves a ride and re-enters it across a bend
    included.

    Inserting a target geodesic only ever lowers the values, and they stay at
    or above the target, since every route's cost then dominates the target
    distance.
    """

    def __init__(self, weights, rides=()):
        self.weights = np.asarray(weights, dtype=float)
        self.gnorm = _norm_factory(self.weights)
        self.dim = self.weights.shape[0]
        self.rides = tuple(rides)
        pts = [path.point_at(ts) for path, ts, _ in self.rides]
        blocks, start = [], 0
        for k, (path, ts, cum) in enumerate(self.rides):
            transfers = [_transfer_params(pts[k], ts, o) for o in pts]
            params = np.unique(np.concatenate([ts, *transfers]))
            blocks.append(_Block(slice(start, start + len(params)), path, ts, pts[k], cum,
                                 params, np.interp(params, ts, cum)))
            start += len(params)
        self.blocks = tuple(blocks)
        self.nodes = np.concatenate([np.zeros((0, self.dim)),
                                     *(b.path.point_at(b.params) for b in blocks)])
        # norm hops between all nodes, rides within each block, one closure
        E = np.abs(self.nodes[:, None, :] - self.nodes[None, :, :]) @ self.weights
        for b in blocks:
            E[b.rows, b.rows] = np.minimum(E[b.rows, b.rows],
                                           np.abs(b.access_cum[:, None] - b.access_cum))
        # null_value=inf: the default of 0 would drop zero and tiny hops, and
        # with them the links between coincident nodes
        self.M = (_floyd_warshall(csgraph_from_dense(E, null_value=np.inf), directed=False)
                  if blocks else E)

    def insert(self, *rides) -> "HWChain":
        """The pool with more rides (this pool if none), built anew, so the
        older rides gain transfer nodes toward the new ones."""
        return HWChain(self.weights, self.rides + rides) if rides else self

    def query_many(self, X, Y) -> np.ndarray:
        """Distances between the rows of X and Y, two ``(B, dim)`` arrays.

        Per row: the direct norm, exact rides on each ride between its entry
        candidates, and the access costs through M.  Each step is one array
        operation over a chunk of rows, and the chunks keep every temporary
        within a fixed element budget.
        """
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.ndim != 2 or X.shape != Y.shape or X.shape[1] != self.dim:
            raise GeometryError(f"points must be two arrays of shape (B, {self.dim})")
        rows = self._batch_rows()
        out = np.empty(len(X))
        for start in range(0, len(X), rows):
            out[start:start + rows] = self._query_rows(X[start:start + rows],
                                                       Y[start:start + rows])
        return out

    def query(self, x, y) -> float:
        return float(self.query_many(np.asarray(x, dtype=float)[None],
                                     np.asarray(y, dtype=float)[None])[0])

    def _batch_rows(self) -> int:
        """Pairs per chunk of :meth:`query_many`.  Its largest temporaries
        hold, per pair, each ride's candidate-by-candidate route table, the
        candidate-by-node access tables of both points, and the pool's
        node-by-node min-plus table."""
        sizes = [1, self.M.size]
        for block in self.blocks:
            n_cand = len(block.params) + (len(block.ts) - 1) * self.dim
            sizes += [n_cand ** 2, 2 * n_cand * len(block.params)]
        return max(1, _BATCH_ELEMENTS // max(sizes))

    def _entry_candidates(self, block: _Block, g: np.ndarray, P: np.ndarray):
        """Costs of reaching each entry candidate of a ride from each row of
        P, with the candidates' ride values, as two ``(candidates, rows)``
        arrays: the block's access nodes, whose costs ``g`` the pool already
        has, then the rows' axis projections."""
        proj = _axis_projections(block.pts, block.ts, P).T
        cost = _hops(P - block.path.point_at(proj), self.weights)
        ride = np.broadcast_to(block.access_cum[:, None], (len(block.access_cum), len(P)))
        return (np.concatenate([g[block.rows], cost]),
                np.concatenate([ride, block.cum_at(proj)]))

    def _query_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Distances between the rows of one chunk.  Every temporary keeps
        the rows on its last, contiguous axis and is reduced over its leading
        axes, which numpy does a whole row of pairs at a time; over a short
        last axis it goes one element at a time.  Rounding is monotone, so
        the minimum over entry candidates (or pool entry nodes) may be taken
        before the exit cost is added: each value is the minimum of the same
        sums as over all pairs of candidates."""
        best = self.gnorm(X - Y)
        if not self.blocks:
            return best
        B = len(X)
        P = np.concatenate([X, Y])  # x rows, then y rows
        g = _hops(P - self.nodes[:, None, :], self.weights)
        v = g.copy()
        for block in self.blocks:
            c, cum = self._entry_candidates(block, g, P)
            # enter at a, ride to b, leave: (|cum_x[a] - cum_y[b]| + c_x[a]) + c_y[b]
            route = _ride_table(cum[:, None, :B], cum[:, B:])
            route += c[:, None, :B]
            exits = route.min(axis=0)
            exits += c[:, B:]
            best = np.minimum(best, exits.min(axis=0))
            # access costs into the block's nodes, through its entry candidates
            route = _ride_table(cum[:, None], block.access_cum[:, None])
            route += c[:, None]
            v[block.rows] = np.minimum(v[block.rows], route.min(axis=0))
        # enter the pool at i, cross M, leave at j: (v_x[i] + M[i, j]) + v_y[j]
        exits = (v[:, None, :B] + self.M[:, :, None]).min(axis=0)
        exits += v[:, B:]
        return np.minimum(best, exits.min(axis=0))


def hw_insert(chain: HWChain, paths: Sequence[LipschitzPath], target: NormPlusHighways) -> HWChain:
    """One step of the insertion recursion: the curves of one geodesic (the
    pieces its cut left) join the pool as rides, in one pool build.

    The :class:`NormPlusHighways` ``target`` supplies the distances along
    each curve, tabulated at its vertices.  A curve must be a target geodesic
    whose cost is linear on each piece, so it is first refined at its
    transfer parameters to the target's highways, where alone that cost can
    bend.  Every curve is checked for two necessary conditions before the
    pool is built, raising :class:`GeodesyError`: the increments add up to
    the direct target distance between its endpoints, and each piece's
    midpoint splits its increment in half.  No curves give back ``chain``
    itself.
    """
    rides = []
    for path in paths:
        # the target's cost along the curve bends only at its transfer
        # parameters to the highways; one within _MIN_PIECE_LENGTH of a
        # vertex, or of a smaller one, is taken for that point's rounding
        extra = np.unique(np.concatenate([np.empty(0), *(
            _transfer_params(path.points, path.cum, b.pts) for b in target.chain.blocks)]))
        extra = extra[np.diff(extra, prepend=-np.inf) > _MIN_PIECE_LENGTH]
        extra = extra[np.abs(extra[:, None] - path.cum).min(axis=1) > _MIN_PIECE_LENGTH]
        path = LipschitzPath(path.point_at(np.union1d(path.cum, extra)))
        pts = path.points
        n = path.n_pieces
        # per piece its increment and its first half, then the chord, in one batch
        vals = target.evaluate_many(np.concatenate([pts[:-1], pts[:-1], pts[:1]]),
                                    np.concatenate([pts[1:], 0.5 * (pts[:-1] + pts[1:]), pts[-1:]]))
        incs, halves, direct = vals[:n], vals[n:2 * n], float(vals[-1])
        cum = np.concatenate([[0.0], np.cumsum(incs)])
        if abs(cum[-1] - direct) > _GEODESY_TOL * (1.0 + abs(direct)):
            raise GeodesyError(
                f"inserted curve is not a target geodesic: accumulated "
                f"{cum[-1]:.12g} vs direct {direct:.12g}"
            )
        bent = np.abs(2.0 * halves - incs) > _GEODESY_TOL * (1.0 + incs)
        if bent.any():
            i = int(np.argmax(bent))
            raise GeodesyError(
                f"target cost is not linear on piece {i} of the inserted curve: "
                f"midpoint {halves[i]:.12g} vs half increment {0.5 * incs[i]:.12g}"
            )
        rides.append((path, path.cum, cum))
    return chain.insert(*rides)


# ---------------------------------------------------------------------------
# highway networks
# ---------------------------------------------------------------------------


@dataclass
class HighwayNetwork:
    """A family of injective, essentially disjoint geodesic pieces extracted
    from a metric: the rides of ``chain``, each with the metric's distance
    along it."""

    chain: HWChain
    diagnostics: list[dict]
    converged: bool

    def to_json(self) -> dict:
        return jsonable({
            "weights": self.chain.weights,
            "converged": self.converged,
            "paths": [{"points": path.points, "params": ts, "cum": cum}
                      for path, ts, cum in self.chain.rides],
            "diagnostics": self.diagnostics,
        })


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the scrambled Halton sequence in [0, 1)^d, bit
    for bit those of ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed)``
    (Owen 2017, Algorithm 1), without importing ``scipy.stats``.

    Coordinate k has the k-th prime b as base.  Its digit permutations are
    ``ceil(54 / log2 b) - 1`` copies of ``arange(b)``, shuffled in turn by
    ``default_rng(seed)``, and a point's coordinate is the sum of
    ``perm[j][digit_j] * b**-(j + 1)`` from the lowest digit up, each power
    taken by repeated division, as scipy takes them."""
    rng = np.random.default_rng(seed)
    out = np.empty((n, d))
    bases: list[int] = []
    base = 2
    while len(bases) < d:
        if all(base % b for b in bases):
            bases.append(base)
        base += 1
    for k, base in enumerate(bases):
        count = math.ceil(54 / math.log2(base)) - 1
        perms = np.repeat(np.arange(base)[None], count, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        scales = [1.0 / base]
        for _ in range(count - 1):
            scales.append(scales[-1] / base)
        digits = np.arange(n) // base ** np.arange(count)[:, None] % base
        terms = perms[np.arange(count)[:, None], digits] * np.array(scales)[:, None]
        # cumsum adds in digit order; a sum may pair the terms up (it does at n = 1)
        out[:, k] = np.cumsum(terms, axis=0)[-1]
    return out


def build_highway_network(
    metric,
    n_geodesics: int = 12,
    tol: float = 1e-6,
    seed: int = 0,
    seed_pairs: Sequence[tuple] = (),
) -> HighwayNetwork:
    """Recover a highway network from a metric by repeated geodesic insertion.

    Geodesics between low-discrepancy endpoint pairs (with any designated
    ``seed_pairs`` processed first) are de-looped, cut against the network
    built so far, so that only new material longer than ``_MIN_PIECE_LENGTH``
    is kept (:func:`cut_path_against`), and inserted together, one pool build
    per geodesic (:func:`hw_insert`).  After each geodesic the supremum
    distance between the reconstruction and the metric over the probe pairs
    (corners, centre, Halton points and the metric's own highway chords) is
    recorded; the sequence is nonincreasing because insertion only lowers the
    reconstruction, which stays at or above the metric.  The construction stops
    once the diagnostic reaches ``tol``; exhausting ``n_geodesics`` first
    returns the partial network with ``converged`` False.
    """
    if not isinstance(metric, NormPlusHighways):
        raise TypeError("network construction needs a NormPlusHighways metric")
    dim = metric.dim
    # every pair of two corners, the centre and three Halton points, then the
    # metric's own highway chords, the pairs a reconstruction can least
    # afford to miss
    pts = np.array([np.zeros(dim), np.ones(dim), np.full(dim, 0.5),
                    *_halton(dim, 3, seed)])
    i, j = np.triu_indices(len(pts), 1)
    ends = [b.path.points[[0, -1]] for b in metric.chain.blocks]
    probe_x = np.concatenate([pts[i], *(e[:1] for e in ends)])
    probe_y = np.concatenate([pts[j], *(e[1:] for e in ends)])
    target_vals = metric.evaluate_many(probe_x, probe_y)

    chain = HWChain(metric.weights)
    diagnostics = []
    converged = False

    def candidates():
        for x, y in seed_pairs:
            geo, _ = metric.geodesic(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
            yield geo, "seed"
        for row in _halton(2 * dim, n_geodesics, seed):
            x, y = row[:dim], row[dim:]
            if np.abs(x - y).sum() < 1e-9:
                continue
            geo, _ = metric.geodesic(x, y)
            yield geo, "halton"

    for k, (cand, origin) in enumerate(candidates(), 1):
        pieces = cut_path_against(remove_loops(cand), [path for path, _, _ in chain.rides])
        chain = hw_insert(chain, pieces, metric)
        vals = chain.query_many(probe_x, probe_y)
        sup = float(np.max(np.abs(vals - target_vals)))
        diagnostics.append({"k": k, "origin": origin, "sup_distance": sup,
                            "n_pieces": len(chain.rides)})
        if sup <= tol:
            converged = True
            break

    return HighwayNetwork(chain=chain, diagnostics=diagnostics, converged=converged)


def network_from_highways(metric: NormPlusHighways) -> HighwayNetwork:
    """A metric's own highways as a network: its own chain, after verifying
    that each highway realizes the metric along itself."""
    metric.validate_geodesics()
    return HighwayNetwork(chain=metric.chain, diagnostics=[], converged=True)


# ---------------------------------------------------------------------------
# derivatives, gradients, integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricDerivative:
    value: float
    quotients: tuple[float, ...]
    spread: float
    one_sided_gap: float
    flagged: bool


def metric_derivative(metric, path: LipschitzPath, t: float) -> MetricDerivative:
    """Metric speed of a path at an interior parameter.

    Symmetric difference quotients on a halving ladder of
    ``_DERIVATIVE_LEVELS`` steps from a quarter of the distance to the nearer
    end, with one step of Richardson extrapolation.  The result is flagged
    when the extrapolated values have not settled at ``_DERIVATIVE_TOL`` or
    when the one-sided quotients at the smallest step disagree, which is what
    happens at a breakpoint of the path or on a discount boundary.
    """
    total = path.length_l1
    if not (0.0 < t < total):
        raise GeometryError("parameter must be interior to the path")
    levels = _DERIVATIVE_LEVELS
    hs = min(t, total - t) / 4.0 / 2.0 ** np.arange(levels)
    h = hs[-1]
    # the symmetric ladder, then the two one-sided quotients at the last step
    lo = path.point_at(np.append(t - hs, [t - h, t]))
    hi = path.point_at(np.append(t + hs, [t, t + h]))
    vals = metric.evaluate_many(lo, hi)
    qs = (vals[:levels] / (2.0 * hs)).tolist()
    q_minus, q_plus = (vals[levels:] / h).tolist()
    rich = [2.0 * qs[j + 1] - qs[j] for j in range(len(qs) - 1)]
    value = rich[-1]
    spread = abs(rich[-1] - rich[-2]) if len(rich) >= 2 else math.inf
    gap = abs(q_plus - q_minus)
    flagged = spread > _DERIVATIVE_TOL or gap > _DERIVATIVE_TOL
    return MetricDerivative(value=float(value), quotients=tuple(qs),
                            spread=float(spread), one_sided_gap=float(gap),
                            flagged=bool(flagged))


@dataclass(frozen=True)
class GradientEstimate:
    value: float
    kind: str          # "analytic" | "upper-bound"
    boundary: bool = False
    note: str | None = None


def _locate_on_highways(metric: NormPlusHighways, z: np.ndarray):
    """(k, param, interior) if z lies on highway k, else None.  ``interior``
    is False at highway endpoints, geometric breakpoints, and discount
    breakpoints, where the tangent or the discount is one-sided."""
    zf = fvec(z)
    for k, block in enumerate(metric.chain.blocks):
        fpts, cum = block.path._frac
        for i in range(len(fpts) - 1):
            s = point_on_segment(zf, fpts[i], fpts[i + 1])
            if s is None:
                continue
            param = float(cum[i] + s * (cum[i + 1] - cum[i]))
            # breakpoints of the merged table carry direction or discount jumps
            interior = (0 < param < block.path.length_l1
                        and not np.any(np.abs(param - block.ts[1:-1]) <= 1e-15))
            return k, param, interior
    return None


def gradient_by_paths(metric: NormPlusHighways, z, u) -> GradientEstimate:
    """Smallest initial metric speed over paths leaving z with velocity u.

    The value is analytic: a point off the highways, or a direction
    transverse to the local highway tangent, gives the norm of u, while the
    tangent direction gives the discounted norm.  The reasoning for the
    transverse case: a path with initial velocity u transverse to the tangent
    stays off the highway for small positive time, so its initial speed is
    the norm speed.  Junctions, endpoints, and discount breakpoints are
    reported as boundary cases with the norm of u, which is only an upper
    bound there.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.abs(u).sum() == 0:
        return GradientEstimate(value=0.0, kind="analytic")
    loc = _locate_on_highways(metric, z)
    if loc is None:
        return GradientEstimate(value=float(metric.gnorm(u)), kind="analytic")
    k, param, interior = loc
    if interior:
        block = metric.chain.blocks[k]
        i = int(np.searchsorted(block.ts, param, side="right")) - 1
        i = min(i, len(block.ts) - 2)
        direction = block.pts[i + 1] - block.pts[i]
        if _parallel(fvec(u), fvec(direction)):
            return GradientEstimate(value=float(metric.discounts[k][i] * metric.gnorm(u)),
                                    kind="analytic")
        return GradientEstimate(value=float(metric.gnorm(u)), kind="analytic")
    note = (f"z is an endpoint, junction, or discount breakpoint of highway {k}; "
            f"returning the norm value, which is an upper bound there")
    return GradientEstimate(value=float(metric.gnorm(u)), kind="upper-bound",
                            boundary=True, note=note)


def _path_integrals(paths: Sequence[LipschitzPath], integrand: Callable, order: int) -> float:
    """The sum of the integrals of ``integrand(point, unit_euclidean_tangent)``
    along the paths.  Gauss-Legendre quadrature on each linear piece is exact
    for polynomial integrands up to the rule degree and exact for integrands
    constant per piece, the case of interest."""
    xs, ws = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for path in paths:
        for p0, p1, _, _ in path.pieces():
            delta = p1 - p0
            elen = float(np.linalg.norm(delta))
            if elen == 0.0:
                continue
            tang = delta / elen
            mid = 0.5 * (p0 + p1)
            half = 0.5 * delta
            for xq, wq in zip(xs, ws):
                total += 0.5 * elen * wq * float(integrand(mid + xq * half, tang))
    return total
