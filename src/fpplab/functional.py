"""Lower-tail rate functional of a norm-plus-highways metric.

The functional admits three expressions: a sum of integrals along the
metric's highways, which must be its geodesics, an intrinsic integral
against one-dimensional Hausdorff measure over the union of the highways,
and a supremum over injective pairwise-disjoint path families.  For
piecewise-linear highways with piecewise-constant discounts all three
reduce to finite sums of segment terms, so they can be cross-checked at
tight tolerances.  The module also provides the strict-monotonicity probe
(slower metrics have strictly larger functionals) and an empirical
large-deviation trend table for qualitative comparison against the
functional value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from fpplab._segments import fvec, segment_intersection
from fpplab.geometry import (
    LipschitzPath,
    NormPlusHighways,
    _halton,
    _norm,
    _path_integrals,
    check_path_family,
)
from fpplab.model import EdgeDistribution, LatticeBox
from fpplab.oracle import EventSpec, LDTrendRow, _rung_seeds, estimate_event_rates


class FunctionalError(ValueError):
    """A functional-level contract failed (ordering, consistency, domain)."""


_CROSS_TOL = 1e-9      # relative gap allowed between the intrinsic value and the geodesic sum
_SUP_TOL = 1e-9        # relative excess of a path family over the geodesic sum
_ORDER_TOL = 1e-12     # slack of D1 <= D2 in the probe, and least rise of a strict witness
_PROBE_PAIRS = 48      # Halton point pairs the probe adds to the corners and the centre
_PROBE_MARGIN = 1e-9   # least amount by which the smaller metric's functional must win
_QUADRATURE_ORDER = 8  # Gauss-Legendre nodes per table piece of the intrinsic integral


# ---------------------------------------------------------------------------
# rate integrands
# ---------------------------------------------------------------------------


class AnalyticRate:
    """Closed-form rate integrand J(u, zeta) = scale * (g_J(u) - zeta)^+.

    g_J is a weighted l1 norm, so J is convex, jointly positively
    1-homogeneous in (u, zeta), and nonincreasing in zeta, the structural
    properties the functional formulas rely on.  Using a closed form keeps
    the functional machinery testable at machine precision, away from the
    statistical noise of estimated rate surfaces.
    """

    def __init__(self, weights, scale: float = 1.0):
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1 or not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise FunctionalError("rate weights must be positive and finite, one per axis")
        if not (scale > 0 and math.isfinite(scale)):
            raise FunctionalError("scale must be positive and finite")
        self.scale = float(scale)
        self.gnorm = functools.partial(_norm, weights=self.weights)

    def __call__(self, u, zeta: float) -> float:
        return self.scale * max(float(self.gnorm(u)) - float(zeta), 0.0)


class SurfaceRate:
    """Rate integrand backed by a tabulated surface.

    Tangent directions are snapped onto the surface's direction grid by
    angular nearest neighbours; in dimension two the two bracketing grid
    directions are blended linearly by angle, in higher dimensions the
    single nearest direction is used.  The speed argument is matched by
    homogeneity (the query is rescaled so the direction lands on the
    tabulated primitive vector).  This is an approximation: the error is
    bounded by the surface's modulus of continuity over one angular cell,
    so refine the direction grid to tighten it.  Below the tabulated speed
    range the boundary cell's value is used and the query is counted in
    ``n_flagged``.
    """

    def __init__(self, surface):
        self.surface = surface
        dirs = [np.asarray(p, dtype=float) for p in surface.directions()]
        if not dirs:
            raise FunctionalError("surface has no tabulated directions")
        self.dim = dirs[0].shape[0]
        self._dirs = dirs
        if self.dim == 2:
            order = np.argsort([math.atan2(p[1], p[0]) for p in dirs])
            self._dirs = [dirs[i] for i in order]
        self.n_flagged = 0

    def _ray_value(self, p: np.ndarray, u_abs: np.ndarray, zeta: float) -> float:
        # match scales: J(u, zeta) = s * J(p, zeta / s) for s = |u|_1 / |p|_1
        s = float(np.sum(u_abs)) / float(np.sum(p))
        val, flag = self.surface.value_at(p, float(zeta) / s)
        if val is None:
            # below the tabulated range; the steepest tabulated cell is the
            # best available stand-in
            cells = self.surface.ray(tuple(int(c) for c in p))
            val = cells[0].value * 1.0
            flag = "below tabulated speeds"
        if flag is not None:
            self.n_flagged += 1
        return s * float(val)

    def __call__(self, u, zeta: float) -> float:
        u_abs = np.abs(np.asarray(u, dtype=float))
        if not np.any(u_abs):
            return 0.0
        if self.dim == 2:
            ang = math.atan2(u_abs[1], u_abs[0])
            angs = [math.atan2(p[1], p[0]) for p in self._dirs]
            j = int(np.searchsorted(angs, ang))
            if j == 0 or angs[min(j, len(angs) - 1)] == ang:
                j = min(j, len(angs) - 1)
                return self._ray_value(self._dirs[j], u_abs, zeta)
            if j >= len(angs):
                return self._ray_value(self._dirs[-1], u_abs, zeta)
            a0, a1 = angs[j - 1], angs[j]
            t = (ang - a0) / (a1 - a0)
            v0 = self._ray_value(self._dirs[j - 1], u_abs, zeta)
            v1 = self._ray_value(self._dirs[j], u_abs, zeta)
            return (1.0 - t) * v0 + t * v1
        scores = [
            math.fsum(p * u_abs) / (math.hypot(*p) * math.hypot(*u_abs))
            for p in self._dirs
        ]
        return self._ray_value(self._dirs[int(np.argmax(scores))], u_abs, zeta)


# ---------------------------------------------------------------------------
# path families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathFamily:
    """A finite family of injective, pairwise essentially disjoint paths.

    The family is checked once, at construction, and is frozen, so the check
    stays true; ``n_touch_points`` counts the isolated points the paths share.
    """

    paths: tuple[LipschitzPath, ...]
    n_touch_points: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        object.__setattr__(self, "n_touch_points",
                           check_path_family(self.paths, "family path"))


# ---------------------------------------------------------------------------
# the three expressions
# ---------------------------------------------------------------------------


def _highway_pieces(D: NormPlusHighways):
    """Per highway of ``D``: the (p0, p1, lam) pieces of its table, lam the
    piece's discount (``D.discounts``).  A piece whose two table parameters
    round to one float point has no length and is left out.  The highways
    must be geodesics of ``D`` (:meth:`NormPlusHighways.validate_geodesics`),
    or ``GeodesyError``."""
    D.validate_geodesics()
    for block, lam in zip(D.chain.blocks, D.discounts):
        yield ((p0, p1, lam_i) for p0, p1, lam_i in zip(block.pts[:-1], block.pts[1:], lam)
               if not np.array_equal(p0, p1))


def functional_geodesic_sum(D: NormPlusHighways, J) -> float:
    """Sum over the metric's highways of the rate of their discounted speed.

    Each highway contributes the integral of J(tangent, D-speed) along
    itself.  With piecewise-linear geometry and piecewise-constant
    discounts the integrand is constant per table interval, so the value
    is an exact finite sum: by joint homogeneity the interval term is
    J(increment vector, lam * g(increment vector)).
    """
    def one_highway(pieces) -> float:
        total = 0.0
        for p0, p1, lam in pieces:
            v = p1 - p0
            total += float(J(v, lam * float(D.gnorm(v))))
        return total

    return float(sum(one_highway(hw) for hw in _highway_pieces(D)))


def functional_intrinsic(D: NormPlusHighways, J) -> float:
    """Hausdorff-measure expression of the functional.

    The integrand at a point of a highway is J evaluated at the unit
    tangent and the metric speed in that direction; off the highways the
    metric speed equals the norm along every direction, the pointwise
    maximum defining the integrand vanishes, and the contribution is the
    analytic zero (integrating numerically over the off-highway set would
    be meaningless, its Hausdorff measure is infinite).  Quadrature per
    constant-discount piece is Gauss-Legendre, exact for the piecewise
    constant integrand.
    """
    def one_highway(pieces) -> float:
        total = 0.0
        for p0, p1, lam in pieces:

            def f(_x, u2, lam=lam):
                return J(u2, lam * float(D.gnorm(u2)))

            total += _path_integrals([LipschitzPath([p0, p1])], f, _QUADRATURE_ORDER)
        return total

    return float(sum(one_highway(hw) for hw in _highway_pieces(D)))


def _piece_overlaps(D: NormPlusHighways, p0: np.ndarray, p1: np.ndarray):
    """Collinear overlaps of the segment [p0, p1] with the metric's highways.

    Returns merged intervals in the segment's own l1 parameter together
    with their discounts: a list of (a, b, lam) with a, b exact Fractions in
    [0, L1].  Each interval lies within one piece of a highway's ride table,
    whose breakpoints include every discount breakpoint, and takes that
    piece's discount (``D.discounts``).  Point intersections, and table
    pieces whose ends are one float point, carry no length and are dropped;
    the highways are pairwise disjoint so overlap intervals from different
    highways can only share endpoints.
    """
    fp0, fp1 = fvec(p0), fvec(p1)
    seg_l1 = sum(abs(x - y) for x, y in zip(fp0, fp1))
    out = []
    for block, lam in zip(D.chain.blocks, D.discounts):
        for i in range(len(block.ts) - 1):
            if np.array_equal(block.pts[i], block.pts[i + 1]):
                continue
            hit = segment_intersection(fp0, fp1, fvec(block.pts[i]), fvec(block.pts[i + 1]))
            if hit is None or hit[0] != "overlap":
                continue
            a0, a1 = hit[1]
            if a1 <= a0:
                continue
            out.append((a0 * seg_l1, a1 * seg_l1, lam[i]))
    out.sort(key=lambda r: (r[0], r[1]))
    return out, seg_l1


def functional_sup_lower_bound(D: NormPlusHighways, J, family: PathFamily) -> float:
    """Contribution of one admissible path family to the supremum formula.

    Each family member contributes the integral of J(tangent, metric speed)
    along itself.  The speed of a norm-plus-highways metric is analytic:
    the discounted norm on collinear overlaps with a highway, the plain
    norm elsewhere (a transversal crossing has zero length and no
    contribution), so each linear piece reduces to exact segment terms.

    Any valid family yields at most the geodesic-sum value, with equality
    when the family is the metric's own highways; that contract is
    enforced by ``functional_report``, not here.
    """
    def one_path(path: LipschitzPath) -> float:
        total = 0.0
        for p0, p1, _, _ in path.pieces():
            v = p1 - p0
            overlaps, seg_l1 = _piece_overlaps(D, p0, p1)
            g_v = float(D.gnorm(v))
            for a, b, lam in overlaps:
                frac = float(b - a) / float(seg_l1)
                total += frac * float(J(v, lam * g_v))
            covered = sum((b - a for a, b, _ in overlaps), Fraction(0))
            off = float(seg_l1 - covered) / float(seg_l1)
            if off > 0:
                total += off * float(J(v, g_v))
        return total

    return float(sum(one_path(path) for path in family.paths))


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


@dataclass
class FunctionalReport:
    """The three expressions of the functional with their pairwise gaps and
    the constants they were checked under; written as its fields."""

    geodesic_sum: float
    intrinsic: float
    sup_bound: float
    family_size: int
    n_highways: int
    delta_intrinsic: float = field(init=False)
    delta_sup: float = field(init=False)
    quadrature_order: int = field(default=_QUADRATURE_ORDER, init=False)
    cross_tol: float = field(default=_CROSS_TOL, init=False)
    sup_tol: float = field(default=_SUP_TOL, init=False)

    def __post_init__(self):
        self.delta_intrinsic = self.intrinsic - self.geodesic_sum
        self.delta_sup = self.sup_bound - self.geodesic_sum


def functional_report(D: NormPlusHighways, J,
                      family: PathFamily | None = None) -> FunctionalReport:
    """Evaluate all three expressions and enforce their mutual contracts.

    The supremum expression is evaluated on ``family`` (default: the
    metric's own highways, which attain the value).  Raises
    ``FunctionalError`` if the intrinsic value drifts from the geodesic sum
    beyond ``_CROSS_TOL`` relative, or if the family exceeds the geodesic
    sum by more than ``_SUP_TOL`` relative.
    """
    geo = functional_geodesic_sum(D, J)
    intr = functional_intrinsic(D, J)
    if family is None:
        family = PathFamily([path for path, _, _ in D.chain.rides])
    sup = functional_sup_lower_bound(D, J, family)
    scale = max(abs(geo), abs(intr), 1e-300)
    if abs(intr - geo) > _CROSS_TOL * max(1.0, scale):
        raise FunctionalError(
            f"intrinsic and geodesic-sum expressions disagree: "
            f"{intr:.15g} vs {geo:.15g}"
        )
    if sup > geo + _SUP_TOL * max(1.0, scale):
        raise FunctionalError(
            f"path family exceeds the geodesic-sum value: {sup:.15g} > {geo:.15g}"
        )
    return FunctionalReport(
        geodesic_sum=geo, intrinsic=intr, sup_bound=sup,
        family_size=len(family.paths), n_highways=len(D.chain.rides),
    )


# ---------------------------------------------------------------------------
# strict monotonicity
# ---------------------------------------------------------------------------


@dataclass
class MonotonicityReport:
    """The two functionals of a strict monotonicity probe; written as its
    fields."""

    value_smaller_metric: float   # functional of the smaller metric
    value_larger_metric: float    # functional of the larger metric
    n_pairs: int
    max_order_violation: float
    witness: tuple | None
    margin: float = field(default=_PROBE_MARGIN, init=False)


def strict_monotonicity_probe(D1: NormPlusHighways, D2: NormPlusHighways, J,
                              seed: int = 0) -> MonotonicityReport:
    """Check that a strictly smaller metric has a strictly larger functional.

    ``D1 <= D2`` is verified on a sampled pair grid (the corners, the centre
    and ``_PROBE_PAIRS`` Halton pairs), evaluated in one batch per metric,
    and a strict witness pair is required (equal metrics are rejected, the
    claim is about distinct ones).  Both functionals are evaluated through
    each metric's own highways, which must be its geodesics, or
    ``GeodesyError``; the smaller metric must win by more than
    ``_PROBE_MARGIN``.
    """
    D1.validate_geodesics()
    D2.validate_geodesics()
    if D1.dim != D2.dim:
        raise FunctionalError("metrics live in different dimensions")
    dim = D1.dim
    pts = [np.zeros(dim), np.ones(dim), np.full(dim, 0.5)]
    for row in _halton(2 * dim, _PROBE_PAIRS, seed):
        pts.append(row[:dim])
        pts.append(row[dim:])
    pts = np.asarray(pts)
    i, j = np.triu_indices(len(pts), 1)
    v1 = D1.evaluate_many(pts[i], pts[j])
    v2 = D2.evaluate_many(pts[i], pts[j])
    worst = max(0.0, float(np.max(v1 - v2)))
    rise = v2 - v1
    k = int(np.argmax(rise))  # the first pair attaining the largest rise
    gap = max(0.0, float(rise[k]))
    witness = (pts[i[k]], pts[j[k]]) if gap > 0.0 else None
    if worst > _ORDER_TOL:
        raise FunctionalError(
            f"ordering violated on a sampled pair: D1 - D2 = {worst:.3g}"
        )
    if witness is None or gap <= _ORDER_TOL:
        raise FunctionalError("metrics are not distinct on the sampled pairs")

    val1 = functional_geodesic_sum(D1, J)
    val2 = functional_geodesic_sum(D2, J)
    if not math.isfinite(val2):
        raise FunctionalError("functional of the larger metric is not finite")
    if not val1 > val2 + _PROBE_MARGIN:
        raise FunctionalError(
            f"strict monotonicity failed: {val1:.15g} vs {val2:.15g} "
            f"(margin {_PROBE_MARGIN:g})"
        )
    return MonotonicityReport(
        value_smaller_metric=val1, value_larger_metric=val2,
        n_pairs=len(i), max_order_violation=worst, witness=witness,
    )


# ---------------------------------------------------------------------------
# empirical large-deviation trend
# ---------------------------------------------------------------------------


@dataclass
class LDTrendTable:
    """Finite-box rates beside a functional value; written as its fields."""

    rows: list[LDTrendRow]
    eps: float
    functional_value: float | None
    comparison: str = field(
        default="qualitative only; convergence of finite-box rates "
                "to the functional is not observable at these sizes",
        init=False)


def empirical_ld_trend(D, dist: EdgeDistribution, eps: float,
                       n_ladder: Sequence[int], samples: int = 200, seed: int = 0,
                       method: str = "auto", enum_cap: int = 1 << 13,
                       functional_value: float | None = None) -> LDTrendTable:
    """Probability that the rescaled box metric sits below ``D + eps``.

    ``D`` is a metric with ``dim`` and ``evaluate_many(X, Y)``; each rung's
    box has its dimension.  Per ladder rung the event "every vertex pair of
    the box satisfies T-hat_n(x, y) <= D(x, y) + eps" is measured by one
    call of :func:`~fpplab.oracle.estimate_event_rates` with a list of one:
    exactly when the law has finite support and the configuration space
    fits under ``enum_cap``, and by Monte Carlo from the rung's sub-seed
    otherwise.  Exact rows record ``seed`` itself.  The table reports
    -(1/n) log p next to a functional value for qualitative comparison
    only; no convergence claim is attached at desk scale.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    rungs = [int(n) for n in n_ladder]
    rows = []
    for n, rung_seed in zip(rungs, _rung_seeds(seed, len(rungs))):
        (row,) = estimate_event_rates([EventSpec.ld_lower(D, eps)], dist,
                                      LatticeBox(dimension=D.dim, side=n), n, samples,
                                      rung_seed, method, enum_cap)
        rows.append(row if row.p_exact is None else replace(row, seed=seed))
    return LDTrendTable(rows=rows, eps=float(eps),
                        functional_value=functional_value)
