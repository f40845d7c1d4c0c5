"""Point estimates, tabulation, and structural extension of the lower-tail
rate function, plus time-constant estimation.

A rate point is the finite-scale quantity -(1/n) log P(T_box(0, nx) <= n zeta),
estimated exactly by enumeration on tiny instances and by Monte Carlo with
censoring elsewhere.  Finite-scale values upper-bound the limit, so the
running infimum over a scale ladder is the best available upper estimate.
The surface extension applies the limit function's known structure
(reflection symmetry, homogeneity, domination monotonicity, convexity in the
speed) as value-lowering transforms on the table.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._artifacts import write_csv
from .model import LatticeBox
# not called here, and kept only for perfbench/tests/test_tracing.py, which
# checks that the tracer also patches this from-import copy of a traced
# function; it can go once that test reads another module
from .model import sample_weights  # noqa: F401
from .oracle import _Z95, CapExceededError, EventSpec, estimate_event_rates
from .passage_time import _seeded_passage_times

_ZETA_LIFT = 0.05  # default_zeta_grid starts this far (relative) above the trivial threshold
_ZETA_COUNT = 5    # speeds in default_zeta_grid
_ZERO_TOL = 0.05   # largest rate zero_set_check accepts as zero

#: Largest box, in edges, that a rate point or a time-constant rung builds;
#: a larger one (from config input) raises :class:`CapExceededError`.
_MAX_EDGES = 1 << 22


class SurfaceConflictError(ValueError):
    """Duplicate surface cells with incompatible confidence intervals."""

    def __init__(self, conflicts):
        super().__init__(f"{len(conflicts)} conflicting duplicate cells")
        self.conflicts = conflicts


def _canonical_direction(x) -> np.ndarray:
    x = np.asarray(x, dtype=int)
    if x.ndim != 1 or np.all(x == 0):
        raise ValueError("direction must be a nonzero integer vector")
    return np.abs(x)


def _primitive(x) -> tuple[tuple[int, ...], int]:
    """The primitive nonnegative direction p and the ray scale k, |x| = k p."""
    xv = _canonical_direction(x)
    k = math.gcd(*xv.tolist())
    return tuple(int(v) for v in xv // k), k


def _scaled_box(xv: np.ndarray, n: int):
    """The box of side n max|x|, its origin and the target n x."""
    box = LatticeBox(dimension=xv.shape[0], side=int(n * xv.max()))
    if box.n_edges > _MAX_EDGES:
        raise CapExceededError(box.n_edges, _MAX_EDGES, "box edges", fixed=True)
    return box, (0,) * box.dimension, tuple(int(c) for c in n * xv)


@dataclass(frozen=True)
class RatePoint:
    """One estimated cell of the rate function.

    ``estimate`` is -(1/n) log p in nats; ``ci`` is the induced interval on
    the rate (decreasing transform of the Wilson interval on p).  A censored
    point saw zero hits: ``estimate`` is then the one-sided lower bound from
    the upper Wilson limit and the interval is unbounded above.
    """

    x: tuple[int, ...]
    zeta: float
    n: int
    estimate: float
    ci: tuple[float, float]
    method: str
    censored: bool = False
    p_hat: float | None = None
    p_exact: Fraction | None = None
    samples: int | None = None
    hits: int | None = None
    seed: int | None = None


def _domain_check(dist, x: np.ndarray, zeta: float) -> None:
    """Speeds strictly above a |x|_1 are always admissible; the boundary speed
    itself only when the law has an atom at its infimum, since otherwise the
    event has probability zero at every scale."""
    threshold = dist.support_infimum * int(np.abs(x).sum())
    z = Fraction(float(zeta))
    if z < threshold or (z == threshold and dist.atom_at_infimum() == 0):
        raise ValueError(
            f"zeta={zeta} is below (or at, with no atom) the trivial threshold "
            f"{float(threshold)} for x={x.tolist()}"
        )


def estimate_rate_rung(
    dist,
    x,
    zetas: Sequence[float],
    n: int,
    samples: int = 400,
    seed: int = 0,
    method: str = "auto",
    region=None,
    enum_cap: int = 1 << 13,
) -> list[RatePoint]:
    """The rate points -(1/n) log P(T(0, n|x|) <= n zeta) of every speed in
    ``zetas`` at one scale n: a rung, the one entry for a rate point.

    The direction is reflected to nonnegative coordinates first; coordinate
    sign flips leave the weight law invariant, so this loses nothing.  The
    speeds' passage events on one box of side n max|x| go to one call of
    :func:`~fpplab.oracle.estimate_event_rates`, so they share its one
    decision between enumeration and sampling: with ``method='auto'`` a rung
    is exact whenever the configuration count s^m, which does not depend on
    the speed, fits ``enum_cap``.  An exact rung enumerates each speed's
    event.  A Monte-Carlo rung samples one set of ``samples`` fields from
    ``seed`` and solves each once, up to the largest threshold n max zeta;
    the field with passage time T hits every speed with T <= n zeta (common
    random numbers).  So a rung's points are dependent and its hit counts
    never decrease in the speed, while each point carries its own Wilson
    interval and equals the point of a one-speed rung at the same ``seed``.
    A zero-hit point is censored, with the one-sided bound as its estimate.
    ``region`` restricts the admissible paths (for thin-box ladders) on both
    backends.
    """
    if not len(zetas):
        raise ValueError("a rung needs at least one speed")
    xv = _canonical_direction(x)
    for zeta in zetas:
        _domain_check(dist, xv, zeta)
    if n < 1:
        raise ValueError("n must be at least 1")
    box, origin, target = _scaled_box(xv, n)
    events = [EventSpec.passage_time_at_most(origin, target, float(n * z), region=region)
              for z in zetas]
    rows = estimate_event_rates(events, dist, box, n, samples, seed, method, enum_cap)
    points = []
    for z, row in zip(zetas, rows):
        cell = dict(x=tuple(int(c) for c in xv), zeta=float(z), n=n, method=row.method)
        if row.p_exact is None:
            points.append(RatePoint(**cell, estimate=row.ci[0] if row.censored else row.rate,
                                    ci=row.ci, censored=row.censored, p_hat=row.p,
                                    samples=row.samples, hits=row.hits, seed=row.seed))
        elif row.p_exact == 0:
            raise AssertionError("exact zero probability inside the domain; check the region")
        else:
            points.append(RatePoint(**cell, estimate=row.rate, ci=(row.rate, row.rate),
                                    p_exact=row.p_exact))
    return points


def fekete_envelope(points: Sequence[RatePoint]) -> RatePoint:
    """Running infimum over an increasing scale ladder at a common (x, zeta).

    Each finite-scale value upper-bounds the limit, so the smallest one is the
    best upper estimate; its own interval is carried along unchanged.
    """
    if not points:
        raise ValueError("empty ladder")
    key = (points[0].x, points[0].zeta)
    ns = [p.n for p in points]
    for p in points:
        if (p.x, p.zeta) != key:
            raise ValueError("ladder mixes different (x, zeta) cells")
    if ns != sorted(ns) or len(set(ns)) != len(ns):
        raise ValueError("ladder scales must be strictly increasing")
    best = min(points, key=lambda p: p.estimate)
    return replace(best, method="fekete-envelope")


# ---------------------------------------------------------------------------
# time constant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeConstantEstimate:
    x: tuple[int, ...]
    ns: tuple[int, ...]
    means: tuple[float, ...]          # per-scale means of T(0, n x)/n
    half_widths: tuple[float, ...]    # normal-approximation CI half widths
    mu_hat: float
    ci: tuple[float, float]
    bracket: tuple[float, float]      # analytic [a |x|_1, E tau |x|_1]
    non_increasing_within_ci: bool


def _scale_ladder(n_ladder) -> list[int]:
    ns = [int(n) for n in n_ladder]
    if not ns or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("n_ladder must be a strictly increasing nonempty sequence")
    return ns


def estimate_time_constant(
    dist,
    x,
    n_ladder: Sequence[int],
    samples: int = 200,
    seed: int = 0,
) -> TimeConstantEstimate:
    """Per-scale means of T(0, nx)/n with the analytic norm bracket.

    The last rung's mean is reported as the point estimate.  Means along a
    growing ladder should not increase beyond joint CI wiggle (subadditivity
    of expectations); the report carries that check's outcome rather than
    enforcing it.
    """
    # one field has no spread to measure, so its interval would read exact
    if not isinstance(samples, numbers.Integral) or samples < 2:
        raise ValueError(f"samples must be an integer of at least 2, got {samples}")
    xv = _canonical_direction(x)
    l1 = int(np.abs(xv).sum())
    ns = _scale_ladder(n_ladder)
    means, halfs = [], []
    root = np.random.SeedSequence(seed)
    for n in ns:
        box, origin, target = _scaled_box(xv, n)
        rep_seeds = root.spawn(1)[0].generate_state(samples, dtype=np.uint64)
        vals = _seeded_passage_times(dist, box, rep_seeds, origin, target) / n
        means.append(float(vals.mean()))
        halfs.append(_Z95 * float(vals.std(ddof=1)) / math.sqrt(samples))
    ok = all(
        means[i + 1] <= means[i] + 2.0 * (halfs[i] + halfs[i + 1])
        for i in range(len(ns) - 1)
    )
    bracket = (float(dist.support_infimum) * l1, float(dist.mean()) * l1)
    return TimeConstantEstimate(
        x=tuple(int(c) for c in xv), ns=tuple(ns), means=tuple(means),
        half_widths=tuple(halfs), mu_hat=means[-1],
        ci=(means[-1] - halfs[-1], means[-1] + halfs[-1]),
        bracket=bracket, non_increasing_within_ci=ok)


# ---------------------------------------------------------------------------
# surface extension
# ---------------------------------------------------------------------------


@dataclass
class SurfaceCell:
    direction: tuple[int, ...]   # primitive nonnegative direction
    zeta: float                  # speed normalized to the primitive direction
    value: float
    ci: tuple[float, float]
    method: str
    sources: list
    modified: list


@dataclass
class RateSurface:
    """Extended rate table: cells on primitive nonnegative rays.

    Values are stored per primitive direction with speeds and rates divided by
    the integer ray scale, so absolute homogeneity is built into the storage;
    queries rescale.  The extension transforms only ever lower values (each
    uses a valid upper bound from elsewhere in the table), and every change is
    recorded on the cell.  ``surface.json`` is its one field, ``cells``, which
    :meth:`from_json` reads back.
    """

    cells: list[SurfaceCell]

    def directions(self) -> list[tuple[int, ...]]:
        seen = []
        for c in self.cells:
            if c.direction not in seen:
                seen.append(c.direction)
        return seen

    def ray(self, direction) -> list[SurfaceCell]:
        key = tuple(int(v) for v in direction)
        out = [c for c in self.cells if c.direction == key]
        return sorted(out, key=lambda c: c.zeta)

    def value_at(self, x, zeta: float):
        """(value, flag) with the structural rescaling applied.

        Above the tabulated speed range the last (smallest) value is returned,
        flagged, as a still-valid upper bound; below the range there is no
        valid bound and the flag says so with value None.
        """
        p, k = _primitive(x)
        ray = self.ray(p)
        if not ray:
            raise KeyError(f"no tabulated ray for direction {p}")
        zn = float(zeta) / k
        zs = [c.zeta for c in ray]
        vs = [c.value for c in ray]
        if zn < zs[0]:
            return None, "below tabulated speeds: no valid bound"
        if zn >= zs[-1]:
            flag = None if zn == zs[-1] else "above tabulated speeds: boundary value"
            return vs[-1] * k, flag
        j = int(np.searchsorted(zs, zn, side="right")) - 1
        t = (zn - zs[j]) / (zs[j + 1] - zs[j])
        return ((1.0 - t) * vs[j] + t * vs[j + 1]) * k, None

    def check_invariants(self):
        """Exact structural assertions on the stored table."""
        for c in self.cells:
            if any(v < 0 for v in c.direction) or math.gcd(*c.direction) != 1:
                raise AssertionError("direction not primitive nonnegative")
            if c.value < 0:
                raise AssertionError("negative rate value")
        for p in self.directions():
            ray = self.ray(p)
            vs = [c.value for c in ray]
            zs = [c.zeta for c in ray]
            for i in range(len(vs) - 1):
                if vs[i + 1] > vs[i]:
                    raise AssertionError(f"ray {p}: values increase in zeta")
            for i in range(1, len(vs) - 1):
                lhs = (vs[i] - vs[i - 1]) * (zs[i + 1] - zs[i])
                rhs = (vs[i + 1] - vs[i]) * (zs[i] - zs[i - 1])
                if lhs > rhs + 1e-12 * (1.0 + abs(rhs)):
                    raise AssertionError(f"ray {p}: convexity violated at {zs[i]}")
        return True

    @classmethod
    def from_json(cls, data: dict) -> "RateSurface":
        cells = [
            SurfaceCell(
                direction=tuple(int(v) for v in rec["direction"]),
                zeta=float(rec["zeta"]),
                value=float(rec["value"]),
                ci=(float(rec["ci"][0]),
                    math.inf if rec["ci"][1] is None else float(rec["ci"][1])),
                method=rec["method"],
                sources=list(rec.get("sources", [])),
                modified=list(rec.get("modified", [])),
            )
            for rec in data["cells"]
        ]
        return cls(cells=cells)

    def write_csv(self, path):
        write_csv(path, ["direction", "zeta", "value", "ci_lo", "ci_hi", "method",
                         "modified", "sources"],
                  [["_".join(str(v) for v in c.direction), c.zeta, c.value, *c.ci, c.method,
                    ";".join(c.modified) or "none", ";".join(str(s) for s in c.sources)]
                   for c in self.cells])


def extend_surface(points: Sequence[RatePoint]) -> RateSurface:
    """Build a structurally extended surface from raw rate points.

    Transforms applied in order: reflection to nonnegative directions,
    homogenization onto primitive rays, componentwise domination envelope
    (a cell inherits any smaller value at a componentwise-larger direction
    and smaller speed), and the lower convex envelope in the speed along each
    ray.  Duplicate cells with disjoint intervals raise
    :class:`SurfaceConflictError`.
    """
    if not points:
        raise ValueError("no points to extend")
    merged: dict[tuple, SurfaceCell] = {}
    conflicts = []
    for pt in points:
        p, k = _primitive(pt.x)
        zn = pt.zeta / k
        vn = pt.estimate / k
        cin = (pt.ci[0] / k, pt.ci[1] / k)
        source = {"x": list(pt.x), "zeta": pt.zeta, "n": pt.n, "method": pt.method}
        key = (p, round(zn, 12))
        if key in merged:
            cell = merged[key]
            lo1, hi1 = cell.ci
            lo2, hi2 = cin
            if hi1 < lo2 - 1e-12 or hi2 < lo1 - 1e-12:
                conflicts.append({"cell": key, "ci_a": cell.ci, "ci_b": cin})
                continue
            cell.sources.append(source)
            if vn < cell.value:
                cell.value = vn
                cell.ci = cin
                cell.method = pt.method
            continue
        merged[key] = SurfaceCell(direction=p, zeta=float(zn), value=float(vn),
                                  ci=cin, method=pt.method, sources=[source],
                                  modified=[])
    if conflicts:
        raise SurfaceConflictError(conflicts)
    cells = list(merged.values())

    # componentwise domination: larger direction at smaller speed bounds us
    for c in cells:
        pc = np.array(c.direction)
        for o in cells:
            if o is c:
                continue
            po = np.array(o.direction)
            if np.all(po >= pc) and o.zeta <= c.zeta + 1e-15 and o.value < c.value:
                c.value = o.value
                c.ci = o.ci
                if "monotone-envelope" not in c.modified:
                    c.modified.append("monotone-envelope")

    # lower convex envelope in zeta along each ray
    surface = RateSurface(cells=cells)
    for p in surface.directions():
        ray = surface.ray(p)
        if len(ray) < 3:
            continue
        zs = np.array([c.zeta for c in ray])
        vs = np.array([c.value for c in ray])
        hull = [0]
        for i in range(1, len(ray)):
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                if (vs[b] - vs[a]) * (zs[i] - zs[b]) >= (vs[i] - vs[b]) * (zs[b] - zs[a]):
                    hull.pop()
                else:
                    break
            hull.append(i)
        for i, c in enumerate(ray):
            j = int(np.searchsorted(zs[hull], zs[i], side="right")) - 1
            j = min(max(j, 0), len(hull) - 2)
            a, b = hull[j], hull[j + 1]
            t = 0.0 if zs[b] == zs[a] else (zs[i] - zs[a]) / (zs[b] - zs[a])
            env = (1.0 - t) * vs[a] + t * vs[b]
            if env < c.value - 1e-15:
                c.value = float(env)
                c.modified.append("convex-envelope")
    return surface


def default_zeta_grid(dist, x) -> np.ndarray:
    """Geometric grid of five speeds between just above the trivial threshold
    and the mean-speed ceiling."""
    xv = _canonical_direction(x)
    l1 = int(np.abs(xv).sum())
    lo = float(dist.support_infimum) * l1 * (1.0 + _ZETA_LIFT)
    hi = float(dist.mean()) * l1
    if lo <= 0:
        lo = min(1e-3, hi * 0.1)
    if hi <= lo:
        hi = lo * 2.0
    return np.geomspace(lo, hi, _ZETA_COUNT)


# ---------------------------------------------------------------------------
# zero-set structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroSetReport:
    direction: tuple[int, ...]
    mu_hat: float
    mu_ci: tuple[float, float]
    zero_ok: bool
    positive_ok: bool
    trend_ok: bool
    trend_slope: float
    details: dict
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", self.zero_ok and self.positive_ok and self.trend_ok)


def zero_set_check(surface: RateSurface, tc: TimeConstantEstimate) -> ZeroSetReport:
    """Compare the surface's zero set with the estimated time constant.

    Cells at speeds two CIs above the time constant must carry a rate of at
    most ``_ZERO_TOL``; cells below it by a margin (two CI half-widths, at
    least 5% of the time constant) must be positive beyond their own CI;
    and a linear fit over the positive range must slope downward.
    """
    p, k = _primitive(tc.x)
    ray = surface.ray(p)
    if not ray:
        raise ValueError(f"surface has no ray for direction {p}")
    mu_n = tc.mu_hat / k
    half_n = (tc.ci[1] - tc.ci[0]) / 2.0 / k
    margin = max(2.0 * half_n, 0.05 * mu_n)

    zero_cells = [c for c in ray if c.zeta >= mu_n + 2.0 * half_n]
    pos_cells = [c for c in ray if c.zeta <= mu_n - margin]
    if not zero_cells and not pos_cells:
        raise ValueError("surface ray does not straddle the time constant")
    zero_ok = all(c.value <= _ZERO_TOL for c in zero_cells)
    positive_ok = all(c.ci[0] > 0.0 for c in pos_cells) and bool(pos_cells)

    trend_cells = [c for c in ray if c.zeta <= mu_n]
    if len(trend_cells) >= 2:
        # the least-squares slope in closed form, each sum correctly rounded
        # by fsum, so that no BLAS or LAPACK kernel rounds it
        z_bar = math.fsum(c.zeta for c in trend_cells) / len(trend_cells)
        v_bar = math.fsum(c.value for c in trend_cells) / len(trend_cells)
        dz = [c.zeta - z_bar for c in trend_cells]
        slope = (math.fsum(d * (c.value - v_bar) for d, c in zip(dz, trend_cells))
                 / math.fsum(d * d for d in dz))
        trend_ok = slope < 0.0
    else:
        slope = math.nan
        trend_ok = True
    return ZeroSetReport(
        direction=p, mu_hat=tc.mu_hat, mu_ci=tc.ci, zero_ok=zero_ok,
        positive_ok=positive_ok, trend_ok=trend_ok, trend_slope=slope,
        details={
            "normalized_mu": mu_n,
            "n_zero_cells": len(zero_cells),
            "n_positive_cells": len(pos_cells),
            "zero_values": [c.value for c in zero_cells],
            "positive_ci_lows": [c.ci[0] for c in pos_cells],
        })
