"""Edge-weight laws and lattice boxes for first-passage percolation.

The model layer owns three things: the distribution of a single edge weight,
the finite box of the nearest-neighbour lattice on which everything is
simulated, and the sampled field of i.i.d. weights attached to the edges of
that box.  Sampling is counter-based: every edge derives its uniform from a
hash of the master seed and the edge's lattice coordinates, so regenerating a
field is bit-identical and enlarging the box never changes the weights of
edges the smaller box already contained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "EdgeDistribution",
    "truncate",
    "LatticeBox",
    "WeightField",
    "sample_weights",
    "sample_weight_rows",
    "subcritical_atom_check",
    "BOND_PERCOLATION_THRESHOLD",
]


def _as_fraction(x) -> Fraction:
    """Exact conversion; floats convert via their binary value, which is exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(_finite(x, "probability"))
    raise TypeError(f"cannot convert {type(x).__name__} to an exact rational")


def _finite(x, what: str) -> float:
    """``x`` as a float; ``ValueError`` unless it is finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


@dataclass(frozen=True)
class EdgeDistribution:
    """Law of a single nonnegative edge weight.

    Construct through the classmethods rather than directly; they normalise
    parameters and record the support infimum.  Atom-bearing laws keep
    their probabilities as exact rationals so that enumeration oracles can
    report exact event probabilities.
    """

    kind: str
    params: tuple
    support_infimum: float

    # -- constructors -----------------------------------------------------

    @classmethod
    def deterministic(cls, c: float) -> "EdgeDistribution":
        c = _finite(c, "c")
        if c < 0:
            raise ValueError("edge weights must be nonnegative")
        return cls("deterministic", ((c,), (Fraction(1),)), c)

    @classmethod
    def two_point(cls, lo: float, hi: float, p_lo) -> "EdgeDistribution":
        """Weight ``lo`` with probability ``p_lo``, else ``hi``.

        ``p_lo`` may be a :class:`~fractions.Fraction` for exact decimal
        probabilities; floats are taken at their exact binary value.
        """
        lo, hi = _finite(lo, "lo"), _finite(hi, "hi")
        if lo < 0:
            raise ValueError("edge weights must be nonnegative")
        if not lo < hi:
            raise ValueError("two-point law needs lo < hi")
        p = _as_fraction(p_lo)
        if not 0 < p < 1:
            raise ValueError("p_lo must lie strictly between 0 and 1")
        return cls("two_point", ((lo, hi), (p, 1 - p)), lo)

    @classmethod
    def uniform(cls, a: float, b: float) -> "EdgeDistribution":
        a, b = _finite(a, "a"), _finite(b, "b")
        if a < 0:
            raise ValueError("edge weights must be nonnegative")
        if not a < b:
            raise ValueError("uniform law needs a < b")
        return cls("uniform", (a, b), a)

    @classmethod
    def exponential(cls, rate: float, shift: float = 0.0) -> "EdgeDistribution":
        rate, shift = _finite(rate, "rate"), _finite(shift, "shift")
        if rate <= 0:
            raise ValueError("rate must be positive")
        if shift < 0:
            raise ValueError("shift must be nonnegative")
        return cls("exponential", (rate, shift), shift)

    @classmethod
    def finite_support(cls, values: Sequence[float], probs: Sequence) -> "EdgeDistribution":
        vals = [_finite(v, "values") for v in values]
        ps = [_as_fraction(p) for p in probs]
        if len(vals) != len(ps) or not vals:
            raise ValueError("values and probs must be equal-length and nonempty")
        if any(v < 0 for v in vals):
            raise ValueError("edge weights must be nonnegative")
        if any(p < 0 for p in ps):
            raise ValueError("probabilities must be nonnegative")
        if sum(ps) != 1:
            raise ValueError("probabilities must sum to one exactly")
        merged: dict[float, Fraction] = {}
        for v, p in zip(vals, ps):
            if p > 0:
                merged[v] = merged.get(v, Fraction(0)) + p
        items = sorted(merged.items())
        return cls("finite_support", (tuple(v for v, _ in items), tuple(p for _, p in items)),
                   items[0][0])

    @classmethod
    def _truncated(cls, base: "EdgeDistribution", cap: float) -> "EdgeDistribution":
        return cls("truncated", (base, float(cap)), base.support_infimum)

    # -- basic structure ---------------------------------------------------

    @property
    def is_finite_support(self) -> bool:
        return self.kind in ("deterministic", "two_point", "finite_support")

    def atoms(self) -> tuple[tuple[float, ...], tuple[Fraction, ...]]:
        """Support values and exact probabilities of a finite-support law.

        Every finite law (deterministic, two-point, finite support) keeps this
        sorted ``(values, probs)`` table as its ``params``."""
        if self.is_finite_support:
            return self.params
        raise ValueError(f"{self.kind} law has no finite atom table")

    def support_supremum(self) -> float:
        if self.is_finite_support:
            return self.params[0][-1]
        if self.kind == "uniform":
            return self.params[1]
        if self.kind == "exponential":
            return math.inf
        if self.kind == "truncated":
            base, cap = self.params
            return min(base.support_supremum(), cap)
        raise AssertionError(self.kind)

    def atom_at_infimum(self) -> Fraction:
        """Exact mass at the support infimum a, nu({a})."""
        if self.kind == "truncated":
            # the base law is continuous: all of it sits at a when the cap does
            return Fraction(self.params[1] == self.support_infimum)
        if self.is_finite_support:
            return self.atoms()[1][0]  # atoms are sorted by value
        return Fraction(0)

    # -- distribution functions -------------------------------------------

    def cdf(self, t: float) -> float:
        """P(tau <= t)."""
        if self.kind == "truncated":
            base, cap = self.params
            return 1.0 if t >= cap else base.cdf(t)
        if self.is_finite_support:
            values, probs = self.atoms()
            return float(sum(p for v, p in zip(values, probs) if v <= t))
        if self.kind == "uniform":
            a, b = self.params
            if t < a:
                return 0.0
            if t >= b:
                return 1.0
            return (t - a) / (b - a)
        if self.kind == "exponential":
            rate, shift = self.params
            if t < shift:
                return 0.0
            return -math.expm1(-rate * (t - shift))
        raise AssertionError(self.kind)

    def cdf_fraction(self, t: float) -> Fraction | None:
        """Exact rational CDF where the law supports it, else ``None``."""
        if self.is_finite_support:
            values, probs = self.atoms()
            return sum((p for v, p in zip(values, probs) if v <= t), Fraction(0))
        if self.kind == "truncated":
            base, cap = self.params
            if t >= cap:
                return Fraction(1)
            return base.cdf_fraction(t)
        return None

    def mean(self) -> float:
        if self.is_finite_support:
            values, probs = self.atoms()
            return float(sum(Fraction(v) * p for v, p in zip(values, probs)))
        if self.kind == "uniform":
            a, b = self.params
            return 0.5 * (a + b)
        if self.kind == "exponential":
            rate, shift = self.params
            return shift + 1.0 / rate
        if self.kind == "truncated":
            base, cap = self.params
            if base.kind == "uniform":
                a, b = base.params
                if cap >= b:
                    return base.mean()
                # uniform part on [a, cap) plus atom at cap
                w = (cap - a) / (b - a)
                return w * 0.5 * (a + cap) + (1 - w) * cap
            if base.kind == "exponential":
                rate, shift = base.params
                if cap <= shift:
                    return cap
                # E[min(tau, cap)] = shift + (1 - exp(-rate (cap - shift))) / rate
                return shift - math.expm1(-rate * (cap - shift)) / rate
            raise AssertionError(base.kind)
        raise AssertionError(self.kind)

    def log_mgf(self, lam: float) -> float:
        """log E[exp(lam * tau)], stable for very negative lam."""
        from scipy.special import logsumexp

        if self.is_finite_support:
            values, probs = self.atoms()
            terms = [lam * v + math.log(float(p)) for v, p in zip(values, probs)]
            return float(logsumexp(terms))
        if self.kind == "uniform":
            a, b = self.params
            if lam == 0.0:
                return 0.0
            return lam * a + _log_expm1_over(lam * (b - a))
        if self.kind == "exponential":
            rate, shift = self.params
            if lam >= rate:
                raise ValueError(f"mgf diverges for lam >= rate ({lam} >= {rate})")
            return lam * shift + math.log(rate) - math.log(rate - lam)
        if self.kind == "truncated":
            base, cap = self.params
            if base.kind == "uniform":
                a, b = base.params
                hi = min(b, cap)
                if lam == 0.0:
                    return 0.0
                if hi == a:  # all mass at the cap
                    return lam * cap
                cont = lam * a + math.log((hi - a) / (b - a)) + _log_expm1_over(lam * (hi - a))
                tail_mass = (b - hi) / (b - a)
                if tail_mass == 0.0:
                    return cont
                return float(np.logaddexp(cont, math.log(tail_mass) + lam * cap))
            if base.kind == "exponential":
                rate, shift = base.params
                if cap <= shift:
                    return lam * cap
                log_tail = -rate * (cap - shift) + lam * cap
                if lam == rate:
                    log_cont = lam * shift + math.log(rate * (cap - shift))
                else:
                    # rate/(rate-lam) (1 - exp(-z)) e^{lam shift}, z = (rate-lam)(cap-shift);
                    # both factors change sign at lam = rate, and the law is
                    # bounded, so lam > rate is finite too
                    z = (rate - lam) * (cap - shift)
                    if z > 0:
                        inner = math.log(-math.expm1(-z))
                    else:
                        inner = -z + math.log(-math.expm1(z))
                    log_cont = lam * shift + math.log(rate) - math.log(abs(rate - lam)) + inner
                return float(np.logaddexp(log_cont, log_tail))
        raise AssertionError(self.kind)

    # -- sampling ----------------------------------------------------------

    def sample_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Inverse-CDF transform of uniforms in [0, 1).

        Inverse-CDF sampling makes truncation a monotone coupling: for the
        same uniforms, the truncated law's sample equals ``min(sample, b)``
        of the base law exactly.
        """
        u = np.asarray(u, dtype=np.float64)
        if self.is_finite_support:
            values, probs = self.params
            cuts = np.cumsum(np.asarray([float(p) for p in probs]))
            idx = np.searchsorted(cuts, u, side="right")
            idx = np.minimum(idx, len(values) - 1)
            return np.asarray(values, dtype=np.float64)[idx]
        if self.kind == "uniform":
            a, b = self.params
            return a + u * (b - a)
        if self.kind == "exponential":
            rate, shift = self.params
            return shift - np.log1p(-u) / rate
        if self.kind == "truncated":
            base, cap = self.params
            return np.minimum(base.sample_from_uniforms(u), cap)
        raise AssertionError(self.kind)

    def spec(self) -> dict:
        """Tagged record for config files and manifests."""
        if self.kind == "deterministic":
            return {"kind": "deterministic", "c": self.params[0][0]}
        if self.kind == "two_point":
            (lo, hi), (p, _) = self.params
            return {"kind": "two_point", "lo": lo, "hi": hi,
                    "p_lo": {"num": p.numerator, "den": p.denominator}}
        if self.kind == "uniform":
            a, b = self.params
            return {"kind": "uniform", "a": a, "b": b}
        if self.kind == "exponential":
            rate, shift = self.params
            return {"kind": "exponential", "rate": rate, "shift": shift}
        if self.kind == "finite_support":
            values, probs = self.params
            return {"kind": "finite_support", "values": list(values),
                    "probs": [{"num": p.numerator, "den": p.denominator} for p in probs]}
        if self.kind == "truncated":
            base, cap = self.params
            return {"kind": "truncated", "base": base.spec(), "cap": cap}
        raise AssertionError(self.kind)

    @classmethod
    def from_spec(cls, rec: dict) -> "EdgeDistribution":
        kind = rec["kind"]
        if kind == "deterministic":
            return cls.deterministic(rec["c"])
        if kind == "two_point":
            return cls.two_point(rec["lo"], rec["hi"], _frac_of(rec["p_lo"]))
        if kind == "uniform":
            return cls.uniform(rec["a"], rec["b"])
        if kind == "exponential":
            return cls.exponential(rec["rate"], rec.get("shift", 0.0))
        if kind == "finite_support":
            return cls.finite_support(rec["values"], [_frac_of(p) for p in rec["probs"]])
        if kind == "truncated":
            return truncate(cls.from_spec(rec["base"]), rec["cap"])
        raise ValueError(f"unknown distribution kind {kind!r}")


def _log_expm1_over(z: float) -> float:
    """log((exp(z) - 1) / z) for z != 0, computed on whichever side is stable:
    the log-mgf of Uniform(0, 1) at z."""
    if z > 0:
        return z + math.log(-math.expm1(-z)) - math.log(z)
    return math.log(-math.expm1(z)) - math.log(-z)


def _frac_of(rec) -> Fraction:
    if isinstance(rec, dict):
        return Fraction(rec["num"], rec["den"])
    return _as_fraction(rec)


def truncate(dist: EdgeDistribution, b: float) -> EdgeDistribution:
    """Law of ``min(tau, b)``.

    Finite-support laws stay finite-support with merged atoms; continuous
    laws become a mixed law with an atom at ``b`` carried by a wrapper kind.
    ``b = inf`` leaves the law as it is, since min(tau, inf) = tau.
    """
    b = float(b)
    if math.isnan(b):
        raise ValueError("truncation level must be a number, got NaN")
    if b < dist.support_infimum:
        raise ValueError(
            f"truncation level {b} lies below the support infimum {dist.support_infimum}"
        )
    if b >= dist.support_supremum():
        return dist
    if dist.is_finite_support:
        values, probs = dist.atoms()
        return EdgeDistribution.finite_support([min(v, b) for v in values], list(probs))
    if dist.kind == "truncated":
        base, cap = dist.params
        return EdgeDistribution._truncated(base, min(cap, b))
    return EdgeDistribution._truncated(dist, b)


# ---------------------------------------------------------------------------
# lattice boxes


def _integral(coords) -> np.ndarray:
    """``coords`` as an array; ``ValueError`` unless each is an integer (1.0 is)."""
    c = np.asarray(coords)
    if np.any(c != np.round(c)):
        raise ValueError(f"vertex coordinates must be integers, got {c.tolist()}")
    return c


@dataclass(frozen=True)
class LatticeBox:
    """The box [0, n]^d of the nearest-neighbour lattice Z^d.

    Vertices are the integer points with coordinates in 0..n, flattened in
    row-major (C) order over the (n+1)^d grid, so the last coordinate varies
    fastest.  Edges join vertices at l1 distance one and are enumerated
    axis-major: all edges parallel to axis 0 first (ordered by their base
    vertex, the endpoint with the smaller coordinate), then axis 1, and so on.
    """

    dimension: int
    side: int

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be at least 2")
        if self.side < 1:
            raise ValueError("side must be at least 1")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.side + 1,) * self.dimension

    @property
    def n_vertices(self) -> int:
        return (self.side + 1) ** self.dimension

    @property
    def n_edges(self) -> int:
        d, n = self.dimension, self.side
        return d * n * (n + 1) ** (d - 1)

    def vertex_id(self, coords) -> int:
        """Flat id of one vertex, or an array of ids of a (..., d) array of
        vertices.  ``ValueError`` on a coordinate that is not an integer
        (integral floats such as 1.0 are) or lies outside the box."""
        c = _integral(coords)
        if c.shape[-1:] != (self.dimension,):
            raise ValueError(f"vertex coordinates need length {self.dimension}")
        if np.any(c < 0) or np.any(c > self.side):
            raise ValueError(f"vertex outside box [0, {self.side}]^{self.dimension}: {c.tolist()}")
        ids = np.ravel_multi_index(tuple(c.T.astype(np.int64)), self.shape)
        return int(ids) if c.ndim == 1 else ids

    def vertex_coords(self, vid) -> np.ndarray:
        return np.array(np.unravel_index(vid, self.shape)).T

    def all_vertex_coords(self) -> np.ndarray:
        idx = np.indices(self.shape).reshape(self.dimension, -1).T
        return idx

    def edge_id(self, u, v) -> int:
        """Canonical edge index of the edge joining neighbouring vertices u, v."""
        i, j = self.vertex_id(u), self.vertex_id(v)
        nbr, eid = _neighbours(self.dimension, self.side)
        hit = eid[i][(nbr[i] == j) & (eid[i] < self.n_edges)]
        if len(hit) != 1:
            raise ValueError(f"{u} and {v} are not lattice neighbours")
        return int(hit[0])


@lru_cache(maxsize=32)
def _edge_arrays(d: int, n: int):
    """Vectorised edge tables: base coords, axis, flat endpoint ids.

    Cached per box shape and shared by every caller, so the arrays are
    read-only."""
    shape_v = (n + 1,) * d
    bases = []
    axes = []
    for axis in range(d):
        shape = [n + 1] * d
        shape[axis] = n
        grid = np.indices(shape).reshape(d, -1).T
        bases.append(grid)
        axes.append(np.full(len(grid), axis, dtype=np.int64))
    base_coords = np.concatenate(bases, axis=0)
    axis_arr = np.concatenate(axes, axis=0)
    tip_coords = base_coords.copy()
    tip_coords[np.arange(len(axis_arr)), axis_arr] += 1
    u_flat = np.ravel_multi_index(tuple(base_coords.T), shape_v)
    v_flat = np.ravel_multi_index(tuple(tip_coords.T), shape_v)
    for a in (base_coords, axis_arr, u_flat, v_flat):
        a.setflags(write=False)
    return base_coords, axis_arr, (u_flat, v_flat)


@lru_cache(maxsize=32)
def _neighbours(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The box's neighbour table: (V, 2d) arrays of neighbour ids and edge ids.

    Slot ``2a`` of a vertex holds the step along ``+e_a``, slot ``2a + 1``
    the step along ``-e_a``.  A step that leaves the box points at the
    vertex itself through the padding edge id ``n_edges``.  Read-only like
    :func:`_edge_arrays`.
    """
    _, axis, (u_flat, v_flat) = _edge_arrays(d, n)
    edges = np.arange(len(axis))
    nbr = np.repeat(np.arange((n + 1) ** d)[:, None], 2 * d, axis=1)
    eid = np.full(nbr.shape, len(axis))
    nbr[u_flat, 2 * axis], eid[u_flat, 2 * axis] = v_flat, edges
    nbr[v_flat, 2 * axis + 1], eid[v_flat, 2 * axis + 1] = u_flat, edges
    nbr.setflags(write=False)
    eid.setflags(write=False)
    return nbr, eid


@lru_cache(maxsize=32)
def _adjacency(d: int, n: int):
    """CSR adjacency over flat vertex ids: (indptr, neighbour ids, edge ids),
    the real slots of :func:`_neighbours`, read-only like it."""
    nbr, eid = _neighbours(d, n)
    real = nbr != np.arange(len(nbr))[:, None]
    indptr = np.concatenate([[0], np.cumsum(real.sum(axis=1))])
    out = (indptr, nbr[real], eid[real])
    for a in out:
        a.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# counter-based per-edge uniforms

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _avalanche(h: np.ndarray) -> np.ndarray:
    h = (h ^ (h >> np.uint64(30))) * _MIX1
    h = (h ^ (h >> np.uint64(27))) * _MIX2
    return h ^ (h >> np.uint64(31))


def _edge_uniforms(seeds: np.ndarray, axis: np.ndarray, base_coords: np.ndarray) -> np.ndarray:
    """One uniform in [0, 1) per (seed, edge), a pure function of
    (seed, axis, coords); ``seeds`` is a ``(B, 1)`` uint64 column and the
    result has shape ``(B, n_edges)``."""
    h = _avalanche(seeds ^ _GOLD)
    fields = [axis.astype(np.uint64)] + [base_coords[:, i].astype(np.uint64) for i in range(base_coords.shape[1])]
    for f in fields:
        h = _avalanche(h ^ (f * _MIX1 + _GOLD))
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


@dataclass(frozen=True)
class WeightField:
    """Sampled i.i.d. weights on the edges of a box, in canonical edge order."""

    box: LatticeBox
    distribution: EdgeDistribution
    master_seed: int
    weights: np.ndarray = field(repr=False, compare=False)

    def truncated(self, b: float) -> "WeightField":
        """Field of min(weight, b); shares the seed, couples edgewise."""
        return WeightField(
            box=self.box,
            distribution=truncate(self.distribution, b),
            master_seed=self.master_seed,
            weights=np.minimum(self.weights, float(b)),
        )


def sample_weight_rows(dist: EdgeDistribution, box: LatticeBox, seeds) -> np.ndarray:
    """Weight rows of a box, one per seed: a ``(len(seeds), n_edges)`` array.

    Row i is ``sample_weights(dist, box, seeds[i]).weights`` bit for bit:
    the per-edge hash and the inverse-CDF transform are elementwise, so
    hashing a column of seeds against the edge tables changes no value.
    Seeds are taken modulo 2^64.
    """
    base_coords, axis, _ = _edge_arrays(box.dimension, box.side)
    col = np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)
    u = _edge_uniforms(col[:, None], axis, base_coords)
    return dist.sample_from_uniforms(u)


def sample_weights(dist: EdgeDistribution, box: LatticeBox, seed: int) -> WeightField:
    """Sample the i.i.d. edge-weight field of a box.

    Each edge's uniform is a hash of (seed, axis, base-vertex coordinates),
    so fields are reproducible bit for bit and consistent across nested boxes:
    the edges shared by [0, n]^d and [0, m]^d (m > n) receive the same weights.
    The weights are the one row of :func:`sample_weight_rows`.
    """
    w = sample_weight_rows(dist, box, [seed])[0]
    return WeightField(box=box, distribution=dist, master_seed=int(seed), weights=w)


# ---------------------------------------------------------------------------
# subcriticality of the zero atom

#: Bond percolation thresholds of Z^d.  d = 2 is the exact value 1/2; d = 3
#: has no closed form and the entry is the standard numerical estimate from
#: the percolation literature (Lorenz and Ziff 1998), accurate to ~1e-6.
BOND_PERCOLATION_THRESHOLD: dict[int, Fraction | float] = {
    2: Fraction(1, 2),
    3: 0.2488126,
}


@dataclass(frozen=True)
class AtomCheck:
    atom: Fraction
    threshold: float
    subcritical: bool
    exact_threshold: bool


def subcritical_atom_check(dist: EdgeDistribution, d: int) -> AtomCheck:
    """Check nu({0}) < p_c(d), the subcritical-atom condition.

    Only d in {2, 3} are tabulated; other dimensions raise.
    """
    if d not in BOND_PERCOLATION_THRESHOLD:
        raise ValueError(f"no tabulated bond percolation threshold for d = {d}")
    pc = BOND_PERCOLATION_THRESHOLD[d]
    atom = dist.atom_at_infimum() if dist.support_infimum == 0.0 else Fraction(0)
    exact = isinstance(pc, Fraction)
    sub = (atom < pc) if exact else (float(atom) < pc)
    return AtomCheck(atom=atom, threshold=float(pc), subcritical=bool(sub), exact_threshold=exact)
