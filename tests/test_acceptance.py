"""Acceptance battery: one test per shipping criterion.

Each test exercises one headline guarantee end to end at its stated
tolerance and finishes by printing a single summary line, so a verbose
run reads as a 12-line scoreboard.  Tolerances are part of the contract:
exact comparisons are exact (integer or Fraction, or float equality
where the arithmetic is provably exact), and every statistical check
states its confidence radius.

Criterion 12 is qualitative by design: it certifies that the hub
frequency is bounded away from zero on small boxes, not any limit value.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fpplab.elementary_rate import (
    estimate_rate_rung,
    estimate_time_constant,
    extend_surface,
    zero_set_check,
)
from fpplab.functional import (
    AnalyticRate,
    PathFamily,
    functional_geodesic_sum,
    functional_intrinsic,
    functional_sup_lower_bound,
    strict_monotonicity_probe,
)
from fpplab.geometry import (
    GeometryError,
    HWChain,
    LipschitzPath,
    NormPlusHighways,
    build_highway_network,
    hw_insert,
)
from fpplab.model import EdgeDistribution, LatticeBox, sample_weights
from fpplab.oracle import (
    EventSpec,
    chernoff_upper_tail,
    cramer_rate,
    crude_lower_bound,
    exact_event_probability,
    fkg_supermultiplicativity_check,
    iid_sum_lower_tail_rate,
    monte_carlo_event_probability,
    wilson_interval,
)
from fpplab.passage_time import disjoint_paths, hub_check, rescaled_metric, uniform_gap

TP = EdgeDistribution.two_point(1.0, 2.0, 0.5)
TP3 = EdgeDistribution.two_point(1.0, 2.0, Fraction(1, 3))
FS = EdgeDistribution.finite_support([1.0, 2.0, 4.0], [0.25, 0.5, 0.25])


def _passed(k, detail):
    print(f"criterion {k:02d} PASS: {detail}", flush=True)


def _l1_matrix(points):
    p = np.asarray(points, dtype=np.int64)
    return np.abs(p[:, None, :] - p[None, :, :]).sum(axis=2)


def test_criterion_01_deterministic_law_exactness():
    """Constant weights c: the rescaled box metric is exactly c * l1 / n."""
    c = 1.5
    det = EdgeDistribution.deterministic(c)
    t0 = time.perf_counter()
    checked = 0

    # small box, every vertex pair
    box = LatticeBox(2, 4)
    fld = sample_weights(det, box, 0)
    rm = rescaled_metric(fld)
    l1 = _l1_matrix(rm.points)
    assert np.array_equal(rm.raw_times, c * l1)
    assert np.array_equal(rm.matrix, c * l1 / box.side)
    checked += l1.size

    # large boxes, explicit point subsets (corners plus seeded interior)
    for dim, n, n_random in ((2, 64, 40), (3, 32, 30)):
        box = LatticeBox(dim, n)
        rng = np.random.default_rng(10 * dim + n)
        pts = np.vstack(
            [
                np.zeros((1, dim), dtype=np.int64),
                np.full((1, dim), n, dtype=np.int64),
                rng.integers(0, n + 1, size=(n_random, dim)),
            ]
        )
        fld = sample_weights(det, box, 1)
        rm = rescaled_metric(fld, points=pts)
        l1 = _l1_matrix(pts)
        assert np.array_equal(rm.raw_times, c * l1)
        assert np.array_equal(rm.matrix, c * l1 / n)
        checked += l1.size

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(1, f"{checked} pair values exactly c*l1/n across d=2,3 up to n=64 in {elapsed:.2f}s")


def _enumerable_fixture_battery():
    """Events with exactly enumerable probabilities on side-1 and side-2 boxes."""
    unit = LatticeBox(2, 1)
    side2 = LatticeBox(2, 2)
    strip = ((0, 2), (0, 0))
    fixtures = []
    for dist in (TP, TP3, FS):
        fixtures += [
            (dist, unit, EventSpec.passage_time_at_most((0, 0), (1, 0), 1.0)),
            (dist, unit, EventSpec.passage_time_at_most((0, 0), (1, 1), 2.0)),
            (dist, unit, EventSpec.passage_time_at_most((0, 0), (1, 1), 3.0)),
            (dist, unit, EventSpec.passage_time_at_most((0, 0), (1, 1), 4.0)),
            (dist, unit, EventSpec.passage_time_at_most((0, 1), (1, 0), 2.0)),
        ]
    for dist in (TP, TP3):
        for t in (2.0, 3.0, 4.0):
            fixtures.append(
                (dist, side2, EventSpec.passage_time_at_most((0, 0), (2, 0), t, region=strip))
            )
    fixtures.append((TP, side2, EventSpec.passage_time_at_most((0, 0), (2, 2), 5.0)))
    fixtures.append((TP, unit, EventSpec.hub((0, 0), 2.0)))
    return fixtures


def test_criterion_02_oracle_equalities():
    """Exact rationals on the unit-box anchors; MC within 3 binomial SE everywhere."""
    unit = LatticeBox(2, 1)
    one_edge = exact_event_probability(
        EventSpec.passage_time_at_most((0, 0), (1, 0), 1.0), TP, unit
    )
    corner = exact_event_probability(
        EventSpec.passage_time_at_most((0, 0), (1, 1), 2.0), TP, unit
    )
    assert one_edge.p == Fraction(1, 2)
    assert corner.p == Fraction(7, 16)
    assert corner.n_configs == 16 and corner.n_satisfying == 7

    fixtures = _enumerable_fixture_battery()
    assert len(fixtures) >= 20
    samples = 400
    worst = 0.0
    for i, (dist, box, event) in enumerate(fixtures):
        p = float(exact_event_probability(event, dist, box).p)
        mc = monte_carlo_event_probability(event, dist, box, samples=samples, seed=300 + i)
        se = math.sqrt(p * (1.0 - p) / samples)
        dev = abs(mc.p_hat - p)
        assert dev <= 3.0 * se, f"fixture {i}: |{mc.p_hat} - {p}| > 3 SE"
        if se > 0:
            worst = max(worst, dev / se)
    _passed(2, f"1/2 and 7/16 exact; {len(fixtures)} fixtures within 3 SE (worst {worst:.2f} SE)")


def test_criterion_03_fkg_slack_nonnegative():
    """Joint lower-tail probability dominates the product, exhaustively in (t1, t2)."""
    grids = [
        (LatticeBox(2, 1), (1, 0), (0, 1), np.arange(1.0, 4.01, 0.5)),
        (LatticeBox(2, 2), (2, 0), (0, 2), np.arange(2.0, 6.01, 1.0)),
    ]
    n_pairs = 0
    for box, x1, x2, ts in grids:
        for t1, t2 in itertools.product(ts, ts):
            rep = fkg_supermultiplicativity_check(TP, box, x1, x2, float(t1), float(t2))
            assert isinstance(rep.slack, Fraction)
            assert rep.slack >= 0
            assert rep.lhs == rep.rhs + rep.slack
            assert rep.rhs == rep.factor_first * rep.factor_second
            n_pairs += 1
    _passed(3, f"slack >= 0 as exact Fractions on {n_pairs} (t1, t2) pairs, two box fixtures")


def test_criterion_04_crude_bound_below_exact():
    """Per-edge product bound never exceeds the enumerated probability."""
    unit = LatticeBox(2, 1)
    side2 = LatticeBox(2, 2)
    cases = []
    for dist in (TP, TP3, FS):
        for u, v in (((0, 0), (1, 0)), ((0, 0), (1, 1)), ((0, 1), (1, 0))):
            for t in (1.0, 1.25, 1.5, 2.0):
                cases.append((dist, unit, u, v, t))
    for u, v in (((0, 0), (2, 0)), ((0, 0), (2, 2))):
        for t in (1.0, 1.5):
            cases.append((TP, side2, u, v, t))

    for dist, box, u, v, t in cases:
        hops = sum(abs(a - b) for a, b in zip(u, v))
        bound = crude_lower_bound(dist, u, v, t)
        exact = exact_event_probability(
            EventSpec.passage_time_at_most(u, v, t * hops), dist, box
        ).p
        assert isinstance(bound, Fraction) and isinstance(exact, Fraction)
        assert bound <= exact, f"{dist.kind} {u}->{v} t={t}: {bound} > {exact}"
    _passed(4, f"analytic lower bound <= exact probability on {len(cases)} enumerable cases")


def test_criterion_05_truncation_gap_bound():
    """Sup gap between capped and raw rescaled metrics stays under 2bd/n."""
    dist = EdgeDistribution.exponential(1.0)
    per_combo = 9
    total = 0
    worst_ratio = 0.0
    for dim, n, b in itertools.product((2, 3), (4, 8, 16), (1.0, 2.0)):
        box = LatticeBox(dim, n)
        bound = 2.0 * b * dim / n
        for i in range(per_combo):
            seed = 50_000 + 1000 * total + i
            fld = sample_weights(dist, box, seed)
            rep = uniform_gap(fld, b, seed=seed)
            assert rep.bound == bound
            assert rep.within_bound and rep.gap <= bound
            worst_ratio = max(worst_ratio, rep.gap / bound)
            total += 1
    assert total >= 100
    _passed(5, f"{total} realizations, gap <= 2bd/n always (worst gap/bound {worst_ratio:.3f})")


def _network_fixture_suite():
    return [
        ([1.0, 1.0], [([[0.0, 0.0], [1.0, 1.0]], 0.5)]),
        ([1.0, 1.0], [([[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [1.0, 0.8]])]),
        ([1.5, 0.8], [([[0.0, 0.0], [1.0, 0.0]], 0.6), ([[0.0, 1.0], [1.0, 1.0]], 0.9)]),
        ([1.0, 1.0], [([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 0.4)]),
    ]


def test_criterion_06_highway_machinery():
    """Insertion chain decreases while dominating its target; builds converge."""
    target = NormPlusHighways(
        [1.0, 1.0],
        [
            (LipschitzPath([[0.0, 0.0], [0.45, 0.45]]), 0.5),
            (LipschitzPath([[0.55, 0.45], [1.0, 0.1]]), 0.7),
        ],
    )
    chain = HWChain([1.0, 1.0])
    chains = [chain]
    for path, _, _ in target.chain.rides:
        chain = hw_insert(chain, [path], target)
        chains.append(chain)

    rng = np.random.default_rng(61)
    pairs = [
        (np.array([0.0, 0.0]), np.array([0.45, 0.45])),
        (np.array([0.0, 0.0]), np.array([1.0, 0.1])),
        (np.array([0.55, 0.45]), np.array([1.0, 0.1])),
    ] + [(rng.uniform(0, 1, 2), rng.uniform(0, 1, 2)) for _ in range(12)]
    for a, b in pairs:
        vals = [c.query(a, b) for c in chains]
        t = target.evaluate(a, b)
        for prev, nxt in zip(vals, vals[1:]):
            assert nxt <= prev  # exact: inserting only adds routes
        for v in vals:
            assert v >= t - 1e-12  # dominates the target up to float rounding

    finals = []
    for weights, hws in _network_fixture_suite():
        D = NormPlusHighways(weights, [(LipschitzPath(p), lam) for p, lam in hws])
        seeds = [(np.asarray(p[0], float), np.asarray(p[-1], float)) for p, _ in hws]
        net = build_highway_network(D, n_geodesics=8, tol=1e-6, seed_pairs=seeds, seed=0)
        assert net.converged
        sups = [row["sup_distance"] for row in net.diagnostics]
        for prev, nxt in zip(sups, sups[1:]):
            assert nxt <= prev + 1e-12
        assert sups[-1] < 1e-3
        finals.append(sups[-1])
    _passed(
        6,
        f"chain monotone on {len(pairs)} pairs; 4 builds converge "
        f"(final sup gaps {max(finals):.1e})",
    )


def _random_highway_configs(count, seed):
    """Rejection-sampled families of disjoint segments with random discounts."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = int(rng.integers(1, 4))
        highways = []
        for _ in range(k):
            a = rng.uniform(0.05, 0.95, 2)
            b = rng.uniform(0.05, 0.95, 2)
            if np.abs(a - b).sum() < 0.15:
                break
            highways.append((LipschitzPath([a, b]), float(rng.uniform(0.3, 0.95))))
        else:
            weights = rng.uniform(0.5, 2.0, 2)
            j_weights = rng.uniform(0.5, 2.0, 2)
            try:
                D = NormPlusHighways(weights, highways)
                D.validate_geodesics()
            except GeometryError:
                continue
            out.append((D, AnalyticRate(j_weights)))
    return out


def test_criterion_07_three_formula_consistency():
    """Geodesic-sum, intrinsic, and sup formulas agree on random configurations."""
    configs = _random_highway_configs(25, 2024)
    worst_rel = 0.0
    for D, J in configs:
        geo = functional_geodesic_sum(D, J)
        intr = functional_intrinsic(D, J)
        scale = max(1.0, abs(geo))
        assert abs(geo - intr) <= 1e-9 * scale
        worst_rel = max(worst_rel, abs(geo - intr) / scale)

        full = PathFamily([path for path, _, _ in D.chain.rides])
        sup_full = functional_sup_lower_bound(D, J, full)
        assert sup_full <= geo + 1e-9 * scale
        assert abs(sup_full - geo) <= 1e-9 * scale  # the highways themselves attain it
        sub = PathFamily(full.paths[:1])
        sup_sub = functional_sup_lower_bound(D, J, sub)
        assert sup_sub <= geo + 1e-9 * scale
        half = PathFamily([p.subpath(0.0, 0.5) for p in full.paths])
        sup_half = functional_sup_lower_bound(D, J, half)
        assert sup_half <= geo + 1e-9 * scale

    diag = NormPlusHighways([1.0, 1.0], [(LipschitzPath([[0.0, 0.0], [1.0, 1.0]]), 0.5)])
    J = AnalyticRate([1.0, 1.0])
    geo = functional_geodesic_sum(diag, J)
    assert geo == 1.0
    own = PathFamily([path for path, _, _ in diag.chain.rides])
    assert functional_sup_lower_bound(diag, J, own) == 1.0
    assert abs(functional_intrinsic(diag, J) - 1.0) <= 1e-12
    _passed(
        7,
        f"25 random configs agree to {worst_rel:.1e} rel; sup families never exceed; "
        "diagonal value 1.0 exact",
    )


def test_criterion_08_strict_monotonicity():
    """A strictly faster highway profile strictly raises the functional."""
    J = AnalyticRate([1.0, 1.0])

    def metric(weights, hws):
        return NormPlusHighways(weights, [(LipschitzPath(p), lam) for p, lam in hws])

    probes = [
        (
            metric([1.0, 1.0], [([[0.0, 0.0], [1.0, 1.0]], 0.5)]),
            metric([1.0, 1.0], [([[0.0, 0.0], [1.0, 1.0]], 0.6)]),
        ),
        (
            metric([1.0, 1.0], [([[0.0, 0.0], [1.0, 1.0]], 0.5)]),
            metric([1.0, 1.0], [([[0.0, 0.0], [1.0, 1.0]], 0.9)]),
        ),
        (
            metric([1.0, 1.0], [([[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.5], [1.0, 0.8]])]),
            metric([1.0, 1.0], [([[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.6], [1.0, 0.9]])]),
        ),
        (
            metric([1.0, 1.0], [([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 0.4)]),
            metric([1.0, 1.0], [([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], 0.55)]),
        ),
        (
            metric([1.5, 0.8], [([[0.0, 0.0], [1.0, 0.0]], 0.6), ([[0.0, 1.0], [1.0, 1.0]], 0.9)]),
            metric([1.5, 0.8], [([[0.0, 0.0], [1.0, 0.0]], 0.75), ([[0.0, 1.0], [1.0, 1.0]], 0.95)]),
        ),
    ]
    margins = []
    for fast, slow in probes:
        rep = strict_monotonicity_probe(fast, slow, J)
        assert rep.max_order_violation == 0.0
        gap = rep.value_smaller_metric - rep.value_larger_metric
        assert gap > 1e-9
        margins.append(gap)
    _passed(8, f"{len(probes)} slowdown probes, functional gaps in [{min(margins):.3f}, {max(margins):.3f}]")


def test_criterion_09_rate_surface_laws():
    """Extended surface obeys its exact laws; zero set and upper bound line up."""
    pts = []
    for zeta in (1.0, 1.2, 1.4):
        pts.append(estimate_rate_rung(TP, (1, 0), [zeta], 2)[0])
    for zeta in (1.05, 1.45):
        pts.append(estimate_rate_rung(TP, (-1, 0), [zeta], 1)[0])
    for zeta in (2.2, 2.6):
        pts.append(estimate_rate_rung(TP, (2, 0), [zeta], 1)[0])
    for zeta in (2.0, 2.4, 3.0):
        pts.append(estimate_rate_rung(TP, (1, 1), [zeta], 1)[0])
    surf = extend_surface(pts)
    assert surf.check_invariants()

    for zeta in (1.0, 1.05, 1.1, 1.2, 1.3, 1.4, 1.45):
        v, _ = surf.value_at((1, 0), zeta)
        vr, _ = surf.value_at((-1, 0), zeta)
        v2, _ = surf.value_at((2, 0), 2 * zeta)
        assert vr == v  # sign-flip symmetry, exact
        assert v2 == 2 * v  # homogeneity along the ray, exact
    by_ray = {}
    for cell in surf.cells:
        by_ray.setdefault(cell.direction, []).append((cell.zeta, cell.value))
    for ray, table in by_ray.items():
        table.sort()
        values = [v for _, v in table]
        assert all(b <= a for a, b in zip(values, values[1:]))  # non-increasing in zeta

    # zero set against the time-constant bracket
    zpts = [
        estimate_rate_rung(TP, (1, 0), [z], 8, samples=400, seed=40 + i)[0]
        for i, z in enumerate((1.1, 1.2, 1.3, 1.45, 1.5))
    ]
    tc = estimate_time_constant(TP, (1, 0), n_ladder=(4, 8), samples=400, seed=5)
    zrep = zero_set_check(extend_surface(zpts), tc)
    assert zrep.zero_ok

    # sum bound and its convex envelope along the first axis
    for zeta in (1.0, 1.1, 1.2, 1.4):
        for n in (1, 2):
            point = estimate_rate_rung(TP, (1, 0), [zeta], n)[0]
            iid = iid_sum_lower_tail_rate(TP, zeta, n)
            assert point.estimate <= iid + 1e-12
            assert iid >= cramer_rate(TP, zeta) - 1e-12
    for zeta, n in ((1.05, 8), (1.2, 8)):
        point = estimate_rate_rung(TP, (1, 0), [zeta], n, samples=400, seed=11)[0]
        assert point.ci[0] <= iid_sum_lower_tail_rate(TP, zeta, n) + 1e-12
    _passed(
        9,
        f"laws exact on {len(surf.cells)} cells; zero set matches mu_hat {tc.mu_hat:.3f}; "
        "sum bound respected on the e1 ray",
    )


def test_criterion_10_disjoint_paths_exhaustive():
    """d disjoint connectors with tight hop counts for every ordered pair, side 4."""
    t0 = time.perf_counter()
    n_pairs = 0
    for dim in (2, 3):
        box = LatticeBox(dim, 4)
        coords = [tuple(c) for c in box.all_vertex_coords()]
        for x, y in itertools.permutations(coords, 2):
            paths = disjoint_paths(box, x, y)
            l1 = sum(abs(a - b) for a, b in zip(x, y))
            assert len(paths) == dim
            interiors = []
            for p in paths:
                assert p.endpoints() == (x, y)
                assert p.hops in (l1, l1 + 2)
                assert p.is_vertex_self_avoiding()
                assert np.all(p.vertices >= 0) and np.all(p.vertices <= 4)
                interiors.append(set(map(tuple, p.vertices[1:-1])))
            for i, j in itertools.combinations(range(dim), 2):
                assert not (interiors[i] & interiors[j])
            for inner in interiors:
                assert x not in inner and y not in inner
            n_pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(10, f"{n_pairs} ordered pairs validated in d=2,3 with zero failures ({elapsed:.1f}s)")


def test_criterion_11_chernoff_upper_tail():
    """Sampled upper-tail frequencies sit below the analytic bound."""
    EX = EdgeDistribution.exponential(1.0)
    combos = [
        (TP, 0.8, 1.8, 4),
        (TP, 0.5, 1.9, 6),
        (FS, 0.4, 3.0, 4),
        (FS, 0.25, 3.5, 4),
        (EX, 0.5, 3.0, 4),
        (EX, 0.3, 4.0, 4),
    ]
    samples = 10_000
    from fpplab.passage_time import restricted_passage_time

    lines = []
    for k, (dist, lam, eps, n) in enumerate(combos):
        box = LatticeBox(2, n)
        hits = 0
        base = 100_000 * (k + 1)
        for i in range(samples):
            fld = sample_weights(dist, box, base + i)
            if restricted_passage_time(fld, (0, 0), (n, 0)) >= eps * n:
                hits += 1
        bound = chernoff_upper_tail(dist, lam, eps, n, hops=n)
        freq = hits / samples
        assert freq <= bound, f"{dist.kind} lam={lam} eps={eps} n={n}: {freq} > {bound}"
        lines.append(f"{freq:.3f}<={bound:.3f}")
    _passed(11, f"{len(combos)} (law, lam, eps, n) combos at 1e4 samples: " + " ".join(lines))


def test_criterion_12_hub_frequency_qualitative():
    """Qualitative check: hub frequency on small boxes is bounded away from 0.

    With kappa = E[tau] + 3 every straight path is comfortably fast for the
    two-point law, so the observed frequency should be high and the Wilson
    interval must exclude zero.  This certifies no limiting constant.
    """
    kappa = TP.mean() + 3.0
    assert kappa == 4.5
    fields_per_n = {4: 60, 6: 200, 8: 60}
    lows = {}
    for n, n_fields in fields_per_n.items():
        box = LatticeBox(2, n)
        center = (n // 2,) * 2
        hubs = 0
        for i in range(n_fields):
            fld = sample_weights(TP, box, 9000 + 100 * n + i)
            hubs += hub_check(fld, center, kappa).is_hub
        lo, _hi = wilson_interval(hubs, n_fields)
        assert lo > 0.0
        lows[n] = lo
    detail = ", ".join(f"n={n}: CI low {lo:.3f}" for n, lo in lows.items())
    _passed(12, f"qualitative hub-frequency check, kappa={kappa}; {detail}")
