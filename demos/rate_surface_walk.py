"""Estimate the elementary rate function along a few rays and extend it.

The small-box points are exact enumerations; the larger boxes switch to
Monte-Carlo with censoring-aware intervals.  The extension step then
fills in reflections, rescalings, and the convex envelope.
"""

from fpplab.elementary_rate import (
    estimate_rate_rung,
    estimate_time_constant,
    extend_surface,
    zero_set_check,
)
from fpplab.model import EdgeDistribution

dist = EdgeDistribution.two_point(1.0, 2.0, 0.5)

print("rate points along e1 (exact enumeration at n=1,2):")
points = []
for zeta in (1.0, 1.2, 1.4):
    for n in (1, 2):
        pt = estimate_rate_rung(dist, (1, 0), [zeta], n)[0]
        points.append(pt)
        print(f"  zeta={zeta:.2f} n={n}: rate {pt.estimate:.4f} [{pt.method}]")

print("\nlarger boxes, Monte-Carlo:")
for i, zeta in enumerate((1.1, 1.3, 1.5)):
    pt = estimate_rate_rung(dist, (1, 0), [zeta], 8, samples=400, seed=20 + i)[0]
    points.append(pt)
    lo, hi = pt.ci
    hi_s = "inf" if hi == float("inf") else f"{hi:.4f}"
    est = "censored" if pt.estimate is None else f"{pt.estimate:.4f}"
    print(f"  zeta={zeta:.2f} n=8: rate {est}, CI ({lo:.4f}, {hi_s})")

diag = estimate_rate_rung(dist, (1, 1), [2.4], 1)[0]
points.append(diag)
print(f"\ndiagonal ray, zeta=2.4: rate {diag.estimate:.4f}")

surface = extend_surface(points)
print(f"\nextended surface: {len(surface.cells)} cells, "
      f"invariants hold: {surface.check_invariants()}")
v, flag = surface.value_at((-2, 0), 2.5)
print(f"queried at the reflected, doubled ray (-2,0), zeta=2.5: {v:.4f} "
      f"(flag: {flag})")

tc = estimate_time_constant(dist, (1, 0), n_ladder=(4, 8), samples=400, seed=5)
print(f"\ntime-constant estimate mu_hat = {tc.mu_hat:.4f}, "
      f"bracket {tc.bracket}")
zrep = zero_set_check(surface, tc)
print(f"zero set of the surface matches mu_hat within CI: {zrep.zero_ok}")
