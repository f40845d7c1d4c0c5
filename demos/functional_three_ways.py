"""Evaluate the lower-tail cost functional by all three formulas.

The geodesic-sum, sup, and intrinsic routes must agree on clean
configurations; a slowdown probe then shows strict monotonicity, and an
empirical trend table connects the functional to sampled lattice
frequencies at small n.
"""

from fpplab.functional import (
    AnalyticRate,
    empirical_ld_trend,
    functional_report,
    strict_monotonicity_probe,
)
from fpplab.geometry import LipschitzPath, NormPlusHighways
from fpplab.model import EdgeDistribution

J = AnalyticRate([1.0, 1.0])
metric = NormPlusHighways(
    [1.0, 1.0], [(LipschitzPath([[0.0, 0.0], [1.0, 1.0]]), 0.5)]
)

rep = functional_report(metric, J)
print("diagonal-highway fixture (discount 0.5):")
print(f"  geodesic-sum formula: {rep.geodesic_sum:.6f}")
print(f"  intrinsic formula:    {rep.intrinsic:.6f}")
print(f"  sup lower bound:      {rep.sup_bound:.6f}")
print(f"  cross-check delta:    {rep.delta_intrinsic:.2e}")

slower = NormPlusHighways(
    [1.0, 1.0], [(LipschitzPath([[0.0, 0.0], [1.0, 1.0]]), 0.7)]
)
probe = strict_monotonicity_probe(metric, slower, J)
print(f"\nslowing the highway 0.5 -> 0.7 drops the functional "
      f"{probe.value_smaller_metric:.3f} -> {probe.value_larger_metric:.3f} "
      f"(order violations: {probe.max_order_violation})")

dist = EdgeDistribution.two_point(1.0, 2.0, 0.5)
table = empirical_ld_trend(
    NormPlusHighways([0.9, 0.9], []),
    dist,
    eps=2.0,
    n_ladder=(1, 2),
    samples=400,
    seed=0,
)
print("\nempirical trend for a slightly contracted norm target:")
for row in table.rows:
    rate = "censored" if row.rate is None else f"{row.rate:.4f}"
    print(f"  n={row.n}: p {row.p:.4f}, -log(p)/n {rate} [{row.method}]")
print("the -log(p)/n column is a qualitative companion to the functional, "
      "not a convergence claim")
