"""Build a highway network for a norm-plus-highways metric and probe it.

A discounted segment makes some pairs cheaper than the ambient norm;
the insertion recursion recovers a finite network whose queries match
the metric, and the derivative/gradient tools inspect it locally.
"""

import numpy as np

from fpplab.geometry import (
    LipschitzPath,
    NormPlusHighways,
    build_highway_network,
    gradient_by_paths,
    metric_derivative,
)

metric = NormPlusHighways(
    [1.0, 1.0],
    [
        (LipschitzPath([[0.0, 0.0], [1.0, 1.0]]), 0.5),
        (LipschitzPath([[0.1, 0.9], [0.9, 0.95]]), 0.8),
    ],
)
print("metric: l1 norm with two discounted highways")
for a, b in (((0, 0), (1, 1)), ((0.1, 0.9), (0.9, 0.95)), ((0, 1), (1, 0))):
    x, y = np.asarray(a, float), np.asarray(b, float)
    print(f"  D({a}, {b}) = {metric.evaluate(x, y):.4f}  "
          f"(norm alone: {np.abs(x - y).sum():.4f})")

seeds = [(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
         (np.array([0.1, 0.9]), np.array([0.9, 0.95]))]
net = build_highway_network(metric, n_geodesics=8, tol=1e-6, seed_pairs=seeds, seed=0)
print(f"\nnetwork build converged: {net.converged} "
      f"after {len(net.diagnostics)} insertions")
for row in net.diagnostics:
    print(f"  insert {row['k']}: sup distance to target {row['sup_distance']:.2e}")

# speed along the diagonal highway is its discount
der = metric_derivative(metric, LipschitzPath([[0.0, 0.0], [1.0, 1.0]]), 0.5)
print(f"\nmetric derivative mid-diagonal: {der.value:.4f} "
      f"(ladder spread {der.spread:.1e}, flagged: {der.flagged})")

grad = gradient_by_paths(metric, np.array([0.5, 0.5]), np.array([1.0, 1.0]))
print(f"gradient by paths along the diagonal direction: {grad.value:.4f} [{grad.kind}]")
grad_off = gradient_by_paths(metric, np.array([0.5, 0.5]), np.array([1.0, -1.0]))
print(f"gradient by paths transverse to it: {grad_off.value:.4f} [{grad_off.kind}]")
