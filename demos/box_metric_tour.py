"""Sample a random edge field and walk through the box-metric toolkit.

Run as: python3 demos/box_metric_tour.py [seed]
"""

import sys

import numpy as np

from fpplab.model import EdgeDistribution, LatticeBox, sample_weights
from fpplab.passage_time import (
    geodesic_length_stats,
    rescaled_metric,
    restricted_passage_time,
    uniform_gap,
)

seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
dist = EdgeDistribution.two_point(1.0, 2.0, 0.5)
box = LatticeBox(2, 8)
field = sample_weights(dist, box, seed)

print(f"law: {dist.kind}, box: side {box.side} in d={box.dimension}, seed {seed}")
print(f"edges: {box.n_edges}, mean sampled weight: {field.weights.mean():.4f}")

t, path = restricted_passage_time(field, (0, 0), (8, 8), return_path=True)
print(f"\ncorner-to-corner passage time: {t:.2f} over {path.hops} hops")
print(f"geodesic is self-avoiding: {path.is_vertex_self_avoiding()}")

# hold the journey inside the lower strip and watch the time go up
strip = ((0, 8), (0, 2))
t_strip = restricted_passage_time(field, (0, 0), (8, 0), region=strip)
t_free = restricted_passage_time(field, (0, 0), (8, 0))
print(f"\nfree time (0,0)->(8,0): {t_free:.2f}, strip-restricted: {t_strip:.2f}")
assert t_strip >= t_free

rm = rescaled_metric(field)
print(f"\nrescaled pseudometric on all {len(rm.points)} grid points")
print(f"diameter: {rm.matrix.max():.4f}, T-hat((0,0),(1,1)) = {rm.matrix[0, -1]:.4f}")

gap = uniform_gap(field, b=2.0)
print(f"\ntruncation at b=2: sup gap {gap.gap:.4f} <= 2bd/n = {gap.bound:.4f} "
      f"({gap.n_pairs} pairs)")

stats = geodesic_length_stats(field, b=2.0, L_values=[1.0, 1.5, 2.0])
print(f"\nmax geodesic hop count over {len(stats.pairs)} sampled pairs: {stats.max_hops}")
for row in stats.ladder:
    print(f"some geodesic reaches {row.threshold_hops:.0f} hops "
          f"(L={row.L}): {row.long_geodesic}")
