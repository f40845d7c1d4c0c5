"""Plain references shared by the test modules: a heap Dijkstra on the
lattice and a uniform access grid for highway metrics."""

import copy
import heapq
import math

import numpy as np


def reference_dijkstra(box, w, source, mask=None):
    """Plain heap Dijkstra over the box's edge list, mask excluding vertices."""
    _, _, (u_flat, v_flat) = box.edge_endpoints()
    adj = [[] for _ in range(box.n_vertices)]
    for e, (u, v) in enumerate(zip(u_flat.tolist(), v_flat.tolist())):
        adj[u].append((v, e))
        adj[v].append((u, e))
    dist = [math.inf] * box.n_vertices
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, e in adj[u]:
            if mask is not None and not mask[v]:
                continue
            nd = du + float(w[e])
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(dist)


def dense_grid_metric(metric, access_points=65):
    """A copy of a NormPlusHighways metric whose node pool on each highway is
    its breakpoints plus a uniform grid of ``access_points`` parameters.  Its
    values are costs of real routes, so they bound the metric from above."""
    from fpplab.geometry import HWChain

    chain = HWChain.base(metric.weights)
    for hw in metric.highways:
        params = np.unique(np.concatenate([
            hw.ts, np.linspace(0.0, hw.path.length_l1, access_points)]))
        chain = chain.insert(hw.path, params, hw.cumd_at(params))
    dense = copy.copy(metric)
    dense.chain = chain
    return dense
