"""A plain shortest-path reference shared by the test modules."""

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
