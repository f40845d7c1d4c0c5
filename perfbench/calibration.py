"""A fixed reference computation that measures the host's current speed.

On a shared virtual machine the same pass of jobs can take 1.8 times longer
at one moment than at another, because the host's clock speed and its
other tenants change.  ``wall_rel`` and ``cpu_rel`` divide the time of the
jobs by the time of this kernel, run between the jobs in the same process,
so that drift cancels.  The kernel mixes the two kinds of work the
workloads do: a pure-Python heap Dijkstra (like the oracle's engine) and
many small numpy operations (like ``NormPlusHighways.evaluate``).  It uses
no fpplab code, so no change to the program can change it.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

_SIDE = 48
_N_POINTS = 1500


def _grid_graph(side: int) -> list[list[tuple[int, float]]]:
    weights = np.random.default_rng(12345).uniform(1.0, 2.0, size=2 * side * side).tolist()
    adj: list[list[tuple[int, float]]] = [[] for _ in range(side * side)]
    k = 0
    for i in range(side):
        for j in range(side):
            v = i * side + j
            for u in ((v + side) if i + 1 < side else None, (v + 1) if j + 1 < side else None):
                if u is not None:
                    adj[v].append((u, weights[k]))
                    adj[u].append((v, weights[k]))
                    k += 1
    return adj


_GRAPH = _grid_graph(_SIDE)
_POINTS = np.random.default_rng(7).uniform(0.0, 1.0, size=(_N_POINTS, 2))
_NORM = np.array([1.0, 1.5])


def kernel() -> tuple[float, float]:
    """Run the reference computation once; returns its (wall s, CPU s)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    dist = [float("inf")] * len(_GRAPH)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _GRAPH[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    nearest = 0.0
    for p in _POINTS:
        nearest += float(np.min(np.abs(_POINTS - p) @ _NORM))
    return time.perf_counter() - wall0, time.process_time() - cpu0
