"""Plain references shared by the test modules: a heap Dijkstra on the
lattice and a uniform access grid for highway metrics."""

import heapq
import math

import numpy as np

from fpplab.model import _edge_arrays


def reference_dijkstra(box, w, source, mask=None):
    """Plain heap Dijkstra over the box's edge list, mask excluding vertices."""
    _, _, (u_flat, v_flat) = _edge_arrays(box.dimension, box.side)
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


class DenseGridMetric:
    """An upper bound on a NormPlusHighways metric through a uniform access
    grid, built without fpplab's node pool.

    Each highway's access nodes are its table breakpoints plus
    ``access_points`` evenly spaced parameters.  The nodes' pairwise costs
    (straight norm hops, and rides between two nodes of one highway) are
    closed by Floyd-Warshall.  A query may also enter or leave a highway at
    its points' axis projections onto the highway's pieces.  Every value is
    the cost of a real route, so it bounds the metric from above.
    """

    def __init__(self, metric, access_points=65):
        self.weights = metric.weights
        # each highway's ride: its path and its table (ts, pts, cum)
        self.highways = metric.chain.blocks
        self.rows, nodes, self.cums = [], [], []
        n = 0
        for hw in self.highways:
            params = np.unique(np.concatenate([
                hw.ts, np.linspace(0.0, hw.path.length_l1, access_points)]))
            nodes.append(hw.path.point_at(params))
            self.cums.append(np.interp(params, hw.ts, hw.cum))
            self.rows.append(slice(n, n + len(params)))
            n += len(params)
        self.nodes = np.concatenate(nodes) if nodes else np.zeros((0, len(self.weights)))
        M = self._g(self.nodes[:, None, :] - self.nodes[None, :, :])
        for rows, cum in zip(self.rows, self.cums):
            M[rows, rows] = np.minimum(M[rows, rows], np.abs(cum[:, None] - cum[None, :]))
        for k in range(n):
            M = np.minimum(M, M[:, k, None] + M[None, k, :])
        self.M = M

    def _g(self, v):
        return np.abs(v) @ self.weights

    def _foot_params(self, hw, x):
        """Parameters where a piece of the highway meets x in one coordinate."""
        out = []
        for i in range(len(hw.ts) - 1):
            p0, p1 = hw.pts[i], hw.pts[i + 1]
            for a in range(len(x)):
                if p1[a] != p0[a]:
                    s = (x[a] - p0[a]) / (p1[a] - p0[a])
                    if 0.0 < s < 1.0:
                        out.append(hw.ts[i] + s * (hw.ts[i + 1] - hw.ts[i]))
        return np.array(out)

    def _access(self, x):
        """x's cost to every node, and per highway its entry candidates as
        (cost to reach, ride value) arrays."""
        g = self._g(x - self.nodes)
        v = g.copy()
        entries = []
        for hw, rows, cum in zip(self.highways, self.rows, self.cums):
            foot = self._foot_params(hw, x)
            cost = np.concatenate([g[rows], self._g(x - hw.path.point_at(foot))])
            ride = np.concatenate([cum, np.interp(foot, hw.ts, hw.cum)])
            through = cost[:, None] + np.abs(ride[:, None] - cum)
            v[rows] = np.minimum(v[rows], through.min(axis=0))
            entries.append((cost, ride))
        return v, entries

    def evaluate(self, x, y):
        vx, ex = self._access(x)
        vy, ey = self._access(y)
        best = self._g(x - y)
        for (cx, rx), (cy, ry) in zip(ex, ey):
            best = min(best, (cx[:, None] + np.abs(rx[:, None] - ry) + cy).min())
        if len(self.nodes):
            best = min(best, (vx[:, None] + self.M + vy).min())
        return float(best)

    def evaluate_many(self, X, Y):
        return np.array([self.evaluate(x, y) for x, y in zip(X, Y)])
