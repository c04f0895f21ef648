"""Plain-Python reference implementations that the tests compare against.

These are the straightforward loops the package replaced with faster code,
kept here as ground truth: per-node neighbourhood extraction, per-node
triangle counting, sorted neighbor lists from pairs, node relabeling, a
brute-force isomorphism oracle, the Monte Carlo soft-RGG radius
calibration, and the density of the distance between two uniform points in
the unit square.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree

from netuniq.graph import Graph
from netuniq.models import rng_from


def neighborhood_edge_sets(g: Graph) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Yield ``(size, edges)`` of every node's neighborhood, relabeled 0..k-1.

    Walks N(u) for every u in N(v); edges come out lexicographically sorted
    because neighbor lists are sorted.
    """
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    pos = [-1] * n  # scratch: local index of each vertex in the current neighborhood
    for v in range(n):
        nbrs = adj[v]
        if len(nbrs) < 2:
            yield len(nbrs), []
            continue
        for i, u in enumerate(nbrs):
            pos[u] = i
        edges: list[tuple[int, int]] = []
        for u in nbrs:
            iu = pos[u]
            for w in adj[u]:
                iw = pos[w]
                if iw > iu:
                    edges.append((iu, iw))
        for u in nbrs:
            pos[u] = -1
        yield len(nbrs), edges


def triangles_per_node(g: Graph) -> list[int]:
    """Triangles through each node; each triangle {a < b < c} found at (a, b)."""
    counts = [0] * g.n
    adj = [g.neighbors(v) for v in range(g.n)]
    adj_sets = [set(nbrs) for nbrs in adj]
    for u, v in g.edges():
        a, b = (u, v) if len(adj[u]) <= len(adj[v]) else (v, u)
        other = adj_sets[b]
        for w in adj[a]:
            if w > v and w in other:
                counts[u] += 1
                counts[v] += 1
                counts[w] += 1
    return counts


def neighbor_lists(n: int, edges) -> list[list[int]]:
    """Sorted neighbor lists of the simple graph on 0..n-1 with these pairs.

    Self-loops and repeated pairs, in either direction, are dropped.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(s) for s in adj]


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a node permutation: new graph where old node v becomes perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def are_isomorphic_oracle(g1: Graph, g2: Graph, max_nodes: int = 10) -> bool:
    """Brute-force isomorphism test for graphs up to ``max_nodes`` nodes.

    Tries vertex bijections by backtracking after a degree-sequence
    pre-filter. Ground truth for the certificate test suite; raises on
    inputs above the size cap.
    """
    if g1.n > max_nodes or g2.n > max_nodes:
        raise ValueError(f"oracle capped at {max_nodes} nodes")
    if g1.n != g2.n or g1.m != g2.m:
        return False
    n = g1.n
    deg1 = g1.degrees()
    deg2 = g2.degrees()
    if sorted(deg1) != sorted(deg2):
        return False
    if n == 0:
        return True

    order = _bfs_order(g1)
    adj1 = [set(g1.neighbors(v)) for v in range(n)]
    adj2 = [set(g2.neighbors(v)) for v in range(n)]
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or deg2[w] != deg1[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if (u in adj1[v]) != (mapping[u] in adj2[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return extend(0)


def _bfs_order(g: Graph) -> list[int]:
    # visiting neighbors of already-placed vertices first tightens pruning
    n = g.n
    seen = [False] * n
    order: list[int] = []
    by_degree = sorted(range(n), key=lambda v: (-g.degree(v), v))
    for root in by_degree:
        if seen[root]:
            continue
        queue = [root]
        seen[root] = True
        while queue:
            u = queue.pop(0)
            order.append(u)
            for w in sorted(g.neighbors(u), key=lambda x: (-g.degree(x), x)):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return order


def square_distance_density(d: float) -> float:
    """Density of the distance between two uniform points in the unit square.

    Philip 2007, "The probability distribution of the distance between two
    random points in a box", in its original form.
    """
    if d < 0.0 or d > math.sqrt(2.0):
        return 0.0
    if d <= 1.0:
        return 2.0 * d * (math.pi - 4.0 * d + d * d)
    return 2.0 * d * (
        4.0 * math.asin(1.0 / d) - math.pi - 2.0 + 4.0 * math.sqrt(d * d - 1.0) - d * d
    )


# master key of the calibration clouds, apart from every user seed
_CALIBRATION_KEY = 0x6E65747571
_CALIBRATION_CLOUDS = 10
_CALIBRATION_MAX_BISECTIONS = 20


def calibration_clouds(n: int, avg_degree: float) -> list[np.ndarray]:
    """The ten seeded point clouds of n uniform points that the estimator uses."""
    k = round(float(avg_degree), 9)
    return [
        rng_from(_CALIBRATION_KEY, "rgg-cal", n, k, j).random((n, 2))
        for j in range(_CALIBRATION_CLOUDS)
    ]


def cloud_degrees(trees, clouds, r: float) -> list[float]:
    """Expected mean degree of each fixed point cloud at cutoff radius r."""
    out = []
    for tree, pts in zip(trees, clouds):
        pairs = tree.query_pairs(r, output_type="ndarray")
        total = 0.0
        if len(pairs):
            d = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
            total = float(np.exp(-3.0 * d / r).sum())
        out.append(2.0 * total / len(pts))
    return out


def monte_carlo_radius(n: int, avg_degree: float) -> float:
    """Radius at which the clouds' expected mean degree is within 0.5% of k.

    Starts from the hard-disk estimate sqrt(k / (pi (n-1))), brackets by
    halving and doubling, then bisects at most 20 times.
    """
    k = float(avg_degree)
    clouds = calibration_clouds(n, k)
    trees = [cKDTree(pts) for pts in clouds]

    def degree(r: float) -> float:
        return sum(cloud_degrees(trees, clouds, r)) / len(clouds)

    tol = max(0.005 * k, 1e-9)
    lo = math.sqrt(k / (math.pi * (n - 1)))
    while degree(lo) > k:
        lo *= 0.5
        if lo < 1e-12:
            raise ValueError("calibration failed to bracket the target degree")
    hi = lo
    for _ in range(80):
        hi *= 2.0
        if degree(hi) >= k:
            break
    else:
        raise ValueError("calibration failed to bracket the target degree")

    r = hi
    for _ in range(_CALIBRATION_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        f = degree(mid)
        if abs(f - k) <= tol:
            return mid
        if f < k:
            lo = mid
        else:
            hi = mid
        r = 0.5 * (lo + hi)
    return r
