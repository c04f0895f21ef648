"""Plain-Python reference implementations that the tests compare against.

These are the straightforward loops the package replaced with faster code,
kept here as ground truth: per-node neighbourhood extraction, per-node
triangle counting, node relabeling and a brute-force isomorphism oracle.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from netuniq.graph import Graph


def neighborhood_edge_sets(g: Graph) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Yield ``(size, edges)`` of every node's neighborhood, relabeled 0..k-1.

    Walks N(u) for every u in N(v); edges come out lexicographically sorted
    because neighbor lists are sorted.
    """
    n = g.n
    pos = [-1] * n  # scratch: local index of each vertex in the current neighborhood
    for v in range(n):
        nbrs = g.neighbors(v)
        if len(nbrs) < 2:
            yield len(nbrs), []
            continue
        for i, u in enumerate(nbrs):
            pos[u] = i
        edges: list[tuple[int, int]] = []
        for u in nbrs:
            iu = pos[u]
            for w in g.neighbors(u):
                iw = pos[w]
                if iw > iu:
                    edges.append((iu, iw))
        for u in nbrs:
            pos[u] = -1
        yield len(nbrs), edges


def triangles_per_node(g: Graph) -> list[int]:
    """Triangles through each node; each triangle {a < b < c} found at (a, b)."""
    counts = [0] * g.n
    adj_sets = [set(g.neighbors(v)) for v in range(g.n)]
    for u, v in g.edges():
        a, b = (u, v) if g.degree(u) <= g.degree(v) else (v, u)
        other = adj_sets[b]
        for w in g.neighbors(a):
            if w > v and w in other:
                counts[u] += 1
                counts[v] += 1
                counts[w] += 1
    return counts


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Apply a node permutation: new graph where old node v becomes perm[v]."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        adj[perm[u]].append(perm[v])
        adj[perm[v]].append(perm[u])
    for row in adj:
        row.sort()
    return Graph.from_sorted_adjacency(adj, g.m)


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
                if g1.has_edge(v, u) != g2.has_edge(w, mapping[u]):
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
