"""Exact isomorphism certificates for small graphs.

``certificate`` maps a graph to a canonical byte string such that two
graphs receive equal bytes if and only if they are isomorphic. Equality is
exact, not hash-based: grouping neighborhoods by certificate is the same
partition as grouping by pairwise isomorphism.

The general engine is iterative color refinement plus
individualization-and-refinement backtracking, with the candidate labeling
chosen as the lexicographically minimal adjacency bitstring over the search
leaves. Several exact reductions keep common inputs out of the backtracking
search entirely: edgeless graphs, disjoint unions of edges, paths, cycles,
connected-component decomposition, and complementation of dense graphs.
Discovered automorphisms prune redundant branches. Worst-case cost is
exponential in the node count; sparse or dense neighborhoods hitting the
reductions are linear to low-polynomial, which covers the workloads this
package generates (node neighborhoods up to about a thousand nodes).
"""

from __future__ import annotations

import struct
from typing import Sequence

from .graph import Graph

_TAG_EDGELESS = 0
_TAG_MATCHING = 1
_TAG_PATH = 2
_TAG_CYCLE = 3
_TAG_UNION = 4
_TAG_COMPLEMENT = 5
_TAG_GENERAL = 6

_MEMO: dict[tuple, bytes] = {}
_MEMO_CAP = 1 << 18
# labeled-graph cache for small connected components (the bulk of sparse
# neighborhoods); keys are exact edge tuples, so hits are trivially sound
_COMPONENT_CACHE: dict[tuple, bytes] = {}
_COMPONENT_CACHE_NODES = 10
_MAX_AUT_GENS = 64


def certificate(g: Graph) -> bytes:
    """Canonical certificate of ``g``; equal bytes iff isomorphic graphs."""
    return certificate_from_edges(g.n, list(g.edges()))


def certificate_from_edges(n: int, edges: Sequence[tuple[int, int]]) -> bytes:
    """Certificate of the graph on nodes ``0..n-1`` with the given edges."""
    ordered = tuple(sorted(edges))
    if len(ordered) > 2048:  # keep memo keys small
        return _certify(n, ordered)
    key = (n, ordered)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    cert = _certify(n, ordered)
    if len(_MEMO) < _MEMO_CAP:
        _MEMO[key] = cert
    return cert


def _wrap(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


def _certify(n: int, edges: tuple[tuple[int, int], ...]) -> bytes:
    m = len(edges)
    if m == 0:
        return _wrap(struct.pack(">BI", _TAG_EDGELESS, n))

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    maxdeg = max(len(a) for a in adj)
    if maxdeg <= 1:
        return _wrap(struct.pack(">BII", _TAG_MATCHING, n, m))

    npairs = n * (n - 1) // 2
    if 2 * m > npairs:
        comp_edges = _complement_edges(n, adj)
        return _wrap(struct.pack(">B", _TAG_COMPLEMENT) + _certify(n, comp_edges))

    comps = _components(n, adj)
    if len(comps) > 1:
        parts = sorted(_certify_component(size, sub) for size, sub in comps)
        return _wrap(
            struct.pack(">BI", _TAG_UNION, len(parts)) + b"".join(parts)
        )

    # connected from here on
    if maxdeg <= 2:
        tag = _TAG_PATH if any(len(a) == 1 for a in adj) else _TAG_CYCLE
        return _wrap(struct.pack(">BI", tag, n))

    bits, nbits = _canonical_bits(n, adj)
    payload = struct.pack(">BI", _TAG_GENERAL, n) + bits.to_bytes(
        (nbits + 7) // 8, "big"
    )
    return _wrap(payload)


def _certify_component(size: int, sub_edges: tuple[tuple[int, int], ...]) -> bytes:
    if size > _COMPONENT_CACHE_NODES:
        return _certify(size, sub_edges)
    key = (size, sub_edges)
    cached = _COMPONENT_CACHE.get(key)
    if cached is None:
        cached = _certify(size, sub_edges)
        if len(_COMPONENT_CACHE) < _MEMO_CAP:
            _COMPONENT_CACHE[key] = cached
    return cached


def _complement_edges(n: int, adj: list[list[int]]) -> tuple[tuple[int, int], ...]:
    out = []
    adj_sets = [set(a) for a in adj]
    for u in range(n):
        su = adj_sets[u]
        for v in range(u + 1, n):
            if v not in su:
                out.append((u, v))
    return tuple(out)


def _components(
    n: int, adj: list[list[int]]
) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Connected components as (size, relabeled sorted edges)."""
    pos = [-1] * n
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        verts = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    verts.append(w)
                    stack.append(w)
        verts.sort()
        for i, v in enumerate(verts):
            pos[v] = i
        sub_edges = []
        for v in verts:
            pv = pos[v]
            for w in adj[v]:
                pw = pos[w]
                if pw > pv:
                    sub_edges.append((pv, pw))
        sub_edges.sort()
        comps.append((len(verts), tuple(sub_edges)))
    return comps


def _refine(adj: list[list[int]], cells: list[list[int]]) -> list[list[int]]:
    """Coarsest equitable refinement; cell order is isomorphism-invariant.

    Cells split in place, sub-cells ordered by their neighbor-count
    signature, so positions of already-discrete cells never change.
    """
    n = len(adj)
    vcell = [0] * n
    while True:
        for ci, cell in enumerate(cells):
            for v in cell:
                vcell[v] = ci
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple, list[int]] = {}
            for v in cell:
                counts: dict[int, int] = {}
                for u in adj[v]:
                    c = vcell[u]
                    counts[c] = counts.get(c, 0) + 1
                sig = tuple(sorted(counts.items()))
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new_cells.append(groups[sig])
        cells = new_cells
        if not changed:
            return cells


def _canonical_bits(n: int, adj: list[list[int]]) -> tuple[int, int]:
    """Minimal adjacency bitstring over the individualization-refinement tree.

    Bit order is column-major over the strict upper triangle, so a discrete
    prefix of t cells pins the first t*(t-1)/2 bits and allows pruning
    against the current best. Leaves tying with the best yield automorphisms
    whose orbits prune sibling branches (only generators fixing the current
    individualized prefix pointwise are applied).
    """
    nbits = n * (n - 1) // 2
    adj_sets = [set(a) for a in adj]
    best: int | None = None
    best_order: list[int] | None = None
    gens: list[tuple[int, ...]] = []
    gen_seen: set[tuple[int, ...]] = set()

    def twins(u: int, v: int) -> bool:
        # swapping twins is an automorphism, so twin siblings are redundant
        return adj_sets[u] - {v} == adj_sets[v] - {u}

    def leaf_value(order: list[int]) -> int:
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        val = 0
        for v in range(n):
            i = pos[v]
            for w in adj[v]:
                j = pos[w]
                if j > i:
                    val |= 1 << (nbits - 1 - (j * (j - 1) // 2 + i))
        return val

    def prefix_value(prefix: list[int]) -> tuple[int, int]:
        pbits = len(prefix) * (len(prefix) - 1) // 2
        pos = {v: i for i, v in enumerate(prefix)}
        val = 0
        for v, i in pos.items():
            for w in adj[v]:
                j = pos.get(w)
                if j is not None and j > i:
                    val |= 1 << (pbits - 1 - (j * (j - 1) // 2 + i))
        return val, pbits

    def in_orbit(v: int, explored: list[int], fixed: list[int]) -> bool:
        valid = [s for s in gens if all(s[p] == p for p in fixed)]
        if not valid:
            return False
        seen = set(explored)
        frontier = list(explored)
        while frontier:
            x = frontier.pop()
            for s in valid:
                y = s[x]
                if y not in seen:
                    if y == v:
                        return True
                    seen.add(y)
                    frontier.append(y)
        return False

    def handle_leaf(cells: list[list[int]]) -> None:
        nonlocal best, best_order
        order = [cell[0] for cell in cells]
        val = leaf_value(order)
        if best is None or val < best:
            best = val
            best_order = order
        elif val == best and best_order is not None:
            sigma = [0] * n
            for i in range(n):
                sigma[best_order[i]] = order[i]
            tup = tuple(sigma)
            if tup not in gen_seen and len(gens) < _MAX_AUT_GENS:
                gen_seen.add(tup)
                gens.append(tup)

    def open_node(cells: list[list[int]], fixed: list[int]):
        """Leaf or pruned -> None; otherwise a search frame to explore."""
        target = -1
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target < 0:
            handle_leaf(cells)
            return None
        if best is not None and target > 0:
            pval, pbits = prefix_value([cells[i][0] for i in range(target)])
            if pval > best >> (nbits - pbits):
                return None
        return [cells, fixed, target, list(cells[target]), []]  # frame

    # explicit stack: individualization chains can be as deep as the graph
    root = open_node(_refine(adj, [list(range(n))]), [])
    stack = [root] if root is not None else []
    while stack:
        cells, fixed, target, candidates, explored = stack[-1]
        v = None
        while candidates:
            cand = candidates.pop(0)
            if explored and (
                any(twins(cand, e) for e in explored)
                or in_orbit(cand, explored, fixed)
            ):
                continue
            v = cand
            break
        if v is None:
            stack.pop()
            continue
        explored.append(v)
        rest = [u for u in cells[target] if u != v]
        split = cells[:target] + [[v], rest] + cells[target + 1 :]
        child = open_node(_refine(adj, split), fixed + [v])
        if child is not None:
            stack.append(child)
    assert best is not None
    return best, nbits
