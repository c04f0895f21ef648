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
Two rules prune the search: explored twins and the orbits of discovered
automorphisms cover redundant branches. Worst-case cost is exponential in
the node count; sparse or dense neighborhoods hitting the reductions are
linear to low-polynomial, which covers the workloads this package
generates (node neighborhoods up to about a thousand nodes).

Isolated nodes are counted, not explored: each is a one-node part of the
union, and a connected graph is never relabeled. Refinement starts from
the degree cells, stops once the partition is discrete or a pass splits
nothing, and orders sub-cells by their neighbors' sorted cells, so it is
isomorphism-invariant. The one cache is a bounded ``functools.lru_cache``
over the certificates of components of at most ``_COMPONENT_CACHE_NODES``
nodes, keyed by exact relabeled edge tuples, so a hit is trivially sound.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import groupby
from typing import Sequence

from .graph import Graph

_TAG_EDGELESS = 0
_TAG_MATCHING = 1
_TAG_PATH = 2
_TAG_CYCLE = 3
_TAG_UNION = 4
_TAG_COMPLEMENT = 5
_TAG_GENERAL = 6

_COMPONENT_CACHE_NODES = 10
_COMPONENT_CACHE_SIZE = 1 << 12
_MAX_AUT_GENS = 64


def certificate(g: Graph) -> bytes:
    """Canonical certificate of ``g``; equal bytes iff isomorphic graphs."""
    return certificate_from_edges(g.n, list(g.edges()))


def certificate_from_edges(n: int, edges: Sequence[tuple[int, int]]) -> bytes:
    """Certificate of the graph on nodes ``0..n-1`` with the given edges: distinct
    unordered pairs without self-loops, in any orientation and order. Unchecked,
    unlike :func:`certificate`: a repeated pair, as in ``[(0, 1), (0, 1)]``,
    certifies a different graph than ``[(0, 1)]``."""
    return _certify(n, sorted(edges))


def _wrap(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


# every isolated node is this one-node part of a union; it sorts before any
# other part, whose payload is longer or carries a larger tag
_ISOLATED_NODE = _wrap(struct.pack(">BI", _TAG_EDGELESS, 1))


def _certify(n: int, edges: Sequence[tuple[int, int]]) -> bytes:
    """Certificate of a graph whose edges (u, v), u < v, are sorted."""
    m = len(edges)
    if m == 0:
        return _wrap(struct.pack(">BI", _TAG_EDGELESS, n))

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    maxdeg = max(map(len, adj))
    if maxdeg <= 1:
        return _wrap(struct.pack(">BII", _TAG_MATCHING, n, m))

    if 2 * m > n * (n - 1) // 2:
        comp_edges = _complement_edges(n, adj)
        return _wrap(struct.pack(">B", _TAG_COMPLEMENT) + _certify(n, comp_edges))

    comps = _components(adj, edges)
    if comps is not None:
        isolated = n - sum(size for size, _ in comps)
        parts = sorted([
            (_certify_component if size <= _COMPONENT_CACHE_NODES else _certify)(size, sub)
            for size, sub in comps
        ])
        return _wrap(
            struct.pack(">BI", _TAG_UNION, isolated + len(parts))
            + _ISOLATED_NODE * isolated
            + b"".join(parts)
        )

    # connected from here on
    if maxdeg <= 2:
        tag = _TAG_PATH if any(len(a) == 1 for a in adj) else _TAG_CYCLE
        return _wrap(struct.pack(">BI", tag, n))

    bits, nbits = _canonical_bits(n, adj, edges)
    return _wrap(struct.pack(">BI", _TAG_GENERAL, n) + bits.to_bytes((nbits + 7) // 8, "big"))


# small components are the bulk of sparse neighborhoods; keys are edge tuples
_certify_component = lru_cache(maxsize=_COMPONENT_CACHE_SIZE)(_certify)


def _complement_edges(n: int, adj: list[list[int]]) -> tuple[tuple[int, int], ...]:
    adj_sets = [set(a) for a in adj]
    return tuple((u, v) for u in range(n) for v in range(u + 1, n) if v not in adj_sets[u])


def _components(
    adj: list[list[int]], edges: Sequence[tuple[int, int]]
) -> list[tuple[int, tuple[tuple[int, int], ...]]] | None:
    """None for a connected graph; else (size, relabeled sorted edges) of each
    component with an edge. Only edge endpoints are explored, and they are
    relabeled in increasing order, so each component's edges stay sorted."""
    n = len(adj)
    comp = [-1] * n
    seen: list[int] = []
    ncomp = 0
    for start, _ in edges:
        if comp[start] >= 0:
            continue
        comp[start] = ncomp
        verts = [start]
        for u in verts:
            for w in adj[u]:
                if comp[w] < 0:
                    comp[w] = ncomp
                    verts.append(w)
        seen += verts
        ncomp += 1
    if ncomp == 1 and len(seen) == n:
        return None
    seen.sort()
    size = [0] * ncomp
    pos = [0] * n
    for v in seen:
        c = comp[v]
        pos[v] = size[c]
        size[c] += 1
    subs: list[list[tuple[int, int]]] = [[] for _ in range(ncomp)]
    for u, v in edges:
        subs[comp[u]].append((pos[u], pos[v]))
    return [(k, tuple(sub)) for k, sub in zip(size, subs)]


def _refine(adj: list[list[int]], cells: list[list[int]]) -> list[list[int]]:
    """Coarsest equitable refinement; cell order is isomorphism-invariant.

    Nodes of a cell are grouped by the sorted tuple of their neighbors'
    cells, and the cell splits in place into its groups in key order, so
    positions of already-discrete cells never change. Every node of a cell
    has the same degree (cells start as degree cells and only split), so
    the keys of one cell are tuples of one length, totally ordered.
    """
    n = len(adj)
    vcell = [0] * n
    cell_of = vcell.__getitem__
    while len(cells) < n:
        for ci, cell in enumerate(cells):
            for v in cell:
                vcell[v] = ci
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple(sorted(map(cell_of, adj[v])))
                groups.setdefault(key, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                for key in sorted(groups):
                    new_cells.append(groups[key])
        if len(new_cells) == len(cells):
            break
        cells = new_cells
    return cells


def _canonical_bits(
    n: int, adj: list[list[int]], edges: Sequence[tuple[int, int]]
) -> tuple[int, int]:
    """Minimal adjacency bitstring over the individualization-refinement tree.

    Bit order is column-major over the strict upper triangle; the pinned
    certificate bytes depend on it. Two rules skip a sibling branch: an
    explored twin (swapping twins is an automorphism), or an explored
    vertex in its orbit under the automorphisms that leaves tying with the
    best yield (only generators fixing the current individualized prefix
    pointwise are applied). Either way an explored branch reaches the same
    leaf values.
    """
    nbits = n * (n - 1) // 2
    tri = [j * (j - 1) // 2 for j in range(n)]
    best: int | None = None
    best_order: list[int] = []
    gens: list[tuple[int, ...]] = []

    def leaf_value(order: list[int]) -> int:
        # pair (i, j), i < j, is the character tri[j] + i from the left
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        bits = bytearray(b"0") * nbits
        for u, v in edges:
            i, j = pos[u], pos[v]
            bits[tri[j] + i if i < j else tri[i] + j] = 49  # ord("1")
        return int(bits, 2)

    def redundant(v: int, explored: list[int], fixed: list[int]) -> bool:
        # an explored twin (swapping twins is an automorphism) or orbit mate covers v
        return bool(explored) and (
            any(adj_sets[v] - {e} == adj_sets[e] - {v} for e in explored)
            or in_orbit(v, explored, fixed)
        )

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
        elif val == best and len(gens) < _MAX_AUT_GENS:
            sigma = dict(zip(best_order, order))
            gens.append(tuple(map(sigma.__getitem__, range(n))))

    def open_node(cells: list[list[int]], fixed: list[int]):
        """Leaf -> None; otherwise a search frame to explore."""
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), -1)
        if target < 0:
            handle_leaf(cells)
            return None
        return [cells, fixed, target, iter(cells[target]), []]  # frame

    # explicit stack: individualization chains can be as deep as the graph
    degree = list(map(len, adj)).__getitem__
    by_degree = groupby(sorted(range(n), key=degree), degree)
    root = open_node(_refine(adj, [list(run) for _, run in by_degree]), [])
    stack = [root] if root is not None else []
    # only a search with siblings compares neighborhoods
    adj_sets = [set(a) for a in adj] if stack else []
    while stack:
        cells, fixed, target, candidates, explored = stack[-1]
        v = next((c for c in candidates if not redundant(c, explored, fixed)), None)
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
