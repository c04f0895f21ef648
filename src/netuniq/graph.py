"""Core graph container: ingestion, neighborhoods, and summary statistics.

Graphs are simple (no self-loops, no parallel edges), undirected and
unlabeled. Nodes are dense integer indices ``0..n-1``; arbitrary string
tokens from edge-list files are remapped at ingestion and the original
tokens kept on the side for reporting.

Neighborhood extraction and triangle counts share one numpy kernel. The
edges inside a node's neighborhood are exactly the triangles through it,
so both list every triangle once from CSR arrays by forward orientation
(Schank & Wagner 2005, "Finding, counting and listing all triangles in
large graphs") instead of walking N(u) for every u in N(v), which costs
O(n·k²) Python steps.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

logger = logging.getLogger(__name__)

# Wedges one pass of the triangle kernel holds at most: bounds its memory.
_WEDGE_BLOCK = 1 << 16


class Graph:
    """Immutable simple undirected graph with per-node sorted neighbor lists.

    Construct via :meth:`from_edges` (validating) or the trusted
    :meth:`from_sorted_adjacency` used by generators and neighborhood
    extraction. Instances are safe to share across threads once built.
    """

    __slots__ = ("_adj", "_m", "labels")

    def __init__(self, adj: list[list[int]], m: int, labels: list[str] | None = None):
        self._adj = adj
        self._m = m
        self.labels = labels

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: list[str] | None = None,
    ) -> "Graph":
        """Build a graph on ``n`` nodes, dropping self-loops and duplicates."""
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        return cls([sorted(s) for s in adj], m, labels)

    @classmethod
    def from_sorted_adjacency(cls, adj: list[list[int]], m: int) -> "Graph":
        """Trusted constructor: caller guarantees sorted, symmetric, simple."""
        return cls(adj, m)

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self._adj]

    def neighbors(self, v: int) -> list[int]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if v > u:
                    yield (u, v)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class SummaryStats:
    """Basic whole-graph measures: size, density and local clustering."""

    n: int
    m: int
    avg_degree: float
    clustering: float


def load_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list into a :class:`Graph`.

    Each non-comment, non-blank line holds exactly two whitespace-separated
    node tokens (arbitrary strings). Tokens are remapped to dense indices in
    first-appearance order; the reverse map is kept in ``graph.labels``.
    Duplicate edges and self-loops are dropped with a logged count, and
    directed inputs are symmetrized (an edge is kept if present in either
    direction).

    Raises:
        ValueError: on a line with a token count other than two (reported
            with its 1-based line number), or if the input holds no edges.
    """
    index: dict[str, int] = {}
    labels: list[str] = []
    edge_set: set[tuple[int, int]] = set()
    self_loops = 0
    duplicates = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(
                f"line {lineno}: expected 2 node tokens, got {len(tokens)}: {raw!r}"
            )
        a, b = tokens
        for tok in (a, b):
            if tok not in index:
                index[tok] = len(labels)
                labels.append(tok)
        u, v = index[a], index[b]
        if u == v:
            self_loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in edge_set:
            duplicates += 1
        else:
            edge_set.add(key)

    if not edge_set:
        raise ValueError("empty input: no edges found")
    if duplicates or self_loops:
        logger.warning(
            "dropped %d duplicate edge(s) and %d self-loop(s) at ingestion",
            duplicates,
            self_loops,
        )
    return Graph.from_edges(len(labels), sorted(edge_set), labels)


def load_edge_list_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh.read())


def neighborhood(g: Graph, v: int) -> Graph:
    """Induced subgraph on the neighbors of ``v`` (``v`` itself excluded).

    The k neighbors are relabeled ``0..k-1`` in increasing original index.
    """
    if not (0 <= v < g.n):
        raise IndexError(f"node {v} out of range for n={g.n}")
    nbrs = g.neighbors(v)
    pos = {u: i for i, u in enumerate(nbrs)}
    adj: list[list[int]] = [[] for _ in nbrs]
    m = 0
    for u in nbrs:
        row = adj[pos[u]]
        for w in g.neighbors(u):
            i = pos.get(w)
            if i is not None:
                row.append(i)
                if i > pos[u]:
                    m += 1
    # rows inherit sortedness from the parent's sorted neighbor lists
    return Graph.from_sorted_adjacency(adj, m)


def _triangles(g: Graph) -> tuple[np.ndarray, ...]:
    """List every triangle a < b < c of ``g`` once, by forward orientation.

    An entry (a, b) of the CSR arrays is forward when a < b, so the forward
    entries of a row are a suffix of it and their keys ``a*n + b`` come out
    sorted. Each forward entry (a, b) opens a wedge with every later entry
    (a, c) of its row, and the wedge closes into a triangle exactly when
    (b, c) is an edge: its key is found with ``searchsorted``. Most wedges
    of a sparse graph stay open, so a bitmap hashed from the keys' low bits
    rules most of them out first with one lookup each.

    The wedges number about n·k²/6, so they are made in blocks of at most
    ``_WEDGE_BLOCK`` (plus at most d - 1 when one entry of a degree-d row
    alone exceeds it); the transient arrays then stay bounded instead of
    growing with n·k².

    Returns ``(deg, indptr, indices, rows, P, Q, H)``: the degrees, the CSR
    row pointers, column indices and row of each entry, and, per triangle,
    the CSR positions of its entries (a, b), (a, c) and (b, c).
    """
    adj = g._adj
    n = len(adj)
    deg = np.fromiter(map(len, adj), np.int64, n)
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(adj), np.int64, int(indptr[-1]))
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    fwd_pos = np.flatnonzero(indices > rows)
    # ends in a sentinel above every key, so a search past the end still indexes
    fkeys = np.append(rows[fwd_pos] * n + indices[fwd_pos], n * n)
    # at least 8 slots per key, so few open wedges pass on to the search
    mask = (1 << (8 * len(fwd_pos)).bit_length()) - 1
    maybe_edge = np.zeros(mask + 1, bool)
    maybe_edge[fkeys[:-1] & mask] = True
    opens = indptr[rows[fwd_pos] + 1] - 1 - fwd_pos
    ends = np.cumsum(opens)
    total = int(ends[-1]) if len(ends) else 0
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    lo = done = 0
    while done < total:
        hi = max(int(np.searchsorted(ends, done + _WEDGE_BLOCK, "right")), lo + 1)
        count = opens[lo:hi]
        first = np.repeat(fwd_pos[lo:hi], count)
        second = np.arange(1, len(first) + 1)
        second -= np.repeat(ends[lo:hi] - count - done, count)
        second += first
        key = indices[first]
        key *= n
        key += indices[second]
        cand = np.flatnonzero(maybe_edge[key & mask])
        key = key[cand]
        hit = np.searchsorted(fkeys, key)
        closed = fkeys[hit] == key
        cand = cand[closed]
        found.append((first[cand], second[cand], fwd_pos[hit[closed]]))
        lo, done = hi, int(ends[hi - 1])
    if found:
        P, Q, H = (np.concatenate(parts) for parts in zip(*found))
    else:
        P = Q = H = np.zeros(0, np.int64)
    return deg, indptr, indices, rows, P, Q, H


def neighborhood_edge_sets(g: Graph) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Yield ``(size, edges)`` of every node's neighborhood, relabeled 0..k-1.

    For each node v in order, ``size`` is its degree and ``edges`` the
    lexicographically sorted list of pairs ``(i, j)``, i < j, such that the
    i-th and j-th neighbors of v (in increasing index) are adjacent. These
    are exactly the triangles through v, so one pass of :func:`_triangles`
    gives all of them: triangle a < b < c adds its edge (b, c) to a's
    neighborhood, (a, c) to b's and (a, b) to c's. A local index is a CSR
    position minus the row start; the position of a reversed entry comes
    from one stable sort of the column indices. Each edge is encoded as one
    int64 key, (position of i's entry in v's row)·D + j with D the maximum
    degree, so a single sort orders the edges by node, then i, then j.

    The work runs at the first ``next()``; tuples are built per node as the
    stream is consumed.
    """
    deg, indptr, indices, rows, P, Q, H = _triangles(g)
    # entries in (column, row) order are the reversed entries in CSR order
    twin = np.empty(len(indices), np.int64)
    twin[np.argsort(indices, kind="stable")] = np.arange(len(indices))
    D = int(deg.max(initial=1))
    key = np.concatenate((
        P * D + (Q - indptr[rows[P]]),
        twin[P] * D + (H - indptr[indices[P]]),
        twin[Q] * D + (twin[H] - indptr[indices[Q]]),
    ))
    key.sort()
    at = key // D
    local_i = (at - indptr[rows[at]]).tolist()
    local_j = (key - at * D).tolist()
    bounds = np.searchsorted(at, indptr).tolist()
    for v, size in enumerate(deg.tolist()):
        lo, hi = bounds[v], bounds[v + 1]
        yield size, list(zip(local_i[lo:hi], local_j[lo:hi]))


def triangles_per_node(g: Graph) -> list[int]:
    """Number of triangles through each node (= edges inside its neighborhood).

    Counts the triangles :func:`_triangles` lists once each, at their three
    corners.
    """
    _, _, indices, rows, P, Q, _ = _triangles(g)
    corners = np.concatenate((rows[P], indices[P], indices[Q]))
    return np.bincount(corners, minlength=g.n).tolist()


def triangle_count(g: Graph) -> int:
    """Total number of triangles in the graph."""
    return sum(triangles_per_node(g)) // 3


def summary_stats(g: Graph) -> SummaryStats:
    """Node/edge counts, average degree 2m/n, and mean local clustering.

    A node of degree k with t triangles through it contributes
    ``t / (k choose 2)`` to the clustering average; nodes with k < 2
    contribute 0.
    """
    if g.n < 1:
        raise ValueError("summary_stats requires at least one node")
    tri = triangles_per_node(g)
    total = 0.0
    for v in range(g.n):
        k = g.degree(v)
        if k >= 2:
            total += 2.0 * tri[v] / (k * (k - 1))
    return SummaryStats(
        n=g.n,
        m=g.m,
        avg_degree=2.0 * g.m / g.n,
        clustering=total / g.n,
    )
