"""Core graph container: ingestion, neighborhoods, and summary statistics.

Graphs are simple (no self-loops, no parallel edges), undirected and
unlabeled. Nodes are dense integer indices ``0..n-1``; arbitrary string
tokens from edge-list files are remapped at ingestion and the original
tokens kept on the side for reporting. A graph is stored once, as
read-only CSR arrays built by the one validating :meth:`Graph.from_edges`.

Neighborhood extraction and triangle counts share one numpy kernel. The
edges inside a node's neighborhood are exactly the triangles through it,
so both list every triangle once from the CSR arrays by forward orientation
(Schank & Wagner 2005, "Finding, counting and listing all triangles in
large graphs") instead of walking N(u) for every u in N(v), which costs
O(n·k²) Python steps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

logger = logging.getLogger(__name__)

# Items one block of _expand_runs holds at most: bounds the memory of the
# triangle kernel and of models._pairs_within.
_WEDGE_BLOCK = 1 << 16


class Graph:
    """Immutable simple undirected graph stored as read-only CSR arrays.

    ``indptr`` holds n + 1 row pointers and ``indices`` the 2m column
    indices, both int64: the neighbors of v are
    ``indices[indptr[v]:indptr[v + 1]]`` in increasing order, and every edge
    appears in the rows of both its ends. Build one with :meth:`from_edges`,
    which validates its input; the arrays are made read-only, so instances
    are safe to share across threads.
    """

    __slots__ = ("indptr", "indices", "labels", "_tri")

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, labels: list[str] | None = None
    ):
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self.indptr = indptr
        self.indices = indices
        self.labels = labels
        self._tri: tuple[np.ndarray, ...] | None = None

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        labels: list[str] | None = None,
    ) -> "Graph":
        """Build a graph on ``n`` nodes from pairs, dropping self-loops and duplicates.

        ``edges`` is an iterable of pairs or an (m, 2) integer array; (u, v)
        and (v, u) are the same edge.

        Raises:
            ValueError: if ``edges`` does not hold integer pairs, or a pair,
                self-loops included, lies outside 0..n-1.
        """
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size == 0:
            pairs = np.zeros((0, 2), np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError("edges must be integer pairs (u, v)")
        pairs = pairs.astype(np.int64, copy=False)
        # a negative end reads as a huge unsigned value
        if len(pairs) and pairs.view(np.uint64).max() >= n:
            u, v = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)][0].tolist()
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        # (u*n + v, v*n + u): a key per direction, equal only for a self-loop;
        # sorted, the keys of row r are r*n plus its neighbors
        keys = pairs @ np.array([[n, 1], [1, n]])
        keys = keys[keys[:, 0] != keys[:, 1]].ravel()
        # sort and mask, not np.unique: 25-60x slower at 200k-2M keys on numpy 2.4
        keys.sort()
        first = np.ones(len(keys), bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        return cls(keys.searchsorted(np.arange(n + 1) * n), keys % n, labels)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def m(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    def edge_array(self) -> np.ndarray:
        """Each edge once as a row (u, v), u < v, in sorted order: an (m, 2) array."""
        rows = np.arange(self.n, dtype=np.int64).repeat(np.diff(self.indptr))
        forward = self.indices > rows
        return np.array((rows[forward], self.indices[forward])).T

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        return zip(*self.edge_array().T.tolist())

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
    ends: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(
                f"line {lineno}: expected 2 node tokens, got {len(tokens)}: {raw!r}"
            )
        for tok in tokens:
            ends.append(index.setdefault(tok, len(index)))

    pairs = np.array(ends, np.int64).reshape(-1, 2)
    g = Graph.from_edges(len(index), pairs, list(index))
    if g.m == 0:
        raise ValueError("empty input: no edges found")
    self_loops = int(np.count_nonzero(pairs[:, 0] == pairs[:, 1]))
    duplicates = len(pairs) - self_loops - g.m
    if duplicates or self_loops:
        logger.warning(
            "dropped %d duplicate edge(s) and %d self-loop(s) at ingestion",
            duplicates,
            self_loops,
        )
    return g


def load_edge_list_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh.read())


def neighborhood(g: Graph, v: int) -> Graph:
    """Induced subgraph on the neighbors of ``v`` (``v`` itself excluded).

    The k neighbors are relabeled ``0..k-1`` in increasing original index.
    Only CSR rows are read, never the triangle listing, so this extraction
    stays independent of :func:`neighborhood_edge_sets`.
    """
    if not (0 <= v < g.n):
        raise IndexError(f"node {v} out of range for n={g.n}")
    indptr, indices = g.indptr, g.indices
    nbrs = indices[indptr[v] : indptr[v + 1]].tolist()
    pos = {u: i for i, u in enumerate(nbrs)}
    rows = (indices[indptr[u] : indptr[u + 1]].tolist() for u in nbrs)
    edges = [(i, pos[w]) for i, row in enumerate(rows) for w in row if w in pos]
    return Graph.from_edges(len(nbrs), edges)


def _expand_runs(
    owner: np.ndarray, start: np.ndarray, length: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``owner[t]`` paired with ``start[t] .. start[t] + length[t] - 1``
    for each run t in order, as two arrays per block.

    A block holds at most ``_WEDGE_BLOCK`` items, or one whole run when that
    run alone is longer, so a caller's transient arrays stay bounded.
    """
    ends = np.cumsum(length)
    total = int(ends[-1]) if len(ends) else 0
    lo = done = 0
    while done < total:
        hi = max(int(np.searchsorted(ends, done + _WEDGE_BLOCK, "right")), lo + 1)
        count = length[lo:hi]
        pos = np.arange(done, int(ends[hi - 1]))
        pos += np.repeat(start[lo:hi] - (ends[lo:hi] - count), count)
        yield np.repeat(owner[lo:hi], count), pos
        lo, done = hi, int(ends[hi - 1])


def _triangles(g: Graph) -> tuple[np.ndarray, ...]:
    """List every triangle a < b < c of ``g`` once, by forward orientation.

    An entry (a, b) of the CSR arrays is forward when a < b, so the forward
    entries of a row are a suffix of it and their keys ``a*n + b`` come out
    sorted. Each forward entry (a, b) opens a wedge with every later entry
    (a, c) of its row, and the wedge closes into a triangle exactly when
    (b, c) is an edge: its key is found with ``searchsorted``. Most wedges
    of a sparse graph stay open, so a bitmap hashed from the keys' low bits
    rules most of them out first with one lookup each. The wedges number
    about n·k²/6, so they come in blocks from :func:`_expand_runs`.

    Returns ``(rows, P, Q, H)``: the row of each CSR entry and, per
    triangle, the CSR positions of its entries (a, b), (a, c) and (b, c).
    They are made once per graph and kept on it, read-only (racing first
    calls make equal arrays), so triangle counts and the neighborhood stream
    share them.
    """
    if g._tri is not None:
        return g._tri
    indptr, indices, n = g.indptr, g.indices, g.n
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    fwd_pos = np.flatnonzero(indices > rows)
    # ends in a sentinel above every key, so a search past the end still indexes
    fkeys = np.append(rows[fwd_pos] * n + indices[fwd_pos], n * n)
    # at least 8 slots per key, so few open wedges pass on to the search
    mask = (1 << (8 * len(fwd_pos)).bit_length()) - 1
    maybe_edge = np.zeros(mask + 1, bool)
    maybe_edge[fkeys[:-1] & mask] = True
    opens = indptr[rows[fwd_pos] + 1] - 1 - fwd_pos
    # starts with empty parts, so a graph without triangles concatenates to them
    found = [(np.zeros(0, np.int64),) * 3]
    for first, second in _expand_runs(fwd_pos, fwd_pos + 1, opens):
        key = indices[first]
        key *= n
        key += indices[second]
        cand = np.flatnonzero(maybe_edge[key & mask])
        key = key[cand]
        hit = np.searchsorted(fkeys, key)
        closed = fkeys[hit] == key
        cand = cand[closed]
        found.append((first[cand], second[cand], fwd_pos[hit[closed]]))
    P, Q, H = (np.concatenate(parts) for parts in zip(*found))
    listing = (rows, P, Q, H)
    for arr in listing:
        arr.flags.writeable = False
    g._tri = listing
    return listing


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
    rows, P, Q, H = _triangles(g)
    indptr, indices = g.indptr, g.indices
    deg = np.diff(indptr)
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
    rows, P, Q, _ = _triangles(g)
    corners = np.concatenate((rows[P], g.indices[P], g.indices[Q]))
    return np.bincount(corners, minlength=g.n).tolist()


def triangle_count(g: Graph) -> int:
    """Total number of triangles in the graph: one entry of the listing each."""
    return len(_triangles(g)[1])


def summary_stats(g: Graph) -> SummaryStats:
    """Node/edge counts, average degree 2m/n, and mean local clustering.

    A node of degree k with t triangles through it contributes
    ``t / (k choose 2)`` to the clustering average; nodes with k < 2
    contribute 0.
    """
    if g.n < 1:
        raise ValueError("summary_stats requires at least one node")
    k = np.diff(g.indptr)
    # a node with k < 2 has no triangle, so a divisor of 1 makes it add 0
    local = 2.0 * np.array(triangles_per_node(g)) / np.maximum(k * (k - 1), 1)
    # summed left to right, as a loop over the nodes would
    total = float(np.cumsum(local)[-1])
    return SummaryStats(
        n=g.n,
        m=g.m,
        avg_degree=2.0 * g.m / g.n,
        clustering=total / g.n,
    )
