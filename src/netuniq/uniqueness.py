"""Re-identification risk metrics from neighborhood isomorphism classes.

A node is re-identifiable by an attacker who knows its 1-hop neighborhood
structure exactly when no other node has an isomorphic neighborhood. This
module computes, for any graph: the occurrence frequency of each node's
neighborhood class, the fraction of unique neighborhoods, the fraction of
unique degrees, and the fraction of neighborhoods containing at least one
edge (equivalently, of nodes in at least one triangle).

Only :func:`neighborhood_certificates` walks the neighborhoods; the
non-empty fraction is read from the per-node triangle counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .canon import certificate_from_edges
from .graph import Graph, neighborhood_edge_sets, triangles_per_node


@dataclass(frozen=True)
class UniquenessReport:
    """Per-node occurrence frequencies and the derived scalar metrics."""

    occurrence: list[int]
    neighborhood_uniqueness: float
    degree_uniqueness: float
    nonempty_fraction: float
    nonempty_by_degree: dict[int, float] = field(default_factory=dict)


def neighborhood_certificates(g: Graph) -> list[bytes]:
    """Certificate of every node's neighborhood, in node order."""
    return [
        certificate_from_edges(size, edges)
        for size, edges in neighborhood_edge_sets(g)
    ]


def occurrence_frequencies(g: Graph) -> list[int]:
    """Size of each node's neighborhood-isomorphism class (>= 1).

    Certificates of all n neighborhoods are grouped by exact byte equality,
    which partitions nodes identically to pairwise isomorphism testing.
    """
    certs = neighborhood_certificates(g)
    sizes = Counter(certs)
    return [sizes[c] for c in certs]


def neighborhood_uniqueness(g: Graph) -> float:
    """Fraction of nodes whose neighborhood class is a singleton."""
    occ = occurrence_frequencies(g)
    return sum(1 for o in occ if o == 1) / g.n


def degree_uniqueness(g: Graph) -> float:
    """Fraction of nodes whose degree value occurs exactly once."""
    degrees = g.degrees()
    counts = Counter(degrees)
    return sum(1 for d in degrees if counts[d] == 1) / g.n


def nonempty_fraction(g: Graph) -> tuple[float, dict[int, float]]:
    """Fraction of nodes with >= 1 edge inside the neighborhood.

    A node has an edge among its neighbors exactly when it lies in a
    triangle, so this counts nodes with a positive triangle count. Also
    returns the per-degree breakdown over degrees present in the graph.
    """
    degrees = g.degrees()
    totals = Counter(degrees)
    hits = Counter(d for d, t in zip(degrees, triangles_per_node(g)) if t)
    table = {d: hits[d] / totals[d] for d in sorted(totals)}
    return sum(hits.values()) / g.n, table


def uniqueness_report(g: Graph) -> UniquenessReport:
    """Full report: the occurrence frequencies plus every scalar metric."""
    occ = occurrence_frequencies(g)
    fraction, by_degree = nonempty_fraction(g)
    return UniquenessReport(
        occurrence=occ,
        neighborhood_uniqueness=sum(1 for o in occ if o == 1) / g.n,
        degree_uniqueness=degree_uniqueness(g),
        nonempty_fraction=fraction,
        nonempty_by_degree=by_degree,
    )
