"""Risk mitigation by uniform edge sampling, with bias-corrected estimators.

Publishing a sampled network (all nodes, a random fraction s of edges)
lowers the mean degree and with it the neighborhood uniqueness, while the
original degree and triangle statistics stay recoverable: under independent
edge retention the observed degree divided by s and the observed triangle
count divided by s^3 are unbiased estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, triangle_count
from .models import rng_from, substream_seed
from .uniqueness import neighborhood_uniqueness

MODES = ("bernoulli", "exact-count")


@dataclass(frozen=True)
class SamplingPlan:
    """Edge-retention rate, sampling mode, and seed."""

    rate: float
    mode: str = "bernoulli"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.rate <= 1.0):
            raise ValueError("rate must lie in (0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def sample_edges(g: Graph, plan: SamplingPlan) -> Graph:
    """Sampled copy of ``g``: same node set, random subset of edges.

    ``bernoulli`` keeps each edge independently with probability ``rate``
    (this is the mode under which the estimators are exactly unbiased);
    ``exact-count`` keeps a uniform subset of exactly round(rate * m) edges.
    """
    edges = g.edge_array()
    m = len(edges)
    rng = rng_from(plan.seed, "edge-sample", plan.mode, float(plan.rate), m)
    if plan.mode == "bernoulli":
        kept = edges[rng.random(m) < plan.rate]
    else:
        target = int(math.floor(plan.rate * m + 0.5))
        kept = edges[rng.permutation(m)[:target]]
    return Graph.from_edges(g.n, kept, labels=g.labels)


def estimate_degree(observed_degree: float, rate: float) -> float:
    """Original-degree estimate from a degree observed at sampling rate s."""
    if not (0.0 < rate <= 1.0):
        raise ValueError("rate must lie in (0, 1]")
    return observed_degree / rate


def estimate_triangles(observed_count: float, rate: float) -> float:
    """Original triangle-count estimate from a count observed at rate s."""
    if not (0.0 < rate <= 1.0):
        raise ValueError("rate must lie in (0, 1]")
    return observed_count / rate**3


@dataclass(frozen=True)
class SamplingReportRow:
    rate: float
    avg_degree: float
    uniqueness: float
    degree_error: float
    triangle_error: float


@dataclass(frozen=True)
class SamplingReport:
    """Per-rate effect of sampling on uniqueness and estimator accuracy."""

    mode: str
    seed: int
    rows: list[SamplingReportRow] = field(default_factory=list)


DEFAULT_RATES = tuple(round(0.1 * i, 1) for i in range(10, 0, -1))


def sampling_report(
    g: Graph,
    rates=DEFAULT_RATES,
    seed: int = 0,
    mode: str = "bernoulli",
) -> SamplingReport:
    """Sample at each rate and record uniqueness plus estimation errors.

    The degree error is the absolute difference between each node's true
    degree and its corrected estimate, averaged over all nodes; the
    triangle error is the absolute difference for the whole-network count.
    Rates are processed in decreasing order with independent substreams.
    """
    if any(not (0.0 < s <= 1.0) for s in rates):
        raise ValueError("rates must lie in (0, 1]")
    true_degrees = np.diff(g.indptr)
    true_triangles = float(triangle_count(g))
    rows = []
    for s in sorted(set(float(r) for r in rates), reverse=True):
        plan = SamplingPlan(
            rate=s, mode=mode, seed=substream_seed(seed, "report-rate", s)
        )
        sampled = sample_edges(g, plan)
        degree_error = float(np.abs(np.diff(sampled.indptr) / s - true_degrees).mean())
        triangle_error = abs(estimate_triangles(triangle_count(sampled), s) - true_triangles)
        rows.append(
            SamplingReportRow(
                rate=s,
                avg_degree=2.0 * sampled.m / sampled.n,
                uniqueness=neighborhood_uniqueness(sampled),
                degree_error=degree_error,
                triangle_error=triangle_error,
            )
        )
    return SamplingReport(mode=mode, seed=seed, rows=rows)
