"""Closed-form expectations for Erdos-Renyi networks.

Expected degree uniqueness and expected fraction of non-empty
neighborhoods as functions of (n, mean degree), evaluated in log space so
they stay finite up to n in the tens of thousands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


def _check_params(n: int, avg_degree: float) -> float:
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 <= avg_degree <= n - 1):
        raise ValueError(f"avg_degree {avg_degree} outside [0, {n - 1}]")
    return avg_degree / (n - 1)


def degree_pmf(n: int, avg_degree: float) -> np.ndarray:
    """Binomial(n-1, k/(n-1)) probability of each degree 0..n-1.

    Terms are accumulated through log-gamma, never factorial ratios.
    """
    p = _check_params(n, avg_degree)
    trials = n - 1
    out = np.zeros(n)
    if p == 0.0:
        out[0] = 1.0
        return out
    if p == 1.0:
        out[trials] = 1.0
        return out
    k = np.arange(n, dtype=np.float64)
    log_pmf = (
        gammaln(trials + 1)
        - gammaln(k + 1)
        - gammaln(trials - k + 1)
        + k * np.log(p)
        + (trials - k) * np.log1p(-p)
    )
    return np.exp(log_pmf)


def expected_degree_uniqueness(n: int, avg_degree: float) -> float:
    """Expected fraction of nodes whose degree no other node shares.

    Sum over degrees of p_k (1 - p_k)^(n-1), with the power computed as
    exp((n-1) log1p(-p_k)) since p_k underflows toward 0 or 1.
    """
    _check_params(n, avg_degree)
    pmf = degree_pmf(n, avg_degree)
    with np.errstate(divide="ignore"):
        log_none_else = (n - 1) * np.log1p(-pmf)
    return float(np.sum(pmf * np.exp(log_none_else)))


def nonempty_probability_given_degree(p: float, k: int) -> float:
    """Probability that a degree-k node's neighborhood has >= 1 edge."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k <= 1 or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    pairs = k * (k - 1) / 2.0
    return float(-np.expm1(pairs * np.log1p(-p)))


def expected_nonempty_fraction(n: int, avg_degree: float) -> float:
    """Expected fraction of non-empty neighborhoods over the degree law."""
    p = _check_params(n, avg_degree)
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0 if n >= 3 else 0.0
    pmf = degree_pmf(n, avg_degree)
    k = np.arange(n, dtype=np.float64)
    pairs = k * (k - 1) / 2.0
    prob = -np.expm1(pairs * np.log1p(-p))
    return float(np.sum(prob * pmf))


@dataclass(frozen=True)
class ErCurve:
    """Closed-form curves sampled over a grid of mean degrees."""

    avg_degrees: list[float]
    degree_uniqueness: list[float]
    nonempty_fraction: list[float]


def er_curve(n: int, avg_degrees=None) -> ErCurve:
    """Evaluate both closed forms over a degree grid.

    Defaults to integer degrees 0..min(100, n-1), the sparse range where
    the uniqueness transitions happen.
    """
    if avg_degrees is None:
        avg_degrees = list(range(0, min(100, n - 1) + 1))
    ks = [float(k) for k in avg_degrees]
    return ErCurve(
        avg_degrees=ks,
        degree_uniqueness=[expected_degree_uniqueness(n, k) for k in ks],
        nonempty_fraction=[expected_nonempty_fraction(n, k) for k in ks],
    )


def argmax_degree_uniqueness(n: int, resolution: float = 0.5) -> float:
    """Grid maximizer of the expected degree-uniqueness curve."""
    grid = np.arange(0.0, n - 1 + resolution / 2, resolution)
    values = [expected_degree_uniqueness(n, float(k)) for k in grid]
    return float(grid[int(np.argmax(values))])
