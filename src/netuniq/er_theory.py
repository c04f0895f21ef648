"""Closed-form expectations for Erdos-Renyi networks.

Expected degree uniqueness and expected fraction of non-empty
neighborhoods as functions of (n, mean degree), evaluated in log space so
they stay finite up to n in the tens of thousands. The log-factorials come
from `math.lgamma`, one table per n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _check_params(n: int, avg_degree: float) -> float:
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 <= avg_degree <= n - 1):
        raise ValueError(f"avg_degree {avg_degree} outside [0, {n - 1}]")
    return avg_degree / (n - 1)


@lru_cache(maxsize=1)
def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n-1, read-only."""
    table = np.fromiter(map(math.lgamma, range(1, n + 1)), np.float64, n)
    table.flags.writeable = False
    return table


def degree_pmf(n: int, avg_degree: float) -> np.ndarray:
    """Binomial(n-1, k/(n-1)) probability of each degree 0..n-1.

    Terms are accumulated through log-factorials, never factorial ratios.
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
    lf = _log_factorials(n)
    log_pmf = (
        lf[-1]
        - lf
        - lf[::-1]
        + k * np.log(p)
        + (trials - k) * np.log1p(-p)
    )
    return np.exp(log_pmf)


def _degree_uniqueness(pmf: np.ndarray) -> float:
    with np.errstate(divide="ignore"):
        log_none_else = (len(pmf) - 1) * np.log1p(-pmf)
    return float(np.sum(pmf * np.exp(log_none_else)))


def expected_degree_uniqueness(n: int, avg_degree: float) -> float:
    """Expected fraction of nodes whose degree no other node shares.

    Sum over degrees of p_k (1 - p_k)^(n-1), with the power computed as
    exp((n-1) log1p(-p_k)) since p_k underflows toward 0 or 1.
    """
    return _degree_uniqueness(degree_pmf(n, avg_degree))


def _nonempty_given_degree(p: float, k):
    """1 - (1-p)^C(k,2), and 0 where C(k,2) = 0: at p = 1 the log form reads 0 * -inf."""
    pairs = k * (k - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pairs > 0, -np.expm1(pairs * np.log1p(-p)), 0.0)


def nonempty_probability_given_degree(p: float, k: int) -> float:
    """Probability that a degree-k node's neighborhood has >= 1 edge."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    if k < 0:
        raise ValueError("k must be >= 0")
    return float(_nonempty_given_degree(p, k))


def _nonempty_fraction(p: float, pmf: np.ndarray) -> float:
    prob = _nonempty_given_degree(p, np.arange(len(pmf), dtype=np.float64))
    # the pmf sums to 1 only up to rounding, which can carry the mean past 1
    return min(1.0, float(np.sum(prob * pmf)))


def expected_nonempty_fraction(n: int, avg_degree: float) -> float:
    """Expected fraction of non-empty neighborhoods over the degree law."""
    return _nonempty_fraction(_check_params(n, avg_degree), degree_pmf(n, avg_degree))


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
    uniqueness, nonempty = [], []
    for k in ks:
        pmf = degree_pmf(n, k)
        uniqueness.append(_degree_uniqueness(pmf))
        nonempty.append(_nonempty_fraction(_check_params(n, k), pmf))
    return ErCurve(ks, uniqueness, nonempty)


def argmax_degree_uniqueness(n: int, resolution: float = 0.5) -> float:
    """Grid maximizer of degree uniqueness, searched up to the curve's mirror axis (n-1)/2."""
    grid = np.arange(0.0, (n - 1) / 2 + resolution / 2, resolution)
    values = [expected_degree_uniqueness(n, float(k)) for k in grid]
    return float(grid[int(np.argmax(values))])
