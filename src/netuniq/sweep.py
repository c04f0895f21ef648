"""Uniqueness maps over (n, mean degree) grids and the boundary search.

The map is a grid of mean neighborhood-uniqueness values over network size
and mean degree, averaged over seeded replicates. The boundary search is a
stochastic binary search for the mean degree where uniqueness crosses a
target (0.5 by default): each probed degree is estimated from batches of
simulated networks until the target falls outside the confidence interval
of the mean (step left or right), the estimate lands within tolerance of
the target (success), or the simulation budget is exhausted while the
interval still contains the target (confident success).

All replicate seeds are substreams of the master seed hashed together with
the cell coordinates, so results are reproducible and independent of
worker scheduling.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .models import ModelSpec, calibrated_radius, generate, substream_seed
from .uniqueness import neighborhood_uniqueness


class BracketingError(ValueError):
    """Search interval endpoints do not straddle the target uniqueness."""


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the stochastic binary search."""

    target: float = 0.5
    confidence: float = 0.99
    batch_size: int = 5
    max_sims: int = 30
    tolerance: float = 0.02
    k_lo: float = 1.0
    k_hi: float = 100.0
    min_width: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.target < 1.0):
            raise ValueError("target must lie strictly inside (0, 1)")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not (0.0 < self.confidence < 1.0):
            raise ValueError("confidence must lie in (0, 1)")
        if self.k_lo >= self.k_hi:
            raise ValueError("k_lo must be below k_hi")
        if self.min_width <= 0.0:
            raise ValueError("min_width must be positive")


@dataclass(frozen=True)
class PointEstimate:
    """Outcome of estimating uniqueness at one mean-degree value."""

    avg_degree: float
    mean: float
    sem: float
    sims: int
    status: str  # hit_tolerance | ci_converged | decided | undecided (endpoints)


@dataclass(frozen=True)
class SearchResult:
    k_star: float
    status: str  # tolerance | confident | interval_floor
    evaluations: list[PointEstimate] = field(default_factory=list)

    @property
    def total_sims(self) -> int:
        return sum(pt.sims for pt in self.evaluations)


@dataclass(frozen=True)
class MapCell:
    n: int
    avg_degree: float
    mean: float
    sem: float
    reps: int
    skipped: bool = False


@dataclass(frozen=True)
class UniquenessMap:
    family: str
    beta: float | None
    n_grid: list[int]
    k_grid: list[float]
    reps: int
    seed: int
    cells: list[MapCell] = field(default_factory=list)


Sampler = Callable[[float, int, int], list[float]]


def _uniqueness_of_spec(spec: ModelSpec) -> float:
    return neighborhood_uniqueness(generate(spec))


def _replicate_specs(
    family: str,
    n: int,
    avg_degree: float,
    seed: int,
    beta: float | None,
    count: int,
    offset: int,
) -> list[ModelSpec]:
    return [
        ModelSpec(
            family=family,
            n=n,
            avg_degree=avg_degree,
            seed=substream_seed(seed, family, beta, n, float(avg_degree), rep),
            beta=beta,
        )
        for rep in range(offset, offset + count)
    ]


def _run_specs(specs: list[ModelSpec], jobs: int) -> list[float]:
    if jobs > 1 and len(specs) > 1:
        # calibrate in the parent so forked workers inherit the cached radius
        for family, n, k in {(s.family, s.n, s.avg_degree) for s in specs}:
            if family == "rgg" and k > 0:
                calibrated_radius(n, k)
        with multiprocessing.Pool(min(jobs, len(specs))) as pool:
            return pool.map(_uniqueness_of_spec, specs)
    return [_uniqueness_of_spec(s) for s in specs]


def model_sampler(
    family: str,
    n: int,
    seed: int,
    beta: float | None = None,
    jobs: int = 1,
) -> Sampler:
    """Sampler drawing uniqueness values from fresh model realizations."""

    def sample(avg_degree: float, count: int, offset: int) -> list[float]:
        specs = _replicate_specs(family, n, avg_degree, seed, beta, count, offset)
        return _run_specs(specs, jobs)

    return sample


def _mean_sem(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, sem


def uniqueness_at(
    family: str,
    n: int,
    avg_degree: float,
    reps: int,
    seed: int,
    beta: float | None = None,
    jobs: int = 1,
) -> tuple[float, float]:
    """Mean and standard error of uniqueness over seeded replicates."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    values = _run_specs(
        _replicate_specs(family, n, avg_degree, seed, beta, reps, 0), jobs
    )
    return _mean_sem(values)


def uniqueness_map(
    family: str,
    n_grid: Sequence[int],
    k_grid: Sequence[float],
    reps: int,
    seed: int,
    beta: float | None = None,
    jobs: int = 1,
) -> UniquenessMap:
    """Mean uniqueness for every feasible (n, avg_degree) grid cell.

    Cells with avg_degree > n - 1 are recorded as skipped rather than
    failing the whole sweep.
    """
    if not n_grid or not k_grid:
        raise ValueError("grids must be non-empty")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    cells = []
    for n in n_grid:
        for k in k_grid:
            if k > n - 1:
                cells.append(MapCell(n, float(k), math.nan, math.nan, 0, True))
                continue
            mean, sem = uniqueness_at(family, n, float(k), reps, seed, beta, jobs)
            cells.append(MapCell(n, float(k), mean, sem, reps))
    return UniquenessMap(
        family=family,
        beta=beta,
        n_grid=list(n_grid),
        k_grid=[float(k) for k in k_grid],
        reps=reps,
        seed=seed,
        cells=cells,
    )


def _estimate_point(
    sample: Sampler,
    avg_degree: float,
    config: SearchConfig,
    z: float,
    extend: bool = True,
) -> PointEstimate:
    values = list(sample(avg_degree, config.batch_size, 0))
    while True:
        mean, sem = _mean_sem(values)
        if abs(mean - config.target) <= config.tolerance:
            return PointEstimate(avg_degree, mean, sem, len(values), "hit_tolerance")
        half = z * sem
        if not (mean - half <= config.target <= mean + half):
            return PointEstimate(avg_degree, mean, sem, len(values), "decided")
        if len(values) >= config.max_sims:
            return PointEstimate(avg_degree, mean, sem, len(values), "ci_converged")
        if not extend:
            return PointEstimate(avg_degree, mean, sem, len(values), "undecided")
        take = min(config.batch_size, config.max_sims - len(values))
        values.extend(sample(avg_degree, take, len(values)))


def boundary_search_fn(sample: Sampler, config: SearchConfig) -> SearchResult:
    """Stochastic binary search over an abstract uniqueness sampler.

    The sampler must be (stochastically) nondecreasing in mean degree over
    the configured interval.
    """
    z = float(ndtri(0.5 + config.confidence / 2.0))
    evaluations: list[PointEstimate] = []

    # endpoints get one batch each, to verify bracketing before recursing
    lo_pt = _estimate_point(sample, config.k_lo, config, z, extend=False)
    evaluations.append(lo_pt)
    if lo_pt.status == "hit_tolerance":
        return SearchResult(config.k_lo, "tolerance", evaluations)
    hi_pt = _estimate_point(sample, config.k_hi, config, z, extend=False)
    evaluations.append(hi_pt)
    if hi_pt.status == "hit_tolerance":
        return SearchResult(config.k_hi, "tolerance", evaluations)
    if lo_pt.mean > config.target and hi_pt.mean > config.target:
        raise BracketingError(
            f"both endpoints above target {config.target}: "
            f"{lo_pt.mean:.4f}, {hi_pt.mean:.4f}"
        )
    if lo_pt.mean < config.target and hi_pt.mean < config.target:
        raise BracketingError(
            f"both endpoints below target {config.target}: "
            f"{lo_pt.mean:.4f}, {hi_pt.mean:.4f}"
        )
    if lo_pt.mean > hi_pt.mean:
        raise BracketingError(
            "uniqueness decreases across the interval; expected nondecreasing"
        )

    lo, hi = config.k_lo, config.k_hi
    while hi - lo > config.min_width:
        mid = 0.5 * (lo + hi)
        pt = _estimate_point(sample, mid, config, z)
        evaluations.append(pt)
        if pt.status == "hit_tolerance":
            return SearchResult(mid, "tolerance", evaluations)
        if pt.status == "ci_converged":
            return SearchResult(mid, "confident", evaluations)
        if pt.mean > config.target:
            hi = mid
        else:
            lo = mid
    return SearchResult(0.5 * (lo + hi), "interval_floor", evaluations)


def boundary_search(
    family: str,
    n: int,
    config: SearchConfig,
    seed: int,
    beta: float | None = None,
    jobs: int = 1,
) -> SearchResult:
    """Boundary degree for a model family at fixed size."""
    return boundary_search_fn(model_sampler(family, n, seed, beta, jobs), config)


@dataclass(frozen=True)
class BoundaryFit:
    """Least-squares line through boundary points in log-log coordinates."""

    points: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    residuals: list[float]

    @property
    def rmse(self) -> float:
        return float(np.sqrt(np.mean(np.square(self.residuals))))


def fit_boundary_line(points: Sequence[tuple[float, float]]) -> BoundaryFit:
    """Fit log(k) = slope * log(n) + intercept to (n, k) points.

    Points are sorted internally, so the fit is invariant to input order.

    Raises:
        ValueError: fewer than 3 points, or any non-positive coordinate.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points to fit the boundary line")
    if any(n <= 0 or k <= 0 for n, k in points):
        raise ValueError("all boundary points must be positive")
    pts = tuple(sorted((float(n), float(k)) for n, k in points))
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    coeffs = np.polyfit(x, y, 1)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    residuals = (y - (slope * x + intercept)).tolist()
    return BoundaryFit(points=pts, slope=slope, intercept=intercept, residuals=residuals)
