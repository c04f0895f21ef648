"""Uniqueness maps over (n, mean degree) grids and the boundary search.

The map is a grid of mean neighborhood-uniqueness values over network size
and mean degree, averaged over seeded replicates. The boundary search is a
stochastic binary search for the mean degree where uniqueness crosses a
target (0.5 by default). Every probe, the bracket's endpoints included, is
estimated from batches of simulated networks until the target falls outside
the confidence interval of the mean, the estimate lands within tolerance of
the target, or the simulation budget runs out. The endpoints only decide
whether the bracket straddles the target; an interior probe halves the
bracket, or ends the search within tolerance or at the budget.

A curve's first size searches the configured bracket, each later size the
:func:`warm_config` bracket first, so its k* depends on the sizes before it.

All replicate seeds are substreams of the master seed hashed together with
the size, the mean degree the model builds and the replicate index, so
results are reproducible and independent of worker scheduling and of the
order of the probes. For ws that degree is the even lattice degree, not the
cell's k, so the k of one lattice step share their replicates.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .models import ModelSpec, built_degree, feasible, generate, substream_seed
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
        if self.max_sims < self.batch_size:
            raise ValueError("max_sims must be >= batch_size")
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
    sims: int  # replicate values used, some possibly computed for an earlier probe
    status: str  # hit_tolerance | ci_converged | decided


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
    cells: list[MapCell] = field(default_factory=list)


Sampler = Callable[[float, int, int], list[float]]

WARM_FACTOR = 1.5


def _uniqueness_of_spec(spec: ModelSpec) -> float:
    return neighborhood_uniqueness(generate(spec))


def model_sampler(
    family: str,
    n: int,
    seed: int,
    beta: float | None = None,
    jobs: int = 1,
) -> Sampler:
    """Sampler drawing uniqueness values from seeded model realizations.

    Replicate ``rep`` at degree k is the model built at
    :func:`models.built_degree` of k, so every ws k that rounds to one
    lattice shares its replicates. The sampler keeps each value it has
    computed and returns it again when asked, so a replicate is generated
    and certified once per sampler.
    """
    values: dict[tuple[float, int], float] = {}

    def sample(avg_degree: float, count: int, offset: int) -> list[float]:
        # raises on a degree a spec may not ask for, even if its lattice fits
        ModelSpec(family, n, avg_degree, seed, beta)
        degree = built_degree(family, avg_degree)
        reps = range(offset, offset + count)
        missing = [rep for rep in reps if (degree, rep) not in values]
        specs = [
            ModelSpec(
                family=family,
                n=n,
                avg_degree=degree,
                seed=substream_seed(seed, family, beta, n, degree, rep),
                beta=beta,
            )
            for rep in missing
        ]
        if jobs > 1 and len(specs) > 1:
            with multiprocessing.Pool(min(jobs, len(specs))) as pool:
                computed = pool.map(_uniqueness_of_spec, specs)
        else:
            computed = [_uniqueness_of_spec(s) for s in specs]
        values.update(((degree, rep), v) for rep, v in zip(missing, computed))
        return [values[degree, rep] for rep in reps]

    return sample


def _mean_sem(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, sem


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

    Cells that :func:`models.feasible` rules out are recorded as skipped
    rather than failing the whole sweep. Each size has one sampler, so ws
    cells of one lattice step are simulated once.
    """
    if not n_grid or not k_grid:
        raise ValueError("grids must be non-empty")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    cells = []
    for n in n_grid:
        sample = model_sampler(family, n, seed, beta, jobs)
        for k in k_grid:
            if not feasible(family, n, float(k)):
                cells.append(MapCell(n, float(k), math.nan, math.nan, 0, True))
                continue
            mean, sem = _mean_sem(sample(float(k), reps, 0))
            cells.append(MapCell(n, float(k), mean, sem, reps))
    return UniquenessMap(cells)


def _estimate_point(
    sample: Sampler, avg_degree: float, config: SearchConfig, z: float
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
        take = min(config.batch_size, config.max_sims - len(values))
        values.extend(sample(avg_degree, take, len(values)))


def boundary_search_fn(sample: Sampler, config: SearchConfig) -> SearchResult:
    """Stochastic binary search over an abstract uniqueness sampler.

    The sampler must be (stochastically) nondecreasing in mean degree over
    the configured interval. The endpoints are estimated like any probe and
    only decide the bracket: ``mean(k_lo) < target < mean(k_hi)``, or else
    :class:`BracketingError`. So k* lies strictly inside the bracket, with an
    evaluation on each side. The interval half-width is z standard errors,
    z the normal quantile of ``0.5 + confidence / 2`` from
    :class:`statistics.NormalDist` (Wichura's AS 241, within a few ulp of
    ``scipy.special.ndtri``).
    """
    z = NormalDist().inv_cdf(0.5 + config.confidence / 2.0)
    evaluations = [_estimate_point(sample, k, config, z) for k in (config.k_lo, config.k_hi)]
    lo_mean, hi_mean = evaluations[0].mean, evaluations[1].mean
    if not lo_mean < config.target < hi_mean:
        raise BracketingError(
            f"uniqueness must rise across target {config.target}: "
            f"{lo_mean:.4f} at k_lo, {hi_mean:.4f} at k_hi"
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


def warm_config(config: SearchConfig, k_star: float) -> SearchConfig | None:
    """``config`` with its bracket clipped to [k*/WARM_FACTOR, WARM_FACTOR k*], or None if empty."""
    k_lo, k_hi = max(config.k_lo, k_star / WARM_FACTOR), min(config.k_hi, k_star * WARM_FACTOR)
    return replace(config, k_lo=k_lo, k_hi=k_hi) if k_lo < k_hi else None


@dataclass(frozen=True)
class BoundaryFit:
    """Least-squares line through boundary points in log-log coordinates."""

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
    pts = sorted((float(n), float(k)) for n, k in points)
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    coeffs = np.polyfit(x, y, 1)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    residuals = (y - (slope * x + intercept)).tolist()
    return BoundaryFit(slope=slope, intercept=intercept, residuals=residuals)
