"""Seeded random-network generators parameterized by size and average degree.

Three families: Erdos-Renyi (independent edges), Watts-Strogatz (ring
lattice with rewiring), and a soft random geometric graph (points in the
unit square, distance cutoff with exponential acceptance). Watts-Strogatz
rewires in vectorized rounds that hold a pending edge's lattice pair and
skip sources with n - 1 neighbours. The geometric graph's radius solves
(n - 1) P(r) = k for the exact edge probability P, integrated against the
density of the distance between two uniform points in the unit square
(Philip 2007), so it needs no simulation and no cache.

All generators draw from numpy's PCG64 keyed by the spec seed and hand
their pairs to :meth:`Graph.from_edges`, so an identical spec reproduces a
byte-identical edge list. Substreams for sweeps are derived by hashing
the master seed together with the cell coordinates and replicate index
(BLAKE2b, 8-byte digest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np
from numpy.polynomial.legendre import leggauss
# numpy loads numpy.random on first use; importing it here keeps that load out
# of the first generator call
from numpy.random import PCG64, Generator

from .graph import Graph, _expand_runs

FAMILIES = ("er", "ws", "rgg")


def substream_seed(master: int, *tags) -> int:
    """Stable 64-bit child seed from a master seed and hashable tags."""
    payload = repr((int(master),) + tags).encode("utf-8")
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")


def rng_from(master: int, *tags) -> Generator:
    return Generator(PCG64(substream_seed(master, *tags)))


@dataclass(frozen=True)
class ModelSpec:
    """One network configuration: family, size, target mean degree, seed."""

    family: str
    n: int
    avg_degree: float
    seed: int
    beta: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (self.avg_degree >= 0.0 and feasible(self.family, self.n, self.avg_degree)):
            raise ValueError(
                f"avg_degree {self.avg_degree} infeasible for {self.family} at n={self.n}"
            )
        if self.family == "ws":
            if self.beta is None:
                raise ValueError("ws requires beta")
            if not (0.0 <= self.beta <= 1.0):
                raise ValueError("beta must lie in [0, 1]")
        elif self.beta is not None:
            raise ValueError(f"beta is only valid for ws, not {self.family}")


def lattice_degree(avg_degree: float) -> int:
    """WS ring-lattice degree: k rounded half up to an even integer, at least 2."""
    return max(2, 2 * math.floor(avg_degree / 2.0 + 0.5))


def built_degree(family: str, avg_degree: float) -> float:
    """Mean degree a spec of this family builds: the lattice degree for ws,
    the target itself for er and rgg."""
    return float(lattice_degree(avg_degree) if family == "ws" else avg_degree)


def feasible(family: str, n: int, avg_degree: float) -> bool:
    """Whether a spec may ask for this mean degree: at most n - 1, and for ws
    a lattice degree below n."""
    return avg_degree <= n - 1 and (family != "ws" or lattice_degree(avg_degree) < n)


def generate(spec: ModelSpec) -> Graph:
    """Generate one network realization; deterministic in the spec."""
    if spec.family == "er":
        return gen_er(spec)
    if spec.family == "ws":
        return gen_ws(spec)
    return gen_rgg(spec)


def _pair_index_to_edge(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert colex pair numbering: index t -> (i, j), i < j, t = C(j,2)+i."""
    j = ((1.0 + np.sqrt(1.0 + 8.0 * t.astype(np.float64))) / 2.0).astype(np.int64)
    # float sqrt can land one off; nudge back into C(j,2) <= t < C(j+1,2)
    too_big = j * (j - 1) // 2 > t
    j[too_big] -= 1
    too_small = (j + 1) * j // 2 <= t
    j[too_small] += 1
    i = t - j * (j - 1) // 2
    return i, j


def gen_er(spec: ModelSpec) -> Graph:
    """Connect each of the C(n,2) pairs independently with p = k/(n-1).

    Pairs are visited in colex order with geometric skips, so cost is
    proportional to the number of edges, not pairs.
    """
    n = spec.n
    npairs = n * (n - 1) // 2
    p = spec.avg_degree / (n - 1) if n > 1 else 0.0
    if npairs == 0 or p <= 0.0:
        t = np.empty(0, dtype=np.int64)
    elif p >= 1.0:
        t = np.arange(npairs, dtype=np.int64)
    else:
        rng = rng_from(spec.seed, "er", n, float(spec.avg_degree))
        log_q = math.log1p(-p)
        chunk = max(1024, int(p * npairs * 1.2) + 16)
        picked: list[np.ndarray] = []
        pos = 0
        while pos < npairs:
            u = 1.0 - rng.random(chunk)
            gaps = np.floor(np.log(u) / log_q).astype(np.int64)
            idx = pos + np.cumsum(gaps + 1) - 1
            inside = idx < npairs
            picked.append(idx[inside])
            if not inside.all():
                break
            pos = int(idx[-1]) + 1
        t = np.concatenate(picked)
    return Graph.from_edges(n, np.stack(_pair_index_to_edge(t), axis=1))


def gen_ws(spec: ModelSpec) -> Graph:
    """Ring lattice joined to K/2 neighbors per side, each edge rewired
    with probability beta to a uniform non-duplicate, non-self target.

    K is :func:`lattice_degree`: the target degree rounded half up to an
    even integer, at least 2, K = 2 floor(k/2 + 1/2). One draw per lattice
    edge (u, u + j mod n), j-major, picks the rewired ones. Each round,
    every pending edge draws a target w and is placed unless w = u, {u, w}
    is an edge, or an earlier edge drew {u, w} in the round. It holds its
    lattice pair until placed, and a source with n - 1 neighbours keeps its
    edge, so the rounds end on every feasible lattice.
    """
    n = spec.n
    half = lattice_degree(spec.avg_degree) // 2
    rng = rng_from(spec.seed, "ws", n, float(spec.avg_degree), float(spec.beta))
    u = np.tile(np.arange(n), half)
    v = (u + np.arange(1, half + 1).repeat(n)) % n
    pending = np.flatnonzero(rng.random(len(u)) < spec.beta)
    while len(pending):
        full = np.bincount(np.concatenate((u, v)), minlength=n) >= n - 1
        pending = pending[~full[u[pending]]]
        src = u[pending]
        w = rng.integers(0, n, size=len(pending))
        key = np.minimum(src, w) * n + np.maximum(src, w)
        edges = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        key, first = np.unique(key, return_index=True)  # first candidate per pair
        taken = edges[edges.searchsorted(key).clip(max=len(edges) - 1)] == key
        placed = first[(w[first] != src[first]) & ~taken]
        v[pending[placed]] = w[placed]
        pending = np.delete(pending, placed)
    return Graph.from_edges(n, np.stack((u, v), axis=1))


# P(r) = r^2 (_P2 + r (_P3 + r _P4)) for r <= 1 (see _edge_probability): the
# coefficients are 2 pi I_1, -8 I_2 and 2 I_3, I_m the integral of t^m e^(-3t)
# over [0, 1]
_P2 = 2.0 * math.pi * (1.0 - 4.0 * math.exp(-3.0)) / 9.0
_P3 = -16.0 * (1.0 - 8.5 * math.exp(-3.0)) / 27.0
_P4 = 4.0 * (1.0 - 13.0 * math.exp(-3.0)) / 27.0

# 16-point Gauss-Legendre rule on [0, 1] as (node, weight) pairs; exact to
# rounding for the smooth integrands of _edge_probability
_GAUSS = tuple(
    (0.5 * (x + 1.0), 0.5 * w) for x, w in zip(*(a.tolist() for a in leggauss(16)))
)


def _edge_probability(r: float) -> float:
    """P(r) = E[exp(-3D/r); D <= r], D the distance of two uniform points.

    D has density f(d) = 2d(pi - 4d + d^2) on [0, 1] and
    2d(4 asin(1/d) - pi - 2 + 4 sqrt(d^2 - 1) - d^2) on (1, sqrt 2]
    (Philip 2007, "The probability distribution of the distance between two
    random points in a box"). For r <= 1, d = r t makes P a quartic in r
    with constant coefficients. For r > 1, the pieces on [0, 1] and on
    (1, min(r, sqrt 2)] are summed by quadrature, the second in
    s = sqrt(d^2 - 1), which removes the square-root kink of f at d = 1.
    """
    if r <= 1.0:
        return r * r * (_P2 + r * (_P3 + r * _P4))
    a = 3.0 / r
    s_max = math.sqrt(min(r * r, 2.0) - 1.0)
    total = 0.0
    for x, w in _GAUSS:
        inner = 2.0 * x * (math.pi - 4.0 * x + x * x) * math.exp(-a * x)
        s = s_max * x
        # f(d) dd in s; 4 asin(1/d) - pi = pi - 4 atan(s)
        outer = 2.0 * s * (math.pi - 3.0 - 4.0 * math.atan(s) + 4.0 * s - s * s)
        total += w * (inner + s_max * outer * math.exp(-a * math.sqrt(1.0 + s * s)))
    return total


def calibrated_radius(n: int, avg_degree: float) -> float:
    """Cutoff radius whose expected mean degree is exactly the target.

    Solves (n - 1) P(r) = avg_degree by bisection down to adjacent floats,
    with P the exact edge probability of :func:`_edge_probability`, so the
    radius is a deterministic function of (n, avg_degree) alone. P(r) < 1
    for every finite r, so the complete-graph target avg_degree = n - 1
    gives r = inf, at which every pair is joined.

    Raises:
        ValueError: if n < 2 or avg_degree lies outside (0, n - 1].
    """
    if n < 2 or not 0.0 < avg_degree <= n - 1:
        raise ValueError(f"no radius for mean degree {avg_degree} at n={n}")
    p = avg_degree / (n - 1)
    if p >= _edge_probability(math.inf):
        return math.inf
    lo, hi = 0.0, 1.0
    # terminates: once exp(-3d/hi) rounds to 1, P(hi) is computed as P(inf)
    while _edge_probability(hi) < p:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _edge_probability(mid) < p:
            lo = mid
        else:
            hi = mid


def _pairs_within(pts: np.ndarray, r: float) -> np.ndarray:
    """Index pairs (i, j), i < j, of the 2-d points at distance <= r.

    The points are binned in a side x side grid of square cells at least r
    wide, side at most sqrt(n) so the cells number O(n), and sorted by cell,
    column by column. A point's partners within r then lie in two runs of
    the sorted order: the rest of its own cell with the cell above it, and
    the three touching cells of the next column. A candidate pair is kept
    when dx*dx + dy*dy <= r*r in float64, the test scipy's cKDTree makes.
    Candidates come in blocks from :func:`graph._expand_runs`, so the
    transient arrays stay bounded as r grows.
    """
    n = len(pts)
    # the factor keeps cells wider than r when pts * side rounds to a neighbor
    side = max(1, min(math.isqrt(n), int(1.0 / (r * 1.000001))))
    cx, cy = np.minimum((pts * side).astype(np.int64), side - 1).T
    cell = cx * side + cy
    order = np.argsort(cell)
    cell, row, x, y = cell[order], cy[order], pts[order, 0], pts[order, 1]
    # one empty column past the last, so the next-column run of the last
    # column indexes cells that hold no point
    counts = np.bincount(cell, minlength=side * side + side + 1)
    ends = np.cumsum(counts)
    up = (row < side - 1).astype(np.int64)
    down = (row > 0).astype(np.int64)
    run_lo = np.stack((np.arange(1, n + 1), (ends - counts)[cell + side - down]), axis=1)
    run_hi = np.stack((ends[cell + up], ends[cell + side + up]), axis=1)
    run_len = (run_hi - run_lo).ravel()
    found = [np.zeros((0, 2), np.int64)]
    for a, b in _expand_runs(np.arange(n).repeat(2), run_lo.ravel(), run_len):
        dx, dy = x[a] - x[b], y[a] - y[b]
        near = dx * dx + dy * dy <= r * r
        i, j = order[a[near]], order[b[near]]
        found.append(np.stack((np.minimum(i, j), np.maximum(i, j)), axis=1))
    return np.concatenate(found)


def gen_rgg(spec: ModelSpec) -> Graph:
    """Soft random geometric graph on n uniform points in the unit square.

    A pair at distance d <= r is connected with probability exp(-3d/r), and
    r is :func:`calibrated_radius`, at which the expected mean degree equals
    the target exactly. The pairs within r come from the cell grid of
    :func:`_pairs_within`, ordered by (i, j) before the acceptance draws.
    """
    n = spec.n
    if spec.avg_degree <= 0.0 or n < 2:
        return Graph.from_edges(n, [])
    r = calibrated_radius(n, spec.avg_degree)
    rng = rng_from(spec.seed, "rgg", n, float(spec.avg_degree))
    pts = rng.random((n, 2))
    pairs = _pairs_within(pts, r)
    # one key i*n + j per pair sorts in (i, j) order
    keys = pairs[:, 0] * n + pairs[:, 1]
    keys.sort()
    i, j = np.divmod(keys, n)
    d = np.linalg.norm(pts[i] - pts[j], axis=1)
    keep = rng.random(len(keys)) < np.exp(-3.0 * d / r)
    return Graph.from_edges(n, np.stack((i[keep], j[keep]), axis=1))
