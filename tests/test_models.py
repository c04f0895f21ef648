"""Generator determinism, distributional checks, and calibration contracts."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.spatial import cKDTree

import netuniq.graph as graph_module
from netuniq.canon import certificate
from netuniq.graph import neighborhood, summary_stats
from netuniq.models import (
    ModelSpec,
    _edge_probability,
    _pair_index_to_edge,
    _pairs_within,
    calibrated_radius,
    feasible,
    gen_er,
    gen_rgg,
    gen_ws,
    generate,
)

from reference import (
    calibration_clouds,
    cloud_degrees,
    monte_carlo_radius,
    square_distance_density,
)


def edge_text(g):
    return "\n".join(f"{u} {v}" for u, v in g.edges())


class TestModelSpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ModelSpec("ba", 10, 2.0, seed=0)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            ModelSpec("er", 10, 9.5, seed=0)
        with pytest.raises(ValueError):
            ModelSpec("er", 10, -1.0, seed=0)

    def test_feasibility_rule(self):
        assert feasible("er", 10, 9.0) and not feasible("er", 10, 9.5)
        # ws also needs its even lattice degree below n: k=8.9 rounds to 8, k=9 to 10
        assert feasible("ws", 10, 8.9) and not feasible("ws", 10, 9.0)
        with pytest.raises(ValueError, match="infeasible"):
            ModelSpec("ws", 10, 9.0, seed=0, beta=0.5)

    def test_beta_only_for_ws(self):
        with pytest.raises(ValueError):
            ModelSpec("er", 10, 2.0, seed=0, beta=0.5)
        with pytest.raises(ValueError):
            ModelSpec("ws", 10, 2.0, seed=0)  # beta missing
        with pytest.raises(ValueError):
            ModelSpec("ws", 10, 2.0, seed=0, beta=1.5)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec("er", 300, 6.0, seed=99),
            ModelSpec("ws", 300, 6.0, seed=99, beta=0.4),
            ModelSpec("rgg", 300, 6.0, seed=99),
        ],
    )
    def test_same_spec_same_edges(self, spec):
        assert edge_text(generate(spec)) == edge_text(generate(spec))

    @pytest.mark.parametrize(
        "spec,digest",
        [
            (
                ModelSpec("er", 3000, 20.0, seed=9),
                "74295ec8c9ac2ea298e070810d9331d4b8810d0176c16c035d8add3554eb3e3a",
            ),
            (
                ModelSpec("ws", 3000, 12.0, seed=9, beta=0.3),
                "26b5efbfeafba3d40e1b2ddbc3d1647ea33cb174bfa2fed1354ebcf131032aa6",
            ),
            (
                ModelSpec("rgg", 2000, 30.0, seed=9),
                "155946db2d4319e15f1e28f97bc4a32f23827e3a4ccbe930507bed02bd80982f",
            ),
        ],
    )
    def test_edge_list_bytes_pinned(self, spec, digest):
        # SHA-256 of the edge-list text: a generator or constructor change that
        # alters any edge list must update these digests on purpose
        text = edge_text(generate(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_different_seed_different_edges(self):
        a = generate(ModelSpec("er", 300, 6.0, seed=1))
        b = generate(ModelSpec("er", 300, 6.0, seed=2))
        assert edge_text(a) != edge_text(b)


class TestErdosRenyi:
    def test_zero_degree_is_edgeless(self):
        g = gen_er(ModelSpec("er", 50, 0.0, seed=0))
        assert (g.n, g.m) == (50, 0)

    def test_full_degree_is_complete(self):
        g = gen_er(ModelSpec("er", 20, 19.0, seed=0))
        assert g.m == 190

    def test_mean_degree_across_seeds(self):
        n, k, seeds = 1000, 10.0, 50
        realized = [
            2 * gen_er(ModelSpec("er", n, k, seed=s)).m / n for s in range(seeds)
        ]
        p = k / (n - 1)
        npairs = n * (n - 1) / 2
        se_single = 2 * math.sqrt(npairs * p * (1 - p)) / n
        assert abs(np.mean(realized) - k) <= 3 * se_single / math.sqrt(seeds)

    def test_degree_distribution_goodness_of_fit(self):
        n, k = 1000, 10.0
        g = gen_er(ModelSpec("er", n, k, seed=424242))
        degrees = np.array(g.degrees())
        pmf = stats.binom.pmf(np.arange(n), n - 1, k / (n - 1))
        # pool the tails so every bin expects >= 5 counts
        lo = int(np.searchsorted(np.cumsum(pmf), 5 / n))
        hi = int(np.searchsorted(np.cumsum(pmf), 1 - 5 / n))
        observed = np.zeros(hi - lo + 2)
        expected = np.zeros(hi - lo + 2)
        observed[0] = np.sum(degrees < lo)
        expected[0] = pmf[:lo].sum() * n
        observed[-1] = np.sum(degrees > hi)
        expected[-1] = pmf[hi + 1 :].sum() * n
        for d in range(lo, hi + 1):
            observed[d - lo + 1] = np.sum(degrees == d)
            expected[d - lo + 1] = pmf[d] * n
        result = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert result.pvalue > 0.01

    def test_pair_index_decode_matches_enumeration(self):
        n = 40
        expected = [(i, j) for j in range(n) for i in range(j)]
        t = np.arange(n * (n - 1) // 2, dtype=np.int64)
        i, j = _pair_index_to_edge(t)
        assert list(zip(i.tolist(), j.tolist())) == expected

    def test_pair_index_decode_large_values(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 2 * 10**8, size=2000, dtype=np.int64)
        i, j = _pair_index_to_edge(t)
        assert np.all(i < j)
        assert np.all(j * (j - 1) // 2 + i == t)


class TestWattsStrogatz:
    def test_lattice_degrees(self):
        g = gen_ws(ModelSpec("ws", 10, 4.0, seed=0, beta=0.0))
        assert g.degrees() == [4] * 10

    def test_lattice_is_vertex_transitive(self):
        g = gen_ws(ModelSpec("ws", 30, 6.0, seed=0, beta=0.0))
        certs = {certificate(neighborhood(g, v)) for v in range(g.n)}
        assert len(certs) == 1

    def test_odd_degree_rounds_to_even(self):
        # half up: every odd integer k builds the lattice of degree k + 1
        for k in (3, 5, 13, 15, 17):
            g = gen_ws(ModelSpec("ws", 30, float(k), seed=0, beta=0.0))
            assert set(g.degrees()) == {k + 1}, k

    def test_lattice_degree_cap(self):
        with pytest.raises(ValueError):
            gen_ws(ModelSpec("ws", 6, 5.9, seed=0, beta=0.0))

    def test_full_rewiring_clusters_like_er(self):
        # beta=1 keeps each node's outgoing stub count, so it is not literally
        # G(n, p); clustering still collapses to the random-graph level.
        n, k, seeds = 600, 10.0, 20
        ws = np.array(
            [
                summary_stats(
                    gen_ws(ModelSpec("ws", n, k, seed=100 + s, beta=1.0))
                ).clustering
                for s in range(seeds)
            ]
        )
        er = np.array(
            [
                summary_stats(gen_er(ModelSpec("er", n, k, seed=200 + s))).clustering
                for s in range(seeds)
            ]
        )
        sem = math.sqrt(ws.var(ddof=1) / seeds + er.var(ddof=1) / seeds)
        margin = max(3 * sem, 0.15 * er.mean())
        assert abs(ws.mean() - er.mean()) <= margin
        lattice_c = summary_stats(gen_ws(ModelSpec("ws", n, k, seed=0, beta=0.0))).clustering
        assert ws.mean() < 0.1 * lattice_c


class TestRandomGeometric:
    def test_calibration_contract(self):
        n, k = 2000, 10.0
        realized = [
            2 * gen_rgg(ModelSpec("rgg", n, k, seed=500 + s)).m / n for s in range(10)
        ]
        assert abs(np.mean(realized) - k) / k <= 0.02

    def test_single_realization_near_target(self):
        g = gen_rgg(ModelSpec("rgg", 2000, 10.0, seed=501))
        assert 9.8 <= 2 * g.m / g.n <= 10.2

    def test_near_complete_limit(self):
        # forcing the target to n-1 drives the radius far past the square
        g = gen_rgg(ModelSpec("rgg", 40, 39.0, seed=0))
        assert g.m >= 0.95 * (40 * 39 / 2)

    def test_calibrated_radius_deterministic_and_cached(self):
        r1 = calibrated_radius(500, 7.0)
        r2 = calibrated_radius(500, 7.0)
        assert r1 == r2
        assert r1 > math.sqrt(7.0 / (math.pi * 499))

    def test_density_integrates_to_one(self):
        a, _ = integrate.quad(square_distance_density, 0.0, 1.0, epsabs=1e-14)
        b, _ = integrate.quad(square_distance_density, 1.0, math.sqrt(2.0), epsabs=1e-14)
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_density_matches_sampled_distances(self):
        rng = np.random.default_rng(2007)
        d = np.linalg.norm(rng.random((20000, 2)) - rng.random((20000, 2)), axis=1)
        edges = np.concatenate([np.linspace(0.0, 1.0, 21), np.linspace(1.05, math.sqrt(2.0), 8)])
        expected = [
            integrate.quad(square_distance_density, a, b)[0] * len(d)
            for a, b in zip(edges[:-1], edges[1:])
        ]
        observed, _ = np.histogram(d, bins=edges)
        assert sum(expected) == pytest.approx(len(d), rel=1e-9)
        assert stats.chisquare(observed, expected).pvalue > 0.01

    @pytest.mark.parametrize("r", [0.05, 0.3, 0.9, 1.0, 1.1, 1.3, 1.5, 5.78, 40.0])
    def test_edge_probability_matches_quadrature(self, r):
        def integrand(d):
            return math.exp(-3.0 * d / r) * square_distance_density(d)

        top = min(r, math.sqrt(2.0))
        expected = integrate.quad(integrand, 0.0, min(top, 1.0), epsabs=1e-15)[0]
        if top > 1.0:
            expected += integrate.quad(integrand, 1.0, top, epsabs=1e-15)[0]
        assert _edge_probability(r) == pytest.approx(expected, rel=1e-10)

    def test_edge_probability_continuous_and_nondecreasing(self):
        assert _edge_probability(1.0 + 1e-12) - _edge_probability(1.0) == pytest.approx(
            0.0, abs=1e-11
        )
        assert _edge_probability(1.0) - _edge_probability(1.0 - 1e-12) == pytest.approx(
            0.0, abs=1e-11
        )
        rs = np.concatenate([np.geomspace(1e-4, 1e4, 4001), 1.0 + np.linspace(-1e-6, 1e-6, 201)])
        p = np.array([_edge_probability(float(r)) for r in np.sort(rs)])
        assert np.all(np.diff(p) >= 0.0)

    def test_edge_probability_tends_to_one(self):
        # P(r) = 1 - 3 E[D] / r + O(1/r^2) for large r
        mean_distance = (2.0 + math.sqrt(2.0) + 5.0 * math.asinh(1.0)) / 15.0
        assert _edge_probability(1e3) == pytest.approx(1.0 - 3.0 * mean_distance / 1e3, abs=1e-5)
        assert _edge_probability(1e9) == pytest.approx(1.0, abs=1e-8)
        assert _edge_probability(math.inf) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "n,k", [(150, 2.0), (200, 7.0), (500, 7.0), (2000, 10.0), (10000, 30.0), (40, 30.0)]
    )
    def test_radius_inverts_edge_probability(self, n, k):
        r = calibrated_radius(n, k)
        assert (n - 1) * _edge_probability(r) == pytest.approx(k, rel=1e-9)

    def test_radius_beyond_unit_distance(self):
        # a target edge probability above P(1) = 0.2695 needs r > 1
        r = calibrated_radius(40, 30.0)
        assert r == pytest.approx(5.78, abs=0.01)
        realized = [2 * gen_rgg(ModelSpec("rgg", 40, 30.0, seed=s)).m / 40 for s in range(40)]
        assert abs(np.mean(realized) - 30.0) <= 0.5

    def test_complete_target_joins_every_pair(self):
        assert calibrated_radius(40, 39.0) == math.inf
        assert gen_rgg(ModelSpec("rgg", 40, 39.0, seed=3)).m == 40 * 39 // 2

    @pytest.mark.parametrize("n,k", [(200, 7.0), (2000, 10.0)])
    def test_radius_agrees_with_monte_carlo(self, n, k):
        r = calibrated_radius(n, k)
        r_mc = monte_carlo_radius(n, k)
        clouds = calibration_clouds(n, k)
        trees = [cKDTree(c) for c in clouds]
        degrees = cloud_degrees(trees, clouds, r_mc)
        sem = float(np.std(degrees, ddof=1)) / math.sqrt(len(degrees))
        # the clouds' sampling error and the estimator's 0.5% stopping band,
        # read as a radius error through d log P / d log r >= 1
        assert abs(r / r_mc - 1.0) <= (4.0 * sem + 0.005 * k) / k
        # at r itself the clouds' mean degree estimates (n - 1) P(r) = k
        assert abs(np.mean(cloud_degrees(trees, clouds, r)) - k) <= 4.0 * sem

    def test_local_clustering_stays_high(self):
        vals = [
            summary_stats(gen_rgg(ModelSpec("rgg", 5000, 10.0, seed=700 + s))).clustering
            for s in range(2)
        ]
        assert np.mean(vals) > 0.2

    def test_zero_degree(self):
        g = gen_rgg(ModelSpec("rgg", 30, 0.0, seed=0))
        assert g.m == 0


def sorted_pairs(pairs):
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def assert_pairs_match_kdtree(pts, r):
    got = _pairs_within(pts, r)
    assert got.shape[1] == 2 and np.all(got[:, 0] < got[:, 1])
    want = cKDTree(pts).query_pairs(r, output_type="ndarray")
    np.testing.assert_array_equal(sorted_pairs(got), sorted_pairs(want))


class TestPairsWithin:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_clouds_match_kdtree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 3000))
        k = float(rng.uniform(0.1, min(n - 1, 200)))
        assert_pairs_match_kdtree(rng.random((n, 2)), calibrated_radius(n, k))

    @pytest.mark.parametrize("n,r", [(2, 0.5), (2, math.inf), (300, 1.5), (300, math.inf)])
    def test_wide_radius_and_two_points(self, monkeypatch, n, r):
        pts = np.random.default_rng(n).random((n, 2))
        assert_pairs_match_kdtree(pts, r)
        # at r > 1 a point's run holds the rest of the cloud, longer than a tiny block
        for block in (1, 2, 5, 64):
            monkeypatch.setattr(graph_module, "_WEDGE_BLOCK", block)
            assert_pairs_match_kdtree(pts, r)

    @pytest.mark.parametrize(
        "r", [1 / 16, 2 / 16, math.sqrt(2) / 16, 0.3, 1.0, 1.5, math.inf]
    )
    def test_lattice_ties_match_kdtree(self, r):
        # a 17 x 17 lattice of step 1/16 puts many pairs exactly at distance r
        g = np.arange(17) / 16.0
        assert_pairs_match_kdtree(np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2), r)

    def test_tiny_radius_keeps_cells_bounded_by_n(self):
        # at k = 0.01 cells r wide would number about 1.1 million, 56 per point;
        # capping the grid at n cells keeps the peak to the candidate blocks
        n = 20000
        pts = np.random.default_rng(7).random((n, 2))
        r = calibrated_radius(n, 0.01)
        tracemalloc.start()
        try:
            _pairs_within(pts, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600 * n
        assert_pairs_match_kdtree(pts, r)


def test_single_node_graphs():
    for fam, beta in [("er", None)]:
        g = generate(ModelSpec(fam, 1, 0.0, seed=0, beta=beta))
        assert (g.n, g.m) == (1, 0)
