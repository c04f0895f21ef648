"""Ingestion, neighborhoods, and summary statistics."""

import itertools
import logging
from collections.abc import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netuniq.graph as graph_module
import reference
from netuniq.canon import certificate
from netuniq.graph import (
    Graph,
    load_edge_list,
    neighborhood,
    neighborhood_edge_sets,
    summary_stats,
    triangle_count,
    triangles_per_node,
)
from netuniq.models import ModelSpec, generate
from netuniq.sampling import SamplingPlan, sample_edges

TRIANGLE = "a b\nb c\na c"


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestLoadEdgeList:
    def test_triangle(self):
        g = load_edge_list(TRIANGLE)
        assert (g.n, g.m) == (3, 3)
        assert g.labels == ["a", "b", "c"]

    def test_duplicates_and_self_loops_dropped(self):
        g = load_edge_list("a b\na b\na a")
        assert (g.n, g.m) == (2, 1)

    def test_dropped_counts_logged(self, caplog):
        with caplog.at_level(logging.WARNING, logger="netuniq.graph"):
            g = load_edge_list("a b\na b\na a\nb a")
        assert (g.n, g.m) == (2, 1)
        assert "dropped 2 duplicate edge(s) and 1 self-loop(s)" in caplog.text

    def test_symmetrized(self):
        g = load_edge_list("a b\nb a")
        assert g.m == 1

    def test_comments_and_blanks_ignored(self):
        g = load_edge_list("# header\n\na b\n  \n# tail\nb c\n")
        assert (g.n, g.m) == (3, 2)

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list("a b\na b c")

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty"):
            load_edge_list("# nothing here\n")

    def test_first_appearance_indexing(self):
        g = load_edge_list("x y\ny z")
        assert g.labels == ["x", "y", "z"]
        assert g.neighbors(1) == [0, 2]


class TestNeighborhood:
    def test_triangle_corner(self):
        g = load_edge_list(TRIANGLE)
        nb = neighborhood(g, 0)
        assert (nb.n, nb.m) == (2, 1)

    def test_star_center(self):
        g = load_edge_list("c a\nc b\nc d")
        nb = neighborhood(g, 0)
        assert (nb.n, nb.m) == (3, 0)

    def test_isolated_node(self):
        g = Graph.from_edges(1, [])
        nb = neighborhood(g, 0)
        assert (nb.n, nb.m) == (0, 0)

    def test_out_of_range(self):
        g = load_edge_list(TRIANGLE)
        with pytest.raises(IndexError):
            neighborhood(g, 3)

    def test_size_equals_degree(self):
        g = random_graph(30, 0.2, seed=1)
        for v in range(g.n):
            assert neighborhood(g, v).n == g.degree(v)

    def test_label_stable_under_relabeling(self):
        # per-node neighborhoods of a permuted graph are isomorphic to the originals
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            g = random_graph(n, rng.random(), seed=int(rng.integers(1 << 30)))
            perm = list(rng.permutation(n))
            h = reference.relabel(g, perm)
            for v in range(n):
                assert certificate(neighborhood(g, v)) == certificate(
                    neighborhood(h, perm[v])
                )


class TestSummaryStats:
    def test_triangle(self):
        s = summary_stats(load_edge_list(TRIANGLE))
        assert (s.n, s.m, s.avg_degree, s.clustering) == (3, 3, 2.0, 1.0)

    def test_path(self):
        s = summary_stats(load_edge_list("a b\nb c"))
        assert (s.n, s.m, s.clustering) == (3, 2, 0.0)
        assert s.avg_degree == pytest.approx(4 / 3)

    def test_degree_sum_is_twice_edges(self):
        g = random_graph(60, 0.1, seed=2)
        assert sum(g.degrees()) == 2 * g.m

    def test_clustering_matches_triangle_enumeration(self):
        # independent oracle: count triangles by iterating all vertex triples
        for seed in range(5):
            g = random_graph(40, 0.15, seed=seed)
            tri = [0] * g.n
            for a, b, c in itertools.combinations(range(g.n), 3):
                if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
                    tri[a] += 1
                    tri[b] += 1
                    tri[c] += 1
            assert triangles_per_node(g) == tri
            expect = 0.0
            for v in range(g.n):
                k = g.degree(v)
                if k >= 2:
                    expect += 2 * tri[v] / (k * (k - 1))
            assert summary_stats(g).clustering == pytest.approx(expect / g.n)
            assert triangle_count(g) == sum(tri) // 3


class TestFromEdges:
    def test_pairs_and_array_give_the_same_graph(self):
        pairs = [(2, 0), (0, 2), (1, 1), (3, 1), (2, 0)]
        for g in (Graph.from_edges(4, pairs), Graph.from_edges(4, np.array(pairs))):
            assert (g.n, g.m) == (4, 2)
            assert list(g.edges()) == [(0, 2), (1, 3)]
            assert g.indptr.tolist() == [0, 1, 2, 3, 4]
            assert g.indices.tolist() == [2, 3, 0, 1]

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        raw=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=60),
    )
    def test_matches_reference(self, n, raw):
        # pairs in both directions, repeated, and self-loops
        pairs = [(u % n, v % n) for u, v in raw]
        g = Graph.from_edges(n, pairs)
        expect = reference.neighbor_lists(n, pairs)
        assert [g.neighbors(v) for v in range(n)] == expect
        assert g.m == sum(map(len, expect)) // 2
        assert list(g.edges()) == [(u, v) for u in range(n) for v in expect[u] if v > u]

    def test_generator_input(self):
        g = Graph.from_edges(5, ((v, v + 1) for v in range(4)))
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
        assert [g.degree(v) for v in range(5)] == [1, 2, 2, 2, 1]

    @pytest.mark.parametrize("edges", [[(7, 7), (0, 1)], [(0, 1), (0, 3)], [(-1, 2)]])
    def test_out_of_range_raises(self, edges):
        # a self-loop is range-checked before it is dropped
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, edges)

    @pytest.mark.parametrize(
        "edges", [[(0, 1, 2), (1, 2, 3)], [(0, 1.5)], np.array([[0.0, 1.0]]), [("0", "1")]]
    )
    def test_non_integer_pairs_raise(self, edges):
        with pytest.raises(ValueError, match="integer pairs"):
            Graph.from_edges(4, edges)

    def test_arrays_read_only(self):
        for g in (generate(ModelSpec("er", 200, 6.0, 1)), load_edge_list(TRIANGLE)):
            assert not g.indptr.flags.writeable
            assert not g.indices.flags.writeable
            with pytest.raises(ValueError):
                g.indices[0] = 0


def test_clustering_summed_left_to_right():
    # the mean is the node loop's left-to-right sum, bit for bit; numpy's
    # pairwise sum differs in the last digit on this graph
    g = generate(ModelSpec("rgg", 1000, 12.0, 3))
    tri = triangles_per_node(g)
    total = 0.0
    for v in range(g.n):
        k = g.degree(v)
        if k >= 2:
            total += 2.0 * tri[v] / (k * (k - 1))
    assert summary_stats(g).clustering == total / g.n


def test_edges_sorted_and_unique():
    g = random_graph(25, 0.3, seed=3)
    edges = list(g.edges())
    assert edges == sorted(edges)
    assert len(edges) == len(set(edges)) == g.m


def assert_matches_reference(g):
    assert list(neighborhood_edge_sets(g)) == list(reference.neighborhood_edge_sets(g))
    assert triangles_per_node(g) == reference.triangles_per_node(g)


def forward_wedges(g):
    # wedges the kernel tests: pairs of higher-indexed neighbors of each node
    return sum(
        len(f) * (len(f) - 1) // 2
        for f in ([w for w in g.neighbors(v) if w > v] for v in range(g.n))
    )


class TestTriangleKernel:
    """The numpy kernel against the plain loops in ``tests/reference.py``."""

    @pytest.mark.parametrize(
        "family,n,k",
        [
            ("er", 300, 4), ("er", 300, 12), ("er", 300, 40),
            ("ws", 200, 4), ("ws", 200, 10), ("ws", 200, 24),
            ("rgg", 300, 5), ("rgg", 300, 15), ("rgg", 300, 40),
        ],
    )
    def test_model_graphs(self, family, n, k):
        beta = 0.5 if family == "ws" else None
        for seed in range(2):
            assert_matches_reference(generate(ModelSpec(family, n, k, seed, beta)))

    def test_wedges_spanning_many_blocks(self):
        g = generate(ModelSpec("er", 2000, 40, 7))
        assert forward_wedges(g) > 5 * graph_module._WEDGE_BLOCK
        assert_matches_reference(g)

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_tiny_blocks(self, monkeypatch, block):
        # block edges fall inside rows, and single entries exceed the block
        monkeypatch.setattr(graph_module, "_WEDGE_BLOCK", block)
        for seed in range(3):
            assert_matches_reference(random_graph(40, 0.3, seed))
        assert_matches_reference(generate(ModelSpec("rgg", 150, 12, 3)))

    def test_sampled_graphs(self):
        for family in ("er", "rgg"):
            g = generate(ModelSpec(family, 500, 20, 11))
            for rate in (0.2, 0.5, 0.9):
                for mode in ("bernoulli", "exact-count"):
                    assert_matches_reference(
                        sample_edges(g, SamplingPlan(rate=rate, mode=mode, seed=5))
                    )

    def test_edge_cases(self):
        n = 12
        triangles = [(t + a, t + b) for t in range(0, n, 3) for a, b in [(0, 1), (1, 2), (0, 2)]]
        k4 = [(3 + a, 3 + b) for a, b in itertools.combinations(range(4), 2)]
        pendants = [(v, 7 + v) for v in range(7)]  # one on each node of a triangle and a K4
        cases = [
            Graph.from_edges(0, []),
            Graph.from_edges(1, []),
            Graph.from_edges(n, []),
            Graph.from_edges(n, list(itertools.combinations(range(n), 2))),
            Graph.from_edges(n, [(0, v) for v in range(1, n)]),
            Graph.from_edges(n, [(v, v + 1) for v in range(0, n, 2)]),
            Graph.from_edges(n, triangles),
            Graph.from_edges(14, [(0, 1), (1, 2), (0, 2)] + k4 + pendants),
        ]
        for g in cases:
            assert_matches_reference(g)
        assert list(neighborhood_edge_sets(cases[0])) == []
        assert triangles_per_node(cases[0]) == []
        assert triangles_per_node(cases[3]) == [55] * n

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=14),
        edge_bits=st.integers(min_value=0, max_value=(1 << 91) - 1),
    )
    def test_random_small_graphs(self, n, edge_bits):
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if edge_bits >> i & 1]
        )
        assert_matches_reference(g)

    def test_listing_made_once_per_graph(self):
        g = generate(ModelSpec("rgg", 300, 15, 4))
        listing = graph_module._triangles(g)
        triangle_count(g)
        summary_stats(g)
        list(neighborhood_edge_sets(g))
        assert graph_module._triangles(g) is listing
        assert not any(arr.flags.writeable for arr in listing)

    def test_stream_is_an_iterator(self):
        stream = neighborhood_edge_sets(load_edge_list(TRIANGLE))
        assert isinstance(stream, Iterator)
        assert next(stream) == (2, [(0, 1)])
        assert len(list(stream)) == 2
