"""Occurrence frequencies and the uniqueness scalars."""

import itertools

import numpy as np
import pytest

from netuniq.canon import certificate
from netuniq.graph import Graph, load_edge_list, neighborhood
from netuniq.models import ModelSpec, generate
from netuniq.uniqueness import (
    degree_uniqueness,
    neighborhood_uniqueness,
    nonempty_fraction,
    occurrence_frequencies,
    uniqueness_report,
)
from reference import are_isomorphic_oracle, relabel


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def complete(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


class TestOccurrenceFrequencies:
    def test_complete_graph(self):
        assert occurrence_frequencies(complete(4)) == [4, 4, 4, 4]

    def test_star(self):
        g = load_edge_list("c a\nc b\nc d")
        assert occurrence_frequencies(g) == [1, 3, 3, 3]

    def test_path(self):
        g = load_edge_list("a b\nb c")
        assert occurrence_frequencies(g) == [2, 1, 2]

    def test_every_node_counts_itself(self):
        g = random_graph(25, 0.2, seed=4)
        assert all(o >= 1 for o in occurrence_frequencies(g))

    def test_class_sizes_sum_to_n(self):
        g = random_graph(30, 0.15, seed=5)
        occ = occurrence_frequencies(g)
        classes = {}
        for v in range(g.n):
            classes.setdefault(certificate(neighborhood(g, v)), []).append(v)
        assert sum(len(members) for members in classes.values()) == g.n
        for members in classes.values():
            for v in members:
                assert occ[v] == len(members)


class TestNeighborhoodUniqueness:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_complete_graph_is_zero(self, n):
        assert neighborhood_uniqueness(complete(n)) == 0.0

    def test_path_is_one_third(self):
        assert neighborhood_uniqueness(load_edge_list("a b\nb c")) == pytest.approx(1 / 3)

    def test_ring_lattice_is_zero(self):
        g = generate(ModelSpec("ws", 24, 4.0, seed=0, beta=0.0))
        assert neighborhood_uniqueness(g) == 0.0


class TestDegreeUniqueness:
    def test_regular_graph_is_zero(self):
        ring = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
        assert degree_uniqueness(ring) == 0.0

    def test_star(self):
        assert degree_uniqueness(load_edge_list("c a\nc b\nc d")) == 0.25

    def test_path(self):
        assert degree_uniqueness(load_edge_list("a b\nb c")) == pytest.approx(1 / 3)


class TestNonemptyFraction:
    def test_tree_is_zero(self):
        rng = np.random.default_rng(6)
        n = 30
        edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
        frac, table = nonempty_fraction(Graph.from_edges(n, edges))
        assert frac == 0.0
        assert all(v == 0.0 for v in table.values())

    def test_triangle_with_pendant(self):
        g = load_edge_list("a b\nb c\na c\na d")
        frac, table = nonempty_fraction(g)
        assert frac == 0.75
        assert table == {1: 0.0, 2: 1.0, 3: 1.0}

    def test_complete_is_one(self):
        frac, _ = nonempty_fraction(complete(4))
        assert frac == 1.0


class TestInvariants:
    def test_neighborhood_dominates_degree_uniqueness(self):
        rng = np.random.default_rng(11)
        for fam, beta in [("er", None), ("ws", 0.5), ("rgg", None)]:
            for _ in range(8):
                n = int(rng.integers(40, 150))
                k = float(rng.integers(1, 12))
                g = generate(
                    ModelSpec(fam, n, k, seed=int(rng.integers(1 << 40)), beta=beta)
                )
                assert neighborhood_uniqueness(g) >= degree_uniqueness(g)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        g = random_graph(28, 0.2, seed=13)
        perm = list(rng.permutation(g.n))
        h = relabel(g, perm)
        assert neighborhood_uniqueness(h) == neighborhood_uniqueness(g)
        assert degree_uniqueness(h) == degree_uniqueness(g)
        assert nonempty_fraction(h)[0] == nonempty_fraction(g)[0]
        assert sorted(occurrence_frequencies(h)) == sorted(occurrence_frequencies(g))

    def test_grouping_matches_pairwise_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(15):
            n = int(rng.integers(4, 9))
            g = random_graph(n, rng.random(), seed=int(rng.integers(1 << 30)))
            occ = occurrence_frequencies(g)
            hoods = [neighborhood(g, v) for v in range(n)]
            for v in range(n):
                expected = sum(
                    1 for u in range(n) if are_isomorphic_oracle(hoods[v], hoods[u])
                )
                assert occ[v] == expected

    def test_empty_neighborhoods_reduce_to_degree_uniqueness(self):
        # forests have no triangles, so N_delta = 0 forces U_N == U_k
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(10, 50))
            edges = [
                (int(rng.integers(0, i)), i) for i in range(1, n) if rng.random() < 0.8
            ]
            g = Graph.from_edges(n, edges)
            frac, _ = nonempty_fraction(g)
            assert frac == 0.0
            assert neighborhood_uniqueness(g) == degree_uniqueness(g)


class TestReport:
    def test_report_consistency(self):
        g = random_graph(40, 0.15, seed=16)
        rep = uniqueness_report(g)
        assert rep.occurrence == occurrence_frequencies(g)
        assert rep.neighborhood_uniqueness == neighborhood_uniqueness(g)
        assert rep.degree_uniqueness == degree_uniqueness(g)
        frac, table = nonempty_fraction(g)
        assert rep.nonempty_fraction == frac
        assert rep.nonempty_by_degree == table

    def test_to_dict_per_node_flag(self):
        g = load_edge_list("a b\nb c")
        assert "occurrence" not in uniqueness_report(g).to_dict()
        assert uniqueness_report(g).to_dict(include_per_node=True)["occurrence"] == [2, 1, 2]

    def test_isolated_nodes_share_one_class(self):
        g = Graph.from_edges(5, [(0, 1)])
        occ = occurrence_frequencies(g)
        assert occ == [2, 2, 3, 3, 3]
