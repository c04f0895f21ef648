"""Certificate exactness against the brute-force isomorphism oracle."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netuniq.canon import certificate, certificate_from_edges
from netuniq.graph import Graph
from reference import are_isomorphic_oracle, relabel


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        )


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


class TestCertificateBasics:
    def test_relabeled_triangle_matches(self):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        for perm in itertools.permutations(range(3)):
            assert certificate(relabel(tri, perm)) == certificate(tri)

    def test_path3_differs_from_triangle(self):
        tri = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        path = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert certificate(tri) != certificate(path)

    def test_all_4_node_graphs_give_11_classes(self):
        certs = {certificate(g) for g in all_labeled_graphs(4)}
        assert len(certs) == 11

    def test_edgeless_depends_only_on_node_count(self):
        for n in range(0, 6):
            assert certificate(Graph.from_edges(n, [])) == certificate_from_edges(n, [])
        assert certificate_from_edges(3, []) != certificate_from_edges(4, [])

    def test_byte_stability(self):
        # encoding is a contract: pin a few values so any change is loud
        assert certificate_from_edges(3, []).hex() == "000000050000000003"
        assert certificate_from_edges(4, [(0, 1)]).hex() == "00000009010000000400000001"


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("n,expected_classes", [(1, 1), (2, 2), (3, 4), (4, 11)])
    def test_partitions_match_oracle(self, n, expected_classes):
        groups = {}
        graphs = []
        for g in all_labeled_graphs(n):
            graphs.append(g)
            groups.setdefault(certificate(g), []).append(len(graphs) - 1)
        assert len(groups) == expected_classes
        reps = []
        for idxs in groups.values():
            rep = graphs[idxs[0]]
            reps.append(rep)
            for i in idxs[1:]:
                assert are_isomorphic_oracle(graphs[i], rep)
        for a, b in itertools.combinations(reps, 2):
            assert not are_isomorphic_oracle(a, b)


class TestOracle:
    def test_empty_graphs_match(self):
        e3 = Graph.from_edges(3, [])
        assert are_isomorphic_oracle(e3, Graph.from_edges(3, []))

    def test_star_vs_path(self):
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert not are_isomorphic_oracle(star, path)

    def test_size_cap(self):
        big = Graph.from_edges(11, [])
        with pytest.raises(ValueError):
            are_isomorphic_oracle(big, big)

    def test_random_pairs_match_certificate_equality(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            g1 = random_graph(6, rng.random(), rng)
            g2 = random_graph(6, rng.random(), rng)
            assert are_isomorphic_oracle(g1, g2) == (
                certificate(g1) == certificate(g2)
            )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    edge_bits=st.integers(min_value=0),
    perm_seed=st.integers(min_value=0, max_value=2**31),
)
def test_certificate_invariant_under_relabeling(n, edge_bits, perm_seed):
    pairs = list(itertools.combinations(range(n), 2))
    g = Graph.from_edges(
        n, [pairs[i] for i in range(len(pairs)) if edge_bits >> i & 1]
    )
    perm = list(np.random.default_rng(perm_seed).permutation(n))
    assert certificate(relabel(g, perm)) == certificate(g)


class TestLargeNeighborhoodScale:
    """Certificates of realistic worst-case neighborhoods stay cheap."""

    def test_sparse_thousand_node_graph(self):
        rng = np.random.default_rng(3)
        g = random_graph(1000, 6 / 999, rng)
        start = time.time()
        certificate(g)
        assert time.time() - start < 20.0

    def test_structured_thousand_node_graphs(self):
        n = 1000
        cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        star = Graph.from_edges(n, [(0, i) for i in range(1, n)])
        complete_block = Graph.from_edges(
            300, [(i, j) for i in range(300) for j in range(i + 1, 300)]
        )
        start = time.time()
        certs = {certificate(cycle), certificate(star), certificate(complete_block)}
        assert len(certs) == 3
        assert time.time() - start < 10.0


def shrikhande():
    # Cayley graph of Z4 x Z4 with connection set {±(1,0), ±(0,1), ±(1,1)}
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    return [
        (4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
        for a in range(4) for b in range(4) for x, y in steps
    ]


def rook_4x4():
    cells = list(itertools.product(range(4), repeat=2))
    return [
        (4 * a + b, 4 * c + d)
        for (a, b), (c, d) in itertools.combinations(cells, 2)
        if a == c or b == d
    ]


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return [(i, j) for i, j in itertools.combinations(range(q), 2) if (j - i) % q in squares]


def cfi(base_edges, twisted):
    """Cai-Furer-Immerman graph over a base graph; ``twisted`` flips one edge."""
    incident = {}
    for e in base_edges:
        for v in e:
            incident.setdefault(v, []).append(e)
    ids = {}

    def node(key):
        return ids.setdefault(key, len(ids))

    edges = []
    for v, es in incident.items():
        for size in range(0, len(es) + 1, 2):
            for subset in itertools.combinations(es, size):
                middle = node(("m", v, subset))
                edges += [(middle, node(("a", v, e, int(e in subset)))) for e in es]
    for i, (u, v) in enumerate(base_edges):
        flip = int(twisted and i == 0)
        for bit in (0, 1):
            edges.append((node(("a", u, (u, v), bit)), node(("a", v, (u, v), bit ^ flip))))
    return len(ids), edges


class TestNetworkxDifferential:
    """Certificate equality against VF2++ on families that defeat refinement."""

    @pytest.fixture
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def agree(nx, n1, e1, n2, e2):
        g1, g2 = nx.Graph(), nx.Graph()
        g1.add_nodes_from(range(n1))
        g1.add_edges_from(e1)
        g2.add_nodes_from(range(n2))
        g2.add_edges_from(e2)
        same = certificate(Graph.from_edges(n1, e1)) == certificate(Graph.from_edges(n2, e2))
        assert same == nx.vf2pp_is_isomorphic(g1, g2)
        return same

    @staticmethod
    def shuffled(n, edges, seed):
        perm = np.random.default_rng(seed).permutation(n)
        return [(int(perm[u]), int(perm[v])) for u, v in edges]

    def test_shrikhande_vs_rook(self, nx):
        assert not self.agree(nx, 16, shrikhande(), 16, rook_4x4())

    @pytest.mark.parametrize("q", [13, 29, 101])
    def test_paley_vs_relabeling(self, nx, q):
        edges = paley(q)
        assert self.agree(nx, q, edges, q, self.shuffled(q, edges, q))

    def test_random_cubic(self, nx):
        a = [tuple(e) for e in nx.random_regular_graph(3, 200, seed=1).edges()]
        b = [tuple(e) for e in nx.random_regular_graph(3, 200, seed=2).edges()]
        assert self.agree(nx, 200, a, 200, self.shuffled(200, a, 3))
        assert not self.agree(nx, 200, a, 200, b)

    def test_cfi_pair(self, nx):
        k4 = list(itertools.combinations(range(4), 2))
        n, plain = cfi(k4, twisted=False)
        _, twisted = cfi(k4, twisted=True)
        assert not self.agree(nx, n, plain, n, twisted)
        assert self.agree(nx, n, plain, n, self.shuffled(n, plain, 4))
