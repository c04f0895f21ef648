"""Certificate exactness against the brute-force isomorphism oracle."""

import hashlib
import itertools
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netuniq import canon
from netuniq.canon import certificate, certificate_from_edges
from netuniq.graph import Graph
from netuniq.uniqueness import neighborhood_certificates, occurrence_frequencies
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

    def test_orientation_and_order_of_pairs_do_not_matter(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            n = int(rng.integers(2, 15))
            pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4]
            mixed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            rng.shuffle(mixed)
            assert certificate_from_edges(n, mixed) == certificate_from_edges(n, pairs)

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


def cfi(base_edges, twist=None):
    """Cai-Furer-Immerman graph over a base graph; ``twist`` indexes the one
    base edge whose gadget connection is flipped (None: no flip)."""
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
        flip = int(i == twist)
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

    @pytest.mark.parametrize(
        "base, vf2_refutes",
        [
            pytest.param(list(itertools.combinations(range(4), 2)), True, id="k4"),
            pytest.param([(a, b) for a in range(3) for b in range(3, 6)], False, id="k33"),
            pytest.param(
                [(i, (i + 1) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)]
                + [(i + 5, (i + 2) % 5 + 5) for i in range(5)],
                False,
                id="petersen",
            ),
        ],
    )
    def test_cfi_pair(self, nx, base, vf2_refutes):
        n, plain = cfi(base)
        _, twisted = cfi(base, twist=0)
        _, moved = cfi(base, twist=len(base) - 1)
        # over a connected base a twist changes the graph wherever it sits
        # (Cai, Furer and Immerman 1992); VF2++ takes exponential time to
        # confirm the change beyond K4
        assert certificate(Graph.from_edges(n, plain)) != certificate(Graph.from_edges(n, twisted))
        if vf2_refutes:
            assert not self.agree(nx, n, plain, n, twisted)
        assert self.agree(nx, n, plain, n, self.shuffled(n, plain, 4))
        assert self.agree(nx, n, twisted, n, self.shuffled(n, moved, 4))


def sparse_graph(n, rng):
    """ER-shaped: mean degree 0.2-1.6, so many isolated nodes and small trees."""
    p = rng.uniform(0.2, 1.6) / max(n - 1, 1)
    return random_graph(n, p, rng)


def random_forest(n, trees, rng):
    """Random forest of ``trees`` trees (``n - trees`` edges), labels shuffled."""
    perm = rng.permutation(n)
    edges = [(int(perm[v]), int(perm[rng.integers(0, v)])) for v in range(trees, n)]
    return Graph.from_edges(n, edges)


def swapped(g, rng, swaps=3):
    """Same degree sequence: a few double edge swaps (a-b, c-d to a-d, c-b)."""
    edges = set(g.edges())
    for _ in range(swaps * 10):
        if swaps == 0 or len(edges) < 2:
            break
        listed = sorted(edges)
        (a, b), (c, d) = (listed[i] for i in rng.choice(len(listed), 2, replace=False))
        new = {tuple(sorted(e)) for e in ((a, d), (c, b))}
        if len({a, b, c, d}) == 4 and not new & edges:
            edges -= {(a, b), (c, d)}
            edges |= new
            swaps -= 1
    return Graph.from_edges(g.n, sorted(edges))


class TestSparseGraphs:
    """Isolated nodes, forests and small components: the ER neighbourhood shape."""

    def test_pairs_match_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 11))
            g1 = sparse_graph(n, rng)
            g2 = swapped(g1, rng) if rng.random() < 0.5 else sparse_graph(n, rng)
            assert are_isomorphic_oracle(g1, g2) == (certificate(g1) == certificate(g2))

    def test_forests_match_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            trees = int(rng.integers(1, n + 1))
            g1, g2 = random_forest(n, trees, rng), random_forest(n, trees, rng)
            assert are_isomorphic_oracle(g1, g2) == (certificate(g1) == certificate(g2))

    def test_isolated_nodes_are_one_node_parts(self):
        # a union of two isolated nodes and a path: one part per component,
        # the one-node parts first
        path = [(0, 1), (1, 2)]
        body = (
            struct.pack(">BI", canon._TAG_UNION, 3)
            + certificate_from_edges(1, []) * 2
            + certificate_from_edges(3, path)
        )
        expected = struct.pack(">I", len(body)) + body
        assert certificate_from_edges(5, path) == expected
        assert certificate_from_edges(5, [(2, 4), (3, 4)]) == expected

    def test_networkx_differential(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(31)

        def agree(g1, g2):
            h1, h2 = nx.Graph(), nx.Graph()
            for h, g in ((h1, g1), (h2, g2)):
                h.add_nodes_from(range(g.n))
                h.add_edges_from(g.edges())
            same = certificate(g1) == certificate(g2)
            assert same == nx.vf2pp_is_isomorphic(h1, h2)
            return same

        outcomes = set()
        for _ in range(120):
            n = int(rng.integers(20, 61))
            if rng.random() < 0.5:
                g = sparse_graph(n, rng)
            else:
                g = random_forest(n, int(rng.integers(1, n // 2)), rng)
            assert agree(g, relabel(g, list(rng.permutation(n))))
            outcomes.add(agree(g, swapped(g, rng, swaps=int(rng.integers(1, 4)))))
        assert outcomes == {True, False}


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=40),
    perm_seed=st.integers(min_value=0, max_value=2**31),
)
def test_sparse_certificate_invariant_under_relabeling(n, pairs, perm_seed):
    g = Graph.from_edges(n, [(u % n, v % n) for u, v in pairs])
    perm = list(np.random.default_rng(perm_seed).permutation(n))
    assert certificate(relabel(g, perm)) == certificate(g)


def seeded_er():
    # ER shape: each neighbourhood has many isolated nodes and small trees
    rng = np.random.default_rng(101)
    n = 1500
    return Graph.from_edges(n, rng.integers(0, n, size=(15 * n, 2)).tolist())


def seeded_geometric():
    # points in the unit square joined within a radius: clustered neighbourhoods
    rng = np.random.default_rng(102)
    pts = rng.random((400, 2))
    close = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1)) < 0.1
    i, j = np.nonzero(np.triu(close, 1))
    return Graph.from_edges(400, zip(i.tolist(), j.tolist()))


def seeded_ring():
    # ring lattice of degree 8 with about a third of its edges rewired
    rng = np.random.default_rng(103)
    n = 300
    ring = [(v, (v + s) % n) for v in range(n) for s in range(1, 5)]
    rewired = rng.random(len(ring)) < 0.3
    targets = rng.integers(0, n, size=len(ring)).tolist()
    return Graph.from_edges(
        n, [(u, t) if r else (u, v) for (u, v), r, t in zip(ring, rewired, targets)]
    )


@pytest.mark.parametrize(
    "build,digest,partition",
    [
        (
            seeded_er,
            "0d7735dd087e85c57b744a1c4409f3a8ad4fe880fefaa5793f27bf39e9dd67a8",
            "f9fab45643b60c5ce445ccc4a633f3713d694523f544258507c349f8f7555f72",
        ),
        (
            seeded_geometric,
            "9f95081e9573cdd8e5713fc712829fd3a4b957645ac9f9958adfe2d808a898db",
            "2c64bae77417daa889e87c239e110759ac3bc593da5b0e9ac279608a40d59bd0",
        ),
        (
            seeded_ring,
            "7dd3234a53a0c7951ce3464e26e9af4249b87838004fe4bd9851de33769f1e9c",
            "10e7d84a6fb1fb337435087a93677cf0fe1cba8cbc76338409dec8e59beb047e",
        ),
    ],
    ids=["er", "geometric", "ring"],
)
def test_neighborhood_certificate_bytes_pinned(build, digest, partition):
    # the encoding is a contract: any change to the bytes of any part shows
    # here; the partition pin does not move when only the encoding changes
    g = build()
    assert hashlib.sha256(b"".join(neighborhood_certificates(g))).hexdigest() == digest
    assert hashlib.sha256(repr(occurrence_frequencies(g)).encode()).hexdigest() == partition


def test_module_state_stays_bounded():
    cache = canon._certify_component
    cache.cache_clear()
    for seed in range(3):
        # mean degree about 54: neighbourhoods of small trees in many shapes
        rng = np.random.default_rng(seed)
        n = 3000
        neighborhood_certificates(
            Graph.from_edges(n, rng.integers(0, n, size=(27 * n, 2)).tolist())
        )
    # no mutable container survives at module level (dunder names are the
    # module's own machinery, such as the builtins dict)
    state = {
        name: type(value).__name__
        for name, value in vars(canon).items()
        if not name.startswith("__") and isinstance(value, (dict, set, list))
    }
    assert state == {}
    info = cache.cache_info()
    assert info.misses > info.maxsize  # more distinct components than slots
    assert info.currsize <= info.maxsize
