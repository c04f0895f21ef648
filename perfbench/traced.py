"""One traced CLI invocation, run in a fresh interpreter by run.py.

Usage: python3 perfbench/traced.py SEED [CLI ARGS...]

Runs ``cli.main`` unchanged, with span wrappers installed on the module
attributes through which the package calls into each layer: the leaves
(``models.calibrated_radius``, ``sweep.generate``,
``uniqueness.neighborhood_edge_sets``, ``uniqueness.certificate_from_edges``,
``sampling.sample_edges``, ``sampling.triangle_count``), the uniqueness
entry point as ``sweep`` and ``sampling`` see it, and the library calls
``cli.py`` makes. The package looks these names up at call time, so its own
``uniqueness_map``, ``sampling_report`` and ``boundary_search_fn`` run
as they are. Every workload runs serially (``--jobs 1``); for a boundary
search the traced sampler, ``sweep.model_sampler`` at jobs=1 with a counter,
is passed to ``sweep.boundary_search_fn``. The outputs must be the same bytes
as the untraced run's; run.py compares them. Spans are recorded from this
file only: nothing inside the package is timed.

While it runs, it also checks certificates against networkx VF2++ on a sample
of node pairs per graph, drawn from SEED, and computes the share of
neighbourhoods whose cheap invariant collides. That work sits in
``trace.check`` spans, which are subtracted from the traced wall time.

Prints one JSON line with the per-layer figures, the traced wall time and
the check counts.
"""

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

import netuniq.cli as cli
import netuniq.models as models
import netuniq.sampling as sampling
import netuniq.sweep as sweep
import netuniq.uniqueness as uniqueness
from netuniq.graph import neighborhood

# VF2 pairs checked per graph, for each of the two kinds
PAIRS_PER_GRAPH = 3


class Tracer:
    """Span totals and self times per name, plus counters."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = Counter()
        self._children = []

    @contextmanager
    def span(self, name):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, time.perf_counter() - t0, self._children.pop())

    def leaf(self, name, dur):
        """A span without children, timed by the caller on a hot path."""
        self._close(name, dur, 0.0)

    def _close(self, name, dur, child):
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._children:
            self._children[-1] += dur


class VF2Check:
    """Certificate equality must be exactly isomorphism, on sampled pairs.

    Uses networkx's VF2++ (``vf2pp_is_isomorphic``). Plain VF2
    (``is_isomorphic``) did not finish within almost five minutes on one pair
    of ER n=6000 k=64 neighbourhoods, forests of many small interchangeable
    components with the same degree sequence; VF2++ settles such pairs in
    milliseconds.
    """

    def __init__(self, seed):
        import networkx as nx

        self._nx = nx
        self._rng = np.random.default_rng(seed)
        self.pairs = 0
        self.failures = []

    def _nx_graph(self, g, v):
        """Neighbourhood of ``v`` without its isolated nodes, and their count.

        VF2 backtracks through the arrangements of interchangeable parts when
        two graphs differ, so isolated nodes are compared by count instead.
        """
        sub = neighborhood(g, v)
        h = self._nx.Graph(list(sub.edges()))
        return h, sub.n - h.number_of_nodes()

    def _pick(self, groups):
        """Two distinct members of a random group of at least two."""
        group = groups[int(self._rng.integers(len(groups)))]
        i, j = self._rng.choice(len(group), size=2, replace=False)
        return group[int(i)], group[int(j)]

    def check_graph(self, g, certs, invariants):
        same = [vs for vs in _groups(certs) if len(vs) > 1]
        nontrivial = [vs for vs in same if invariants[vs[0]][1] > 0]
        # different certificates but equal (size, edge count): prefer pairs
        # that also share the degree sequence, since VF2 rejects the rest at once
        hard = _split_by_certificate(_groups(invariants), certs) or _split_by_certificate(
            _groups(inv[:2] for inv in invariants), certs
        )
        for _ in range(PAIRS_PER_GRAPH):
            if same:
                u, v = self._pick(nontrivial or same)
                self._compare(g, u, v, True)
            if hard:
                # one representative per certificate, so the pair differs
                u, v = self._pick(hard)
                self._compare(g, u, v, False)

    def _compare(self, g, u, v, expect):
        self.pairs += 1
        (gu, isolated_u), (gv, isolated_v) = self._nx_graph(g, u), self._nx_graph(g, v)
        if gu.number_of_nodes() == 0 or gv.number_of_nodes() == 0:
            # VF2++ calls two empty graphs non-isomorphic
            same = gu.number_of_nodes() == gv.number_of_nodes()
        else:
            same = self._nx.vf2pp_is_isomorphic(gu, gv)
        if (isolated_u == isolated_v and same) != expect:
            self.failures.append([u, v, expect])


def _groups(keys):
    """Node lists of equal key, for keys given in node order."""
    by_key = defaultdict(list)
    for v, key in enumerate(keys):
        by_key[key].append(v)
    return list(by_key.values())


def _split_by_certificate(groups, certs):
    """Per group, one node of each certificate; groups with a single one drop."""
    out = []
    for vs in groups:
        first = {}
        for v in vs:
            first.setdefault(certs[v], v)
        if len(first) > 1:
            out.append(list(first.values()))
    return out


def _invariant(size, edges):
    deg = [0] * size
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return size, len(edges), tuple(sorted(deg))


class Spans:
    """Span wrappers for the package's layer boundaries.

    ``install`` replaces each module attribute in ``WRAPPED`` with the method
    of the same name, which calls the package's original function.
    """

    WRAPPED = {
        models: ("calibrated_radius",),
        sweep: ("generate", "neighborhood_uniqueness"),
        uniqueness: ("neighborhood_edge_sets", "certificate_from_edges"),
        sampling: ("sample_edges", "triangle_count", "neighborhood_uniqueness"),
        cli: ("load_edge_list_file", "boundary_search", "uniqueness_map", "sampling_report"),
    }

    def __init__(self, tracer, vf2):
        self.tr = tracer
        self.vf2 = vf2
        self.orig = {}
        self.calibrated = set()
        self.nodes = 0
        self.colliding = 0
        self._certs = self._invariants = None

    def install(self):
        for module, names in self.WRAPPED.items():
            for name in names:
                # AttributeError if the package no longer calls through this name
                self.orig[module.__name__, name] = getattr(module, name)
                setattr(module, name, getattr(self, name))

    def _call(self, module, name, *args, **kwargs):
        return self.orig[module.__name__, name](*args, **kwargs)

    # -- models ------------------------------------------------------------

    def calibrated_radius(self, n, avg_degree):
        with self.tr.span("models.calibrate"):
            r = self._call(models, "calibrated_radius", n, avg_degree)
        self.calibrated.add((n, float(avg_degree)))
        return r

    def generate(self, spec):
        with self.tr.span("models.generate"):
            g = self._call(sweep, "generate", spec)
        self.tr.count["models.graphs"] += 1
        self.tr.count["models.edges"] += g.m
        return g

    # -- graph and canon: per-neighbourhood leaves --------------------------

    def neighborhood_edge_sets(self, g):
        tr, clock = self.tr, time.perf_counter
        stream = self._call(uniqueness, "neighborhood_edge_sets", g)
        while True:
            t0 = clock()
            item = next(stream, None)
            tr.leaf("graph.extract", clock() - t0)
            if item is None:
                return
            yield item

    def certificate_from_edges(self, size, edges):
        tr, clock = self.tr, time.perf_counter
        t0 = clock()
        cert = self._call(uniqueness, "certificate_from_edges", size, edges)
        t1 = clock()
        self._certs.append(cert)
        self._invariants.append(_invariant(size, edges))
        tr.leaf("canon.certify", t1 - t0)
        tr.leaf("trace.check", clock() - t1)
        return cert

    # -- uniqueness: the self time of this span is the aggregation ----------

    def _uniqueness(self, module, g):
        self._certs, self._invariants = [], []
        with self.tr.span("uniqueness.aggregate"):
            value = self._call(module, "neighborhood_uniqueness", g)
        certs, invariants = self._certs, self._invariants
        with self.tr.span("trace.check"):
            self.tr.count["graph.extract_edges"] += sum(inv[1] for inv in invariants)
            self.tr.count["canon.certify_calls"] += len(certs)
            inv_count = Counter(invariants)
            self.nodes += len(invariants)
            self.colliding += sum(1 for inv in invariants if inv_count[inv] > 1)
            self.vf2.check_graph(g, certs, invariants)
        return value

    def neighborhood_uniqueness(self, g):
        # sweep and sampling bind the same method; both originals are one function
        return self._uniqueness(sweep, g)

    # -- sampling ----------------------------------------------------------

    def sample_edges(self, g, plan):
        with self.tr.span("sampling.sample"):
            sampled = self._call(sampling, "sample_edges", g, plan)
        self.tr.count["sampling.edges_kept"] += sampled.m
        return sampled

    def triangle_count(self, g):
        with self.tr.span("graph.triangles"):
            return self._call(sampling, "triangle_count", g)

    # -- the library calls cli.py makes ------------------------------------

    def load_edge_list_file(self, path):
        with self.tr.span("graph.ingest"):
            return self._call(cli, "load_edge_list_file", path)

    def boundary_search(self, family, n, config, seed, beta=None, jobs=1):
        serial = sweep.model_sampler(family, n, seed, beta, 1)

        def sample(avg_degree, count, offset):
            self.tr.count["sweep.sims"] += count
            return serial(avg_degree, count, offset)

        with self.tr.span("sweep.search"):
            result = sweep.boundary_search_fn(sample, config)
        self.tr.count["sweep.probes"] += len(result.evaluations)
        return result

    def uniqueness_map(self, family, n_grid, k_grid, reps, seed, beta=None, jobs=1):
        with self.tr.span("sweep.search"):
            result = self._call(cli, "uniqueness_map", family, n_grid, k_grid, reps, seed, beta, 1)
        cells = [c for c in result.cells if not c.skipped]
        self.tr.count["sweep.probes"] += len(cells)
        self.tr.count["sweep.sims"] += sum(c.reps for c in cells)
        return result

    def sampling_report(self, g, *args, **kwargs):
        with self.tr.span("sampling.report"):
            return self._call(cli, "sampling_report", g, *args, **kwargs)

    def layers(self):
        """Per-layer figures of this invocation; run.py adds the overhead,
        which needs the untraced wall time."""
        total, own, count = self.tr.total, self.tr.self_time, self.tr.count
        return {
            "models.calibrate_s": total["models.calibrate"],
            "models.calibrate_calls": len(self.calibrated),
            "models.generate_s": own["models.generate"],
            "models.graphs": count["models.graphs"],
            "models.edges": count["models.edges"],
            "graph.extract_s": total["graph.extract"],
            "graph.extract_edges": count["graph.extract_edges"],
            "graph.ingest_s": total["graph.ingest"],
            "graph.triangles_s": total["graph.triangles"],
            "canon.certify_s": total["canon.certify"],
            "canon.certify_calls": count["canon.certify_calls"],
            "canon.collide_share": self.colliding / self.nodes if self.nodes else 0.0,
            "uniqueness.aggregate_s": own["uniqueness.aggregate"],
            "sampling.sample_s": total["sampling.sample"],
            "sampling.edges_kept": count["sampling.edges_kept"],
            "sweep.probes": count["sweep.probes"],
            "sweep.sims": count["sweep.sims"],
            "sweep.search_self_s": own["sweep.search"],
            "cli.self_s": own["cli.main"],
        }


def main() -> int:
    seed, argv = int(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    vf2 = VF2Check(seed)
    spans = Spans(tracer, vf2)
    spans.install()
    with tracer.span("cli.main"):
        rc = cli.main(argv)
    print(
        json.dumps(
            {
                "module": cli.__file__,
                "rc": rc,
                "layers": spans.layers(),
                "traced_wall_s": tracer.total["cli.main"] - tracer.total["trace.check"],
                "vf2_pairs": vf2.pairs,
                "vf2_failures": vf2.failures,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
