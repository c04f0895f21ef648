"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s``. The statistical criteria
use fixed master seeds, so every run is reproducible; tolerances are pinned
here and nowhere else.
"""

import itertools
import json
import math
import os

import numpy as np
import pytest

from netuniq.canon import certificate
from netuniq.cli import main as cli_main
from netuniq.er_theory import (
    argmax_degree_uniqueness,
    expected_degree_uniqueness,
    expected_nonempty_fraction,
)
from netuniq.graph import Graph, load_edge_list_file, triangle_count
from netuniq.models import ModelSpec, gen_er, gen_rgg, generate, rng_from, substream_seed
from netuniq.sampling import SamplingPlan, sample_edges, sampling_report
from netuniq.sweep import SearchConfig, boundary_search, boundary_search_fn
from netuniq.uniqueness import (
    degree_uniqueness,
    neighborhood_uniqueness,
    nonempty_fraction,
    uniqueness_report,
)
from reference import are_isomorphic_oracle

JOBS = min(2, os.cpu_count() or 1)


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def test_01_er_degree_uniqueness_closed_form_vs_simulation():
    """Monte Carlo degree uniqueness tracks the closed form at every grid point."""
    n, reps, master = 100, 400, 101
    worst = 0.0
    for k in range(5, 100, 5):
        values = []
        for rep in range(reps):
            seed = substream_seed(master, "er", None, n, float(k), rep)
            values.append(degree_uniqueness(gen_er(ModelSpec("er", n, float(k), seed=seed))))
        values = np.asarray(values)
        sem = values.std(ddof=1) / math.sqrt(reps)
        z = abs(float(values.mean()) - expected_degree_uniqueness(n, float(k))) / sem
        worst = max(worst, z)
    verdict(1, worst <= 3.0, f"n={n}, 19 grid points x {reps} seeds, worst |z|={worst:.2f} (<= 3)")


def test_02_er_nonempty_fraction_closed_form_vs_simulation():
    """Monte Carlo non-empty-neighborhood fraction matches the expectation."""
    n, reps, master = 1000, 20, 77
    worst = 0.0
    for k in [2.0, 5.0, 10.0, 20.0, 40.0]:
        values = []
        for rep in range(reps):
            seed = substream_seed(master, "er", None, n, k, rep)
            values.append(nonempty_fraction(gen_er(ModelSpec("er", n, k, seed=seed)))[0])
        values = np.asarray(values)
        sem = values.std(ddof=1) / math.sqrt(reps)
        gap = abs(float(values.mean()) - expected_nonempty_fraction(n, k))
        # 1e-6 floor: at k=40 every simulated fraction is exactly 1 while the
        # expectation is below 1 by ~4e-10 (degree<=1 probability), so sem=0
        excess = gap - (3.0 * sem + 1e-6)
        worst = max(worst, excess)
    verdict(2, worst <= 0.0, f"n={n}, 5 degrees x {reps} seeds, all within 3 SEM (+1e-6 floor)")


def test_03_degree_uniqueness_argmax_at_half_max_degree():
    """The analytic curve peaks at (n-1)/2 on a 0.5-resolution grid."""
    offsets = {}
    for n in [50, 100, 200]:
        peak = argmax_degree_uniqueness(n, resolution=0.5)
        offsets[n] = abs(peak - (n - 1) / 2)
    ok = all(v <= 0.5 for v in offsets.values())
    verdict(3, ok, f"peak offsets from (n-1)/2: {offsets} (<= grid resolution 0.5)")


def test_04_isomorphism_kernel_exactness():
    """Certificate partitions equal oracle partitions on all graphs up to n=5."""
    expected_counts = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for n, expected in expected_counts.items():
        pairs = list(itertools.combinations(range(n), 2))
        graphs = []
        groups = {}
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            graphs.append(g)
            groups.setdefault(certificate(g), []).append(len(graphs) - 1)
        assert len(groups) == expected, f"n={n}: {len(groups)} classes != {expected}"
        reps = []
        for idxs in groups.values():
            rep = graphs[idxs[0]]
            reps.append(rep)
            for i in idxs[1:]:
                assert are_isomorphic_oracle(graphs[i], rep), f"n={n}: class member not isomorphic to representative"
        for a, b in itertools.combinations(reps, 2):
            assert not are_isomorphic_oracle(a, b), f"n={n}: two classes are isomorphic"
    verdict(4, True, "all labeled graphs n<=5: certificate partition == oracle partition, counts 1,2,4,11,34")


def test_05_neighborhood_uniqueness_dominates_degree_uniqueness():
    """U_N >= U_k with zero violations over 200 sparse graphs per family."""
    master = 505
    violations = 0
    checked = 0
    for family, beta in [("er", None), ("ws", 0.5), ("rgg", None)]:
        rng = rng_from(master, "grid", family)
        for i in range(200):
            n = int(rng.choice([64, 128, 256]))
            k = float(rng.integers(1, 16))
            seed = substream_seed(master, family, beta, n, k, i)
            g = generate(ModelSpec(family, n, k, seed=seed, beta=beta))
            checked += 1
            if neighborhood_uniqueness(g) < degree_uniqueness(g):
                violations += 1
    verdict(5, violations == 0, f"{checked} graphs across er/ws/rgg, {violations} violations of U_N >= U_k")


def test_06_rgg_transition_between_sparse_and_dense():
    """RGG at n=2000: anonymous at mean degree 2, exposed at 30."""
    n, reps, master = 2000, 10, 606
    means = {}
    for k in [2.0, 30.0]:
        vals = [
            neighborhood_uniqueness(
                gen_rgg(ModelSpec("rgg", n, k, seed=substream_seed(master, "rgg", None, n, k, rep)))
            )
            for rep in range(reps)
        ]
        means[k] = float(np.mean(vals))
    ok = means[2.0] < 0.2 and means[30.0] > 0.9
    verdict(6, ok, f"RGG n={n}: mean U_N(k=2)={means[2.0]:.3f} (<0.2), U_N(k=30)={means[30.0]:.3f} (>0.9)")


def test_07_boundary_band_and_model_ordering():
    """Boundary degrees at n=10000 sit in the risk band and order as expected."""
    n, master = 10000, 4242
    k_star = {}
    for family, beta, lo, hi in [
        ("rgg", None, 1.0, 30.0),
        ("ws", 0.5, 2.0, 30.0),
        ("er", None, 1.0, 80.0),
    ]:
        cfg = SearchConfig(k_lo=lo, k_hi=hi)
        k_star[family] = boundary_search(family, n, cfg, seed=master, beta=beta, jobs=JOBS).k_star
    slack = 1.0  # combined search tolerance: 0.02 in U_N maps to < 1 degree here
    in_band = 4.0 <= k_star["rgg"] <= 25.0 and 4.0 <= k_star["ws"] <= 25.0
    ordered = (
        k_star["rgg"] <= k_star["ws"] + slack and k_star["ws"] <= k_star["er"] + slack
    )
    verdict(
        7,
        in_band and ordered,
        "k* at n=10000: rgg=%.2f, ws=%.2f, er=%.2f (rgg/ws in [4,25]; rgg<=ws<=er)"
        % (k_star["rgg"], k_star["ws"], k_star["er"]),
    )


def test_08_stochastic_search_on_noisy_logistic():
    """The search pins a noisy logistic crossing within 0.5 in >= 95/100 trials."""
    midpoint, sigma = 10.0, 0.02
    hits = 0
    for trial in range(100):
        rng = rng_from(808, "logistic", trial)

        def sample(k, count, offset):
            base = 1.0 / (1.0 + math.exp(-(k - midpoint)))
            return list(base + rng.normal(0.0, sigma, count))

        res = boundary_search_fn(sample, SearchConfig(k_lo=1.0, k_hi=30.0))
        hits += abs(res.k_star - midpoint) <= 0.5
    verdict(8, hits >= 95, f"noisy logistic: {hits}/100 trials within 0.5 of the true crossing")


def test_09_estimator_unbiasedness():
    """Corrected degree/triangle estimators center on the truth; exact at s=1.

    The per-rate gate tests the node-averaged degree estimator at 3 SEM
    (testing all 500 nodes simultaneously at 3 SEM would false-fail ~98% of
    the time); individual nodes are bounded at 4.5 sigma, which keeps the
    familywise false-failure rate around 1%.
    """
    g = gen_er(ModelSpec("er", 500, 10.0, seed=909))
    true_degrees = np.asarray(g.degrees(), dtype=np.float64)
    true_triangles = float(triangle_count(g))
    resamples = 1000
    details = []
    for s in [0.3, 0.5, 0.7]:
        per_node = np.empty((resamples, g.n))
        tri = np.empty(resamples)
        for t in range(resamples):
            sg = sample_edges(g, SamplingPlan(rate=s, seed=substream_seed(909, "rs", s, t)))
            per_node[t] = np.asarray(sg.degrees(), dtype=np.float64) / s
            tri[t] = triangle_count(sg) / s**3
        grand = per_node.mean(axis=1)
        z_deg = abs(grand.mean() - true_degrees.mean()) / (grand.std(ddof=1) / math.sqrt(resamples))
        z_tri = abs(tri.mean() - true_triangles) / (tri.std(ddof=1) / math.sqrt(resamples))
        node_z = np.abs(per_node.mean(axis=0) - true_degrees) / (
            per_node.std(axis=0, ddof=1) / math.sqrt(resamples)
        )
        details.append((s, z_deg, z_tri, float(node_z.max())))
        assert z_deg <= 3.0 and z_tri <= 3.0 and node_z.max() <= 4.5, details
    identity = sample_edges(g, SamplingPlan(rate=1.0, seed=1))
    exact = (
        np.array_equal(np.asarray(identity.degrees(), float), true_degrees)
        and triangle_count(identity) == true_triangles
    )
    assert exact
    summary = "; ".join("s=%.1f: z_deg=%.2f z_tri=%.2f max node z=%.2f" % d for d in details)
    verdict(9, True, summary + "; s=1 errors exactly 0")


def test_10_sampling_report_shape_on_rgg():
    """Uniqueness falls monotonically (within noise) from >0.9 to <0.2."""
    n, k, runs, master = 2000, 30.0, 5, 1010
    per_rate: dict[float, list[float]] = {}
    for run in range(runs):
        g = gen_rgg(ModelSpec("rgg", n, k, seed=substream_seed(master, "net", run)))
        report = sampling_report(g, seed=substream_seed(master, "rep", run))
        for row in report.rows:
            per_rate.setdefault(row.rate, []).append(row.uniqueness)
    rates = sorted(per_rate, reverse=True)
    means = {s: float(np.mean(per_rate[s])) for s in rates}
    sems = {s: float(np.std(per_rate[s], ddof=1) / math.sqrt(runs)) for s in rates}
    violations = sum(
        1
        for a, b in zip(rates, rates[1:])
        if means[b] > means[a] + 2.0 * (sems[a] + sems[b])
    )
    spans = means[rates[0]] > 0.9 and means[rates[-1]] < 0.2
    verdict(
        10,
        violations == 0 and spans,
        f"RGG(n={n}, k={k}): U_N {means[rates[0]]:.3f} -> {means[rates[-1]]:.3f}, "
        f"{violations} monotonicity violations beyond 2 SEM",
    )


def test_11_cli_determinism(tmp_path):
    """map/boundary/sample reruns with one manifest produce identical bytes."""
    edge_file = tmp_path / "net.txt"
    g = gen_er(ModelSpec("er", 150, 6.0, seed=11))
    edge_file.write_text("\n".join(f"{u} {v}" for u, v in g.edges()) + "\n")

    jobs = str(JOBS)
    commands = {
        "map": [
            "map", "--model", "er", "--n-grid", "60,120", "--k-grid", "1:4",
            "--reps", "3", "--seed", "99", "--jobs", jobs,
        ],
        "boundary": [
            "boundary", "--model", "er", "--n-grid", "200", "--k-lo", "2",
            "--k-hi", "25", "--batch", "3", "--max-sims", "6",
            "--min-width", "0.5", "--seed", "99", "--jobs", jobs,
        ],
        "sample": [
            "sample", "--input", str(edge_file), "--rate", "0.5", "--seed", "99",
        ],
    }
    primary = {"map": "map.csv", "boundary": "boundary.csv", "sample": "edges.txt"}
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        assert cli_main(argv + ["--out", str(out_a)]) == 0
        assert cli_main(argv + ["--out", str(out_b)]) == 0
        bytes_a = (out_a / primary[name]).read_bytes()
        bytes_b = (out_b / primary[name]).read_bytes()
        assert bytes_a == bytes_b, f"{name} outputs differ between identical runs"
        manifests = list(out_a.glob("manifest.json"))
        assert len(manifests) == 1
        assert json.loads(manifests[0].read_text())["parameters"]["seed"] == 99
    verdict(11, True, "map/boundary/sample reruns byte-identical; one manifest per directory")


STUDENT_COOP = os.environ.get("NETUNIQ_DATASET_STUDENT_COOP")


@pytest.mark.skipif(
    not STUDENT_COOP, reason="optional: set NETUNIQ_DATASET_STUDENT_COOP to an edge-list file"
)
def test_optional_student_cooperation_row():
    """Optional reference-network check (not a gate): known summary row."""
    g = load_edge_list_file(STUDENT_COOP)
    report = uniqueness_report(g)
    assert (g.n, g.m) == (185, 311)
    assert 2 * g.m / g.n == pytest.approx(3.362, abs=5e-4)
    assert abs(report.neighborhood_uniqueness - 0.037) <= 0.01
