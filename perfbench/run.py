"""End-to-end benchmark of the netuniq CLI, one workload per run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload boundary-rgg --seed 1 --seconds 28 --trace 0

Each run makes a fixed number of rounds of one workload: as many as fit in
``--seconds`` at the workload's nominal round time on the reference host, so
every commit runs the same rounds on the same inputs, however fast it is. A
round is one operation: a CLI invocation in a fresh interpreter, so the
per-process caches start cold as they do for users, followed by its output
checks. Every round draws its own inputs from ``--seed`` and the round index.

``--trace 0`` reports the end-to-end metrics: medians over the run's rounds,
except ``nbhd_per_s``, which is the whole run's neighbourhoods over its wall
time, and ``setup_s``, the fastest of the import-only probes and the rounds'
own starts. ``--trace 1`` pairs each untraced invocation with a traced one
(perfbench/traced.py) that must write the same bytes, and reports the
per-layer metrics instead; it makes half as many rounds, since each costs two
invocations.

A fixed pure-Python loop is timed before and after the run. Its times are
printed beside the metrics, not as metrics, so that a run on a slowed host
can be told apart from a slower program. The last line of standard output
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
# set-up probes (interpreter start plus import only) made before the rounds,
# and the time each is budgeted in a run
SETUP_PROBES = 3
NOMINAL_SETUP_S = 1.5
# one invocation may not run longer than this, and no round starts after the
# run has taken this long; a run must end within 180 s
INVOCATION_TIMEOUT_S = 150
RUN_CAP_S = 120

BOUNDARY_RGG_N = [150, 175, 200, 225]
BOUNDARY_WS_N = [500]
MAP_ER = {"n": [4000], "k": [32, 48], "reps": 2}
REPORT_RGG = {"n": 2000, "k": 30.0}
REPORT_RATES = [round(0.1 * i, 1) for i in range(10, 0, -1)]


def _grid(values):
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class Workload:
    """CLI arguments, output check and neighbourhood count of one workload.

    Each callable takes the round's seed or output directory and the input
    file that ``prepare(seed, path)`` wrote, if the workload has one.
    ``round_s`` is the nominal time of one round on the reference host (a
    2-core x86 VM): set-up, invocation and checks. It fixes the number of
    rounds in a run and never depends on the speed of the code measured.
    """

    name: str
    round_s: float
    argv: Callable
    check: Callable
    neighbourhoods: Callable
    prepare: Callable | None = None

    def rounds(self, seconds, trace):
        untraced = max(1, int((seconds - SETUP_PROBES * NOMINAL_SETUP_S) / self.round_s + 0.5))
        return max(1, untraced // 2) if trace else untraced


def _boundary(name, round_s, model_args, n_grid, k_lo, k_hi):
    def argv(seed, out, _input):
        return ["boundary", *model_args, "--n-grid", _grid(n_grid), "--k-lo", str(k_lo),
                "--k-hi", str(k_hi), "--jobs", "1", "--seed", str(seed), "--out", str(out)]

    def check(out, _input):
        return checks.check_boundary(out, n_grid, k_lo, k_hi)

    def neighbourhoods(out, _input):
        points = json.loads((out / "boundary_points.json").read_text())["points"]
        return sum(p["n"] * p["total_sims"] for p in points)

    return Workload(name, round_s, argv, check, neighbourhoods)


def _map_er():
    n_grid, k_grid, reps = MAP_ER["n"], MAP_ER["k"], MAP_ER["reps"]

    def argv(seed, out, _input):
        return ["map", "--model", "er", "--n-grid", _grid(n_grid), "--k-grid", _grid(k_grid),
                "--reps", str(reps), "--jobs", "1", "--seed", str(seed), "--out", str(out)]

    return Workload(
        "map-er",
        6.5,
        argv,
        lambda out, _input: checks.check_map(out, n_grid, k_grid, reps),
        lambda out, _input: sum(n_grid) * len(k_grid) * reps,
    )


def write_rgg_edge_list(path: Path, n: int, k: float, seed: int) -> None:
    """Soft random geometric graph, generated here and not by the package.

    Points are uniform in the unit square; a pair at distance d <= r is joined
    with probability exp(-3d/r). Away from the border the expected degree is
    n * 2*pi*r^2 * (1 - 4/e^3) / 9, which fixes r for the target k. Node labels
    are shuffled string tokens and edges are written in random order.
    """
    rng = np.random.default_rng(seed)
    r = math.sqrt(9.0 * k / (2.0 * math.pi * n * (1.0 - 4.0 * math.exp(-3.0))))
    pts = rng.random((n, 2))
    pairs = cKDTree(pts).query_pairs(r, output_type="ndarray")
    d = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
    pairs = pairs[rng.random(len(pairs)) < np.exp(-3.0 * d / r)]
    pairs = pairs[rng.permutation(len(pairs))]
    label = rng.permutation(n)
    lines = [f"# soft rgg n={n} k={k} seed={seed}"]
    lines += [f"v{label[a]} v{label[b]}" for a, b in pairs.tolist()]
    path.write_text("\n".join(lines) + "\n")


def _report_rgg():
    def prepare(seed, path):
        write_rgg_edge_list(path, REPORT_RGG["n"], REPORT_RGG["k"], seed)
        return path

    def argv(seed, out, input_path):
        return ["sampling-report", "--input", str(input_path), "--seed", str(seed),
                "--out", str(out)]

    def check(out, input_path):
        n, m = checks.edge_list_counts(input_path)
        return checks.check_report(out, n, m, REPORT_RATES)

    def neighbourhoods(_out, input_path):
        return checks.edge_list_counts(input_path)[0] * len(REPORT_RATES)

    return Workload("report-rgg", 6.0, argv, check, neighbourhoods, prepare)


WORKLOADS = {
    w.name: w
    for w in (
        _boundary("boundary-rgg", 6.8, ["--model", "rgg"], BOUNDARY_RGG_N, 1, 30),
        _map_er(),
        _report_rgg(),
        _boundary("boundary-ws", 6.5, ["--model", "ws", "--beta", "0.5"], BOUNDARY_WS_N, 2, 30),
    )
}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "nbhd_per_s": "1/s"}
PER_LAYER = {
    "models.calibrate_s": "s",
    "models.calibrate_calls": "count",
    "models.generate_s": "s",
    "models.graphs": "count",
    "models.edges": "count",
    "graph.extract_s": "s",
    "graph.extract_edges": "count",
    "graph.ingest_s": "s",
    "graph.triangles_s": "s",
    "canon.certify_s": "s",
    "canon.certify_calls": "count",
    "canon.collide_share": "share",
    "uniqueness.aggregate_s": "s",
    "sampling.sample_s": "s",
    "sampling.edges_kept": "count",
    "sweep.probes": "count",
    "sweep.sims": "count",
    "sweep.search_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
PRIMARY_OUTPUTS = ("boundary.csv", "boundary_points.json", "fit.json", "map.csv", "report.csv")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def derived_seed(*tags) -> int:
    payload = repr(tags).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big") >> 1


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed, not the program's."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i & 7
    return time.perf_counter() - t0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    env.pop("NETUNIQ_JOBS", None)
    return env


def _spawn(script, args):
    """Run a child script to completion; return (record, monotonic start).

    The child leads its own process group, so that on a timeout its pool
    workers are killed with it before the error propagates.
    """
    started = time.monotonic()
    with subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0 or not stdout.strip():
        raise subprocess.CalledProcessError(proc.returncode, script, stdout, stderr)
    record = json.loads(stdout.strip().splitlines()[-1])
    if Path(record["module"]).resolve().parent != (ROOT / "src" / "netuniq").resolve():
        raise BenchError(f"imported netuniq from {record['module']}, not from this checkout")
    return record, started


def setup_probe() -> float:
    record, started = _spawn("invoke.py", [])
    return record["imported_at"] - started


def _same_outputs(a: Path, b: Path):
    return [
        f"traced {name} differs from the untraced one"
        for name in PRIMARY_OUTPUTS
        if (a / name).exists() != (b / name).exists()
        or ((a / name).exists() and (a / name).read_bytes() != (b / name).read_bytes())
    ]


def layer_metrics(traced, untraced_wall):
    return traced["layers"] | {"trace.overhead_s": traced["traced_wall_s"] - untraced_wall}


def run_round(workload, seed, index, trace, log):
    """One operation. Returns (end-to-end or per-layer metrics, problems)."""
    round_seed = derived_seed("perfbench", workload.name, seed, index)
    rdir = WORK / f"{workload.name}-{seed}-{index}"
    shutil.rmtree(rdir, ignore_errors=True)
    rdir.mkdir(parents=True)
    input_path = workload.prepare(round_seed, rdir / "input.txt") if workload.prepare else None
    out = rdir / "out"
    argv = workload.argv(round_seed, out, input_path)
    record, started = _spawn("invoke.py", argv)
    if record["rc"] != 0:
        raise subprocess.CalledProcessError(record["rc"], argv)
    metrics = {
        "wall_s": record["wall_s"],
        "cpu_s": record["cpu_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": record["imported_at"] - started,
    }
    try:
        problems = workload.check(out, input_path)
        metrics["neighbourhoods"] = workload.neighbourhoods(out, input_path)
    except Exception as exc:  # any output that cannot be read is a wrong output
        problems = [f"unreadable outputs: {exc!r}"]
        metrics["neighbourhoods"] = 0
    if trace:
        traced_out = rdir / "traced"
        traced_argv = workload.argv(round_seed, traced_out, input_path)
        traced, _ = _spawn("traced.py", [str(round_seed), *traced_argv])
        if traced["rc"] != 0:
            raise subprocess.CalledProcessError(traced["rc"], traced_argv)
        problems += _same_outputs(out, traced_out)
        if traced["vf2_failures"]:
            problems.append(f"VF2 disagrees with certificates on pairs {traced['vf2_failures']}")
        log.setdefault("untraced", []).append(metrics)
        metrics = layer_metrics(traced, record["wall_s"])
        log["vf2_pairs"] = log.get("vf2_pairs", 0) + traced["vf2_pairs"]
    shutil.rmtree(rdir, ignore_errors=True)
    return metrics, problems


def run(workload, seed, seconds, trace):
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    log = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace}
    log["speed_probe_before_s"] = speed_probe()
    t0 = time.monotonic()
    setups = [setup_probe() for _ in range(SETUP_PROBES)]
    rounds, problems, attempted, failed = [], [], 0, 0
    for index in range(workload.rounds(seconds, trace)):
        if time.monotonic() - t0 > RUN_CAP_S:
            print(f"stopped after {index} rounds at the {RUN_CAP_S} s cap", file=sys.stderr)
            break
        attempted += 1
        try:
            metrics, found = run_round(workload, seed, index, trace, log)
        except subprocess.CalledProcessError as exc:
            failed += 1
            print(f"round {index} failed: {exc}\n{exc.stderr or ''}", file=sys.stderr)
        else:
            rounds.append(metrics)
            problems += found
    log["speed_probe_after_s"] = speed_probe()
    log["rounds"] = rounds
    log["problems"] = problems
    if not rounds:
        raise BenchError(f"all {failed} rounds failed")
    if trace:
        units = PER_LAYER
        values = {name: statistics.median(r[name] for r in rounds) for name in PER_LAYER}
    else:
        units = END_TO_END
        values = {name: statistics.median(r[name] for r in rounds)
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        # the fastest start: a slow host only ever adds to it
        values["setup_s"] = min(setups + [r["setup_s"] for r in rounds])
        # throughput over the whole run, so rounds of unequal work weigh by size
        values["nbhd_per_s"] = (
            sum(r["neighbourhoods"] for r in rounds) / sum(r["wall_s"] for r in rounds)
        )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    (WORK / "runs").mkdir(exist_ok=True)
    log_path = WORK / "runs" / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    log_path.write_text(json.dumps(log, indent=1) + "\n")
    print(json.dumps({k: log[k] for k in ("speed_probe_before_s", "speed_probe_after_s")}
                     | {"rounds": len(rounds), "log": str(log_path.relative_to(ROOT))}))
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "netuniq" / "cli.py").is_file():
        print(f"error: no src/netuniq/cli.py under {ROOT}; run from a checkout root", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
