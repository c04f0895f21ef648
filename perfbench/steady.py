"""Steadiness check: run workloads repeatedly and compare spreads with bounds.

Usage (from the root of a checkout):

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --runs 1             # one run each: all metrics
    python3 perfbench/steady.py --first-seed 11      # a second set, seeds 11-20

Each run is ``perfbench/run.py`` on a workload of BENCHMARK.json, with its
own ``--seed`` and the run length from BENCHMARK.json; every workload is
run. For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, that is the
interquartile distance as a share of the median, next to the metric's
bound. It also prints operations attempted and failed and the speed probe.
A spread above a third of its bound is flagged; ``setup_s`` is flagged only
above its bound. Exits 1 if a run failed, a check failed or a spread exceeds
its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def run_once(workload, seed, seconds):
    """One untraced run: (info line, result line), or (None, None) if it failed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=240,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None, None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in names:
        results, probes = [], []
        for i in range(args.runs):
            info, result = run_once(workload, args.first_seed + i, bench["run_seconds"])
            if result is None:
                print(f"{workload} seed {args.first_seed + i}: run failed")
                ok = False
                continue
            results.append(result)
            probes.append((info["speed_probe_before_s"], info["speed_probe_after_s"]))
            print(f"{workload} seed {args.first_seed + i}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()),
                  flush=True)
            ok &= result["correct"] and result["failed"] == 0
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        probe = [p for pair in probes for p in pair]
        print(f"== {workload}: {len(results)} runs, {attempted} operations attempted, {failed} failed; "
              f"speed probe {min(probe):.3f}-{max(probe):.3f} s")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median
            limit = metric["bound"] if metric["name"] == "setup_s" else metric["bound"] / 3
            flag = "ok" if spread <= limit else ("OVER BOUND" if spread > metric["bound"] else "above bound/3")
            ok &= spread <= metric["bound"]
            print(f"   {metric['name']:<12} median {median:10.4f} {metric['unit']:<4} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} bound {metric['bound']:.3f}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
