"""Output checks for the benchmark workloads.

Every check compares the CLI's outputs with a property the method must have
or with a value this file computes on its own from the inputs; none compares
with a stored copy of earlier output. Each function returns a list of
problems, empty when the outputs are correct.
"""

import csv
import json
import math
from pathlib import Path

TARGET = 0.5
TOLERANCE = 0.02
# the paper's rule of thumb puts the 50% boundary of these families here
RISK_BAND = (4.0, 25.0)
# |kept - s*m| stays within this many binomial standard deviations; a false
# alarm has probability below 1e-8 per rate
BINOMIAL_Z = 6.0


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_boundary(out: Path, n_grid, k_lo, k_hi):
    problems = []
    points = json.loads((out / "boundary_points.json").read_text())["points"]
    if [p["n"] for p in points] != list(n_grid):
        return [f"boundary points cover n={[p['n'] for p in points]}, expected {n_grid}"]
    for p in points:
        n, k_star, evals = p["n"], p["k_star"], p["evaluations"]
        where = f"n={n} k*={k_star}"
        if not k_lo <= k_star <= k_hi:
            problems.append(f"{where}: outside [{k_lo}, {k_hi}]")
        if not RISK_BAND[0] <= k_star <= RISK_BAND[1]:
            problems.append(f"{where}: outside the risk band {RISK_BAND}")
        if any(not 0.0 <= e["mean"] <= 1.0 for e in evals):
            problems.append(f"{where}: an evaluation mean outside [0, 1]")
        if p["total_sims"] != sum(e["sims"] for e in evals):
            problems.append(f"{where}: total_sims is not the sum of sims")
        if p["status"] == "tolerance":
            at = [e for e in evals if e["avg_degree"] == k_star]
            if not at or abs(at[-1]["mean"] - TARGET) > TOLERANCE:
                problems.append(f"{where}: status tolerance but mean at k* is not within {TOLERANCE}")
        # bisection keeps every probe below k* at or under the target and
        # every probe above it over the target
        below = [e["mean"] for e in evals if e["avg_degree"] < k_star]
        above = [e["mean"] for e in evals if e["avg_degree"] > k_star]
        if not below or not above:
            problems.append(f"{where}: no evaluation on one side of k*")
        elif max(below) > TARGET or min(above) <= TARGET:
            problems.append(f"{where}: evaluations around k* do not bracket {TARGET}")
    rows = _rows(out / "boundary.csv")
    for row, p in zip(rows, points):
        if int(row["n"]) != p["n"] or int(row["evaluations"]) != p["total_sims"] \
                or not math.isclose(float(row["k_star"]), p["k_star"], rel_tol=1e-8):
            problems.append(f"boundary.csv row {row} disagrees with boundary_points.json")
    if len(rows) != len(points):
        problems.append("boundary.csv and boundary_points.json differ in length")
    if len(points) >= 3:
        problems += _check_fit(out, [(p["n"], p["k_star"]) for p in points])
    return problems


def _check_fit(out: Path, points):
    """The log-log least-squares line, from the normal equations."""
    fit = json.loads((out / "fit.json").read_text())
    x = [math.log(n) for n, _ in points]
    y = [math.log(k) for _, k in points]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxx = sum((a - mx) ** 2 for a in x)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    intercept = my - slope * mx
    if not (math.isclose(fit["m"], slope, rel_tol=1e-6, abs_tol=1e-9)
            and math.isclose(fit["c"], intercept, rel_tol=1e-6, abs_tol=1e-9)):
        return [f"fit.json m={fit['m']} c={fit['c']}, expected {slope} {intercept}"]
    return []


def check_map(out: Path, n_grid, k_grid, reps):
    rows = _rows(out / "map.csv")
    cells = [(int(r["n"]), float(r["avg_k"])) for r in rows]
    expected = [(n, float(k)) for n in n_grid for k in k_grid]
    if cells != expected:
        return [f"map cells {cells}, expected {expected}"]
    problems = []
    mean = {}
    for r in rows:
        m, sem = float(r["mean_uniqueness"]), float(r["sem"])
        mean[(int(r["n"]), float(r["avg_k"]))] = m
        if not 0.0 <= m <= 1.0 or sem < 0.0 or int(r["reps"]) != reps:
            problems.append(f"map row {r} out of range")
    for n in n_grid:
        if not mean[(n, float(k_grid[-1]))] > mean[(n, float(k_grid[0]))]:
            problems.append(f"n={n}: uniqueness does not rise from k={k_grid[0]} to k={k_grid[-1]}")
    return problems


def edge_list_counts(path: Path):
    """Node and edge counts of an edge-list file, counted here."""
    nodes, edges = set(), set()
    for line in path.read_text().splitlines():
        tokens = line.split()
        if len(tokens) != 2 or line.startswith("#"):
            continue
        a, b = tokens
        nodes.update(tokens)
        if a != b:
            edges.add((a, b) if a < b else (b, a))
    return len(nodes), len(edges)


def check_report(out: Path, n: int, m: int, rates):
    rows = _rows(out / "report.csv")
    got = [float(r["rate"]) for r in rows]
    if got != sorted(rates, reverse=True):
        return [f"report rates {got}, expected {sorted(rates, reverse=True)}"]
    problems = []
    full = rows[0]
    if float(full["degree_error"]) != 0.0 or float(full["triangle_error"]) != 0.0:
        problems.append(f"rate 1.0 row has non-zero estimation error: {full}")
    if full["avg_degree"] != "%.9g" % (2.0 * m / n):
        problems.append(f"rate 1.0 avg_degree {full['avg_degree']}, file gives 2m/n={2.0 * m / n}")
    for r in rows:
        s, kept = float(r["rate"]), float(r["avg_degree"]) * n / 2.0
        if abs(kept - s * m) > BINOMIAL_Z * math.sqrt(m * s * (1.0 - s)) + 1.0:
            problems.append(f"rate {s}: {kept:.0f} edges kept of {m}")
        if not 0.0 <= float(r["uniqueness"]) <= 1.0:
            problems.append(f"rate {s}: uniqueness outside [0, 1]")
    if not float(rows[0]["uniqueness"]) > 0.9 or not float(rows[-1]["uniqueness"]) < 0.2:
        problems.append(
            f"uniqueness runs {rows[0]['uniqueness']} -> {rows[-1]['uniqueness']}, "
            "expected above 0.9 at rate 1.0 and below 0.2 at 0.1"
        )
    return problems
