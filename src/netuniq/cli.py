"""Command-line front door.

Subcommands: analyze, generate, er-curve, map, boundary, sample,
sampling-report. Each is one handler, which maps the resolved parameters
to its primary artifacts, and one row of :func:`build_parser`, which
declares every option once with its default and argparse keywords. The
boundary search defaults are those of :class:`SearchConfig`, the family and
sampling-mode choices those of the library, and JSON artifacts are the
library's own dataclasses. Entries of a ``--config`` JSON file (keys are
option names with underscores) are read exactly as flags, types and choices
included, and placed before the command line: flag > config file > built-in
default, a bad value exits 2 naming its flag, and keys the subcommand does
not have are ignored. If no seed is given, one is drawn and recorded. Every
run with an ``--out`` directory writes its artifacts plus a
``manifest.json`` recording the resolved parameters, master seed, tool
version, input digests and wall-clock duration -- enough to replay the run
bit-exactly. Without ``--out`` only the primary (first) artifact goes to
stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import secrets
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from . import __version__
from .er_theory import er_curve
from .graph import Graph, load_edge_list_file, summary_stats
from .models import FAMILIES, ModelSpec, generate
from .sampling import (
    DEFAULT_RATES,
    MODES,
    SamplingPlan,
    SamplingReportRow,
    sample_edges,
    sampling_report,
)
from .sweep import WARM_FACTOR, SearchConfig, boundary_curve, boundary_search
from .sweep import fit_boundary_line, uniqueness_map
from .uniqueness import uniqueness_report

_ANALYSIS_CSV = (
    "n",
    "m",
    "avg_degree",
    "clustering",
    "neighborhood_uniqueness",
    "degree_uniqueness",
    "nonempty_fraction",
)

# the boundary options are SearchConfig's fields, in field order; these two are shorter
_SEARCH_ALIASES = {"tolerance": "tol", "batch_size": "batch"}

_HELP = dict.fromkeys(("k_lo", "k_hi"), "bracket end for the first size; later sizes first search "
                      f"[k*/{WARM_FACTOR:g}, {WARM_FACTOR:g}k*] around the previous size's k*")


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.9g" % float(x)


def _csv(header, rows) -> str:
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _parse_grid(spec, integer: bool = False) -> list:
    """Parse a grid argument: "5", "2,5,10", "1:30" (step 1), "1:30:0.5",
    or "100:20000:log10" (10 log-spaced points). Only range sizes round, half up."""
    spec = spec.strip()
    if "," in spec:
        vals = [float(tok) for tok in spec.split(",") if tok.strip()]
    elif ":" in spec:
        parts = spec.split(":")
        if len(parts) > 3:
            raise ValueError(f"grid spec {spec!r} has more than three parts")
        lo, hi = float(parts[0]), float(parts[1])
        step = parts[2] if len(parts) == 3 else "1"
        if step.startswith("log"):
            vals = list(np.geomspace(lo, hi, int(step[3:] or 10)))
        elif float(step) == 0.0:
            raise ValueError(f"grid spec {spec!r} has a zero step")
        else:
            vals = list(np.arange(lo, hi + float(step) / 2, float(step)))
    else:
        vals = [float(spec)]
    if not vals:
        raise ValueError(f"empty grid spec {spec!r}")
    if integer:
        odd = [v for v in vals if not v.is_integer()] if ":" not in spec else []
        if odd:
            raise ValueError(f"grid spec {spec!r}: size {odd[0]:g} is not an integer")
        return list(dict.fromkeys(math.floor(v + 0.5) for v in vals))
    return vals


def _edge_list_text(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + ("\n" if lines else "")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(command: str, p: dict, artifacts: dict, started: float) -> None:
    """Write each artifact (text, or a dict as JSON) into the ``--out``
    directory followed by the manifest, or the first one to stdout."""
    texts = {name: a if isinstance(a, str) else _json_text(a) for name, a in artifacts.items()}
    if not p["out"]:
        sys.stdout.write(next(iter(texts.values())))
        return
    out = Path(p["out"])
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    manifest = {
        "command": command,
        "parameters": p,
        "version": __version__,
        "duration_seconds": round(time.perf_counter() - started, 3),
        "input_digests": {p["input"]: _sha256(p["input"])} if p.get("input") else {},
    }
    (out / "manifest.json").write_text(_json_text(manifest))


def _config_tokens(args: argparse.Namespace) -> list:
    """The config file's entries for the subcommand's options as flags:
    ``--key=value`` (the ``=`` keeps a negative number a value), a bare
    ``--key`` for true and nothing for null or false."""
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    tokens = []
    for key in args.keys:
        value, flag = config.get(key), "--" + key.replace("_", "-")
        if isinstance(value, (list, dict)):
            raise ValueError(f"config entry {key!r} must be a string, number or boolean")
        if value is True:
            tokens.append(flag)
        elif value is not None and value is not False:
            tokens.append(f"{flag}={value}")
    return tokens


def _cmd_analyze(p: dict) -> dict:
    g = load_edge_list_file(p["input"])
    payload = {**asdict(summary_stats(g)), **asdict(uniqueness_report(g))}
    # JSON keys are strings; convert here so they sort as strings
    payload["nonempty_by_degree"] = {str(d): f for d, f in payload["nonempty_by_degree"].items()}
    if not p["per_node"]:
        del payload["occurrence"]
    elif g.labels:
        payload["labels"] = g.labels
    if p["format"] == "csv":
        return {"analysis.csv": _csv(_ANALYSIS_CSV, [[payload[f] for f in _ANALYSIS_CSV]])}
    return {"analysis.json": payload}


def _cmd_generate(p: dict) -> dict:
    spec = ModelSpec(family=p["model"], beta=p["beta"], n=p["n"], avg_degree=p["k"], seed=p["seed"])
    g = generate(spec)
    genspec = {**asdict(spec), "realized_m": g.m, "realized_avg_degree": 2.0 * g.m / g.n}
    return {"edges.txt": _edge_list_text(g), "genspec.json": genspec}


def _cmd_er_curve(p: dict) -> dict:
    curve = er_curve(p["n"], _parse_grid(p["k_grid"]) if p["k_grid"] else None)
    rows = zip(curve.avg_degrees, curve.degree_uniqueness, curve.nonempty_fraction)
    return {"curve.csv": _csv(("avg_k", "expected_Uk", "expected_Ndelta"), rows)}


def _cmd_map(p: dict) -> dict:
    result = uniqueness_map(
        family=p["model"],
        beta=p["beta"],
        jobs=p["jobs"],
        n_grid=_parse_grid(p["n_grid"], integer=True),
        k_grid=_parse_grid(p["k_grid"]),
        reps=p["reps"],
        seed=p["seed"],
    )
    rows = [
        (c.n, c.avg_degree, "", "", 0) if c.skipped else (c.n, c.avg_degree, c.mean, c.sem, c.reps)
        for c in result.cells
    ]
    return {"map.csv": _csv(("n", "avg_k", "mean_uniqueness", "sem", "reps"), rows)}


def _cmd_boundary(p: dict) -> dict:
    names = [f.name for f in fields(SearchConfig)]
    config = SearchConfig(**{f: p[_SEARCH_ALIASES.get(f, f)] for f in names})
    n_grid = _parse_grid(p["n_grid"], integer=True)
    curve = boundary_curve(
        lambda n, c: boundary_search(p["model"], n, c, p["seed"], p["beta"], p["jobs"]),
        n_grid, config,
    )
    points = [{"n": n, "total_sims": r.total_sims, **asdict(r)} for n, r in zip(n_grid, curve)]
    rows = [(pt["n"], pt["k_star"], pt["total_sims"]) for pt in points]
    artifacts = {
        "boundary.csv": _csv(("n", "k_star", "evaluations"), rows),
        "boundary_points.json": {"points": points},
    }
    if len(points) >= 3:
        fit = fit_boundary_line([(n, k_star) for n, k_star, _ in rows])
        artifacts["fit.json"] = {"m": fit.slope, "c": fit.intercept, "residuals": fit.residuals,
                                 "rmse": fit.rmse}
    return artifacts


def _cmd_sample(p: dict) -> dict:
    g = load_edge_list_file(p["input"])
    plan = SamplingPlan(rate=p["rate"], mode=p["mode"], seed=p["seed"])
    sampled = sample_edges(g, plan)
    info = {**asdict(plan), "original_m": g.m, "retained_m": sampled.m, "n": sampled.n}
    return {"edges.txt": _edge_list_text(sampled), "sample_info.json": info}


def _cmd_sampling_report(p: dict) -> dict:
    g = load_edge_list_file(p["input"])
    rates = _parse_grid(p["rates"]) if p["rates"] else list(DEFAULT_RATES)
    report = sampling_report(g, rates, seed=p["seed"], mode=p["mode"])
    header = [f.name for f in fields(SamplingReportRow)]
    return {"report.csv": _csv(header, map(astuple, report.rows))}


# Options several subcommands share: name -> (default, argparse keywords).
_SHARED_OPTIONS = {
    "out": (None, {"help": "output directory (primary artifact to stdout if omitted)"}),
    "input": (None, {"help": "edge-list file"}),
    "model": ("er", {"choices": FAMILIES}),
    "beta": (None, {"type": float, "help": "ws rewiring probability"}),
    "n": (1000, {"type": int}),
    "mode": ("bernoulli", {"choices": MODES}),
    "seed": (None, {"type": int}),
    "jobs": (1, {"type": int}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netuniq",
        description="Quantify and mitigate node re-identification risk in networks.",
    )
    parser.add_argument("--version", action="version", version=f"netuniq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, *options):
        """Each option is a shared option's name or (name, default, argparse
        keywords); ``keys`` records the option names for the manifest and
        the config file."""
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON file with default parameter values")
        keys = []
        for opt in ("out", *options):
            key, default, kwargs = (opt, *_SHARED_OPTIONS[opt]) if isinstance(opt, str) else opt
            sp.add_argument(f"--{key.replace('_', '-')}", default=default, **kwargs)
            keys.append(key)
        sp.set_defaults(handler=handler, keys=keys)

    add(
        "analyze",
        _cmd_analyze,
        "input",
        ("format", "json", {"choices": ["json", "csv"]}),
        ("per_node", False, {"action": "store_true", "help": "include per-node occurrence counts"}),
    )
    add(
        "generate",
        _cmd_generate,
        "model",
        "n",
        ("k", 10.0, {"type": float, "help": "target average degree"}),
        "beta",
        "seed",
    )
    add("er-curve", _cmd_er_curve, "n", ("k_grid", None, {"help": "degree grid"}))
    add(
        "map",
        _cmd_map,
        "model",
        "beta",
        ("n_grid", "100:1000:log4", {"help": "e.g. 100:20000:log10"}),
        ("k_grid", "1:20", {"help": "e.g. 1:100"}),
        ("reps", 10, {"type": int}),
        "seed",
        "jobs",
    )
    add(
        "boundary",
        _cmd_boundary,
        "model",
        "beta",
        ("n_grid", "1000", {"help": "sizes to search, e.g. 1000,5000,10000"}),
        *[
            (_SEARCH_ALIASES.get(f.name, f.name), f.default,
             {"type": type(f.default), "help": _HELP.get(f.name)})
            for f in fields(SearchConfig)
        ],
        "seed",
        "jobs",
    )
    add("sample", _cmd_sample, "input", ("rate", 0.5, {"type": float}), "mode", "seed")
    add(
        "sampling-report",
        _cmd_sampling_report,
        "input",
        ("rates", None, {"help": "comma list, e.g. 1.0,0.9,0.8"}),
        "mode",
        "seed",
    )
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.config:
            # config entries go before the command line, so a flag wins
            args = parser.parse_args([args.command, *_config_tokens(args), *argv[1:]])
        p = {key: getattr(args, key) for key in args.keys}
        if "input" in p and not p["input"]:
            raise ValueError("--input is required")
        if p.get("model") == "ws" and p["beta"] is None:
            raise ValueError("--beta is required for the ws model")
        if "seed" in p and p["seed"] is None:
            p["seed"] = secrets.randbits(63)
        _write(args.command, p, args.handler(p), started)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
