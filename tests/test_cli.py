"""Command-line interface: artifacts, manifests, and determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import netuniq
import netuniq.cli as cli
from netuniq.cli import main, _parse_grid
from netuniq.er_theory import expected_degree_uniqueness
from netuniq.sweep import PointEstimate, SearchResult

TRIANGLE = "a b\nb c\na c\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    return str(path)


def read(path):
    return path.read_bytes()


class TestParseGrid:
    def test_forms(self):
        assert _parse_grid("5") == [5.0]
        assert _parse_grid("2,5,10") == [2.0, 5.0, 10.0]
        assert _parse_grid("1:4") == [1.0, 2.0, 3.0, 4.0]
        assert _parse_grid("1:2:0.5") == [1.0, 1.5, 2.0]
        vals = _parse_grid("100:10000:log5", integer=True)
        assert vals[0] == 100 and vals[-1] == 10000 and len(vals) == 5

    def test_empty(self):
        with pytest.raises(ValueError):
            _parse_grid(",")

    def test_zero_step(self):
        with pytest.raises(ValueError):
            _parse_grid("1:30:0")

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            _parse_grid("1:2:3:4")

    def test_bad_grid_is_a_usage_error(self, capsys):
        assert main(["er-curve", "--n", "50", "--k-grid", "1:30:0"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestAnalyze:
    def test_triangle_json(self, triangle_file, tmp_path):
        out = tmp_path / "run"
        assert main(["analyze", "--input", triangle_file, "--out", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["n"] == 3 and payload["m"] == 3
        assert payload["neighborhood_uniqueness"] == 0.0
        assert payload["degree_uniqueness"] == 0.0
        assert payload["nonempty_fraction"] == 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "analyze"
        assert triangle_file in manifest["input_digests"]

    def test_csv_format(self, triangle_file, tmp_path):
        out = tmp_path / "runcsv"
        assert main(
            ["analyze", "--input", triangle_file, "--out", str(out), "--format", "csv"]
        ) == 0
        lines = (out / "analysis.csv").read_text().splitlines()
        assert lines[0].startswith("n,m,avg_degree,clustering")
        assert lines[1].split(",")[0] == "3"

    def test_per_node_flag(self, triangle_file, tmp_path, capsys):
        assert main(["analyze", "--input", triangle_file, "--per-node"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["occurrence"] == [3, 3, 3]

    def test_missing_input(self):
        assert main(["analyze", "--input", "/nonexistent/file.txt"]) == 1


class TestGenerate:
    def test_deterministic_artifacts(self, tmp_path):
        args = ["generate", "--model", "er", "--n", "100", "--k", "5", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read(a / "edges.txt") == read(b / "edges.txt")
        spec = json.loads((a / "genspec.json").read_text())
        assert spec["seed"] == 9 and spec["family"] == "er"

    def test_ws_requires_beta(self, tmp_path):
        code = main(
            ["generate", "--model", "ws", "--n", "50", "--k", "4", "--seed", "1",
             "--out", str(tmp_path / "w")]
        )
        assert code == 1

    def test_seed_drawn_when_missing(self, tmp_path):
        out = tmp_path / "drawn"
        assert main(
            ["generate", "--model", "er", "--n", "30", "--k", "3", "--out", str(out)]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert isinstance(manifest["parameters"]["seed"], int)

    def test_stdout_round_trips_through_analyze(self, tmp_path, capsys):
        # without --out only the primary artifact, the edge list, is printed
        args = ["generate", "--model", "er", "--n", "50", "--k", "4", "--seed", "1"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        assert main(args + ["--out", str(tmp_path / "g")]) == 0
        assert printed == (tmp_path / "g" / "edges.txt").read_text()
        path = tmp_path / "g.txt"
        path.write_text(printed)
        assert main(["analyze", "--input", str(path)]) == 0
        spec = json.loads((tmp_path / "g" / "genspec.json").read_text())
        assert json.loads(capsys.readouterr().out)["m"] == spec["realized_m"]


class TestErCurve:
    def test_csv_matches_theory(self, tmp_path):
        out = tmp_path / "curve"
        assert main(
            ["er-curve", "--n", "100", "--k-grid", "0,10,49.5", "--out", str(out)]
        ) == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "avg_k,expected_Uk,expected_Ndelta"
        row = dict(zip(("k", "uk", "nd"), lines[2].split(",")))
        assert float(row["uk"]) == pytest.approx(
            expected_degree_uniqueness(100, 10.0), rel=1e-6
        )


class TestMapCommand:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "map", "--model", "er", "--n-grid", "40,80", "--k-grid", "1:3",
            "--reps", "2", "--seed", "77",
        ]
        a, b = tmp_path / "m1", tmp_path / "m2"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read(a / "map.csv") == read(b / "map.csv")
        header = (a / "map.csv").read_text().splitlines()[0]
        assert header == "n,avg_k,mean_uniqueness,sem,reps"


class TestBoundaryCommand:
    def test_csv_and_fit(self, tmp_path):
        args = [
            "boundary", "--model", "er", "--n-grid", "150,250,400",
            "--k-lo", "2", "--k-hi", "30", "--batch", "3", "--max-sims", "6",
            "--min-width", "1.0", "--seed", "5",
        ]
        a, b = tmp_path / "b1", tmp_path / "b2"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read(a / "boundary.csv") == read(b / "boundary.csv")
        lines = (a / "boundary.csv").read_text().splitlines()
        assert lines[0] == "n,k_star,evaluations"
        assert len(lines) == 4
        fit = json.loads((a / "fit.json").read_text())
        assert set(fit) >= {"m", "c", "residuals"}

    def test_max_sims_below_batch_is_an_error(self, capsys):
        argv = ["boundary", "--n-grid", "150", "--max-sims", "3", "--seed", "1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: max_sims")

    def test_non_bracketing_interval_is_an_error(self, capsys):
        argv = ["boundary", "--model", "er", "--n-grid", "50", "--k-lo", "1", "--k-hi", "2",
                "--seed", "1"]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "0.0080 at k_lo, 0.0680 at k_hi" in line


class TestSampleCommand:
    def test_provenance_and_determinism(self, triangle_file, tmp_path):
        args = [
            "sample", "--input", triangle_file, "--rate", "0.67",
            "--mode", "exact-count", "--seed", "3",
        ]
        a, b = tmp_path / "s1", tmp_path / "s2"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read(a / "edges.txt") == read(b / "edges.txt")
        info = json.loads((a / "sample_info.json").read_text())
        assert info["retained_m"] == 2
        assert info["n"] == 3
        assert info["mode"] == "exact-count"


class TestSamplingReportCommand:
    def test_report_csv(self, triangle_file, tmp_path):
        out = tmp_path / "rep"
        assert main(
            ["sampling-report", "--input", triangle_file, "--rates", "1.0,0.5",
             "--seed", "4", "--out", str(out)]
        ) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "rate,avg_degree,uniqueness,degree_error,triangle_error"
        assert len(lines) == 3


class TestConfigPrecedence:
    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 40, "k": 3.0, "seed": 6}))
        out = tmp_path / "cfgrun"
        assert main(
            ["generate", "--model", "er", "--config", str(cfg), "--n", "25",
             "--out", str(out)]
        ) == 0
        spec = json.loads((out / "genspec.json").read_text())
        assert spec["n"] == 25  # flag wins
        assert spec["seed"] == 6  # config fills the gap


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "netuniq" in capsys.readouterr().out


def _fake_search(calls, delay=0.0):
    """Stand-in for ``cli.boundary_search`` that records its config and
    takes ``delay`` seconds."""

    def search(family, n, config, seed, beta=None, jobs=1):
        calls.append(config)
        time.sleep(delay)
        point = PointEstimate(avg_degree=5.0, mean=0.5, sem=0.01, sims=5, status="hit_tolerance")
        return SearchResult(k_star=5.0, status="tolerance", evaluations=[point])

    return search


def _parameters(out, input_path=None):
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"command", "parameters", "version", "duration_seconds",
                             "input_digests"}
    params = dict(manifest["parameters"])
    assert params["out"] == str(out)
    params["out"] = "OUT"
    if input_path is not None:
        assert params["input"] == input_path
        params["input"] = "INPUT"
    return params


# One fixed invocation per subcommand and the manifest parameters it records.
CONTRACT = {
    "analyze": (
        ["--format", "csv"],
        {"format": "csv", "input": "INPUT", "out": "OUT", "per_node": False},
    ),
    "generate": (
        ["--model", "ws", "--n", "40", "--k", "4", "--beta", "0.3", "--seed", "2"],
        {"beta": 0.3, "k": 4.0, "model": "ws", "n": 40, "out": "OUT", "seed": 2},
    ),
    "er-curve": (
        ["--n", "50", "--k-grid", "1,2"],
        {"k_grid": "1,2", "n": 50, "out": "OUT"},
    ),
    "map": (
        ["--model", "er", "--n-grid", "30", "--k-grid", "2", "--reps", "2", "--seed", "1"],
        {"beta": None, "jobs": None, "k_grid": "2", "model": "er", "n_grid": "30",
         "out": "OUT", "reps": 2, "seed": 1},
    ),
    "boundary": (
        ["--n-grid", "150", "--seed", "3"],
        {"batch": 5, "beta": None, "confidence": 0.99, "jobs": None, "k_hi": 100.0,
         "k_lo": 1.0, "max_sims": 30, "min_width": 0.05, "model": "er", "n_grid": "150",
         "out": "OUT", "seed": 3, "target": 0.5, "tol": 0.02},
    ),
    "sample": (
        ["--rate", "0.5", "--seed", "8"],
        {"input": "INPUT", "mode": "bernoulli", "out": "OUT", "rate": 0.5, "seed": 8},
    ),
    "sampling-report": (
        ["--rates", "1.0,0.5", "--mode", "exact-count", "--seed", "4"],
        {"input": "INPUT", "mode": "exact-count", "out": "OUT", "rates": "1.0,0.5",
         "seed": 4},
    ),
}
NEEDS_INPUT = {"analyze", "sample", "sampling-report"}


class TestContract:
    @pytest.mark.parametrize("command", sorted(CONTRACT))
    def test_manifest_parameters(self, command, triangle_file, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "boundary_search", _fake_search([]))
        flags, expected = CONTRACT[command]
        if command in NEEDS_INPUT:
            flags = ["--input", triangle_file] + flags
        out = tmp_path / command
        assert main([command] + flags + ["--out", str(out)]) == 0
        assert _parameters(out, triangle_file if command in NEEDS_INPUT else None) == expected

    def test_duration_covers_the_command(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "boundary_search", _fake_search([], delay=0.2))
        out = tmp_path / "slow"
        assert main(["boundary", "--n-grid", "150", "--seed", "1", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["duration_seconds"] >= 0.2

    def test_artifact_keys(self, triangle_file, tmp_path):
        def run(argv, name):
            assert main(argv + ["--out", str(tmp_path)]) == 0
            return json.loads((tmp_path / name).read_text())

        genspec = run(["generate", "--n", "30", "--k", "3", "--seed", "1"], "genspec.json")
        assert set(genspec) == {"family", "n", "avg_degree", "beta", "seed", "realized_m",
                                "realized_avg_degree"}
        info = run(["sample", "--input", triangle_file, "--seed", "1"], "sample_info.json")
        assert set(info) == {"rate", "mode", "seed", "original_m", "retained_m", "n"}
        analysis = run(["analyze", "--input", triangle_file], "analysis.json")
        assert set(analysis) == {"n", "m", "avg_degree", "clustering", "neighborhood_uniqueness",
                                 "degree_uniqueness", "nonempty_fraction", "nonempty_by_degree"}
        boundary = ["boundary", "--n-grid", "150", "--k-lo", "2", "--k-hi", "30", "--batch", "3",
                    "--max-sims", "6", "--min-width", "1.0", "--seed", "5"]
        (point,) = run(boundary, "boundary_points.json")["points"]
        assert set(point) == {"n", "k_star", "status", "total_sims", "evaluations"}
        assert point["evaluations"]
        for evaluation in point["evaluations"]:
            assert set(evaluation) == {"avg_degree", "mean", "sem", "sims", "status"}


class TestConfigFile:
    def config(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_analyze_per_node_from_config(self, triangle_file, tmp_path, capsys):
        cfg = self.config(tmp_path, {"per_node": True})
        assert main(["analyze", "--input", triangle_file, "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["occurrence"] == [3, 3, 3]

    def test_boundary_search_knobs_from_config(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "boundary_search", _fake_search(calls))
        cfg = self.config(tmp_path, {"tol": 0.1, "batch": 3, "seed": 2})
        out = tmp_path / "b"
        assert main(["boundary", "--n-grid", "150", "--config", cfg, "--batch", "4",
                     "--out", str(out)]) == 0
        params = _parameters(out)
        assert params["tol"] == 0.1 and params["batch"] == 4  # config fills, flag wins
        assert calls[0].tolerance == 0.1 and calls[0].batch_size == 4

    def test_out_from_config(self, tmp_path):
        out = tmp_path / "from_config"
        cfg = self.config(tmp_path, {"out": str(out)})
        assert main(["generate", "--n", "20", "--k", "2", "--seed", "1", "--config", cfg]) == 0
        assert (out / "edges.txt").exists()
        assert _parameters(out)["out"] == "OUT"


    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [1, 2])
        assert main(["generate", "--n", "20", "--k", "2", "--seed", "1", "--config", cfg]) == 1
        assert "JSON object" in capsys.readouterr().err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["map", "--model", "ws", "--n-grid", "40", "--k-grid", "4", "--seed", "1"],
         ["boundary", "--model", "ws", "--n-grid", "40", "--seed", "1"]],
    )
    def test_ws_without_beta(self, argv, capsys):
        assert main(argv) == 1
        assert "--beta is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(CONTRACT))
    def test_help(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        assert "--out" in capsys.readouterr().out


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of a CLI start; the boundary search needs only
    # ndtri, the RGG calibration neither a root finder nor an integrator, and
    # only RGG generation builds a KD-tree
    src = str(Path(netuniq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    heavy = ["scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.spatial"]
    code = f"import sys, netuniq.cli; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
