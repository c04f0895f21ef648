"""Command-line interface: artifacts, manifests, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netuniq
from netuniq.cli import main, _parse_grid
from netuniq.er_theory import expected_degree_uniqueness

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


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs most of a CLI start; the boundary search needs only ndtri
    src = str(Path(netuniq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, netuniq.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
