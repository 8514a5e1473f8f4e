"""Tests for the extended CLI commands (inspect, report, mmpp)."""

import pytest

from repro.cli import main
from repro.experiments.report import generate_report, run_all_experiments


class TestInspect:
    def test_inspect_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        main(["generate", "poisson", "--n", "25", "--seed", "2", "--out", trace])
        capsys.readouterr()
        assert main(["inspect", trace]) == 0
        out = capsys.readouterr().out
        assert "items" in out and "burstiness" in out

    def test_generate_mmpp(self, tmp_path, capsys):
        trace = str(tmp_path / "m.csv")
        assert main(["generate", "mmpp", "--n", "40", "--seed", "1",
                     "--out", trace]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out


class TestReport:
    def test_report_subset(self, tmp_path, capsys):
        out_path = tmp_path / "r.md"
        assert main(["report", "--out", str(out_path), "--only", "F1"]) == 0
        text = out_path.read_text()
        assert "# Reproduction report" in text
        assert "## F1" in text
        assert "span" in text

    def test_run_all_respects_only(self):
        results = run_all_experiments(only=("F1",)).results()
        assert set(results) == {"F1"}

    def test_progress_callback(self, tmp_path):
        seen = []
        generate_report(tmp_path / "r.md", only=("F1", "F2"), progress=seen.append)
        assert seen == ["F1", "F2"]

    def test_table_experiments_rendered(self, tmp_path):
        path, _ = generate_report(tmp_path / "r.md", only=("F5-F6",))
        assert "Lemma 2" in path.read_text()

    def test_report_cache_flags(self, tmp_path, capsys):
        out_path = str(tmp_path / "r.md")
        cache = str(tmp_path / "cache")
        base = ["report", "--out", out_path, "--only", "F1", "T1",
                "--profile", "smoke", "--cache-dir", cache,
                "--stamp", "2026-01-01"]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert "cache hits: 0/2" in first
        assert main(base + ["--resume", "--workers", "2"]) == 0
        second = capsys.readouterr().out
        assert "cache hits: 2/2" in second

    def test_report_unknown_only_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path / "r.md"),
                     "--only", "NOPE"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().err


class TestRunFlags:
    """Uniform spec-derived flags on `repro run`."""

    def test_profile_and_json_artifact(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "f56.json"
        assert main(["run", "F5-F6", "--profile", "smoke",
                     "--json", str(artifact)]) == 0
        assert "Lemma 2" in capsys.readouterr().out
        doc = json.loads(artifact.read_text())
        assert doc["experiment"] == "F5-F6"
        # the smoke profile's seeds override landed in the params
        assert doc["params"]["seeds"] == {"__tuple__": [0, 1]}

    def test_seed_maps_to_declared_seed_param(self, capsys):
        assert main(["run", "F5-F6", "--profile", "smoke",
                     "--seed", "5"]) == 0
        # seeds=(5,): exactly one run checked
        assert "checked 1 randomized" in capsys.readouterr().out

    def test_undeclared_param_exits_2(self, capsys):
        assert main(["run", "F1", "--node-budget", "5"]) == 2
        err = capsys.readouterr().err
        assert "unknown parameter 'node_budget'" in err

    def test_no_seed_param_exits_2(self, capsys):
        assert main(["run", "X10", "--seed", "3"]) == 2
        assert "no seed parameter" in capsys.readouterr().err
