"""Tests for the command-line interface (direct main() invocation)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "NOPE"])

    @pytest.mark.parametrize(
        "argv",
        [["run", "NOPE"], ["run", "X1", "--profile", "nope"],
         ["report", "--profile", "nope"]],
    )
    def test_registry_choices_checked_at_parse_time(self, argv, capsys):
        """The experiment ids and profiles load lazily, but a bad value
        still fails in argparse, listing the valid ones."""
        with pytest.raises(SystemExit) as e:
            build_parser().parse_args(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "'X13'" in err or "'smoke'" in err

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pack", "x.json", "--algorithm", "nope"])

    def test_serve_and_fleet_share_server_flag_defaults(self):
        """The flags both commands declare once parse to the same defaults."""
        shared = {
            "host": "127.0.0.1",
            "algorithm": "first-fit",
            "capacity": 1.0,
            "reference": False,
            "fsync": "interval",
            "fsync_interval": 512,
            "checkpoint_interval": 1000,
            "defrag": 0,
            "defrag_interval": 0.5,
            "quiet": False,
        }
        serve = vars(build_parser().parse_args(["serve"]))
        fleet = vars(build_parser().parse_args(["fleet", "--wal-dir", "x"]))
        for dest, default in shared.items():
            assert serve[dest] == fleet[dest] == default, dest


class TestIntOptionValidation:
    """Integer options fail fast with a clear argparse error (exit 2)."""

    def test_workers_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["run", "X1", "--workers", "0"])
        assert e.value.code == 2
        assert "one worker per CPU" in capsys.readouterr().err

    def test_workers_below_minus_one_rejected(self):
        with pytest.raises(SystemExit) as e:
            main(["run", "X1", "--workers", "-3"])
        assert e.value.code == 2

    def test_workers_minus_one_parses(self):
        args = build_parser().parse_args(["run", "X1", "--workers", "-1"])
        assert args.workers == -1

    def test_workers_positive_parses(self):
        args = build_parser().parse_args(["run", "X1", "--workers", "4"])
        assert args.workers == 4

    def test_generate_n_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["generate", "poisson", "--n", "0", "--out", "x.json"])
        assert e.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_bench_repeats_zero_rejected(self):
        with pytest.raises(SystemExit) as e:
            main(["bench", "--repeats", "0"])
        assert e.value.code == 2


class TestGeneratePackRoundTrip:
    """`repro generate` → `repro pack` through a tmp dir, with fidelity."""

    def test_saved_trace_is_faithful_to_the_generator(self, tmp_path):
        from repro.workloads import load_trace, poisson_workload

        out = str(tmp_path / "trace.json")
        assert main(["generate", "poisson", "--n", "40", "--seed", "9",
                     "--mu", "6", "--rate", "3", "--out", out]) == 0
        direct = poisson_workload(40, seed=9, mu_target=6.0, arrival_rate=3.0)
        loaded = load_trace(out)
        assert len(loaded) == len(direct)
        assert loaded.capacity == direct.capacity
        for a, b in zip(loaded, direct):
            assert (a.item_id, a.size, a.arrival, a.departure) == (
                b.item_id, b.size, b.arrival, b.departure
            )

    def test_pack_reports_generator_cost(self, tmp_path, capsys):
        from repro.algorithms import make_algorithm
        from repro.core.packing import run_packing
        from repro.workloads import poisson_workload

        out = str(tmp_path / "trace.json")
        main(["generate", "poisson", "--n", "40", "--seed", "9",
              "--mu", "6", "--rate", "3", "--out", out])
        capsys.readouterr()
        assert main(["pack", out, "--algorithm", "best-fit"]) == 0
        printed = capsys.readouterr().out
        direct = run_packing(
            poisson_workload(40, seed=9, mu_target=6.0, arrival_rate=3.0),
            make_algorithm("best-fit"),
        )
        assert f"{direct.total_usage_time:.4f}" in printed
        assert "best-fit" in printed

    def test_csv_roundtrip_and_render_smoke(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        assert main(["generate", "gaming", "--n", "12", "--seed", "2",
                     "--out", out]) == 0
        assert main(["pack", out, "--render"]) == 0
        assert "bin " in capsys.readouterr().out

    def test_pack_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["pack", str(tmp_path / "nope.json")])


class TestCommands:
    def test_list_algorithms(self, capsys):
        assert main(["list-algorithms"]) == 0
        out = capsys.readouterr().out
        assert "first-fit" in out
        assert "clairvoyant" in out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "F1" in out and "X4" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "--mu", "4"]) == 0
        out = capsys.readouterr().out
        assert "8.00" in out  # µ+4 at µ=4

    def test_run_figure(self, capsys):
        assert main(["run", "F1"]) == 0
        assert "span" in capsys.readouterr().out

    def test_run_table_experiment(self, capsys):
        assert main(["run", "F5-F6"]) == 0
        assert "Lemma 2" in capsys.readouterr().out

    def test_generate_pack_verify_roundtrip(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        assert main(["generate", "poisson", "--n", "30", "--seed", "5",
                     "--out", trace]) == 0
        assert main(["pack", trace, "--algorithm", "first-fit", "--opt"]) == 0
        out = capsys.readouterr().out
        assert "OPT_total" in out and "ratio" in out
        assert main(["verify", trace]) == 0
        assert "all propositions and lemmas hold" in capsys.readouterr().out

    def test_generate_adversarial_kinds(self, tmp_path, capsys):
        for kind in ("nextfit-lb", "universal-lb", "staircase", "gaming"):
            trace = str(tmp_path / f"{kind}.csv")
            assert main(["generate", kind, "--n", "8", "--mu", "4",
                         "--out", trace]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote") == 4

    def test_pack_with_render(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        main(["generate", "poisson", "--n", "10", "--out", trace])
        assert main(["pack", trace, "--render"]) == 0
        assert "bin " in capsys.readouterr().out

    def test_pack_clairvoyant_algorithm(self, tmp_path, capsys):
        trace = str(tmp_path / "t.json")
        main(["generate", "poisson", "--n", "15", "--out", trace])
        assert main(["pack", trace, "--algorithm", "departure-aligned-fit"]) == 0
        assert "departure-aligned-fit" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
