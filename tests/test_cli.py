"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "taxi-nycb", "SpatialSpark"])
        assert args.config == "WS"
        assert args.exec_records == 2500

    @pytest.mark.parametrize(
        "command", ["table1", "table2", "table3", "fig1", "headlines", "calibrate"]
    )
    def test_subcommands_parse(self, command):
        assert build_parser().parse_args([command]).command == command

    def test_one_default_seed_everywhere(self):
        # Regression: run/table2/table3 defaulted to seed 1 while validate
        # and run_experiment used 0, so the same nominal command produced
        # different numbers depending on the entry point.
        from inspect import signature

        from repro.experiments.runner import DEFAULT_SEED, run_experiment

        parser = build_parser()
        for argv in (
            ["run", "taxi-nycb", "SpatialSpark"],
            ["table2"],
            ["table3"],
            ["headlines"],
            ["report"],
            ["validate"],
        ):
            assert parser.parse_args(argv).seed == DEFAULT_SEED, argv
        assert signature(run_experiment).parameters["seed"].default == DEFAULT_SEED

    def test_workers_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "taxi-nycb", "SpatialSpark", "--workers", "4"]
        )
        assert args.workers == 4 and args.backend is None
        args = parser.parse_args(["table2", "--workers", "2", "--backend", "process"])
        assert args.workers == 2 and args.backend == "process"
        args = parser.parse_args(["table3"])
        assert args.workers == 1

    def test_unknown_backend_rejected(self):
        for name in ("mpi", "thread"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["table2", "--backend", name])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "169,720,892" in out
        assert "6.9 GB" in out

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "HadoopGIS" in out and "functional" in out

    def test_run_success(self, capsys):
        code = main(
            ["run", "taxi1m-nycb", "SpatialSpark", "EC2-10", "--exec-records", "600"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out and "TOT=" in out

    def test_run_failure_cell(self, capsys):
        code = main(
            ["run", "taxi-nycb", "SpatialSpark", "EC2-6", "--exec-records", "600"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED (oom)" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "osm-osm", "SpatialSpark"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_unknown_system(self, capsys):
        assert main(["run", "taxi-nycb", "Sedona"]) == 2
        assert "unknown system" in capsys.readouterr().err

    def test_run_with_workers(self, capsys):
        code = main(
            ["run", "taxi-nycb", "SpatialSpark", "EC2-10",
             "--exec-records", "600", "--workers", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out and "TOT=" in out

    def test_run_workers_match_serial(self, capsys):
        argv = ["run", "taxi-nycb", "SpatialHadoop", "EC2-10",
                "--exec-records", "500"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "3", "--backend", "process"]) == 0
        assert capsys.readouterr().out == serial_out
