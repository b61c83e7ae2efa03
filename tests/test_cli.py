"""Tests for the command-line interface."""

import pytest

import repro.cli as cli_mod
from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.scheme == ["pet", "secn1"]
        assert args.workload == "websearch"
        assert args.load == 0.6

    def test_scheme_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scheme", "reno"])

    def test_workload_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "hadoop"])

    def test_multiple_schemes(self):
        args = build_parser().parse_args(["--scheme", "pet", "acc", "secn1"])
        assert args.scheme == ["pet", "acc", "secn1"]


class TestMain:
    def test_static_run_prints_table(self, capsys):
        rc = main(["--scheme", "secn1", "--duration", "0.01",
                   "--pretrain", "0", "--hosts-per-leaf", "2",
                   "--leaves", "2", "--spines", "1", "--no-incast"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "secn1" in out
        assert "overall_avg_fct" in out

    def test_two_schemes_two_rows(self, capsys):
        rc = main(["--scheme", "secn1", "secn2", "--duration", "0.01",
                   "--pretrain", "0", "--hosts-per-leaf", "2",
                   "--leaves", "2", "--spines", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "secn1" in out and "secn2" in out

    def test_repeated_scheme_is_a_usage_error(self, capsys):
        """Rows are keyed by scheme, so a repeat would run two jobs and
        print one row."""
        with pytest.raises(SystemExit) as exc:
            main(["--scheme", "secn1", "secn1", "--duration", "0.01",
                  "--pretrain", "0", "--hosts-per-leaf", "2",
                  "--leaves", "2", "--spines", "1"])
        assert exc.value.code == 2
        assert "each scheme may be given once" in capsys.readouterr().err

    def test_fattree_sharded_run(self, capsys):
        args = ["--scheme", "secn1", "--topology", "fattree",
                "--pods", "2", "--hosts-per-leaf", "2",
                "--duration", "0.01", "--pretrain", "0", "--no-incast"]
        assert main(args) == 0
        assert "overall_avg_fct" in capsys.readouterr().out
        with pytest.raises(SystemExit):         # the flag is gone
            main(args + ["--shards", "2"])


class TestExitCodes:
    """A crashed subcommand must exit nonzero — automation gates on $?."""

    def test_scenario_crash_exits_1_with_stderr_line(self, monkeypatch,
                                                     capsys):
        def explode(*_a, **_k):
            raise RuntimeError("simulated scenario crash")

        monkeypatch.setattr(cli_mod, "run_scenario_grid", explode)
        rc = main(["--scheme", "secn1", "--duration", "0.01",
                   "--pretrain", "0", "--hosts-per-leaf", "2",
                   "--leaves", "2", "--spines", "1", "--no-incast"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: RuntimeError: simulated scenario crash" in err

    def test_subcommand_crash_exits_1(self, monkeypatch, capsys):
        def explode(_argv):
            raise OSError("port already in use")

        monkeypatch.setattr("repro.serve.cli.serve_main", explode)
        rc = main(["serve", "--smoke"])
        assert rc == 1
        assert "OSError" in capsys.readouterr().err

    def test_subcommand_nonzero_rc_propagates(self, monkeypatch):
        monkeypatch.setattr("repro.serve.cli.serve_main", lambda _argv: 3)
        assert main(["serve"]) == 3

    def test_argparse_systemexit_passes_through(self):
        with pytest.raises(SystemExit):
            main(["--scheme", "reno"])
