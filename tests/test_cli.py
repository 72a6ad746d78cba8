"""CLI tests: subcommands, backwards compatibility, export."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def tiny_trace_path(tmp_path):
    path = str(tmp_path / "t.npz")
    assert main(["trace", "--scale", "0.003", "--seed", "2", "--out", path]) == 0
    return path


class TestParser:
    def test_run_subcommand(self):
        args = build_parser().parse_args(["run", "fig3"])
        assert args.command == "run"
        assert args.experiment == "fig3"
        assert args.scale is None

    def test_all_is_valid(self):
        assert build_parser().parse_args(["run", "all"]).experiment == "all"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_scale_and_seed(self):
        args = build_parser().parse_args(
            ["run", "fig4", "--scale", "0.01", "--seed", "7"]
        )
        assert args.scale == 0.01
        assert args.seed == 7

    def test_trace_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_measure_args(self):
        args = build_parser().parse_args(
            ["measure", "--trace", "t.npz", "--sram-kb", "4", "--cache-kb", "2"]
        )
        assert args.sram_kb == 4.0
        assert args.method == "csm"


class TestMain:
    def test_bare_experiment_backwards_compatible(self, capsys):
        assert main(["fig3", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "fraction_flows_below_mean" in out

    def test_run_fig8(self, capsys):
        assert main(["run", "fig8", "--scale", "0.005"]) == 0
        assert "Processing time" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3", "fig8", "headline", "theory"):
            assert name in out

    def test_trace_then_measure(self, capsys, tmp_path):
        trace_path = str(tmp_path / "t.npz")
        assert main(["trace", "--scale", "0.003", "--seed", "2", "--out", trace_path]) == 0
        assert (
            main(
                [
                    "measure",
                    "--trace",
                    trace_path,
                    "--sram-kb",
                    "2",
                    "--cache-kb",
                    "1",
                    "--top",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "top 3 flows" in out
        assert "ARE/flow" in out

    def test_run_with_export(self, capsys, tmp_path):
        export = str(tmp_path / "artifacts")
        assert main(["run", "fig3", "--scale", "0.005", "--export-dir", export]) == 0
        assert (tmp_path / "artifacts" / "fig3_measured.csv").exists()
        assert (tmp_path / "artifacts" / "fig3_report.txt").exists()

    def test_report_command(self, capsys, tmp_path):
        out = str(tmp_path / "REPORT.md")
        assert main(["report", "--scale", "0.003", "--out", out]) == 0
        text = (tmp_path / "REPORT.md").read_text()
        assert "# CAESAR reproduction report" in text
        for name in ("fig3", "fig8", "headline"):
            assert f"## {name}:" in text

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2


class TestResilienceCli:
    """--inject / --checkpoint-every / --resume-from and error exits."""

    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = str(tmp_path / "t.npz")
        assert main(["trace", "--scale", "0.003", "--seed", "2", "--out", path]) == 0
        return path

    def test_repro_error_exits_2_with_one_line(self, capsys, trace_path):
        """Missing budgets is a ReproError: exit 2, message on stderr,
        no traceback."""
        assert main(["measure", "--trace", trace_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bad_inject_spec_exits_2(self, capsys, trace_path):
        args = ["measure", "--trace", trace_path, "--sram-kb", "2", "--cache-kb", "1"]
        assert main([*args, "--inject", "bogus=1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_every_requires_out(self, capsys, tmp_path, trace_path):
        args = ["measure", "--trace", trace_path, "--sram-kb", "2", "--cache-kb", "1"]
        assert main([*args, "--checkpoint-every", "1000"]) == 2
        assert "--checkpoint-out" in capsys.readouterr().err
        ck = tmp_path / "ck.npz"
        for every in ("0", "-500"):
            argv = [*args, "--checkpoint-every", every, "--checkpoint-out", str(ck)]
            assert main(argv) == 2
            assert ">= 1" in capsys.readouterr().err
        assert not ck.exists()

    def test_checkpoint_then_resume_matches(self, capsys, tmp_path, trace_path):
        """The full kill-and-resume cycle through the CLI: the resumed
        run prints the same accuracy summary as the checkpointing run."""
        ck = str(tmp_path / "ck.npz")
        base = ["measure", "--trace", trace_path, "--top", "3"]
        assert (
            main(
                [
                    *base,
                    "--sram-kb",
                    "2",
                    "--cache-kb",
                    "1",
                    "--checkpoint-every",
                    "30000",
                    "--checkpoint-out",
                    ck,
                ]
            )
            == 0
        )
        full = capsys.readouterr().out
        assert main([*base, "--resume-from", ck]) == 0
        resumed = capsys.readouterr().out
        assert "resumed" in resumed
        # Identical estimates: same summary lines and same top flows.
        tail = full.split("top 3 flows")[1]
        assert tail == resumed.split("top 3 flows")[1]

    def test_inject_runs_and_reports(self, capsys, trace_path):
        assert (
            main(
                [
                    "measure",
                    "--trace",
                    trace_path,
                    "--sram-kb",
                    "2",
                    "--cache-kb",
                    "1",
                    "--inject",
                    "drop=0.1,seed=5",
                    "--top",
                    "2",
                ]
            )
            == 0
        )
        assert "top 2 flows" in capsys.readouterr().out


class TestServeCli:
    """The `serve` subcommand: streaming runtime through the CLI."""

    def test_parser(self):
        args = build_parser().parse_args(
            ["serve", "--trace", "t.npz", "--sram-kb", "2", "--cache-kb", "1"]
        )
        assert args.workers == 2
        assert args.backpressure == "block"
        assert not args.verify_offline

    def test_serve_streams_and_verifies(self, capsys, tiny_trace_path):
        """`serve` end to end: chaos-kill one worker mid-stream, live
        queries, then prove the result bit-identical to the offline
        single-process run."""
        assert (
            main(
                [
                    "serve",
                    "--trace",
                    tiny_trace_path,
                    "--workers",
                    "2",
                    "--sram-kb",
                    "2",
                    "--cache-kb",
                    "1",
                    "--chunk-packets",
                    "4096",
                    "--query-every",
                    "4",
                    "--chaos-kill",
                    "0:3",
                    "--verify-offline",
                    "--top",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "worker restarts: 1" in out
        assert "live estimates" in out
        assert "offline verification: bit-identical" in out

    def test_serve_bad_chaos_spec_exits_2(self, capsys, tiny_trace_path):
        base = [
            "serve",
            "--trace",
            tiny_trace_path,
            "--sram-kb",
            "2",
            "--cache-kb",
            "1",
        ]
        assert main([*base, "--chaos-kill", "nope"]) == 2
        assert "SHARD:CHUNK" in capsys.readouterr().err
        assert main([*base, "--chaos-kill", "9:0"]) == 2
        assert "out of range" in capsys.readouterr().err
        assert main([*base, "--checkpoint-every", "-1"]) == 2
        assert "checkpoint_every" in capsys.readouterr().err


class TestConsoleEntryPoints:
    """The installed `repro` / `caesar-repro` commands."""

    def test_pyproject_declares_both_scripts(self):
        import tomllib
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["repro"] == "repro.cli:main"
        assert scripts["caesar-repro"] == "repro.cli:main"

    def test_module_entry_point_runs(self):
        """`python -m repro list` — the execution path both console
        scripts resolve to — works from a clean interpreter."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "fig3" in proc.stdout

    def test_installed_binary_if_present(self):
        """When the package is pip-installed, the `repro` binary itself
        must answer; skipped in source-only environments."""
        import shutil
        import subprocess

        binary = shutil.which("repro")
        if binary is None:
            pytest.skip("package not installed; console script absent")
        proc = subprocess.run(
            [binary, "list"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert "fig3" in proc.stdout
