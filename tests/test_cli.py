"""CLI tests: subcommands, backwards compatibility, export."""

import argparse

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def tiny_trace_path(tmp_path):
    path = str(tmp_path / "t.npz")
    assert main(["trace", "--scale", "0.003", "--seed", "2", "--out", path]) == 0
    return path


#: Each subcommand's required arguments: the least a parse accepts.
REQUIRED_ARGS = {
    "run": ["fig4"],
    "list": [],
    "trace": ["--out", "t.npz"],
    "report": [],
    "measure": ["--trace", "t.npz"],
    "serve": ["--trace", "t.npz", "--sram-kb", "2", "--cache-kb", "1"],
    "fabric": [],
    "stats": ["m.json"],
}

#: ``vars(namespace)`` after parsing only ``REQUIRED_ARGS``: every dest
#: with its default (or parsed value) and that value's type.
NAMESPACES = {
    "run": {
        "command": "run",
        "experiment": "fig4",
        "scale": None,
        "seed": 42,
        "engine": "batched",
        "export_dir": None,
        "metrics_out": None,
        "inject": None,
    },
    "list": {"command": "list"},
    "trace": {"command": "trace", "scale": None, "seed": 42, "out": "t.npz"},
    "report": {
        "command": "report",
        "scale": None,
        "seed": 42,
        "engine": "batched",
        "out": "REPORT.md",
        "metrics_out": None,
        "inject": None,
    },
    "measure": {
        "command": "measure",
        "trace": "t.npz",
        "sram_kb": None,
        "cache_kb": None,
        "k": 3,
        "replacement": "lru",
        "method": "csm",
        "top": 10,
        "engine": "batched",
        "metrics_out": None,
        "inject": None,
        "checkpoint_every": None,
        "checkpoint_out": None,
        "checkpoint_level": 1,
        "resume_from": None,
    },
    "serve": {
        "command": "serve",
        "trace": "t.npz",
        "workers": 2,
        "sram_kb": 2.0,
        "cache_kb": 1.0,
        "k": 3,
        "engine": "batched",
        "chunk_packets": 8192,
        "ring_kb": 4096,
        "backpressure": "block",
        "checkpoint_every": 4,
        "checkpoint_level": 1,
        "query_every": 0,
        "chaos_kill": None,
        "reshard": None,
        "reshard_above": None,
        "max_shards": None,
        "inject_worker": None,
        "hang_timeout": 30.0,
        "quarantine_after": 3,
        "restart_refill": 0.0,
        "verify_offline": False,
        "state_dir": None,
        "top": 5,
        "metrics_out": None,
    },
    "fabric": {
        "command": "fabric",
        "topology": "PATH:6",
        "fusion": "mle",
        "vantage_workers": 0,
        "shards": 1,
        "sample_rate": 1.0,
        "trace": None,
        "scale": None,
        "seed": 42,
        "sram_kb": None,
        "cache_kb": None,
        "k": 3,
        "engine": "batched",
        "chunk_packets": 8192,
        "chaos_kill": None,
        "verify_offline": False,
        "state_dir": None,
        "top": 5,
        "metrics_out": None,
    },
    "stats": {"command": "stats", "snapshot": "m.json"},
}

ENGINES = ["scalar", "batched"]

#: Each option's (metavar, type, required, choices, action).
OPTIONS = {
    "run": {
        "--scale": (None, "float", False, None, "store"),
        "--seed": (None, "int", False, None, "store"),
        "--engine": (None, None, False, ENGINES, "store"),
        "--export-dir": (None, None, False, None, "store"),
        "--metrics-out": ("PATH", None, False, None, "store"),
        "--inject": ("SPEC", None, False, None, "store"),
    },
    "list": {},
    "trace": {
        "--scale": (None, "float", False, None, "store"),
        "--seed": (None, "int", False, None, "store"),
        "--out": (None, None, True, None, "store"),
    },
    "report": {
        "--scale": (None, "float", False, None, "store"),
        "--seed": (None, "int", False, None, "store"),
        "--engine": (None, None, False, ENGINES, "store"),
        "--out": (None, None, False, None, "store"),
        "--metrics-out": ("PATH", None, False, None, "store"),
        "--inject": ("SPEC", None, False, None, "store"),
    },
    "measure": {
        "--trace": (None, None, True, None, "store"),
        "--sram-kb": (None, "float", False, None, "store"),
        "--cache-kb": (None, "float", False, None, "store"),
        "--k": (None, "int", False, None, "store"),
        "--replacement": (None, None, False, ["lru", "random"], "store"),
        "--method": (None, None, False, ["csm", "mlm", "median"], "store"),
        "--top": (None, "int", False, None, "store"),
        "--engine": (None, None, False, ENGINES, "store"),
        "--metrics-out": ("PATH", None, False, None, "store"),
        "--inject": ("SPEC", None, False, None, "store"),
        "--checkpoint-every": ("N", "int", False, None, "store"),
        "--checkpoint-out": ("PATH", None, False, None, "store"),
        "--checkpoint-level": ("L", "int", False, None, "store"),
        "--resume-from": ("PATH", None, False, None, "store"),
    },
    "serve": {
        "--trace": (None, None, True, None, "store"),
        "--workers": (None, "int", False, None, "store"),
        "--sram-kb": (None, "float", True, None, "store"),
        "--cache-kb": (None, "float", True, None, "store"),
        "--k": (None, "int", False, None, "store"),
        "--engine": (None, None, False, ENGINES, "store"),
        "--chunk-packets": (None, "int", False, None, "store"),
        "--ring-kb": ("KB", "int", False, None, "store"),
        "--backpressure": (None, None, False, ["block", "shed", "error"], "store"),
        "--checkpoint-every": ("N", "int", False, None, "store"),
        "--checkpoint-level": ("L", "int", False, None, "store"),
        "--query-every": ("N", "int", False, None, "store"),
        "--chaos-kill": ("SHARD:CHUNK", None, False, None, "store"),
        "--reshard": ("SHARD:AT_CHUNK", None, False, None, "store"),
        "--reshard-above": ("FILL", "float", False, None, "store"),
        "--max-shards": ("N", "int", False, None, "store"),
        "--inject-worker": ("SHARD:SPEC", None, False, None, "append"),
        "--hang-timeout": ("SECONDS", "float", False, None, "store"),
        "--quarantine-after": ("N", "int", False, None, "store"),
        "--restart-refill": ("PER_S", "float", False, None, "store"),
        "--verify-offline": (None, None, False, None, "store_true"),
        "--state-dir": (None, None, False, None, "store"),
        "--top": (None, "int", False, None, "store"),
        "--metrics-out": ("PATH", None, False, None, "store"),
    },
    "fabric": {
        "--topology": ("SPEC", None, False, None, "store"),
        "--fusion": (None, None, False, ["min", "ivw", "mle"], "store"),
        "--vantage-workers": ("N", "int", False, None, "store"),
        "--shards": ("W", "int", False, None, "store"),
        "--sample-rate": ("P", "float", False, None, "store"),
        "--trace": (None, None, False, None, "store"),
        "--scale": (None, "float", False, None, "store"),
        "--seed": (None, "int", False, None, "store"),
        "--sram-kb": (None, "float", False, None, "store"),
        "--cache-kb": (None, "float", False, None, "store"),
        "--k": (None, "int", False, None, "store"),
        "--engine": (None, None, False, ENGINES, "store"),
        "--chunk-packets": (None, "int", False, None, "store"),
        "--chaos-kill": ("VANTAGE:SHARD:CHUNK", None, False, None, "store"),
        "--verify-offline": (None, None, False, None, "store_true"),
        "--state-dir": (None, None, False, None, "store"),
        "--top": (None, "int", False, None, "store"),
        "--metrics-out": ("PATH", None, False, None, "store"),
    },
    "stats": {},
}

#: argparse's action classes by the ``action=`` names they stand for.
_ACTION_NAMES = {
    argparse._StoreAction: "store",
    argparse._StoreTrueAction: "store_true",
    argparse._AppendAction: "append",
}


def _subparsers(parser):
    (action,) = (a for a in parser._actions if isinstance(a.choices, dict))
    return action.choices


class TestSurface:
    """Every subcommand's flags, dests, defaults, types and metavars."""

    def test_every_subcommand_pinned(self):
        assert set(_subparsers(build_parser())) == set(NAMESPACES) == set(OPTIONS)

    @pytest.mark.parametrize("command", sorted(NAMESPACES))
    def test_namespace(self, command):
        args = build_parser().parse_args([command, *REQUIRED_ARGS[command]])
        # Dispatch plumbing (a handler stored on the namespace) is not
        # an option; everything else is.
        got = {k: v for k, v in vars(args).items() if not callable(v)}
        expected = NAMESPACES[command]
        assert got == expected
        assert {k: type(v) for k, v in got.items()} == {
            k: type(v) for k, v in expected.items()
        }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_options(self, command):
        got = {}
        for action in _subparsers(build_parser())[command]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            for flag in action.option_strings:
                got[flag] = (
                    action.metavar,
                    None if action.type is None else action.type.__name__,
                    action.required,
                    action.choices,
                    _ACTION_NAMES[type(action)],
                )
        assert got == OPTIONS[command]

    @pytest.mark.parametrize("command", [None, *sorted(NAMESPACES)])
    def test_help_renders(self, command, capsys):
        """argparse expands ``%(default)s`` only when it renders help."""
        argv = ["--help"] if command is None else [command, "--help"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


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

    def test_serve_bad_reshard_spec_exits_2(self, capsys, tiny_trace_path):
        base = ["serve", "--trace", tiny_trace_path, "--sram-kb", "2", "--cache-kb", "1"]
        for spec, message in (
            ("nope", "SHARD:AT_CHUNK"),
            ("1:2:3", "SHARD:AT_CHUNK"),
            ("2:0", "shard 2 out of range"),
            ("-1:0", "shard -1 out of range"),
        ):
            assert main([*base, f"--reshard={spec}"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err
            assert err.count("\n") == 1

    def test_serve_empty_spec_is_refused(self, capsys, tiny_trace_path):
        """An empty spec is malformed, not absent: the run must not go
        ahead without the fault or split it was asked for."""
        base = ["serve", "--trace", tiny_trace_path, "--sram-kb", "2", "--cache-kb", "1"]
        for flag, metavar in (("--chaos-kill", "SHARD:CHUNK"), ("--reshard", "SHARD:AT_CHUNK")):
            assert main([*base, f"{flag}="]) == 2
            assert metavar in capsys.readouterr().err


class TestFabricCli:
    """The `fabric` subcommand through the CLI."""

    def test_in_process_verifies_offline(self, capsys, tiny_trace_path):
        argv = [
            "fabric",
            "--trace",
            tiny_trace_path,
            "--topology",
            "PATH:4",
            "--shards",
            "2",
            "--sram-kb",
            "2",
            "--cache-kb",
            "1",
            "--verify-offline",
            "--top",
            "3",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "top 3 flows by fused estimate" in out
        assert "best single vantage" in out
        assert "offline verification: bit-identical" in out

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--chaos-kill", "nope", "--vantage-workers", "1"], "VANTAGE:SHARD:CHUNK"),
            (["--chaos-kill", "1:0", "--vantage-workers", "1"], "VANTAGE:SHARD:CHUNK"),
            (["--chaos-kill", "1:0:x", "--vantage-workers", "1"], "VANTAGE:SHARD:CHUNK"),
            (["--chaos-kill", "1:0:4"], "--vantage-workers"),
            (["--chaos-kill", "6:0:4", "--vantage-workers", "1"], "vantage 6 out of range"),
            (["--chaos-kill", "1:2:4", "--vantage-workers", "2"], "shard 2 out of range"),
        ],
    )
    def test_bad_chaos_spec_exits_2(self, capsys, tiny_trace_path, extra, message):
        """Each bad spec, alone, fails before any vantage or worker starts."""
        argv = ["fabric", "--trace", tiny_trace_path, "--sram-kb", "2", "--cache-kb", "1"]
        assert main([*argv, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1


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
