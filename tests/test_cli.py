"""Tests for the repro-sim command-line interface."""

import argparse
import json
import re
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.core import SCHEMES

REPO = Path(__file__).resolve().parents[1]


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """``name -> subparser`` for every command of ``parser``."""
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_migrate_defaults(self):
        args = build_parser().parse_args(["migrate"])
        assert args.workload == "specweb"
        assert args.scheme == "tpm"
        assert args.rate_limit is None

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["migrate", "--workload", "doom"])

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["migrate", "--scheme", "teleport"])

    def test_scheme_choices_are_the_scheme_table(self):
        schemed = {}
        for command, sub in subcommands(build_parser()).items():
            for action in sub._actions:
                if "--scheme" in action.option_strings:
                    schemed[command] = list(action.choices)
        assert schemed == {command: list(SCHEMES)
                           for command in ("migrate", "evacuate")}


    def test_documented_commands_exist(self):
        # Every ``repro-sim <command>`` shown in the README, docs/ or the
        # CLI's own docstring must be a command the parser accepts.
        texts = {path.relative_to(REPO).as_posix(): path.read_text()
                 for path in [REPO / "README.md",
                              *sorted((REPO / "docs").glob("*.md"))]}
        texts["repro.cli"] = repro.cli.__doc__
        documented = {(where, word) for where, text in texts.items()
                      for word in re.findall(r"\brepro-sim ([a-z][\w-]*)",
                                             text)}
        assert {word for _where, word in documented} >= {"migrate",
                                                        "table1"}
        commands = subcommands(build_parser())
        assert sorted((where, word) for where, word in documented
                      if word not in commands) == []


class TestBadNumbers:
    """A bad number is a one-line usage error (exit status 2) before
    anything runs, not a traceback or a silent no-op."""

    @pytest.mark.parametrize("argv", [
        ["migrate", "--scale", "0"],
        ["migrate", "--scale", "1.5"],
        ["migrate", "--warmup", "-5"],
        ["migrate", "--warmup", "nan"],
        ["migrate", "--roundtrip", "--dwell", "-1"],
        ["table2", "--dwell", "-1"],
        ["backup", "--increments", "-1"],
        ["backup", "--interval", "0"],
        ["migrate", "--max-iterations", "0"],
        ["migrate", "--compression-ratio", "0.5"],
        ["migrate", "--compression-ratio", "nan"],
        ["migrate", "--rate-limit", "-3"],
        ["evacuate", "--hosts", "1"],
        ["evacuate", "--concurrency", "0"],
        ["evacuate", "--per-link-limit", "0"],
        ["evacuate", "--nblocks", "0"],
        ["chaos", "--racks", "0"],
        ["chaos", "--jobs", "-1"],
        ["chaos", "--max-attempts", "0"],
        ["locality", "--duration", "-1"],
    ], ids=" ".join)
    def test_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--workload", "idle"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {argv[-2]}: " in err
        assert "Traceback" not in err

    def test_bounds_are_accepted(self):
        args = build_parser().parse_args(
            ["backup", "--scale", "1", "--warmup", "0", "--increments", "0"])
        assert (args.scale, args.warmup, args.increments) == (1.0, 0.0, 0)


class TestCommands:
    SMALL = ["--scale", "0.004", "--warmup", "3"]

    def test_migrate_tpm(self, capsys):
        assert main(["migrate", "--workload", "idle", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "primary TPM migration" in out
        assert "downtime" in out
        assert "wire ledger" in out

    def test_migrate_roundtrip(self, capsys):
        assert main(["migrate", "--workload", "specweb", "--roundtrip",
                     "--dwell", "3", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "incremental migration back" in out

    def test_migrate_guest_aware_flag(self, capsys):
        assert main(["migrate", "--workload", "idle", "--guest-aware",
                     *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "guest_aware_skipped_blocks" in out

    def test_migrate_baseline_scheme(self, capsys):
        assert main(["migrate", "--scheme", "freeze-and-copy",
                     "--workload", "idle", *self.SMALL]) == 0
        assert "freeze-and-copy migration" in capsys.readouterr().out

    def test_migrate_on_demand_reports_dependency(self, capsys):
        assert main(["migrate", "--scheme", "on-demand", "--workload",
                     "idle", "--dwell", "2", *self.SMALL]) == 0
        assert "residual dependency" in capsys.readouterr().out

    def test_migrate_trace_prints_spans_and_writes_file(self, capsys,
                                                        tmp_path):
        path = tmp_path / "t.json"
        assert main(["migrate", "--workload", "idle", "--trace", str(path),
                     *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "primary TPM migration" in out
        assert "span tree (" in out and "phase:freeze" in out
        assert "phase durations:" in out
        assert "wire counters:" in out and "chan." in out
        assert f"trace written to {path} (chrome format)" in out
        assert json.loads(path.read_text())["traceEvents"]

    @pytest.mark.parametrize("mode", ["migrate", "trace"])
    def test_on_demand_dependency_is_stopped(self, mode, capsys,
                                             monkeypatch, tmp_path):
        from repro.baselines.ondemand import OnDemandMigration

        stops = []
        real_stop = OnDemandMigration.stop
        monkeypatch.setattr(OnDemandMigration, "stop",
                            lambda self: stops.append(real_stop(self)))
        traced = (["--trace", str(tmp_path / "t.json")] if mode == "trace"
                  else [])
        assert main(["migrate", "--scheme", "on-demand", "--workload", "idle",
                     "--dwell", "2", *traced, *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "on-demand migration" in out
        assert "residual dependency" in out
        if mode == "trace":
            assert "span tree (" in out and "wire counters:" in out
        assert len(stops) == 1

    def test_backup_chain(self, capsys):
        assert main(["backup", "--workload", "idle", "--increments", "2",
                     "--interval", "2", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "full backup" in out
        assert "restore verified: CONSISTENT" in out

    def test_backup_with_mid_chain_migration(self, capsys):
        assert main(["backup", "--workload", "specweb", "--increments", "2",
                     "--interval", "2", "--migrate-between",
                     *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "live-migrated mid-chain" in out
        assert "restore verified: CONSISTENT" in out

    def test_table1(self, capsys):
        assert main(["table1", "--workload", "video", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "measured" in out

    def test_table2(self, capsys):
        assert main(["table2", "--workload", "specweb", "--dwell", "3",
                     *self.SMALL]) == 0
        assert "Table II" in capsys.readouterr().out

    def test_chaos_both_modes(self, capsys):
        assert main(["chaos", "--seed", "0", "--mode", "both"]) == 0
        out = capsys.readouterr().out
        assert "seed=0 mode=monolithic" in out
        assert "seed=0 mode=sharded" in out
        assert out.count("all invariants hold") == 2

    def test_locality(self, capsys):
        assert main(["locality", "--workload", "kernelbuild",
                     "--duration", "20", "--warmup", "10",
                     "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "locality" in out and "rewrite fraction" in out


class TestEvacuate:
    SMALL = ["--nblocks", "256", "--npages", "64"]

    @staticmethod
    def destinations(out):
        """``{vm: destination}`` from the per-job lines of the report."""
        rows = [line.split() for line in out.splitlines()
                if line.startswith("  vm-")]
        assert all(row[1] == "->" and row[3] == "done" for row in rows)
        return {row[0]: row[2] for row in rows}

    def test_star_spreads_one_vm_per_host(self, capsys):
        assert main(["evacuate", "--hosts", "4",
                     "--vms-per-host", "3", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "evacuated host00: 3 VMs" in out
        assert "per-link byte accounting: conserved" in out
        assert self.destinations(out) == {
            "vm-host00-0": "host01", "vm-host00-1": "host02",
            "vm-host00-2": "host03"}

    def test_full_wiring_wraps_around(self, capsys):
        assert main(["evacuate", "--hosts", "3",
                     "--vms-per-host", "7", "--wiring", "full",
                     *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "evacuated host00: 7 VMs" in out
        assert "per-link byte accounting: conserved" in out
        assert self.destinations(out) == {
            f"vm-host00-{v}": ("host01", "host02")[v % 2]
            for v in range(7)}
