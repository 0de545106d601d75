"""Tests for the ``harpocrates`` CLI."""

import random

import pytest

from repro.cli import build_parser, main
from repro.core.checkpoint import LoopCheckpoint, encode_rng_state


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_scale_choices(self):
        parser = build_parser()
        args = parser.parse_args(["report", "--scale", "smoke"])
        assert args.scale == "smoke"
        with pytest.raises(SystemExit):
            parser.parse_args(["report", "--scale", "huge"])


class TestGenerate:
    def test_emits_assembly(self, capsys):
        exit_code = main(["generate", "--instructions", "20",
                          "--seed", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "random_00000003" in output
        assert len(output.splitlines()) >= 21

    def test_deterministic(self, capsys):
        main(["generate", "--instructions", "10", "--seed", "5"])
        first = capsys.readouterr().out
        main(["generate", "--instructions", "10", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestFuzz:
    def test_prints_stats(self, capsys):
        exit_code = main(["fuzz", "--rounds", "80", "--seed", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "inputs=80" in output
        assert "discard=" in output


class TestLoop:
    def test_unknown_target_rejected(self, capsys):
        exit_code = main(["loop", "nonsense", "--scale", "smoke"])
        assert exit_code == 2

    def test_resilience_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args([
            "loop", "irf", "--checkpoint-dir", "/tmp/ck",
            "--resume", "/tmp/ck/checkpoint_000002.json",
            "--eval-timeout", "2.5", "--max-retries", "3",
        ])
        assert args.checkpoint_dir == "/tmp/ck"
        assert args.resume == "/tmp/ck/checkpoint_000002.json"
        assert args.eval_timeout == 2.5
        assert args.max_retries == 3

    def test_resume_latest_requires_checkpoint_dir(self, capsys):
        exit_code = main([
            "loop", "int_adder", "--scale", "smoke", "--resume-latest",
        ])
        assert exit_code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_from_missing_checkpoint_fails_cleanly(
        self, capsys, tmp_path
    ):
        exit_code = main([
            "loop", "int_adder", "--scale", "smoke",
            "--resume", str(tmp_path),
        ])
        assert exit_code == 2
        assert "checkpoint" in capsys.readouterr().err

class TestUsageErrors:
    """Malformed invocations exit 2 with a one-line usage error —
    never a traceback."""

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_removed_static_screen_flag_exits_2(self, capsys):
        # The screen is an exact opcode-class count with nothing to
        # switch off; the old opt-out is now an unknown option.
        with pytest.raises(SystemExit) as excinfo:
            main(["loop", "fp_mul", "--scale", "smoke",
                  "--no-static-screen"])
        assert excinfo.value.code == 2
        assert "--no-static-screen" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "", "  ", "0", "-2"])
    def test_malformed_worker_count_exits_2(self, capsys, value):
        exit_code = main([
            "loop", "irf", "--scale", "smoke", "--workers", value,
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("bad --workers value:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_malformed_worker_endpoint_exits_2(self, capsys):
        exit_code = main([
            "loop", "irf", "--scale", "smoke",
            "--workers", "localhost:not_a_port",
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("bad --workers value:")
        assert "host:port" in err
        assert len(err.strip().splitlines()) == 1

    def test_fleet_listen_requires_a_fleet(self, capsys):
        exit_code = main([
            "loop", "irf", "--scale", "smoke", "--workers", "2",
            "--fleet-listen", "127.0.0.1:0",
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "--fleet-listen requires a distributed fleet" in err

    def test_malformed_fleet_listen_exits_2(self, capsys):
        exit_code = main([
            "loop", "irf", "--scale", "smoke",
            "--workers", "127.0.0.1:7070",
            "--fleet-listen", "nonsense",
        ])
        assert exit_code == 2
        assert "bad --fleet-listen value" in capsys.readouterr().err


class TestExplain:
    def test_undecodable_best_program_exits_2(self, capsys, tmp_path):
        record = {"name": "it00003_p00c01", "init_seed": 0,
                  "data_size": 2048, "source": "muSeqGen",
                  "code": "AA=="}  # opcode 0x00 is unassigned
        LoopCheckpoint(
            iteration=3, population=[],
            rng_state=encode_rng_state(random.Random(0).getstate()),
            best=[{"program": record, "fitness": 0.5,
                   "total_cycles": 10, "crashed": False}],
        ).save(str(tmp_path))
        exit_code = main([
            "explain", "int_adder", "--scale", "smoke",
            "--resume", str(tmp_path),
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: program record "
                              "'it00003_p00c01' does not decode")
        assert len(err.strip().splitlines()) == 1

    def test_defaults_parse(self):
        parser = build_parser()
        args = parser.parse_args(["explain", "int_adder"])
        assert args.top == 1
        assert args.workers == "1"
        assert args.program_seed == 0
        assert args.out is None
        assert args.resume is None

    def test_unknown_target_rejected(self, capsys):
        exit_code = main(["explain", "nonsense", "--scale", "smoke"])
        assert exit_code == 2
        assert "unknown target" in capsys.readouterr().err

    def test_bad_workers_rejected(self, capsys):
        exit_code = main([
            "explain", "int_adder", "--scale", "smoke",
            "--workers", "zero",
        ])
        assert exit_code == 2
        assert "bad --workers value" in capsys.readouterr().err

    def test_fleet_workers_rejected(self, capsys):
        exit_code = main([
            "explain", "int_adder", "--scale", "smoke",
            "--workers", "127.0.0.1:7070",
        ])
        assert exit_code == 2
        assert "minimizes locally" in capsys.readouterr().err

    def test_end_to_end_witness_on_stdout(self, capsys, tmp_path):
        out_dir = str(tmp_path / "witnesses")
        exit_code = main([
            "explain", "int_adder", "--scale", "smoke",
            "--out", out_dir,
        ])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Witness — int_adder" in captured.out
        assert "minimized:" in captured.out
        # Campaign chatter and the witness digest stay on stderr.
        assert "detection=" in captured.err
        import os
        names = sorted(os.listdir(out_dir))
        assert any(name.endswith(".json") for name in names)
        assert any(name.endswith(".txt") for name in names)


class TestLoopResume:
    def test_checkpointed_run_then_resume(self, capsys, tmp_path):
        checkpoint_dir = str(tmp_path / "ck")
        exit_code = main([
            "loop", "int_adder", "--scale", "smoke",
            "--checkpoint-dir", checkpoint_dir,
        ])
        assert exit_code == 0
        first = capsys.readouterr().out
        assert "final detection" in first
        import os
        assert any(
            name.startswith("checkpoint_")
            for name in os.listdir(checkpoint_dir)
        )
        exit_code = main([
            "loop", "int_adder", "--scale", "smoke",
            "--checkpoint-dir", checkpoint_dir, "--resume-latest",
        ])
        assert exit_code == 0
        assert "final detection" in capsys.readouterr().out
