"""Tests for the campaign benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import campaign  # noqa: E402
import compare  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _stream:
    BENCHMARK = json.load(_stream)


def run_bench(*args, script=os.path.join(HERE, "run.py"), cwd=ROOT):
    return subprocess.run(
        [sys.executable, script, *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(campaign.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace),
                     "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    expected = {spec["name"]: spec["unit"] for spec in BENCHMARK[group]}
    printed = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    assert printed == expected


def test_altered_fitness_fails_the_check(tmp_path):
    workload = campaign.tiny(campaign.WORKLOADS["fp_mul-converge"])
    target = campaign.build_target(workload, 5)
    start = campaign.start_checkpoint(
        workload, str(tmp_path), campaign.source_digest(os.path.join(ROOT, "src")))
    result = campaign.run_campaign(target, workload, 5, start,
                                   str(tmp_path))
    assert campaign.check(result, workload) == []
    name, fitness, cycles = result.elite[0]
    result.elite[0] = (name, fitness + 1e-9, cycles)
    problems = campaign.check(result, workload)
    assert len(problems) == 1 and "re-graded" in problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_bench(
        "--workload", "l1d-long", "--seed", "1", "--seconds", "1",
        "--trace", "0", script=str(tmp_path / "perfbench" / "run.py"),
        cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _record(seed, campaign_s, digest="d"):
    return {
        "workload": "w", "trace": 0, "seed": seed, "digest": digest,
        "metrics": {"campaign_s": {"value": campaign_s, "unit": "s"}},
    }


def test_compare_flags_regressions_and_digest_changes():
    parent = [_record(seed, 10.0 + 0.01 * seed) for seed in range(10)]
    slower = [_record(seed, 13.0) for seed in range(10)]
    faster = [_record(seed, 8.0) for seed in range(10)]
    lines, ok = compare.compare(parent, slower, BENCHMARK)
    assert not ok and any("REGRESSED" in line for line in lines)
    lines, ok = compare.compare(parent, faster, BENCHMARK)
    assert ok and any("improved" in line and "won 10/10" in line
                      for line in lines)
    changed = [_record(0, 10.0, digest="other")]
    lines, ok = compare.compare(parent[:1], changed, BENCHMARK)
    assert not ok and any("digest differs" in line for line in lines)
