"""Replay the committed witness corpus.

Each ``tests/data/witnesses/*.json`` file is a minimized program plus
the fault it detects, as ``harpocrates explain`` wrote it.  Re-running
every witness through the production golden run and injector must
reproduce the recorded outcome and localization, so a refactor of the
evaluation path cannot quietly change what a program detects.
"""

import json
from pathlib import Path

import pytest

from repro.core.targets import scaled_targets
from repro.experiments.presets import SMOKE
from repro.explain import check_witness, localize, load_witness_program
from repro.sim.cosim import golden_run

WITNESS_DIR = Path(__file__).resolve().parents[1] / "data" / "witnesses"
WITNESSES = sorted(WITNESS_DIR.glob("*.json"))


def test_corpus_is_present():
    assert WITNESSES, f"no witnesses under {WITNESS_DIR}"


@pytest.mark.parametrize("path", WITNESSES, ids=lambda path: path.stem)
def test_witness_reproduces_recorded_verdict(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    program, fault, outcome = load_witness_program(str(path))
    machine = scaled_targets(
        SMOKE.program_scale, SMOKE.loop_scale
    )[payload["target"]].machine

    result = check_witness(program, fault, machine)
    assert result is not None, f"{path.name}: fault no longer detected"
    assert result.outcome.value == outcome
    assert result.crash_kind == payload["crash_kind"]

    diagnosis = localize(golden_run(program, machine), fault)
    recorded = payload["localization"]
    assert diagnosis.site == recorded["site"]
    assert diagnosis.structure == recorded["structure"]
    assert diagnosis.total_cycles == recorded["total_cycles"]
    assert diagnosis.first_divergence_dyn == \
        recorded["first_divergence_dyn"]
    assert diagnosis.first_divergence_cycle == \
        recorded["first_divergence_cycle"]
    assert list(diagnosis.corrupted_outputs) == \
        recorded["corrupted_outputs"]


@pytest.mark.parametrize("path", WITNESSES, ids=lambda path: path.stem)
def test_witness_program_matches_its_listing(path):
    """The JSON's machine code decodes to the program the ``.txt``
    report lists, instruction for instruction."""
    program, _, _ = load_witness_program(str(path))
    text = path.with_suffix(".txt").read_text(encoding="utf-8")
    listing = text.split("  program:\n", 1)[1].splitlines()
    assert listing == [
        f"    {index:3d}  {instruction.to_asm()}"
        for index, instruction in enumerate(program)
    ]
