"""Unit tests for the witness codec and renderers."""

import json

import pytest

from repro.core.checkpoint import decode_program, encode_program
from repro.explain import explain_detections
from repro.explain.localize import Localization
from repro.explain.report import (
    WITNESS_SCHEMA,
    Witness,
    decode_fault,
    encode_fault,
    load_witness_program,
    render_witness_json,
    render_witness_text,
    witness_filename,
    write_witness,
)
from repro.faults.injector import campaign_gate_permanent
from repro.faults.models import (
    CacheTransient,
    GateIntermittent,
    GatePermanent,
    RegisterIntermittent,
    RegisterPermanent,
    RegisterTransient,
)
from repro.gatelevel.netlist import StuckAt
from repro.isa import Program, imm, make, mem, reg, rel
from repro.isa.instructions import FUClass
from repro.sim.cosim import golden_run

ALL_FAULTS = [
    RegisterTransient(preg=3, bit=7, cycle=11),
    RegisterIntermittent(preg=4, bit=0, start_cycle=5, duration=3),
    RegisterPermanent(preg=2, bit=1, stuck_value=1),
    CacheTransient(set_index=1, way=0, bit_in_line=37, cycle=9),
    GatePermanent(FUClass.INT_ADDER, 0, StuckAt(346, 0)),
    GateIntermittent(FUClass.INT_MUL, 1, StuckAt(12, 1),
                     start_cycle=4, duration=6),
]


class TestFaultCodec:
    @pytest.mark.parametrize(
        "fault", ALL_FAULTS, ids=lambda f: type(f).__name__
    )
    def test_round_trip(self, fault):
        payload = encode_fault(fault)
        assert json.loads(json.dumps(payload)) == payload
        assert decode_fault(payload) == fault

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            decode_fault({"kind": "cosmic_ray"})

    def test_unsupported_fault_raises(self):
        with pytest.raises(TypeError):
            encode_fault(object())


class TestProgramCodec:
    """Witnesses carry the checkpoint program record."""

    def _program(self, isa):
        return Program(
            instructions=(
                make(isa.by_name("mov_r64_imm64"), reg("rax"),
                     imm(5, 64)),
                make(isa.by_name("add_r64_m64"), reg("rbx"),
                     mem("rbp", 16)),
                make(isa.by_name("jmp_rel"), rel(0)),
                make(isa.by_name("nop")),
            ),
            name="codec", init_seed=7, data_size=4096, source="test",
        )

    def test_instruction_round_trip(self, isa):
        for instruction in self._program(isa):
            single = Program(instructions=(instruction,))
            decoded = decode_program(encode_program(single))
            assert decoded.instructions == (instruction,)

    def test_program_round_trip(self, isa):
        program = self._program(isa)
        assert decode_program(encode_program(program)) == program

    def test_payload_is_json_safe(self, isa):
        payload = encode_program(self._program(isa))
        assert json.loads(json.dumps(payload)) == payload


def _witness(isa):
    program = Program(
        instructions=(
            make(isa.by_name("add_r64_r64"), reg("rbx"), reg("rax")),
        ),
        name="w-min", init_seed=1, data_size=4096, source="test",
    )
    localization = Localization(
        structure="int_adder#0", site="int_adder#0 wire346@sa0",
        outcome="sdc", crash_kind=None, total_cycles=42,
        first_divergence_dyn=0, first_divergence_cycle=3,
        first_divergence_instruction="add", propagation=(),
        corrupted_outputs=("rbx",),
    )
    return Witness(
        target="int_adder",
        fault=GatePermanent(FUClass.INT_ADDER, 0, StuckAt(346, 0)),
        outcome="sdc", crash_kind=None, original_name="w",
        original_instructions=10, minimized=program,
        steps=("chunk:-9@2",), instructions_removed=9,
        operands_simplified=0, localization=localization,
    )


class TestWitnessRendering:
    def test_json_is_stable_and_versioned(self, isa):
        witness = _witness(isa)
        first = render_witness_json(witness)
        second = render_witness_json(witness)
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == WITNESS_SCHEMA
        assert payload["minimized"]["name"] == "w-min"
        assert first.endswith("\n")

    def test_reduction_and_summary(self, isa):
        witness = _witness(isa)
        assert witness.minimized_instructions == 1
        assert witness.reduction == pytest.approx(0.9)
        summary = witness.summary()
        assert "witness[int_adder]" in summary
        assert "10 -> 1 instructions" in summary

    def test_text_report_contains_listing(self, isa):
        text = render_witness_text(_witness(isa))
        assert "Witness — int_adder" in text
        assert "add" in text
        assert "reduction trace:" in text

    def test_filename_sanitizes_structure(self, isa):
        assert witness_filename(_witness(isa), 2) == \
            "witness-int_adder-002-int_adder_0"

    def test_write_and_load_round_trip(self, isa, tmp_path):
        witness = _witness(isa)
        path = write_witness(witness, str(tmp_path), index=0)
        program, fault, outcome = load_witness_program(path)
        assert fault == witness.fault
        assert outcome == "sdc"
        assert [i.to_asm() for i in program] == \
            [i.to_asm() for i in witness.minimized]
        assert (tmp_path / "witness-int_adder-000-int_adder_0.txt") \
            .exists()


class TestExplainDetections:
    def _campaign(self, isa):
        program = Program(
            instructions=(
                make(isa.by_name("mov_r64_imm64"), reg("rax"),
                     imm(5, 64)),
                make(isa.by_name("add_r64_r64"), reg("rbx"),
                     reg("rax")),
                make(isa.by_name("add_r64_r64"), reg("rsi"),
                     reg("rbx")),
                make(isa.by_name("nop")),
                make(isa.by_name("nop")),
            ),
            name="camp", init_seed=1, data_size=4096, source="test",
        )
        golden = golden_run(program)
        assert not golden.crashed
        report = campaign_gate_permanent(
            golden, FUClass.INT_ADDER, num_injections=40, seed=0
        )
        assert report.detected
        return golden, report

    def test_top_zero_is_noop(self, isa):
        golden, report = self._campaign(isa)
        assert explain_detections(golden, report, top=0) == []

    def test_writes_byte_stable_artifacts(self, isa, tmp_path):
        golden, report = self._campaign(isa)
        first_dir = tmp_path / "a"
        second_dir = tmp_path / "b"
        first = explain_detections(
            golden, report, top=2, target_key="int_adder",
            out_dir=str(first_dir),
        )
        second = explain_detections(
            golden, report, top=2, target_key="int_adder",
            out_dir=str(second_dir),
        )
        assert first
        assert len(first) == len(second)
        for one, two in zip(first, second):
            assert render_witness_json(one) == render_witness_json(two)
        first_names = sorted(p.name for p in first_dir.iterdir())
        assert first_names == \
            sorted(p.name for p in second_dir.iterdir())
        for name in first_names:
            assert (first_dir / name).read_bytes() == \
                (second_dir / name).read_bytes()
