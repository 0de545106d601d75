"""Unit tests for the Program container."""

from dataclasses import replace

import pytest

from repro.core.generator import Generator
from repro.isa import FUClass, Program, imm, make, reg


@pytest.fixture(scope="module")
def program(isa):
    instructions = (
        make(isa.by_name("mov_r64_imm64"), reg("rax"), imm(1, 64)),
        make(isa.by_name("add_r64_r64"), reg("rax"), reg("rbx")),
        make(isa.by_name("imul_r64_r64"), reg("rax"), reg("rcx")),
        make(isa.by_name("addps_x_x"), reg("xmm0"), reg("xmm1")),
    )
    return Program(
        instructions=instructions, name="container", init_seed=9,
        data_size=2048, source="test",
    )


class TestContainer:
    def test_len_iter_index(self, program):
        assert len(program) == 4
        assert list(program)[0] is program[0]
        assert program[3].mnemonic == "addps"

    def test_histogram(self, program):
        histogram = program.fu_class_histogram()
        assert histogram[FUClass.INT_ADDER] == 1
        assert histogram[FUClass.INT_MUL] == 1
        assert histogram[FUClass.FP_ADD] == 1

    def test_to_asm_lines(self, program):
        lines = program.to_asm().splitlines()
        assert len(lines) == 4
        assert lines[1] == "add rax, rbx"

    def test_summary(self, program):
        text = program.summary()
        assert "container" in text
        assert "4 instructions" in text
        assert "seed=9" in text

    def test_with_instructions(self, program):
        shorter = program.with_instructions(program.instructions[:2])
        assert len(shorter) == 2
        assert shorter.init_seed == program.init_seed
        assert shorter.data_size == program.data_size

    def test_with_instructions_rename(self, program):
        renamed = program.with_instructions(
            program.instructions, name="other"
        )
        assert renamed.name == "other"

    def test_with_instructions_starts_fresh_metadata(self, program):
        synthesized = replace(
            program, metadata={"genome": ("add_r64_r64",) * 1000}
        )
        minimized = synthesized.with_instructions(
            synthesized.instructions[:1]
        )
        assert minimized.metadata == {}
        assert Generator.genome_of(minimized) == ("mov_r64_imm64",)
        minimized.metadata["note"] = "mine"
        assert synthesized.metadata == {"genome": ("add_r64_r64",) * 1000}

    def test_frozen(self, program):
        with pytest.raises(Exception):
            program.name = "mutated"

    def test_metadata_is_per_instance(self, isa):
        a = Program(instructions=(), name="a")
        b = Program(instructions=(), name="b")
        a.metadata["genome"] = ("x",)
        assert "genome" not in b.metadata
