"""Unit + property tests for the binary encoder/decoder."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import (
    DecodeError,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
    imm,
    make,
    mem,
    reg,
    rel,
    x64,
)
from repro.isa.operands import OperandKind


@pytest.fixture(scope="module")
def isa():
    return x64()


def _random_instruction(isa, rng):
    """Generate a random, fully-resolved instruction for any def."""
    from repro.isa import registers

    definition = rng.choice(list(isa))
    operands = []
    for spec in definition.operands:
        if spec.kind is OperandKind.GPR:
            operands.append(reg(registers.gpr(rng.randrange(16))))
        elif spec.kind is OperandKind.XMM:
            operands.append(reg(registers.xmm(rng.randrange(16))))
        elif spec.kind is OperandKind.IMM:
            operands.append(imm(rng.getrandbits(spec.width), spec.width))
        elif spec.kind is OperandKind.MEM:
            base = None if rng.random() < 0.2 else \
                registers.gpr(rng.randrange(16))
            operands.append(mem(base, rng.randrange(-1024, 1024)))
        else:
            operands.append(rel(rng.randrange(-100, 100)))
    return make(definition, *operands)


class TestRoundtrip:
    def test_single_instruction(self, isa):
        instruction = make(
            isa.by_name("add_r64_imm32"), reg("rax"), imm(99, 32)
        )
        decoded, offset = decode_instruction(
            isa, encode_instruction(instruction)
        )
        assert decoded.to_asm() == instruction.to_asm()
        assert offset == len(encode_instruction(instruction))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_every_definition_roundtrips(self, isa, seed):
        rng = random.Random(seed)
        instruction = _random_instruction(isa, rng)
        encoded = encode_instruction(instruction)
        decoded = decode_program(isa, encoded)
        assert len(decoded) == 1
        assert decoded[0].to_asm() == instruction.to_asm()

    def test_program_roundtrip(self, isa):
        rng = random.Random(1234)
        instructions = [_random_instruction(isa, rng) for _ in range(50)]
        decoded = decode_program(isa, encode_program(instructions))
        assert [i.to_asm() for i in decoded] == \
            [i.to_asm() for i in instructions]

    def test_exhaustive_definition_coverage(self, isa):
        """Every definition must round-trip at least once."""
        rng = random.Random(7)
        for definition in isa:
            operands = []
            for spec in definition.operands:
                if spec.kind is OperandKind.GPR:
                    operands.append(reg("rcx"))
                elif spec.kind is OperandKind.XMM:
                    operands.append(reg("xmm3"))
                elif spec.kind is OperandKind.IMM:
                    operands.append(imm(1, spec.width))
                elif spec.kind is OperandKind.MEM:
                    operands.append(mem("rbp", 8))
                else:
                    operands.append(rel(0))
            instruction = make(definition, *operands)
            decoded = decode_program(
                isa, encode_instruction(instruction)
            )
            assert decoded[0].definition is definition


class TestDecodeRejection:
    def test_unknown_opcode(self, isa):
        with pytest.raises(DecodeError):
            decode_program(isa, bytes([0x00]))  # even bytes unassigned

    def test_truncated_immediate(self, isa):
        opcode = isa.by_name("mov_r64_imm64").opcode
        with pytest.raises(DecodeError):
            decode_program(isa, bytes([opcode, 0x01, 0xFF]))

    def test_truncated_tail_rejects_whole_program(self, isa):
        good = encode_instruction(make(isa.by_name("nop")))
        with pytest.raises(DecodeError):
            decode_program(isa, good + bytes([0x00]))

    def test_empty_decodes_to_empty(self, isa):
        assert decode_program(isa, b"") == []

    def test_random_bytes_mostly_invalid(self, isa):
        """The sparse opcode space must reject the majority of random
        strings — the property the SiliFuzz discard rate rests on."""
        rng = random.Random(42)
        rejected = 0
        trials = 300
        for _ in range(trials):
            blob = bytes(rng.getrandbits(8) for _ in range(12))
            try:
                decode_program(isa, blob)
            except DecodeError:
                rejected += 1
        assert rejected / trials > 0.5

    def test_register_field_is_dense(self, isa):
        """Any register byte decodes (low 4 bits), like real ModRM."""
        opcode = isa.by_name("not_r64").opcode
        decoded = decode_program(isa, bytes([opcode, 0xF3]))
        assert decoded[0].operands[0].reg.index == 3


class TestEncodeRangeChecks:
    """A field too narrow for its value must raise, never wrap: the
    machine code is also the persisted form of every program."""

    def test_branch_displacement_outside_int8_raises(self, isa):
        with pytest.raises(ValueError, match="branch displacement 200"):
            encode_instruction(make(isa.by_name("jmp_rel"), rel(200)))
        with pytest.raises(ValueError, match="int8"):
            encode_instruction(make(isa.by_name("jmp_rel"), rel(-129)))

    def test_memory_displacement_outside_int32_raises(self, isa):
        definition = isa.by_name("add_r64_m64")
        with pytest.raises(ValueError, match="memory displacement"):
            encode_instruction(
                make(definition, reg("rbx"), mem("rbp", 2**33 + 5))
            )
        with pytest.raises(ValueError, match="int32"):
            encode_instruction(
                make(definition, reg("rbx"), mem(None, -(2**31) - 1))
            )

    def test_field_extremes_round_trip(self, isa):
        instructions = [
            make(isa.by_name("jmp_rel"), rel(127)),
            make(isa.by_name("jmp_rel"), rel(-128)),
            make(isa.by_name("add_r64_m64"), reg("rbx"),
                 mem("rbp", 2**31 - 1)),
            make(isa.by_name("add_r64_m64"), reg("rbx"),
                 mem(None, -(2**31))),
        ]
        assert decode_program(isa, encode_program(instructions)) == \
            instructions
