"""Binary encoding and decoding of instructions.

The paper's SiliFuzz baseline "represents the program as a byte
sequence, mutating raw bytes with no internal notion of x86 encoding"
(Fig 8).  For that baseline to be meaningful here, the ISA needs a real
byte-level encoding whose random mutations frequently produce
undecodable sequences — like true x86, where most random byte strings
contain illegal instructions.

Layout per instruction:

``[opcode]`` or ``[0x0F, opcode2]`` followed by one field per operand:

* GPR/XMM register: 1 byte; like the real ModRM register fields, every
  byte value decodes (the low 4 bits select the register),
* immediate of width *w*: *w*/8 bytes, little endian,
* memory operand: 1 mode byte (bit 4 set = RIP-relative, else the low
  4 bits select the base GPR) + 4-byte little-endian signed
  displacement,
* branch displacement: 1 signed byte.

Register/memory fields are dense (any byte decodes) but the *opcode*
space is sparse (see :mod:`repro.isa.isa_x64`): roughly half the
primary map and two-thirds of the secondary map are unassigned.
Together with truncated-tail rejection and crash/determinism filtering,
byte-mutation fuzzing lands at the paper's "more than 2 out of 3
produced sequences are eventually unusable" regime (Fig 8).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.isa import registers
from repro.isa.instructions import Instruction, InstructionSet
from repro.isa.isa_x64 import SECONDARY_ESCAPE
from repro.isa.operands import (
    ImmOperand,
    MemOperand,
    Operand,
    OperandKind,
    RegOperand,
    RelOperand,
)
from repro.util.bitops import to_signed, to_unsigned

RIP_MODE_BYTE = 0x10

#: Register operands are immutable, so decoding shares one per register.
_GPR_OPERANDS = tuple(RegOperand(reg) for reg in registers.GPR)
_XMM_OPERANDS = tuple(RegOperand(reg) for reg in registers.XMM)


class DecodeError(ValueError):
    """Raised when a byte sequence does not decode to a valid instruction."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"decode error at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


def encode_instruction(instruction: Instruction) -> bytes:
    """Encode one instruction to bytes."""
    definition = instruction.definition
    opcode = definition.opcode
    parts = bytearray(
        (SECONDARY_ESCAPE, opcode & 0xFF) if opcode > 0xFF else (opcode,)
    )
    for spec, operand in zip(definition.operands, instruction.operands):
        kind = spec.kind
        if kind is OperandKind.GPR or kind is OperandKind.XMM:
            parts.append(operand.reg.index)
        else:
            parts += _encode_operand(kind, spec.width, operand)
    return bytes(parts)


def _encode_operand(kind: OperandKind, width: int, operand: Operand) -> bytes:
    if kind is OperandKind.IMM:
        assert isinstance(operand, ImmOperand)
        return operand.value.to_bytes(width // 8, "little")
    if kind is OperandKind.MEM:
        assert isinstance(operand, MemOperand)
        mode = RIP_MODE_BYTE if operand.base is None else operand.base.index
        _check_signed(operand.displacement, 32, "memory displacement")
        displacement = to_unsigned(operand.displacement, 32)
        return bytes([mode]) + displacement.to_bytes(4, "little")
    if kind is OperandKind.REL:
        assert isinstance(operand, RelOperand)
        _check_signed(operand.displacement, 8, "branch displacement")
        return to_unsigned(operand.displacement, 8).to_bytes(1, "little")
    raise TypeError(f"cannot encode operand kind {kind}")


def _check_signed(value: int, width: int, what: str) -> None:
    """Reject a value the ``width``-bit field would silently wrap."""
    bound = 1 << (width - 1)
    if not -bound <= value < bound:
        raise ValueError(f"{what} {value} does not fit in int{width}")


def encode_program(instructions: List[Instruction]) -> bytes:
    """Encode a sequence of instructions to a flat byte string."""
    return b"".join(encode_instruction(i) for i in instructions)


def decode_instruction(
    isa: InstructionSet, data: bytes, offset: int = 0
) -> Tuple[Instruction, int]:
    """Decode one instruction starting at ``offset``.

    Returns the instruction and the offset just past it.  Raises
    :class:`DecodeError` on any malformed byte.
    """
    start = offset
    if offset >= len(data):
        raise DecodeError(offset, "truncated opcode")
    opcode = data[offset]
    offset += 1
    if opcode == SECONDARY_ESCAPE:
        if offset >= len(data):
            raise DecodeError(offset, "truncated secondary opcode")
        opcode = (SECONDARY_ESCAPE << 8) | data[offset]
        offset += 1
    definition = isa.by_opcode(opcode)
    if definition is None:
        raise DecodeError(start, f"unknown opcode {opcode:#x}")
    operands: List[Operand] = []
    for spec in definition.operands:
        operand, offset = _decode_operand(spec.kind, spec.width, data, offset)
        operands.append(operand)
    return Instruction(definition, tuple(operands)), offset


def _decode_operand(
    kind: OperandKind, width: int, data: bytes, offset: int
) -> Tuple[Operand, int]:
    if kind is OperandKind.GPR or kind is OperandKind.XMM:
        if offset >= len(data):
            raise DecodeError(offset, "truncated register byte")
        table = _GPR_OPERANDS if kind is OperandKind.GPR else _XMM_OPERANDS
        # Dense, like the ModRM reg field: the low 4 bits select.
        return table[data[offset] & 0x0F], offset + 1
    if kind is OperandKind.IMM:
        size = width // 8
        if offset + size > len(data):
            raise DecodeError(offset, "truncated immediate")
        value = int.from_bytes(data[offset:offset + size], "little")
        return ImmOperand(value, width), offset + size
    if kind is OperandKind.MEM:
        if offset + 5 > len(data):
            raise DecodeError(offset, "truncated memory operand")
        mode = data[offset]
        displacement = to_signed(
            int.from_bytes(data[offset + 1:offset + 5], "little"), 32
        )
        if mode & RIP_MODE_BYTE:
            return MemOperand(None, displacement), offset + 5
        return MemOperand(
            registers.gpr(mode & 0x0F), displacement
        ), offset + 5
    if kind is OperandKind.REL:
        if offset >= len(data):
            raise DecodeError(offset, "truncated branch displacement")
        return RelOperand(to_signed(data[offset], 8)), offset + 1
    raise TypeError(f"cannot decode operand kind {kind}")


def decode_program(isa: InstructionSet, data: bytes) -> List[Instruction]:
    """Decode a full byte string into instructions.

    The whole string must decode cleanly (any trailing partial
    instruction raises), mirroring SiliFuzz's rejection of snapshots
    containing illegal instructions.
    """
    instructions: List[Instruction] = []
    offset = 0
    while offset < len(data):
        instruction, offset = decode_instruction(isa, data, offset)
        instructions.append(instruction)
    return instructions
