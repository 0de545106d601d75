"""The test-program container shared by every subsystem.

A :class:`Program` is the unit of currency in Harpocrates: the generator
produces them, the mutator rewrites them, the evaluator grades them, the
fault injector measures their detection capability.  A program is a
linear sequence of instructions (the paper's generator emits a single
basic block whose branches all resolve to the fall-through, §V-D) plus
the wrapper parameters needed to reproduce its initial state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional, Tuple

from repro.isa.instructions import FUClass, Instruction


@dataclass(frozen=True)
class Program:
    """An executable functional test program."""

    instructions: Tuple[Instruction, ...]
    name: str = "program"
    #: Seed for deterministic register/memory initialization (the
    #: wrapper's init code, §V-D).
    init_seed: int = 0
    #: Size in bytes of the designated data region memory operands
    #: resolve into.
    data_size: int = 32 * 1024
    #: Provenance label ("harpocrates", "silifuzz", "opendcdiag", ...).
    source: str = "unknown"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def with_instructions(
        self, instructions: Tuple[Instruction, ...], name: Optional[str] = None
    ) -> "Program":
        """Return a copy with a new instruction sequence.

        The copy starts with empty ``metadata``: what the synthesizer
        recorded there (the genome) describes the old sequence."""
        return replace(
            self,
            instructions=tuple(instructions),
            name=name if name is not None else self.name,
            metadata={},
        )

    def fu_class_histogram(self) -> Dict[FUClass, int]:
        """Static instruction count per functional-unit class."""
        histogram: Dict[FUClass, int] = {}
        for instruction in self.instructions:
            fu_class = instruction.definition.fu_class
            histogram[fu_class] = histogram.get(fu_class, 0) + 1
        return histogram

    def to_asm(self) -> str:
        """Render the whole program as assembly text."""
        return "\n".join(
            instruction.to_asm() for instruction in self.instructions
        )

    def summary(self) -> str:
        """One-line description used in logs and reports."""
        return (
            f"{self.name}: {len(self)} instructions "
            f"(source={self.source}, seed={self.init_seed})"
        )
