"""Unit tests for memory, initial state and program outputs."""

import random

import pytest

from repro.isa import registers
from repro.isa.flags import Flags
from repro.sim import functional
from repro.sim.config import MemoryMap
from repro.sim.errors import MemoryFault
from repro.sim.state import (
    ArchState,
    Memory,
    ProgramOutput,
    _initial_image,
    initial_state,
)


def reference_initial_state(seed, layout, *, zero_fp=False):
    """The original generator: one ``getrandbits(8)`` per data byte."""
    rng = random.Random((seed * 2654435761) % (1 << 64) + 1)
    gprs = {reg.name: rng.getrandbits(64) for reg in registers.GPR}
    gprs["rbp"] = layout.data_base
    gprs["rsp"] = layout.stack_end
    xmms = {}
    for reg in registers.XMM:
        if zero_fp:
            xmms[reg.name] = 0
            continue
        lanes = []
        for _ in range(4):
            sign = rng.getrandbits(1)
            exponent = rng.randrange(110, 145)
            mantissa = rng.getrandbits(23)
            lanes.append((sign << 31) | (exponent << 23) | mantissa)
        value = 0
        for i, lane in enumerate(lanes):
            value |= lane << (32 * i)
        xmms[reg.name] = value
    memory = Memory(layout)
    memory.fill_data(bytes(rng.getrandbits(8) for _ in range(layout.data_size)))
    return ArchState(gprs=gprs, xmms=xmms, flags=Flags(), memory=memory)


@pytest.fixture
def layout():
    return MemoryMap(data_size=4096)


class TestMemory:
    def test_read_write_roundtrip(self, layout):
        memory = Memory(layout)
        memory.write(layout.data_base + 8, 64, 0xDEADBEEF)
        assert memory.read(layout.data_base + 8, 64) == 0xDEADBEEF

    def test_little_endian(self, layout):
        memory = Memory(layout)
        memory.write(layout.data_base, 32, 0x04030201)
        assert memory.read(layout.data_base, 8) == 0x01
        assert memory.read(layout.data_base + 3, 8) == 0x04

    def test_stack_region_accessible(self, layout):
        memory = Memory(layout)
        memory.write(layout.stack_base, 64, 5)
        assert memory.read(layout.stack_base, 64) == 5

    def test_out_of_bounds_raises(self, layout):
        memory = Memory(layout)
        with pytest.raises(MemoryFault):
            memory.read(layout.data_end, 64)
        with pytest.raises(MemoryFault):
            memory.read(layout.data_base - 1, 8)

    def test_straddling_region_end_raises(self, layout):
        memory = Memory(layout)
        with pytest.raises(MemoryFault):
            memory.read(layout.data_end - 4, 64)

    def test_xor_byte(self, layout):
        memory = Memory(layout)
        memory.write(layout.data_base, 8, 0b1010)
        memory.xor_byte(layout.data_base, 0b0110)
        assert memory.read(layout.data_base, 8) == 0b1100

    def test_128_bit_access(self, layout):
        memory = Memory(layout)
        value = (1 << 127) | 3
        memory.write(layout.data_base + 16, 128, value)
        assert memory.read(layout.data_base + 16, 128) == value


class TestInitialState:
    def test_deterministic(self, layout):
        a = initial_state(5, layout)
        b = initial_state(5, layout)
        assert a.gprs == b.gprs
        assert a.xmms == b.xmms
        assert a.memory.data_bytes() == b.memory.data_bytes()

    def test_seed_changes_state(self, layout):
        a = initial_state(5, layout)
        b = initial_state(6, layout)
        assert a.gprs != b.gprs

    def test_rbp_points_at_data_region(self, layout):
        state = initial_state(0, layout)
        assert state.gprs["rbp"] == layout.data_base

    def test_rsp_points_at_stack_top(self, layout):
        state = initial_state(0, layout)
        assert state.gprs["rsp"] == layout.stack_end

    def test_xmm_lanes_are_finite_floats(self, layout):
        import struct

        state = initial_state(1, layout)
        for value in state.xmms.values():
            for lane in range(4):
                bits = (value >> (32 * lane)) & 0xFFFFFFFF
                lane_value = struct.unpack(
                    "<f", struct.pack("<I", bits)
                )[0]
                assert lane_value == lane_value  # not NaN
                assert abs(lane_value) < float("inf")


class TestInitialStateOracle:
    @pytest.mark.parametrize("size", [0, 1, 64, 2048, 32768])
    @pytest.mark.parametrize("zero_fp", [False, True])
    def test_matches_reference_generator(self, size, zero_fp):
        layout = MemoryMap(data_size=size)
        for seed in (0, 1, 7, 12345, 2**40 + 3):
            state = initial_state(seed, layout, zero_fp=zero_fp)
            expected = reference_initial_state(seed, layout, zero_fp=zero_fp)
            assert state.gprs == expected.gprs
            assert state.xmms == expected.xmms
            assert state.memory.data_bytes() == \
                expected.memory.data_bytes()

    def test_memoized_state_is_not_shared(self, layout):
        first = initial_state(3, layout)
        pristine = reference_initial_state(3, layout)
        first.gprs["rax"] ^= 1
        first.gprs["new"] = 5
        first.xmms["xmm0"] ^= 1
        first.flags.cf = 1
        first.memory.xor_byte(layout.data_base, 0xFF)
        first.memory.write(layout.stack_base, 64, 7)
        again = initial_state(3, layout)
        assert again.gprs == pristine.gprs
        assert again.xmms == pristine.xmms
        assert again.flags == Flags()
        assert again.memory.data_bytes() == pristine.memory.data_bytes()
        assert again.memory.read(layout.stack_base, 64) == 0

    @pytest.mark.parametrize("target", ["fp_mul", "irf", "l1d"])
    def test_campaign_verdicts_match_reference(self, target, monkeypatch):
        from repro.core.generator import Generator
        from repro.core.targets import scaled_targets
        from repro.experiments.presets import SMOKE
        from repro.sim.cosim import golden_run

        spec = scaled_targets(SMOKE.program_scale, SMOKE.loop_scale)[target]
        program = Generator(spec.generation).initial_population(
            1, base_seed=SMOKE.seed
        )[0]

        def verdicts():
            golden = golden_run(program, spec.machine)
            report = spec.campaign(golden, SMOKE.injections, SMOKE.seed)
            return [
                (result.outcome, result.crash_kind)
                for result in report.injections
            ]

        fast = verdicts()

        def reference(seed, layout, **kwargs):
            _initial_image.cache_clear()
            return reference_initial_state(seed, layout, **kwargs)

        monkeypatch.setattr(functional, "initial_state", reference)
        assert verdicts() == fast
        assert len(fast) == SMOKE.injections


class TestProgramOutput:
    def test_equality_and_signature(self, layout):
        a = ProgramOutput.from_state(initial_state(1, layout))
        b = ProgramOutput.from_state(initial_state(1, layout))
        assert a == b
        assert a.signature() == b.signature()

    def test_register_difference_changes_signature(self, layout):
        state = initial_state(1, layout)
        a = ProgramOutput.from_state(state)
        state.gprs["rax"] ^= 1
        b = ProgramOutput.from_state(state)
        assert a != b
        assert a.signature() != b.signature()

    def test_memory_difference_changes_signature(self, layout):
        state = initial_state(1, layout)
        a = ProgramOutput.from_state(state)
        state.memory.xor_byte(layout.data_base + 100, 0x80)
        b = ProgramOutput.from_state(state)
        assert a.memory_signature != b.memory_signature
        assert a != b
