"""Checkpoint/resume: bit-exact restoration of interrupted campaigns."""

import json
import os
import random

import pytest

from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    LoopCheckpoint,
    checkpoint_iteration,
    compact_checkpoints,
    decode_program,
    encode_program,
    latest_checkpoint,
)
from repro.core.errors import CheckpointError
from repro.core.evaluator import Evaluator
from repro.core.generator import Generator
from repro.core.loop import HarpocratesLoop, LoopConfig
from repro.core.mutator import InstructionReplacementMutator
from repro.core.targets import scaled_targets
from repro.coverage.metrics import IbrCoverage
from repro.isa.instructions import FUClass
from repro.microprobe.policies import GenerationConfig

GEN_CONFIG = GenerationConfig(num_instructions=40, data_size=2048)
METRIC = IbrCoverage(FUClass.INT_ADDER)
CONFIG = LoopConfig(
    population=6, keep=2, offspring_per_parent=2, iterations=5, seed=4
)


def make_loop(config=CONFIG):
    return HarpocratesLoop(
        Generator(GEN_CONFIG), Evaluator(METRIC), config=config
    )


class TestProgramRecords:
    def test_random_program_roundtrips_bit_exactly(self):
        generator = Generator(GEN_CONFIG)
        program = generator.initial_population(1, base_seed=11)[0]
        restored = decode_program(encode_program(program))
        assert restored == program
        assert restored.metadata["genome"] == program.metadata["genome"]

    def test_mutated_program_roundtrips_bit_exactly(self):
        generator = Generator(GEN_CONFIG)
        base = generator.initial_population(1, base_seed=11)[0]
        realized = generator.realize(
            generator.genome_of(base), 12345, name="mutant"
        )
        restored = decode_program(encode_program(realized))
        assert restored == realized

    @pytest.mark.parametrize("target", sorted(scaled_targets(0.05, 0.1)))
    def test_every_target_roundtrips_bit_exactly(self, target):
        spec = scaled_targets(0.05, 0.1)[target]
        generator = Generator(spec.generation)
        mutator = InstructionReplacementMutator(generator.arch)
        rng = random.Random(3)
        programs = generator.initial_population(4, base_seed=21)
        programs += [
            generator.realize(
                mutator.mutate(generator.genome_of(parent), rng),
                rng.getrandbits(32), name=f"m{index}",
            )
            for index, parent in enumerate(programs)
        ]
        for program in programs:
            record = json.loads(json.dumps(encode_program(program)))
            assert decode_program(record) == program

    def test_record_without_genome_decodes_without_one(self):
        generator = Generator(GEN_CONFIG)
        program = generator.initial_population(1, base_seed=11)[0]
        bare = program.with_instructions(program.instructions[:3])
        record = encode_program(bare)
        assert "genome" not in record
        restored = decode_program(record)
        assert restored == bare
        assert "genome" not in restored.metadata

    @pytest.mark.parametrize("code", [
        "not base64!",       # bad base64
        "DwcD",              # truncated operand (DecodeError)
        "AA==",              # unknown opcode 0x00
    ])
    def test_undecodable_record_raises_checkpoint_error(self, code):
        generator = Generator(GEN_CONFIG)
        record = encode_program(generator.initial_population(1)[0])
        record["code"] = code
        with pytest.raises(CheckpointError, match="'gen0_000'"):
            decode_program(record)

    def test_record_missing_code_raises_checkpoint_error(self):
        with pytest.raises(CheckpointError, match="'p'"):
            decode_program({"name": "p", "init_seed": 0})


class TestResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        reference = make_loop().run()
        make_loop().run(iterations=3, checkpoint_dir=str(tmp_path))
        resumed = make_loop().run(resume_from=str(tmp_path))
        assert resumed.resumed_from == 3
        assert resumed.fitness_curve() == reference.fitness_curve()
        assert [e.name for e in resumed.best] == \
            [e.name for e in reference.best]
        assert [e.fitness for e in resumed.best] == \
            [e.fitness for e in reference.best]
        assert [e.program.to_asm() for e in resumed.best] == \
            [e.program.to_asm() for e in reference.best]

    def test_resume_from_explicit_file(self, tmp_path):
        reference = make_loop().run()
        make_loop().run(iterations=2, checkpoint_dir=str(tmp_path))
        path = os.path.join(str(tmp_path), "checkpoint_000002.json")
        resumed = make_loop().run(resume_from=path)
        assert resumed.fitness_curve() == reference.fitness_curve()

    def test_checkpointing_does_not_perturb_results(self, tmp_path):
        reference = make_loop().run()
        checkpointed = make_loop().run(checkpoint_dir=str(tmp_path))
        assert checkpointed.fitness_curve() == reference.fitness_curve()
        assert [e.name for e in checkpointed.best] == \
            [e.name for e in reference.best]

    def test_checkpoint_every_throttles_writes(self, tmp_path):
        make_loop().run(
            iterations=4, checkpoint_dir=str(tmp_path),
            checkpoint_every=2,
        )
        names = sorted(
            n for n in os.listdir(str(tmp_path))
            if n.endswith(".json")
        )
        assert names == [
            "checkpoint_000002.json", "checkpoint_000004.json",
        ]

    def test_history_restored_across_resume(self, tmp_path):
        make_loop().run(iterations=3, checkpoint_dir=str(tmp_path))
        resumed = make_loop().run(resume_from=str(tmp_path))
        assert [s.iteration for s in resumed.history] == list(range(5))


class TestInterrupt:
    def test_keyboard_interrupt_returns_partial_result(self, tmp_path):
        loop = make_loop()

        def bail(stats, survivors):
            if stats.iteration == 1:
                raise KeyboardInterrupt

        result = loop.run(
            on_iteration=bail, checkpoint_dir=str(tmp_path)
        )
        assert result.interrupted
        assert result.iterations_run == 2
        assert len(result.history) == 2
        assert result.best  # the completed prefix's elite survives

    def test_interrupted_run_resumes_to_reference(self, tmp_path):
        reference = make_loop().run()

        def bail(stats, survivors):
            if stats.iteration == 2:
                raise KeyboardInterrupt

        interrupted = make_loop().run(
            on_iteration=bail, checkpoint_dir=str(tmp_path)
        )
        assert interrupted.interrupted
        resumed = make_loop().run(resume_from=str(tmp_path))
        assert resumed.fitness_curve() == reference.fitness_curve()
        assert [e.name for e in resumed.best] == \
            [e.name for e in reference.best]


class TestCheckpointFiles:
    def test_latest_checkpoint_picks_highest_iteration(self, tmp_path):
        make_loop().run(iterations=3, checkpoint_dir=str(tmp_path))
        latest = latest_checkpoint(str(tmp_path))
        assert latest is not None
        assert latest.endswith("checkpoint_000003.json")

    def test_latest_checkpoint_empty_dir(self, tmp_path):
        assert latest_checkpoint(str(tmp_path)) is None
        assert latest_checkpoint(str(tmp_path / "missing")) is None

    def test_checkpoint_is_valid_json_with_schema(self, tmp_path):
        make_loop().run(iterations=1, checkpoint_dir=str(tmp_path))
        path = latest_checkpoint(str(tmp_path))
        with open(path) as stream:
            payload = json.load(stream)
        assert payload["version"] == CHECKPOINT_VERSION
        assert payload["iteration"] == 1
        assert len(payload["population"]) == CONFIG.population
        assert set(payload["population"][0]) == {
            "name", "init_seed", "data_size", "source", "code", "genome",
        }
        assert payload["rng_state"][0] == 3  # Mersenne Twister version

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "checkpoint_000001.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            LoopCheckpoint.load(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "checkpoint_000001.json"
        path.write_text(json.dumps({
            "version": CHECKPOINT_VERSION + 1,
            "iteration": 1, "population": [], "rng_state": [],
        }))
        with pytest.raises(CheckpointError, match="version"):
            LoopCheckpoint.load(str(path))

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            LoopCheckpoint.load(str(tmp_path / "nope"))

    def test_no_temp_files_left_behind(self, tmp_path):
        make_loop().run(iterations=2, checkpoint_dir=str(tmp_path))
        leftovers = [
            n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")
        ]
        assert leftovers == []


def _touch_checkpoints(directory, iterations):
    for iteration in iterations:
        path = directory / f"checkpoint_{iteration:06d}.json"
        path.write_text("{}")


class TestCompaction:
    def test_iteration_parsing(self):
        assert checkpoint_iteration("checkpoint_000042.json") == 42
        assert checkpoint_iteration("checkpoint_0.json") == 0
        assert checkpoint_iteration("notes.txt") is None
        assert checkpoint_iteration("checkpoint_best.json") is None
        assert checkpoint_iteration("checkpoint_000001.json.tmp") is None

    def test_keeps_latest_n(self, tmp_path):
        _touch_checkpoints(tmp_path, range(1, 11))
        removed = compact_checkpoints(str(tmp_path), keep=3)
        survivors = sorted(os.listdir(str(tmp_path)))
        assert survivors == [
            "checkpoint_000008.json",
            "checkpoint_000009.json",
            "checkpoint_000010.json",
        ]
        assert len(removed) == 7

    def test_milestones_survive(self, tmp_path):
        _touch_checkpoints(tmp_path, range(1, 13))
        compact_checkpoints(str(tmp_path), keep=2, milestone_every=5)
        survivors = sorted(os.listdir(str(tmp_path)))
        assert survivors == [
            "checkpoint_000005.json",   # milestone
            "checkpoint_000010.json",   # milestone
            "checkpoint_000011.json",   # latest 2
            "checkpoint_000012.json",
        ]

    def test_keep_zero_disables_rotation(self, tmp_path):
        _touch_checkpoints(tmp_path, range(1, 6))
        assert compact_checkpoints(str(tmp_path), keep=0) == []
        assert len(os.listdir(str(tmp_path))) == 5

    def test_foreign_files_untouched(self, tmp_path):
        _touch_checkpoints(tmp_path, range(1, 8))
        (tmp_path / "notes.txt").write_text("keep me")
        (tmp_path / "checkpoint_best.json").write_text("{}")
        compact_checkpoints(str(tmp_path), keep=1)
        survivors = set(os.listdir(str(tmp_path)))
        assert {"notes.txt", "checkpoint_best.json",
                "checkpoint_000007.json"} == survivors

    def test_missing_directory_is_a_noop(self, tmp_path):
        assert compact_checkpoints(str(tmp_path / "nope"), keep=3) == []

    def test_loop_rotates_as_it_checkpoints(self, tmp_path):
        make_loop().run(
            iterations=5, checkpoint_dir=str(tmp_path),
            checkpoint_keep=2,
        )
        names = sorted(
            n for n in os.listdir(str(tmp_path)) if n.endswith(".json")
        )
        assert names == [
            "checkpoint_000004.json", "checkpoint_000005.json",
        ]

    def test_rotation_preserves_resume(self, tmp_path):
        reference = make_loop().run()
        make_loop().run(
            iterations=3, checkpoint_dir=str(tmp_path),
            checkpoint_keep=1,
        )
        resumed = make_loop().run(resume_from=str(tmp_path))
        assert resumed.fitness_curve() == reference.fitness_curve()

    def test_milestones_kept_by_loop(self, tmp_path):
        make_loop().run(
            iterations=5, checkpoint_dir=str(tmp_path),
            checkpoint_keep=1, checkpoint_milestone_every=2,
        )
        names = sorted(
            n for n in os.listdir(str(tmp_path)) if n.endswith(".json")
        )
        assert names == [
            "checkpoint_000002.json", "checkpoint_000004.json",
            "checkpoint_000005.json",
        ]
