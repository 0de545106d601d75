"""Static screening benchmarks: scoring without simulating, measured.

The screen's perf claim: a population with provably-zero candidates
evaluates faster screened than with every candidate simulated, at
byte-identical scores.  The unscreened side substitutes a screen that
never skips.  The gate asserts both halves — identical fitness vectors
(correctness) and no slowdown (the opcode-class count must pay for
itself) — and emits ``BENCH_static_screen.json`` with the skip rate
and throughput.
"""

import time

import repro.core.evaluator as evaluator_module
from repro.core.evaluator import Evaluator
from repro.core.generator import Generator
from repro.core.targets import scaled_targets

SCALES = (0.04, 0.012)  # bench-preset program/loop scales
TARGET_KEY = "fp_mul"
POPULATION = 24


def _batch(spec):
    """Half natural candidates, half provably-zero ones.

    Stripping the target class from a candidate mirrors what the
    replacement mutator routinely produces mid-campaign: genomes with
    no instruction the metric can reward.
    """
    from repro.isa.instructions import FUClass

    population = Generator(spec.generation).initial_population(
        POPULATION // 2, base_seed=29
    )
    stripped = [
        program.with_instructions(
            tuple(
                instruction
                for instruction in program.instructions
                if instruction.definition.fu_class
                is not FUClass.FP_MUL
            ),
            name=f"{program.name}-zero",
        )
        for program in population
    ]
    return population + stripped


def test_screening_throughput(bench_artifact, monkeypatch):
    spec = scaled_targets(*SCALES)[TARGET_KEY]
    batch = _batch(spec)

    off = Evaluator(spec.metric, spec.machine)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(
                evaluator_module, "should_skip",
                lambda program, metric: False,
            )
            started = time.perf_counter()
            unscreened = off.evaluate(batch)
            off_seconds = time.perf_counter() - started
    finally:
        off.close()

    on = Evaluator(spec.metric, spec.machine)
    try:
        started = time.perf_counter()
        screened = on.evaluate(batch)
        on_seconds = time.perf_counter() - started
        skips = on.health.static_skips
    finally:
        on.close()

    # Correctness gate: screening may never change a score.
    assert [e.fitness for e in screened] == \
        [e.fitness for e in unscreened]
    # Every stripped candidate must have been screened out.
    assert skips >= POPULATION // 2
    # Perf gate: with half the batch skippable, the screen must pay
    # for itself outright (generous margin for CI noise).
    assert on_seconds <= off_seconds * 1.10

    speedup = off_seconds / on_seconds if on_seconds > 0 else 0.0
    print()
    print(
        f"screen off: {off_seconds * 1000:.1f} ms, "
        f"on: {on_seconds * 1000:.1f} ms "
        f"({skips}/{len(batch)} skipped, {speedup:.2f}x)"
    )
    bench_artifact("static_screen", {
        "population": len(batch),
        "static_skips": skips,
        "seconds_screen_off": off_seconds,
        "seconds_screen_on": on_seconds,
        "speedup": speedup,
        "evals_per_second_on": len(batch) / on_seconds,
        "evals_per_second_off": len(batch) / off_seconds,
    })
