"""Zero-coverage screening by opcode-class count: skip counting,
result fidelity, and the paranoid differential oracle."""

import pytest

import repro.analysis.screen as screen_module
import repro.analysis.static as static_module
import repro.core.evaluator as evaluator_module
from repro.analysis.screen import should_skip, static_bound
from repro.core.errors import StaticOracleError
from repro.core.evaluator import (
    EvaluatedProgram,
    EvalHealth,
    Evaluator,
)
from repro.core.targets import scaled_targets
from repro.coverage.metrics import AceL1dCoverage, IbrCoverage
from repro.experiments.fig10 import campaign_stdout, run_target
from repro.experiments.presets import SMOKE
from repro.isa.instructions import FUClass

SCALES = (SMOKE.program_scale, SMOKE.loop_scale)


def _spec(key="int_mul"):
    return scaled_targets(*SCALES)[key]


def _population(spec, count=6):
    from repro.core.generator import Generator

    return Generator(spec.generation).initial_population(
        count, base_seed=17
    )


def _never_skip(monkeypatch):
    """Substitute a screen that skips nothing: the unscreened side of
    an on/off comparison."""
    monkeypatch.setattr(
        evaluator_module, "should_skip", lambda program, metric: False
    )


def _strip_class(program, fu_class):
    """The program minus every instruction of ``fu_class``."""
    kept = [
        instruction
        for instruction in program.instructions
        if instruction.definition.fu_class is not fu_class
    ]
    return program.with_instructions(
        tuple(kept), name=f"{program.name}-stripped"
    )


def test_screened_program_counts_and_scores_zero(monkeypatch):
    spec = _spec("int_mul")
    population = _population(spec)
    # Force a guaranteed skip: a candidate with zero INT_MUL
    # instructions cannot score under INT_MUL IBR.
    stripped = _strip_class(population[0], FUClass.INT_MUL)
    assert should_skip(stripped, spec.metric)
    batch = [stripped] + population[1:]

    screened = Evaluator(spec.metric, spec.machine)
    baseline = Evaluator(spec.metric, spec.machine)
    try:
        with_screen = screened.evaluate(batch)
        with monkeypatch.context() as patch:
            _never_skip(patch)
            without = baseline.evaluate(batch)
    finally:
        screened.close()
        baseline.close()

    assert screened.health.static_skips >= 1
    assert baseline.health.static_skips == 0
    # Same evaluation count either way: a skip still "grades" the
    # candidate, just without a simulator.
    assert screened.health.evaluations == baseline.health.evaluations
    # Fitness scores are identical program-for-program (the whole
    # point: screening may never change what the loop sees).
    assert [e.fitness for e in with_screen] == \
        [e.fitness for e in without]
    assert with_screen[0].fitness == 0.0


def test_campaign_stdout_identical_with_and_without_screen(monkeypatch):
    """The acceptance criterion, end to end at smoke scale."""
    spec = _spec("fp_mul")
    on = run_target(spec, SMOKE, eval_cache_size=None)
    _never_skip(monkeypatch)
    off = run_target(spec, SMOKE, eval_cache_size=None)
    assert campaign_stdout(on) == campaign_stdout(off)


def test_l1d_screen_skips_only_memory_free_programs():
    spec = _spec("l1d")
    program = _population(spec, count=1)[0]
    metric = AceL1dCoverage()
    assert not should_skip(program, metric)
    register_only = program.with_instructions(
        tuple(
            instruction
            for instruction in program.instructions
            if not static_module.accesses_memory(instruction.definition)
        ),
        name=f"{program.name}-no-mem",
    )
    assert should_skip(register_only, metric)
    assert static_bound(register_only, metric, spec.machine) == 0.0


def test_irf_never_skips():
    spec = _spec("irf")
    program = _population(spec, count=1)[0]
    assert not should_skip(program.with_instructions(()), spec.metric)


def test_screen_never_runs_the_analyzer(monkeypatch):
    """With ``paranoid`` off the analyzer is off the hot path: no
    evaluation, screened or simulated, calls ``analyze_program``."""

    def forbidden(program):
        raise AssertionError("analyze_program ran without --paranoid")

    monkeypatch.setattr(screen_module, "analyze_program", forbidden)
    monkeypatch.setattr(static_module, "analyze_program", forbidden)
    for key, fu_class in (("int_mul", FUClass.INT_MUL), ("l1d", None),
                          ("irf", None)):
        spec = _spec(key)
        population = _population(spec, count=3)
        if fu_class is not None:
            population.append(_strip_class(population[0], fu_class))
        evaluator = Evaluator(spec.metric, spec.machine)
        try:
            results = evaluator.evaluate(population)
        finally:
            evaluator.close()
        assert len(results) == len(population)
    assert run_target(_spec("fp_mul"), SMOKE).points


def test_paranoid_oracle_passes_on_real_batches():
    spec = _spec("int_adder")
    population = _population(spec, count=4)
    # One screened candidate too: its analyzer bound must be 0.0.
    population.append(_strip_class(population[0], FUClass.INT_ADDER))
    evaluator = Evaluator(spec.metric, spec.machine, paranoid=True)
    try:
        results = evaluator.evaluate(population)
        assert evaluator.health.static_skips == 1
    finally:
        evaluator.close()
    assert len(results) == len(population)


def test_paranoid_oracle_checks_screened_candidates(monkeypatch):
    """A skip whose analyzer bound is not exactly zero is a screen
    bug: paranoid mode raises instead of scoring it 0.0."""
    spec = _spec("int_adder")
    program = _population(spec, count=1)[0]
    assert static_bound(program, spec.metric, spec.machine) > 0.0
    monkeypatch.setattr(
        evaluator_module, "should_skip", lambda program, metric: True
    )
    evaluator = Evaluator(spec.metric, spec.machine, paranoid=True)
    try:
        with pytest.raises(StaticOracleError) as excinfo:
            evaluator.evaluate([program])
    finally:
        evaluator.close()
    assert "screened" in str(excinfo.value)
    assert excinfo.value.bound > 0.0


def test_paranoid_oracle_raises_on_violation():
    spec = _spec("int_adder")
    program = _population(spec, count=1)[0]
    evaluator = Evaluator(spec.metric, spec.machine, paranoid=True)
    try:
        impossible = EvaluatedProgram(
            program=program, fitness=2.0, total_cycles=10,
            crashed=False,
        )
        with pytest.raises(StaticOracleError) as excinfo:
            evaluator._oracle_check(impossible, 0.5)
        assert excinfo.value.kind == "static_oracle"
        # Quarantined results are exempt (their fitness is synthetic).
        quarantined = EvaluatedProgram(
            program=program, fitness=2.0, total_cycles=0,
            crashed=True, error_kind="timeout",
        )
        evaluator._oracle_check(quarantined, 0.5)
        # As are metrics with no static bound.
        evaluator._oracle_check(impossible, None)
    finally:
        evaluator.close()


def test_subclassed_metric_gets_no_bound():
    """Exact-type dispatch: metric subclasses must never screen."""

    class TweakedIbr(IbrCoverage):
        pass

    spec = _spec("int_mul")
    program = _population(spec, count=1)[0]
    stripped = _strip_class(program, FUClass.INT_MUL)
    tweaked = TweakedIbr(FUClass.INT_MUL)
    assert static_bound(stripped, tweaked, spec.machine) is None
    assert not should_skip(stripped, tweaked)


def test_health_merge_and_serialization_roundtrip():
    left = EvalHealth(evaluations=3, static_skips=2)
    right = EvalHealth(evaluations=1, static_skips=1)
    left.merge(right)
    assert left.static_skips == 3
    # Like cache_hits, static_skips stays out of the persisted digest
    # so screened and unscreened campaigns checkpoint identically.
    assert "static_skips" not in left.as_dict()
    assert "static skips" not in left.summary()
    restored = EvalHealth.from_dict(left.as_dict())
    assert restored.static_skips == 0
    assert restored.evaluations == left.evaluations
