"""The static/dynamic differential oracle, swept at scale.

The static screen's entire safety case is two inequalities:

* **soundness** — for every program and every metric, the static
  upper bound from :func:`repro.analysis.screen.static_bound` is >=
  the dynamically graded coverage (else ``--paranoid`` would abort
  real campaigns); and
* **no false skips** — a zero bound must grade to exactly zero
  dynamically, and so must every candidate the evaluator's
  opcode-class count drops (:func:`repro.analysis.screen.should_skip`),
  whose analyzer bound must be exactly 0.0 too (else screening would
  change campaign results, breaking stdout byte-identity).

Both are checked here over 500 constrained-random programs — every
metric the loop can target, including one IBR instance per functional
unit class — plus the premise underneath the whole analysis: the
dynamic read/write sets recorded by the functional simulator are
subsets of the statically derived ones.
"""

import pytest

from repro.analysis.screen import report_bound, should_skip, static_bound
from repro.analysis.static import (
    FLAGS,
    accesses_memory,
    analyze_program,
    instruction_facts,
)
from repro.coverage.metrics import (
    AceIrfCoverage,
    AceL1dCoverage,
    IbrCoverage,
)
from repro.isa.instructions import FUClass
from repro.microprobe import GenerationConfig, Synthesizer
from repro.sim.config import DEFAULT_MACHINE
from repro.sim.cosim import golden_run

#: Seeds swept by the differential oracle (the ISSUE's floor is 500).
SWEEP_SEEDS = range(500)

#: Slack for float accumulation in the dynamic graders.
TOLERANCE = 1e-9


def _metrics():
    metrics = [AceIrfCoverage(), AceL1dCoverage()]
    metrics.extend(IbrCoverage(fu_class) for fu_class in FUClass)
    return metrics


@pytest.fixture(scope="module")
def synthesizer():
    return Synthesizer(
        config=GenerationConfig(num_instructions=60, data_size=2048)
    )


@pytest.fixture(scope="module")
def sweep(synthesizer):
    """(program, report, golden) for every sweep seed, computed once."""
    rows = []
    for seed in SWEEP_SEEDS:
        program = synthesizer.synthesize_random(seed)
        report = analyze_program(program)
        golden = golden_run(program, DEFAULT_MACHINE)
        rows.append((program, report, golden))
    return rows


def test_static_bound_dominates_dynamic_coverage(sweep):
    """Soundness: dynamic score <= static bound, every program x metric."""
    metrics = _metrics()
    machine = DEFAULT_MACHINE
    checked = 0
    for program, report, golden in sweep:
        if golden.crashed:
            continue
        scoped = machine.for_program(program.data_size)
        for metric in metrics:
            bound = report_bound(report, metric, scoped)
            assert bound is not None, metric.name
            fitness = metric(golden)
            assert fitness <= bound + TOLERANCE, (
                f"{program.name}: dynamic {metric.name}={fitness!r} "
                f"exceeds static bound {bound!r}"
            )
            checked += 1
    assert checked >= 500 * len(metrics) * 0.9  # sweep really ran


def test_zero_bound_programs_grade_to_zero(sweep):
    """No false skips: a screened-out candidate scores exactly 0.0."""
    metrics = _metrics()
    zero_bounds = 0
    for program, report, golden in sweep:
        scoped = DEFAULT_MACHINE.for_program(program.data_size)
        for metric in metrics:
            if report_bound(report, metric, scoped) != 0.0:
                continue
            zero_bounds += 1
            assert metric(golden) == 0.0, (
                f"{program.name}: {metric.name} screened out but "
                "grades nonzero — a false skip"
            )
    # The generator's FU mix leaves many classes untouched per
    # program, so zero bounds must be plentiful across the sweep.
    assert zero_bounds > 0


def test_count_screen_skips_only_zero_bounds(sweep):
    """The fast path: a count-zero candidate has analyzer bound 0.0
    and grades to exactly 0.0."""
    metrics = _metrics()
    skips = 0
    for program, report, golden in sweep:
        scoped = DEFAULT_MACHINE.for_program(program.data_size)
        for metric in metrics:
            if not should_skip(program, metric):
                continue
            skips += 1
            assert report_bound(report, metric, scoped) == 0.0, (
                f"{program.name}: {metric.name} count-screened but "
                "the analyzer bound is nonzero"
            )
            assert metric(golden) == 0.0, (
                f"{program.name}: {metric.name} count-screened but "
                "grades nonzero — a false skip"
            )
    assert skips > 0


def test_memory_predicate_matches_instruction_facts(sweep):
    """The screen's opcode-level memory notion is the analyzer's."""
    for program, report, golden in sweep:
        for index, instruction in enumerate(program.instructions):
            assert accesses_memory(instruction.definition) == \
                instruction_facts(index, instruction).is_memory


def test_dynamic_access_sets_are_subsets_of_static_facts(sweep):
    """The analysis premise: recorded reads/writes c= static sets."""
    for program, report, golden in sweep:
        if golden.crashed:
            continue
        facts = [
            instruction_facts(index, instruction)
            for index, instruction in enumerate(program.instructions)
        ]
        for record in golden.result.records:
            fact = facts[record.index]
            static_reads = set(fact.reads)
            if fact.reads_flags:
                static_reads.add(FLAGS)
            static_writes = set(fact.writes)
            if fact.writes_flags:
                static_writes.add(FLAGS)
            assert set(record.reads) <= static_reads, (
                f"{program.name}@{record.index}: dynamic reads "
                f"{sorted(record.reads)} not within static "
                f"{sorted(static_reads)}"
            )
            assert set(record.writes) <= static_writes, (
                f"{program.name}@{record.index}: dynamic writes "
                f"{sorted(record.writes)} not within static "
                f"{sorted(static_writes)}"
            )


def test_static_bound_matches_report_bound(synthesizer):
    """The one-shot helper agrees with the report-level one."""
    program = synthesizer.synthesize_random(123)
    report = analyze_program(program)
    scoped = DEFAULT_MACHINE.for_program(program.data_size)
    for metric in _metrics():
        assert static_bound(program, metric, DEFAULT_MACHINE) == \
            report_bound(report, metric, scoped)
