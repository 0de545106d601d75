"""Simulation-free candidate screening by counting opcode classes.

The evaluator consults :func:`should_skip` before paying for a golden
run.  A candidate with no instruction that can score provably grades
to zero (crashing runs grade to zero by definition): IBR needs an
instruction of the graded FU class, L1D ACE a memory access, and the
IRF bound is never zero.  These are the zero cases of the static
analyzer's bounds, decided in one O(n) pass.  The skip is invisible in
campaign output — screened candidates receive the same fitness,
ranking position (Python's sort is stable) and health accounting a
simulated zero would get — and is counted separately in
``EvalHealth.static_skips``.

Dispatch is by **exact metric type**: a user-defined subclass of one
of the stock metrics may grade differently, so it never screens.
:func:`static_bound` serves the ``--paranoid`` oracle.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.static import (
    StaticReport,
    accesses_memory,
    analyze_program,
)
from repro.coverage.metrics import (
    AceIrfCoverage,
    AceL1dCoverage,
    CoverageMetric,
    IbrCoverage,
)
from repro.isa.program import Program
from repro.sim.config import DEFAULT_MACHINE, MachineConfig


def should_skip(program: Program, metric: CoverageMetric) -> bool:
    """Whether no instruction of ``program`` can score under ``metric``."""
    metric_type = type(metric)
    if metric_type is IbrCoverage:
        fu_class = metric.fu_class
        return not any(
            instruction.definition.fu_class is fu_class
            for instruction in program.instructions
        )
    if metric_type is AceL1dCoverage:
        return not any(
            accesses_memory(instruction.definition)
            for instruction in program.instructions
        )
    return False


def report_bound(
    report: StaticReport,
    metric: CoverageMetric,
    machine: MachineConfig = DEFAULT_MACHINE,
) -> Optional[float]:
    """Static upper bound on ``metric`` from an existing report.

    Returns ``None`` when the metric is not one the analyzer can
    bound (including any subclass of a stock metric).
    """
    metric_type = type(metric)
    if metric_type is AceIrfCoverage:
        return report.ace_irf_bound(machine)
    if metric_type is AceL1dCoverage:
        return report.ace_l1d_bound(machine)
    if metric_type is IbrCoverage:
        return report.ibr_bound(metric.fu_class, machine)
    return None


def static_bound(
    program: Program,
    metric: CoverageMetric,
    machine: MachineConfig = DEFAULT_MACHINE,
) -> Optional[float]:
    """Static upper bound on ``metric`` for ``program``, or ``None``.

    The bound holds for the machine the evaluator actually simulates
    on (``machine.for_program(program.data_size)`` — the same
    derivation :func:`repro.sim.cosim.golden_run` applies).
    """
    report = analyze_program(program)
    return report_bound(
        report, metric, machine.for_program(program.data_size)
    )
