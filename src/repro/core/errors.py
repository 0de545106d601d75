"""Loop-level error taxonomy: evaluation failures and bad configs.

The simulator's :mod:`repro.sim.errors` hierarchy classifies *program*
misbehavior (crashes are legitimate, detectable outcomes, §II-E).  The
classes here classify *harness* misbehavior — a worker that wedges or
dies, an evaluation that raises unexpectedly, a checkpoint that cannot
be restored — so the campaign can quarantine the failure, record it in
the run's health report, and keep going instead of dying at iteration
49 of 50.

Every :class:`EvaluationError` carries a stable ``kind`` string, the
key under which :class:`repro.core.evaluator.EvalHealth` aggregates
error counts.
"""

from __future__ import annotations

from typing import Optional


class EvaluationError(Exception):
    """Base class for harness-side evaluation failures."""

    kind = "evaluation_error"

    def __init__(self, message: str, program_name: Optional[str] = None):
        super().__init__(message)
        self.program_name = program_name


class EvaluationTimeout(EvaluationError):
    """A candidate exceeded its wall-clock budget and was killed."""

    kind = "timeout"

    def __init__(self, program_name: str, timeout_seconds: float):
        super().__init__(
            f"evaluation of {program_name!r} exceeded "
            f"{timeout_seconds:.3f}s wall-clock budget",
            program_name,
        )
        self.timeout_seconds = timeout_seconds


class WorkerCrashError(EvaluationError):
    """The worker process evaluating a candidate died."""

    kind = "worker_crash"

    def __init__(self, program_name: str, detail: str = ""):
        super().__init__(
            f"worker evaluating {program_name!r} died"
            + (f": {detail}" if detail else ""),
            program_name,
        )
        self.detail = detail


class CandidateEvaluationError(EvaluationError):
    """A candidate's evaluation raised an unexpected exception.

    ``original_type`` names the underlying exception class, so health
    reports can break failures down further than the coarse ``kind``.
    """

    kind = "candidate_error"

    def __init__(
        self,
        program_name: str,
        detail: str,
        original_type: Optional[str] = None,
    ):
        super().__init__(
            f"evaluation of {program_name!r} failed: {detail}",
            program_name,
        )
        self.detail = detail
        self.original_type = original_type


class StaticOracleError(EvaluationError):
    """A dynamic coverage score exceeded its static upper bound, or the
    screen skipped a candidate whose bound is not zero (``screened``).

    Raised only under the evaluator's ``--paranoid`` differential
    oracle.  This is never a candidate problem: it means either the
    static analyzer (:mod:`repro.analysis.static`) or the simulator
    pipeline it over-approximates has a soundness bug, so it
    deliberately fails the run loudly instead of quarantining.
    """

    kind = "static_oracle"

    def __init__(
        self,
        program_name: str,
        metric_name: str,
        fitness: float,
        bound: float,
        screened: bool = False,
    ):
        claim = "screened" if screened else "dynamic"
        super().__init__(
            f"static oracle violated for {program_name!r}: {claim} "
            f"{metric_name}={fitness!r} vs static bound {bound!r}",
            program_name,
        )
        self.metric_name = metric_name
        self.fitness = fitness
        self.bound = bound


class CheckpointError(EvaluationError):
    """A loop checkpoint could not be written, read, or restored."""

    kind = "checkpoint_error"


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file is torn, truncated, or garbage on disk.

    Distinguished from plain :class:`CheckpointError` (which also
    covers honest incompatibilities like a version mismatch) because
    corruption triggers quarantine: the damaged file is renamed to
    ``*.corrupt`` and resume falls back to the newest valid
    checkpoint instead of crashing.
    """

    kind = "checkpoint_corrupt"


class LoopConfigError(ValueError):
    """An invalid :class:`repro.core.loop.LoopConfig` was rejected
    up front (e.g. ``population <= 0`` or ``keep <= 0``)."""
