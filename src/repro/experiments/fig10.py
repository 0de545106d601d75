"""Fig. 10 — Harpocrates coverage and detection across optimization.

For each of the six target structures, the GA loop runs and, every few
iterations, the current best program's coverage *and* measured fault
detection capability are sampled — producing the paired curves whose
key property the paper's methodology rests on: **increasing hardware
coverage translates into increasing detection capability** (§VI-B).

The run also reproduces the secondary observations: bit arrays (IRF,
L1D) converge more slowly than functional units, and the L1D curve
starts high thanks to the cache-aware generation constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.evalcache import DEFAULT_EVAL_CACHE_SIZE, EvaluationCache
from repro.core.evaluator import EvalHealth
from repro.core.loop import LoopResult
from repro.core.manager import Manager
from repro.obs.metrics import HistogramSnapshot
from repro.core.targets import TargetSpec, scaled_targets
from repro.experiments.presets import DEFAULT, ExperimentScale
from repro.explain import Witness, explain_detections
from repro.sim.cosim import golden_run
from repro.util.tables import format_table


@dataclass
class ConvergencePoint:
    """One sampled point on a target's convergence curve."""

    iteration: int
    coverage: float
    detection: Optional[float]
    #: Candidates quarantined during this iteration's evaluation.
    quarantined: int = 0


@dataclass
class ConvergenceCurve:
    """Coverage/detection progression for one target structure."""

    target: str
    title: str
    points: List[ConvergencePoint] = field(default_factory=list)
    final_detection: float = 0.0
    #: Run-level evaluation health (None when the loop did not run,
    #: e.g. a fully resumed converged campaign).
    health: Optional[EvalHealth] = None
    #: Wall-clock seconds per loop phase for this run, sourced from
    #: the observability registry (empty unless obs was enabled).
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: Per-candidate evaluation-latency distribution for this run
    #: (the ``repro_eval_seconds`` delta; None unless obs was enabled).
    eval_latency: Optional[HistogramSnapshot] = None
    #: True when the loop was stopped early (``stop_check`` fired or
    #: ``KeyboardInterrupt``): the curve covers a prefix of the
    #: campaign, durable in its checkpoint, not a final result.
    interrupted: bool = False
    #: Explained witnesses for the top detections (empty unless the
    #: run requested ``explain_top > 0``).  Never rendered to stdout —
    #: the campaign-stdout byte-identity contract stays intact.
    witnesses: List[Witness] = field(default_factory=list)

    @property
    def final_coverage(self) -> float:
        return self.points[-1].coverage if self.points else 0.0

    def coverage_improved(self) -> bool:
        """Did the loop improve coverage start → end?"""
        if len(self.points) < 2:
            return False
        return self.points[-1].coverage >= self.points[0].coverage

    def detection_tracks_coverage(self, tolerance: float = 0.1) -> bool:
        """The crux correlation: detection rises along with coverage.

        Robust form: the mean of the second half of the sampled
        detection curve must not sit below the first sample by more
        than ``tolerance`` (single samples are statistical estimates
        from a finite injection count).
        """
        sampled = [
            p.detection for p in self.points if p.detection is not None
        ]
        if len(sampled) < 2:
            return True
        tail = sampled[len(sampled) // 2:]
        tail_mean = sum(tail) / len(tail)
        return tail_mean >= sampled[0] - tolerance

    def render(self) -> str:
        rows = [
            [
                point.iteration,
                f"{point.coverage:.4f}",
                "-" if point.detection is None
                else f"{point.detection:.3f}",
                point.quarantined,
            ]
            for point in self.points
        ]
        table = format_table(
            ["iteration", "coverage", "detection", "quarantined"],
            rows,
            title=f"Fig 10 — {self.title} convergence",
        )
        if self.health is not None:
            table += f"\nhealth: {self.health.summary()}"
        return table

    def render_phases(self) -> str:
        """Phase-time breakdown table (empty string without data)."""
        return render_phase_table(
            self.phase_times,
            title=f"Fig 10 — {self.title} phase-time breakdown",
        )

    def render_latency(self) -> str:
        """Evaluation-latency percentile table (empty without data)."""
        return render_latency_table(
            self.eval_latency,
            title=f"Fig 10 — {self.title} evaluation latency",
        )


def campaign_stdout(curve: "ConvergenceCurve") -> str:
    """The canonical campaign stdout: curve table + final detection.

    This exact text is the determinism contract's unit of comparison —
    ``harpocrates loop`` writes it to stdout, the campaign service
    stores it as the job result, and CI diffs the two byte-for-byte.
    Both paths MUST build their output through this one function so
    they can never drift apart.
    """
    return (
        f"{curve.render()}\n"
        f"final detection: {curve.final_detection:.1%}\n"
    )


def render_latency_table(
    latency: Optional[HistogramSnapshot], title: str
) -> str:
    """Render per-candidate evaluation-latency percentiles.

    Percentiles are interpolated from the fixed ``repro_eval_seconds``
    buckets (Prometheus ``histogram_quantile`` semantics), reported in
    milliseconds.  Empty string when there is no data.
    """
    if latency is None or latency.count == 0:
        return ""
    row = [
        latency.count,
        f"{latency.mean * 1000.0:.2f}",
        f"{latency.quantile(0.5) * 1000.0:.2f}",
        f"{latency.quantile(0.9) * 1000.0:.2f}",
        f"{latency.quantile(0.99) * 1000.0:.2f}",
    ]
    return format_table(
        ["evaluations", "mean_ms", "p50_ms", "p90_ms", "p99_ms"],
        [row],
        title=title,
    )


def render_phase_table(
    phase_times: Dict[str, float], title: str
) -> str:
    """Render per-phase wall-clock (seconds and share) as a table."""
    if not phase_times:
        return ""
    total = sum(phase_times.values())
    rows = [
        [
            name,
            f"{seconds:.3f}",
            f"{seconds / total:.1%}" if total > 0 else "-",
        ]
        for name, seconds in sorted(
            phase_times.items(), key=lambda item: -item[1]
        )
    ]
    return format_table(["phase", "seconds", "share"], rows, title=title)


def run_target(
    target: TargetSpec,
    scale: ExperimentScale = DEFAULT,
    workers: int = 1,
    eval_timeout: Optional[float] = None,
    max_retries: int = 0,
    checkpoint_dir: Optional[str] = None,
    resume_from: Optional[str] = None,
    worker_endpoints: Optional[Sequence[Tuple[str, int]]] = None,
    checkpoint_keep: Optional[int] = None,
    checkpoint_milestone_every: int = 0,
    eval_cache_size: Optional[int] = DEFAULT_EVAL_CACHE_SIZE,
    fleet_listen: Optional[Tuple[str, int]] = None,
    iterations: Optional[int] = None,
    seed: Optional[int] = None,
    eval_cache: Optional[EvaluationCache] = None,
    stop_check: Optional[Callable[[], bool]] = None,
    on_point: Optional[Callable[[ConvergencePoint], None]] = None,
    resume_points: Optional[Sequence[ConvergencePoint]] = None,
    paranoid: bool = False,
    explain_top: int = 0,
    explain_dir: Optional[str] = None,
) -> ConvergenceCurve:
    """Run the loop for one target, sampling detection along the way.

    ``eval_timeout``/``max_retries`` harden evaluation against wedged
    or flaky candidates; ``checkpoint_dir``/``resume_from`` enable the
    long-run checkpoint/resume flow (on resume, curve points cover the
    resumed iterations — the checkpointed history holds the rest);
    ``checkpoint_keep`` rotates old checkpoints.  ``worker_endpoints``
    shards every generation across a ``repro-worker`` fleet (results
    are deterministic, so the curve matches the single-host run).
    ``eval_cache_size`` bounds the evaluation cache (None disables it).

    The campaign-service hooks: ``iterations``/``seed`` override the
    target's loop budget and RNG seed (both are part of the submitted
    config, so a service job and its CLI twin pass the same values);
    ``eval_cache`` substitutes a pre-built (shared) cache;
    ``stop_check`` drains the loop to its checkpoint when it returns
    True (the curve comes back ``interrupted``); ``on_point`` fires
    for every sampled convergence point so progress can be persisted;
    ``resume_points`` pre-loads the points a previous (interrupted)
    run of this campaign already sampled, so a resumed campaign's
    final output is byte-identical to an uninterrupted one.

    ``paranoid`` cross-checks every dynamic score (and every screened
    zero) against its static upper bound and fails the run loudly on
    a violation.

    ``explain_top`` (0 = off) minimizes + localizes that many of the
    final campaign's detections into ``curve.witnesses`` (written to
    ``explain_dir`` when set).  Witnesses are side artifacts: campaign
    stdout is byte-identical whether or not they are produced.
    """
    if seed is not None:
        target = replace(
            target, loop=replace(target.loop, seed=int(seed))
        )
    manager = Manager(
        target,
        workers=workers,
        eval_timeout=eval_timeout,
        max_retries=max_retries,
        worker_endpoints=worker_endpoints,
        dist_scales=(scale.program_scale, scale.loop_scale),
        eval_cache_size=eval_cache_size,
        fleet_listen=fleet_listen,
        eval_cache=eval_cache,
        paranoid=paranoid,
    )
    curve = ConvergenceCurve(target=target.key, title=target.title)
    if resume_points:
        curve.points.extend(resume_points)
    sample_every = max(scale.detection_sample_every, 1)
    phases_before = obs.phase_times()
    latency_before = obs.histogram_snapshot("repro_eval_seconds")

    def on_iteration(stats, survivors):
        detection = None
        if stats.iteration % sample_every == 0 and survivors:
            best = survivors[0]
            golden = golden_run(best.program, target.machine)
            if not golden.crashed:
                report = target.campaign(
                    golden, scale.injections, scale.seed
                )
                detection = report.detection_capability
        point = ConvergencePoint(
            iteration=stats.iteration,
            coverage=stats.best_fitness,
            detection=detection,
            quarantined=stats.quarantined,
        )
        curve.points.append(point)
        if on_point is not None:
            on_point(point)

    try:
        result: LoopResult = manager.run_loop(
            iterations=iterations,
            on_iteration=on_iteration,
            checkpoint_dir=checkpoint_dir,
            resume_from=resume_from,
            checkpoint_keep=checkpoint_keep,
            checkpoint_milestone_every=checkpoint_milestone_every,
            stop_check=stop_check,
        )
    finally:
        manager.close()
    curve.health = result.health
    curve.interrupted = result.interrupted
    if obs.enabled():
        curve.phase_times = {
            name: seconds - phases_before.get(name, 0.0)
            for name, seconds in obs.phase_times().items()
            if seconds - phases_before.get(name, 0.0) > 0.0
        }
        latency_after = obs.histogram_snapshot("repro_eval_seconds")
        if latency_after is not None:
            curve.eval_latency = (
                latency_after.delta(latency_before)
                if latency_before is not None else latency_after
            )
    if not result.best:
        return curve
    best = result.best_program
    golden = golden_run(best.program, target.machine)
    if not golden.crashed:
        report = target.campaign(golden, scale.injections, scale.seed)
        curve.final_detection = report.detection_capability
        if explain_top > 0:
            curve.witnesses = explain_detections(
                golden,
                report,
                top=explain_top,
                target_key=target.key,
                workers=workers,
                out_dir=explain_dir,
            )
    return curve


def run(
    scale: ExperimentScale = DEFAULT,
    target_keys: Optional[List[str]] = None,
    workers: int = 1,
) -> Dict[str, ConvergenceCurve]:
    """Run convergence for all (or selected) targets."""
    targets = scaled_targets(
        program_scale=scale.program_scale, loop_scale=scale.loop_scale
    )
    if target_keys is None:
        target_keys = list(targets)
    return {
        key: run_target(targets[key], scale, workers)
        for key in target_keys
    }
