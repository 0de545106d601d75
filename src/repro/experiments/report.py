"""Full experiment report: regenerate every table and figure.

``python -m repro.experiments.report`` (or ``harpocrates report``)
runs Fig 1, Fig 4, Fig 5, Fig 6, Table I, the §VI-A generation-rate
comparison, Fig 10 convergence for all six targets, Fig 11, and the
§VI-C detection-speed comparison, printing each artifact in order.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from repro import obs
from repro.experiments import (
    fig1,
    fig10,
    fig11,
    fig456,
    genrate,
    speed,
    table1,
)
from repro.experiments.harness import baseline_workloads
from repro.experiments.presets import ExperimentScale, active_scale


def campaign_health(curves) -> str:
    """Aggregate evaluation-health digest across the Fig 10 campaigns.

    One line per target plus a merged total, so degradation (timeouts,
    quarantines, lost distributed workers) is visible in every report
    instead of hiding in per-run telemetry.
    """
    from repro.core.evaluator import EvalHealth

    lines = ["Campaign evaluation health (Fig 10 runs)"]
    total = EvalHealth()
    for key, curve in curves.items():
        if curve.health is None:
            lines.append(f"  {key:<10} (no loop run)")
            continue
        total.merge(curve.health)
        lines.append(f"  {key:<10} {curve.health.summary()}")
    lines.append(f"  {'total':<10} {total.summary()}")
    return "\n".join(lines)


def campaign_phases(curves) -> str:
    """Phase-time breakdown summed across the Fig 10 campaigns.

    Sourced from the observability registry's per-phase timers, so the
    report answers "where did the wall-clock go?" (evaluate vs mutate
    vs generate vs checkpointing) without a profiler attached.
    """
    total = {}
    for curve in curves.values():
        for name, seconds in curve.phase_times.items():
            total[name] = total.get(name, 0.0) + seconds
    return fig10.render_phase_table(
        total, title="Phase-time breakdown (all Fig 10 runs)"
    )


def campaign_latency(curves) -> str:
    """Evaluation-latency percentiles pooled across the Fig 10 runs.

    Merges each curve's ``repro_eval_seconds`` delta into one
    campaign-wide distribution (empty string without data).  Printed to
    stderr only: latencies vary run to run, and the report's stdout
    must stay byte-comparable across cache/distribution settings.
    """
    merged = None
    for curve in curves.values():
        if curve.eval_latency is None:
            continue
        merged = (
            curve.eval_latency if merged is None
            else merged.merge(curve.eval_latency)
        )
    return fig10.render_latency_table(
        merged, title="Evaluation latency (all Fig 10 runs)"
    )


def campaign_operators(curves) -> str:
    """Cache/screening effectiveness digest across the Fig 10 runs.

    ``EvalHealth`` deliberately keeps ``cache_hits`` and
    ``static_skips`` out of its stdout summary — cache hits vary with
    the cache setting while the report's stdout must stay
    byte-comparable across it — so this digest surfaces the "how
    much simulation did the platform avoid?" numbers on stderr, next
    to the latency table.  Empty string when no loop ran.
    """
    evaluations = cache_hits = static_skips = 0
    for curve in curves.values():
        if curve.health is None:
            continue
        evaluations += curve.health.evaluations
        cache_hits += curve.health.cache_hits
        static_skips += curve.health.static_skips
    if evaluations == 0:
        return ""
    return (
        f"Evaluation savings (all Fig 10 runs): "
        f"evaluations={evaluations} "
        f"cache_hits={cache_hits} "
        f"(hit rate {cache_hits / evaluations:.1%}) "
        f"static_skips={static_skips}"
    )


def run_all(
    scale: Optional[ExperimentScale] = None,
    stream=None,
    workers: int = 1,
) -> None:
    """Run and print every experiment at the given scale."""
    scale = scale if scale is not None else active_scale()
    stream = stream if stream is not None else sys.stdout
    # Metrics-only observability so the Fig 10 section can report where
    # the wall-clock went (no tracer, no endpoint — near-free).
    obs.enable()

    def emit(text: str) -> None:
        stream.write(text + "\n\n")
        stream.flush()

    started = time.monotonic()
    emit(f"Harpocrates reproduction report (scale preset: {scale.name})")
    emit(fig1.render())

    workloads = baseline_workloads(scale)
    sweep4 = fig456.run_fig4(scale, workloads)
    emit(sweep4.render("Fig 4 — IRF & L1D coverage/detection"))
    sweep5 = fig456.run_fig5(scale, workloads)
    emit(sweep5.render("Fig 5 — INT adder & multiplier coverage/detection"))
    sweep6 = fig456.run_fig6(scale, workloads)
    emit(sweep6.render("Fig 6 — SSE FP adder & multiplier "
                       "coverage/detection"))

    emit(table1.run(scale, workers=workers).render())
    emit(genrate.run(scale).render())

    curves = fig10.run(scale, workers=workers)
    for curve in curves.values():
        emit(curve.render())
    emit(campaign_health(curves))
    phases = campaign_phases(curves)
    if phases:
        emit(phases)
    latency = campaign_latency(curves)
    if latency:
        # stderr, not the report stream: latencies vary run to run and
        # would break the report's byte-stability.
        print(latency, file=sys.stderr)
    operators = campaign_operators(curves)
    if operators:
        # Also stderr: cache hits vary with the cache setting, which
        # must not move stdout.
        print(operators, file=sys.stderr)

    comparison = fig11.run(
        scale,
        workers=workers,
        baseline_sweeps=(sweep4, sweep5, sweep6),
        curves=curves,
    )
    emit(comparison.render())

    emit(speed.run(scale, workers=workers).render())
    emit(f"Report complete in {time.monotonic() - started:.0f}s.")


if __name__ == "__main__":
    run_all()
