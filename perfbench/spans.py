"""Spans around calls into each layer, recorded from the benchmark.

:class:`Tracer` replaces public functions of the program's modules with
timing wrappers for the duration of one traced campaign, then puts the
originals back.  Nothing under ``src/`` changes.  Spans stay in memory
and are written out once, when the benchmark ends.

Each span is ``(name, start, end, parent, campaign, attrs)``: ``parent``
is the index of the enclosing span (-1 for none) and ``campaign`` the
identifier shared by every span of one campaign.
"""

from __future__ import annotations

import json
import pickle
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from campaign import patched
from repro.core import evaluator as evaluator_module
from repro.core import loop as loop_module
from repro.core.checkpoint import LoopCheckpoint
from repro.core.evaluator import Evaluator
from repro.core.mutator import InstructionReplacementMutator
from repro.coverage.metrics import CoverageMetric
from repro.microprobe.synthesizer import Synthesizer
from repro.sim import cosim
from repro.sim import functional as functional_module
from repro.sim.functional import FunctionalSimulator
from repro.sim.ooo import TimingModel
from repro.sim.state import ProgramOutput

Span = Tuple[str, float, float, int, str, dict]

#: Per-call timings and their units; each is reported as a median, a
#: tail percentile and a sample count.
TIMINGS = {
    "microprobe.realize_ms": "ms",
    "analysis.static_bound_ms": "ms",
    "evalcache.digest_ms": "ms",
    "sim.initial_state_ms": "ms",
    "sim.signature_ms": "ms",
    "sim.functional_us_per_instr": "us",
    "sim.rerun_us_per_instr": "us",
    "sim.schedule_us_per_instr": "us",
    "sim.golden_run_ms": "ms",
    "coverage.metric_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.decode_ms": "ms",
    "pool.pickle_ms": "ms",
    "loop.rank_s": "s",
    "loop.breed_ms": "ms",
}

#: Single-valued layer metrics and their units.
SCALARS = {
    "analysis.skip_ratio": "ratio",
    "evalcache.hit_ratio": "ratio",
    "faults.inject_ms": "ms",
    "faults.injections": "count",
    "pool.job_kb": "KB",
    "pool.result_kb": "KB",
    "sim.cycles": "cycles",
    "sim.ipc": "instr/cycle",
    "sim.l1d_hit_rate": "ratio",
    "quality.detection": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: Span names whose self time is reported as ``self.<name>_s``.
SELF_TIMES = (
    "campaign", "microprobe.realize", "core.mutator.mutate",
    "analysis.static_bound", "evalcache.digest", "core.loop.rank",
    "sim.golden_run", "sim.initial_state", "sim.functional",
    "sim.signature", "sim.schedule", "coverage.metric",
    "faults.campaign", "core.checkpoint.save",
    "core.checkpoint.decode", "util.parallel.pickle",
)

#: Ladder for the tail percentile: the highest one with at least ten
#: samples beyond it is reported.
_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def metric_names() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    names: Dict[str, str] = {}
    for name, unit in TIMINGS.items():
        names[name] = unit
        names[f"{name}.tail"] = unit
        names[f"{name}.tail_pct"] = "%"
        names[f"{name}.n"] = "count"
    names.update(SCALARS)
    for span in SELF_TIMES:
        names[f"self.{span}_s"] = "s"
    return names


def tail(values: List[float]) -> Tuple[float, float]:
    """(percentile, value): the highest ladder percentile that has at
    least ten samples beyond it, or the median when none has."""
    ordered = sorted(values)
    count = len(ordered)
    for pct in _PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= 10:
            rank = min(count - 1, int(pct / 100.0 * count))
            return pct, ordered[rank]
    return 50.0, statistics.median(ordered) if ordered else 0.0


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.campaign = ""
        self._stack: List[int] = []
        self.static_bounds = 0
        self.zero_bounds = 0

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent,
                           self.campaign, attrs))
        self._stack.append(index)
        try:
            yield attrs
        finally:
            self._stack.pop()
            name, start, _, parent, campaign, attrs = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent,
                                 campaign, attrs)

    def _timed(self, name: str, attrs_of: Optional[Callable] = None):
        """A wrapper factory that records a span around each call."""
        def wrapper_of(function):
            def wrapper(*args, **kwargs):
                with self.span(name) as attrs:
                    result = function(*args, **kwargs)
                    if attrs_of is not None:
                        attrs.update(attrs_of(args, kwargs, result))
                    return result
            return wrapper
        return wrapper_of

    # -- instrumentation ---------------------------------------------------

    def instrument(self, pickle_jobs: bool):
        """Wrap the public entry points of every layer while the
        returned context is open.

        ``pickle_jobs`` additionally pickles each evaluation job and its
        result the way the process pool would, to size and time them
        while grading inline.
        """
        def bound_attrs(args, kwargs, bound):
            self.static_bounds += 1
            self.zero_bounds += bound == 0.0
            return {}

        def functional_attrs(args, kwargs, result):
            records = kwargs.get("collect_records",
                                 args[3] if len(args) > 3 else True)
            return {"records": bool(records),
                    "instrs": result.dynamic_count}

        def schedule_attrs(args, kwargs, schedule):
            return {"instrs": len(args[1])}

        def resume_attrs(args, kwargs, checkpoint):
            return {"resume": True}

        decode = self._timed("core.checkpoint.decode")
        points = [
            (Synthesizer, "synthesize_from_sequence",
             self._timed("microprobe.realize")),
            (InstructionReplacementMutator, "mutate",
             self._timed("core.mutator.mutate")),
            (evaluator_module, "static_bound",
             self._timed("analysis.static_bound", bound_attrs)),
            (evaluator_module, "program_digest",
             self._timed("evalcache.digest")),
            (Evaluator, "rank", self._timed("core.loop.rank")),
            (evaluator_module, "golden_run",
             self._timed("sim.golden_run")),
            (cosim, "golden_run", self._timed("sim.golden_run")),
            (functional_module, "initial_state",
             self._timed("sim.initial_state")),
            (FunctionalSimulator, "run",
             self._timed("sim.functional", functional_attrs)),
            (ProgramOutput, "from_state", self._timed("sim.signature")),
            (TimingModel, "schedule",
             self._timed("sim.schedule", schedule_attrs)),
            (CoverageMetric, "__call__", self._timed("coverage.metric")),
            (LoopCheckpoint, "save", self._timed("core.checkpoint.save")),
            (LoopCheckpoint, "load",
             self._timed("core.checkpoint.decode", resume_attrs)),
            (loop_module, "decode_program", decode),
            (loop_module, "decode_evaluated", decode),
        ]
        if pickle_jobs:
            points.append((Evaluator, "worker_fn", self._pickling))
        return patched(points)

    def _pickling(self, function):
        def worker(job):
            with self.span("util.parallel.pickle"):
                job_bytes = pickle.dumps(job)
                pickle.loads(job_bytes)
            result = function(job)
            with self.span("util.parallel.pickle") as attrs:
                result_bytes = pickle.dumps(result)
                pickle.loads(result_bytes)
                attrs.update(job_bytes=len(job_bytes),
                             result_bytes=len(result_bytes))
            return result
        return worker

    def campaign_hook(self, campaign, golden, injections, seed):
        """Time one elite program's injection campaign."""
        with self.span("faults.campaign", injections=injections):
            return campaign(golden, injections, seed)

    def write(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "campaign",
                            "attrs"],
                 "spans": self.spans},
                stream,
            )

    # -- analysis ----------------------------------------------------------

    def _child_time(self) -> Dict[int, float]:
        """Span index -> time covered by its direct children."""
        children: Dict[int, float] = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return children

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus
        the part its direct children cover."""
        children = self._child_time()
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] += end - start - children[index]
        return totals

    def layer_metrics(self, result, overhead_s: float) -> Dict[str, float]:
        """Every per-layer metric of one traced campaign."""
        samples: Dict[str, List[float]] = defaultdict(list)
        children = self._child_time()
        breed: Dict[int, float] = defaultdict(float)
        generation = -1
        job_kb: List[float] = []
        result_kb: List[float] = []
        inject_s = 0.0
        for index, (name, start, end, parent, _, attrs) in \
                enumerate(self.spans):
            duration = end - start
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            if name == "core.loop.rank":
                generation += 1
                samples["loop.rank_s"].append(duration)
            elif name in ("core.mutator.mutate", "microprobe.realize") \
                    and parent_name != "core.checkpoint.decode":
                breed[generation] += duration
            if name == "microprobe.realize":
                samples["microprobe.realize_ms"].append(duration * 1e3)
            elif name == "analysis.static_bound":
                samples["analysis.static_bound_ms"].append(duration * 1e3)
            elif name == "evalcache.digest":
                samples["evalcache.digest_ms"].append(duration * 1e3)
            elif name == "sim.initial_state":
                samples["sim.initial_state_ms"].append(duration * 1e3)
            elif name == "sim.signature":
                samples["sim.signature_ms"].append(duration * 1e3)
            elif name == "sim.functional" and attrs.get("instrs"):
                per_instr = (duration - children[index]) * 1e6 \
                    / attrs["instrs"]
                key = "sim.functional_us_per_instr" if attrs["records"] \
                    else "sim.rerun_us_per_instr"
                samples[key].append(per_instr)
            elif name == "sim.schedule" and attrs.get("instrs"):
                samples["sim.schedule_us_per_instr"].append(
                    duration * 1e6 / attrs["instrs"])
            elif name == "sim.golden_run":
                samples["sim.golden_run_ms"].append(duration * 1e3)
            elif name == "coverage.metric":
                samples["coverage.metric_ms"].append(duration * 1e3)
            elif name == "core.checkpoint.save":
                samples["checkpoint.save_ms"].append(duration * 1e3)
            elif name == "core.checkpoint.decode" and attrs.get("resume"):
                samples["checkpoint.decode_ms"].append(duration * 1e3)
            elif name == "core.checkpoint.decode" and \
                    parent_name != "core.checkpoint.decode":
                # Programs decoded after a load belong to that resume.
                samples["checkpoint.decode_ms"][-1] += duration * 1e3
            elif name == "faults.campaign":
                inject_s += duration
            elif name == "util.parallel.pickle":
                if "job_bytes" in attrs:
                    job_kb.append(attrs["job_bytes"] / 1024.0)
                    result_kb.append(attrs["result_bytes"] / 1024.0)
                    samples["pool.pickle_ms"][-1] += duration * 1e3
                else:
                    samples["pool.pickle_ms"].append(duration * 1e3)
        samples["loop.breed_ms"] = [
            breed[g] * 1e3 for g in sorted(breed) if g >= 0
        ]

        metrics: Dict[str, float] = {}
        for name in TIMINGS:
            values = samples.get(name, [])
            pct, value = tail(values)
            metrics[name] = statistics.median(values) if values else 0.0
            metrics[f"{name}.tail"] = value
            metrics[f"{name}.tail_pct"] = pct
            metrics[f"{name}.n"] = len(values)
        metrics.update({
            "analysis.skip_ratio": (
                self.zero_bounds / self.static_bounds
                if self.static_bounds else 0.0),
            "evalcache.hit_ratio": (
                result.cache_hits / result.cache_lookups
                if result.cache_lookups else 0.0),
            "faults.inject_ms": (
                inject_s * 1e3 / result.injections
                if result.injections else 0.0),
            "faults.injections": result.injections,
            "pool.job_kb": statistics.median(job_kb) if job_kb else 0.0,
            "pool.result_kb": (
                statistics.median(result_kb) if result_kb else 0.0),
            "sim.cycles": result.best_cycles,
            "sim.ipc": result.best_ipc,
            "sim.l1d_hit_rate": result.best_l1d_hit_rate,
            "quality.detection": result.detection,
            "trace.overhead_s": overhead_s,
            "trace.spans": len(self.spans),
        })
        totals = self.self_times()
        for span in SELF_TIMES:
            metrics[f"self.{span}_s"] = totals.get(span, 0.0)
        return metrics
