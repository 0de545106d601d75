"""One Harpocrates campaign per benchmark workload.

A campaign is the GA loop (paper §V-C) followed by the target's fault-
injection campaign on every program of the final elite.  Each step is
called only after the previous one returned (a closed loop driven from
one process).

Every campaign of a workload resumes the same start checkpoint: the
population after ``warmup`` generations from a fixed seed, built once
per checkout and cached.  The workload seed replaces the checkpoint's
random state and derives the injection seed; the program receives
nothing else.  Starting from a shared population keeps the elite, and
with it the cost of each injection, comparable across seeds; from
generation 0 the GA's outcome varies too widely between seeds (fp_mul's
best fitness after 48 generations ranged from 0.06 to 0.35).

Every golden run starts from the wrapper's seeded initial state with
empty simulated caches.  The cycle model has not been validated
against hardware, so no accuracy figure is reported.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.checkpoint import (
    LoopCheckpoint,
    encode_rng_state,
    latest_checkpoint,
)
from repro.core.evaluator import Evaluator
from repro.core.loop import LoopConfig
from repro.core.manager import Manager
from repro.core.targets import TargetSpec, scaled_targets
from repro.faults.injector import FaultInjector
from repro.faults.outcomes import Outcome
from repro.sim import cosim


@dataclass(frozen=True)
class Workload:
    """Input sizes of one workload (recorded with every result)."""

    name: str
    target: str
    instructions: int
    data_size: int
    population: int
    keep: int
    offspring: int
    #: Generations of the shared start checkpoint.
    warmup: int
    #: Generations each campaign runs after the start checkpoint.
    generations: int
    #: Injections per elite program in the final campaign.
    injections: int
    workers: int = 1
    #: Generations after the start at which a fresh Manager resumes
    #: from the last checkpoint (None: no checkpointing).
    resume_at: Optional[int] = None

    def sizes(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "instructions_per_program": self.instructions,
            "data_region_bytes": self.data_size,
            "population": self.population,
            "keep": self.keep,
            "warmup_generations": self.warmup,
            "generations": self.generations,
            "injections_per_elite": self.injections,
            "injections": self.injections * self.keep,
            "workers": self.workers,
            "resume_at": self.resume_at,
        }


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Every population equals keep * (1 + offspring), so each generation
# ranks exactly ``population`` programs.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fp_mul-converge", target="fp_mul", instructions=400,
            data_size=32 * 1024, population=16, keep=4, offspring=3,
            warmup=50, generations=24, injections=60,
        ),
        Workload(
            name="l1d-long", target="l1d", instructions=3000,
            data_size=2 * 1024, population=8, keep=4, offspring=1,
            warmup=4, generations=8, injections=160, workers=2,
            resume_at=4,
        ),
        Workload(
            name="irf-fastpath", target="irf", instructions=1000,
            data_size=32 * 1024, population=8, keep=4, offspring=1,
            warmup=6, generations=12, injections=1200,
        ),
    )
}


def tiny(workload: Workload) -> Workload:
    """A seconds-fast variant of ``workload`` for the benchmark's tests."""
    return replace(
        workload, instructions=60, population=4, keep=2, offspring=1,
        warmup=1, generations=3, injections=12,
        resume_at=2 if workload.resume_at is not None else None,
    )


def derived_seed(workload: Workload, seed: int, purpose: str) -> int:
    """A 31-bit seed for one purpose, spread so nearby workload seeds
    share no initial programs."""
    text = f"{workload.name}/{seed}/{purpose}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


#: Loop seed of every start checkpoint.  For fp_mul it is the seed whose
#: static-screen skips begin at generation ~47.
START_SEED = 0


def build_target(workload: Workload, seed: int) -> TargetSpec:
    spec = scaled_targets()[workload.target]
    generation = replace(
        spec.generation,
        num_instructions=workload.instructions,
        data_size=workload.data_size,
    )
    loop = LoopConfig(
        population=workload.population,
        keep=workload.keep,
        offspring_per_parent=workload.offspring,
        iterations=workload.warmup + workload.generations,
        seed=derived_seed(workload, seed, "loop"),
    )
    return replace(spec, generation=generation, loop=loop)


def source_digest(root: str) -> str:
    """SHA-256 over every ``.py`` file under ``root``, names included."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(root):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()


def start_checkpoint(workload: Workload, directory: str,
                     source: str) -> LoopCheckpoint:
    """The workload's start checkpoint, built on first use.

    It is cached in ``directory`` under a name keyed by the workload's
    sizes and the program's ``source`` digest, so one build serves
    every later run of the same code."""
    key = hashlib.sha256(
        (json.dumps(asdict(workload), sort_keys=True) + source).encode()
    ).hexdigest()[:12]
    path = os.path.join(directory, f"start-{workload.name}-{key}.json")
    if os.path.exists(path):
        return LoopCheckpoint.load(path)
    target = build_target(workload, 0)
    target = replace(target, loop=replace(
        target.loop, seed=START_SEED, iterations=workload.warmup))
    scratch = tempfile.mkdtemp(prefix="start-", dir=directory)
    try:
        manager = Manager(target)
        try:
            manager.run_loop(checkpoint_dir=scratch)
        finally:
            manager.close()
        os.replace(latest_checkpoint(scratch), path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return LoopCheckpoint.load(path)


def seeded_start(start: LoopCheckpoint, loop_seed: int, directory: str):
    """Save ``start`` into ``directory`` with its random state drawn
    from ``loop_seed``; returns the copy's path and the start's loop
    health."""
    seeded = replace(
        start,
        rng_state=encode_rng_state(random.Random(loop_seed).getstate()),
        seed=loop_seed,
    )
    return seeded.save(directory), start.restore_health()


#: Probe time that defines the reference host speed (a quiet 2-core
#: x86-64 host runs one probe in about this long).
REFERENCE_PROBE_S = 0.002
#: Shortest step :meth:`HostClock.maybe_tick` closes.
STEP_S = 0.2


def probe_host(cpus: Optional[List[int]] = None) -> float:
    """Host speed now: the fastest of three runs of a fixed pure-Python
    loop (dict, list and integer work, like the simulator's
    interpreter-bound code), with the garbage collector held off so a
    collection of the campaign's heap cannot land inside it.

    With ``cpus``, the mean of one probe pinned to each of them."""
    if cpus:
        allowed = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(probe_host())
        finally:
            os.sched_setaffinity(0, allowed)
        return sum(times) / len(times)
    best = float("inf")
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            started = time.perf_counter()
            table: Dict[int, int] = {}
            values = [0] * 64
            acc = 0
            for i in range(6000):
                key = i & 255
                table[key] = table.get(key, 0) + ((i * 2654435761) & 0xFFFF)
                values[i & 63] = (values[i & 63] + table[key]) & 0xFFFFFFFF
                acc ^= values[i & 63]
            best = min(best, time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return best


class HostClock:
    """Wall time rescaled to the reference host speed.

    A shared host's speed switches by tens of percent within a second,
    as other tenants come and go.  :func:`probe_host` runs at every step
    boundary, and each step's wall time is scaled by
    ``REFERENCE_PROBE_S`` over the mean of the probes before and after
    it.  Probe time itself is excluded from both totals.  Steps end at
    each generation, each elite program's campaign and, through
    :func:`fine_steps`, about every ``STEP_S`` within them.
    """

    def __init__(self, cpus: Optional[List[int]] = None) -> None:
        #: CPUs the current steps run on (None: this process's own).
        self.cpus = cpus
        self.wall = 0.0
        self.scaled = 0.0
        self._probe = probe_host(cpus)
        self._mark = time.perf_counter()

    def tick(self) -> None:
        """Close the current step and start the next."""
        step = time.perf_counter() - self._mark
        probe = probe_host(self.cpus)
        self.wall += step
        self.scaled += step * 2 * REFERENCE_PROBE_S / (self._probe + probe)
        self._probe = probe
        self._mark = time.perf_counter()

    def maybe_tick(self) -> None:
        if time.perf_counter() - self._mark >= STEP_S:
            self.tick()


@contextmanager
def patched(points):
    """Replace each ``(owner, name, wrap)`` attribute with
    ``wrap(function)`` until exit; static and class methods stay so."""
    originals = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in points]
    for (owner, name, original), (_, _, wrap) in zip(originals, points):
        kind = type(original) \
            if isinstance(original, (staticmethod, classmethod)) else None
        if kind is None:
            setattr(owner, name, wrap(original))
        else:
            setattr(owner, name, kind(wrap(original.__func__)))
    try:
        yield
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)


def fine_steps(clock: HostClock, inline: bool):
    """Let ``clock`` close a step after any injection and, when grading
    inline, after any candidate, once ``STEP_S`` has passed."""
    def stepped_of(function):
        def stepped(*args, **kwargs):
            try:
                return function(*args, **kwargs)
            finally:
                clock.maybe_tick()
        return stepped

    points = [(FaultInjector, name, stepped_of) for name in (
        "inject_register_transient", "inject_cache_transient",
        "inject_gate_permanent")]
    if inline:  # a pool pickles worker_fn, so only inline can wrap it
        points.append((Evaluator, "worker_fn", stepped_of))
    return patched(points)


def wait_for_children() -> None:
    """Stop and reap every process this one started."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join()


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children
    (the pool workers), from each one's ``VmHWM``."""
    pids = [os.getpid()]
    task_dir = "/proc/self/task"
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "children")) as stream:
                pids.extend(int(pid) for pid in stream.read().split())
        except OSError:
            continue
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as stream:
                for line in stream:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # a child that exited between listing and reading
    return total_kb / 1024.0


@dataclass
class CampaignResult:
    """What one campaign produced, with its host timings (scaled to
    the reference host speed; ``*_wall_s`` are as measured)."""

    loop_s: float
    inject_s: float
    loop_wall_s: float
    inject_wall_s: float
    instructions_graded: int
    injections: int
    #: (name, fitness, total_cycles) of the final elite, best first.
    elite: List[tuple]
    fitness_curve: List[float]
    verdicts: List[Dict[str, int]]
    best_cycles: int
    best_ipc: float
    best_l1d_hit_rate: float
    #: Fresh golden-run fitness of each elite program (no cache, no
    #: screen), filled in after the timed region.
    regraded: List[float]
    peak_rss_mb: float
    evaluations: int
    quarantined: int
    cache_hits: int
    cache_lookups: int
    #: Injections whose campaign raised, and why.
    raised_injections: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def campaign_s(self) -> float:
        return self.loop_s + self.inject_s

    @property
    def campaign_wall_s(self) -> float:
        return self.loop_wall_s + self.inject_wall_s

    @property
    def detection(self) -> float:
        detected = sum(v["sdc"] + v["crash"] for v in self.verdicts)
        total = sum(sum(v.values()) for v in self.verdicts)
        return detected / total if total else 0.0

    def digest(self) -> str:
        """Hash of every deterministic output: fitness curve, elite
        names, verdict counts and the best program's cycles."""
        payload = json.dumps(
            {
                "curve": [repr(value) for value in self.fitness_curve],
                "elite": [[name, repr(fit), cycles]
                          for name, fit, cycles in self.elite],
                "verdicts": self.verdicts,
                "best_cycles": self.best_cycles,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _run_loop(target: TargetSpec, workload: Workload, workers: int,
              start: str, clock: HostClock, snapshots: List[float],
              caches: list):
    def tick(stats, survivors) -> None:
        clock.tick()

    def manager() -> Manager:
        made = Manager(target, workers=workers)
        caches.append(made.evaluator.cache)
        return made

    def finish(made: Manager) -> None:
        snapshots.append(peak_rss_mb())
        made.close()
        wait_for_children()  # exiting workers would compete for CPUs

    made = manager()
    if workload.resume_at is None:
        try:
            return made.run_loop(on_iteration=tick, resume_from=start)
        finally:
            finish(made)
    checkpoints = os.path.dirname(start)
    try:
        made.run_loop(
            iterations=workload.warmup + workload.resume_at,
            on_iteration=tick, checkpoint_dir=checkpoints,
            resume_from=start,
        )
    finally:
        finish(made)
    # A drained job restarts in a fresh Manager from its checkpoint.
    made = manager()
    try:
        return made.run_loop(
            on_iteration=tick, checkpoint_dir=checkpoints,
            resume_from=checkpoints,
        )
    finally:
        finish(made)


def _call(campaign, golden, injections, seed):
    return campaign(golden, injections, seed)


def run_campaign(
    target: TargetSpec,
    workload: Workload,
    seed: int,
    start: LoopCheckpoint,
    workdir: str,
    workers: Optional[int] = None,
    on_campaign=_call,
    fine: bool = True,
) -> CampaignResult:
    """Resume ``start`` under ``seed``, run the loop, then the target's
    campaign on the final elite.  Checkpoints go to ``workdir``.

    ``on_campaign`` calls each elite program's injection campaign; the
    traced run passes one that times that layer.  The traced run also
    passes ``fine=False``: steps then end only at generations and elite
    campaigns, so no probe runs inside a layer's span.
    """
    workers = workload.workers if workers is None else workers
    # A pool's generations run on every CPU, so probe each of them.
    clock = HostClock(
        sorted(os.sched_getaffinity(0))[:workers] if workers > 1 else None)
    directory = tempfile.mkdtemp(prefix="campaign-", dir=workdir)
    try:
        if not fine:
            return _campaign(target, workload, seed, start, directory,
                             workers, on_campaign, clock)
        with fine_steps(clock, inline=workers <= 1):
            return _campaign(target, workload, seed, start, directory,
                             workers, on_campaign, clock)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _campaign(target, workload, seed, start, directory, workers, call,
              clock):
    snapshots: List[float] = []
    caches: list = []
    seeded, warm = seeded_start(start, target.loop.seed, directory)
    result = _run_loop(
        target, workload, workers, seeded, clock, snapshots, caches
    )
    clock.tick()
    clock.cpus = None  # injection runs in this process
    loop_s, loop_wall_s = clock.scaled, clock.wall

    failures: List[str] = []
    raised_injections = 0
    verdicts: List[Dict[str, int]] = []
    goldens = []
    injections = 0
    inject_seed = derived_seed(workload, seed, "inject")
    for entry in result.best:
        golden = cosim.golden_run(entry.program, target.machine)
        goldens.append(golden)
        if not golden.crashed:  # a crashed elite fails check()
            try:
                report = call(target.campaign, golden,
                              workload.injections, inject_seed)
            except Exception as exc:  # counted into the error rate
                raised_injections += workload.injections
                failures.append(
                    f"campaign on {entry.name} raised "
                    f"{type(exc).__name__}: {exc}"
                )
            else:
                injections += report.total
                verdicts.append({outcome.value: report.count(outcome)
                                 for outcome in Outcome})
        clock.tick()
    inject_s = clock.scaled - loop_s
    inject_wall_s = clock.wall - loop_wall_s

    program_length = len(result.best_program.program)
    best = goldens[0].schedule
    return CampaignResult(
        loop_s=loop_s,
        inject_s=inject_s,
        loop_wall_s=loop_wall_s,
        inject_wall_s=inject_wall_s,
        instructions_graded=(
            (result.iterations_run - workload.warmup)
            * workload.population * program_length
        ),
        injections=injections,
        elite=[(e.name, e.fitness, e.total_cycles) for e in result.best],
        fitness_curve=result.fitness_curve(),
        verdicts=verdicts,
        best_cycles=best.total_cycles,
        best_ipc=best.ipc(),
        best_l1d_hit_rate=best.cache_hit_rate(),
        regraded=[target.metric(golden) for golden in goldens],
        peak_rss_mb=max(snapshots + [peak_rss_mb()]),
        evaluations=result.health.evaluations - warm.evaluations,
        quarantined=len(result.health.quarantined) - len(warm.quarantined),
        cache_hits=sum(cache.hits for cache in caches if cache),
        cache_lookups=sum(
            cache.hits + cache.misses for cache in caches if cache
        ),
        raised_injections=raised_injections,
        failures=failures,
    )


def check(result: CampaignResult, workload: Workload) -> List[str]:
    """Every way ``result`` is wrong; empty when it is correct.

    Each elite program was re-graded with a fresh golden run and the
    metric alone, bypassing the evaluation cache and the static
    screen; the loop's fitness must match exactly.
    """
    problems = []
    if len(result.elite) != workload.keep:
        problems.append(
            f"elite holds {len(result.elite)} programs, "
            f"expected {workload.keep}"
        )
    for (name, fitness, cycles), regraded in zip(
        result.elite, result.regraded
    ):
        if regraded != fitness:
            problems.append(
                f"{name}: loop fitness {fitness!r} != re-graded "
                f"{regraded!r}"
            )
    if result.elite and result.elite[0][2] not in (0, result.best_cycles):
        problems.append(
            f"best program: loop cycles {result.elite[0][2]} != "
            f"re-run cycles {result.best_cycles}"
        )
    if len(result.verdicts) != len(result.elite):
        problems.append(
            f"{len(result.elite) - len(result.verdicts)} elite programs "
            f"not injected"
        )
    return problems
