"""The Harpocrates program-refinement loop (paper §V-C, Fig 7).

* **Step 0** — the Generator bootstraps a random population.
* **Step 1** — the Evaluator co-simulates every program and computes
  its fitness (the structure's hardware-coverage metric).
* **Step 2** — selection: the top-K programs advance.
* **Step 3** — the Mutator produces each parent's offspring; the new
  generation returns to step 1.  The process repeats until the metric
  converges (or the configured iteration budget ends).

Campaign hardening (the paper's runs span thousands of generations,
§VI-B1): the loop checkpoints its full resumable state after each
iteration (see :mod:`repro.core.checkpoint`), folds per-iteration
evaluator telemetry into a run-level :class:`EvalHealth` record, and
converts ``KeyboardInterrupt`` into a valid partial
:class:`LoopResult` instead of a traceback.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import obs
from repro.core.checkpoint import (
    LoopCheckpoint,
    compact_checkpoints,
    evalcache_path,
    decode_evaluated,
    decode_program,
    decode_rng_state,
    encode_evaluated,
    encode_program,
    encode_rng_state,
)
from repro.core.errors import LoopConfigError
from repro.core.evaluator import EvaluatedProgram, EvalHealth, Evaluator
from repro.core.generator import Generator
from repro.core.mutator import (
    Genome,
    InstructionReplacementMutator,
    KPointCrossover,
    Mutator,
)


@dataclass(frozen=True)
class LoopConfig:
    """Genetic-loop parameters (per-structure values in §VI-B)."""

    population: int = 32
    keep: int = 8
    iterations: int = 50
    #: Offspring per surviving parent; ``population // keep`` when None.
    offspring_per_parent: Optional[int] = None
    seed: int = 0
    #: Stop early when the best fitness has not improved by more than
    #: ``convergence_epsilon`` for this many consecutive iterations
    #: (None disables early stopping, as in the paper's full-length
    #: convergence graphs).
    convergence_patience: Optional[int] = None
    convergence_epsilon: float = 1e-4
    #: Probability that an offspring is produced by k-point crossover
    #: of two surviving parents before mutation.  The paper evaluated
    #: crossover and settled on pure instruction replacement (§V-B1);
    #: 0.0 reproduces that production configuration.
    crossover_rate: float = 0.0
    crossover_points: int = 2

    @property
    def effective_offspring(self) -> int:
        if self.offspring_per_parent is not None:
            return self.offspring_per_parent
        return max(self.population // max(self.keep, 1), 1)

    def validate(self) -> None:
        """Reject impossible configurations up front with a clear
        error, rather than failing obscurely mid-campaign."""
        if self.population <= 0:
            raise LoopConfigError(
                f"population must be positive, got {self.population}"
            )
        if self.keep <= 0:
            raise LoopConfigError(
                f"keep must be positive, got {self.keep}"
            )
        if self.keep > self.population:
            raise LoopConfigError(
                f"keep ({self.keep}) cannot exceed population "
                f"({self.population})"
            )
        if self.offspring_per_parent is not None \
                and self.offspring_per_parent <= 0:
            raise LoopConfigError(
                "offspring_per_parent must be positive, got "
                f"{self.offspring_per_parent}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise LoopConfigError(
                f"crossover_rate must be in [0, 1], got "
                f"{self.crossover_rate}"
            )


@dataclass
class IterationStats:
    """Per-iteration convergence record (the data behind Fig 10)."""

    iteration: int
    best_fitness: float
    mean_fitness: float
    top_fitnesses: List[float]
    elapsed_seconds: float
    #: Candidates quarantined during this iteration's evaluation.
    quarantined: int = 0


@dataclass
class LoopResult:
    """Outcome of a full Harpocrates run for one target structure."""

    best: List[EvaluatedProgram]
    history: List[IterationStats] = field(default_factory=list)
    iterations_run: int = 0
    converged_at: Optional[int] = None
    #: Run-level failure/degradation telemetry (always present).
    health: EvalHealth = field(default_factory=EvalHealth)
    #: True when the run was cut short by ``KeyboardInterrupt`` and
    #: this result covers the completed prefix.
    interrupted: bool = False
    #: Iteration count restored from a checkpoint (None = fresh run).
    resumed_from: Optional[int] = None

    @property
    def best_program(self) -> EvaluatedProgram:
        if not self.best:
            raise ValueError(
                "LoopResult.best is empty — the loop has not completed "
                "an iteration (or was configured with an empty elite); "
                "no best program exists"
            )
        return self.best[0]

    def fitness_curve(self) -> List[float]:
        return [stats.best_fitness for stats in self.history]


class HarpocratesLoop:
    """Generator + Mutator + Evaluator wired into the full loop."""

    def __init__(
        self,
        generator: Generator,
        evaluator: Evaluator,
        mutator: Optional[Mutator] = None,
        config: Optional[LoopConfig] = None,
    ):
        self.generator = generator
        self.evaluator = evaluator
        self.mutator = mutator if mutator is not None else \
            InstructionReplacementMutator(generator.arch)
        self.config = config if config is not None else LoopConfig()

    def _next_generation(
        self,
        survivors: Sequence[EvaluatedProgram],
        iteration: int,
        rng: random.Random,
    ):
        """Step 3: recombine/mutate survivors into their offspring."""
        offspring = []
        per_parent = self.config.effective_offspring
        crossover = KPointCrossover(self.config.crossover_points)
        genomes = [
            self.generator.genome_of(parent.program)
            for parent in survivors
        ]
        # Instrumentation must never touch ``rng`` — checkpoint resume
        # and local/distributed equality depend on the exact draw order.
        for parent_index, genome in enumerate(genomes):
            for child_index in range(per_parent):
                base: Genome = genome
                if (
                    len(genomes) > 1
                    and rng.random() < self.config.crossover_rate
                ):
                    other = rng.choice(
                        [g for i, g in enumerate(genomes)
                         if i != parent_index]
                    )
                    base = crossover.crossover(genome, other, rng)
                with obs.phase("mutate", trace=False):
                    mutated = self.mutator.mutate(base, rng)
                seed = rng.getrandbits(32)
                name = (
                    f"it{iteration:05d}_p{parent_index:02d}"
                    f"c{child_index:02d}"
                )
                with obs.phase("generate", trace=False):
                    offspring.append(
                        self.generator.realize(mutated, seed, name=name)
                    )
        return offspring[: self.config.population]

    # -- health plumbing ---------------------------------------------------

    def _fold_health(self, health: EvalHealth) -> int:
        """Fold the evaluator's per-iteration telemetry into the
        run-level record; returns this iteration's quarantine count.

        Duck-typed so fault-injecting test doubles (and future remote
        evaluators) only need ``take_health`` to participate."""
        take = getattr(self.evaluator, "take_health", None)
        if take is None:
            return 0
        delta: EvalHealth = take()
        health.merge(delta)
        return len(delta.quarantined)

    # -- checkpoint plumbing -----------------------------------------------

    def _write_checkpoint(
        self,
        directory: str,
        iteration: int,
        population: Sequence,
        rng: random.Random,
        result: LoopResult,
        best_so_far: float,
        stale: int,
    ) -> None:
        checkpoint = LoopCheckpoint(
            iteration=iteration,
            population=[encode_program(p) for p in population],
            rng_state=encode_rng_state(rng.getstate()),
            history=[
                {
                    "iteration": s.iteration,
                    "best_fitness": s.best_fitness,
                    "mean_fitness": s.mean_fitness,
                    "top_fitnesses": list(s.top_fitnesses),
                    "elapsed_seconds": s.elapsed_seconds,
                    "quarantined": s.quarantined,
                }
                for s in result.history
            ],
            best=[encode_evaluated(entry) for entry in result.best],
            best_so_far=best_so_far,
            stale=stale,
            health=result.health.as_dict(),
            seed=self.config.seed,
            converged_at=result.converged_at,
        )
        checkpoint.save(directory)
        # Persist the evaluation cache alongside (never rotated away),
        # so a resumed campaign skips the survivors it already graded.
        cache = getattr(self.evaluator, "cache", None)
        if cache is not None:
            cache.save(evalcache_path(directory))

    def _restore(
        self, resume_from: str, rng: random.Random, result: LoopResult
    ):
        """Load a checkpoint and rebuild loop state from it."""
        checkpoint = LoopCheckpoint.load(resume_from)
        population = [
            decode_program(record)
            for record in checkpoint.population
        ]
        rng.setstate(decode_rng_state(checkpoint.rng_state))
        result.history = [
            IterationStats(
                iteration=int(record["iteration"]),
                best_fitness=float(record["best_fitness"]),
                mean_fitness=float(record["mean_fitness"]),
                top_fitnesses=[
                    float(x) for x in record.get("top_fitnesses", [])
                ],
                elapsed_seconds=float(record.get("elapsed_seconds", 0.0)),
                quarantined=int(record.get("quarantined", 0)),
            )
            for record in checkpoint.history
        ]
        result.best = [
            decode_evaluated(record)
            for record in checkpoint.best
        ]
        result.iterations_run = checkpoint.iteration
        result.resumed_from = checkpoint.iteration
        result.health = checkpoint.restore_health()
        result.converged_at = checkpoint.converged_at
        return (
            population,
            checkpoint.iteration,
            checkpoint.best_so_far,
            checkpoint.stale,
        )

    # -- the loop ----------------------------------------------------------

    def run(
        self,
        iterations: Optional[int] = None,
        on_iteration=None,
        *,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        resume_from: Optional[str] = None,
        checkpoint_keep: Optional[int] = None,
        checkpoint_milestone_every: int = 0,
        stop_check=None,
    ) -> LoopResult:
        """Execute the loop; returns the surviving elite and history.

        ``on_iteration`` (if given) is called with each
        :class:`IterationStats` — the experiment harness uses it to
        sample detection capability along the convergence curve.

        ``checkpoint_dir`` enables per-iteration checkpointing (every
        ``checkpoint_every`` iterations, plus always the final one);
        ``resume_from`` restores a prior run from a checkpoint file or
        directory and continues it bit-exactly.  ``checkpoint_keep``
        rotates old checkpoints after each write, keeping the newest N
        (plus every ``checkpoint_milestone_every``-th iteration as a
        milestone); ``None`` keeps every checkpoint.
        ``KeyboardInterrupt`` ends the run gracefully: the returned
        result covers every completed iteration and is marked
        ``interrupted``.

        ``stop_check`` (a zero-argument callable) is polled at every
        generation boundary; once it returns True the loop *drains to
        checkpoint*: a checkpoint of the boundary state is written (if
        checkpointing is on) and the run returns marked
        ``interrupted`` — resuming that checkpoint later continues the
        campaign bit-exactly.  This is how the campaign service
        implements cancellation and graceful (SIGTERM) shutdown.
        """
        config = self.config
        config.validate()
        iterations = iterations if iterations is not None \
            else config.iterations
        if iterations < 0:
            raise LoopConfigError(
                f"iterations must be non-negative, got {iterations}"
            )
        rng = random.Random(config.seed)
        result = LoopResult(best=[])
        # Drop any telemetry a shared evaluator accumulated before this
        # run so the result's health covers exactly this campaign.
        self._fold_health(EvalHealth())
        start_iteration = 0
        best_so_far = float("-inf")
        stale = 0
        if resume_from is not None:
            population, start_iteration, best_so_far, stale = \
                self._restore(resume_from, rng, result)
            # Warm the evaluation cache from the checkpoint sidecar
            # (best-effort: a missing/stale sidecar just re-simulates).
            cache = getattr(self.evaluator, "cache", None)
            if cache is not None:
                cache.load(evalcache_path(resume_from))
            if result.converged_at is not None:
                # The checkpointed campaign already converged; there is
                # nothing left to run.
                return result
        else:
            population = self.generator.initial_population(
                config.population, base_seed=config.seed
            )
        health = result.health
        try:
            for iteration in range(start_iteration, iterations):
                if stop_check is not None and stop_check():
                    # Drain to checkpoint: the boundary state (the
                    # population and RNG exactly as a longer run would
                    # hold them here) becomes durable, and the partial
                    # result is returned marked interrupted.
                    result.interrupted = True
                    if checkpoint_dir is not None:
                        with obs.phase("checkpoint"):
                            self._write_checkpoint(
                                checkpoint_dir, iteration, population,
                                rng, result, best_so_far, stale,
                            )
                    break
                started = time.perf_counter()
                with obs.phase("evaluate"):
                    ranked = self.evaluator.rank(population)
                with obs.phase("select"):
                    survivors = ranked[: config.keep]
                elapsed = time.perf_counter() - started
                quarantined = self._fold_health(health)
                healthy = [
                    entry for entry in ranked if not entry.quarantined
                ]
                stats = IterationStats(
                    iteration=iteration,
                    best_fitness=(
                        survivors[0].fitness if survivors else 0.0
                    ),
                    mean_fitness=(
                        sum(entry.fitness for entry in healthy)
                        / len(healthy)
                        if healthy
                        else 0.0
                    ),
                    top_fitnesses=[
                        entry.fitness for entry in survivors
                    ],
                    elapsed_seconds=elapsed,
                    quarantined=quarantined,
                )
                result.history.append(stats)
                result.best = list(survivors)
                result.iterations_run = iteration + 1
                if obs.enabled():
                    obs.inc(
                        "repro_iterations_total",
                        help_text="Loop iterations completed",
                    )
                    obs.set_gauge(
                        "repro_generation",
                        float(iteration + 1),
                        "Current generation number",
                    )
                    obs.set_gauge(
                        "repro_best_fitness",
                        stats.best_fitness,
                        "Best fitness in the current elite",
                    )
                    obs.status.update(
                        generation=iteration + 1,
                        iterations_budget=iterations,
                        best_fitness=stats.best_fitness,
                        mean_fitness=stats.mean_fitness,
                        quarantined_total=len(health.quarantined),
                    )
                    obs.status.set_quarantined(health.quarantined)
                    obs.event(
                        "iteration",
                        n=iteration,
                        best=stats.best_fitness,
                        quarantined=quarantined,
                    )
                if on_iteration is not None:
                    on_iteration(stats, survivors)
                improvement = stats.best_fitness - best_so_far
                converged = False
                if improvement > config.convergence_epsilon:
                    best_so_far = stats.best_fitness
                    stale = 0
                else:
                    stale += 1
                    if (
                        config.convergence_patience is not None
                        and stale >= config.convergence_patience
                    ):
                        result.converged_at = iteration
                        converged = True
                # With checkpointing on, the next generation is built
                # even on the final iteration: the checkpoint must hold
                # exactly the state a longer campaign would have at this
                # point, so resuming it with a bigger budget reproduces
                # that campaign bit-for-bit.
                build_next = not converged and (
                    iteration + 1 < iterations
                    or checkpoint_dir is not None
                )
                if build_next:
                    # Elitism: survivors carry over unchanged alongside
                    # their offspring, so the maximum coverage attained
                    # is retained across iterations (as in Fig 10).
                    with obs.span("next_generation", n=iteration):
                        offspring = self._next_generation(
                            survivors, iteration, rng
                        )
                    carried = [entry.program for entry in survivors]
                    population = \
                        (carried + offspring)[: config.population]
                if checkpoint_dir is not None:
                    is_last = (
                        converged or iteration + 1 >= iterations
                    )
                    due = (
                        checkpoint_every > 0
                        and (iteration + 1) % checkpoint_every == 0
                    )
                    if due or is_last:
                        with obs.phase("checkpoint"):
                            self._write_checkpoint(
                                checkpoint_dir, iteration + 1,
                                population, rng, result, best_so_far,
                                stale,
                            )
                        if checkpoint_keep is not None:
                            compact_checkpoints(
                                checkpoint_dir,
                                keep=checkpoint_keep,
                                milestone_every=checkpoint_milestone_every,
                            )
                if converged:
                    break
        except KeyboardInterrupt:
            result.interrupted = True
            self._fold_health(health)
        return result
