"""The campaign scheduler: many campaigns, one fleet, one cache.

A :class:`CampaignScheduler` owns the service's moving parts:

* the durable :class:`~repro.service.queue.JobQueue`;
* ``max_concurrent`` runner threads, each claiming the next job and
  driving it through :func:`~repro.experiments.fig10.run_target`;
* one :class:`~repro.dist.coordinator.FleetPool` fed by a
  :class:`~repro.dist.membership.RegistrationListener` (the PR-6
  ``--announce`` path), so ``repro-worker`` hosts join and drain while
  the service stays up — each campaign leases a least-loaded slice of
  the fleet for its lifetime and returns it on completion;
* one :class:`~repro.core.evalcache.SharedEvaluationCache` spanning
  every campaign, persisted to the state directory, so tenants running
  the same target hit each other's warm entries (digests are
  machine-fingerprint- and metric-scoped, so cross-target collisions
  are impossible by construction).

Campaigns checkpoint every iteration into
``<state_dir>/jobs/<job-id>/``; cancellation and service shutdown
*drain to checkpoint* (the loop's ``stop_check``), so a restarted
service resumes every unfinished job bit-exactly — its final stdout is
byte-identical to an uninterrupted CLI run of the same config.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.core.checkpoint import latest_checkpoint
from repro.core.evalcache import (
    DEFAULT_EVAL_CACHE_SIZE,
    SharedEvaluationCache,
)
from repro.core.targets import scaled_targets
from repro.dist.coordinator import FleetPool
from repro.dist.membership import RegistrationListener
from repro.experiments.fig10 import (
    ConvergencePoint,
    campaign_stdout,
    run_target,
)
from repro.experiments.presets import DEFAULT, FULL, SMOKE
from repro.service.queue import (
    DEFAULT_TENANT_QUOTA,
    Job,
    JobQueue,
    QuotaExceeded,  # noqa: F401  (re-exported for API callers)
)

logger = logging.getLogger("repro.service")

#: Scale presets a job may name.
PRESETS = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}

#: The queue's state file inside the service state directory.
QUEUE_STATE_NAME = "queue.json"

#: The shared cross-campaign eval-cache store, ditto.
SHARED_CACHE_NAME = "evalcache.json"


def validate_job_spec(target: str, scale: str) -> None:
    """Reject unknown targets/scales with a clear ValueError (the API
    maps this to HTTP 400 *before* the job enters the queue)."""
    if scale not in PRESETS:
        raise ValueError(
            f"unknown scale {scale!r}; choose one of {sorted(PRESETS)}"
        )
    preset = PRESETS[scale]
    targets = scaled_targets(
        program_scale=preset.program_scale,
        loop_scale=preset.loop_scale,
    )
    if target not in targets:
        raise ValueError(
            f"unknown target {target!r}; "
            f"choose one of {sorted(targets)}"
        )


class CampaignScheduler:
    """Runs queued campaigns concurrently against the shared fleet.

    ``state_dir`` holds the queue state file, the shared eval-cache
    store, and one checkpoint directory per job.  ``max_concurrent``
    bounds simultaneously running campaigns; ``local_workers`` is each
    campaign's local evaluation parallelism (its fallback when the
    fleet has nothing to lease); ``workers_per_campaign`` caps how many
    fleet workers one campaign may lease (None = no cap — a lone
    campaign takes the whole fleet).  ``fleet_listen`` (``(host,
    port)``) opens the registration listener for announcing workers.
    """

    def __init__(
        self,
        state_dir: str,
        max_concurrent: int = 2,
        tenant_quota: int = DEFAULT_TENANT_QUOTA,
        tenant_quotas: Optional[Dict[str, int]] = None,
        local_workers: int = 1,
        workers_per_campaign: Optional[int] = None,
        fleet_listen: Optional[Tuple[str, int]] = None,
        eval_cache_size: int = DEFAULT_EVAL_CACHE_SIZE,
        eval_timeout: Optional[float] = None,
        max_retries: int = 0,
        paranoid: bool = False,
        explain_top: int = 0,
    ):
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.queue = JobQueue.load(
            os.path.join(state_dir, QUEUE_STATE_NAME),
            tenant_quota=tenant_quota,
            tenant_quotas=tenant_quotas,
        )
        self.cache = SharedEvaluationCache(eval_cache_size)
        self.cache.load(os.path.join(state_dir, SHARED_CACHE_NAME))
        self.pool = FleetPool()
        self.max_concurrent = max(1, int(max_concurrent))
        self.local_workers = max(1, int(local_workers))
        self.workers_per_campaign = workers_per_campaign
        self.eval_timeout = eval_timeout
        self.max_retries = max_retries
        self.paranoid = paranoid
        #: Witnesses per finished campaign (0 = off).  Artifacts land
        #: under the job's checkpoint dir; job output is unchanged.
        self.explain_top = max(0, int(explain_top))
        self._stopping = threading.Event()
        self._runners: List[threading.Thread] = []
        self._registry: Optional[RegistrationListener] = None
        self._fleet_listen = fleet_listen

    # -- lifecycle ---------------------------------------------------------

    @property
    def fleet_listen_port(self) -> Optional[int]:
        """The bound registration port (None without ``fleet_listen``)."""
        return None if self._registry is None else self._registry.port

    def start(self) -> "CampaignScheduler":
        """Open the fleet listener and launch the runner threads."""
        if self._fleet_listen is not None:
            host, port = self._fleet_listen
            self._registry = RegistrationListener(
                self.pool.admit, host=host, port=port
            ).start()
            logger.info(
                "service fleet registration listening on %s:%d",
                host, self._registry.port,
            )
        self._runners = [
            threading.Thread(
                target=self._run_forever,
                name=f"repro-service-runner-{index}",
                daemon=True,
            )
            for index in range(self.max_concurrent)
        ]
        for runner in self._runners:
            runner.start()
        return self

    def stop(self, drain_timeout: float = 60.0) -> None:
        """Graceful shutdown: running campaigns drain to checkpoint.

        Sets the stop flag every runner's ``stop_check`` polls, wakes
        the claim waits, joins the runners (each finishes its current
        generation, checkpoints, and releases its job back to
        pending), then persists the queue and the shared cache.
        """
        self._stopping.set()
        with self.queue.not_empty:
            self.queue.not_empty.notify_all()
        for runner in self._runners:
            runner.join(timeout=drain_timeout)
        self._runners = []
        if self._registry is not None:
            self._registry.close()
            self._registry = None
        self.queue.save()
        try:
            self.cache.save(
                os.path.join(self.state_dir, SHARED_CACHE_NAME)
            )
        except OSError as exc:
            logger.warning("could not persist shared cache: %s", exc)

    # -- submission / cancellation (the API calls these) -------------------

    def submit(
        self,
        target: str,
        tenant: str = "default",
        scale: str = "default",
        seed: Optional[int] = None,
        iterations: Optional[int] = None,
        priority: int = 0,
    ) -> Job:
        """Validate and enqueue one campaign (see
        :meth:`JobQueue.submit` for quota semantics)."""
        validate_job_spec(target, scale)
        if iterations is not None and int(iterations) <= 0:
            raise ValueError(
                f"iterations must be positive, got {iterations}"
            )
        return self.queue.submit(
            target=target,
            tenant=tenant,
            scale=scale,
            seed=seed,
            iterations=iterations,
            priority=priority,
        )

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job (pending: immediate; running: drain to
        checkpoint).  Returns the job state, None for unknown ids."""
        state = self.queue.cancel(job_id)
        if state is not None:
            with self.queue.not_empty:
                self.queue.not_empty.notify_all()
        return state

    # -- the runner loop ---------------------------------------------------

    def _run_forever(self) -> None:
        while not self._stopping.is_set():
            job = self.queue.claim(timeout=0.25)
            if job is None:
                continue
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 — a job must
                # never take a runner thread (and the service) down.
                logger.exception("job %s failed", job.id)
                self.queue.fail(job.id, f"{type(exc).__name__}: {exc}")

    def job_checkpoint_dir(self, job_id: str) -> str:
        return os.path.join(self.state_dir, "jobs", job_id)

    def _run_job(self, job: Job) -> None:
        preset = PRESETS[job.scale]
        targets = scaled_targets(
            program_scale=preset.program_scale,
            loop_scale=preset.loop_scale,
        )
        spec = targets[job.target]
        checkpoint_dir = self.job_checkpoint_dir(job.id)
        resume_from = (
            checkpoint_dir
            if latest_checkpoint(checkpoint_dir) is not None
            else None
        )
        resume_points = [
            ConvergencePoint(
                iteration=int(point[0]),
                coverage=float(point[1]),
                detection=(
                    None if point[2] is None else float(point[2])
                ),
                quarantined=int(point[3]),
            )
            for point in job.points
        ]

        def stop_check() -> bool:
            if self._stopping.is_set():
                return True
            current = self.queue.get(job.id)
            return current is not None and current.cancel_requested

        def on_point(point: ConvergencePoint) -> None:
            self.queue.record_point(job.id, [
                point.iteration,
                point.coverage,
                point.detection,
                point.quarantined,
            ])

        lease = self.pool.lease(
            job.id, max_workers=self.workers_per_campaign
        )
        logger.info(
            "job %s (%s/%s, tenant=%s) starting: %d leased worker(s), "
            "%s", job.id, job.target, job.scale, job.tenant,
            len(lease.endpoints),
            "resuming from checkpoint" if resume_from else "fresh run",
        )
        try:
            curve = run_target(
                spec,
                preset,
                workers=self.local_workers,
                eval_timeout=self.eval_timeout,
                max_retries=self.max_retries,
                checkpoint_dir=checkpoint_dir,
                resume_from=resume_from,
                worker_endpoints=lease.endpoints or None,
                iterations=job.iterations,
                seed=job.seed,
                eval_cache=self.cache,
                stop_check=stop_check,
                on_point=on_point,
                resume_points=resume_points,
                paranoid=self.paranoid,
                explain_top=self.explain_top,
                explain_dir=(
                    os.path.join(checkpoint_dir, "witnesses")
                    if self.explain_top > 0 else None
                ),
            )
        finally:
            self.pool.release(lease)
        if curve.interrupted:
            current = self.queue.get(job.id)
            if current is not None and current.cancel_requested:
                self.queue.finish_cancel(job.id)
                logger.info(
                    "job %s cancelled (drained to checkpoint)", job.id
                )
            else:
                self.queue.release(job.id)
                logger.info(
                    "job %s drained to checkpoint for restart", job.id
                )
            return
        self.queue.complete(
            job.id, campaign_stdout(curve), curve.final_detection
        )
        logger.info(
            "job %s done: final detection %.1f%%",
            job.id, 100.0 * curve.final_detection,
        )
