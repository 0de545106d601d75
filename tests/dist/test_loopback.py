"""Coordinator + worker integration over localhost loopback.

The acceptance properties from the ISSUE: a fleet-evaluated generation
ranks **identically** to the same-seed local evaluation (determinism),
health telemetry crosses the wire, and an empty/unreachable fleet
degrades gracefully to the local pool.
"""

import pytest

from repro.core.evalcache import EvaluationCache
from repro.core.evaluator import Evaluator
from repro.core.generator import Generator
from repro.core.targets import scaled_targets
from repro.dist.coordinator import Coordinator, parse_endpoints
from repro.dist.evaluator import DistributedEvaluator
from repro.dist.worker import WorkerServer

SCALES = (0.03, 0.008)  # smoke-preset program/loop scales
TARGET_KEY = "int_adder"


@pytest.fixture(scope="module")
def spec():
    return scaled_targets(*SCALES)[TARGET_KEY]


@pytest.fixture()
def fleet():
    """Two loopback workers; yields their endpoints."""
    servers = [WorkerServer(slots=2).start() for _ in range(2)]
    try:
        yield [("127.0.0.1", server.port) for server in servers]
    finally:
        for server in servers:
            server.close()


def make_distributed(spec, endpoints, **overrides):
    kwargs = dict(
        endpoints=endpoints,
        target_key=TARGET_KEY,
        program_scale=SCALES[0],
        loop_scale=SCALES[1],
        heartbeat_interval=0.5,
        connect_timeout=2.0,
        steal_delay=5.0,
    )
    kwargs.update(overrides)
    return DistributedEvaluator(spec.metric, spec.machine, **kwargs)


class TestLoopback:
    def test_distributed_ranking_matches_local(self, spec, fleet):
        generator = Generator(spec.generation)
        population = generator.initial_population(10, base_seed=7)
        local = Evaluator(spec.metric, spec.machine).rank(population)
        distributed = make_distributed(spec, fleet)
        try:
            remote = distributed.rank(population)
        finally:
            distributed.close()
        assert [(e.name, e.fitness, e.total_cycles, e.crashed)
                for e in local] == \
               [(e.name, e.fitness, e.total_cycles, e.crashed)
                for e in remote]

    def test_health_telemetry_crosses_the_wire(self, spec, fleet):
        generator = Generator(spec.generation)
        population = generator.initial_population(6, base_seed=1)
        distributed = make_distributed(spec, fleet)
        try:
            distributed.evaluate(population)
            health = distributed.take_health()
        finally:
            distributed.close()
        assert health.evaluations == 6
        assert health.workers_lost == 0
        # take_health drains the counter.
        assert distributed.take_health().evaluations == 0

    def test_evaluate_empty_population(self, spec, fleet):
        distributed = make_distributed(spec, fleet)
        try:
            assert distributed.evaluate([]) == []
        finally:
            distributed.close()

    def test_results_arrive_in_submission_order(self, spec, fleet):
        generator = Generator(spec.generation)
        population = generator.initial_population(8, base_seed=5)
        distributed = make_distributed(spec, fleet)
        try:
            evaluated = distributed.evaluate(population)
        finally:
            distributed.close()
        assert [e.name for e in evaluated] == [p.name for p in population]


class TestCoordinatorCache:
    """The evaluation cache runs coordinator-side: known candidates
    never cross the wire, and the cached ranking stays byte-identical
    to the local uncached one."""

    def test_second_rank_served_from_cache(self, spec, fleet):
        generator = Generator(spec.generation)
        population = generator.initial_population(8, base_seed=7)
        local = Evaluator(spec.metric, spec.machine).rank(population)
        cache = EvaluationCache()
        distributed = make_distributed(spec, fleet, cache=cache)
        try:
            first = distributed.rank(population)
            misses_after_first = cache.misses
            second = distributed.rank(population)
            health = distributed.take_health()
        finally:
            distributed.close()
        # The first pass populated the cache; the second never left
        # the coordinator.
        assert misses_after_first == len(population)
        assert cache.hits == len(population)
        assert cache.misses == misses_after_first
        signature = [
            (e.name, e.fitness, e.total_cycles, e.crashed)
            for e in local
        ]
        assert [(e.name, e.fitness, e.total_cycles, e.crashed)
                for e in first] == signature
        assert [(e.name, e.fitness, e.total_cycles, e.crashed)
                for e in second] == signature
        # Hits still count as evaluations — totals match an uncached
        # campaign — with the savings visible in cache_hits only.
        assert health.evaluations == 2 * len(population)
        assert health.cache_hits == len(population)


class TestGracefulFallback:
    def test_unreachable_fleet_falls_back_to_local(self, spec):
        generator = Generator(spec.generation)
        population = generator.initial_population(5, base_seed=2)
        local = Evaluator(spec.metric, spec.machine).rank(population)
        distributed = make_distributed(
            spec, [("127.0.0.1", 1)], connect_timeout=0.5
        )
        try:
            remote = distributed.rank(population)
        finally:
            distributed.close()
        assert [(e.name, e.fitness) for e in local] == \
               [(e.name, e.fitness) for e in remote]

    def test_coordinator_reports_no_fleet_as_none(self, spec):
        coordinator = Coordinator(
            [("127.0.0.1", 1)],
            target_key=TARGET_KEY,
            program_scale=SCALES[0],
            loop_scale=SCALES[1],
            connect_timeout=0.5,
        )
        assert coordinator.evaluate([{"name": "x"}]) is None
        coordinator.close()


class TestWorkerRobustness:
    def test_unknown_target_rejected_at_configure(self, fleet, spec):
        distributed = DistributedEvaluator(
            spec.metric, spec.machine,
            endpoints=fleet,
            target_key="no_such_structure",
            program_scale=SCALES[0],
            loop_scale=SCALES[1],
            connect_timeout=1.0,
            heartbeat_interval=0.5,
        )
        generator = Generator(spec.generation)
        population = generator.initial_population(3, base_seed=0)
        try:
            # Both workers reject the configure, so evaluation falls
            # back to the local pool — and still completes.
            evaluated = distributed.evaluate(population)
        finally:
            distributed.close()
        assert len(evaluated) == 3
        assert all(not e.quarantined for e in evaluated)

    def test_undecodable_candidate_is_quarantined_not_fatal(
        self, spec, fleet
    ):
        coordinator = Coordinator(
            fleet,
            target_key=TARGET_KEY,
            program_scale=SCALES[0],
            loop_scale=SCALES[1],
            heartbeat_interval=0.5,
        )
        generator = Generator(spec.generation)
        from repro.core.checkpoint import encode_program

        good = encode_program(generator.initial_population(1)[0])
        bad = dict(good, name="mystery", code="AA==")  # opcode 0x00
        outcome = coordinator.evaluate([good, bad])
        coordinator.close()
        assert outcome is not None
        results, health = outcome
        assert results[0] is not None
        assert results[0]["error_kind"] is None
        assert results[1]["error_kind"] == "candidate_error"
        assert "mystery" in health.quarantined

    def test_parse_endpoints(self):
        assert parse_endpoints("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_endpoints("127.0.0.1:7070") == [("127.0.0.1", 7070)]
        with pytest.raises(ValueError):
            parse_endpoints("no-port")
        with pytest.raises(ValueError):
            parse_endpoints("host:notaport")
        with pytest.raises(ValueError):
            parse_endpoints(",")
