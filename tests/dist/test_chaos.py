"""Chaos suite: the campaign's output survives transport faults.

A :class:`~repro.testing.chaos.ChaosProxy` sits between coordinator
and worker, injecting seeded frame faults — duplication, garbage,
mid-frame truncation, drops.  The invariant under test is the
project's strongest: whatever the transport does, the evaluated
rankings (and a whole campaign's fitness curve) stay **identical** to
a clean local run — faults cost time, never correctness.
"""

import json
import random
import socket
import struct
import zlib

import pytest

from repro.core.evaluator import Evaluator
from repro.core.generator import Generator
from repro.core.loop import HarpocratesLoop, LoopConfig
from repro.core.targets import scaled_targets
from repro.dist.evaluator import DistributedEvaluator
from repro.dist.protocol import COMPRESS_FLAG, ConnectionClosed, recv_frame
from repro.dist.worker import WorkerServer
from repro.testing.chaos import FAULTS, SCHEDULES, ChaosProxy, FaultPlan

SCALES = (0.03, 0.008)
TARGET_KEY = "int_adder"


@pytest.fixture(scope="module")
def spec():
    return scaled_targets(*SCALES)[TARGET_KEY]


def make_distributed(spec, endpoints, **overrides):
    kwargs = dict(
        endpoints=endpoints,
        target_key=TARGET_KEY,
        program_scale=SCALES[0],
        loop_scale=SCALES[1],
        heartbeat_interval=0.3,
        heartbeat_misses=4,
        connect_timeout=2.0,
    )
    kwargs.update(overrides)
    return DistributedEvaluator(spec.metric, spec.machine, **kwargs)


def signature(evaluated):
    return [
        (e.name, e.fitness, e.total_cycles, e.crashed) for e in evaluated
    ]


class TestFaultPlan:
    def test_schedule_is_deterministic(self):
        plan = FaultPlan(truncate=0.2, drop=0.2, duplicate=0.2)
        rng_a, rng_b = random.Random(42), random.Random(42)
        first = [plan.pick(rng_a) for _ in range(200)]
        second = [plan.pick(rng_b) for _ in range(200)]
        assert first == second
        assert any(fault is not None for fault in first)

    def test_constant_rng_consumption_per_frame(self):
        """Faulted and clean frames draw the same number of randoms,
        so one fault never shifts the rest of the schedule."""
        plan = FaultPlan(drop=1.0)
        rng_a, rng_b = random.Random(7), random.Random(7)
        assert plan.pick(rng_a) == "drop"
        FaultPlan().pick(rng_b)
        assert rng_a.random() == rng_b.random()

    def test_all_faults_reachable(self):
        plan = FaultPlan(
            drop=0.2, duplicate=0.2, truncate=0.2, garbage=0.2,
            delay=0.2,
        )
        rng = random.Random(3)
        seen = {plan.pick(rng) for _ in range(500)}
        assert seen == set(FAULTS) | {None}

    def test_force_takes_first_enabled_fault(self):
        plan = FaultPlan(garbage=1e-12, delay=1e-12)
        rng_a, rng_b = random.Random(1), random.Random(1)
        assert plan.pick(rng_a) is None
        assert plan.pick(rng_b, force=True) == "garbage"
        assert rng_a.random() == rng_b.random()
        assert FaultPlan().pick(random.Random(1), force=True) is None

    def test_frames_map_to_their_schedule(self):
        from repro.testing.chaos import _frame_type

        def schedule(message, compress=False):
            return SCHEDULES.get(_frame_type(*frame(message, compress)))

        assert schedule({"type": "eval", "batch": []}) == "traffic"
        assert schedule({"type": "result"}, compress=True) == "traffic"
        assert schedule({"type": "ping"}) == "heartbeat"
        assert schedule({"type": "pong"}) == "heartbeat"
        for kind in ("hello", "configure", "configured", "shutdown"):
            assert schedule({"type": kind}) is None
        assert _frame_type(struct.pack("!I", 3), b"\xff\x00\x01") is None


def frame(message, compress=False):
    """A raw (header, body) frame as the protocol puts it on the wire."""
    body = json.dumps(message).encode()
    length = len(body)
    if compress:
        body = zlib.compress(body)
        length = len(body) | COMPRESS_FLAG
    return struct.pack("!I", length), body


class TestHeartbeatSchedule:
    """Heartbeats draw from their own stream: they are faulted, yet the
    eval/result fault sequence is the same however many are relayed."""

    @staticmethod
    def _relay(messages):
        """Send ``messages`` through a fresh duplicating proxy; returns
        the message types the upstream received, in order."""
        upstream = socket.create_server(("127.0.0.1", 0))
        proxy = ChaosProxy(
            ("127.0.0.1", upstream.getsockname()[1]),
            FaultPlan(seed=4, duplicate=0.5),
        ).start()
        try:
            client = socket.create_connection(("127.0.0.1", proxy.port))
            server, _ = upstream.accept()
            with client, server:
                for message in messages:
                    client.sendall(b"".join(frame(message)))
                client.shutdown(socket.SHUT_WR)
                server.settimeout(10.0)
                received = []
                while True:
                    try:
                        received.append(recv_frame(server))
                    except ConnectionClosed:
                        return received
        finally:
            proxy.close()
            upstream.close()

    def test_heartbeats_do_not_shift_traffic_faults(self):
        evals = [{"type": "eval", "batch": [index]} for index in range(20)]
        alone = self._relay(evals)
        interleaved = self._relay([
            message
            for index, message in enumerate(evals)
            for message in (message, {"type": "ping", "seq": index})
        ])
        assert [m for m in interleaved if m["type"] == "eval"] == alone
        # The first eval frame is always faulted, and some of the 20
        # heartbeats are too.
        assert alone[0] == alone[1] == evals[0]
        pings = [m for m in interleaved if m["type"] == "ping"]
        assert len(pings) > len(evals)


class TestCleanPassthrough:
    def test_proxy_forwards_faithfully(self, spec):
        """With an all-zero plan the proxy is an invisible relay."""
        worker = WorkerServer(slots=2).start()
        proxy = ChaosProxy(("127.0.0.1", worker.port)).start()
        generator = Generator(spec.generation)
        population = generator.initial_population(8, base_seed=7)
        local = Evaluator(spec.metric, spec.machine).rank(population)
        distributed = make_distributed(
            spec, [("127.0.0.1", proxy.port)]
        )
        try:
            remote = distributed.rank(population)
        finally:
            distributed.close()
            proxy.close()
            worker.close()
        assert signature(local) == signature(remote)
        assert proxy.counters["connections"] >= 1
        assert proxy.faults_injected() == 0


class TestFaultedTransport:
    def _assert_chaotic_rank_matches_local(
        self, spec, plan, extra_clean_worker=True, generations=2,
        population_size=10, **overrides,
    ):
        """Shared harness: rank ``generations`` populations through a
        chaotic proxy and require byte-identical outcomes."""
        worker = WorkerServer(slots=2).start()
        proxy = ChaosProxy(("127.0.0.1", worker.port), plan).start()
        endpoints = [("127.0.0.1", proxy.port)]
        clean = None
        if extra_clean_worker:
            clean = WorkerServer(slots=2).start()
            endpoints.append(("127.0.0.1", clean.port))
        generator = Generator(spec.generation)
        populations = [
            generator.initial_population(
                population_size, base_seed=100 + index
            )
            for index in range(generations)
        ]
        local = Evaluator(spec.metric, spec.machine)
        expected = [
            signature(local.rank(population))
            for population in populations
        ]
        distributed = make_distributed(spec, endpoints, **overrides)
        # Chaos tears connections down often; let the coordinator
        # redial immediately instead of sitting out generations.
        distributed.coordinator.reconnect_cooldown = 0
        try:
            got = [
                signature(distributed.rank(population))
                for population in populations
            ]
        finally:
            distributed.close()
            proxy.close()
            worker.close()
            if clean is not None:
                clean.close()
        assert got == expected
        return proxy

    def test_survives_duplicated_frames(self, spec):
        proxy = self._assert_chaotic_rank_matches_local(
            spec,
            FaultPlan(seed=11, duplicate=0.35),
            extra_clean_worker=False,
        )
        assert proxy.counters["duplicate"] >= 1

    def test_survives_garbage_bodies(self, spec):
        proxy = self._assert_chaotic_rank_matches_local(
            spec, FaultPlan(seed=5, garbage=0.25)
        )
        assert proxy.counters["garbage"] >= 1

    def test_survives_mid_frame_truncation(self, spec):
        proxy = self._assert_chaotic_rank_matches_local(
            spec, FaultPlan(seed=23, truncate=0.25)
        )
        assert proxy.counters["truncate"] >= 1

    def test_survives_dropped_frames(self, spec):
        proxy = self._assert_chaotic_rank_matches_local(
            spec,
            FaultPlan(seed=2, drop=0.2),
            steal=True, steal_delay=0.3,
        )
        assert proxy.counters["drop"] >= 1

    def test_survives_mixed_chaos(self, spec):
        proxy = self._assert_chaotic_rank_matches_local(
            spec,
            FaultPlan(
                seed=9, drop=0.08, duplicate=0.08, truncate=0.08,
                garbage=0.08, delay=0.08, delay_seconds=0.05,
            ),
            steal=True, steal_delay=0.3,
            generations=3,
        )
        assert proxy.faults_injected() >= 1


class TestCampaignUnderChaos:
    def test_full_campaign_identical_to_local(self, spec):
        """A whole GA campaign through a chaotic transport produces
        the exact fitness curve and elite of the clean local run."""
        config = LoopConfig(
            population=6, keep=2, offspring_per_parent=2,
            iterations=3, seed=5,
        )
        reference = HarpocratesLoop(
            Generator(spec.generation),
            Evaluator(spec.metric, spec.machine),
            config=config,
        ).run()

        worker = WorkerServer(slots=2).start()
        proxy = ChaosProxy(
            ("127.0.0.1", worker.port),
            FaultPlan(
                seed=31, duplicate=0.1, truncate=0.1, garbage=0.05,
            ),
        ).start()
        clean = WorkerServer(slots=2).start()
        distributed = make_distributed(
            spec,
            [("127.0.0.1", proxy.port), ("127.0.0.1", clean.port)],
        )
        distributed.coordinator.reconnect_cooldown = 0
        try:
            chaotic = HarpocratesLoop(
                Generator(spec.generation), distributed, config=config
            ).run()
        finally:
            distributed.close()
            proxy.close()
            worker.close()
            clean.close()

        assert chaotic.fitness_curve() == reference.fitness_curve()
        assert [e.name for e in chaotic.best] == \
            [e.name for e in reference.best]
        assert [e.program.to_asm() for e in chaotic.best] == \
            [e.program.to_asm() for e in reference.best]


class TestChaosCli:
    def test_bad_upstream_rejected(self):
        from repro.testing.chaos import main

        with pytest.raises(SystemExit):
            main(["--upstream", "no-port"])
        with pytest.raises(SystemExit):
            main(["--upstream", "host:70000"])
