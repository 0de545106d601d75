"""Chaos proxy: frame-aware fault injection for the dist protocol.

A :class:`ChaosProxy` sits between the coordinator and a worker —
the coordinator dials the proxy's listen port, the proxy dials the
real worker — and misbehaves on a **seeded schedule**: per relayed
``eval``, ``result``, ``ping`` or ``pong`` frame it may delay, drop,
duplicate, truncate mid-frame, or replace the body with garbage, with
independent probabilities per fault.  Every other frame (the
hello/configure handshake, shutdown, errors) passes cleanly.

The proxy is *frame-aware*: it parses the protocol's 4-byte length
header (masking :data:`~repro.dist.protocol.COMPRESS_FLAG`) so every
fault lands on a protocol-meaningful boundary:

``delay``
    The frame is forwarded late.  Exercises heartbeat/idle handling.
``drop``
    The frame silently vanishes.  A dropped ``result`` starves the
    coordinator until heartbeats give up and the work is re-dispatched;
    a dropped ``ping``/``pong`` burns a heartbeat miss.
``duplicate``
    The frame is forwarded twice.  A duplicated ``result`` must be
    absorbed idempotently (tasks already done are skipped).
``truncate``
    The header plus a *prefix* of the body is forwarded, then both
    sides of the relay are torn down — exactly what a crashing host
    mid-``sendall`` looks like.  The receiver must classify this as a
    fatal :class:`~repro.dist.protocol.ProtocolError` (torn frame),
    condemn the connection, and re-dispatch.
``garbage``
    The length header is forwarded intact but the body is replaced
    with random bytes — undecodable JSON, a
    :class:`~repro.dist.protocol.ProtocolError` on arrival.

Determinism: every direction of every proxy connection draws from
two seeded RNGs, one for its eval/result frames and one for its
heartbeats.  How many heartbeats a connection carries is a matter of
timing, so they get their own stream: a given (seed, schedule) replays
the identical eval/result fault sequence however many heartbeats are
interleaved.  Faults are injected in *both* directions.  The first
eval/result frame the proxy relays always takes the plan's first
enabled fault, so every plan provably exercises a fault however the
work is spread across the fleet.

The module doubles as a CLI for CI chaos jobs::

    python -m repro.testing.chaos --listen 127.0.0.1:7071 \
        --upstream 127.0.0.1:7070 --seed 7 --truncate 0.05 --drop 0.02

which prints the listen port on stdout (handy with port 0) and relays
until killed.
"""

from __future__ import annotations

import argparse
import logging
import random
import socket
import struct
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dist.protocol import (
    COMPRESS_FLAG,
    MSG_EVAL,
    MSG_PING,
    MSG_PONG,
    MSG_RESULT,
    ProtocolError,
    decode_body,
    validate_port,
)

logger = logging.getLogger("repro.chaos")

_HEADER = struct.Struct("!I")

#: Fault kinds, in the order the schedule draws them.
FAULTS = ("drop", "duplicate", "truncate", "garbage", "delay")

#: The schedule each faultable message type draws from; every other
#: type, and any body that does not decode, passes cleanly.
SCHEDULES = {
    MSG_EVAL: "traffic", MSG_RESULT: "traffic",
    MSG_PING: "heartbeat", MSG_PONG: "heartbeat",
}


@dataclass
class FaultPlan:
    """Per-frame fault probabilities (independent draws, first match
    wins in :data:`FAULTS` order) plus the schedule seed."""

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    truncate: float = 0.0
    garbage: float = 0.0
    delay: float = 0.0
    #: Sleep applied by a ``delay`` fault, seconds.
    delay_seconds: float = 0.2

    def pick(
        self, rng: random.Random, force: bool = False
    ) -> Optional[str]:
        """The fault for the next frame on ``rng``'s schedule, or None
        to forward it cleanly.

        Every fault's probability is drawn even after one matches, so
        the RNG consumption per frame is constant and the schedule
        stays aligned however earlier frames were handled.  ``force``
        turns a clean pick into the first enabled fault.
        """
        draws = [(fault, rng.random()) for fault in FAULTS]
        for fault, draw in draws:
            if draw < getattr(self, fault):
                return fault
        if force:
            return next(
                (fault for fault in FAULTS if getattr(self, fault) > 0),
                None,
            )
        return None


def _frame_type(header: bytes, body: bytes) -> Optional[str]:
    """The message type of a raw frame, None if its body is invalid."""
    (raw_length,) = _HEADER.unpack(header)
    try:
        return decode_body(raw_length, body)["type"]
    except ProtocolError:
        return None


class ChaosProxy:
    """A TCP relay that injects :class:`FaultPlan` faults per frame.

    One proxy fronts one upstream worker.  Start with :meth:`start`
    (binds ``listen_host:listen_port``, port 0 for ephemeral), point
    the coordinator at ``proxy.port``, and inspect :attr:`counters`
    afterwards to assert the schedule actually exercised faults.
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        plan: Optional[FaultPlan] = None,
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
    ):
        self.upstream = (upstream[0], validate_port(upstream[1]))
        self.plan = plan if plan is not None else FaultPlan()
        self.listen_host = listen_host
        self.listen_port = validate_port(listen_port)
        self.port: Optional[int] = None
        self.counters: "Counter[str]" = Counter()
        self._counter_lock = threading.Lock()
        #: The next eval/result frame relayed must take a fault.
        self._force_next = True
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._closing = threading.Event()
        self._serial = 0
        self._conns: List[socket.socket] = []
        self._conns_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.listen_host, self.listen_port))
        listener.listen(16)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def close(self) -> None:
        self._closing.set()
        if self._listener is not None:
            # ``shutdown`` wakes the accept thread blocked on the
            # listener; a bare ``close`` leaves it to the join timeout.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    def _count(self, fault: str) -> None:
        with self._counter_lock:
            self.counters[fault] += 1

    def faults_injected(self) -> int:
        """Total faults injected so far (all kinds, both directions)."""
        with self._counter_lock:
            return sum(
                count for fault, count in self.counters.items()
                if fault in FAULTS
            )

    # -- relay -------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return
            serial = self._serial
            self._serial += 1
            try:
                server = socket.create_connection(self.upstream, timeout=5.0)
            except OSError as exc:
                logger.info("chaos proxy: upstream unreachable: %s", exc)
                client.close()
                continue
            with self._conns_lock:
                self._conns.extend((client, server))
            self._count("connections")
            # Independent, seeded schedules per *direction* so the
            # two relay threads never race for RNG draws.
            for source, sink, tag in (
                (client, server, "c2s"), (server, client, "s2c"),
            ):
                seed = (
                    self.plan.seed * 1_000_003
                    + serial * 2 + (tag == "s2c")
                )
                rngs = {
                    "traffic": random.Random(seed),
                    "heartbeat": random.Random(f"heartbeat:{seed}"),
                }
                threading.Thread(
                    target=self._relay,
                    args=(source, sink, rngs, f"conn{serial}:{tag}"),
                    name=f"chaos-{serial}-{tag}",
                    daemon=True,
                ).start()

    def _relay(
        self,
        source: socket.socket,
        sink: socket.socket,
        rngs: Dict[str, random.Random],
        tag: str,
    ) -> None:
        """Pump frames source → sink, injecting scheduled faults."""
        try:
            while not self._closing.is_set():
                frame = self._read_frame(source)
                if frame is None:
                    break
                header, body = frame
                kind = _frame_type(header, body)
                schedule = SCHEDULES.get(kind)
                if schedule is None:
                    sink.sendall(header + body)
                    continue
                force = False
                if schedule == "traffic":
                    with self._counter_lock:
                        force, self._force_next = self._force_next, False
                rng = rngs[schedule]
                fault = self.plan.pick(rng, force)
                if fault is None:
                    sink.sendall(header + body)
                    continue
                self._count(fault)
                logger.debug("chaos %s: %s %s frame", tag, fault, kind)
                if fault == "drop":
                    continue
                if fault == "duplicate":
                    sink.sendall(header + body)
                    sink.sendall(header + body)
                    continue
                if fault == "delay":
                    time.sleep(self.plan.delay_seconds)
                    sink.sendall(header + body)
                    continue
                if fault == "garbage":
                    sink.sendall(header + bytes(
                        rng.getrandbits(8) for _ in range(len(body))
                    ))
                    continue
                # truncate: forward a strict prefix, then tear down the
                # pair — a mid-sendall crash as seen from the receiver.
                cut = rng.randrange(len(body)) if body else 0
                sink.sendall(header + body[:cut])
                break
        except OSError:
            pass
        finally:
            # ``shutdown`` before ``close``: the opposite relay thread
            # sits blocked in ``recv`` on these same sockets, and a
            # blocked syscall keeps the kernel socket alive — a bare
            # ``close`` would leave the peer waiting out its full body
            # timeout instead of seeing FIN immediately.
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def _read_frame(
        self, source: socket.socket
    ) -> Optional[Tuple[bytes, bytes]]:
        """One raw frame (header bytes, body bytes), None at EOF."""
        header = self._read_exact(source, _HEADER.size)
        if header is None:
            return None
        (raw_length,) = _HEADER.unpack(header)
        length = raw_length & ~COMPRESS_FLAG
        body = self._read_exact(source, length)
        if body is None and length:
            return None
        return header, body or b""

    @staticmethod
    def _read_exact(source: socket.socket, count: int) -> Optional[bytes]:
        chunks = []
        remaining = count
        while remaining:
            chunk = source.recv(remaining)
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Fault-injecting TCP proxy for the dist protocol",
    )
    parser.add_argument("--listen", default="127.0.0.1:0",
                        help="host:port to listen on (port 0: ephemeral)")
    parser.add_argument("--upstream", required=True,
                        help="host:port of the real worker")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--drop", type=float, default=0.0)
    parser.add_argument("--duplicate", type=float, default=0.0)
    parser.add_argument("--truncate", type=float, default=0.0)
    parser.add_argument("--garbage", type=float, default=0.0)
    parser.add_argument("--delay", type=float, default=0.0)
    parser.add_argument("--delay-seconds", type=float, default=0.2)
    args = parser.parse_args(argv)

    def parse_hostport(value: str, what: str) -> Tuple[str, int]:
        host, _, port = value.rpartition(":")
        if not host:
            parser.error(f"{what} must be host:port, got {value!r}")
        try:
            return host, validate_port(port, what=f"{what} port")
        except ValueError as exc:
            parser.error(str(exc))

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    listen = parse_hostport(args.listen, "--listen")
    upstream = parse_hostport(args.upstream, "--upstream")
    plan = FaultPlan(
        seed=args.seed, drop=args.drop, duplicate=args.duplicate,
        truncate=args.truncate, garbage=args.garbage, delay=args.delay,
        delay_seconds=args.delay_seconds,
    )
    proxy = ChaosProxy(upstream, plan, listen[0], listen[1])
    proxy.start()
    # The chosen port goes to stdout so CI scripts can capture it.
    print(proxy.port, flush=True)
    logger.info(
        "chaos proxy %s:%d -> %s:%d (plan %s)",
        listen[0], proxy.port, upstream[0], upstream[1], plan,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        proxy.close()
        logger.info("chaos proxy fault counters: %s", dict(proxy.counters))
    return 0


if __name__ == "__main__":
    sys.exit(main())
