"""One role of a layer-budget run, in its own OS process.

    python3 layerbench/roles.py receiver --workload W --seed S --seconds T ...
    python3 layerbench/roles.py publisher --workload W --seed S --seconds T ...

``run.py`` spawns these; they are not meant to be started by hand.
A receiver binds an ephemeral port and announces ``LISTENING <port>``;
the publisher reads the receivers' ports from one stdin line.  Each
role prints one JSON result line on stdout when the stream ends, then
waits for a line (or EOF) on stdin before it closes its sockets: the
runner lets the publisher hang up first, then the receivers.

Both roles run with the observability ``repro.net.live`` turns on
(span tracing and the flight recorder; no sampling profiler), so its
cost is inside the measured CPU.  Nothing but public constructors and
methods of the endpoints is used to build the pipeline.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time

from layers import LayerClock, install_publisher, install_receiver, thread_cpu
from workloads import (
    TRIGGER_PERIOD,
    WORKLOADS,
    build,
    fingerprint,
    make_events,
    schedule,
)

#: disjoint tracer id ranges per process, as in repro.net.live
PUBLISHER_ID_BASE = 1 << 40
RECEIVER_ID_BASE = 2 << 40
RECEIVER_ID_STRIDE = 1 << 38
#: seconds a receiver waits for ``NetReceiverEndpoint.stop``
STOP_TIMEOUT = 2.0


def _observability(host: str, id_base: int):
    from repro.obs import Observability

    obs = Observability()
    obs.enable_tracing(clock=time.time, host=host, id_base=id_base)
    obs.enable_flight(host=host)
    return obs


class Checkpoints:
    """CPU readings at the schedule's marks (message counts)."""

    def __init__(self, marks, trace_from: int, install) -> None:
        self.marks = set(marks)
        self.trace_from = trace_from
        self.install = install
        self.clock = LayerClock() if trace_from else None
        self.points = {}

    def at(self, count: int, extra=None) -> None:
        if self.trace_from and count == self.trace_from:
            self.install(self.clock)
        if count not in self.marks:
            return
        point = {"cpu": time.process_time()}
        if self.clock is not None:
            point["threads"] = thread_cpu()
            point["layers"] = self.clock.snapshot()
        if extra is not None:
            point.update(extra())
        self.points[count] = point


# -- receiver -------------------------------------------------------------------


class RecordingSink:
    """The receiver-pinned sink: arrival time and fingerprint per result.

    Fingerprinting here (a CRC-32 of each 25.6 KB image frame, ~9 us)
    keeps the receiver from holding every frame until the run ends.
    The sink is also the receiver's clock for CPU checkpoints: delivery
    *n* is the moment the receiver has fully handled *n* messages.
    """

    def __init__(self, app: str, checkpoints: Checkpoints) -> None:
        self.app = app
        self.checkpoints = checkpoints
        self.times = []
        self.fingerprints = []

    def __call__(self, result) -> None:
        self.times.append(time.time())
        self.fingerprints.append(fingerprint(self.app, result))
        self.checkpoints.at(len(self.fingerprints))


def run_receiver(args) -> None:
    workload = WORKLOADS[args.workload]
    plan = schedule(workload, args.seed, args.seconds, bool(args.trace))
    name = f"receiver{args.index}"

    def install(clock):
        install_receiver(clock, endpoint)

    checkpoints = Checkpoints(
        () if args.setup_only else plan.marks,
        0 if args.setup_only else plan.trace_from,
        install,
    )
    sink = RecordingSink(workload.app, checkpoints)
    from repro.core.plan import receiver_heavy_plan
    from repro.core.runtime.triggers import RateTrigger
    from repro.net.endpoint import NetReceiverEndpoint
    from repro.net.framing import NetEnvelopeCodec

    obs = _observability(name, RECEIVER_ID_BASE + args.index * RECEIVER_ID_STRIDE)
    partitioned = build(workload, sink)
    endpoint = NetReceiverEndpoint(
        partitioned,
        plan=receiver_heavy_plan(partitioned.cut),
        trigger=RateTrigger(period=TRIGGER_PERIOD),
        rate_override=workload.recv_rate,
        codec=NetEnvelopeCodec(partitioned.serializer_registry),
        name=name,
        obs=obs,
    )
    deadline = time.monotonic() + args.timeout

    def result() -> dict:
        fingerprints = sink.fingerprints
        if 0 < args.corrupt_delivery <= len(fingerprints):
            # Self-test fault: falsify one delivered result.
            fingerprints[args.corrupt_delivery - 1][-1] += 1
        return {
            "role": name,
            "times": sink.times,
            "fingerprints": fingerprints,
            "demodulated": endpoint.demodulated,
            "duplicates_skipped": endpoint.duplicates_skipped,
            "sender_reported_sent": endpoint.sender_reported_sent,
            "plan_ships": endpoint.plan_ships,
            "recomputes": [
                {
                    "at_message": record.at_message,
                    "edges": sorted(list(e) for e in record.plan.active),
                }
                for record in endpoint.reconfig.history
            ],
            "final_plan_edges": (
                sorted(list(e) for e in endpoint.sender_plan.active)
                if endpoint.sender_plan is not None
                else []
            ),
            "checkpoints": checkpoints.points,
            "main_thread": str(threading.get_ident()),
        }

    async def amain() -> None:
        _, port = await endpoint.start("127.0.0.1", 0)
        print(f"LISTENING {port}", flush=True)
        while not endpoint.done.is_set():
            if time.monotonic() > deadline:
                print(f"{name}: deadline exceeded", file=sys.stderr)
                break
            await asyncio.sleep(0.02)
        print(json.dumps(result()), flush=True)
        # Stay up until the publisher has hung up (run.py's stdin line):
        # a PLAN frame shipped for the last messages may still be in
        # flight, and stopping first would reset the connection.
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)
        try:
            # Bounded: on Python 3.11 a telemetry push racing the stop can
            # swallow the cancellation, and stop() would wait forever.
            await asyncio.wait_for(endpoint.stop(), STOP_TIMEOUT)
        except asyncio.TimeoutError:
            print(f"{name}: endpoint.stop() did not return", file=sys.stderr)

    asyncio.run(amain())


# -- publisher ------------------------------------------------------------------


def _wait_connected(peers, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while not all(p.connected for p in peers):
        if time.monotonic() > deadline:
            raise SystemExit("publisher: peers did not connect in time")
        time.sleep(0.001)


def run_publisher(args) -> None:
    workload = WORKLOADS[args.workload]
    plan = schedule(workload, args.seed, args.seconds, bool(args.trace))
    from repro.core.api import MethodPartitioner
    from repro.core.plan import receiver_heavy_plan
    from repro.net.broker import NetBrokerEndpoint
    from repro.net.endpoint import NetSenderEndpoint
    from repro.net.framing import NetEnvelopeCodec
    from repro.net.tcp import TcpTransport

    partition_seconds = []
    if args.trace:
        original = MethodPartitioner.partition

        def timed_partition(self, *a, **k):
            started = time.perf_counter()
            try:
                return original(self, *a, **k)
            finally:
                partition_seconds.append(time.perf_counter() - started)

        MethodPartitioner.partition = timed_partition
    role = workload.publisher
    obs = _observability(role, PUBLISHER_ID_BASE)
    partitioned = build(workload, lambda result: None)
    codec = NetEnvelopeCodec(partitioned.serializer_registry)
    pinned = workload.pub_rate
    if role == "broker":
        transport = TcpTransport(
            codec,
            name="broker",
            heartbeat_interval=0.5,
            connect_timeout=args.timeout,
            send_timeout=5.0,
            backoff_base=0.05,
            backoff_cap=0.5,
            queue_limit=64,
        )
    else:
        transport = TcpTransport(
            codec,
            name="sender",
            heartbeat_interval=0.5,
            connect_timeout=args.timeout,
            send_timeout=5.0,
        )
    transport.attach_observability(obs, name="transport.tcp")
    transport.start()
    ports = [int(p) for p in sys.stdin.readline().split()]
    connect_started = time.perf_counter()
    if role == "broker":
        endpoint = NetBrokerEndpoint(
            partitioned,
            transport,
            plan=receiver_heavy_plan(partitioned.cut),
            rate_override=pinned,
            recalibrate=lambda: pinned,
            queue_limit=64,
            obs=obs,
            health_interval=0.1,
        )
        peers = [
            endpoint.subscribe("127.0.0.1", port, name=f"receiver{i}").peer
            for i, port in enumerate(ports)
        ]
    else:
        peer = transport.peer("127.0.0.1", ports[0])
        endpoint = NetSenderEndpoint(
            partitioned,
            transport,
            peer,
            plan=receiver_heavy_plan(partitioned.cut),
            rate_override=pinned,
            recalibrate=lambda: pinned,
            obs=obs,
        )
        peers = [peer]
    _wait_connected(peers, args.timeout)
    connect_seconds = time.perf_counter() - connect_started
    total = 1 if args.setup_only else plan.total
    publish = endpoint.publish
    publish(make_events(workload, args.seed, plan, 0, 1)[0])

    def frame_stats():
        return {
            "frames": sum(p.frames_sent for p in peers),
            "bytes": sum(p.frame_bytes_sent for p in peers),
        }

    def install(clock):
        nonlocal publish
        publish = install_publisher(clock, endpoint, transport)

    checkpoints = Checkpoints(
        () if args.setup_only else plan.marks,
        0 if args.setup_only else plan.trace_from,
        install,
    )
    events = make_events(workload, args.seed, plan, 1, total)
    interval = 1.0 / workload.rate
    lateness = []
    sleep = time.sleep
    clock = time.perf_counter
    start = clock() + 0.05
    wall_start = time.time() + (start - clock())
    for i, event in enumerate(events, start=1):
        due = start + (i - 1) * interval
        now = clock()
        if now < due:
            sleep(due - now)
        lateness.append(clock() - due)
        checkpoints.at(i, frame_stats)
        publish(event)
    endpoint.finish()
    drained = transport.drain(args.timeout)
    # Leave a window for a PLAN frame racing the tail of the stream.
    time.sleep(0.2)
    if role == "broker":
        endpoint.close()
        subscribers = [
            {
                "name": sub.name,
                "shipped": sub.shipped,
                "completed_locally": sub.completed_locally,
                "absorbed": sub.absorbed,
                "elided": sub.elided,
                "dropped_frames": sub.peer.dropped_frames,
                "final_plan_edges": sorted(list(e) for e in sub.plan.active),
            }
            for sub in endpoint.subscribers
        ]
    else:
        subscribers = [
            {
                "name": peer.name,
                "shipped": endpoint.shipped,
                "completed_locally": endpoint.completed_locally,
                "absorbed": endpoint.absorbed,
                "elided": 0,
                "dropped_frames": peer.dropped_frames,
                "final_plan_edges": [list(e) for e in endpoint.current_plan_edges],
            }
        ]
    result = {
        "role": role,
        "connect_seconds": connect_seconds,
        "partition_seconds": partition_seconds,
        "published": endpoint.published,
        "drained": drained,
        "subscribers": subscribers,
        "wall_start": wall_start,
        "interval": interval,
        "lateness": lateness,
        "checkpoints": checkpoints.points,
        "main_thread": str(threading.get_ident()),
    }
    print(json.dumps(result), flush=True)
    # Close only once every receiver has reported: closing a socket that
    # still holds unread inbound frames (heartbeat echoes, telemetry)
    # resets the connection, and a receiver would lose the tail of the
    # stream, the goodbye included.
    sys.stdin.readline()
    transport.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("role", choices=("publisher", "receiver"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="publish the set-up probe and stop")
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--corrupt-delivery", type=int, default=0,
                        help="self-test: falsify the Nth delivered result")
    args = parser.parse_args(argv)
    (run_receiver if args.role == "receiver" else run_publisher)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
