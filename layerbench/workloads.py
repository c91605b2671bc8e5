"""Workload definitions shared by the runner and the role processes.

A workload fixes the application (sensor chain or image stream), the
publishing role (sender or broker), the receiver count, the offered
rate, and the *pinned* per-host seconds-per-cycle rates.  Pinning the
rates (through the endpoints' public ``rate_override`` / ``recalibrate``
parameters) instead of calibrating them against the wall clock is what
makes the min-cut trajectory repeat from run to run: the cost model
then sees the same numbers every time, and the final split is a
property of the workload, not of the machine's load at the time.

Everything here is a pure function of ``(workload, seed, seconds,
trace)``, so the publisher, every receiver and the runner derive the
same event stream and the same message schedule independently.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

#: sensor chain shape (matches ``repro.net.live``'s defaults)
SENSOR_STAGES = 20
SENSOR_SAMPLES = 64
#: seconds-per-cycle of the fast host; the slow host is SLOW_FACTOR
#: times slower.  Ten times the rate the sensor handler calibrates to on
#: a 2-core x86 VM (~6e-9 s/cycle): at that magnitude every split's
#: per-unit time exceeds the sensor model's beta, so eq. 3 is in its
#: compute-bound regime for every candidate and the min-cut balances
#: the per-unit load, as in the paper's sensor experiment.
FAST_RATE = 6e-8
SLOW_FACTOR = 8.0
#: messages between trigger fires (RateTrigger period), as in live.py
TRIGGER_PERIOD = 10
#: distinct frames per size in the image pool
IMAGE_POOL = 16
#: messages after the window repeating the image stream's last size, so
#: the final split is reached before the stream ends
IMAGE_SETTLE = 60
#: warm-up before the measured window: the plan converges, caches fill
WARMUP_SECONDS = 1.5
#: sub-windows of the measured window; per-message CPU is the median
#: over them, so a transient disturbance moves one sub-window, not the
#: figure
SUBWINDOWS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "sensor" (execution-time model) or "image" (data-size model)
    app: str
    #: "sender" (NetSenderEndpoint) or "broker" (NetBrokerEndpoint)
    publisher: str
    receivers: int
    #: offered load, messages per second (open loop); the publishing
    #: process stays near a quarter of one core's CPU (sensor-recv's a
    #: third), so the generator keeps its schedule on a contended host
    rate: float
    #: pinned seconds-per-cycle of the publishing host
    pub_rate: float
    #: pinned seconds-per-cycle of every receiving host
    recv_rate: float
    #: PSE ids of the plan every receiver must end on, by (seed, schedule);
    #: ``pse2`` is the handler's not-an-event branch, split "for free"
    #: because it never executes
    final_plan: Callable[[int, "Schedule"], List[str]]


def _image_final_plan(seed: int, plan: "Schedule") -> List[str]:
    """The image stream ends on a long run of its last frame size.

    Small frames (80x80 = 6.4 KB) are cheapest shipped raw, before the
    resample (``pse0``); large ones (200x200 = 40 KB) after it, as the
    160x160 display frame (``pse1``).
    """
    return ["pse0" if image_sizes(seed, plan)[-1] == 80 else "pse1", "pse2"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sensor-recv",
            why=(
                "sensor chain, 1 sender -> 1 receiver, split pinned early: "
                "receiver-bound (demodulate, per-PSE profiling, decode)"
            ),
            app="sensor",
            publisher="sender",
            receivers=1,
            rate=400.0,
            pub_rate=FAST_RATE * SLOW_FACTOR,
            recv_rate=FAST_RATE,
            final_plan=lambda seed, plan: ["pse2", "pse6"],
        ),
        Workload(
            name="sensor-fanout2",
            why=(
                "sensor chain, broker -> 2 receivers on the same late "
                "split: publisher-bound (modulate, profiling, per-peer "
                "encode/enqueue)"
            ),
            app="sensor",
            publisher="broker",
            receivers=2,
            rate=150.0,
            pub_rate=FAST_RATE,
            recv_rate=FAST_RATE * SLOW_FACTOR,
            final_plan=lambda seed, plan: ["pse2", "pse22"],
        ),
        Workload(
            name="image-mixed",
            why=(
                "Table 2 mixed 80x80/200x200 stream under the data-size "
                "model: bytes on the wire and the plan round trip dominate"
            ),
            app="image",
            publisher="sender",
            receivers=1,
            rate=150.0,
            pub_rate=FAST_RATE,
            recv_rate=FAST_RATE,
            final_plan=_image_final_plan,
        ),
    )
}


# -- message schedule ----------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Message indices of one run.

    Message 0 is the set-up probe (published as soon as every peer is
    connected); messages 1.. are published open-loop at ``rate``.  The
    measured window ``[warmup, end)`` is cut into :data:`SUBWINDOWS`
    equal sub-windows at ``marks``, where both sides checkpoint CPU: on
    the publisher "this many messages published", on a receiver "this
    many delivered".  With tracing, the window's first half runs
    untraced and the layer wrappers go in at ``trace_from``.
    """

    total: int
    warmup: int
    end: int
    marks: Tuple[int, ...]
    #: index at which the layer wrappers go in (0 = untraced run)
    trace_from: int


def schedule(workload: Workload, seed: int, seconds: float, trace: bool) -> Schedule:
    per_window = max(int(seconds * workload.rate) // SUBWINDOWS, 2)
    warmup = 1 + int(WARMUP_SECONDS * workload.rate)
    end = warmup + SUBWINDOWS * per_window
    total = end + int(0.2 * workload.rate)
    if workload.app == "image":
        total += IMAGE_SETTLE
    marks = tuple(range(warmup, end + 1, per_window))
    return Schedule(total, warmup, end, marks, marks[SUBWINDOWS // 2] if trace else 0)


# -- events ----------------------------------------------------------------------


def sensor_event(seed: int, index: int):
    """Reading *index* of seed *seed*'s stream (every reading distinct)."""
    from repro.apps.sensor.data import make_reading

    return make_reading(seed * 10_000_000 + index, SENSOR_SAMPLES)


def image_sizes(seed: int, plan: Schedule) -> List[int]:
    """Frame edge of every message: Table 2's mixed stream.

    Runs of n ~ U[1, 20] frames alternate between 80x80 and 200x200
    (``repro.apps.imagestream.data.scenario_stream``'s rule), in pairs
    of equal length, and the pattern repeats every sub-window: each
    sub-window then carries the same half-small, half-large mix whatever
    the seed, so sub-windows and seeds compare like with like.  After
    the window the last size repeats, so the stream ends on a run long
    enough for the split to settle.
    """
    rng = random.Random(seed)
    period = plan.marks[1] - plan.marks[0]
    first, second = (80, 200) if rng.getrandbits(1) else (200, 80)
    pattern: List[int] = []
    while len(pattern) < period:
        left = period - len(pattern)
        n = min(rng.randint(1, 20), left // 2) or left
        pattern.extend([first] * n + [second] * min(n, left - n))
    sizes = [pattern[(i - plan.warmup) % period] for i in range(plan.end)]
    sizes.extend([sizes[-1]] * (plan.total - plan.end))
    return sizes


def image_pool(seed: int) -> Dict[int, List[bytes]]:
    rng = random.Random(seed ^ 0x5EED)
    return {
        edge: [rng.randbytes(edge * edge) for _ in range(IMAGE_POOL)]
        for edge in (80, 200)
    }


def image_picks(seed: int, total: int) -> List[int]:
    """Which pool frame each message carries."""
    rng = random.Random(seed ^ 0xF00D)
    return [rng.randrange(IMAGE_POOL) for _ in range(total)]


def make_events(
    workload: Workload, seed: int, plan: Schedule, start: int, stop: int
) -> list:
    """Events ``start..stop-1`` of the stream *plan* schedules.

    Every message is a fresh object, so no layer can recognize a
    repeated event by identity.
    """
    if workload.app == "sensor":
        return [sensor_event(seed, i) for i in range(start, stop)]
    from repro.apps.imagestream.data import ImageFrame

    sizes = image_sizes(seed, plan)
    picks = image_picks(seed, plan.total)
    pool = image_pool(seed)
    return [
        ImageFrame(sizes[i], sizes[i], pool[sizes[i]][picks[i]])
        for i in range(start, stop)
    ]


# -- building the program and fingerprinting its results ---------------------------


def fingerprint(app: str, result) -> list:
    """A JSON-safe, exact summary of one delivered result.

    Sensor results are three floats (kept whole); image results are
    160x160 frames, summarized by size and CRC-32 so a receiver need
    not hold every frame in memory until the run ends.
    """
    if app == "sensor":
        return [float(x) for x in result]
    return [result.width, result.height, zlib.crc32(result.pixels)]


def build(workload: Workload, sink: Callable):
    """The partitioned handler (default backend), delivering into *sink*."""
    if workload.app == "sensor":
        from repro.apps.sensor.pipeline import build_partitioned_process

        partitioned, _ = build_partitioned_process(n_stages=SENSOR_STAGES, sink=sink)
    else:
        from repro.apps.imagestream.app import build_partitioned_push

        partitioned, _ = build_partitioned_push(display=sink)
    return partitioned


def reference_fingerprints(workload: Workload, seed: int, plan: Schedule) -> List[list]:
    """``run_reference`` of every event, unsplit, fingerprinted."""
    out: List = []
    partitioned = build(workload, lambda r: out.append(fingerprint(workload.app, r)))
    if workload.app == "sensor":
        for event in make_events(workload, seed, plan, 0, plan.total):
            partitioned.run_reference(event)
        return out
    # Image results depend only on (size, pool frame): run each once.
    sizes = image_sizes(seed, plan)
    picks = image_picks(seed, plan.total)
    cache: Dict[Tuple[int, int], list] = {}
    fps: List[list] = []
    for event, key in zip(
        make_events(workload, seed, plan, 0, plan.total), zip(sizes, picks)
    ):
        if key not in cache:
            partitioned.run_reference(event)
            cache[key] = out.pop()
        fps.append(cache[key])
    return fps


def pse_ids(partitioned, edges: Sequence[Sequence[int]]) -> List[str]:
    pses = partitioned.cut.pses
    return sorted(
        str(pses[tuple(e)].pse_id) if tuple(e) in pses else str(tuple(e))
        for e in edges
    )
