"""Always-on bounded flight recorder of structured wide events.

A :class:`FlightRecorder` is a fixed-size ring of timestamped dict
events — plan applies/ships, reconnects, queue sheds, health
transitions, fault injections — cheap enough to leave on in
production.  Unlike the decision trace (``repro.obs.trace``) it is not
sampled and not typed: any process-level "something notable happened"
lands here as a plain dict, and the ring is dumped to JSON on abort,
wedge, or SIGTERM so the last few thousand events survive a crash.

``liveexp`` merges the per-process dumps (each event carries the
recorder's ``host`` tag) alongside the tracer dumps, so a fleet run
leaves one joined record of *what happened where*.

The module also hosts the :func:`wide_event` helper: call sites with
no recorder of their own (the live roles' fault and timeout paths)
record into the process-global recorder when one is installed, and do
nothing otherwise.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

__all__ = [
    "FlightRecorder",
    "get_global_recorder",
    "merge_flight_dumps",
    "set_global_recorder",
    "wide_event",
]

_DEFAULT_MAXLEN = 4096


class FlightRecorder:
    """Bounded ring of structured wide events.

    Thread-safe: events are recorded from asyncio loop threads, writer
    threads and signal handlers alike.  ``maxlen`` bounds memory; the
    ``dropped`` counter records how many events fell off the head.
    """

    def __init__(
        self,
        *,
        maxlen: int = _DEFAULT_MAXLEN,
        host: Optional[str] = None,
        clock: Callable[[], float] = time.time,
        mono_clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.host = host if host is not None else socket.gethostname()
        self.clock = clock
        self.mono_clock = mono_clock
        self._events: Deque[dict] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self.maxlen = maxlen
        self.recorded = 0
        self.dropped = 0
        #: seconds spent inside :meth:`record` — same self-accounting
        #: idiom as ``Tracer.overhead_seconds``, surfaced by
        #: ``Observability.refresh_overhead`` as ``obs.overhead.*``.
        self.overhead_seconds = 0.0
        self._dump_path: Optional[str] = None
        self._prev_handlers: Dict[int, object] = {}

    def record(self, kind: str, **fields: object) -> dict:
        """Append one wide event; returns the stored dict.

        Each event carries a (wall, monotonic) clock pair: ``t`` for
        humans and cross-host alignment, ``mono`` so the merge can keep
        one host's events in true order even when its wall clock steps
        mid-run (see :func:`merge_flight_dumps`).
        """
        started = time.perf_counter()
        event = {
            "t": self.clock(),
            "mono": self.mono_clock(),
            "host": self.host,
            "kind": kind,
        }
        event.update(fields)
        with self._lock:
            if len(self._events) == self.maxlen:
                self.dropped += 1
            self._events.append(event)
            self.recorded += 1
        self.overhead_seconds += time.perf_counter() - started
        return event

    def to_list(self) -> List[dict]:
        with self._lock:
            return list(self._events)

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "host": self.host,
                "maxlen": self.maxlen,
                "recorded": self.recorded,
                "dropped": self.dropped,
                "overhead_seconds": self.overhead_seconds,
                "events": list(self._events),
            }

    def count(self, kind: str) -> int:
        """How many *kept* events of ``kind`` are in the ring."""
        with self._lock:
            return sum(1 for e in self._events if e.get("kind") == kind)

    def dump_json(self, path: str) -> None:
        """Write the full recorder state to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, default=str)
            handle.write("\n")

    # -- crash dumping -------------------------------------------------

    def install_signal_dump(
        self,
        path: str,
        signals: Tuple[int, ...] = (signal.SIGTERM, signal.SIGINT),
    ) -> None:
        """Dump the ring to ``path`` when one of ``signals`` arrives.

        Chains any previously installed handler — for SIGINT that is
        Python's ``default_int_handler``, so a ctrl-C'd chaos run still
        raises ``KeyboardInterrupt`` *after* the ring has hit disk
        (default SIGTERM disposition is re-raised so the process still
        dies).  Must be called from the main thread — signal.signal
        requires it; callers on other threads should use
        :meth:`dump_json` at shutdown instead.
        """
        self._dump_path = path
        for signum in signals:
            prev = signal.getsignal(signum)
            self._prev_handlers[signum] = prev
            signal.signal(signum, self._on_signal)

    def _on_signal(self, signum, frame) -> None:
        self.record("signal", signum=int(signum))
        try:
            if self._dump_path:
                self.dump_json(self._dump_path)
        except OSError:
            pass
        prev = self._prev_handlers.get(signum)
        if callable(prev):
            prev(signum, frame)
        elif prev == signal.SIG_DFL:
            # restore and re-raise so the default disposition applies
            signal.signal(signum, signal.SIG_DFL)
            signal.raise_signal(signum)


# -- process-global recorder + wide-event helper -----------------------

_global_recorder: Optional[FlightRecorder] = None


def set_global_recorder(recorder: Optional[FlightRecorder]) -> None:
    """Install (or clear, with None) the process-global recorder."""
    global _global_recorder
    _global_recorder = recorder


def get_global_recorder() -> Optional[FlightRecorder]:
    return _global_recorder


def wide_event(
    kind: str,
    *,
    recorder: Optional[FlightRecorder] = None,
    **fields: object,
) -> Optional[dict]:
    """Record a structured wide event into *recorder* or the global one.

    Returns the stored event, or None when no recorder is installed.
    """
    rec = recorder if recorder is not None else _global_recorder
    return rec.record(kind, **fields) if rec is not None else None


def _merge_key_offset(events: List[dict]) -> Optional[float]:
    """Median wall-minus-monotonic offset of one dump's events.

    The median (rather than the first event's offset) keeps the anchor
    honest when the wall clock *steps* partway through a run — the
    majority of events vote, so a single NTP jump cannot drag the whole
    host's timeline with it.
    """
    diffs = sorted(
        float(e["t"]) - float(e["mono"])
        for e in events
        if "mono" in e and "t" in e
    )
    if not diffs:
        return None
    return diffs[len(diffs) // 2]


def merge_flight_dumps(dumps: List[dict]) -> dict:
    """Merge per-process flight dumps into one time-ordered record.

    Each input is a :meth:`FlightRecorder.to_dict` mapping; events
    already carry their recorder's ``host`` tag.  When events carry
    the (wall, monotonic) clock pair the sort key is the *corrected*
    wall time — each dump's median ``t - mono`` offset re-bases its
    monotonic clock onto the shared wall timeline, so one host's
    events keep their true relative order even when its wall clock
    steps mid-run, while cross-host alignment still follows wall
    time.  Events without ``mono`` (older dumps) fall back to raw
    ``t``, and ties break on host and then within-dump position — the
    merge is deterministic and never reorders one process's own
    events relative to each other.
    """
    decorated: List[Tuple[float, str, int, dict]] = []
    hosts: List[str] = []
    recorded = 0
    dropped = 0
    for dump in dumps:
        if not dump:
            continue
        host = dump.get("host", "?")
        hosts.append(host)
        recorded += int(dump.get("recorded", 0))
        dropped += int(dump.get("dropped", 0))
        events = list(dump.get("events", []))
        offset = _merge_key_offset(events)
        for index, event in enumerate(events):
            if offset is not None and "mono" in event:
                key_t = offset + float(event["mono"])
            else:
                key_t = event.get("t", 0.0)
            decorated.append((key_t, host, index, event))
    decorated.sort(key=lambda item: item[:3])
    events = [item[3] for item in decorated]
    return {
        "hosts": hosts,
        "recorded": recorded,
        "dropped": dropped,
        "events": events,
    }
