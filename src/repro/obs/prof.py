"""Continuous sampling profiler with component attribution.

The paper's loop is *measure, then repartition* — but until now the
repo could only measure what it had hand-instrumented (spans, phase
counters).  :class:`SamplingProfiler` closes the gap: a background
thread walks :func:`sys._current_frames` at a configurable rate,
aggregates collapsed stacks, and attributes every sample to a named
**component** (serialization / framing / codec / modulate / fork /
ship / demodulate / plan / analysis / obs) via an ordered module→
component rule list — so "where do the microseconds go" has an answer
that needs no foreknowledge of which function to wrap.

Design points:

* **Overhead is accounted, not hidden.**  Each sampling pass times
  itself into :attr:`SamplingProfiler.self_seconds`, the same idiom as
  ``Tracer.overhead_seconds``, and the value is exported in every dump
  so reports can state the profiler's own cost next to its findings.
* **Attribution is leaf-first.**  A stack is attributed to the
  component of its leaf-most frame matching any rule; frames matching
  nothing are skipped toward the root.  A thread parked in
  ``selectors``/``threading`` waits is ``idle`` (the wait rules sit in
  the same table), and only a stack matching *no* rule at all lands in
  ``other`` — the benchmark gate asserts that bucket stays small.
* **Exports are standard.**  Collapsed-stack text (Brendan Gregg
  format, one ``frame;frame;... count`` line per stack) and speedscope
  JSON (``https://www.speedscope.app``), both also available for
  merged multi-process dumps via :func:`merge_profile_dumps`.

The profiler is opt-in like every other instrument here:
``Observability.enable_profiler()`` attaches one, and nothing samples
until :meth:`SamplingProfiler.start`.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "DEFAULT_COMPONENT_RULES",
    "DEFAULT_INTERVAL",
    "SamplingProfiler",
    "collapsed_from_dump",
    "component_table",
    "merge_profile_dumps",
    "speedscope_from_dump",
]

#: default sampling period in seconds (100 Hz) — chosen so the
#: profiler-on wire benchmark stays within the 5% overhead gate while
#: a few seconds of traffic still yields hundreds of samples.
DEFAULT_INTERVAL = 0.01

#: stacks deeper than this are truncated at capture (root side kept)
_MAX_DEPTH = 128

#: a rule is ``(filename_fragment, function_or_None, component)``;
#: a frame matches when its code object's filename contains the
#: fragment (os-separator-normalized) and, when the middle element is
#: set, its function name equals it.  Rules are checked in order per
#: frame, frames leaf→root — the leaf-most matching frame names the
#: stack's component.
ComponentRule = Tuple[str, Optional[str], str]

DEFAULT_COMPONENT_RULES: Tuple[ComponentRule, ...] = (
    # Waits first: a thread parked in a selector/lock/queue is idle no
    # matter how much repro code sits below the wait in the stack.
    ("selectors.py", None, "idle"),
    ("threading.py", "wait", "idle"),
    ("threading.py", "_wait_for_tstate_lock", "idle"),
    ("queue.py", "get", "idle"),
    # Observability's own machinery: a sample landing in repro.obs is
    # obs cost even when a broker frame sits deeper down.
    ("repro/obs/", None, "obs"),
    ("repro/serialization/", None, "serialization"),
    ("repro/net/framing", None, "framing"),
    ("repro/core/continuation", None, "codec"),
    ("repro/jecho/events", None, "codec"),
    # Broker publish path, function-level: the union rebuild and the
    # shared interpreter run are modulation; per-peer resume is fork.
    ("repro/net/broker", "_fork", "fork"),
    ("repro/net/broker", "_ship", "ship"),
    ("repro/net/broker", "_union", "modulate"),
    ("repro/net/broker", "publish", "modulate"),
    ("repro/ir/", None, "modulate"),
    # Receiver side: demodulator machinery and the endpoint's inbound
    # handlers (the ir rule above wins for frames *inside* the resumed
    # handler, which is honest — that is execution, not decode).
    ("repro/net/endpoint", "_handle", "demodulate"),
    ("repro/net/endpoint", "_handle_continuation", "demodulate"),
    ("repro/core/partitioned", None, "codec"),
    # Wire send side (encode happens on the caller's thread inside
    # _deliver; the loop thread's write path also lands here).
    ("repro/net/tcp", None, "ship"),
    ("repro/jecho/transport", None, "ship"),
    # Plan machinery: search, cost models, runtime units, cut analysis.
    ("repro/core/convexcut", None, "plan"),
    ("repro/core/plan", None, "plan"),
    ("repro/core/placement", None, "plan"),
    ("repro/core/costmodels/", None, "plan"),
    ("repro/core/runtime/", None, "plan"),
    ("repro/analysis/", None, "analysis"),
)

#: component a stack falls into when no rule matched any frame
OTHER = "other"


def _normalize(filename: str) -> str:
    return filename.replace("\\", "/")


def _frame_matches(
    filename: str, function: str, rules: Sequence[ComponentRule]
) -> Optional[str]:
    for fragment, func, component in rules:
        if fragment in filename and (func is None or func == function):
            return component
    return None


def _component_of(
    stack: Sequence[Tuple[str, str]], rules: Sequence[ComponentRule]
) -> str:
    """Attribute one stack (root→leaf ``(filename, function)`` pairs)."""
    for filename, function in reversed(stack):
        component = _frame_matches(_normalize(filename), function, rules)
        if component is not None:
            return component
    return OTHER


def _short(filename: str) -> str:
    """Readable frame path: from the ``repro/`` package root when
    present, basename otherwise; synthetic names pass through."""
    if filename.startswith("<"):
        return filename
    normalized = _normalize(filename)
    marker = normalized.rfind("/repro/")
    if marker >= 0:
        return normalized[marker + 1:]
    return normalized.rsplit("/", 1)[-1]


class SamplingProfiler:
    """Background ``sys._current_frames()`` sampler.

    Thread-safe aggregation: stacks keyed by their frame-label tuple
    (root→leaf) with a sample count each, plus a per-component sample
    count.  ``thread_ids`` restricts capture to the given threads (the
    attribution benchmark pins it to the publishing thread so wall
    time of *that path* is what gets attributed); by default every
    thread except the sampler's own is walked.
    """

    def __init__(
        self,
        *,
        interval: float = DEFAULT_INTERVAL,
        rules: Sequence[ComponentRule] = DEFAULT_COMPONENT_RULES,
        host: Optional[str] = None,
        max_stacks: int = 10_000,
        thread_ids: Optional[Iterable[int]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if max_stacks <= 0:
            raise ValueError(f"max_stacks must be positive, got {max_stacks}")
        self.interval = interval
        self.rules = tuple(rules)
        self.host = host
        self.max_stacks = max_stacks
        self.thread_ids: Optional[Set[int]] = (
            set(thread_ids) if thread_ids is not None else None
        )
        #: samples actually aggregated (one per captured thread-stack)
        self.samples = 0
        #: sampling passes the background thread has run
        self.passes = 0
        #: seconds this profiler spent inside its own sampling passes —
        #: the same self-accounting idiom as ``Tracer.overhead_seconds``
        self.self_seconds = 0.0
        #: stacks dropped into the overflow bucket once ``max_stacks``
        #: distinct stacks exist
        self.truncated = 0
        self._stacks: Dict[Tuple[str, ...], int] = {}
        self._stack_component: Dict[Tuple[str, ...], str] = {}
        self.components: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.started_at: Optional[float] = None
        self.wall_seconds = 0.0

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Begin sampling on a daemon thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 2.0) -> "SamplingProfiler":
        """Stop sampling and join the sampler thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout)
        self._thread = None
        if self.started_at is not None:
            self.wall_seconds += time.perf_counter() - self.started_at
            self.started_at = None
        return self

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            t0 = time.perf_counter()
            self.sample_once(exclude={own})
            self.self_seconds += time.perf_counter() - t0

    # -- capture ---------------------------------------------------------------

    def sample_once(self, *, exclude: Optional[Set[int]] = None) -> int:
        """Take one sampling pass; returns stacks captured.

        Split out of the loop so tests (and synchronous callers) can
        drive the sampler without the thread.
        """
        frames = sys._current_frames()
        captured = 0
        only = self.thread_ids
        for tid, frame in frames.items():
            if exclude is not None and tid in exclude:
                continue
            if only is not None and tid not in only:
                continue
            stack: List[Tuple[str, str]] = []
            depth = 0
            while frame is not None and depth < _MAX_DEPTH:
                code = frame.f_code
                stack.append((code.co_filename, code.co_name))
                frame = frame.f_back
                depth += 1
            stack.reverse()  # root→leaf
            self.ingest(stack)
            captured += 1
        self.passes += 1
        return captured

    def ingest(
        self, stack: Sequence[Tuple[str, str]], count: int = 1
    ) -> None:
        """Aggregate one root→leaf stack of ``(filename, function)``.

        Public so tests can feed synthetic stacks and so merges can
        replay dumped ones.
        """
        key = tuple(
            f"{_short(filename)}:{function}" for filename, function in stack
        )
        with self._lock:
            component = self._stack_component.get(key)
            if component is None:
                component = _component_of(stack, self.rules)
                if (
                    key not in self._stacks
                    and len(self._stacks) >= self.max_stacks
                ):
                    self.truncated += count
                    key = ("<truncated>",)
                self._stack_component[key] = component
            self._stacks[key] = self._stacks.get(key, 0) + count
            self.components[component] = (
                self.components.get(component, 0) + count
            )
            self.samples += count

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable dump (rides in ``Observability.to_dict``)."""
        with self._lock:
            stacks = [
                {
                    "frames": list(key),
                    "count": count,
                    "component": self._stack_component.get(key, OTHER),
                }
                for key, count in sorted(
                    self._stacks.items(),
                    key=lambda item: (-item[1], item[0]),
                )
            ]
            components = dict(self.components)
            samples = self.samples
        wall = self.wall_seconds
        if self.started_at is not None:
            wall += time.perf_counter() - self.started_at
        return {
            "host": self.host,
            "interval": self.interval,
            "samples": samples,
            "passes": self.passes,
            "self_seconds": self.self_seconds,
            "wall_seconds": wall,
            "truncated": self.truncated,
            "running": self.running,
            "components": components,
            "stacks": stacks,
        }

    def collapsed(self) -> str:
        return collapsed_from_dump(self.to_dict())

    def speedscope(self, name: str = "repro profile") -> dict:
        return speedscope_from_dump(self.to_dict(), name=name)


# -- dump-level helpers (work on to_dict() output and on merges) ------------


def collapsed_from_dump(dump: dict) -> str:
    """Collapsed-stack text: one ``frame;frame;... count`` line per
    stack, heaviest first (Brendan Gregg flamegraph input format)."""
    lines = [
        f"{';'.join(stack['frames'])} {stack['count']}"
        for stack in dump.get("stacks", [])
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_from_dump(dump: dict, *, name: str = "repro profile") -> dict:
    """Speedscope ``sampled`` profile from a dump (or merged dump)."""
    frame_index: Dict[str, int] = {}
    frames: List[dict] = []
    samples: List[List[int]] = []
    weights: List[float] = []
    for stack in dump.get("stacks", []):
        indices: List[int] = []
        for label in stack["frames"]:
            idx = frame_index.get(label)
            if idx is None:
                idx = len(frames)
                frame_index[label] = idx
                frames.append({"name": label})
            indices.append(idx)
        samples.append(indices)
        weights.append(float(stack["count"]))
    total = float(sum(weights))
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro.obs.prof",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def component_table(dump: dict) -> List[dict]:
    """Per-component rows sorted by share: ``{component, samples,
    share}`` — ``share`` of all attributed samples (0.0 when empty)."""
    components = dump.get("components") or {}
    total = sum(components.values())
    return [
        {
            "component": component,
            "samples": count,
            "share": (count / total) if total else 0.0,
        }
        for component, count in sorted(
            components.items(), key=lambda item: (-item[1], item[0])
        )
    ]


def merge_profile_dumps(dumps: List[dict]) -> dict:
    """Fold per-process profile dumps into one.

    Stacks merge by frame tuple, components and counters sum; hosts
    are collected in input order.  ``interval`` is the first dump's
    (liveexp launches every role with the same rate).
    """
    stacks: Dict[Tuple[str, ...], dict] = {}
    components: Dict[str, int] = {}
    hosts: List[str] = []
    samples = 0
    passes = 0
    self_seconds = 0.0
    truncated = 0
    interval: Optional[float] = None
    for dump in dumps:
        if not dump:
            continue
        host = dump.get("host")
        if host is not None:
            hosts.append(host)
        if interval is None:
            interval = dump.get("interval")
        samples += int(dump.get("samples", 0))
        passes += int(dump.get("passes", 0))
        self_seconds += float(dump.get("self_seconds", 0.0))
        truncated += int(dump.get("truncated", 0))
        for component, count in (dump.get("components") or {}).items():
            components[component] = components.get(component, 0) + count
        for stack in dump.get("stacks", []):
            key = tuple(stack["frames"])
            entry = stacks.get(key)
            if entry is None:
                stacks[key] = {
                    "frames": list(key),
                    "count": stack["count"],
                    "component": stack.get("component", OTHER),
                }
            else:
                entry["count"] += stack["count"]
    return {
        "hosts": hosts,
        "interval": interval,
        "samples": samples,
        "passes": passes,
        "self_seconds": self_seconds,
        "truncated": truncated,
        "components": components,
        "stacks": sorted(
            stacks.values(),
            key=lambda entry: (-entry["count"], entry["frames"]),
        ),
    }
