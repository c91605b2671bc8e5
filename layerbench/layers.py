"""Per-layer CPU accounting for the traced run.

The program is not instrumented for this: the benchmark wraps the
public entry point of each layer from the outside, in the role
process, and charges every wrapped call its *self* time — the call's
``thread_time`` minus the wrapped calls nested inside it — to the
layer the entry point belongs to.  Threads keep separate stacks and
totals, so a background thread's work never lands in a caller-thread
layer, and the remainder of each thread's CPU stays measurable.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from typing import Callable, Dict, List, Tuple

#: ProfilingUnit / RemoteProfilingProxy methods: the paper's per-PSE
#: runtime profiling
_PROFILING_METHODS = (
    "record_message",
    "record_edge_observation",
    "record_sender_rate",
    "record_receiver_rate",
    "record_mod_total",
    "record_demod_total",
    "record_local_completion",
    "flush",
)


class _ThreadBook:
    __slots__ = ("ident", "stack", "self_time", "calls", "top")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        #: per open wrapped call: seconds its wrapped children took
        self.stack: List[float] = []
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: seconds spent inside outermost wrapped calls on this thread
        self.top = 0.0


class LayerClock:
    """Self-time accounting over wrapped calls, one book per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._books: List[_ThreadBook] = []
        self._lock = threading.Lock()

    def _book(self) -> _ThreadBook:
        book = getattr(self._local, "book", None)
        if book is None:
            book = self._local.book = _ThreadBook(threading.get_ident())
            with self._lock:
                self._books.append(book)
        return book

    def _close(self, book: _ThreadBook, layer: str, elapsed: float) -> None:
        child = book.stack.pop()
        book.self_time[layer] = book.self_time.get(layer, 0.0) + elapsed - child
        book.calls[layer] = book.calls.get(layer, 0) + 1
        if book.stack:
            book.stack[-1] += elapsed
        else:
            book.top += elapsed

    def wrap(self, layer: str, fn: Callable) -> Callable:
        clock = time.thread_time
        book_of = self._book
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            book = book_of()
            book.stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(book, layer, clock() - started)

        return wrapper

    def wrap_async(self, layer: str, fn: Callable) -> Callable:
        """Wrap a handler that may return a coroutine.

        CPU that other tasks burn while the handler is suspended counts
        as the handler's; the receiver runs one connection, so that is
        the telemetry push at most.
        """
        clock = time.thread_time
        book_of = self._book
        close = self._close

        async def wrapper(*args, **kwargs):
            book = book_of()
            book.stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
                if asyncio.iscoroutine(result):
                    result = await result
                return result
            finally:
                close(book, layer, clock() - started)

        return wrapper

    def snapshot(self) -> Dict[str, object]:
        """Totals so far: per-layer self seconds and calls, and per
        thread (by ident) its calls and the seconds inside its
        outermost wrapped calls."""
        self_time: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        threads: Dict[str, Dict[str, object]] = {}
        with self._lock:
            books = list(self._books)
        for book in books:
            for layer, seconds in list(book.self_time.items()):
                self_time[layer] = self_time.get(layer, 0.0) + seconds
            for layer, n in list(book.calls.items()):
                calls[layer] = calls.get(layer, 0) + n
            threads[str(book.ident)] = {
                "top": book.top,
                "calls": dict(book.calls),
            }
        return {"self": self_time, "calls": calls, "threads": threads}


def _wrap_profiling(clock: LayerClock, unit) -> None:
    for name in _PROFILING_METHODS:
        if hasattr(unit, name):
            setattr(unit, name, clock.wrap("profiling.record", getattr(unit, name)))


def install_publisher(clock: LayerClock, endpoint, transport) -> Callable:
    """Wrap the publisher's layers; returns the wrapped ``publish``.

    * ``modulate`` — ``Modulator.process`` on a sender; the shared run
      and forks (``Interpreter.run`` / ``resume``) on a broker, which
      drives the interpreter itself instead of through a Modulator.
    * ``profiling`` — ``measure_size`` and the profiling proxies.
    * ``encode`` — ``NetEnvelopeCodec.encode`` (serialization + framing).
    * ``enqueue`` — ``TcpTransport.send`` self time.
    * ``publish_other`` — ``publish`` self time.
    """
    import repro.core.partitioned as partitioned_mod
    import repro.net.broker as broker_mod

    partitioned_mod.measure_size = clock.wrap("profiling.size", partitioned_mod.measure_size)
    broker_mod.measure_size = clock.wrap("profiling.size", broker_mod.measure_size)
    modulator = getattr(endpoint, "modulator", None)
    if modulator is not None:
        modulator.process = clock.wrap("modulate", modulator.process)
        _wrap_profiling(clock, endpoint.proxy)
    else:
        interpreter = endpoint.partitioned.interpreter
        interpreter.run = clock.wrap("modulate", interpreter.run)
        interpreter.resume = clock.wrap("modulate", interpreter.resume)
        for sub in endpoint.subscribers:
            _wrap_profiling(clock, sub.proxy)
    transport.codec.encode = clock.wrap("encode", transport.codec.encode)
    transport.send = clock.wrap("enqueue", transport.send)
    return clock.wrap("publish_other", endpoint.publish)


def install_receiver(clock: LayerClock, endpoint) -> None:
    """Wrap the receiver's layers.

    * ``read`` — ``FrameDecoder.feed`` (class-wide: the server makes one
      decoder per connection).
    * ``decode`` — ``NetEnvelopeCodec.decode``.
    * ``demodulate`` — ``Demodulator.process`` self time (the resumed
      handler, i.e. the ``ir`` backend, plus ``core.partitioned``).
    * ``profiling`` — ``measure_size`` and ``ProfilingUnit.record_*``.
    * ``reconfig`` — ``ReconfigurationUnit.consider``.
    * ``handle_other`` — the server handler's self time: dedupe,
      latency bookkeeping, plan shipping, observability.
    """
    import repro.core.partitioned as partitioned_mod
    from repro.net.framing import FrameDecoder

    partitioned_mod.measure_size = clock.wrap("profiling.size", partitioned_mod.measure_size)
    FrameDecoder.feed = clock.wrap("read", FrameDecoder.feed)
    server = endpoint.server
    server.codec.decode = clock.wrap("decode", server.codec.decode)
    endpoint.demodulator.process = clock.wrap("demodulate", endpoint.demodulator.process)
    _wrap_profiling(clock, endpoint.profiling)
    endpoint.reconfig.consider = clock.wrap("reconfig", endpoint.reconfig.consider)
    server.handler = clock.wrap_async("handle_other", server.handler)


def thread_cpu() -> Dict[str, Tuple[str, float]]:
    """``(name, CPU seconds)`` of every live thread, by ident."""
    out: Dict[str, Tuple[str, float]] = {}
    for thread in threading.enumerate():
        ident = thread.ident
        if ident is None:
            continue
        try:
            cpu = time.clock_gettime(time.pthread_getcpuclockid(ident))
        except (OSError, ValueError):
            continue  # the thread ended between enumerate() and here
        out[str(ident)] = (thread.name, cpu)
    return out
