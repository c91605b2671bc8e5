"""The publisher: one modulator, N heterogeneous subscribers.

The paper's host (JECho) is a multi-client event system, and each
subscriber's split is one entry in the publisher's per-client state.
This module is the only publisher in :mod:`repro.net`: a
:class:`NetBrokerEndpoint` publishes every event to many subscribers,
each of which runs its **own active PSE** chosen from the same
ConvexCut analysis — a slow peer converges to a receiver-light split, a
fast peer to a sender-light one, and both are fed from a single shared
modulation.  :class:`NetSenderEndpoint`, the classic two-process
sender, is this broker with exactly one subscriber.

* **Deepest common split** — per message the broker runs the handler
  once under the *union* of all subscriber plans
  (:func:`~repro.core.plan.union_plan`), so execution stops at the
  earliest edge any peer wants.  Subscribers whose plan splits there
  ship the shared continuation as-is; subscribers wanting a deeper
  split *fork*: the shared continuation is cloned through the codec
  (serialize/deserialize, so fork state never aliases shipped state)
  and resumed under that peer's own flag table until it splits again.
* **Per-peer plan cache** — :class:`PlanRuntimeCache` memoizes
  ``PlanRuntime`` flag tables keyed on (handler, active PSE set, plan
  version), so per-message hook lookup is a dict hit rather than an
  O(#PSE) rebuild.
* **Per-subscriber bounded queues** — each subscriber's
  :class:`~repro.net.tcp.TcpPeer` gets its own ``queue_limit``;
  drop-oldest load leveling sheds a wedged peer's backlog without
  shrinking anyone else's.
* **Per-peer control plane** — every subscriber's receiver owns its
  authoritative Profiling/Reconfiguration Units and ships PLAN frames
  back on its own connection; the broker applies them per peer with
  version idempotency and rebuilds the union hook lazily.
* **Per-peer observability** — labeled gauges/counters
  (``broker.queue_depth{peer="..."}`` etc.) flow through the existing
  OpenMetrics exposition, and fork spans join the shared ``modulate``
  span so a merged trace shows one modulation fanning out to N
  demodulations.

Rules of the single publish path (each holds per subscriber):

1. **Send failure** — a continuation whose send raises
   :class:`~repro.errors.TransportError` completes locally (counted in
   ``absorbed``) and feeds that peer's breaker; the other subscribers
   still get the message.  So ``shipped + completed_locally + elided ==
   published`` holds for every subscriber whatever the network does.
2. **FEEDBACK frames** — every ``feedback_period`` publishes each
   subscriber's buffered profiling ships with the context of a
   ``feedback.flush`` span, so the receiver's ingest joins its trace.
3. **Proxy observability** — every subscriber's
   :class:`~repro.core.runtime.feedback.RemoteProfilingProxy` gets the
   broker's ``obs`` (``feedback.*`` counters, ``FeedbackSent``).
4. **Retraction** — each subscriber has a circuit breaker, tripped by
   its health machine going wedged or by failures.  A trip starts a
   bounded drain-then-swap: the plan switches to sender-heavy once the
   peer's outbound queue drained (or ``drain_timeout`` passed);
   meanwhile the open breaker absorbs every publish.  With an empty
   queue the swap is immediate.  A close re-splits.
5. **Noop-resume elision** — a continuation whose receiver tail does
   nothing is not shipped; it counts in ``elided`` and as a local
   completion in the profiling stream.
6. **Deferred plans** — a PLAN frame arriving while the peer is
   retracting or retracted is parked; newest version wins, and among
   equal versions (unversioned legacy frames) the later arrival.  The
   parked plan is applied on re-split in preference to the saved one:
   it passed the idempotency check, so it is newer.
7. **Resilience dump** — :meth:`NetBrokerEndpoint.resilience_dump`
   reports breaker and retraction state per peer.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.continuation import ContinuationMessage
from repro.core.partitioned import PartitionedMethod
from repro.core.plan import (
    PartitioningPlan,
    PlanRuntime,
    receiver_heavy_plan,
    sender_heavy_plan,
    union_plan,
)
from repro.core.runtime.feedback import RemoteProfilingProxy
from repro.errors import TransportError
from repro.ir.interpreter import CycleMeter, Edge
from repro.jecho.events import (
    ContinuationEnvelope,
    FeedbackEnvelope,
    PlanEnvelope,
)
from repro.net.framing import FEATURE_ELECTION, Bye, Election, Telemetry
from repro.net.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    BreakerConfig,
    Bulkhead,
    CircuitBreaker,
)
from repro.net.tcp import TcpPeer, TcpTransport
from repro.obs.health import (
    WEDGED,
    HealthConfig,
    HealthMonitor,
    PeerHealth,
)
from repro.obs.trace import ContinuationShipped
from repro.serialization import measure_size

__all__ = [
    "PlanRuntimeCache",
    "BrokerSubscriber",
    "NetBrokerEndpoint",
    "NetSenderEndpoint",
]

#: relative change below which a recalibrated rate is considered noise
RATE_HYSTERESIS = 0.25


def _adopt_rate(current: float, fresh: Optional[float]) -> float:
    """Adopt a recalibrated seconds-per-cycle only on a material change.

    Successive timed calibrations of an unchanged host land within
    timer noise of each other, but adopting every measurement rescales
    all subsequently profiled sender costs — after each plan transition
    the cost model shifts a little, which can flap a knife-edge min-cut
    on every recompute.  A fresh rate within :data:`RATE_HYSTERESIS` of
    the current one is "same host, same speed" and is discarded; a
    material change (the actual staleness the post-transition refresh
    guards against) is adopted as measured.
    """
    if fresh is None or fresh <= 0.0:
        return current
    if abs(fresh - current) <= RATE_HYSTERESIS * current:
        return current
    return fresh


class PlanRuntimeCache:
    """Memoized :class:`~repro.core.plan.PlanRuntime` flag tables.

    Applying a plan costs O(#PSE) flag writes; a broker consulting one
    runtime per subscriber per message would pay that on every publish.
    Runtimes are instead cached keyed on ``(handler name, active edge
    set, plan version)`` — the version rides along so a re-shipped plan
    under a fresh idempotency key reads as a distinct (if equal-valued)
    entry, mirroring how the control plane names plans on the wire.
    LRU-bounded: fan-outs cycle through a handful of live plans, so a
    small cache holds the working set.
    """

    def __init__(self, partitioned: PartitionedMethod, maxsize: int = 64):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.partitioned = partitioned
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple, PlanRuntime]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def runtime(
        self, plan: PartitioningPlan, version: int = 0
    ) -> PlanRuntime:
        key = (
            self.partitioned.function.name,
            tuple(sorted(plan.active)),
            version,
        )
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        runtime = PlanRuntime(self.partitioned.cut)
        runtime.apply_plan(plan)
        self._entries[key] = runtime
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        self.misses += 1
        return runtime


class BrokerSubscriber:
    """One fan-out destination: peer, plan state, profiling proxy.

    The subscriber's *receiver* owns the authoritative adaptation loop;
    this record is the broker-side shadow of it — which plan the peer
    is believed to run (with its idempotency version), the sender-side
    profiling buffered for it, and per-peer delivery counters.
    """

    def __init__(
        self,
        name: str,
        peer: TcpPeer,
        subscription_id: int,
        plan: PartitioningPlan,
        proxy: RemoteProfilingProxy,
    ) -> None:
        self.name = name
        self.peer = peer
        self.subscription_id = subscription_id
        self.plan = plan
        self.proxy = proxy
        #: highest PLAN version applied for this peer (idempotency)
        self.plan_version_applied = 0
        self.plan_updates_applied = 0
        self.plan_duplicates_ignored = 0
        self.plans_seen: List[str] = []
        self.shipped = 0
        self.shared_ships = 0
        self.forks = 0
        self.elided = 0
        self.completed_locally = 0
        self.feedback_flushes = 0
        #: TELEMETRY frames received from this peer's receiver
        self.telemetry_frames = 0
        #: latest TELEMETRY frame's metadata + payload (broker clock)
        self.last_telemetry: Optional[Dict[str, object]] = None
        #: health state machine, bound by the broker's HealthMonitor
        self.health: Optional[PeerHealth] = None
        #: circuit breaker + bulkhead, bound by the broker's resilience
        #: plane (None when the broker was built with resilience off)
        self.breaker: Optional[CircuitBreaker] = None
        self.bulkhead: Optional[Bulkhead] = None
        #: publishes whose tail ran fully broker-side because the
        #: breaker was open (the live half of a retraction) or the send
        #: failed; each one is also counted in ``completed_locally``
        self.absorbed = 0
        #: ships shed because bulkhead admission was refused
        self.ships_suppressed = 0
        #: retraction state: ``retracting`` while the outbound queue
        #: drains, ``retracted`` once the plan has switched sender-side
        self.retracting = False
        self.retracted = False
        self.retraction_deadline: Optional[float] = None
        self.retractions = 0
        self.resplits = 0
        #: the split to restore on recovery
        self.saved_plan: Optional[PartitioningPlan] = None
        #: newest PLAN frame deferred while retracted (kept, not lost)
        self.pending_plan: Optional[PlanEnvelope] = None
        self.plans_deferred = 0
        #: set by finish(); a disconnect after the goodbye drained is an
        #: orderly exit, not a fault
        self.bye_sent = False
        self._drift_reported = 0
        self._last_rtt_fed: Optional[float] = None
        self._send_timeouts_fed = 0
        self._g_breaker = None
        # labeled per-peer instruments, bound by the broker when it has obs
        self._c_shipped = None
        self._c_forks = None
        self._c_plan_updates = None
        self._g_queue = None
        self._g_dropped = None
        self._g_rtt = None
        self._g_connected = None

    @property
    def plan_edges(self) -> Tuple[Edge, ...]:
        return tuple(sorted(self.plan.active))

    def refresh_gauges(self) -> None:
        """Push the peer's transport health into the labeled gauges."""
        if self._g_queue is None:
            return
        self._g_queue.set(self.peer.queued)
        self._g_dropped.set(self.peer.dropped_frames)
        self._g_connected.set(1.0 if self.peer.connected else 0.0)
        if self.peer.last_rtt is not None:
            self._g_rtt.set(self.peer.last_rtt)

    def resilience_dict(self) -> Dict[str, object]:
        """Breaker, bulkhead and retraction state of this peer."""
        return {
            "breaker": (
                self.breaker.to_dict() if self.breaker is not None else None
            ),
            "bulkhead": (
                self.bulkhead.to_dict() if self.bulkhead is not None else None
            ),
            "absorbed": self.absorbed,
            "ships_suppressed": self.ships_suppressed,
            "retracting": self.retracting,
            "retracted": self.retracted,
            "retractions": self.retractions,
            "resplits": self.resplits,
            "plans_deferred": self.plans_deferred,
        }

    def transport_dict(self) -> Dict[str, object]:
        """The peer connection's counters."""
        peer = self.peer
        return {
            "queued": peer.queued,
            "connections": peer.connections,
            "reconnects": peer.reconnects,
            "dropped_frames": peer.dropped_frames,
            "frames_sent": peer.frames_sent,
            "frame_bytes_sent": peer.frame_bytes_sent,
            "heartbeats_sent": peer.heartbeats_sent,
            "heartbeats_echoed": peer.heartbeats_seen,
            "send_timeouts": peer.send_timeouts,
            "last_rtt": peer.last_rtt,
            "batching_negotiated": peer._batch_ok,
            "telemetry_negotiated": peer.telemetry_negotiated,
            "telemetry_frames_seen": peer.telemetry_frames_seen,
            "batches_sent": peer.batches_sent,
            "batched_frames_sent": peer.batched_frames_sent,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "subscription_id": self.subscription_id,
            "plan_edges": [list(e) for e in self.plan_edges],
            "plan_updates_applied": self.plan_updates_applied,
            "plan_duplicates_ignored": self.plan_duplicates_ignored,
            "plans_seen": list(self.plans_seen),
            "shipped": self.shipped,
            "shared_ships": self.shared_ships,
            "forks": self.forks,
            "elided": self.elided,
            "completed_locally": self.completed_locally,
            "feedback_flushes": self.feedback_flushes,
            "telemetry_frames": self.telemetry_frames,
            "telemetry_last_seq": (
                self.last_telemetry.get("seq")
                if self.last_telemetry is not None
                else None
            ),
            "health": (
                self.health.to_dict() if self.health is not None else None
            ),
            **self.resilience_dict(),
            "transport": self.transport_dict(),
        }


class NetBrokerEndpoint:
    """One modulator publishing to N subscribers with per-peer PSEs.

    ``publish`` runs on the caller's thread; inbound PLAN frames arrive
    on the transport's loop thread and are routed to the subscriber
    whose connection carried them — one lock serializes both around the
    per-peer plan table and the shared-modulation hook it derives.
    """

    def __init__(
        self,
        partitioned: PartitionedMethod,
        transport: TcpTransport,
        *,
        plan: Optional[PartitioningPlan] = None,
        sample_period: int = 1,
        feedback_period: int = 8,
        rate_override: Optional[float] = None,
        recalibrate=None,
        queue_limit: Optional[int] = None,
        obs=None,
        health_config: Optional[HealthConfig] = None,
        health_interval: float = 0.0,
        breaker_config: Optional[BreakerConfig] = None,
        resilience: bool = True,
    ) -> None:
        """``rate_override`` records a *calibrated* seconds-per-cycle
        (see :func:`repro.net.live._calibrate`) instead of the raw
        per-message wall clock, which fixed per-call overhead dominates
        when the modulator's share of work is tiny.  A calibration holds
        only for the split it was taken under, so every plan change
        marks it stale and the next publish refreshes it: via
        ``recalibrate`` (a callable returning seconds-per-cycle) when
        given, else :meth:`_recalibrate_against`."""
        if feedback_period < 1:
            raise ValueError("feedback_period must be >= 1")
        if health_interval < 0:
            raise ValueError("health_interval must be >= 0")
        self.partitioned = partitioned
        self.transport = transport
        self.default_plan = plan or receiver_heavy_plan(partitioned.cut)
        self.sample_period = sample_period
        self.feedback_period = feedback_period
        self.rate_override = rate_override
        self.recalibrate = recalibrate
        self.recalibrations = 0
        self._rate_stale = False
        #: default per-subscriber outbound bound (None → transport's)
        self.queue_limit = queue_limit
        self.obs = obs
        self.cache = PlanRuntimeCache(partitioned)
        self.subscribers: List[BrokerSubscriber] = []
        self._by_peer: Dict[TcpPeer, BrokerSubscriber] = {}
        self.lock = threading.Lock()
        self.published = 0
        #: shared modulation executions — exactly one per publish, no
        #: matter how many subscribers (the deepest-common-split claim)
        self.shared_runs = 0
        self.shared_cycles_total = 0.0
        self.fork_cycles_total = 0.0
        self.forks = 0
        self.plan_updates_applied = 0
        self.exposer = None
        # Hot-path precomputation, mirroring Modulator: the PSE edge set
        # and per-edge INTER name tuples for size measurement.
        pses = partitioned.cut.pses
        self._pse_edges = frozenset(pses)
        self._inter_names = {
            e: tuple(v.name for v in p.inter) for e, p in pses.items()
        }
        #: lazily rebuilt union-of-plans hook for the shared run
        self._union_runtime: Optional[PlanRuntime] = None
        self._union_dirty = True
        #: fleet health — one PeerHealth per subscriber, fed from the
        #: transport on every publish and (optionally) by a background
        #: evaluator so staleness keeps ticking while the publisher is
        #: quiet (the drain phase is exactly when wedges surface).
        self.health = HealthMonitor(obs=obs, config=health_config)
        self.health_interval = health_interval
        self.telemetry_frames = 0
        #: resilience plane: per-subscriber breakers fed by health
        #: transitions (a wedged peer trips) and send failures; on trip
        #: the peer's split is retracted fully sender-side, on recovery
        #: it is re-split.  A closed breaker costs the publish path one
        #: attribute check, so the plane defaults on.
        self.resilience = resilience
        self.breaker_config = (
            breaker_config if breaker_config is not None else BreakerConfig()
        )
        self._retraction_plan = sender_heavy_plan(partitioned.cut)
        #: this process's copy of the receiver tail, built on first use
        #: to complete continuations that cannot be shipped
        self._local_demod = None
        self.retractions = 0
        self.resplits = 0
        #: the last receiver to announce coordinatorship via a relayed
        #: ELECTION frame (None when no election traffic has flowed)
        self.leader: Optional[str] = None
        self.leader_priority: Optional[int] = None
        self.election_frames = 0
        self.elections_relayed = 0
        self._by_name: Dict[str, BrokerSubscriber] = {}
        if resilience:
            self.health.add_listener(self._on_health_transition)
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        if obs is not None:
            metrics = obs.metrics
            self._c_published = metrics.counter("broker.published")
            self._c_forks = metrics.counter("broker.forks")
            self._c_plan_updates = metrics.counter("broker.plan_updates")
            self._c_telemetry = metrics.counter("broker.telemetry_frames")
            self._c_retractions = metrics.counter("broker.retractions")
            self._c_resplits = metrics.counter("broker.resplits")
            self._c_absorbed = metrics.counter("broker.absorbed")
            self._c_suppressed = metrics.counter("broker.ships_suppressed")
            self._c_elections = metrics.counter("broker.election_frames")
            # Exact publish-path phase timings, cross-checkable against
            # the sampling profiler's attribution (the encode/enqueue
            # phases live in TcpTransport._deliver, same metric family).
            self._h_phase_modulate = metrics.histogram(
                'net.publish.phase_seconds{phase="modulate"}'
            )
            self._h_phase_fork = metrics.histogram(
                'net.publish.phase_seconds{phase="fork"}'
            )
            self._h_phase_ship = metrics.histogram(
                'net.publish.phase_seconds{phase="ship"}'
            )
            obs.add_section("fleet", self.health.to_dict)
            obs.add_section("resilience", self.resilience_dump)
        else:
            self._c_published = None
            self._c_forks = None
            self._c_plan_updates = None
            self._c_telemetry = None
            self._c_retractions = None
            self._c_resplits = None
            self._c_absorbed = None
            self._c_suppressed = None
            self._c_elections = None
            self._h_phase_modulate = None
            self._h_phase_fork = None
            self._h_phase_ship = None
        transport.inbound_handler = self._on_inbound
        if health_interval > 0:
            self._health_thread = threading.Thread(
                target=self._health_loop,
                name="broker-health",
                daemon=True,
            )
            self._health_thread.start()

    def _tracer(self):
        return self.obs.tracing if self.obs is not None else None

    # -- membership ------------------------------------------------------------

    def subscribe(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        plan: Optional[PartitioningPlan] = None,
        queue_limit: Optional[int] = None,
    ) -> BrokerSubscriber:
        """Add a fan-out destination; returns its subscriber record."""
        label = name or f"{host}:{port}"
        peer = self.transport.peer(
            host,
            port,
            name=label,
            queue_limit=(
                queue_limit if queue_limit is not None else self.queue_limit
            ),
        )
        return self._attach(peer, label, plan=plan)

    def _attach(
        self,
        peer: TcpPeer,
        label: str,
        *,
        plan: Optional[PartitioningPlan] = None,
        subscription_id: Optional[int] = None,
    ) -> BrokerSubscriber:
        with self.lock:
            if peer in self._by_peer:
                raise TransportError(
                    f"peer {label} is already subscribed"
                )
            sub = BrokerSubscriber(
                name=label,
                peer=peer,
                subscription_id=(
                    subscription_id
                    if subscription_id is not None
                    else len(self.subscribers) + 1
                ),
                plan=plan or self.default_plan,
                proxy=RemoteProfilingProxy(
                    self.partitioned.cut,
                    sample_period=self.sample_period,
                    obs=self.obs,
                ),
            )
            sub.health = self.health.peer(label)
            if self.resilience:
                sub.breaker = CircuitBreaker(
                    label,
                    self.breaker_config,
                    on_transition=self._on_breaker_transition,
                )
                if self.breaker_config.bulkhead_limit is not None:
                    sub.bulkhead = Bulkhead(
                        self.breaker_config.bulkhead_limit
                    )
            if self.obs is not None:
                metrics = self.obs.metrics
                sub._c_shipped = metrics.counter(
                    f'broker.shipped{{peer="{label}"}}'
                )
                sub._c_forks = metrics.counter(
                    f'broker.forks{{peer="{label}"}}'
                )
                sub._c_plan_updates = metrics.counter(
                    f'broker.plan_updates{{peer="{label}"}}'
                )
                sub._g_queue = metrics.gauge(
                    f'broker.queue_depth{{peer="{label}"}}'
                )
                sub._g_dropped = metrics.gauge(
                    f'broker.dropped_frames{{peer="{label}"}}'
                )
                sub._g_rtt = metrics.gauge(
                    f'broker.heartbeat_rtt{{peer="{label}"}}'
                )
                sub._g_connected = metrics.gauge(
                    f'broker.connected{{peer="{label}"}}'
                )
                if sub.breaker is not None:
                    sub._g_breaker = metrics.gauge(
                        f'broker.breaker_state{{peer="{label}"}}'
                    )
                    sub._g_breaker.set(
                        BREAKER_STATE_CODES[sub.breaker.state]
                    )
            self.subscribers.append(sub)
            self._by_peer[peer] = sub
            self._by_name[label] = sub
            self._union_dirty = True
        return sub

    # -- shared modulation hook --------------------------------------------------

    def _union(self) -> PlanRuntime:
        """The deepest-common-split hook (lock held, lazily rebuilt)."""
        if self._union_dirty or self._union_runtime is None:
            merged = union_plan(
                (sub.plan for sub in self.subscribers), name="fanout-union"
            )
            self._union_runtime = self.cache.runtime(merged)
            self._union_dirty = False
        return self._union_runtime

    def _peer_runtime(self, sub: BrokerSubscriber) -> PlanRuntime:
        return self.cache.runtime(sub.plan, sub.plan_version_applied)

    def _measure_inter(self, edge: Edge, env: Dict[str, object]) -> float:
        payload = {
            name: env[name]
            for name in self._inter_names[edge]
            if name in env
        }
        return float(
            measure_size(
                payload,
                self.partitioned.serializer_registry,
                use_self_sizing=True,
            )
        )

    # -- publish (caller thread) -------------------------------------------------

    def publish(self, event: object) -> None:
        """Modulate once, ship shared or forked continuations to all."""
        with self.lock:
            subs = self.subscribers
            if not subs:
                raise TransportError("broker has no subscribers")
            if self._rate_stale:
                self._rate_stale = False
                if self.rate_override is not None:
                    fresh = (
                        self.recalibrate()
                        if self.recalibrate is not None
                        else self._recalibrate_against(event)
                    )
                    self.rate_override = _adopt_rate(
                        self.rate_override, fresh
                    )
                    self.recalibrations += 1
            for sub in subs:
                sub.proxy.record_message()
            union_rt = self._union()
            tracer = self._tracer()
            span = None
            run_ctx: Optional[Tuple[int, int]] = None
            if tracer is not None:
                trace_id = tracer.start_trace()
                if trace_id is not None:
                    span = tracer.begin("modulate", trace_id=trace_id)
                    run_ctx = (trace_id, span.span_id)
            gate = subs[0].proxy  # all proxies share the sampling cadence
            meter = CycleMeter()
            observations: List[Tuple[Edge, float, Optional[float]]] = []

            def observer(edge: Edge, env: Dict[str, object]) -> None:
                size: Optional[float] = None
                if gate.should_measure(edge):
                    size = self._measure_inter(edge, env)
                observations.append((edge, meter.cycles, size))

            started = time.perf_counter()
            outcome = self.partitioned.interpreter.run(
                self.partitioned.function,
                (event,),
                split_hook=union_rt,
                edge_observer=observer,
                observe_edges=self._pse_edges,
                meter=meter,
                trace_ctx=run_ctx,
            )
            shared_elapsed = time.perf_counter() - started
            if self._h_phase_modulate is not None:
                self._h_phase_modulate.observe(shared_elapsed)
            shared_cycles = meter.cycles
            self.published += 1
            self.shared_runs += 1
            self.shared_cycles_total += shared_cycles
            if self._c_published is not None:
                self._c_published.inc()

            if outcome.returned:
                # No forced edge on this path: the whole handler ran at
                # the broker; every subscriber "completed locally".
                for sub in subs:
                    self._replay_shared(sub, observations, split_edge=None)
                    sub.proxy.record_local_completion()
                    sub.completed_locally += 1
                    self._record_rate(sub, shared_cycles, shared_elapsed)
                self._after_publish(span, outcome="completed")
                return

            shared_edge = outcome.continuation.edge
            shared_msg = self._to_message(outcome.continuation)
            # Shallow subscribers first: each send encodes the frame on
            # this thread, so shipped bytes are immune to any mutation a
            # later fork's execution performs on shared values.
            deep: List[BrokerSubscriber] = []
            absorbed: List[BrokerSubscriber] = []
            for sub in subs:
                br = sub.breaker
                if (
                    br is not None
                    and not br.is_closed
                    and not br.allow()
                ):
                    # Open breaker (or exhausted half-open probe
                    # budget): this message's tail runs broker-side —
                    # the live half of the retraction, active from the
                    # instant of the trip while the plan swap awaits
                    # the queue drain.
                    absorbed.append(sub)
                    continue
                if shared_edge in self._peer_runtime(sub).split_edge_set():
                    self._replay_shared(
                        sub, observations, split_edge=shared_edge
                    )
                    self._ship(
                        sub, shared_msg, shared_cycles, shared=True
                    )
                    self._record_rate(sub, shared_cycles, shared_elapsed)
                else:
                    deep.append(sub)
            for sub in deep:
                self._replay_shared(sub, observations, split_edge=None)
                self._fork(
                    sub,
                    shared_msg,
                    shared_cycles,
                    shared_elapsed,
                    run_ctx,
                )
            for sub in absorbed:
                sub.absorbed += 1
                if self._c_absorbed is not None:
                    self._c_absorbed.inc()
                self._replay_shared(sub, observations, split_edge=None)
                self._fork(
                    sub,
                    shared_msg,
                    shared_cycles,
                    shared_elapsed,
                    run_ctx,
                    runtime=self.cache.runtime(self._retraction_plan),
                )
            self._after_publish(
                span,
                outcome="split",
                edge=shared_edge,
                cycles=shared_cycles,
                forks=len(deep),
            )

    def _to_message(self, continuation) -> ContinuationMessage:
        pse = self.partitioned.cut.pses.get(continuation.edge)
        pse_id = (
            pse.pse_id if pse is not None else f"forced{continuation.edge}"
        )
        return ContinuationMessage.from_continuation(continuation, pse_id)

    def _replay_shared(
        self,
        sub: BrokerSubscriber,
        observations: List[Tuple[Edge, float, Optional[float]]],
        *,
        split_edge: Optional[Edge],
    ) -> None:
        """Feed the shared run's edge observations into one peer's proxy.

        The work up to the deepest common split is identical for every
        subscriber, so each proxy sees the same records — only
        ``is_split`` differs (a deep subscriber traverses the shared
        edge without splitting there).
        """
        for edge, work_before, size in observations:
            sub.proxy.record_edge_observation(
                edge,
                data_size=size,
                work_before=work_before,
                is_split=(edge == split_edge),
            )

    def _fork(
        self,
        sub: BrokerSubscriber,
        shared_msg: ContinuationMessage,
        shared_cycles: float,
        shared_elapsed: float,
        run_ctx: Optional[Tuple[int, int]],
        *,
        runtime: Optional[PlanRuntime] = None,
    ) -> None:
        """Resume the shared continuation under *sub*'s deeper plan.

        The clone passes through the codec so the fork's environment
        shares no mutable state with the shared message or with other
        forks — exactly what the receiver would have deserialized had
        the wire carried it.  *runtime* overrides the subscriber's plan
        runtime — the absorb path passes the sender-heavy runtime so a
        tripped peer's tail runs to completion broker-side.
        """
        codec = self.partitioned.codec
        clone = codec.decode(codec.encode(shared_msg))
        tracer = self._tracer()
        fork_span = None
        fork_ctx: Optional[Tuple[int, int]] = None
        if tracer is not None and run_ctx is not None:
            fork_span = tracer.begin(
                "fork",
                trace_id=run_ctx[0],
                parent_id=run_ctx[1],
                attrs={"peer": sub.name},
            )
            fork_ctx = (run_ctx[0], fork_span.span_id)
        meter = CycleMeter()
        fork_obs: List[Tuple[Edge, float, Optional[float]]] = []

        def observer(edge: Edge, env: Dict[str, object]) -> None:
            size: Optional[float] = None
            if sub.proxy.should_measure(edge):
                size = self._measure_inter(edge, env)
            fork_obs.append((edge, meter.cycles, size))

        started = time.perf_counter()
        outcome = self.partitioned.interpreter.resume(
            self.partitioned.function,
            clone.to_continuation(),
            split_hook=(
                runtime if runtime is not None else self._peer_runtime(sub)
            ),
            edge_observer=observer,
            observe_edges=self._pse_edges,
            meter=meter,
            trace_ctx=fork_ctx,
        )
        elapsed = time.perf_counter() - started
        if self._h_phase_fork is not None:
            self._h_phase_fork.observe(elapsed)
        self.forks += 1
        self.fork_cycles_total += meter.cycles
        sub.forks += 1
        if self._c_forks is not None:
            self._c_forks.inc()
        if sub._c_forks is not None:
            sub._c_forks.inc()
        total_cycles = shared_cycles + meter.cycles
        split_edge = (
            outcome.continuation.edge if outcome.split else None
        )
        for edge, fork_work, size in fork_obs:
            sub.proxy.record_edge_observation(
                edge,
                data_size=size,
                work_before=shared_cycles + fork_work,
                is_split=(edge == split_edge),
            )
        if outcome.returned:
            # Possible only when the peer's path holds no forced edge
            # past the shared split; the work finished broker-side.
            sub.proxy.record_local_completion()
            sub.completed_locally += 1
        else:
            self._ship(sub, self._to_message(outcome.continuation),
                       total_cycles, shared=False)
        self._record_rate(
            sub, total_cycles, shared_elapsed + elapsed
        )
        if fork_span is not None:
            fork_span.attrs = {
                "peer": sub.name,
                "cycles": meter.cycles,
                "outcome": "return" if outcome.returned else "split",
            }
            tracer.end(fork_span)

    def _ship(
        self,
        sub: BrokerSubscriber,
        message: ContinuationMessage,
        total_cycles: float,
        *,
        shared: bool,
    ) -> None:
        """Send one continuation to one subscriber (lock held).

        A continuation that cannot go out completes here instead
        (:meth:`_complete_locally`): when the breaker is open, and when
        the send itself raises — which also feeds the breaker.  Either
        way the other subscribers are unaffected and nothing is lost.
        """
        pse = self.partitioned.cut.pses.get(message.edge)
        if pse is not None and pse.noop_resume and not message.variables:
            sub.proxy.record_local_completion()
            sub.elided += 1
            return
        br = sub.breaker
        if br is not None and br.state == BREAKER_OPEN:
            # Reachable only from the absorb fork: its sender-heavy
            # resume stopped at a forced edge, whose StopNode only the
            # receiver tail can run — this process's copy of it does.
            self._complete_locally(sub, message)
            return
        bh = sub.bulkhead
        if bh is not None and not bh.admit(sub.peer.queued):
            # Admission refused before paying for the encode: the
            # peer's outbound queue already holds `limit` frames, so
            # drop-oldest shedding was imminent anyway.
            sub.ships_suppressed += 1
            sub.proxy.record_local_completion()
            if self._c_suppressed is not None:
                self._c_suppressed.inc()
            flight = self._flight()
            if flight is not None:
                flight.record(
                    "breaker.suppress", peer=sub.name, reason="bulkhead full"
                )
            if br is not None:
                br.record_failure("bulkhead full")
            return
        ship_started = (
            time.perf_counter() if self._h_phase_ship is not None else None
        )
        size = float(self.partitioned.codec.size(message))
        envelope = ContinuationEnvelope(
            continuation=message, subscription_id=sub.subscription_id
        )
        if self.obs is not None:
            self.obs.trace.record(
                ContinuationShipped(
                    pse_id=str(message.pse_id), bytes=size
                )
            )
            tracer = self.obs.tracing
            if tracer is not None:
                tracer.observe_pse(str(message.pse_id), size=size)
        try:
            self.transport.send(sub.peer, envelope, size)
        except TransportError as exc:
            sub.absorbed += 1
            if self._c_absorbed is not None:
                self._c_absorbed.inc()
            if br is not None:
                br.record_failure(f"send failed: {exc}")
            self._complete_locally(sub, message)
            return
        sub.proxy.record_mod_total(total_cycles)
        if ship_started is not None:
            self._h_phase_ship.observe(time.perf_counter() - ship_started)
        sub.shipped += 1
        if shared:
            sub.shared_ships += 1
        if sub._c_shipped is not None:
            sub._c_shipped.inc()

    def _complete_locally(
        self, sub: BrokerSubscriber, message: ContinuationMessage
    ) -> None:
        """Run a continuation's receiver tail in this process (lock held).

        Both sides build the same partitioned method from the same
        program text, so resuming here is semantically identical to
        resuming across the wire, minus the bytes.  The message is
        cloned through the codec first: it may be the shared
        continuation that later subscribers still encode.
        """
        if self._local_demod is None:
            self._local_demod = self.partitioned.make_demodulator(
                record_rates=False
            )
        codec = self.partitioned.codec
        self._local_demod.process(codec.decode(codec.encode(message)))
        sub.proxy.record_local_completion()
        sub.completed_locally += 1

    def _record_rate(
        self, sub: BrokerSubscriber, cycles: float, elapsed: float
    ) -> None:
        if cycles <= 0:
            return
        seconds = (
            cycles * self.rate_override
            if self.rate_override is not None
            else elapsed
        )
        sub.proxy.record_sender_rate(seconds, cycles)

    def _feed_sub_health(self, sub: BrokerSubscriber) -> None:
        """Pipe one peer's transport state into its health machine."""
        ph = sub.health
        if ph is None:
            return
        peer = sub.peer
        if sub.bye_sent and not peer.connected and peer.queued == 0:
            # Orderly exit: the goodbye drained and the peer hung up.
            # Pin whatever state the run earned so the post-stream
            # teardown cannot masquerade as a late fault.
            if ph.forced_reason is None:
                ph.force(ph.state, "retired (bye delivered)")
            return
        ph.note_connected(peer.connected)
        if peer.last_heard is not None:
            # last_heard is time.monotonic-based, same clock family as
            # the default PeerHealth clock.
            ph.note_signal(peer.last_heard)
        if peer.last_rtt is not None and peer.last_rtt != sub._last_rtt_fed:
            sub._last_rtt_fed = peer.last_rtt
            ph.note_rtt(peer.last_rtt)
        ph.note_sheds(peer.dropped_frames)

    def _tick_fleet(self) -> None:
        """Feed every peer's health, then advance its breaker (lock held)."""
        for sub in self.subscribers:
            self._feed_sub_health(sub)
        self.health.evaluate_all()
        now = time.monotonic()
        for sub in self.subscribers:
            self._resilience_tick(sub, now)

    def _health_loop(self) -> None:
        """Background evaluator: staleness ticks even when idle."""
        while not self._health_stop.wait(self.health_interval):
            with self.lock:
                self._tick_fleet()

    def _after_publish(self, span, *, outcome: str, **attrs) -> None:
        """Gauges, health, feedback cadence, span close (lock held)."""
        for sub in self.subscribers:
            sub.refresh_gauges()
        self._tick_fleet()
        if self.published % self.feedback_period == 0:
            for sub in self.subscribers:
                if sub.proxy.pending > 0:
                    self._flush_feedback(sub)
        if span is not None:
            span.attrs = {"outcome": outcome, **{
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in attrs.items()
            }}
            self.obs.tracing.end(span)

    def _flush_feedback(self, sub: BrokerSubscriber) -> None:
        """Ship one peer's buffered observations as FEEDBACK (lock held).

        The flush opens a ``feedback.flush`` span and the frame carries
        its context, so the receiver's ingest joins the flush's trace.
        """
        payload, size = sub.proxy.flush()
        envelope = FeedbackEnvelope(
            subscription_id=sub.subscription_id, demod_stats=payload
        )
        tracer = self._tracer()
        if tracer is not None:
            trace_id = tracer.start_trace(force=True)
            now = tracer.clock()
            flush_span = tracer.record(
                "feedback.flush",
                trace_id=trace_id,
                start=now,
                end=now,
                attrs={"records": len(payload), "bytes": size},
            )
            envelope.trace = (trace_id, flush_span.span_id)
        self.transport.send(sub.peer, envelope, size)
        sub.feedback_flushes += 1

    def _recalibrate_against(self, event: object, repeats: int = 5) -> float:
        """Timed full-handler runs → fresh seconds-per-cycle (lock held).

        Mirrors the startup calibration on the event in hand.  The rate
        is the *minimum* over the repeats: noise only ever inflates a
        run, and a stable estimate keeps successive recomputes from
        flapping a knife-edge min-cut.  The runs' deliveries land in
        this process's local sink, which the publisher never reads.
        """
        best = None
        for _ in range(repeats):
            meter = CycleMeter()
            started = time.perf_counter()
            self.partitioned.interpreter.run(
                self.partitioned.function, (event,), meter=meter
            )
            elapsed = time.perf_counter() - started
            if meter.cycles > 0:
                rate = elapsed / meter.cycles
                best = rate if best is None else min(best, rate)
        if best is None:
            return self.rate_override  # nothing measurable; keep the old rate
        return best

    # -- resilience plane (breaker / retraction / re-split) ----------------------
    #
    # Everything here runs with self.lock held: health transitions fire
    # inside evaluate_all / force calls (publish thread, health thread,
    # or inbound telemetry — all under the lock), and breaker
    # transitions fire inside trip/allow/record_* calls driven from the
    # same places.

    def _flight(self):
        return getattr(self.obs, "flight", None) if self.obs else None

    def _on_health_transition(self, ph: PeerHealth, record: dict) -> None:
        """HealthMonitor listener: a wedged peer trips its breaker."""
        sub = self._by_name.get(ph.name)
        if sub is None or sub.breaker is None:
            return
        if record["to"] == WEDGED:
            sub.breaker.trip(f"health wedged: {record['reason']}")

    def _on_breaker_transition(
        self, breaker: CircuitBreaker, record: dict
    ) -> None:
        """Breaker edges actuate the split: trip retracts, close re-splits."""
        sub = self._by_name.get(breaker.name)
        if sub is None:
            return
        if sub._g_breaker is not None:
            sub._g_breaker.set(BREAKER_STATE_CODES[record["to"]])
        flight = self._flight()
        if flight is not None:
            flight.record(
                "breaker.transition",
                peer=breaker.name,
                **{"from": record["from"], "to": record["to"]},
                reason=record["reason"],
            )
        if record["to"] == BREAKER_OPEN:
            self._start_retraction(sub)
        elif record["to"] == BREAKER_CLOSED:
            self._resplit(sub)

    def _start_retraction(self, sub: BrokerSubscriber) -> None:
        """Begin migrating *sub*'s split back to fully sender-side.

        The plan swap waits (bounded by ``drain_timeout``) for the
        peer's outbound queue to drain so continuations already encoded
        toward the old split are not interleaved with the new plan;
        publishes arriving meanwhile are absorbed broker-side by the
        open breaker, so nothing is lost during the wait.
        """
        if sub.retracting or sub.retracted:
            return
        sub.retracting = True
        sub.retraction_deadline = (
            time.monotonic() + self.breaker_config.drain_timeout
        )
        flight = self._flight()
        if flight is not None:
            flight.record(
                "breaker.retract_begin",
                peer=sub.name,
                queued=sub.peer.queued,
            )
        self._maybe_complete_retraction(sub, time.monotonic())

    def _maybe_complete_retraction(
        self, sub: BrokerSubscriber, now: float
    ) -> None:
        """Switch plans once in-flight frames drained (or timed out)."""
        if not sub.retracting:
            return
        drained = sub.peer.queued == 0
        if not drained and (
            sub.retraction_deadline is None
            or now < sub.retraction_deadline
        ):
            return
        sub.saved_plan = sub.plan
        self._set_plan(sub, self._retraction_plan)
        sub.retracting = False
        sub.retracted = True
        sub.retraction_deadline = None
        sub.retractions += 1
        self.retractions += 1
        if self._c_retractions is not None:
            self._c_retractions.inc()
        flight = self._flight()
        if flight is not None:
            flight.record(
                "breaker.retract",
                peer=sub.name,
                drained=drained,
                saved_plan=sub.saved_plan.name,
            )

    def _resplit(self, sub: BrokerSubscriber) -> None:
        """Restore the split after the breaker closed (recovery).

        The receiver may have shipped newer PLAN frames while retracted
        (they were deferred, not applied).  A deferred plan wins over
        the saved pre-trip plan: it passed the idempotency check, so it
        is newer than anything applied before the trip.
        """
        if not (sub.retracting or sub.retracted):
            return
        pending, saved = sub.pending_plan, sub.saved_plan
        sub.pending_plan = None
        sub.saved_plan = None
        sub.retracting = False
        sub.retracted = False
        sub.retraction_deadline = None
        if pending is not None:
            self._apply_plan(sub, pending)
        elif saved is not None:
            self._set_plan(sub, saved)
        else:
            return  # closed before the swap happened: nothing to restore
        sub.resplits += 1
        self.resplits += 1
        if self._c_resplits is not None:
            self._c_resplits.inc()
        flight = self._flight()
        if flight is not None:
            flight.record(
                "breaker.resplit",
                peer=sub.name,
                plan=sub.plan.name,
                version=sub.plan_version_applied,
            )

    def _resilience_tick(self, sub: BrokerSubscriber, now: float) -> None:
        """Advance one peer's breaker/retraction state (lock held)."""
        br = sub.breaker
        if br is None:
            return
        # Breaker calls run on the breaker's own clock; *now* is the
        # transport's monotonic clock, for last_heard and the drain
        # deadline.
        # Send failures count toward the trip threshold even while the
        # health machine still calls the peer degraded.
        delta = sub.peer.send_timeouts - sub._send_timeouts_fed
        if delta > 0:
            sub._send_timeouts_fed = sub.peer.send_timeouts
            for _ in range(min(delta, 8)):
                br.record_failure("send timeout")
        if br.state == BREAKER_OPEN:
            # Advancing past the probe backoff transitions to half-open
            # (the consumed probe admits the next publish's ship).
            br.allow()
        if br.state == BREAKER_HALF_OPEN:
            # Half-open: judge the probe window on connectivity + the
            # health machine's verdict + signal freshness.
            ph = sub.health
            state = ph.state if ph is not None else None
            if not sub.peer.connected or state == WEDGED:
                br.record_failure("peer still wedged")
            else:
                last = sub.peer.last_heard
                fresh = (
                    last is not None
                    and now - last < self.health.config.stale_degraded
                )
                if fresh:
                    br.record_success()
        if sub.retracting:
            self._maybe_complete_retraction(sub, now)

    def resilience_dump(self) -> Dict[str, object]:
        """Breaker + retraction state per peer, for dashboards and dumps."""
        return {
            "retractions": self.retractions,
            "resplits": self.resplits,
            "leader": self.leader,
            "leader_priority": self.leader_priority,
            "election_frames": self.election_frames,
            "elections_relayed": self.elections_relayed,
            "peers": {
                sub.name: sub.resilience_dict() for sub in self.subscribers
            },
        }

    # -- control plane (transport loop thread) -----------------------------------

    def _on_inbound(self, envelope: object, peer: TcpPeer) -> None:
        if isinstance(envelope, Telemetry):
            with self.lock:
                sub = self._by_peer.get(peer)
                if sub is not None:
                    self._ingest_telemetry(sub, envelope)
            return
        if isinstance(envelope, Election):
            self._relay_election(envelope, peer)
            return
        if not isinstance(envelope, PlanEnvelope):
            return
        tracer = self._tracer()
        with self.lock:
            sub = self._by_peer.get(peer)
            if sub is None:
                return
            if (
                envelope.version
                and envelope.version <= sub.plan_version_applied
            ):
                sub.plan_duplicates_ignored += 1
                return
            if sub.retracting or sub.retracted:
                # The peer is mid-retraction: defer the update instead
                # of re-splitting toward a tripped peer.  Newest
                # version wins (the later arrival among equal ones,
                # i.e. unversioned legacy frames); _resplit applies it
                # on recovery.
                if (
                    sub.pending_plan is None
                    or envelope.version >= sub.pending_plan.version
                ):
                    sub.pending_plan = envelope
                sub.plans_deferred += 1
                return
            self._apply_plan(sub, envelope)
        if tracer is not None and envelope.trace is not None:
            now = tracer.clock()
            tracer.record(
                "plan.apply",
                trace_id=envelope.trace[0],
                parent_id=envelope.trace[1],
                start=now,
                end=now,
                attrs={"plan": envelope.plan.name, "peer": sub.name},
            )

    def _apply_plan(self, sub: BrokerSubscriber, envelope: PlanEnvelope) -> None:
        """Install a PLAN frame's plan for *sub* (lock held)."""
        self._set_plan(sub, envelope.plan)
        if envelope.version:
            sub.plan_version_applied = envelope.version
        sub.plan_updates_applied += 1
        self.plan_updates_applied += 1
        sub.plans_seen.append(
            ",".join(str(e) for e in sorted(envelope.plan.active))
        )
        if self._c_plan_updates is not None:
            self._c_plan_updates.inc()
        if sub._c_plan_updates is not None:
            sub._c_plan_updates.inc()

    def _set_plan(self, sub: BrokerSubscriber, plan: PartitioningPlan) -> None:
        """Switch *sub*'s split (lock held).

        The union hook is rebuilt lazily, and a calibrated rate goes
        stale: it was taken under the old split.  The refresh happens on
        the next :meth:`publish`, where an event to calibrate against
        arrives.
        """
        sub.plan = plan
        self._union_dirty = True
        if self.rate_override is not None:
            self._rate_stale = True

    def _relay_election(self, envelope: Election, peer: TcpPeer) -> None:
        """Fan an ELECTION frame out to the other receivers.

        Receivers cannot see each other directly — their only shared
        vertex is this broker — so the bully protocol's broadcasts are
        relayed here: every inbound announcement goes to every *other*
        subscriber whose connection negotiated the election feature.
        The broker also shadows the outcome (``leader``) for fleetmon.
        """
        with self.lock:
            self.election_frames += 1
            if self._c_elections is not None:
                self._c_elections.inc()
            if envelope.op == "coordinator":
                if self.leader != envelope.member:
                    flight = self._flight()
                    if flight is not None:
                        flight.record(
                            "election.leader",
                            leader=envelope.member,
                            priority=envelope.priority,
                            term=envelope.term,
                        )
                self.leader = envelope.member
                self.leader_priority = envelope.priority
            targets = [
                sub
                for sub in self.subscribers
                if sub.peer is not peer
                and FEATURE_ELECTION in sub.peer.peer_features
            ]
            for sub in targets:
                try:
                    self.transport.send(sub.peer, envelope, 64.0)
                    self.elections_relayed += 1
                except TransportError:
                    pass

    def _ingest_telemetry(self, sub: BrokerSubscriber, frame: Telemetry) -> None:
        """Fold one pushed TELEMETRY frame into the fleet view (lock held)."""
        sub.telemetry_frames += 1
        self.telemetry_frames += 1
        if self._c_telemetry is not None:
            self._c_telemetry.inc()
        payload = frame.payload or {}
        sub.last_telemetry = {
            "source": frame.source,
            "instance": frame.instance,
            "seq": frame.seq,
            "sent_at": frame.sent_at,
            "received_at": time.time(),
            "payload": payload,
        }
        ph = sub.health
        if ph is None:
            return
        ph.note_telemetry()
        counters = payload.get("counters") or {}
        dupes = counters.get("duplicates_skipped")
        if isinstance(dupes, (int, float)):
            ph.note_duplicates(int(dupes))
        drift = payload.get("drift_events")
        if isinstance(drift, (int, float)):
            delta = int(drift) - sub._drift_reported
            if delta > 0:
                ph.note_drift(delta)
            sub._drift_reported = int(drift)
        ph.evaluate()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Stop the background health evaluator (idempotent)."""
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=2.0)
            self._health_thread = None

    def finish(self) -> None:
        """Flush profiling tails and say goodbye to every subscriber."""
        with self.lock:
            for sub in self.subscribers:
                if sub.proxy.pending > 0:
                    self._flush_feedback(sub)
                self.transport.send(
                    sub.peer, Bye(sent=sub.shipped), 8.0
                )
                sub.bye_sent = True

    def expose_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Serve this process's observability over HTTP (OpenMetrics)."""
        if self.obs is None:
            raise ValueError("expose_metrics requires an attached obs")
        from repro.obs.exposition import start_http_exposer

        self.exposer = start_http_exposer(
            self.obs.to_dict,
            host=host,
            port=port,
            health_source=self.health.to_dict,
        )
        return self.exposer

    def close_exposer(self) -> None:
        if self.exposer is not None:
            self.exposer.close()
            self.exposer = None

    # -- results -----------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        with self.lock:
            return {
                "published": self.published,
                "shared_runs": self.shared_runs,
                "forks": self.forks,
                "shared_cycles_total": self.shared_cycles_total,
                "fork_cycles_total": self.fork_cycles_total,
                "plan_updates_applied": self.plan_updates_applied,
                "recalibrations": self.recalibrations,
                "telemetry_frames": self.telemetry_frames,
                "retractions": self.retractions,
                "resplits": self.resplits,
                "leader": self.leader,
                "election_frames": self.election_frames,
                "elections_relayed": self.elections_relayed,
                "fleet": self.health.to_dict(),
                "plan_cache": {
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                },
                "subscribers": [
                    sub.to_dict() for sub in self.subscribers
                ],
            }


class NetSenderEndpoint(NetBrokerEndpoint):
    """The two-process sender: a broker with exactly one subscriber.

    Publishing, recalibration, retraction, PLAN handling, telemetry
    ingest and feedback flushing are the broker's; this class only
    subscribes ``peer`` and reads that subscriber's counters back
    under the names a single-peer caller expects.  Per-peer state lives
    on :attr:`subscriber`.
    """

    def __init__(
        self,
        partitioned: PartitionedMethod,
        transport: TcpTransport,
        peer: TcpPeer,
        *,
        subscription_id: int = 1,
        plan: Optional[PartitioningPlan] = None,
        sample_period: int = 1,
        feedback_period: int = 8,
        rate_override: Optional[float] = None,
        recalibrate=None,
        obs=None,
        health_config: Optional[HealthConfig] = None,
        breaker_config: Optional[BreakerConfig] = None,
        resilience: bool = True,
    ) -> None:
        super().__init__(
            partitioned,
            transport,
            plan=plan,
            sample_period=sample_period,
            feedback_period=feedback_period,
            rate_override=rate_override,
            recalibrate=recalibrate,
            obs=obs,
            health_config=health_config,
            breaker_config=breaker_config,
            resilience=resilience,
        )
        self.subscriber = self._attach(
            peer, peer.name, subscription_id=subscription_id
        )

    @property
    def shipped(self) -> int:
        return self.subscriber.shipped

    @property
    def completed_locally(self) -> int:
        """Local completions, elided ships included."""
        return self.subscriber.completed_locally + self.subscriber.elided

    @property
    def absorbed(self) -> int:
        return self.subscriber.absorbed

    @property
    def current_plan_edges(self) -> Tuple[Edge, ...]:
        with self.lock:
            return self.subscriber.plan_edges
