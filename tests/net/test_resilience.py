"""Circuit breaker, bulkhead, and publisher-side retraction semantics."""

from __future__ import annotations

import time

import pytest

from repro.net.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerConfig,
    Bulkhead,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(**kwargs) -> tuple:
    clock = FakeClock()
    breaker = CircuitBreaker(
        "peer", BreakerConfig(**kwargs), clock=clock
    )
    return breaker, clock


# -- config validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"failure_threshold": 0},
        {"probe_backoff_base": 0.0},
        {"probe_backoff_base": 2.0, "probe_backoff_cap": 1.0},
        {"probe_budget": 0},
        {"success_threshold": 0},
        {"bulkhead_limit": 0},
        {"drain_timeout": -1.0},
    ],
)
def test_breaker_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        BreakerConfig(**kwargs)


# -- closed -> open -------------------------------------------------------------


def test_failure_streak_trips_at_threshold():
    breaker, _ = make_breaker(failure_threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    assert breaker.trips == 1


def test_success_resets_the_failure_streak():
    breaker, _ = make_breaker(failure_threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.failure_streak == 2


def test_trip_while_open_is_idempotent():
    breaker, _ = make_breaker()
    breaker.trip("first")
    breaker.trip("second")
    assert breaker.trips == 1
    assert len(breaker.transitions) == 1


# -- open -> half-open probing --------------------------------------------------


def test_open_refuses_work_until_backoff_elapses():
    breaker, clock = make_breaker(probe_backoff_base=0.5)
    breaker.trip("wedged")
    assert not breaker.allow()
    clock.advance(0.49)
    assert not breaker.allow()
    clock.advance(0.02)
    assert breaker.allow()  # this call IS the half-open transition
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.probes == 1


def test_half_open_probe_budget_bounds_admissions():
    breaker, clock = make_breaker(probe_backoff_base=0.1, probe_budget=2)
    breaker.trip("wedged")
    clock.advance(1.0)
    assert breaker.allow()  # probe 1 (the transition)
    assert breaker.allow()  # probe 2
    assert not breaker.allow()  # budget exhausted
    assert breaker.probes == 2


def test_probe_failure_reopens_with_doubled_backoff():
    breaker, clock = make_breaker(
        probe_backoff_base=0.25, probe_backoff_cap=8.0
    )
    breaker.trip("wedged")
    assert breaker.probe_backoff() == pytest.approx(0.25)
    clock.advance(1.0)
    assert breaker.allow()
    breaker.record_failure("probe bounced")
    assert breaker.state == BREAKER_OPEN
    assert breaker.reopens == 1
    assert breaker.probe_backoff() == pytest.approx(0.5)
    # and again: the exponent keeps climbing
    clock.advance(1.0)
    assert breaker.allow()
    breaker.record_failure("probe bounced")
    assert breaker.probe_backoff() == pytest.approx(1.0)


def test_probe_backoff_is_capped():
    breaker, clock = make_breaker(
        probe_backoff_base=0.25, probe_backoff_cap=1.0
    )
    for _ in range(6):
        breaker.trip("again")
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.probe_backoff() == pytest.approx(1.0)


# -- half-open -> closed --------------------------------------------------------


def test_success_threshold_closes_and_resets_backoff():
    breaker, clock = make_breaker(
        probe_backoff_base=0.25, probe_budget=4, success_threshold=2
    )
    breaker.trip("wedged")
    clock.advance(1.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == BREAKER_HALF_OPEN
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.closes == 1
    assert breaker.open_count == 0
    # after closing, a fresh trip starts from the base backoff again
    breaker.trip("later")
    assert breaker.probe_backoff() == pytest.approx(0.25)


def test_transition_records_carry_peer_and_reason():
    seen = []
    clock = FakeClock()
    breaker = CircuitBreaker(
        "sub-3",
        BreakerConfig(),
        clock=clock,
        on_transition=lambda b, record: seen.append(record),
    )
    breaker.trip("health wedged")
    assert seen[0]["peer"] == "sub-3"
    assert seen[0]["from"] == BREAKER_CLOSED
    assert seen[0]["to"] == BREAKER_OPEN
    assert "wedged" in seen[0]["reason"]
    dump = breaker.to_dict()
    assert dump["state"] == BREAKER_OPEN
    assert dump["state_code"] == 2
    assert dump["transitions"] == seen


# -- bulkhead -------------------------------------------------------------------


def test_bulkhead_permit_pair():
    bulkhead = Bulkhead(limit=2)
    assert bulkhead.try_acquire()
    assert bulkhead.try_acquire()
    assert not bulkhead.try_acquire()
    assert bulkhead.rejected == 1
    bulkhead.release()
    assert bulkhead.try_acquire()
    assert bulkhead.peak_in_flight == 2


def test_bulkhead_admit_mirrors_observed_depth():
    bulkhead = Bulkhead(limit=4)
    assert bulkhead.admit(3)
    assert not bulkhead.admit(4)
    assert bulkhead.rejected == 1
    assert bulkhead.peak_in_flight == 4
    assert bulkhead.admit(0)


def test_bulkhead_rejects_invalid_limit():
    with pytest.raises(ValueError):
        Bulkhead(limit=0)


# -- publisher: absorb, retract, defer, re-split --------------------------------
#
# Retraction is per subscriber, so every test runs on both publisher
# shapes: the two-process sender (a broker with one subscriber) and a
# two-subscriber broker, where the tripped peer ``a`` must not disturb
# its bystander ``b``.


class Case:
    """One publisher under test: the tripped subscriber and its bystander."""

    def __init__(self, name, endpoint, sub, clock, bystander=None):
        self.name = name
        self.endpoint = endpoint
        self.sub = sub
        self.clock = clock
        self.bystander = bystander

    def conserved(self, sub) -> bool:
        published = self.endpoint.published
        return sub.shipped + sub.completed_locally + sub.elided == published


def _scripted_breaker(endpoint, sub):
    """Replace *sub*'s breaker with one on a scripted clock."""
    clock = FakeClock()
    sub.breaker = CircuitBreaker(
        sub.name,
        BreakerConfig(success_threshold=1),
        clock=clock,
        on_transition=endpoint._on_breaker_transition,
    )
    return clock


@pytest.fixture
def cases():
    from repro.apps.sensor.pipeline import build_partitioned_process
    from repro.core.plan import receiver_heavy_plan
    from repro.net.broker import NetBrokerEndpoint
    from repro.net.endpoint import NetSenderEndpoint
    from repro.net.framing import NetEnvelopeCodec
    from repro.net.tcp import TcpTransport
    from repro.obs.health import HealthConfig

    partitioned, _sink = build_partitioned_process(n_stages=6)
    plan = receiver_heavy_plan(partitioned.cut)
    transports = []

    def transport():
        t = TcpTransport(
            NetEnvelopeCodec(partitioned.serializer_registry),
            backoff_base=0.05,
            backoff_cap=0.2,
        ).start()
        transports.append(t)
        return t

    out = []
    try:
        t = transport()
        peer = t.peer("127.0.0.1", 1)  # nobody listens here
        sender = NetSenderEndpoint(
            partitioned, t, peer, plan=plan, rate_override=1e-7
        )
        clock = _scripted_breaker(sender, sender.subscriber)
        out.append(Case("sender", sender, sender.subscriber, clock))

        # Nobody listens on either port; the health machine is slowed so
        # the bystander's disconnection never trips its breaker mid-test.
        broker = NetBrokerEndpoint(
            partitioned,
            transport(),
            plan=plan,
            rate_override=1e-7,
            health_config=HealthConfig(stale_degraded=60.0, stale_wedged=120.0),
        )
        sub_a = broker.subscribe("127.0.0.1", 1, name="a")
        sub_b = broker.subscribe("127.0.0.1", 2, name="b")
        clock = _scripted_breaker(broker, sub_a)
        out.append(Case("broker2", broker, sub_a, clock, bystander=sub_b))
        yield out
    finally:
        for t in transports:
            t.close()


def test_open_breaker_absorbs_publishes_locally(cases):
    from repro.apps.sensor.data import make_reading

    for case in cases:
        endpoint, sub = case.endpoint, case.sub
        with endpoint.lock:
            sub.breaker.trip("test")
        assert sub.retracted, case.name
        assert sub.retractions == 1
        for i in range(5):
            endpoint.publish(make_reading(i, 8))
        assert sub.absorbed == 5
        assert sub.shipped == 0
        # conservation: nothing lost, everything completed somewhere
        assert case.conserved(sub), case.name
        if case.bystander is not None:
            assert case.bystander.shipped == 5
            assert case.bystander.absorbed == 0
            assert not case.bystander.retracted
            assert case.conserved(case.bystander)
        else:
            assert endpoint.absorbed == 5
            assert endpoint.shipped == 0
            assert endpoint.published == (
                endpoint.shipped + endpoint.completed_locally
            )


def test_plans_deferred_while_retracted_newest_wins(cases):
    from repro.core.plan import receiver_heavy_plan, sender_heavy_plan
    from repro.jecho.events import PlanEnvelope

    for case in cases:
        endpoint, sub = case.endpoint, case.sub
        plan_recv = receiver_heavy_plan(endpoint.partitioned.cut)
        plan_none = sender_heavy_plan(endpoint.partitioned.cut)
        with endpoint.lock:
            sub.breaker.trip("test")
        for version, plan in ((3, plan_recv), (5, plan_none), (4, plan_recv)):
            endpoint._on_inbound(
                PlanEnvelope(subscription_id=1, plan=plan, version=version),
                sub.peer,
            )
        assert sub.plans_deferred == 3, case.name
        assert sub.pending_plan is not None
        assert sub.pending_plan.version == 5
        assert sub.plan_updates_applied == 0
        if case.bystander is not None:
            # the bystander's PLAN frames still apply immediately
            endpoint._on_inbound(
                PlanEnvelope(subscription_id=2, plan=plan_none, version=1),
                case.bystander.peer,
            )
            assert case.bystander.plan is plan_none
            assert case.bystander.plans_deferred == 0

        # closing the breaker re-splits onto the deferred (newest) plan
        case.clock.advance(60.0)
        with endpoint.lock:
            assert sub.breaker.allow()
            sub.breaker.record_success()
        assert not sub.retracted
        assert sub.resplits == 1
        assert sub.plan_version_applied == 5
        assert sub.pending_plan is None
        assert sub.plan is plan_none
        assert sub.plan_updates_applied == 1


def test_deferred_unversioned_plan_wins_over_saved_plan(cases):
    """A legacy (version 0) PLAN frame deferred during retraction is
    still newer than the pre-trip plan: it is applied on re-split, and
    among equal versions the later arrival wins."""
    from repro.core.plan import receiver_heavy_plan, sender_heavy_plan
    from repro.jecho.events import PlanEnvelope

    for case in cases:
        endpoint, sub = case.endpoint, case.sub
        plan_recv = receiver_heavy_plan(endpoint.partitioned.cut)
        plan_none = sender_heavy_plan(endpoint.partitioned.cut)
        assert sub.plan.active == plan_recv.active
        with endpoint.lock:
            sub.breaker.trip("test")
        for plan in (plan_recv, plan_none):
            endpoint._on_inbound(
                PlanEnvelope(subscription_id=1, plan=plan, version=0),
                sub.peer,
            )
        assert sub.pending_plan.plan is plan_none, case.name
        case.clock.advance(60.0)
        with endpoint.lock:
            assert sub.breaker.allow()
            sub.breaker.record_success()
        assert sub.plan is plan_none
        assert sub.plan_version_applied == 0


def test_retraction_waits_for_the_queue_to_drain(cases):
    """The plan swap waits for the peer's queued frames (bounded by
    drain_timeout); the open breaker absorbs publishes meanwhile."""
    from repro.apps.sensor.data import make_reading

    for case in cases:
        endpoint, sub = case.endpoint, case.sub
        endpoint.publish(make_reading(0, 8))  # queued: nobody listens
        assert sub.shipped == 1, case.name
        # the enqueue lands on the transport's loop thread
        deadline = time.monotonic() + 5.0
        while sub.peer.queued == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert sub.peer.queued >= 1
        before = sub.plan
        with endpoint.lock:
            sub.breaker.trip("test")
        assert sub.retracting and not sub.retracted
        assert sub.plan is before
        endpoint.publish(make_reading(1, 8))
        assert sub.absorbed == 1
        assert case.conserved(sub)
        with endpoint.lock:
            endpoint._maybe_complete_retraction(sub, float("inf"))
        assert sub.retracted and not sub.retracting
        assert sub.plan.active == frozenset()  # sender-heavy
        assert sub.saved_plan is before


def test_resplit_restores_saved_plan_when_nothing_deferred(cases):
    for case in cases:
        endpoint, sub = case.endpoint, case.sub
        before = sub.plan.active
        with endpoint.lock:
            sub.breaker.trip("test")
        assert sub.plan.active != before, case.name  # sender-heavy now
        if case.bystander is not None:
            assert case.bystander.plan.active == before
        case.clock.advance(60.0)
        with endpoint.lock:
            assert sub.breaker.allow()
            sub.breaker.record_success()
        assert sub.plan.active == before
        assert not sub.retracted
        if case.bystander is None:
            assert endpoint.current_plan_edges == tuple(sorted(before))


def test_resilience_dump_shape(cases):
    for case in cases:
        endpoint, sub = case.endpoint, case.sub
        dump = sub.resilience_dict()
        assert dump["breaker"]["state"] == BREAKER_CLOSED, case.name
        assert dump["retracted"] is False
        assert set(dump) >= {
            "breaker",
            "absorbed",
            "retracted",
            "retractions",
            "resplits",
            "plans_deferred",
        }
        peers = endpoint.resilience_dump()["peers"]
        assert peers[sub.name] == dump
        assert len(peers) == (1 if case.bystander is None else 2)
