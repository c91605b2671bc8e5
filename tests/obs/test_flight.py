"""Flight recorder: bounded ring, crash dumps, wide events."""

import json

import pytest

from repro.obs.flight import (
    FlightRecorder,
    get_global_recorder,
    merge_flight_dumps,
    set_global_recorder,
    wide_event,
)


@pytest.fixture(autouse=True)
def _clean_global_state():
    prev = get_global_recorder()
    set_global_recorder(None)
    yield
    set_global_recorder(prev)


def _fake_clock(start=100.0, step=1.0):
    state = {"t": start - step}

    def clock():
        state["t"] += step
        return state["t"]

    return clock


class TestFlightRecorder:
    def test_record_stamps_clock_pair_host_and_kind(self):
        rec = FlightRecorder(
            host="worker-1",
            clock=_fake_clock(),
            mono_clock=_fake_clock(start=50.0),
        )
        event = rec.record("net.shed", peer="r0", dropped=3)
        assert event == {
            "t": 100.0,
            "mono": 50.0,
            "host": "worker-1",
            "kind": "net.shed",
            "peer": "r0",
            "dropped": 3,
        }
        assert rec.to_list() == [event]

    def test_record_accounts_its_own_overhead(self):
        rec = FlightRecorder(host="h")
        for i in range(10):
            rec.record("tick", i=i)
        assert rec.overhead_seconds > 0.0
        assert rec.to_dict()["overhead_seconds"] == rec.overhead_seconds

    def test_ring_is_bounded_and_counts_drops(self):
        rec = FlightRecorder(maxlen=3, host="h", clock=_fake_clock())
        for i in range(5):
            rec.record("tick", i=i)
        kept = rec.to_list()
        assert [e["i"] for e in kept] == [2, 3, 4]
        assert rec.recorded == 5
        assert rec.dropped == 2
        dump = rec.to_dict()
        assert dump["maxlen"] == 3
        assert dump["recorded"] == 5
        assert dump["dropped"] == 2
        assert len(dump["events"]) == 3

    def test_rejects_nonpositive_maxlen(self):
        with pytest.raises(ValueError):
            FlightRecorder(maxlen=0)

    def test_count_by_kind(self):
        rec = FlightRecorder(host="h")
        rec.record("a")
        rec.record("b")
        rec.record("a")
        assert rec.count("a") == 2
        assert rec.count("b") == 1
        assert rec.count("missing") == 0

    def test_dump_json_round_trips(self, tmp_path):
        rec = FlightRecorder(host="h", clock=_fake_clock())
        rec.record("fault.wedge", role="receiver1", seconds=2.0)
        path = tmp_path / "flight.json"
        rec.dump_json(str(path))
        data = json.loads(path.read_text())
        assert data["host"] == "h"
        assert data["events"][0]["kind"] == "fault.wedge"
        assert data["events"][0]["role"] == "receiver1"


class TestWideEvent:
    def test_no_global_recorder_is_a_safe_noop(self):
        assert wide_event("net.reconnect", peer="r0") is None

    def test_records_into_global_recorder(self):
        rec = FlightRecorder(host="h")
        set_global_recorder(rec)
        event = wide_event("net.reconnect", peer="r0", attempt=2)
        assert event is not None
        assert event["kind"] == "net.reconnect"
        assert rec.count("net.reconnect") == 1

    def test_explicit_recorder_wins_over_global(self):
        global_rec = FlightRecorder(host="g")
        local_rec = FlightRecorder(host="l")
        set_global_recorder(global_rec)
        wide_event("x", recorder=local_rec)
        assert local_rec.count("x") == 1
        assert global_rec.count("x") == 0


class TestMergeFlightDumps:
    def test_merge_orders_by_time_across_hosts(self):
        # Wall and monotonic clocks tick together (no skew): the merge
        # reduces to plain wall-time order.
        a = FlightRecorder(
            host="a",
            clock=_fake_clock(start=10.0, step=10.0),
            mono_clock=_fake_clock(start=10.0, step=10.0),
        )
        b = FlightRecorder(
            host="b",
            clock=_fake_clock(start=15.0, step=10.0),
            mono_clock=_fake_clock(start=15.0, step=10.0),
        )
        a.record("e1")
        b.record("e2")
        a.record("e3")
        merged = merge_flight_dumps([a.to_dict(), b.to_dict()])
        assert merged["hosts"] == ["a", "b"]
        assert merged["recorded"] == 3
        assert merged["dropped"] == 0
        assert [(e["t"], e["host"]) for e in merged["events"]] == [
            (10.0, "a"),
            (15.0, "b"),
            (20.0, "a"),
        ]

    def test_merge_skips_empty_dumps_and_sums_drops(self):
        rec = FlightRecorder(maxlen=1, host="only")
        rec.record("x")
        rec.record("y")
        merged = merge_flight_dumps([{}, rec.to_dict(), None])
        assert merged["hosts"] == ["only"]
        assert merged["recorded"] == 2
        assert merged["dropped"] == 1
        assert [e["kind"] for e in merged["events"]] == ["y"]


class TestMergeTieOrdering:
    def test_shared_timestamps_tie_break_on_host_then_index(self):
        # Coarse clocks produce bursts at identical t; the merge must
        # still be deterministic (host order) and never reorder one
        # process's own events relative to each other.
        a = {
            "host": "a",
            "recorded": 3,
            "dropped": 0,
            "events": [
                {"t": 5.0, "host": "a", "kind": "a0"},
                {"t": 5.0, "host": "a", "kind": "a1"},
                {"t": 5.0, "host": "a", "kind": "a2"},
            ],
        }
        b = {
            "host": "b",
            "recorded": 2,
            "dropped": 0,
            "events": [
                {"t": 5.0, "host": "b", "kind": "b0"},
                {"t": 5.0, "host": "b", "kind": "b1"},
            ],
        }
        # feed b first: host tie-break must still put a's burst first
        merged = merge_flight_dumps([b, a])
        assert [e["kind"] for e in merged["events"]] == [
            "a0",
            "a1",
            "a2",
            "b0",
            "b1",
        ]
        # and the merge is stable under input permutation
        again = merge_flight_dumps([a, b])
        assert merged["events"] == again["events"]

    def test_identical_event_dicts_do_not_collapse_or_crash(self):
        # Events can be value-identical dicts (same t, host, kind);
        # the sort key must never fall through to dict comparison.
        event = {"t": 1.0, "host": "x", "kind": "dup"}
        dump = {
            "host": "x",
            "recorded": 2,
            "dropped": 0,
            "events": [dict(event), dict(event)],
        }
        merged = merge_flight_dumps([dump, dump])
        assert len(merged["events"]) == 4


class TestClockPairSkewMerge:
    def test_wall_step_mid_run_does_not_reorder_host_events(self):
        # Host a's wall clock steps back ~31s (NTP correction) between
        # its 2nd and 3rd event; monotonic keeps counting.  A raw-t
        # sort would put a2 first — the median offset re-bases onto
        # mono so the host's true order survives.
        a = {
            "host": "a",
            "recorded": 3,
            "dropped": 0,
            "events": [
                {"t": 100.0, "mono": 10.0, "host": "a", "kind": "a0"},
                {"t": 101.0, "mono": 11.0, "host": "a", "kind": "a1"},
                {"t": 71.0, "mono": 12.0, "host": "a", "kind": "a2"},
            ],
        }
        merged = merge_flight_dumps([a])
        assert [e["kind"] for e in merged["events"]] == ["a0", "a1", "a2"]

    def test_cross_host_alignment_still_follows_wall_time(self):
        # Two hosts with wildly different monotonic epochs: the per-dump
        # offset puts both on the shared wall timeline, interleaved by
        # when events actually happened.
        a = {
            "host": "a",
            "recorded": 2,
            "dropped": 0,
            "events": [
                {"t": 100.0, "mono": 10.0, "host": "a", "kind": "a0"},
                {"t": 102.0, "mono": 12.0, "host": "a", "kind": "a1"},
            ],
        }
        b = {
            "host": "b",
            "recorded": 1,
            "dropped": 0,
            "events": [
                {"t": 101.0, "mono": 9999.0, "host": "b", "kind": "b0"},
            ],
        }
        merged = merge_flight_dumps([b, a])
        assert [e["kind"] for e in merged["events"]] == ["a0", "b0", "a1"]

    def test_dumps_without_mono_fall_back_to_raw_t(self):
        # Old dumps (pre clock pair) still merge, on raw wall time.
        old = {
            "host": "old",
            "recorded": 2,
            "dropped": 0,
            "events": [
                {"t": 100.5, "host": "old", "kind": "legacy0"},
                {"t": 101.5, "host": "old", "kind": "legacy1"},
            ],
        }
        new = {
            "host": "new",
            "recorded": 1,
            "dropped": 0,
            "events": [
                {"t": 101.0, "mono": 1.0, "host": "new", "kind": "n0"},
            ],
        }
        merged = merge_flight_dumps([old, new])
        assert [e["kind"] for e in merged["events"]] == [
            "legacy0",
            "n0",
            "legacy1",
        ]

    def test_majority_vote_beats_a_single_stepped_event(self):
        # One event recorded during a transient wall-clock excursion
        # must not drag the whole host's anchor: the median offset is
        # the majority's, so only the outlier re-bases.
        a = {
            "host": "a",
            "recorded": 3,
            "dropped": 0,
            "events": [
                {"t": 100.0, "mono": 10.0, "host": "a", "kind": "a0"},
                {"t": 1100.0, "mono": 11.0, "host": "a", "kind": "a1"},
                {"t": 102.0, "mono": 12.0, "host": "a", "kind": "a2"},
            ],
        }
        merged = merge_flight_dumps([a])
        assert [e["kind"] for e in merged["events"]] == ["a0", "a1", "a2"]


class TestSignalDump:
    def test_sigint_dump_chains_keyboard_interrupt(self, tmp_path):
        import signal as _signal

        recorder = FlightRecorder(host="sig", clock=_fake_clock())
        recorder.record("before")
        path = tmp_path / "flight.json"
        prev = _signal.getsignal(_signal.SIGINT)
        recorder.install_signal_dump(str(path), signals=(_signal.SIGINT,))
        try:
            with pytest.raises(KeyboardInterrupt):
                _signal.raise_signal(_signal.SIGINT)
        finally:
            _signal.signal(_signal.SIGINT, prev)
        dump = json.loads(path.read_text())
        kinds = [e["kind"] for e in dump["events"]]
        assert "before" in kinds
        assert "signal" in kinds  # the dump recorded its own trigger
