"""Sampling profiler: capture, attribution, exports, merge."""

import threading
import time

import pytest

from repro.obs import Observability
from repro.obs.prof import (
    DEFAULT_INTERVAL,
    SamplingProfiler,
    collapsed_from_dump,
    component_table,
    merge_profile_dumps,
    speedscope_from_dump,
)


# -- construction ------------------------------------------------------------


def test_rejects_nonpositive_interval():
    with pytest.raises(ValueError):
        SamplingProfiler(interval=0.0)
    with pytest.raises(ValueError):
        SamplingProfiler(interval=-1.0)


def test_rejects_nonpositive_max_stacks():
    with pytest.raises(ValueError):
        SamplingProfiler(max_stacks=0)


# -- attribution (synthetic stacks via ingest) -------------------------------


def _prof(**kwargs):
    kwargs.setdefault("host", "test")
    return SamplingProfiler(**kwargs)


def test_leaf_most_matching_frame_names_the_component():
    p = _prof()
    # Leaf is serialization under a tcp (ship) frame: leaf wins.
    p.ingest([
        ("/x/src/repro/net/tcp.py", "_deliver"),
        ("/x/src/repro/net/framing.py", "encode_frame"),
        ("/x/src/repro/serialization/__init__.py", "serialize"),
    ])
    assert p.components == {"serialization": 1}


def test_unmatched_leaf_frames_skip_toward_root():
    p = _prof()
    # stdlib leaf under _deliver: the syscall belongs to the ship path.
    p.ingest([
        ("/x/src/repro/net/tcp.py", "_deliver"),
        ("/usr/lib/python3/asyncio/base_events.py", "call_soon_threadsafe"),
    ])
    assert p.components == {"ship": 1}


def test_wait_frames_are_idle_even_above_repro_code():
    p = _prof()
    p.ingest([
        ("/x/src/repro/net/tcp.py", "_run_loop"),
        ("/usr/lib/python3/selectors.py", "select"),
    ])
    assert p.components == {"idle": 1}


def test_obs_machinery_is_named_not_hidden():
    p = _prof()
    p.ingest([
        ("/x/src/repro/net/broker.py", "publish"),
        ("/x/src/repro/obs/metrics.py", "observe"),
    ])
    assert p.components == {"obs": 1}


def test_no_matching_frame_falls_into_other():
    p = _prof()
    p.ingest([("/somewhere/else.py", "main")])
    assert p.components == {"other": 1}


def test_broker_function_rules_split_fork_and_modulate():
    p = _prof()
    p.ingest([("/x/src/repro/net/broker.py", "_fork")])
    p.ingest([("/x/src/repro/net/broker.py", "_union")], count=2)
    assert p.components == {"fork": 1, "modulate": 2}
    assert p.samples == 3


def test_max_stacks_overflow_lands_in_truncated_bucket():
    p = _prof(max_stacks=1)
    p.ingest([("/a.py", "f")])
    p.ingest([("/b.py", "g")])
    p.ingest([("/b.py", "g")])
    dump = p.to_dict()
    assert dump["truncated"] == 2
    frames = {tuple(s["frames"]) for s in dump["stacks"]}
    assert ("<truncated>",) in frames
    assert dump["samples"] == 3


# -- live capture ------------------------------------------------------------


def _busy(stop):
    while not stop.is_set():
        sum(i * i for i in range(500))


def test_background_sampler_captures_and_accounts_itself():
    stop = threading.Event()
    worker = threading.Thread(target=_busy, args=(stop,), daemon=True)
    worker.start()
    p = _prof(interval=0.002)
    p.start()
    assert p.running
    time.sleep(0.15)
    p.stop()
    stop.set()
    worker.join(2.0)
    assert not p.running
    dump = p.to_dict()
    assert dump["samples"] > 0
    assert dump["passes"] > 0
    assert dump["self_seconds"] > 0.0
    assert dump["wall_seconds"] >= 0.1
    assert not dump["running"]
    # This test file matches no component rule, so the busy thread's
    # stacks land in other (or idle for parked runner threads).
    assert sum(dump["components"].values()) == dump["samples"]


def test_start_and_stop_are_idempotent():
    p = _prof(interval=0.005)
    p.start()
    assert p.start() is p
    p.stop()
    assert p.stop() is p


def test_thread_ids_filter_restricts_capture():
    stop = threading.Event()
    worker = threading.Thread(target=_busy, args=(stop,), daemon=True)
    worker.start()
    try:
        p = _prof(thread_ids={worker.ident})
        captured = p.sample_once()
        assert captured == 1
        only_own = _prof(thread_ids={-1})
        assert only_own.sample_once() == 0
    finally:
        stop.set()
        worker.join(2.0)


# -- exports -----------------------------------------------------------------


def test_collapsed_format_one_line_per_stack():
    p = _prof()
    p.ingest([("/x/src/repro/net/tcp.py", "_deliver")], count=3)
    p.ingest([("/somewhere/else.py", "main")])
    text = p.collapsed()
    lines = text.strip().splitlines()
    assert "repro/net/tcp.py:_deliver 3" in lines[0]
    assert lines[1].endswith(" 1")


def test_speedscope_export_is_schema_valid():
    p = _prof()
    p.ingest([
        ("/x/src/repro/net/tcp.py", "send"),
        ("/x/src/repro/net/framing.py", "encode_frame"),
    ], count=2)
    p.ingest([("/x/src/repro/net/tcp.py", "send")])
    doc = p.speedscope(name="unit")
    assert doc["$schema"] == (
        "https://www.speedscope.app/file-format-schema.json"
    )
    frames = doc["shared"]["frames"]
    profile = doc["profiles"][0]
    assert profile["type"] == "sampled"
    assert len(profile["samples"]) == len(profile["weights"]) == 2
    for sample in profile["samples"]:
        assert all(0 <= idx < len(frames) for idx in sample)
    assert sum(profile["weights"]) == pytest.approx(3.0)
    assert profile["endValue"] == pytest.approx(3.0)
    # Shared frames are deduplicated across stacks.
    names = [f["name"] for f in frames]
    assert len(names) == len(set(names)) == 2


def test_component_table_shares_sum_to_one():
    p = _prof()
    p.ingest([("/x/src/repro/net/tcp.py", "send")], count=3)
    p.ingest([("/other.py", "f")])
    table = component_table(p.to_dict())
    assert [row["component"] for row in table] == ["ship", "other"]
    assert sum(row["share"] for row in table) == pytest.approx(1.0)
    assert table[0]["share"] == pytest.approx(0.75)


def test_component_table_empty_dump():
    assert component_table({}) == []
    assert collapsed_from_dump({}) == ""


# -- merge -------------------------------------------------------------------


def test_merge_sums_stacks_components_and_counters():
    a = _prof(host="sender")
    a.ingest([("/x/src/repro/net/tcp.py", "send")], count=2)
    a.self_seconds = 0.25
    b = _prof(host="receiver")
    b.ingest([("/x/src/repro/net/tcp.py", "send")])
    b.ingest([("/x/src/repro/serialization/core.py", "loads")], count=4)
    merged = merge_profile_dumps([a.to_dict(), {}, b.to_dict()])
    assert merged["hosts"] == ["sender", "receiver"]
    assert merged["samples"] == 7
    assert merged["interval"] == DEFAULT_INTERVAL
    assert merged["self_seconds"] == pytest.approx(0.25)
    assert merged["components"] == {"ship": 3, "serialization": 4}
    top = merged["stacks"][0]
    assert top["count"] == 4  # heaviest first
    shared = [
        s for s in merged["stacks"]
        if s["frames"] == ["repro/net/tcp.py:send"]
    ]
    assert shared[0]["count"] == 3  # summed across hosts
    # A merged dump still exports.
    assert speedscope_from_dump(merged)["profiles"][0]["weights"]


# -- Observability integration ----------------------------------------------


def test_enable_profiler_is_get_or_create_and_dumps_profile_section():
    obs = Observability()
    assert obs.profiler is None
    p = obs.enable_profiler(interval=0.004, host="unit")
    assert obs.enable_profiler() is p
    p.ingest([("/x/src/repro/net/tcp.py", "send")])
    data = obs.to_dict()
    assert data["profile"]["host"] == "unit"
    assert data["profile"]["samples"] == 1
    gauges = data["metrics"]["gauges"]
    assert "obs.overhead.profiler_self_seconds" in gauges


def test_profile_is_a_reserved_section_name():
    obs = Observability()
    with pytest.raises(ValueError):
        obs.add_section("profile", lambda: {})


def test_dump_without_profiler_has_no_profile_section():
    data = Observability().to_dict()
    assert "profile" not in data
    assert "obs.overhead.profiler_self_seconds" not in (
        data["metrics"]["gauges"]
    )
