"""Layer-budget benchmark: the live network roles, each in its own process.

    python3 layerbench/run.py --workload sensor-recv --seed 1 --seconds 20 --trace 0

Spawns the receivers (``NetReceiverEndpoint``) and one publisher
(``NetSenderEndpoint`` or ``NetBrokerEndpoint``) as separate OS
processes over loopback TCP, drives an open-loop load from the
publisher, and prints one JSON line last::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
window's first half untraced and its second half with every layer's
public entry point wrapped, and reports the per-layer budget.  Every
run checks delivered results against ``run_reference``, conservation,
the expected final split and the generator's punctuality, and exits
non-zero if any check fails.  Diagnostics go to stderr.  See
``layerbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up rounds per untraced run (the last one continues into the
#: measured window); setup_s is their median
SETUP_ROUNDS = 7
#: generator punctuality: a run whose publisher started messages later
#: than this behind schedule did not offer the load it claims
LATE_P99_S = 0.050
LATE_MAX_S = 0.250
#: seconds a role may take to exit once its result is in
EXIT_GRACE_S = 10.0
#: the layer rows (without the unattributed remainder) must cover this
#: share of each role's CPU
COVERAGE = 0.90

END_TO_END = {
    "setup_s": "s",
    "pub_cpu_us_per_msg": "us",
    "recv_cpu_us_per_msg": "us",
    "latency_p50_ms": "ms",
    "wire_bytes_per_msg": "bytes",
    "delivered_frac": "ratio",
}
PUB_ROWS = (
    "modulate", "profiling", "encode", "enqueue", "publish_other", "netloop",
)
RECV_ROWS = (
    "read", "decode", "demodulate", "profiling", "reconfig", "handle_other",
    "netloop",
)
PER_LAYER = {
    **{f"pub.{row}_us": "us" for row in PUB_ROWS},
    "pub.unattributed_us": "us",
    **{f"recv.{row}_us": "us" for row in RECV_ROWS},
    "recv.unattributed_us": "us",
    "pub.traced_cpu_us": "us",
    "recv.traced_cpu_us": "us",
    "pub.trace_overhead_us": "us",
    "recv.trace_overhead_us": "us",
    "pub.encodes_per_msg": "count",
    "pub.frames_per_msg": "count",
    "pub.queue_drops": "count",
    "recv.sizings_per_msg": "count",
    "recv.replans": "count",
    "setup.partition_s": "s",
    "setup.connect_s": "s",
}


class RunError(Exception):
    """A role failed to start, crashed or timed out."""


# -- process orchestration --------------------------------------------------------


def _read_line(proc: subprocess.Popen, deadline: float, what: str) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(max(deadline - time.monotonic(), 0.0)):
            raise RunError(f"{what} timed out")
    line = proc.stdout.readline().decode()
    if not line:
        raise RunError(f"{what}: the role exited (code {proc.wait()})")
    return line


def launch(args, workload, setup_only: bool, deadline: float) -> Tuple[float, dict, List[dict]]:
    """One set-up round or measured run: (spawn time, publisher, receivers)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--timeout", str(max(deadline - time.monotonic(), 1.0)),
    ]
    if setup_only:
        common.append("--setup-only")
    roles = str(HERE / "roles.py")
    procs: List[subprocess.Popen] = []
    try:
        spawned = time.time()
        for i in range(workload.receivers):
            extra = ["--index", str(i)]
            if i == 0 and args.corrupt_delivery:
                extra += ["--corrupt-delivery", str(args.corrupt_delivery)]
            procs.append(subprocess.Popen(
                [sys.executable, roles, "receiver", *common, *extra],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
            ))
        publisher = subprocess.Popen(
            [sys.executable, roles, "publisher", *common],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env,
        )
        procs.append(publisher)
        ports = []
        for proc in procs[:-1]:
            line = _read_line(proc, deadline, "a receiver's port")
            if not line.startswith("LISTENING "):
                raise RunError(f"unexpected receiver output {line!r}")
            ports.append(line.split()[1])
        publisher.stdin.write((" ".join(ports) + "\n").encode())
        publisher.stdin.flush()
        # Receivers report once the goodbye is in; then the publisher
        # hangs up, then the receivers close (see roles.py).
        recvs = [
            json.loads(_read_line(proc, deadline, "a receiver's result"))
            for proc in procs[:-1]
        ]
        pub = json.loads(_read_line(publisher, deadline, "the publisher's result"))
        for proc in [publisher, *procs[:-1]]:
            try:
                proc.communicate(b"done\n", timeout=EXIT_GRACE_S)
            except subprocess.TimeoutExpired:
                # Its result is in; only the program's shutdown hung.
                print("layerbench: a role hung on exit; killed", file=sys.stderr)
                proc.kill()
                proc.wait()
            else:
                if proc.returncode != 0:
                    raise RunError(f"a role exited with code {proc.returncode}")
        return spawned, pub, recvs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


# -- statistics -------------------------------------------------------------------


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def _point(points: dict, mark: int) -> dict:
    return points[str(mark)]


def subwindow_cpu(points: dict, marks) -> List[float]:
    """CPU seconds per message in each sub-window."""
    return [
        (_point(points, b)["cpu"] - _point(points, a)["cpu"]) / (b - a)
        for a, b in zip(marks, marks[1:])
    ]


def _span(points: dict, a: int, b: int, key) -> float:
    return key(_point(points, b)) - key(_point(points, a))


# -- checks -----------------------------------------------------------------------


def _digest(fingerprints: List[list]) -> str:
    return hashlib.sha256(json.dumps(fingerprints).encode()).hexdigest()[:16]


def check(workload, plan, seed, pub: dict, recvs: List[dict]) -> Tuple[int, int, List[str], dict]:
    """Correctness gates: (attempted, failed, violations, diagnostics)."""
    from workloads import build, pse_ids, reference_fingerprints

    violations: List[str] = []
    reference = reference_fingerprints(workload, seed, plan)
    published = pub["published"]
    attempted = published * len(recvs)
    failed = 0
    if published != plan.total:
        violations.append(f"published {published} of {plan.total} messages")
    for recv in recvs:
        fps = recv["fingerprints"]
        good = sum(1 for got, want in zip(fps, reference) if got == want)
        extra = max(0, len(fps) - len(reference))
        failed += published - min(good, published) + extra
        if good != len(reference) or extra:
            violations.append(
                f"{recv['role']}: {good}/{len(reference)} results equal the "
                f"reference ({len(fps)} delivered)"
            )
        if recv["duplicates_skipped"]:
            violations.append(f"{recv['role']}: {recv['duplicates_skipped']} duplicates")
    for sub, recv in zip(pub["subscribers"], recvs):
        local = sub["completed_locally"] + sub["elided"]
        if sub["shipped"] + local != published:
            violations.append(
                f"{sub['name']}: shipped {sub['shipped']} + local {local} "
                f"!= published {published}"
            )
        if recv["demodulated"] != sub["shipped"] or recv["sender_reported_sent"] != sub["shipped"]:
            violations.append(
                f"{sub['name']}: demodulated {recv['demodulated']}, sender "
                f"reported {recv['sender_reported_sent']}, shipped {sub['shipped']}"
            )
        if len(recv["fingerprints"]) != recv["demodulated"] + local:
            violations.append(f"{sub['name']}: deliveries != demodulated + local")
        if sub["dropped_frames"] or sub["absorbed"]:
            violations.append(
                f"{sub['name']}: {sub['dropped_frames']} frames shed, "
                f"{sub['absorbed']} absorbed"
            )
    if not pub["drained"]:
        violations.append("publisher queues did not drain")
    # Deterministic adaptation: every receiver ends on the expected split.
    partitioned = build(workload, lambda result: None)
    expected = workload.final_plan(seed, plan)
    trajectory = []
    for sub, recv in zip(pub["subscribers"], recvs):
        final = pse_ids(partitioned, recv["final_plan_edges"])
        applied = pse_ids(partitioned, sub["final_plan_edges"])
        steps, last = [], None
        for record in recv["recomputes"]:
            pses = pse_ids(partitioned, record["edges"])
            if pses != last:
                steps.append([record["at_message"], ",".join(pses)])
                last = pses
        trajectory.append({
            "receiver": recv["role"],
            "final": final,
            "applied": applied,
            "plan_ships": recv["plan_ships"],
            "recomputes": len(recv["recomputes"]),
            "steps": steps,
        })
        if final != expected or applied != expected:
            violations.append(
                f"{recv['role']}: final split {final} (publisher runs "
                f"{applied}), expected {expected}"
            )
    # Honest open loop: the publisher kept to its schedule.
    late = sorted(pub["lateness"][plan.warmup - 1:plan.end - 1])
    lateness = {
        "p50_ms": 1e3 * _quantile(late, 0.50),
        "p99_ms": 1e3 * _quantile(late, 0.99),
        "max_ms": 1e3 * late[-1],
    }
    if lateness["p99_ms"] > 1e3 * LATE_P99_S or lateness["max_ms"] > 1e3 * LATE_MAX_S:
        violations.append(f"generator fell behind schedule: {lateness}")
    return attempted, failed, violations, {
        "digest": {
            "reference": _digest(reference),
            **{recv["role"]: _digest(recv["fingerprints"]) for recv in recvs},
        },
        "trajectory": trajectory,
        "generator_lateness": lateness,
    }


# -- metrics ----------------------------------------------------------------------


def end_to_end(plan, pub: dict, recvs: List[dict], setups: List[float], attempted: int, failed: int) -> Tuple[dict, dict]:
    marks = list(plan.marks)
    pub_sub = subwindow_cpu(pub["checkpoints"], marks)
    recv_sub = [subwindow_cpu(r["checkpoints"], marks) for r in recvs]
    pub_cpu = statistics.median(pub_sub)
    recv_cpu = statistics.mean(statistics.median(sub) for sub in recv_sub)
    # Latency per sub-window, pooled over receivers.  The metric is the
    # lower quartile of the sub-window medians: a neighbour loading the
    # shared host for a stretch of the run doubles the wake-up delays in
    # those sub-windows without moving CPU per message, so the figure
    # comes from the least disturbed quarter of the run.  A change to
    # the program moves every sub-window, and so the figure.
    by_window: List[List[float]] = [[] for _ in marks[1:]]
    for recv in recvs:
        times = recv["times"]
        for w, (a, b) in enumerate(zip(marks, marks[1:])):
            for k in range(a, b):
                due = pub["wall_start"] + (k - 1) * pub["interval"]
                by_window[w].append(times[k] - due)
    latencies = sorted(x for window in by_window for x in window)
    window_p50 = [_quantile(sorted(window), 0.50) for window in by_window]
    wire = _span(pub["checkpoints"], plan.warmup, plan.end, lambda p: p["bytes"])
    metrics = {
        "setup_s": statistics.median(setups),
        "pub_cpu_us_per_msg": 1e6 * pub_cpu,
        "recv_cpu_us_per_msg": 1e6 * recv_cpu,
        "latency_p50_ms": 1e3 * _quantile(sorted(window_p50), 0.25),
        "wire_bytes_per_msg": wire / (plan.end - plan.warmup),
        "delivered_frac": (attempted - failed) / attempted,
    }
    return metrics, {
        "latency_samples": len(latencies),
        # The tail is reported, not bounded: on a shared 2-vCPU host it
        # spreads far wider between runs than any bound (README.md).
        "latency_p99_ms": 1e3 * _quantile(latencies, 0.99),
        "latency_p999_ms": 1e3 * _quantile(latencies, 0.999),
        "latency_p50_pooled_ms": 1e3 * _quantile(latencies, 0.50),
        "latency_p50_subwindows_ms": [round(1e3 * x, 3) for x in window_p50],
        "setup_rounds_s": setups,
        "pub_cpu_subwindows_us": [round(1e6 * x, 1) for x in pub_sub],
        "recv_cpu_subwindows_us": [
            [round(1e6 * x, 1) for x in sub] for sub in recv_sub
        ],
    }


def _layer_rows(points: dict, a: int, b: int, rows, prefix: str) -> Dict[str, float]:
    """Per-message self seconds of each row between marks a and b."""
    before, after = _point(points, a)["layers"]["self"], _point(points, b)["layers"]["self"]
    out = {row: 0.0 for row in rows}
    for layer, seconds in after.items():
        row = layer.split(".")[0]
        if row in out:
            out[row] += seconds - before.get(layer, 0.0)
    return {f"{prefix}.{row}_us": 1e6 * v / (b - a) for row, v in out.items()}


def _calls(points: dict, a: int, b: int, layer: str, thread=None) -> int:
    def count(p):
        if thread is None:
            return p["layers"]["calls"].get(layer, 0)
        return p["layers"]["threads"].get(thread, {}).get("calls", {}).get(layer, 0)

    return _span(points, a, b, count)


def _loop_rest(points: dict, a: int, b: int, idents) -> float:
    """CPU seconds the given threads spent outside wrapped calls."""
    rest = 0.0
    for ident in idents:
        cpu = _span(points, a, b, lambda p: p["threads"][ident][1])
        top = _span(points, a, b, lambda p: p["layers"]["threads"].get(ident, {}).get("top", 0.0))
        rest += cpu - top
    return rest


def _role_budget(points: dict, plan, rows, prefix: str, loop_idents) -> Dict[str, float]:
    """One role's traced rows, remainder and overhead, per message (us)."""
    a, b = plan.trace_from, plan.end
    n = b - a
    first = plan.marks[0]
    cpu = _span(points, a, b, lambda p: p["cpu"]) / n
    wrapped = [row for row in rows if row != "netloop"]
    out = _layer_rows(points, a, b, wrapped, prefix)
    out[f"{prefix}.netloop_us"] = 1e6 * _loop_rest(points, a, b, loop_idents) / n
    out[f"{prefix}.unattributed_us"] = 1e6 * cpu - sum(out.values())
    out[f"{prefix}.traced_cpu_us"] = 1e6 * cpu
    untraced = _span(points, first, a, lambda p: p["cpu"]) / (a - first)
    out[f"{prefix}.trace_overhead_us"] = 1e6 * (cpu - untraced)
    return out


def per_layer(plan, pub: dict, recvs: List[dict]) -> Tuple[dict, dict]:
    a, b = plan.trace_from, plan.end
    n = b - a
    pts = pub["checkpoints"]
    loops = [
        ident for ident, (name, _) in _point(pts, b)["threads"].items()
        if name.startswith("tcp-transport-")
    ]
    out = _role_budget(pts, plan, PUB_ROWS, "pub", loops)
    out["pub.encodes_per_msg"] = _calls(pts, a, b, "encode", pub["main_thread"]) / n
    out["pub.frames_per_msg"] = _span(pts, a, b, lambda p: p["frames"]) / n
    out["pub.queue_drops"] = sum(s["dropped_frames"] for s in pub["subscribers"])
    recv_rows: List[Dict[str, float]] = []
    for recv in recvs:
        pts = recv["checkpoints"]
        rows = _role_budget(pts, plan, RECV_ROWS, "recv", [recv["main_thread"]])
        rows["recv.sizings_per_msg"] = _calls(pts, a, b, "profiling.size") / n
        rows["recv.replans"] = len(recv["recomputes"])
        recv_rows.append(rows)
    for key in recv_rows[0]:
        out[key] = statistics.mean(r[key] for r in recv_rows)
    out["setup.partition_s"] = pub["partition_seconds"][0]
    out["setup.connect_s"] = pub["connect_seconds"]
    diag = {
        f"{role}_unattributed_share":
            abs(out[f"{role}.unattributed_us"]) / out[f"{role}.traced_cpu_us"]
        for role in ("pub", "recv")
    }
    return out, diag


# -- main -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="Metric definitions: layerbench/README.md",
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-delivery", type=int, default=0, metavar="N",
                        help="self-test: falsify the Nth delivered result, "
                        "which must fail the run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, schedule

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    plan = schedule(workload, args.seed, args.seconds, bool(args.trace))
    deadline = time.monotonic() + 170.0
    try:
        setups: List[float] = []
        rounds = 1 if args.trace else SETUP_ROUNDS
        for r in range(rounds):
            spawned, pub, recvs = launch(args, workload, r < rounds - 1, deadline)
            setups.append(max(recv["times"][0] for recv in recvs) - spawned)
    except RunError as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, violations, diag = check(workload, plan, args.seed, pub, recvs)
    units = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            metrics, extra = per_layer(plan, pub, recvs)
            for role in ("pub", "recv"):
                if extra[f"{role}_unattributed_share"] > 1 - COVERAGE:
                    print(
                        f"layerbench: {role} layer rows cover less than "
                        f"{COVERAGE:.0%} of its CPU", file=sys.stderr,
                    )
        else:
            metrics, extra = end_to_end(plan, pub, recvs, setups, attempted, failed)
    except (KeyError, IndexError):
        # Only a run that lost messages misses checkpoints or deliveries,
        # and the gates above have already failed it.
        if not violations:
            raise
        metrics, extra, units = {}, {}, {}
    diag.update(extra)
    diag["workload"] = workload.name
    diag["messages"] = {"total": plan.total, "window": plan.end - plan.warmup}
    diag["violations"] = violations
    print(json.dumps(diag, indent=1), file=sys.stderr)
    correct = not violations
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
