#!/usr/bin/env python
"""Wall-clock benchmark of the simulation engine (events/sec, MiB/s).

Drives the full ``nvcache+ssd`` stack with fio-like and db_bench-like
workloads and measures how fast the *simulator* runs on the host: events
dispatched per wall-clock second and simulated I/O bytes moved per
wall-clock second. Simulated-time results (``sim_seconds``, stats) are
recorded too, so a run doubles as a semantic regression check: engine
optimizations must leave them bit-identical.

Results live in ``BENCH_engine.json`` at the repo root. Each workload
keeps a ``before`` snapshot (the engine as of the first benchmarked
commit) and an ``after`` snapshot (the current engine), and the file
carries a bounded ``history`` list — the last ``HISTORY_LIMIT``
recorded runs, newest last, each stamped with its commit and UTC
timestamp — so the perf trajectory is tracked in-repo, not just its
endpoints. ``--check`` baselines against the newest history entry
(falling back to ``after`` for pre-history files).

Usage::

    PYTHONPATH=src python tools/bench_engine.py             # measure + print
    PYTHONPATH=src python tools/bench_engine.py --update    # rewrite 'after'
    PYTHONPATH=src python tools/bench_engine.py --check     # CI: fail if
                                                            # events/sec fell
                                                            # >20% vs committed
    PYTHONPATH=src python tools/bench_engine.py --profile fio_seq_write
    PYTHONPATH=src python tools/bench_engine.py --microbench  # heap vs
                                                              # calendar queue
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_engine.json")

sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.harness.systems import Scale, build_stack  # noqa: E402
from repro.workloads.db_bench import DbBench  # noqa: E402
from repro.workloads.fio import FioJob, run_fio  # noqa: E402

MIB = float(1024 * 1024)

#: Regression tolerance for --check (events/sec may fall this much
#: before the check fails; wall-clock numbers are noisy).
CHECK_TOLERANCE = 0.20

SCALE_FACTOR = 512

#: Recorded runs kept in BENCH_engine.json's ``history`` (oldest are
#: dropped); bounded so the committed file cannot grow without limit.
HISTORY_LIMIT = 10


def bench_fio(rw: str, size_mib: int = 8) -> dict:
    """One fio job over nvcache+ssd; returns the measurement record."""
    stack = build_stack("nvcache+ssd", scale=Scale(SCALE_FACTOR))
    job = FioJob(rw=rw, block_size=4096, size=size_mib * 1024 * 1024,
                 fsync=1, direct=True)
    wall_start = time.perf_counter()
    result = run_fio(stack.env, stack.libc, job)
    wall = time.perf_counter() - wall_start
    events = stack.env.events_dispatched
    sim_bytes = result.bytes_written + result.bytes_read
    return {
        "wall_seconds": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall, 1),
        "sim_seconds": stack.env.now,
        "sim_mib": round(sim_bytes / MIB, 3),
        "sim_mib_per_wall_sec": round(sim_bytes / MIB / wall, 2),
        "ops": result.write_count + result.read_count,
        "nvcache_entries_created": stack.nvcache.stats.entries_created,
    }


def bench_db_bench(num: int = 3000) -> dict:
    """db_bench fillseq + readrandom on MiniRocks over nvcache+ssd."""
    from repro.apps.kvstore.db import MiniRocks

    stack = build_stack("nvcache+ssd", scale=Scale(SCALE_FACTOR))
    env = stack.env
    results = {}

    def body():
        db = yield from MiniRocks.open(stack.libc, "/db")
        bench = DbBench(env, db, num=num, seed=7)
        results["fillseq"] = yield from bench.fillseq()
        results["readrandom"] = yield from bench.readrandom()
        yield from db.close()

    wall_start = time.perf_counter()
    env.run_process(body(), name="db_bench")
    wall = time.perf_counter() - wall_start
    events = env.events_dispatched
    sim_bytes = sum(r.bytes_moved for r in results.values())
    return {
        "wall_seconds": round(wall, 4),
        "events": events,
        "events_per_sec": round(events / wall, 1),
        "sim_seconds": env.now,
        "sim_mib": round(sim_bytes / MIB, 3),
        "sim_mib_per_wall_sec": round(sim_bytes / MIB / wall, 2),
        "ops": sum(r.operations for r in results.values()),
        "nvcache_entries_created": stack.nvcache.stats.entries_created,
    }


WORKLOADS = {
    "fio_seq_write": lambda: bench_fio("write"),
    "fio_randrw": lambda: bench_fio("randrw", size_mib=4),
    "db_bench": lambda: bench_db_bench(),
}


def profile_workload(name: str, top: int = 30) -> None:
    """Run one workload under cProfile and print the ``top`` entries by
    cumulative time. Ordering is deterministic: ties on cumulative time
    break on the printed function name, so two profiles of the same
    engine diff cleanly even when the timings jitter."""
    import cProfile
    import pstats

    runner = WORKLOADS[name]
    profiler = cProfile.Profile()
    profiler.enable()
    record = runner()
    profiler.disable()
    print(f"profile: {name} ({record['events']} events, "
          f"{record['wall_seconds']:.3f}s wall)")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative", "name")
    stats.print_stats(top)


def scheduler_microbench(n: int = 200_000) -> dict:
    """Heap vs calendar queue in isolation: the same deterministic
    push/pop schedule (97% short holds, 3% far-future "ladder overflow"
    times, working set ~64 pending entries — the engine's shape) driven
    through ``heapq`` and through :class:`repro.sim.CalendarQueue`."""
    import heapq
    import random

    from repro.sim import CalendarQueue

    rng = random.Random(42)
    delays = [rng.choice((1e-6, 2e-6, 5e-6, 1e-3))
              if rng.random() < 0.97 else rng.uniform(1.0, 100.0)
              for _ in range(n)]

    def drive(push, pop, length) -> float:
        start = time.perf_counter()
        now = 0.0
        for seq, delay in enumerate(delays):
            push((now + delay, seq, None, ()))
            if length() > 64:
                now = pop()[0]
        while length():
            now = pop()[0]
        return time.perf_counter() - start

    heap = []
    heap_wall = drive(lambda e: heapq.heappush(heap, e),
                      lambda: heapq.heappop(heap), lambda: len(heap))
    queue = CalendarQueue()
    calendar_wall = drive(queue.push, queue.pop, queue.__len__)
    ops = 2 * n
    print(f"scheduler microbenchmark ({n} entries, push+pop)")
    print(f"  binary heap   : {ops / heap_wall:12,.0f} ops/s "
          f"({heap_wall:.3f}s)")
    print(f"  calendar queue: {ops / calendar_wall:12,.0f} ops/s "
          f"({calendar_wall:.3f}s)")
    print(f"  calendar/heap : {heap_wall / calendar_wall:.2f}x")
    return {"heap_ops_per_sec": round(ops / heap_wall, 1),
            "calendar_ops_per_sec": round(ops / calendar_wall, 1),
            "speedup": round(heap_wall / calendar_wall, 2)}


def measure_all() -> dict:
    measurements = {}
    for name, runner in WORKLOADS.items():
        print(f"  running {name} ...", flush=True)
        measurements[name] = runner()
    return measurements


def _current_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
            timeout=10).stdout.strip() or "unknown"
    except Exception:  # noqa: BLE001 — git absent / not a checkout
        return "unknown"


def append_history(results: dict, measured: dict) -> None:
    """Record this run (headline numbers only) at the end of the
    bounded history list; oldest entries fall off past HISTORY_LIMIT."""
    entry = {
        "commit": _current_commit(),
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "workloads": {
            name: {"events": record["events"],
                   "events_per_sec": record["events_per_sec"],
                   "sim_mib_per_wall_sec": record["sim_mib_per_wall_sec"],
                   "wall_seconds": record["wall_seconds"]}
            for name, record in measured.items()},
    }
    history = results.setdefault("history", [])
    history.append(entry)
    del history[:-HISTORY_LIMIT]


def check_reference(results: dict, name: str):
    """The events/sec baseline ``--check`` compares against: the newest
    history entry that covers ``name``, else the legacy ``after``
    snapshot. Returns ``(events_per_sec, source)`` or ``(None, None)``."""
    for entry in reversed(results.get("history", [])):
        record = entry.get("workloads", {}).get(name)
        if record and record.get("events_per_sec"):
            return (record["events_per_sec"],
                    f"history@{entry.get('commit', '?')}")
    after = results["workloads"].get(name, {}).get("after")
    if after and after.get("events_per_sec"):
        return after["events_per_sec"], "after"
    return None, None


def load_results() -> dict:
    if not os.path.exists(RESULTS_PATH):
        return {"schema": 1, "scale": SCALE_FACTOR, "workloads": {}}
    with open(RESULTS_PATH) as handle:
        return json.load(handle)


def save_results(results: dict) -> None:
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def print_table(results: dict) -> None:
    header = (f"{'workload':<16} {'events/s':>12} {'MiB/s (sim)':>12} "
              f"{'wall s':>8} {'vs before':>10}")
    print(header)
    print("-" * len(header))
    for name, entry in results["workloads"].items():
        after = entry.get("after") or {}
        before = entry.get("before") or {}
        speedup = ""
        if before.get("events_per_sec") and after.get("events_per_sec"):
            speedup = f"{after['events_per_sec'] / before['events_per_sec']:.2f}x"
        print(f"{name:<16} {after.get('events_per_sec', 0):>12,.0f} "
              f"{after.get('sim_mib_per_wall_sec', 0):>12,.2f} "
              f"{after.get('wall_seconds', 0):>8.2f} {speedup:>10}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the 'after' snapshots in BENCH_engine.json")
    parser.add_argument("--baseline", action="store_true",
                        help="record this run as the 'before' snapshots")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if events/sec regressed more than "
                             f"{CHECK_TOLERANCE:.0%} vs BENCH_engine.json")
    parser.add_argument("--profile", metavar="WORKLOAD", default=None,
                        choices=sorted(WORKLOADS),
                        help="run one workload under cProfile and print the "
                             "top functions by cumulative time")
    parser.add_argument("--top", type=int, default=30,
                        help="rows to print with --profile (default 30)")
    parser.add_argument("--microbench", action="store_true",
                        help="run the scheduler microbenchmark "
                             "(heap vs calendar queue) and exit")
    args = parser.parse_args(argv)

    if args.profile:
        profile_workload(args.profile, top=args.top)
        return 0
    if args.microbench:
        scheduler_microbench()
        return 0

    results = load_results()
    print(f"engine benchmark (REPRO scale {SCALE_FACTOR})", flush=True)
    measured = measure_all()

    if args.check:
        failures = []
        for name, record in measured.items():
            reference, source = check_reference(results, name)
            if reference is None:
                continue
            floor = reference * (1.0 - CHECK_TOLERANCE)
            status = "ok" if record["events_per_sec"] >= floor else "REGRESSED"
            print(f"  {name}: {record['events_per_sec']:,.0f} ev/s "
                  f"({source} {reference:,.0f}, "
                  f"floor {floor:,.0f}) {status}")
            if record["events_per_sec"] < floor:
                failures.append(name)
        if failures:
            print(f"FAIL: events/sec regressed >{CHECK_TOLERANCE:.0%} on: "
                  + ", ".join(failures))
            return 1
        print("OK: no engine-speed regression")
        return 0

    key = "before" if args.baseline else "after"
    for name, record in measured.items():
        entry = results["workloads"].setdefault(name, {})
        entry[key] = record
        before = entry.get("before")
        after = entry.get("after")
        if before and after and before.get("events_per_sec"):
            entry["speedup_events_per_sec"] = round(
                after["events_per_sec"] / before["events_per_sec"], 2)
    if args.update or args.baseline:
        append_history(results, measured)
        save_results(results)
        print(f"wrote {RESULTS_PATH} "
              f"({len(results['history'])}/{HISTORY_LIMIT} history entries)")
    print_table(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
