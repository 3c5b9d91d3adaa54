"""The repo benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fio_saturate --seed 1 --seconds 25 --trace 0

It imports the simulator from ``src/`` of the current directory, repeats
the workload (build, set up, measure, check) until ``--seconds`` have
passed, and prints one JSON object as the last line of standard output:
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(host times as medians over the reps, scaled to a reference host speed
by ``hostspeed.py``); with ``--trace 1`` untraced and traced reps
alternate and the metrics are the per-layer ones. Lines before the JSON
give every metric with its unit and sample count, the host, each rep's
measured times and host-speed samples, and the simulated-result digest.

Exit status: 0 when every output check passed; 1 when a check failed
(each failed check is printed on standard error, and the JSON is still
printed, with ``"correct": false``); 2 when the
benchmark cannot run (no ``src/repro`` here, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
PAPER_FIG3_SQLITE_RATIO = 1.6    # NVCache over NOVA, SQLite fillrandom


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_simulator(root: Path) -> None:
    """Put ``root/src`` first on the path and insist that ``repro`` is
    imported from there, never from an installed copy."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no simulator sources at {src}/repro; run from the root of "
             "a checkout")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {src}")


def host_description() -> str:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()}"
            f" cpu={model!r}")


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# end-to-end
# ---------------------------------------------------------------------------

def end_to_end(reps, peak_rss_mib: float) -> Dict[str, float]:
    sim = reps[0].state["metrics"]
    values = {
        "wall_s": statistics.median(rep.timer.scaled()[1] for rep in reps),
        "setup_s": statistics.median(rep.timer.scaled()[0] for rep in reps),
        "peak_rss_mib": peak_rss_mib,
    }
    values.update((name, value) for name, value in sim.items()
                  if not name.endswith("_samples"))
    return values


def sample_counts(rep) -> Dict[str, int]:
    sim = rep.state["metrics"]
    return {f"sim_{kind}_{q}_us": sim[f"sim_{kind}_samples"]
            for kind in ("write", "read", "req") for q in ("p50", "p99")}


def check_tail_samples(rep) -> List[str]:
    """A p99 needs at least ten samples beyond it."""
    problems = []
    for kind, values in rep.latencies.items():
        beyond = len(values) - math.ceil(0.99 * len(values))
        if beyond < 10:
            problems.append(f"sim_{kind}_p99_us: {len(values)} samples, "
                            f"only {beyond} beyond p99")
    return problems


# ---------------------------------------------------------------------------
# per layer
# ---------------------------------------------------------------------------

def per_layer(rep, profiler, overhead: float, untraced) -> Dict[str, float]:
    from repro.block.device import BlockDevice
    from repro.nvmm import NvmmDevice

    stack = rep.stack
    attribution = stack.tracer.attribution()
    cache = stack.nvcache.stats if stack.nvcache is not None else None
    logging = cache is not None and hasattr(cache, "entries_created")
    paging = cache is not None and hasattr(cache, "page_hits")
    page_cache = stack.kernel.page_cache.stats
    blocks = [d for d in stack.devices.values() if isinstance(d, BlockDevice)]
    nvmms = [d for d in stack.devices.values() if isinstance(d, NvmmDevice)]

    def ratio(part: float, base: float) -> float:
        return part / base if base else 0.0

    def layer(name: str) -> Dict[str, float]:
        return {f"{name}.calls": profiler.calls.get(name, 0),
                f"{name}.self_s": profiler.self_s.get(name, 0.0)}

    def method(*keys: str):
        calls = sum(profiler.method_calls.get(key, 0) for key in keys)
        seconds = sum(profiler.method_s.get(key, 0.0) for key in keys)
        return calls, seconds

    pending_calls, pending_s = method("NvmmLog.pending_removal")
    victims_calls, victims_s = method("CachePolicy.victims",
                                      "AlruPolicy.victims")
    invalidate_calls, invalidate_s = method("PageCache.invalidate")
    read_cache_lookups = (cache.read_hits + cache.read_misses
                          if logging else 0)
    paging_lookups = cache.page_hits + cache.page_misses if paging else 0
    entries = (cache.entries_created if logging
               else cache.txn_commits if paging else 0)
    pfences = sum(d.stats.pfences for d in nvmms)
    user_bytes = rep.extra["user_bytes"]
    block_bytes = sum(d.stats.bytes_written for d in blocks)
    recovery = [r.extra["recovery_s"] for r in untraced
                if "recovery_s" in r.extra]

    values: Dict[str, float] = {
        "sim.events": stack.env.events_dispatched,
        "sim.timeouts": profiler.method_calls.get("Environment.timeout", 0),
        "sim.self_s": profiler.self_s.get("sim", 0.0),
        **layer("libc"),
        **layer("core"),
        "core.log.pending_removal_calls": pending_calls,
        "core.log.pending_removal_s": pending_s,
        "core.log.header_reads": method("NvmmLog.read_header")[0],
        "core.log.clear_entries_s": method("NvmmLog.clear_entries")[1],
        "core.cleanup.batches": cache.cleanup_batches if logging else 0,
        "core.cleanup.entries": cache.cleanup_entries if logging else 0,
        "core.cleanup.fsyncs": cache.cleanup_fsyncs if logging else 0,
        "core.log_full_waits": cache.log_full_waits if logging else 0,
        "core.log_full_wait_s": attribution.get("core.log_full_wait", 0.0),
        "core.retire_s": attribution.get("core.retire", 0.0),
        "core.read_cache.hit_ratio":
            ratio(cache.read_hits, read_cache_lookups) if logging else 0.0,
        "core.read_cache.lookups": read_cache_lookups,
        "core.paging.hit_ratio":
            ratio(cache.page_hits, paging_lookups) if paging else 0.0,
        "core.paging.lookups": paging_lookups,
        "core.paging.evictions": cache.evictions if paging else 0,
        "core.policies.victims_calls": victims_calls,
        "core.policies.victims_s": victims_s,
        "core.qos.quota_wait_s": rep.extra.get("quota_wait_s", 0.0),
        "core.recovery.s": statistics.median(recovery) if recovery else 0.0,
        "core.recovery.entries_applied":
            rep.extra.get("recovery_entries_applied", 0),
        "tenancy.queue_wait_p99_us":
            rep.extra.get("queue_wait_p99_s", 0.0) * 1e6,
        "tenancy.self_s": profiler.self_s.get("tenancy", 0.0),
        **layer("kernel"),
        "kernel.page_cache.hit_ratio":
            ratio(page_cache.hits, page_cache.hits + page_cache.misses),
        "kernel.page_cache.lookups": page_cache.hits + page_cache.misses,
        "kernel.page_cache.writeback_pages": page_cache.writeback_pages,
        "kernel.page_cache.invalidate_calls": invalidate_calls,
        "kernel.page_cache.invalidate_s": invalidate_s,
        "kernel.page_cache.truncate_s": method("PageCache.truncate")[1],
        **layer("fs"),
        "fs.journal_cpu_s": attribution.get("fs.journal_cpu", 0.0),
        "block.writes": sum(d.stats.writes for d in blocks),
        "block.flushes": sum(d.stats.flushes for d in blocks),
        "block.write_amp": ratio(block_bytes, user_bytes),
        "block.user_bytes": user_bytes,
        "block.busy_s": sum(d.stats.busy_time for d in blocks),
        "block.queue_wait_s": attribution.get("block.queue_wait", 0.0),
        "nvmm.stores": sum(d.stats.stores for d in nvmms),
        "nvmm.loads": sum(d.stats.loads for d in nvmms),
        "nvmm.pfences": pfences,
        "nvmm.pfences_per_entry": ratio(pfences, entries),
        "nvmm.entries": entries,
        "nvmm.self_s": profiler.self_s.get("nvmm", 0.0),
        "nvmm.fence_s": attribution.get("nvmm.fence", 0.0),
        **layer("apps.sqldb"),
        "apps.kvstore.self_s": profiler.self_s.get("apps.kvstore", 0.0),
        "trace.overhead": overhead,
        "trace.spans_dropped": stack.tracer.dropped,
    }
    return values


def paper_fig3(seed: int, nvcache_rep, errors: List[str]) -> Dict[str, float]:
    """The sqlite_sync write phase once more on NOVA: the model's
    NVCache-over-NOVA transaction rate against the paper's ~1.6x. The
    NOVA run's failed checks are added to ``errors``."""
    from workloads import sqlite_sync
    nova = sqlite_sync(seed, system="nova", read_back=False)
    errors.extend(nova.errors)
    nova_rate = nova.extra["write_phase_ops_per_s"]
    ratio = (nvcache_rep.extra["write_phase_ops_per_s"] / nova_rate
             if nova_rate else 0.0)
    return {"paper.fig3_sqlite_nvcache_over_nova": ratio,
            "paper.fig3_sqlite_model_error":
                abs(ratio / PAPER_FIG3_SQLITE_RATIO - 1.0)}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run(args, spec: dict) -> int:
    from layers import LayerProfiler
    from workloads import WORKLOADS, collect_garbage

    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    untraced, traced = [], []
    profiler = None
    while True:
        collect_garbage()
        untraced.append(workload(args.seed))
        if len(untraced) == 1:
            # Peak of a process that ran the workload once: later reps
            # would add allocator fragmentation that grows with how many
            # reps the host's speed allows.
            peak_rss_mib = (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0)
        if args.trace:
            collect_garbage()
            profiler = LayerProfiler()
            profiler.install()
            try:
                rep = workload(args.seed, traced=True)
            finally:
                profiler.uninstall()
            for older in traced:
                older.stack = None
            traced.append(rep)
        elapsed = time.perf_counter() - started
        # Stop at the rep boundary nearest to --seconds.
        per_round = elapsed / len(untraced)
        enough = args.trace or len(untraced) >= MIN_REPS
        if enough and elapsed + per_round / 2 >= args.seconds:
            break

    reps = untraced + traced
    # Every rep of a run repeats the same checks; report each failure once.
    errors = list(dict.fromkeys(error for rep in reps
                                for error in rep.errors))
    errors += check_tail_samples(untraced[0])
    digests = sorted({rep.digest() for rep in reps})
    if len(digests) != 1:
        errors.append(f"simulated results differ between reps: {digests}")

    print(host_description())
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} "
          f"untraced reps, {len(traced)} traced reps in {elapsed:.1f} s")
    print(f"digest {digests[0]}")
    for label, group in (("untraced", untraced), ("traced", traced)):
        for rep in group:
            timer = rep.timer
            print(f"{label} rep: measured setup_s {timer.setup_s:.4f} "
                  f"wall_s {timer.wall_s:.4f}; host speed samples "
                  + " ".join(f"{value:.4f}" for value in timer.setup_speed)
                  + " | "
                  + " ".join(f"{value:.4f}" for value in timer.wall_speed))
    if args.trace:
        # Traced and untraced reps alternate, so host drift hits both.
        overhead = (statistics.median(rep.timer.wall_s for rep in traced)
                    / statistics.median(rep.timer.wall_s for rep in untraced))
        values = per_layer(traced[-1], profiler, overhead, untraced)
        if args.workload == "sqlite_sync":
            values.update(paper_fig3(args.seed, untraced[0], errors))
        else:
            values.update({"paper.fig3_sqlite_nvcache_over_nova": 0.0,
                           "paper.fig3_sqlite_model_error": 0.0})
        declared = spec["per_layer"]
        counts: Dict[str, int] = {}
    else:
        values = end_to_end(untraced, peak_rss_mib)
        declared = spec["end_to_end"]
        counts = sample_counts(untraced[0])
    names = [entry["name"] for entry in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} are "
                           "not both computed and declared in BENCHMARK.json")
    metrics = {}
    for entry in declared:
        name = entry["name"]
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        samples = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name:<40} {values[name]:>18.6f} {entry['unit']}{samples}")
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    import_simulator(root)
    sys.path.insert(0, str(HERE))
    spec = load_spec(root)
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}")
    status = run(args, spec)
    from workloads import collect_garbage
    collect_garbage()
    return status


if __name__ == "__main__":
    sys.exit(main())
