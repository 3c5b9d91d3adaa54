"""The four benchmark workloads, driven through the stack's public API.

Each workload function builds a fresh stack, sets it up, runs one
measured phase, checks the program's outputs against a shadow model and
returns a :class:`Rep`. Inputs are a pure function of ``seed``; the
simulated results of a rep are a pure function of its inputs, so every
rep of one run must report the same digest.

Host time is split in two by a :class:`~hostspeed.PhaseTimer`:
``setup_s`` covers the stack build, prefill or namespace layout, and
the settle that drains the cache; ``wall_s`` covers the measured phase
only. Teardown, output checks and the power cut of ``fio_saturate`` are
in neither.

A ``SimulationError`` (a crashed simulated thread) in any phase is
caught: it becomes a failed output check, the requests it left
unfinished count as failed, and the rep still reports everything else.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional

from repro.apps import MiniSqlite
from repro.faults.explorer import CrashExplorer
from repro.harness import Scale, StorageStack, build_stack, nvcache_config
from repro.kernel.fd_table import O_CREAT, O_DIRECT, O_RDWR
from repro.obs import MetricsRegistry
from repro.obs.metrics import Histogram
from repro.sim import SimulationError
from repro.tenancy import TrafficEngine, make_mix, make_schedule
from repro.units import KIB
from repro.workloads import make_key, make_value

from hostspeed import PhaseTimer

BLOCK = 4 * KIB

#: Half-width, as a share of the ranks, of the band a percentile
#: averages over.
PERCENTILE_BAND = 0.005

#: Spans kept by the simulated tracer in a traced rep; sized above the
#: largest workload's span count so ``Tracer.attribution()`` is complete.
TRACE_CAPACITY = 2_000_000

# sqlite_sync: journaled B-tree, one autocommit transaction per insert.
SQL_SCALE = Scale(1024)          # 64 MiB log: the run never fills it
SQL_KEYSPACE = 4000
SQL_TXNS = 1200
SQL_OP_OVERHEAD = 2e-6           # db_bench's per-op application CPU

# fio_saturate: the paper's Fig 5 shape, 2.5x the log written.
FIO_LOG_ENTRIES = 2048           # 8 MiB log
FIO_BLOCKS = 5 * FIO_LOG_ENTRIES // 2
FIO_BATCH_MIN = 32               # cleanup batches scaled with the log
FIO_BATCH_MAX = 32

# paging_readmix: working set 1.5x the NVMM page slots.
PAGING_SLOTS = 1024
PAGING_BLOCKS = 3 * PAGING_SLOTS // 2
PAGING_OPS = 8000
PAGING_READ_SHARE = 0.7

# tenants_churn: 1000 logical tenants over 64 simulated workers.
TENANTS = 1000
TENANT_OPS = 8
TENANT_QUOTA = 32
TENANT_WORKERS = 64


@dataclass
class Rep:
    """One build-setup-measure-check cycle of a workload; ``timer``
    holds its host times."""

    timer: PhaseTimer
    sim_s: float                 # simulated length of the measured phase
    requests: int                # application requests completed
    attempted: int
    failed: int
    latencies: Dict[str, List[float]]  # "write"/"read"/"req" -> sim s
    fairness: float = 1.0
    errors: List[str] = field(default_factory=list)
    state: Dict[str, object] = field(default_factory=dict)
    stack: Optional[StorageStack] = None
    extra: Dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(self.state, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def percentile(sorted_values: List[float], q: float) -> float:
    """The q-quantile of an ascending list, estimated as the mean of the
    samples ranked within ``PERCENTILE_BAND`` of it (ranks 49.5% to
    50.5% for p50, 98.5% to 99.5% for p99); 0 for no samples.

    Simulated costs are discrete: a run's latencies sit on a few exact
    values, and a nearest-rank quantile that falls between two of them
    jumps from one to the other as the seed moves the mix by a fraction
    of a percent. The band mean moves in proportion instead."""
    count = len(sorted_values)
    if not count:
        return 0.0
    low = min(count - 1, max(0, math.floor((q - PERCENTILE_BAND) * count)))
    high = max(low + 1, min(count,
                            math.ceil((q + PERCENTILE_BAND) * count)))
    band = sorted_values[low:high]
    return sum(band) / len(band)


class SyscallProbe:
    """Simulated latency of every read and write call the application
    makes, taken at the libc boundary by wrapping the stack's libc
    instance. Samples are kept only while ``on``; written bytes are
    counted always (the base of ``block.write_amp``). Every call also
    lets ``timer`` sample the host speed when one is due."""

    def __init__(self, stack: StorageStack, timer: PhaseTimer):
        self.env = stack.env
        self.timer = timer
        self.on = False
        self.samples: Dict[str, List[float]] = {"write": [], "read": []}
        self.user_bytes = 0
        libc = stack.libc
        for name, kind in (("read", "read"), ("pread", "read"),
                           ("write", "write"), ("pwrite", "write")):
            setattr(libc, name, self._probe(getattr(libc, name), kind))

    def _probe(self, inner: Callable, kind: str) -> Callable:
        env = self.env
        sink = self.samples[kind]
        counts_bytes = kind == "write"
        maybe_tick = self.timer.maybe_tick

        def probed(*args):
            maybe_tick()
            if counts_bytes:
                self.user_bytes += len(args[1])
            start = env.now
            result = yield from inner(*args)
            if self.on:
                sink.append(env.now - start)
            return result

        return probed


def _trace_kwargs(traced: bool) -> dict:
    if not traced:
        return {}
    return {"tracing": True, "trace_capacity": TRACE_CAPACITY}


def sim_state(stack: StorageStack) -> Dict[str, object]:
    """The simulated results a rep must reproduce exactly: clock,
    dispatched events, and the cache, device and page-cache stats."""
    state: Dict[str, object] = {
        "clock": stack.env.now,
        "events_dispatched": stack.env.events_dispatched,
        "page_cache": asdict(stack.kernel.page_cache.stats),
    }
    if stack.nvcache is not None:
        state["cache"] = stack.nvcache.stats.as_dict()
    for name, device in sorted(stack.devices.items()):
        state[name] = asdict(device.stats)
    return state


def _defect(phase: str, exc: SimulationError) -> str:
    cause = exc.__cause__
    return (f"{phase}: simulation error: {exc}: "
            f"{type(cause).__name__}: {cause}")


def _run(env, process, name: str, errors: List[str]) -> bool:
    """Run one simulated process to completion. A ``SimulationError`` is
    recorded in ``errors`` instead of ending the benchmark; returns
    whether the process completed."""
    try:
        env.run_process(process, name=name)
    except SimulationError as exc:
        errors.append(_defect(name, exc))
        return False
    return True


def _payload(tag: int, block: int) -> bytes:
    return (b"%08x%08x" % (tag & 0xFFFFFFFF, block)) * (BLOCK // 16)


def _layout(stack: StorageStack, path: str, contents: Dict[int, bytes]):
    """Write the file's initial blocks, make them durable, then settle."""
    libc = stack.libc
    fd = yield from libc.open(path, O_CREAT | O_RDWR | O_DIRECT)
    for block, data in sorted(contents.items()):
        yield from libc.pwrite(fd, data, block * BLOCK)
    yield from libc.fsync(fd)
    yield from libc.close(fd)
    yield from stack.settle()


def _finish(rep: Rep, stack: StorageStack, traced: bool) -> Rep:
    """Fold the sim metrics into the digest state; keep the stack only
    when the caller needs it for per-layer metrics."""
    rep.state["metrics"] = sim_metrics(rep)
    if traced:
        rep.stack = stack
    return rep


def sim_metrics(rep: Rep) -> Dict[str, float]:
    metrics = {"sim_ops_per_s": rep.requests / rep.sim_s if rep.sim_s
               else 0.0,
               "fairness_jain": rep.fairness}
    for kind, values in rep.latencies.items():
        ordered = sorted(values)
        metrics[f"sim_{kind}_samples"] = len(ordered)
        metrics[f"sim_{kind}_p50_us"] = percentile(ordered, 0.50) * 1e6
        metrics[f"sim_{kind}_p99_us"] = percentile(ordered, 0.99) * 1e6
    return metrics


# ---------------------------------------------------------------------------
# sqlite_sync
# ---------------------------------------------------------------------------

def sqlite_sync(seed: int, traced: bool = False,
                system: str = "nvcache+ssd", read_back: bool = True) -> Rep:
    """MiniSqlite fillrandom then readrandom of every key (Fig 3).

    Set-up prefills every other key of the key space in one explicit
    transaction and settles. The measured phase runs ``SQL_TXNS``
    autocommit inserts (journal create, fsync, db write, fsync, unlink
    each), then reopens the database, as a separate db_bench run would,
    and reads back every key in a seeded order. Each request pays
    db_bench's per-op CPU before it is issued.

    At a few seeds (142 among them) the inserts crash the cleanup
    thread, the same known defect as ``tenants_churn`` at seed 42."""
    rng = random.Random(seed)
    prefill = {make_key(i): make_value(rng)
               for i in range(0, SQL_KEYSPACE, 2)}
    inserts = [(make_key(rng.randrange(SQL_KEYSPACE)), make_value(rng))
               for _ in range(SQL_TXNS)]
    shadow = dict(prefill)
    for key, value in inserts:
        shadow[key] = value
    order = sorted(shadow)
    rng.shuffle(order)

    timer = PhaseTimer(calibrated=not traced)
    stack = build_stack(system, scale=SQL_SCALE, **_trace_kwargs(traced))
    env = stack.env
    probe = SyscallProbe(stack, timer)
    path = "/bench.db"

    def setup():
        db = yield from MiniSqlite.open(stack.libc, path)
        yield from db.begin()
        for key, value in prefill.items():
            yield from db.insert(key, value)
        yield from db.commit()
        yield from db.close()
        yield from stack.settle()

    writes: List[float] = []
    reads: List[float] = []
    errors: List[str] = []
    marks: Dict[str, float] = {}
    ready = _run(env, setup(), "sqlite-setup", errors)
    timer.setup_done()

    def measured():
        db = yield from MiniSqlite.open(stack.libc, path)
        for key, value in inserts:
            began = env.now
            yield env.timeout(SQL_OP_OVERHEAD)
            yield from db.insert(key, value)
            writes.append(env.now - began)
        yield from db.close()
        marks["write_phase"] = env.now - sim_start
        if not read_back:
            return
        db = yield from MiniSqlite.open(stack.libc, path)
        for key in order:
            began = env.now
            yield env.timeout(SQL_OP_OVERHEAD)
            value = yield from db.select(key)
            reads.append(env.now - began)
            if value != shadow[key]:
                errors.append(f"sqlite_sync: key {key!r} read back "
                              f"{value!r:.40}, expected the latest insert")
        yield from db.close()

    sim_start = env.now
    probe.on = True
    if ready:
        _run(env, measured(), "sqlite-bench", errors)
    timer.measured_done()
    probe.on = False
    cache = stack.nvcache
    if cache is not None and cache.stats.log_full_waits:
        print(f"sqlite_sync: {cache.stats.log_full_waits} log-full waits; "
              "the log is meant to hold the whole run", file=sys.stderr)
    requests = len(writes) + len(reads)
    attempted = len(inserts) + (len(order) if read_back else 0)
    rep = Rep(timer=timer, sim_s=env.now - sim_start,
              requests=requests, attempted=attempted,
              failed=attempted - requests,
              latencies={"write": probe.samples["write"],
                         "read": probe.samples["read"],
                         "req": writes + reads},
              errors=errors, state=sim_state(stack),
              extra={"user_bytes": probe.user_bytes,
                     "write_phase_ops_per_s":
                         len(writes) / marks["write_phase"]
                         if marks.get("write_phase") else 0.0})
    return _finish(rep, stack, traced)


# ---------------------------------------------------------------------------
# fio_saturate
# ---------------------------------------------------------------------------

def fio_saturate(seed: int, traced: bool = False) -> Rep:
    """4 KiB random writes with fsync=1 and O_DIRECT, 2.5x the log size
    (Fig 5), then a verify pass reading every block back. After the
    measured phase the machine loses power; ``recover`` replays the NVMM
    crash image into a freshly booted kernel and every fsynced block
    must read back."""
    rng = random.Random(seed)
    targets = [rng.randrange(FIO_BLOCKS) for _ in range(FIO_BLOCKS)]
    shadow = {block: bytes(BLOCK) for block in range(FIO_BLOCKS)}

    timer = PhaseTimer(calibrated=not traced)
    config = nvcache_config(Scale(4096), log_bytes=FIO_LOG_ENTRIES * BLOCK,
                            batch_min=FIO_BATCH_MIN, batch_max=FIO_BATCH_MAX)
    stack = build_stack("nvcache+ssd", config=config, **_trace_kwargs(traced))
    env = stack.env
    probe = SyscallProbe(stack, timer)
    path = "/fio.dat"
    writes: List[float] = []
    reads: List[float] = []
    errors: List[str] = []
    ready = _run(env, _layout(stack, path, dict(shadow)), "fio-layout",
                 errors)
    timer.setup_done()

    def measured():
        libc = stack.libc
        fd = yield from libc.open(path, O_RDWR | O_DIRECT)
        for index, block in enumerate(targets):
            data = _payload(seed * FIO_BLOCKS + index, block)
            began = env.now
            yield from libc.pwrite(fd, data, block * BLOCK)
            yield from libc.fsync(fd)
            writes.append(env.now - began)
            shadow[block] = data
        for block in range(FIO_BLOCKS):
            began = env.now
            data = yield from libc.pread(fd, BLOCK, block * BLOCK)
            reads.append(env.now - began)
            if data != shadow[block]:
                errors.append(f"fio_saturate: block {block} verify read "
                              "differs from the last acknowledged write")

    sim_start = env.now
    probe.on = True
    done = ready and _run(env, measured(), "fio-job", errors)
    timer.measured_done()
    probe.on = False
    requests = len(writes) + len(reads)
    attempted = len(targets) + FIO_BLOCKS
    rep = Rep(timer=timer, sim_s=env.now - sim_start,
              requests=requests, attempted=attempted,
              failed=attempted - requests,
              latencies={"write": probe.samples["write"],
                         "read": probe.samples["read"],
                         "req": writes + reads},
              errors=errors, state=sim_state(stack),
              extra={"user_bytes": probe.user_bytes})
    if done:
        _power_cut_and_recover(stack, config, shadow, rep)
    return _finish(rep, stack, traced)


def _power_cut_and_recover(stack: StorageStack, config, shadow, rep: Rep):
    """Power-cut the machine and reboot it on the NVMM crash image with
    the crash explorer's sequence (volatile kernel, page-cache and SSD
    state dropped, filesystems remounted, ``recover`` run), then check
    every block. ``recovery_s`` times the whole reboot; ``recover`` is
    nearly all of it."""
    nvmm = stack.devices["log_nvmm"]
    began = time.perf_counter()
    try:
        env, kernel, _nvmm, report = CrashExplorer._crash_and_recover(
            stack.env, stack.kernel, [stack.devices["ssd"]], config,
            nvmm.name, nvmm.crash_image())
    except SimulationError as exc:
        rep.errors.append(_defect("fio_saturate recovery", exc))
        return
    rep.extra["recovery_s"] = time.perf_counter() - began
    rep.extra["recovery_entries_applied"] = report.entries_applied
    rep.state["recovery"] = {"entries_applied": report.entries_applied,
                             "entries_scanned": report.entries_scanned,
                             "clock": env.now}

    lost: List[int] = []

    def check():
        fd = yield from kernel.open("/fio.dat", O_RDWR)
        for block in range(FIO_BLOCKS):
            data = yield from kernel.pread(fd, BLOCK, block * BLOCK)
            if data != shadow[block]:
                lost.append(block)

    _run(env, check(), "recovery-check", rep.errors)
    if lost:
        rep.errors.append(f"fio_saturate: {len(lost)} fsynced blocks lost "
                          f"after power cut and recovery (first: {lost[0]})")


# ---------------------------------------------------------------------------
# paging_readmix
# ---------------------------------------------------------------------------

def paging_readmix(seed: int, traced: bool = False) -> Rep:
    """70/30 random read/write mix, fsync=1, O_DIRECT, on the paging
    cache design over a working set 1.5x its NVMM page slots."""
    rng = random.Random(seed)
    shadow = {block: _payload(seed ^ 0x5A5A5A5A, block)
              for block in range(PAGING_BLOCKS)}
    plan = [(rng.randrange(PAGING_BLOCKS), rng.random() < PAGING_READ_SHARE)
            for _ in range(PAGING_OPS)]

    timer = PhaseTimer(calibrated=not traced)
    config = replace(nvcache_config(Scale(4096)), cache_mode="paging",
                     paging_slots=PAGING_SLOTS)
    stack = build_stack("nvcache+ssd", config=config, **_trace_kwargs(traced))
    env = stack.env
    probe = SyscallProbe(stack, timer)
    path = "/paging.dat"
    requests: List[float] = []
    errors: List[str] = []
    ready = _run(env, _layout(stack, path, dict(shadow)), "paging-layout",
                 errors)
    timer.setup_done()

    def measured():
        libc = stack.libc
        fd = yield from libc.open(path, O_RDWR | O_DIRECT)
        for index, (block, is_read) in enumerate(plan):
            began = env.now
            if is_read:
                data = yield from libc.pread(fd, BLOCK, block * BLOCK)
                if data != shadow[block]:
                    errors.append(f"paging_readmix: op {index} read of "
                                  f"block {block} differs from the last "
                                  "acknowledged write")
            else:
                data = _payload(seed * PAGING_OPS + index, block)
                yield from libc.pwrite(fd, data, block * BLOCK)
                yield from libc.fsync(fd)
                shadow[block] = data
            requests.append(env.now - began)

    sim_start = env.now
    probe.on = True
    if ready:
        _run(env, measured(), "paging-job", errors)
    timer.measured_done()
    probe.on = False
    rep = Rep(timer=timer, sim_s=env.now - sim_start,
              requests=len(requests), attempted=len(plan),
              failed=len(plan) - len(requests),
              latencies={"write": probe.samples["write"],
                         "read": probe.samples["read"],
                         "req": requests},
              errors=errors, state=sim_state(stack),
              extra={"user_bytes": probe.user_bytes})
    return _finish(rep, stack, traced)


# ---------------------------------------------------------------------------
# tenants_churn
# ---------------------------------------------------------------------------

class _ExactHistogram(Histogram):
    """A histogram that also keeps every observation, so percentiles
    are exact rather than bucket estimates."""

    __slots__ = ("samples", "on_observe")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.samples: List[float] = []
        self.on_observe = None

    def observe(self, value: float, trace_id: Optional[int] = None) -> None:
        super().observe(value, trace_id)
        self.samples.append(value)
        if self.on_observe is not None:
            self.on_observe()


class _ExactRegistry(MetricsRegistry):
    def histogram(self, name: str, unit: str = "s", help: str = "",
                  start: float = 1e-7, factor: float = 2.0,
                  buckets: int = 40) -> Histogram:
        return self.register(_ExactHistogram(name, unit, help, start=start,
                                             factor=factor, buckets=buckets))


def tenants_churn(seed: int, traced: bool = False) -> Rep:
    """Open loop: 1000 tenants of the default kind mix, per-tenant log
    quotas, bursty arrivals, 64 simulated workers. Latency runs from
    each request's scheduled arrival to its completion.

    A ``SimulationError`` ends the run early (at seed 42 it is a known
    defect of the cleanup thread); every request must complete."""
    specs = make_mix(TENANTS, seed=seed, operations=TENANT_OPS,
                     quota_entries=TENANT_QUOTA)
    planned = sum(spec.operations for spec in specs)

    timer = PhaseTimer(calibrated=not traced)
    engine = TrafficEngine(
        specs, workers=TENANT_WORKERS, seed=seed,
        schedule=make_schedule("bursty", duration=1.0), tracing=traced,
        stack_kwargs={"trace_capacity": TRACE_CAPACITY} if traced else None)
    stack = engine.build()
    env = stack.env
    probe = SyscallProbe(stack, timer)
    registry = _ExactRegistry()
    engine.register_metrics(registry)
    latency = registry.get("tenancy.engine.request_latency")
    marks: Dict[str, float] = {}

    def traffic_done():
        if latency.count == planned:
            probe.on = False
            timer.measured_done()
            marks["end_sim"] = env.now

    latency.on_observe = traffic_done
    settle = stack.settle

    def settle_then_measure():
        yield from settle()
        timer.setup_done()
        probe.on = True
        marks["start_sim"] = env.now

    stack.settle = settle_then_measure

    errors: List[str] = []
    try:
        engine.run()
    except SimulationError as exc:
        errors.append(_defect(f"tenants_churn seed {seed}", exc))
        if "start_sim" not in marks:
            timer.setup_done()
            marks["start_sim"] = env.now
        if "end_sim" not in marks:
            probe.on = False
            timer.measured_done()
            marks["end_sim"] = env.now
    completed = int(registry.get("tenancy.engine.requests_completed").value())
    dispatched = int(registry.get("tenancy.engine.requests_total").value())
    if dispatched != completed or completed != planned:
        errors.append(f"tenants_churn: {planned} requests planned, "
                      f"{dispatched} dispatched, {completed} completed")
    queue_waits = sorted(registry.get("tenancy.engine.queue_wait").samples)
    qos = engine.qos
    rep = Rep(timer=timer, sim_s=marks["end_sim"] - marks["start_sim"],
              requests=completed, attempted=planned,
              failed=planned - completed,
              latencies={"write": probe.samples["write"],
                         "read": probe.samples["read"],
                         "req": list(latency.samples)},
              fairness=engine.current_jain(), errors=errors,
              state=sim_state(stack),
              extra={"user_bytes": probe.user_bytes,
                     "queue_wait_p99_s": (percentile(queue_waits, 0.99)
                                          if queue_waits else 0.0),
                     "quota_wait_s": sum(tenant.quota_wait_s
                                         for tenant in qos.tenants())})
    rep.state["requests"] = {"planned": planned, "completed": completed,
                             "dispatched": dispatched}
    return _finish(rep, stack, traced)


WORKLOADS: Dict[str, Callable[..., Rep]] = {
    "sqlite_sync": sqlite_sync,
    "fio_saturate": fio_saturate,
    "tenants_churn": tenants_churn,
    "paging_readmix": paging_readmix,
}


def collect_garbage() -> None:
    """Collect between reps, outside any timed region. Simulated
    threads of a powered-off machine are collected here; closing them
    may raise inside their (now meaningless) ``finally`` blocks, which
    Python reports as unraisable, so the report is muted."""
    hook = sys.unraisablehook
    sys.unraisablehook = lambda _args: None
    try:
        gc.collect()
    finally:
        sys.unraisablehook = hook
