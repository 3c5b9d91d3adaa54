"""Logical clients for the traffic engine: one tenant, one workload kind.

A client is NOT a process — it is a plan. Construction precomputes the
whole op stream from the tenant's derived seed (docs/WORKLOADS.md
determinism contract: no RNG draws at execution time, so op results
cannot depend on worker interleaving). The engine's worker pool then
executes ``run_op(index)`` in arrival order against the tenant's
:class:`~repro.libc.tenant.TenantLibc`, which scopes every path under
``/tenants/<id>`` and binds the tenant's QoS context for the call.

Kinds mirror the repo's standalone drivers at client scale:

- ``fio``      — random 4 KiB read/write mix over one preallocated file;
- ``db_bench`` — fillseq-style appends with periodic fsync;
- ``ycsb``     — Zipfian read-mostly page accesses (B-like mix);
- ``kvstore``  — MiniRocks put/get (WAL + LSM);
- ``sqldb``    — MiniSqlite insert/select (journaled pager).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from ..apps.kvstore import KVOptions, MiniRocks
from ..apps.sqldb import MiniSqlite
from ..kernel.fd_table import O_CREAT, O_RDWR
from ..libc.tenant import TenantLibc
from ..sim import zipf_ranks
from .schedule import derive_seed

PAGE = 4096

#: kind -> weight of the default tenant mix (file-backed kinds dominate
#: so thousand-client runs stay cheap; the store-backed kinds keep the
#: WAL/journal namespace paths exercised).
DEFAULT_MIX = {"fio": 0.30, "db_bench": 0.20, "ycsb": 0.30,
               "kvstore": 0.10, "sqldb": 0.10}

#: io_class assignment cycle for make_mix (one per DEFAULT_CLASSES).
_CLASS_CYCLE = ("interactive", "standard", "batch")


@dataclass(frozen=True)
class TenantSpec:
    """Everything that defines one logical client, all derivable from
    the run seed — specs are plain data so sweeps can ship them across
    process boundaries."""

    tenant_id: str
    kind: str
    io_class: str = "standard"
    operations: int = 32
    quota_entries: Optional[int] = None
    weight: float = 1.0
    seed: int = 0


class TenantClient:
    """Base client: derived-seed RNG at construction, no draws later."""

    def __init__(self, spec: TenantSpec, libc: TenantLibc):
        self.spec = spec
        self.libc = libc
        self._plan: List[Tuple] = []
        self._build_plan(random.Random(derive_seed(spec.seed, spec.tenant_id,
                                                   spec.kind)))

    def _build_plan(self, rng: random.Random) -> None:
        raise NotImplementedError

    @property
    def operations(self) -> int:
        return len(self._plan)

    def setup(self) -> Generator:
        yield from self.libc.setup()

    def run_op(self, index: int) -> Generator:
        raise NotImplementedError

    def teardown(self) -> Generator:
        yield from ()


def _payload(rng: random.Random, size: int) -> bytes:
    """Deterministic pseudo-random payload: 4 bytes per 32-bit word, like
    the ycsb driver's value generator. One wide draw fills the words
    least significant first, so it equals one draw per word, packed
    little-endian, and leaves the generator in the same state."""
    words = max(1, size // 4)
    return rng.getrandbits(32 * words).to_bytes(4 * words, "little")


class FioClient(TenantClient):
    """Random-access mix over one file: 70% 4 KiB pwrite, 30% pread."""

    FILE_PAGES = 8

    def _build_plan(self, rng: random.Random) -> None:
        for _ in range(self.spec.operations):
            page = rng.randrange(self.FILE_PAGES)
            if rng.random() < 0.7:
                self._plan.append(("pwrite", page * PAGE,
                                   _payload(rng, PAGE)))
            else:
                self._plan.append(("pread", page * PAGE))

    def setup(self) -> Generator:
        yield from super().setup()
        self.fd = yield from self.libc.open("/fio.dat", O_CREAT | O_RDWR)
        yield from self.libc.pwrite(self.fd, b"\0" * (self.FILE_PAGES * PAGE), 0)

    def run_op(self, index: int) -> Generator:
        op = self._plan[index]
        if op[0] == "pwrite":
            yield from self.libc.pwrite(self.fd, op[2], op[1])
        else:
            yield from self.libc.pread(self.fd, PAGE, op[1])

    def teardown(self) -> Generator:
        yield from self.libc.fsync(self.fd)
        yield from self.libc.close(self.fd)


class DbBenchClient(TenantClient):
    """fillseq: append fixed-size values, fsync every SYNC_EVERY."""

    VALUE_SIZE = 1024
    SYNC_EVERY = 8

    def _build_plan(self, rng: random.Random) -> None:
        for index in range(self.spec.operations):
            self._plan.append(("append", index * self.VALUE_SIZE,
                               _payload(rng, self.VALUE_SIZE),
                               (index + 1) % self.SYNC_EVERY == 0))

    def setup(self) -> Generator:
        yield from super().setup()
        self.fd = yield from self.libc.open("/db_bench.log", O_CREAT | O_RDWR)

    def run_op(self, index: int) -> Generator:
        _op, offset, value, sync = self._plan[index]
        yield from self.libc.pwrite(self.fd, value, offset)
        if sync:
            yield from self.libc.fdatasync(self.fd)

    def teardown(self) -> Generator:
        yield from self.libc.fdatasync(self.fd)
        yield from self.libc.close(self.fd)


class YcsbClient(TenantClient):
    """Workload-B-like mix (95% read, 5% update) with Zipfian pages."""

    RECORD_PAGES = 8
    THETA = 0.99
    READ_FRACTION = 0.95

    def _build_plan(self, rng: random.Random) -> None:
        ranks = zipf_ranks(rng, self.RECORD_PAGES, self.spec.operations,
                           self.THETA)
        for rank in ranks:
            if rng.random() < self.READ_FRACTION:
                self._plan.append(("pread", rank * PAGE))
            else:
                self._plan.append(("pwrite", rank * PAGE,
                                   _payload(rng, PAGE)))

    def setup(self) -> Generator:
        yield from super().setup()
        self.fd = yield from self.libc.open("/ycsb.dat", O_CREAT | O_RDWR)
        yield from self.libc.pwrite(self.fd, b"\0" * (self.RECORD_PAGES * PAGE), 0)

    def run_op(self, index: int) -> Generator:
        op = self._plan[index]
        if op[0] == "pread":
            yield from self.libc.pread(self.fd, PAGE, op[1])
        else:
            yield from self.libc.pwrite(self.fd, op[2], op[1])

    def teardown(self) -> Generator:
        yield from self.libc.fsync(self.fd)
        yield from self.libc.close(self.fd)


class KvstoreClient(TenantClient):
    """MiniRocks put/get, 50/50, keys drawn from a small hot set."""

    KEYSPACE = 64
    VALUE_SIZE = 64

    def _build_plan(self, rng: random.Random) -> None:
        for _ in range(self.spec.operations):
            key = b"%08d" % rng.randrange(self.KEYSPACE)
            if rng.random() < 0.5:
                self._plan.append(("put", key,
                                   _payload(rng, self.VALUE_SIZE)))
            else:
                self._plan.append(("get", key))

    def setup(self) -> Generator:
        yield from super().setup()
        self.db = yield from MiniRocks.open(
            self.libc, "/kv", KVOptions(memtable_bytes=64 * 1024))

    def run_op(self, index: int) -> Generator:
        op = self._plan[index]
        if op[0] == "put":
            yield from self.db.put(op[1], op[2])
        else:
            yield from self.db.get(op[1])

    def teardown(self) -> Generator:
        yield from self.db.close()


class SqldbClient(TenantClient):
    """MiniSqlite insert/select, 50/50, autocommit transactions."""

    KEYSPACE = 64
    VALUE_SIZE = 48

    def _build_plan(self, rng: random.Random) -> None:
        for _ in range(self.spec.operations):
            key = b"row-%06d" % rng.randrange(self.KEYSPACE)
            if rng.random() < 0.5:
                self._plan.append(("insert", key,
                                   _payload(rng, self.VALUE_SIZE)))
            else:
                self._plan.append(("select", key))

    def setup(self) -> Generator:
        yield from super().setup()
        self.db = yield from MiniSqlite.open(self.libc, "/sql.db")

    def run_op(self, index: int) -> Generator:
        op = self._plan[index]
        if op[0] == "insert":
            yield from self.db.insert(op[1], op[2])
        else:
            yield from self.db.select(op[1])

    def teardown(self) -> Generator:
        yield from self.db.close()


CLIENT_KINDS = {
    "fio": FioClient,
    "db_bench": DbBenchClient,
    "ycsb": YcsbClient,
    "kvstore": KvstoreClient,
    "sqldb": SqldbClient,
}


def make_client(spec: TenantSpec, libc: TenantLibc) -> TenantClient:
    try:
        factory = CLIENT_KINDS[spec.kind]
    except KeyError:
        raise ValueError(f"unknown client kind {spec.kind!r}; "
                         f"one of {sorted(CLIENT_KINDS)}") from None
    return factory(spec, libc)


def make_mix(tenants: int, seed: int = 0, operations: int = 32,
             mix: Optional[dict] = None,
             quota_entries: Optional[int] = None) -> List[TenantSpec]:
    """A deterministic tenant population: kinds drawn from ``mix``
    weights with a derived RNG, io_classes assigned round-robin, every
    tenant seeded independently (so a sharded sweep that rebuilds only
    its own tenants gets identical plans)."""
    weights = mix or DEFAULT_MIX
    kinds = sorted(weights)
    rng = random.Random(derive_seed(seed, "mix", tenants))
    specs: List[TenantSpec] = []
    for index in range(tenants):
        kind = rng.choices(kinds, weights=[weights[k] for k in kinds])[0]
        specs.append(TenantSpec(
            tenant_id=f"t{index:04d}",
            kind=kind,
            io_class=_CLASS_CYCLE[index % len(_CLASS_CYCLE)],
            operations=operations,
            quota_entries=quota_entries,
            seed=seed,
        ))
    return specs
