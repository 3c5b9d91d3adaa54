"""MiniRocks: a log-structured-merge key/value store (the RocksDB
stand-in exercised by db_bench in the paper's Fig 3).

Architecture — the standard LSM shape:

- every mutation is appended to the WAL (fsync per write in sync mode)
  and applied to the memtable;
- a full memtable is flushed as an L0 SSTable;
- size-tiered compaction: when a level holds more than ``level_limit``
  tables, they are merged (newest wins) into a single table at the next
  level; tombstones are dropped when merging into the deepest level;
- a MANIFEST file lists live tables and is replaced atomically
  (write-temp + rename), after which obsolete files are unlinked.

The I/O pattern — small synchronous WAL appends on the write path, bulk
sequential writes on flush/compaction, indexed point reads — is exactly
what NVCache's evaluation leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ...kernel.errno import ENOENT
from ...kernel.fd_table import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
from .memtable import Memtable
from .sstable import SSTable, SSTableWriter
from .wal import WriteAheadLog


@dataclass
class KVOptions:
    """Tuning knobs (defaults sized for simulation workloads)."""

    sync: bool = True               # fsync the WAL on every write
    memtable_bytes: int = 1 << 20   # flush threshold
    level_limit: int = 4            # tables per level before compaction
    max_levels: int = 4


@dataclass
class KVStats:
    puts: int = 0
    gets: int = 0
    deletes: int = 0
    flushes: int = 0
    compactions: int = 0
    wal_replay_records: int = 0


class MiniRocks:
    """The public key/value API: put/get/delete/scan over an LSM tree."""

    def __init__(self, libc, directory: str, options: Optional[KVOptions] = None):
        self.libc = libc
        self.directory = directory.rstrip("/")
        self.options = options or KVOptions()
        self.stats = KVStats()
        self.memtable = Memtable()
        self.levels: List[List[SSTable]] = [[] for _ in range(self.options.max_levels)]
        self.wal: Optional[WriteAheadLog] = None
        self._next_file_number = 1

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(cls, libc, directory: str, options: Optional[KVOptions] = None) -> Generator:
        db = cls(libc, directory, options)
        try:
            yield from libc.mkdir(directory)
        except OSError:
            pass  # already exists
        yield from db._load_manifest()
        yield from db._replay_wal()
        db.wal = WriteAheadLog(libc, db._wal_path(), sync=db.options.sync)
        yield from db.wal.open()
        return db

    def close(self) -> Generator:
        if len(self.memtable):
            yield from self._flush_memtable()
        if self.wal is not None:
            yield from self.wal.close()
        for level in self.levels:
            for table in level:
                yield from table.close()

    def _wal_path(self) -> str:
        return f"{self.directory}/wal.log"

    def _manifest_path(self) -> str:
        return f"{self.directory}/MANIFEST"

    def _table_path(self, number: int) -> str:
        return f"{self.directory}/{number:06d}.sst"

    # -- manifest ------------------------------------------------------------------

    def _load_manifest(self) -> Generator:
        try:
            fd = yield from self.libc.open(self._manifest_path(), O_RDONLY)
        except OSError as exc:
            if exc.errno == ENOENT:
                return
            raise
        st = yield from self.libc.fstat(fd)
        raw = yield from self.libc.pread(fd, st.st_size, 0)
        yield from self.libc.close(fd)
        lines = raw.decode("utf-8").splitlines()
        if not lines:
            return
        self._next_file_number = int(lines[0])
        for line in lines[1:]:
            level_string, path = line.split(" ", 1)
            table = SSTable(self.libc, path)
            yield from table.open()
            self.levels[int(level_string)].append(table)

    def _write_manifest(self) -> Generator:
        lines = [str(self._next_file_number)]
        for level_number, level in enumerate(self.levels):
            for table in level:
                lines.append(f"{level_number} {table.path}")
        payload = "\n".join(lines).encode("utf-8")
        temp_path = self._manifest_path() + ".tmp"
        fd = yield from self.libc.open(temp_path, O_CREAT | O_WRONLY | O_TRUNC)
        yield from self.libc.write(fd, payload)
        yield from self.libc.fsync(fd)
        yield from self.libc.close(fd)
        yield from self.libc.rename(temp_path, self._manifest_path())

    # -- write path ---------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> Generator:
        if value is None:
            raise ValueError("use delete() for tombstones")
        yield from self.wal.append(key, value)
        self.memtable.put(key, value)
        self.stats.puts += 1
        if self.memtable.bytes_used >= self.options.memtable_bytes:
            yield from self._flush_memtable()

    def delete(self, key: bytes) -> Generator:
        yield from self.wal.append(key, None)
        self.memtable.put(key, None)
        self.stats.deletes += 1
        if self.memtable.bytes_used >= self.options.memtable_bytes:
            yield from self._flush_memtable()

    def _flush_memtable(self) -> Generator:
        items = self.memtable.sorted_items()
        if not items:
            return
        number = self._next_file_number
        self._next_file_number += 1
        path = self._table_path(number)
        writer = SSTableWriter(self.libc, path)
        yield from writer.write(items)
        table = SSTable(self.libc, path)
        yield from table.open()
        self.levels[0].insert(0, table)  # newest first
        self.memtable = Memtable()
        self.stats.flushes += 1
        yield from self._write_manifest()
        # The WAL's contents are now durable in the table: start it afresh.
        yield from self.wal.close()
        yield from self.libc.unlink(self._wal_path())
        self.wal = WriteAheadLog(self.libc, self._wal_path(), sync=self.options.sync)
        yield from self.wal.open()
        yield from self._maybe_compact()

    def _maybe_compact(self) -> Generator:
        for level_number in range(self.options.max_levels - 1):
            if len(self.levels[level_number]) > self.options.level_limit:
                yield from self._compact_level(level_number)

    def _compact_level(self, level_number: int) -> Generator:
        """Merge every table of this level plus the next level's tables
        into one table at the next level (size-tiered)."""
        sources = self.levels[level_number + 1] + self.levels[level_number]
        merged: Dict[bytes, Optional[bytes]] = {}
        # Oldest first so newer tables overwrite.
        for table in reversed(sources):
            items = yield from table.scan_all()
            merged.update(items)
        is_bottom = level_number + 1 == self.options.max_levels - 1
        items = sorted(
            (key, value) for key, value in merged.items()
            if not (is_bottom and value is None))  # drop tombstones at bottom
        number = self._next_file_number
        self._next_file_number += 1
        path = self._table_path(number)
        writer = SSTableWriter(self.libc, path)
        yield from writer.write(items)
        new_table = SSTable(self.libc, path)
        yield from new_table.open()
        self.levels[level_number] = []
        self.levels[level_number + 1] = [new_table]
        yield from self._write_manifest()
        for table in sources:
            yield from table.close()
            yield from self.libc.unlink(table.path)
        self.stats.compactions += 1

    # -- read path -----------------------------------------------------------------------------

    def get(self, key: bytes) -> Generator:
        self.stats.gets += 1
        found, value = self.memtable.get(key)
        if found:
            return value
        for level in self.levels:
            for table in level:  # newest first within a level
                found, value = yield from table.get(key)
                if found:
                    return value
        return None

    def scan(self, start: bytes, count: int) -> Generator:
        """Merged in-order scan. Reads every live table once — fine for
        tests and examples, not meant for huge stores."""
        merged: Dict[bytes, Optional[bytes]] = {}
        for level in reversed(self.levels):
            for table in reversed(level):
                items = yield from table.scan_all()
                merged.update(items)
        merged.update(dict(self.memtable.sorted_items()))
        result = []
        for key in sorted(merged):
            if key < start:
                continue
            value = merged[key]
            if value is None:
                continue
            result.append((key, value))
            if len(result) >= count:
                break
        return result

    # -- recovery ----------------------------------------------------------------------------------

    def _replay_wal(self) -> Generator:
        wal = WriteAheadLog(self.libc, self._wal_path(), sync=False)
        records = yield from wal.replay()
        for key, value in records:
            self.memtable.put(key, value)
        self.stats.wal_replay_records = len(records)
