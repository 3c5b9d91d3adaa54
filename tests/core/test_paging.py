"""Unit tests for the paging-mode NVMM cache (repro.core.paging).

The crash matrix lives in the explorer sweep (``fio-paging`` workload)
and the cross-mode property tests; these tests pin the direct facade
behaviour — hit accounting, in-place supersede, fill reads, writeback,
invalidation — on a hand-built small stack.
"""

from dataclasses import replace

import pytest

from repro.block import SsdDevice
from repro.core import NvcacheConfig, PagingCache, PagingStore, recover
from repro.fs import Ext4
from repro.kernel import Kernel
from repro.kernel.fd_table import O_CREAT, O_RDONLY, O_RDWR, O_WRONLY
from repro.nvmm import NvmmDevice
from repro.sim import Environment
from repro.units import MIB

PAGING_CONFIG = NvcacheConfig(
    cache_mode="paging", log_entries=64, entry_data_size=512,
    read_cache_pages=8, paging_slots=12, paging_batch_pages=4,
    paging_idle_flush=0.01, batch_min=4, batch_max=16, fd_max=16,
    path_max=64, cleanup_idle_flush=0.01, page_size=4096)

PAGE = PAGING_CONFIG.page_size


def make_paging_stack(config=PAGING_CONFIG, start_cleanup=True):
    env = Environment()
    ssd = SsdDevice(env, size=32 * MIB)
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, ssd))
    nvmm = NvmmDevice(env, size=PagingStore.required_size(config))
    cache = PagingCache(env, kernel, nvmm, config,
                        start_cleanup=start_cleanup)
    return env, kernel, nvmm, cache


def test_write_read_roundtrip_is_a_page_hit():
    env, _kernel, _nvmm, cache = make_paging_stack()

    def body():
        fd = yield from cache.open("/a", O_CREAT | O_RDWR)
        yield from cache.pwrite(fd, b"x" * 100, 0)
        data = yield from cache.pread(fd, 100, 0)
        assert data == b"x" * 100
        yield from cache.close(fd)

    env.run_process(body())
    assert cache.stats.page_hits == 1
    assert cache.stats.page_misses == 0
    cache.check_invariants()


def test_overwrite_supersedes_in_place():
    env, _kernel, _nvmm, cache = make_paging_stack(start_cleanup=False)

    def body():
        fd = yield from cache.open("/a", O_CREAT | O_RDWR)
        for _ in range(5):
            yield from cache.pwrite(fd, b"y" * PAGE, 0)
        yield from cache.close(fd)

    env.run_process(body())
    # Five versions of one page: four superseded the resident copy;
    # exactly one slot holds the page.
    assert cache.stats.overwrite_hits == 4
    resident = sum(1 for slot in cache.slots if slot.state != 0)
    assert resident == 1
    cache.check_invariants()


def test_partial_write_fills_from_backend():
    """A sub-page write into a non-resident page of an existing file
    must seed the rest of the page from the SSD copy."""
    env, kernel, _nvmm, cache = make_paging_stack()

    def body():
        fd = yield from cache.open("/a", O_CREAT | O_RDWR)
        yield from cache.pwrite(fd, b"A" * PAGE, 0)
        yield from cache.close(fd)
        yield cache.cleanup.request_drain()

    env.run_process(body())
    # Drop the resident copy by building a fresh cache over the same
    # kernel: simplest is to evict via flock-style invalidation — here
    # we just clear the map through a truncate-free reopen after drain,
    # so exercise the fill path with a *write-only* fd instead (the
    # transient O_RDONLY fill-read branch).
    env2, kernel2, _nvmm2, cache2 = make_paging_stack()

    def seed():
        fd = yield from kernel2.open("/b", O_CREAT | O_WRONLY)
        yield from kernel2.pwrite(fd, b"B" * PAGE, 0)
        yield from kernel2.close(fd)
        yield from kernel2.sync()

    env2.run_process(seed())

    def partial():
        fd = yield from cache2.open("/b", O_WRONLY)
        yield from cache2.pwrite(fd, b"C" * 16, 100)
        yield from cache2.close(fd)
        yield cache2.cleanup.request_drain()

    env2.run_process(partial())
    assert cache2.stats.fill_reads == 1

    def readback():
        fd = yield from kernel2.open("/b", O_RDONLY)
        data = yield from kernel2.pread(fd, PAGE, 0)
        yield from kernel2.close(fd)
        return data

    data = env2.run_process(readback())
    assert data == b"B" * 100 + b"C" * 16 + b"B" * (PAGE - 116)


def test_fsync_is_free_and_still_durable():
    env, kernel, nvmm, cache = make_paging_stack(start_cleanup=False)

    def body():
        fd = yield from cache.open("/a", O_CREAT | O_RDWR)
        yield from cache.pwrite(fd, b"d" * 200, 0)
        yield from cache.fsync(fd)
        yield from cache.fdatasync(fd)
        yield from cache.close(fd)

    env.run_process(body())
    assert cache.stats.fsyncs_ignored == 2
    # Nothing reached the SSD (no writeback ran), yet a worst-case
    # power cut must keep the acked write: recovery replays it.
    image = nvmm.crash_image(keep_lines=frozenset())
    kernel.crash()
    env2 = Environment()
    nvmm2 = NvmmDevice.from_image(env2, image, name=nvmm.name)
    ssd = SsdDevice(env2, size=32 * MIB)
    kernel2 = Kernel(env2)
    kernel2.mount("/", Ext4(env2, ssd))
    report = env2.run_process(recover(env2, kernel2, nvmm2, PAGING_CONFIG))
    assert report.entries_applied == 1

    def readback():
        fd = yield from kernel2.open("/a", O_RDONLY)
        data = yield from kernel2.pread(fd, 200, 0)
        yield from kernel2.close(fd)
        return data

    assert env2.run_process(readback()) == b"d" * 200


def test_drain_writes_back_and_cleans():
    env, kernel, _nvmm, cache = make_paging_stack()

    def body():
        fd = yield from cache.open("/a", O_CREAT | O_RDWR)
        for page in range(6):
            yield from cache.pwrite(fd, bytes([page]) * PAGE, page * PAGE)
        yield from cache.close(fd)
        yield cache.cleanup.request_drain()

    env.run_process(body())
    assert cache.stats.writeback_pages == 6
    assert cache.stats.writeback_syncs >= 1
    assert cache._dirty_count == 0

    def readback():
        fd = yield from kernel.open("/a", O_RDONLY)
        data = yield from kernel.pread(fd, 6 * PAGE, 0)
        yield from kernel.close(fd)
        return data

    data = env.run_process(readback())
    assert data == b"".join(bytes([page]) * PAGE for page in range(6))
    cache.check_invariants()


def test_slot_pressure_evicts_or_waits():
    """More distinct dirty pages than slots: the writer must block on
    writeback (full_waits) and/or recycle cleaned slots (evictions) —
    either way every byte survives to the SSD."""
    env, kernel, _nvmm, cache = make_paging_stack()
    pages = PAGING_CONFIG.paging_slots * 3

    def body():
        fd = yield from cache.open("/big", O_CREAT | O_RDWR)
        for page in range(pages):
            yield from cache.pwrite(fd, bytes([page % 251]) * PAGE,
                                    page * PAGE)
        yield from cache.close(fd)
        yield cache.cleanup.request_drain()

    env.run_process(body())
    assert cache.stats.full_waits + cache.stats.evictions > 0
    assert cache.stats.writeback_pages >= pages

    def readback():
        fd = yield from kernel.open("/big", O_RDONLY)
        data = yield from kernel.pread(fd, pages * PAGE, 0)
        yield from kernel.close(fd)
        return data

    data = env.run_process(readback())
    expected = b"".join(bytes([page % 251]) * PAGE for page in range(pages))
    assert data == expected
    cache.check_invariants()


def test_ftruncate_invalidates_resident_pages():
    # Cleanup must run: invalidation drains dirty pages through the
    # writeback thread before clearing the page metadata.
    env, _kernel, _nvmm, cache = make_paging_stack()

    def body():
        fd = yield from cache.open("/a", O_CREAT | O_RDWR)
        yield from cache.pwrite(fd, b"z" * (2 * PAGE), 0)
        yield from cache.ftruncate(fd, 100)
        st = yield from cache.fstat(fd)
        assert st.st_size == 100
        yield from cache.close(fd)

    env.run_process(body())
    assert cache.stats.invalidations >= 1
    resident = sum(1 for slot in cache.slots if slot.state != 0)
    assert resident == 0
    cache.check_invariants()


def test_namespace_ops_are_durable_at_syscall_time():
    env, kernel, _nvmm, cache = make_paging_stack()

    def body():
        fd = yield from cache.open("/old", O_CREAT | O_RDWR)
        yield from cache.pwrite(fd, b"n" * 64, 0)
        yield from cache.close(fd)
        yield from cache.rename("/old", "/new")
        fd = yield from cache.open("/new", O_RDWR)
        data = yield from cache.pread(fd, 64, 0)
        assert data == b"n" * 64
        yield from cache.close(fd)
        yield from cache.unlink("/new")
        yield cache.cleanup.request_drain()

    env.run_process(body())

    def absent():
        try:
            yield from kernel.stat("/new")
        except OSError:
            return True
        return False

    assert env.run_process(absent())
    cache.check_invariants()


def test_read_only_open_bypasses_staging():
    env, kernel, _nvmm, cache = make_paging_stack()

    def seed():
        fd = yield from kernel.open("/r", O_CREAT | O_WRONLY)
        yield from kernel.pwrite(fd, b"R" * 300, 0)
        yield from kernel.close(fd)
        yield from kernel.sync()

    env.run_process(seed())

    def body():
        fd = yield from cache.open("/r", O_RDONLY)
        data = yield from cache.pread(fd, 300, 0)
        yield from cache.close(fd)
        return data

    assert env.run_process(body()) == b"R" * 300
    assert cache.stats.page_misses >= 1

    def write_denied():
        fd = yield from cache.open("/r", O_RDONLY)
        with pytest.raises(OSError):
            yield from cache.pwrite(fd, b"no", 0)
        yield from cache.close(fd)

    env.run_process(write_denied())


def test_promotion_skips_when_the_file_table_is_full():
    """Promotion is best-effort: a read of a file the full file-id
    table cannot name is served from the backend, not failed, and the
    slot it would have used goes back to the free list."""
    config = replace(PAGING_CONFIG, fd_max=2)
    env, kernel, _nvmm, cache = make_paging_stack(config)
    names = ("/a", "/b", "/c")

    def seed():
        for name in names:
            fd = yield from kernel.open(name, O_CREAT | O_WRONLY)
            yield from kernel.pwrite(fd, name[1].encode() * PAGE, 0)
            yield from kernel.close(fd)

    env.run_process(seed())

    def body():
        out = []
        for name in names:
            fd = yield from cache.open(name, O_RDONLY)
            out.append((yield from cache.pread(fd, PAGE, 0)))
            yield from cache.close(fd)
        return out

    assert env.run_process(body()) == [name[1].encode() * PAGE
                                       for name in names]
    assert cache.stats.promotions == 2
    assert len(cache._map) + len(cache._free) == config.paging_slots
    cache.check_invariants()
