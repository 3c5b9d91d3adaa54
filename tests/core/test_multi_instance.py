"""Multi-application / multi-process coherence (paper §III):
two NVCache instances on one machine, sharing files via flock. The
flock tests run on both cache designs, which share the flock path."""

from dataclasses import replace

from repro.block import SsdDevice
from repro.core import Nvcache, NvcacheConfig, NvmmLog, PagingCache, PagingStore
from repro.fs import Ext4
from repro.kernel import Kernel, LOCK_EX, LOCK_SH, LOCK_UN, O_CREAT, O_RDWR
from repro.nvmm import NvmmDevice
from repro.sim import Environment
from repro.units import MIB

CFG = NvcacheConfig(log_entries=512, read_cache_pages=64, batch_min=8,
                    batch_max=64, fd_max=64, cleanup_idle_flush=0.01)


PAGING_CFG = replace(CFG, cache_mode="paging", paging_slots=64)

def two_instances(mode="logging"):
    env = Environment()
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, SsdDevice(env, size=256 * MIB)))
    if mode == "paging":
        cache, config, size = PagingCache, PAGING_CFG, PagingStore.required_size
    else:
        cache, config, size = Nvcache, CFG, NvmmLog.required_size
    a = cache(env, kernel, NvmmDevice(env, size=size(config), name="dax-a"),
              config, name="nvcache-a")
    b = cache(env, kernel, NvmmDevice(env, size=size(config), name="dax-b"),
              config, name="nvcache-b")
    return env, kernel, a, b


def test_instances_have_independent_logs():
    env, _kernel, a, b = two_instances()

    def body():
        fd_a = yield from a.open("/a.dat", O_CREAT | O_RDWR)
        fd_b = yield from b.open("/b.dat", O_CREAT | O_RDWR)
        yield from a.pwrite(fd_a, b"from A", 0)
        yield from b.pwrite(fd_b, b"from B", 0)
        return True

    assert env.run_process(body()) is True
    assert a.log.read_data(0) == b"from A"
    assert b.log.read_data(0) == b"from B"
    assert a.log.used() >= 1 and b.log.used() >= 1


def test_flock_handoff_makes_writes_visible_across_instances():
    check_flock_handoff_makes_writes_visible_across_instances("logging")


def test_flock_handoff_makes_writes_visible_across_instances_paging():
    check_flock_handoff_makes_writes_visible_across_instances("paging")


def check_flock_handoff_makes_writes_visible_across_instances(mode):
    """The paper's coherence protocol: A writes under LOCK_EX, unlocks
    (flush point); B takes the lock and must read A's data."""
    env, _kernel, a, b = two_instances(mode)

    def body():
        fd_a = yield from a.open("/shared", O_CREAT | O_RDWR)
        fd_b = yield from b.open("/shared", O_CREAT | O_RDWR)

        yield from a.flock(fd_a, LOCK_EX)
        yield from a.pwrite(fd_a, b"A's durable update", 0)
        yield from a.flock(fd_a, LOCK_UN)  # flushes to the kernel

        yield from b.flock(fd_b, LOCK_SH)  # invalidates B's stale cache
        data = yield from b.pread(fd_b, 18, 0)
        size = (yield from b.fstat(fd_b)).st_size
        yield from b.flock(fd_b, LOCK_UN)
        return data, size

    data, size = env.run_process(body())
    assert data == b"A's durable update"
    assert size == 18


def test_stale_cache_without_lock_then_fresh_with_lock():
    check_stale_cache_without_lock_then_fresh_with_lock("logging")


def test_stale_cache_without_lock_then_fresh_with_lock_paging():
    check_stale_cache_without_lock_then_fresh_with_lock("paging")


def check_stale_cache_without_lock_then_fresh_with_lock(mode):
    """B caches old content; A updates and unlocks; B's cached read may
    be stale, but after taking the lock B sees the new data."""
    env, _kernel, a, b = two_instances(mode)

    def body():
        fd_a = yield from a.open("/shared", O_CREAT | O_RDWR)
        fd_b = yield from b.open("/shared", O_CREAT | O_RDWR)
        # Seed + propagate so B can cache generation 1 (B reads under a
        # lock: without it, even B's *size* view would be stale).
        yield from a.pwrite(fd_a, b"gen-1", 0)
        yield a.cleanup.request_drain()
        yield from b.flock(fd_b, LOCK_SH)
        cached = yield from b.pread(fd_b, 5, 0)
        yield from b.flock(fd_b, LOCK_UN)
        assert cached == b"gen-1"

        # A updates under the lock and releases it.
        yield from a.flock(fd_a, LOCK_EX)
        yield from a.pwrite(fd_a, b"gen-2", 0)
        yield from a.flock(fd_a, LOCK_UN)

        # B after acquiring the lock must see generation 2.
        yield from b.flock(fd_b, LOCK_SH)
        fresh = yield from b.pread(fd_b, 5, 0)
        yield from b.flock(fd_b, LOCK_UN)
        return fresh

    assert env.run_process(body()) == b"gen-2"


def test_flock_acquire_keeps_own_pending_pages():
    check_flock_acquire_keeps_own_pending_pages("logging")


def test_flock_acquire_keeps_own_pending_pages_paging():
    check_flock_acquire_keeps_own_pending_pages("paging")


def check_flock_acquire_keeps_own_pending_pages(mode):
    """Acquiring a lock must not discard pages this instance itself has
    pending writes for (they are newer than anything in the kernel)."""
    env, _kernel, a, _b = two_instances(mode)
    a.cleanup.stop()  # keep writes pending

    def body():
        fd = yield from a.open("/mine", O_CREAT | O_RDWR)
        yield from a.pwrite(fd, b"unpropagated", 0)
        yield from a.pread(fd, 12, 0)  # load the page
        yield from a.flock(fd, LOCK_EX)
        data = yield from a.pread(fd, 12, 0)
        return data

    assert env.run_process(body()) == b"unpropagated"


def test_crash_recovers_both_instances_independently():
    from repro.core import recover

    env, kernel, a, b = two_instances()
    a.cleanup.stop()
    b.cleanup.stop()

    def body():
        fd_a = yield from a.open("/a.dat", O_CREAT | O_RDWR)
        fd_b = yield from b.open("/b.dat", O_CREAT | O_RDWR)
        yield from a.pwrite(fd_a, b"instance A data", 0)
        yield from b.pwrite(fd_b, b"instance B data", 0)

    env.run_process(body())
    image_a = a.nvmm.crash_image()
    image_b = b.nvmm.crash_image()
    kernel.crash()
    for fs in kernel.vfs.filesystems():
        fs.device.crash()

    env2 = Environment()
    for fs in kernel.vfs.filesystems():
        fs.device.reattach(env2)
        fs.env = env2
    kernel2 = Kernel(env2)
    kernel2.mount("/", kernel.vfs.filesystems()[0])
    report_a = env2.run_process(recover(
        env2, kernel2, NvmmDevice.from_image(env2, image_a), CFG))
    report_b = env2.run_process(recover(
        env2, kernel2, NvmmDevice.from_image(env2, image_b), CFG))
    assert report_a.entries_applied == 1
    assert report_b.entries_applied == 1

    def check():
        fd = yield from kernel2.open("/a.dat")
        data_a = yield from kernel2.pread(fd, 32, 0)
        fd = yield from kernel2.open("/b.dat")
        data_b = yield from kernel2.pread(fd, 32, 0)
        return data_a, data_b

    data_a, data_b = env2.run_process(check())
    assert data_a == b"instance A data"
    assert data_b == b"instance B data"
