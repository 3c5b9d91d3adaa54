"""Regression tests for two races between application calls and the
caches' background threads.

- Logging design: the cleanup thread finalizes a deferred close while
  the application opens another file and is handed the same fd number.
  Finalize must not retire the new file's bookkeeping.
- Paging design: the writeback thread loads a dirty slot's page while a
  newer write supersedes (frees or reuses) that slot.
"""

import random
from dataclasses import replace

from repro.block import SsdDevice
from repro.core import Nvcache, NvmmLog
from repro.fs import Ext4
from repro.harness.systems import Scale, build_stack, nvcache_config
from repro.kernel import (O_CREAT, O_DIRECT, O_RDONLY, O_RDWR, O_WRONLY,
                          Kernel)
from repro.nvmm import NvmmDevice, NvmmTiming
from repro.sim import Environment
from repro.units import MIB, US

from .test_recovery import CFG

#: A slow persistence drain (10 us per psync instead of 0.5 us) widens
#: finalize's window between the kernel releasing the fd number and the
#: end of the path-slot clear to longer than an ``open`` takes.
SLOW_FLUSH = NvmmTiming(flush_base_latency=10 * US)


def _fd_reuse_run(open_at):
    """``/a`` is written and closed, so its close is deferred until the
    cleanup thread retires the entry; ``/b`` is opened at ``open_at``.
    Returns (A's finalize windows, what the writers saw, nv, kernel,
    env)."""
    env = Environment()
    kernel = Kernel(env)
    kernel.mount("/", Ext4(env, SsdDevice(env, size=128 * MIB)))
    nvmm = NvmmDevice(env, size=NvmmLog.required_size(CFG), timing=SLOW_FLUSH)
    nv = Nvcache(env, kernel, nvmm, CFG)
    windows = []
    finalize = nv.cleanup.finalize_fd

    def timed_finalize(fd):
        began = env.now
        yield from finalize(fd)
        windows.append((began, env.now))

    nv.cleanup.finalize_fd = timed_finalize
    seen = {}

    def writer_a():
        fd = yield from nv.open("/a", O_CREAT | O_WRONLY)
        yield from nv.pwrite(fd, b"A" * 100, 0)
        yield from nv.close(fd)
        seen["fd_a"] = fd

    def writer_b():
        yield env.timeout(open_at)
        began = env.now
        fd = yield from nv.open("/b", O_CREAT | O_WRONLY)
        seen["b"] = (began, env.now, fd)
        yield from nv.pwrite(fd, b"B" * 100, 0)
        yield from nv.close(fd)

    def main():
        writers = [env.spawn(writer_a(), name="a"),
                   env.spawn(writer_b(), name="b")]
        for writer in writers:
            yield writer.join()
        yield nv.cleanup.request_drain()
        yield env.timeout(0.05)      # let the last deferred close finalize
        return True

    process = env.spawn(main(), name="main")
    process.subscribe(lambda _value, _exc: env.stop())
    env.run()
    assert process.exception is None, process.exception
    return windows, seen, nv, kernel, env


def _read(env, kernel, path):
    def body():
        fd = yield from kernel.open(path, O_RDONLY)
        data = yield from kernel.pread(fd, 4096, 0)
        yield from kernel.close(fd)
        return data

    return env.run_process(body())


def test_open_reusing_an_fd_during_a_deferred_finalize():
    # Where does the cleanup thread finalize /a when nothing races it?
    windows, _seen, _nv, _kernel, _env = _fd_reuse_run(open_at=1.0)
    began, ended = windows[0]
    # Sweep /b's open across that window in 0.25 us steps: some opens are
    # handed /a's fd number while its finalize is still running.
    overlapped = 0
    step = 0.25 * US
    start = began - 8 * US
    for i in range(int((ended - start) / step) + 20):
        _windows, seen, nv, kernel, env = _fd_reuse_run(start + i * step)
        b_began, _b_opened, fd_b = seen["b"]
        if fd_b == seen["fd_a"] and b_began < _windows[0][1]:
            overlapped += 1
        assert nv.tables.files == {}, "an NvFile kept unretired entries"
        assert nv.tables.fd_files == {}
        assert not any(nv.tables.pending_by_fd.values())
        assert not nv.tables.deferred_close
        assert nv.log.all_paths() == {}
        nv.check_invariants()
        assert _read(env, kernel, "/a") == b"A" * 100
        assert _read(env, kernel, "/b") == b"B" * 100
    assert overlapped > 0, "no open raced the finalize"


PAGE = 4096
SLOTS = 1024
BLOCKS = 3 * SLOTS // 2
OPS = 8000


def test_writeback_skips_a_slot_superseded_during_its_load():
    """The stack shape that crashed the writeback thread: the paging
    design, 1024 slots, a 1536-block working set, a 70/30 read/write
    mix with fsync after each write, seed 35."""
    rng = random.Random(35)
    plan = [(rng.randrange(BLOCKS), rng.random() < 0.7) for _ in range(OPS)]
    config = replace(nvcache_config(Scale(4096)), cache_mode="paging",
                     paging_slots=SLOTS)
    stack = build_stack("nvcache+ssd", config=config)
    env, libc = stack.env, stack.libc
    shadow = {block: bytes([block % 251]) * PAGE for block in range(BLOCKS)}

    def layout():
        fd = yield from libc.open("/p", O_CREAT | O_RDWR | O_DIRECT)
        for block, data in shadow.items():
            yield from libc.pwrite(fd, data, block * PAGE)
        yield from libc.fsync(fd)
        yield from libc.close(fd)
        yield from stack.settle()

    def measured():
        fd = yield from libc.open("/p", O_RDWR | O_DIRECT)
        for index, (block, is_read) in enumerate(plan):
            if is_read:
                data = yield from libc.pread(fd, PAGE, block * PAGE)
                assert data == shadow[block], f"op {index} block {block}"
            else:
                data = index.to_bytes(4, "little") * (PAGE // 4)
                yield from libc.pwrite(fd, data, block * PAGE)
                yield from libc.fsync(fd)
                shadow[block] = data
        return index + 1

    env.run_process(layout())
    assert env.run_process(measured()) == OPS
