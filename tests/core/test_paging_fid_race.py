"""Regression tests for the paging design's file-id release race.

A file id (fid) names a file in the paging page table. ``unlink``,
``rename``, ``ftruncate`` and a truncating ``open`` release it, and the
next new file may be handed the same id. Three paths used to map a
page under a fid that had just been released, or map bytes the file no
longer had:

- a read-miss promotion, which yields on its NVMM store before mapping
  the slot, racing an ``unlink``;
- a read-miss promotion that read the page before an ``ftruncate`` or
  truncating ``open`` cut it and mapped it after, re-binding the file;
  a later partial write then seeded its unwritten bytes from that slot;
- a truncating ``open``, which invalidated the file without the txn
  lock, racing a ``pwrite`` that held the fid.

The next file bound to the recycled fid then read the dead file's
bytes. The reverse also happened: a multi-page ``pread`` looked the fid
up once, so its later pages could hit the slots of a new file bound to
the recycled fid. Each test sweeps the racing call's start time across
the whole run of the other call, so some start lands inside the
critical yield, and checks the bytes read and the page-table
invariants, not only that nothing crashes.
"""

from dataclasses import replace

import pytest

from repro.kernel.fd_table import O_CREAT, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY
from repro.units import US

from .test_paging import PAGE, PAGING_CONFIG, make_paging_stack

STEP = 0.25 * US
ZEROS = bytes(PAGE)


def _race(first, second, delay):
    """Run ``first()`` and, ``delay`` later, ``second()`` on a fresh
    paging stack whose ``/f`` holds two pages of ``O`` on the backend;
    then create ``/new`` (which reuses any released fid) with a write to
    its second page only. Returns (when ``first`` finished, what
    ``first`` returned, ``/f`` as read back, page 0 of ``/new``)."""
    env, kernel, _nvmm, cache = make_paging_stack()
    out = {}

    def seed():
        fd = yield from kernel.open("/f", O_CREAT | O_WRONLY)
        yield from kernel.pwrite(fd, b"O" * (2 * PAGE), 0)
        yield from kernel.close(fd)

    def run_first():
        began = env.now
        out["first"] = yield from first(cache)
        out["first_s"] = env.now - began

    def run_second():
        yield env.timeout(delay)
        yield from second(cache)

    def main():
        yield from seed()
        racers = [env.spawn(run_first(), name="first"),
                  env.spawn(run_second(), name="second")]
        for racer in racers:
            yield racer.join()
        cache.check_invariants()
        try:
            fd = yield from cache.open("/f", O_RDONLY)
        except OSError:
            out["f"] = None
        else:
            out["f"] = yield from cache.pread(fd, 2 * PAGE, 0)
            yield from cache.close(fd)
        fd = yield from cache.open("/new", O_CREAT | O_RDWR)
        yield from cache.pwrite(fd, b"N" * 100, PAGE)
        out["new"] = yield from cache.pread(fd, PAGE, 0)
        yield from cache.close(fd)
        yield from cache.drain()
        cache.check_invariants()

    process = env.spawn(main(), name="main")
    process.subscribe(lambda _value, _exc: env.stop())
    env.run()
    assert process.exception is None, (delay, process.exception)
    return out["first_s"], out["first"], out["f"], out["new"]


def _sweep(first, second):
    """Every start of ``second`` from 0 to the end of a solo ``first``."""
    solo_s = _race(first, second, 1.0)[0]
    steps = int(solo_s / STEP) + 1
    assert steps > 8, "sweep too coarse to cover the first call"
    return [(step * STEP, _race(first, second, step * STEP))
            for step in range(steps)]


def _read_old(cache):
    fd = yield from cache.open("/f", O_RDONLY)
    data = yield from cache.pread(fd, PAGE, 0)
    yield from cache.close(fd)
    return data


def _unlink(cache):
    yield from cache.unlink("/f")


def test_promotion_racing_unlink_never_maps_a_released_fid():
    for delay, (_s, old, f_data, new) in _sweep(_read_old, _unlink):
        # The simulated filesystem frees an unlinked file's blocks at
        # once, so a read overlapping the unlink may see a hole ...
        assert old in (b"O" * PAGE, ZEROS), (delay, old[:8])
        assert f_data is None, delay
        # ... and a new file bound to the recycled fid must read one.
        assert new == ZEROS, (delay, new[:8])


def _write(cache):
    fd = yield from cache.open("/f", O_RDWR)
    yield from cache.pwrite(fd, b"W" * PAGE, 0)
    yield from cache.close(fd)


def _truncating_open(cache):
    fd = yield from cache.open("/f", O_RDWR | O_TRUNC)
    yield from cache.close(fd)


def test_promotion_racing_a_write_never_hides_it():
    """A write that maps the page during the promotion's store wins;
    the promotion's older backend bytes are dropped."""
    for delay, (_s, _first, f_data, new) in _sweep(_write, _read_old):
        assert f_data == b"W" * PAGE + b"O" * PAGE, (delay, f_data[:8])
        assert new == ZEROS, (delay, new[:8])


def test_truncating_open_racing_a_write_stays_serial():
    for delay, (_s, _first, f_data, new) in _sweep(_write, _truncating_open):
        # Write-then-truncate leaves an empty file; truncate-then-write
        # leaves the written page.
        assert f_data in (b"", b"W" * PAGE), (delay, f_data[:8])
        assert new == ZEROS, (delay, new[:8])


def test_truncating_open_drops_pages_only_the_cache_holds():
    """The backend still reads size 0 while a new file's only page is
    dirty in NVMM; O_TRUNC must drop that page all the same."""
    env, kernel, _nvmm, cache = make_paging_stack()

    def body():
        fd = yield from cache.open("/t", O_CREAT | O_RDWR)
        yield from cache.pwrite(fd, b"W" * PAGE, 0)
        yield from cache.close(fd)
        fd = yield from cache.open("/t", O_RDWR | O_TRUNC)
        yield from cache.pwrite(fd, b"N" * 100, PAGE)
        cached = yield from cache.pread(fd, PAGE, 0)
        yield from cache.close(fd)
        yield from cache.drain()
        fd = yield from kernel.open("/t", O_RDONLY)
        backend = yield from kernel.pread(fd, PAGE, 0)
        yield from kernel.close(fd)
        return cached, backend

    process = env.spawn(body(), name="body")
    process.subscribe(lambda _value, _exc: env.stop())
    env.run()
    assert process.exception is None, process.exception
    cached, backend = process.value
    assert cached == ZEROS
    assert backend == ZEROS
    cache.check_invariants()


def test_read_spanning_unlink_and_recreate_never_returns_the_new_file():
    """A ten-page read of ``/x`` races ``unlink("/x")`` and a write of
    pages 5-9 of a new ``/y``. The nhit policy declines the reader's
    promotions, so nothing re-binds ``/x`` and ``/y`` takes its fid."""
    config = replace(PAGING_CONFIG, policy="nhit")

    def run(delay):
        env, kernel, _nvmm, cache = make_paging_stack(config)
        out = {}

        def reader():
            fd = yield from cache.open("/x", O_RDONLY)
            out["x"] = yield from cache.pread(fd, 10 * PAGE, 0)
            yield from cache.close(fd)

        def churn():
            yield env.timeout(delay)
            yield from cache.unlink("/x")
            fd = yield from cache.open("/y", O_CREAT | O_RDWR)
            yield from cache.pwrite(fd, b"Y" * (5 * PAGE), 5 * PAGE)
            yield from cache.close(fd)

        def main():
            # Bind a fid to /x through the cache, then fill it.
            fd = yield from cache.open("/x", O_CREAT | O_RDWR)
            yield from cache.pwrite(fd, b"X" * PAGE, 0)
            yield from cache.close(fd)
            yield from cache.drain()
            fd = yield from kernel.open("/x", O_WRONLY)
            yield from kernel.pwrite(fd, b"X" * (10 * PAGE), 0)
            yield from kernel.close(fd)
            began = env.now
            racers = [env.spawn(reader(), name="reader"),
                      env.spawn(churn(), name="churn")]
            yield racers[0].join()
            out["read_s"] = env.now - began
            yield racers[1].join()
            cache.check_invariants()

        process = env.spawn(main(), name="main")
        process.subscribe(lambda _value, _exc: env.stop())
        env.run()
        assert process.exception is None, (delay, process.exception)
        return out

    solo_s = run(1.0)["read_s"]
    for step in range(int(solo_s / STEP) + 1):
        data = run(step * STEP)["x"]
        # The simulated filesystem frees /x's blocks at unlink, so its
        # pages read as X or as a hole; never as /y's bytes.
        pages = {data[k * PAGE:(k + 1) * PAGE] for k in range(10)}
        assert pages <= {b"X" * PAGE, ZEROS}, step * STEP


def _ftruncate(cache):
    fd = yield from cache.open("/f", O_RDWR)
    yield from cache.ftruncate(fd, 0)
    yield from cache.close(fd)


def _race_truncate_then_patch(truncate, bound, delay):
    """A one-page read of ``/f`` (two pages of ``O`` on the backend)
    races ``truncate`` started ``delay`` later; then 100 bytes of ``P``
    go to offset 100. Returns (how long the read took, ``/f`` through
    the cache, ``/f`` on the backend after a drain)."""
    env, kernel, _nvmm, cache = make_paging_stack()
    out = {}

    def seed():
        fd = yield from kernel.open("/f", O_CREAT | O_WRONLY)
        yield from kernel.pwrite(fd, b"O" * (2 * PAGE), 0)
        yield from kernel.close(fd)
        if bound:
            # Give /f a file id up front: page 1 resident, page 0 not.
            fd = yield from cache.open("/f", O_RDWR)
            yield from cache.pwrite(fd, b"O" * PAGE, PAGE)
            yield from cache.close(fd)
            yield from cache.drain()

    def reader():
        began = env.now
        yield from _read_old(cache)
        out["read_s"] = env.now - began

    def racer():
        yield env.timeout(delay)
        yield from truncate(cache)

    def main():
        yield from seed()
        racers = [env.spawn(reader(), name="reader"),
                  env.spawn(racer(), name="truncate")]
        for each in racers:
            yield each.join()
        cache.check_invariants()
        fd = yield from cache.open("/f", O_RDWR)
        yield from cache.pwrite(fd, b"P" * 100, 100)
        out["cached"] = yield from cache.pread(fd, 2 * PAGE, 0)
        yield from cache.close(fd)
        yield from cache.drain()
        cache.check_invariants()
        fd = yield from kernel.open("/f", O_RDONLY)
        out["backend"] = yield from kernel.pread(fd, 2 * PAGE, 0)
        yield from kernel.close(fd)

    process = env.spawn(main(), name="main")
    process.subscribe(lambda _value, _exc: env.stop())
    env.run()
    assert process.exception is None, (delay, process.exception)
    return out["read_s"], out["cached"], out["backend"]


@pytest.mark.parametrize("bound", [False, True], ids=["unbound", "bound"])
@pytest.mark.parametrize("truncate", [_ftruncate, _truncating_open],
                         ids=["ftruncate", "o_trunc"])
def test_truncate_racing_a_read_miss_never_promotes_the_old_bytes(
        truncate, bound):
    """A promotion that read the page before the cut must not map it
    afterwards: the later partial write would seed its unwritten bytes
    from that slot and make the pre-truncate bytes durable."""
    solo_s = _race_truncate_then_patch(truncate, bound, 1.0)[0]
    steps = int(solo_s / STEP) + 1
    assert steps > 8, "sweep too coarse to cover the read"
    expected = bytes(100) + b"P" * 100
    for step in range(steps):
        _s, cached, backend = _race_truncate_then_patch(
            truncate, bound, step * STEP)
        assert cached == expected, (step * STEP, cached[:8])
        assert backend == expected, (step * STEP, backend[:8])
