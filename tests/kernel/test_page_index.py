"""The page cache's per-inode page index stays in step with the LRU.

``PageCache._inode_pages`` lets truncate and invalidate visit one
inode's pages instead of the whole page table. After every mutation of
the cache, the union of the per-inode sets must equal the set of keys
in ``_pages``, with no empty set left behind.
"""

import contextlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block import SsdDevice
from repro.fs import Ext4
from repro.kernel import Kernel, O_CREAT, O_RDWR, PageCache
from repro.sim import Environment
from repro.units import MIB

FILES = ("/a", "/b", "/c")


def assert_index_matches(cache: PageCache) -> None:
    indexed = {(fs_id, ino, index)
               for (fs_id, ino), indices in cache._inode_pages.items()
               for index in indices}
    assert indexed == set(cache._pages)
    assert all(cache._inode_pages.values()), "empty per-inode set left behind"


MUTATORS = ("_insert", "_remove", "truncate", "invalidate", "crash", "shed")


@contextlib.contextmanager
def index_checked():
    """Check the index after every insert, removal and bulk mutation.
    (A context manager, not a monkeypatch fixture, so the hypothesis
    test can install it per example.)"""
    checks = {"count": 0}
    originals = {name: getattr(PageCache, name) for name in MUTATORS}

    def checking(real):
        def method(self, *args, **kwargs):
            result = real(self, *args, **kwargs)
            assert_index_matches(self)
            checks["count"] += 1
            return result
        return method

    try:
        for name, real in originals.items():
            setattr(PageCache, name, checking(real))
        yield checks
    finally:
        for name, real in originals.items():
            setattr(PageCache, name, real)


def build(capacity_pages):
    env = Environment()
    ssd = SsdDevice(env, size=64 * MIB)
    cache = PageCache(env, capacity_pages=capacity_pages)
    kernel = Kernel(env, page_cache=cache)
    kernel.mount("/", Ext4(env, ssd))
    return env, kernel, cache


ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 2), st.integers(0, 40_000),
                  st.integers(1, 9000)),
        st.tuples(st.just("read"), st.integers(0, 2), st.integers(0, 40_000),
                  st.integers(1, 9000)),
        st.tuples(st.just("truncate"), st.integers(0, 2),
                  st.integers(0, 30_000), st.none()),
        st.tuples(st.just("unlink"), st.integers(0, 2), st.none(), st.none()),
        st.tuples(st.just("fsync"), st.integers(0, 2), st.none(), st.none()),
        st.tuples(st.just("writeback"), st.none(), st.none(), st.none()),
    ),
    min_size=1, max_size=30,
)


def drive(env, kernel, script):
    """Run ``script`` over three files; unlinked files are recreated on
    their next use, so invalidate hits inodes with resident pages."""
    def body():
        fds = {}

        def fd_for(slot):
            if slot not in fds:
                fds[slot] = yield from kernel.open(FILES[slot], O_CREAT | O_RDWR)
            return fds[slot]

        for op, slot, a, b in script:
            if op == "write":
                fd = yield from fd_for(slot)
                yield from kernel.pwrite(fd, bytes([slot + 1]) * b, a)
            elif op == "read":
                fd = yield from fd_for(slot)
                yield from kernel.pread(fd, b, a)
            elif op == "truncate":
                fd = yield from fd_for(slot)
                yield from kernel.ftruncate(fd, a)
            elif op == "unlink":
                fd = yield from fd_for(slot)
                yield from kernel.close(fd)
                del fds[slot]
                yield from kernel.unlink(FILES[slot])
            elif op == "fsync":
                fd = yield from fd_for(slot)
                yield from kernel.fsync(fd)
            else:
                yield from kernel.page_cache.writeback_pass()
        for fd in fds.values():
            yield from kernel.fsync(fd)
        return True

    assert env.run_process(body()) is True


@settings(max_examples=40, deadline=None)
@given(script=ops, capacity=st.sampled_from([2, 4, 64]))
def test_index_tracks_pages_under_eviction_truncate_and_unlink(script, capacity):
    """Tiny capacities force eviction of clean and dirty pages on almost
    every insert."""
    env, kernel, cache = build(capacity)
    with index_checked():
        drive(env, kernel, script)
    assert_index_matches(cache)


def test_random_mix_exercises_every_mutation():
    rng = random.Random(7)
    script = []
    for _ in range(400):
        op = rng.choice(("write", "write", "read", "truncate", "unlink",
                         "fsync", "writeback"))
        slot = rng.randrange(3)
        script.append((op, slot, rng.randrange(40_000), rng.randrange(1, 9000)))
    env, kernel, cache = build(capacity_pages=4)
    with index_checked() as checks:
        drive(env, kernel, script)
        assert cache.stats.evictions > 0
        assert checks["count"] > 400

        cache.shed()                    # synced above, so nothing is dirty
        assert cache._inode_pages == {} and not cache._pages

        drive(env, kernel, script[:50])
        assert cache._pages
        cache.crash()
        assert cache._inode_pages == {} and not cache._pages


def test_invalidate_and_truncate_leave_other_inodes_alone():
    env, kernel, cache = build(capacity_pages=64)
    with index_checked():
        drive(env, kernel, [("write", 0, 0, 5 * 4096),
                            ("write", 1, 0, 3 * 4096),
                            ("truncate", 0, 4096 + 10, None)])
        assert sorted(len(indices) for indices
                      in cache._inode_pages.values()) == [2, 3]
        drive(env, kernel, [("unlink", 0, None, None)])
        assert [len(indices) for indices
                in cache._inode_pages.values()] == [3]
