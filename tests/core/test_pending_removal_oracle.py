"""The pending-removal index against the scan it replaced.

``NvmmLog.pending_removal`` used to re-read the header of every live
ring slot on each ``open(O_CREAT)``. It now answers from a volatile
index. ``scan_pending_removal`` below keeps the old scan verbatim as the
reference; every test here runs real workloads with each lookup checked
against it, so the index must agree on every call the stack makes.
"""

import random
from dataclasses import replace

import pytest

from repro.core import COMMIT_FREE, Nvcache, NvmmLog, recover
from repro.core.log import OP_CREATE, OP_RENAME, OP_TRUNCATE, OP_UNLINK
from repro.fuzz.schedule import build_fuzz_run, fresh_case, mutate, seed_cases
from repro.kernel import O_CREAT, O_WRONLY, Kernel
from repro.nvmm import NvmmDevice
from repro.sim import Environment
from repro.tenancy import TrafficEngine, make_mix, make_schedule

from .test_log import make_log
from .test_recovery import fresh_stack


def scan_pending_removal(log: NvmmLog, path: str) -> bool:
    """The reference: a full scan of the live ring's headers."""
    encoded = path.encode("utf-8")
    for seq in range(min(log.persistent_tail(), log.volatile_tail), log.head):
        commit_group, fd, _offset, size = log.read_header(seq)
        if commit_group == COMMIT_FREE or fd not in (OP_UNLINK, OP_RENAME):
            continue
        data = log.read_data(seq, size)
        if fd == OP_UNLINK:
            if data == encoded:
                return True
        elif data.split(b"\x00", 1)[0] == encoded:
            return True
    return False


@pytest.fixture
def oracle(monkeypatch):
    """Check every pending_removal call against the scan. Mismatches are
    collected, not raised, because a raise inside a simulated process
    would surface as an unrelated SimulationError."""
    real = NvmmLog.pending_removal
    record = {"calls": 0, "true": 0, "mismatches": []}

    def checked(self, path):
        got = real(self, path)
        want = scan_pending_removal(self, path)
        record["calls"] += 1
        record["true"] += got
        if got != want:
            record["mismatches"].append((path, got, want, self.head))
        return got

    monkeypatch.setattr(NvmmLog, "pending_removal", checked)
    return record


def test_commit_window_and_retirement_follow_the_scan():
    """Uncommitted removals do not count; committed ones do until their
    slot is cleared; a rename counts for its source only."""
    env, _nvmm, log = make_log()

    def check(path):
        assert log.pending_removal(path) == scan_pending_removal(log, path)
        return log.pending_removal(path)

    def body():
        unlink = yield from log.next_entry()
        yield from log.fill_entry(unlink, OP_UNLINK, 0, b"/a")
        assert check("/a") is False          # filled, not committed
        yield from log.commit_leader(unlink)
        assert check("/a") is True
        rename = yield from log.next_entry()
        yield from log.fill_entry(rename, OP_RENAME, 0, b"/b\x00/c")
        yield from log.commit_leader(rename)
        assert check("/b") is True
        assert check("/c") is False          # rename target is not removed
        other = yield from log.next_entry()
        yield from log.fill_entry(other, OP_TRUNCATE, 0, b"/d")
        yield from log.commit_leader(other)
        assert check("/d") is False
        yield from log.clear_entries([unlink])
        log.advance_volatile_tail(unlink + 1)
        assert check("/a") is False
        assert check("/b") is True
        yield from log.clear_entries([rename, other])
        log.advance_volatile_tail(other + 1)
        assert check("/b") is False
        return True

    assert env.run_process(body()) is True


def test_index_drops_entries_across_ring_wraparound():
    """Removals of one path filled and retired many times around a
    16-slot ring: the index neither leaks nor forgets."""
    env, _nvmm, log = make_log()

    def body():
        for round_ in range(5 * log.entries):
            seq = yield from log.next_entry()
            op = (OP_UNLINK, OP_RENAME, OP_CREATE)[round_ % 3]
            payload = b"/j" if op != OP_RENAME else b"/j\x00/k"
            yield from log.fill_entry(seq, op, 0, payload)
            yield from log.commit_leader(seq)
            assert log.pending_removal("/j") == scan_pending_removal(log, "/j")
            if log.used() >= 3:
                first = log.volatile_tail
                yield from log.clear_entries([first])
                log.advance_volatile_tail(first + 1)
                assert (log.pending_removal("/j")
                        == scan_pending_removal(log, "/j"))
        return True

    assert env.run_process(body()) is True
    assert len(log._removal_source) <= log.used()


def test_index_matches_scan_over_a_thousand_tenant_mix(oracle):
    specs = make_mix(1000, seed=42, operations=2, quota_entries=32)
    engine = TrafficEngine(specs, workers=64, seed=42,
                           schedule=make_schedule("bursty", duration=1.0))
    report = engine.run()
    assert report.engine["completed"] == report.engine["requests"]
    assert oracle["mismatches"] == []
    assert oracle["calls"] > 1000
    assert oracle["true"] > 0, "the mix never recreated a removed path"


def _fuzz_cases():
    """Seed cases, fresh ones, and mutation chains, which reach ops
    (``recreate``) no seed family uses, as a campaign's corpus does."""
    rng = random.Random("pending-removal-oracle")
    pool = seed_cases()
    cases = list(pool) + [fresh_case(rng) for _ in range(40)]
    for start in pool:
        case = start
        for _ in range(16):
            case, _used = mutate(rng, case, pool)
            cases.append(case)
    return [replace(case, fault_plan=()) for case in cases]


def test_index_matches_scan_over_fuzz_grammar_schedules(oracle):
    for case in _fuzz_cases():
        run = build_fuzz_run(case)
        process = run.env.spawn(run.body(), name="oracle-workload")
        process.subscribe(lambda _value, _exc, env=run.env: env.stop())
        run.env.run()
        assert process.exception is None, process.exception
    assert oracle["mismatches"] == []
    assert oracle["calls"] > 0
    assert oracle["true"] > 0, "no schedule recreated a removed path"


def test_index_matches_scan_on_a_log_rebuilt_after_recovery(oracle):
    """Crash with committed unlinks and renames in the ring, recover,
    then churn the same paths through a new NVCache on the recovered
    NVMM device."""
    env, kernel, ssd, nvmm, nv = fresh_stack(start_cleanup=False)

    def before_crash():
        for name in ("/a", "/b"):
            fd = yield from nv.open(name, O_CREAT | O_WRONLY)
            yield from nv.pwrite(fd, b"old", 0)
            yield from nv.close(fd)
        yield from nv.unlink("/a")
        yield from nv.rename("/b", "/c")
        fd = yield from nv.open("/a", O_CREAT | O_WRONLY)  # pending: True
        yield from nv.pwrite(fd, b"new", 0)

    env.run_process(before_crash())
    assert oracle["true"] == 1

    # Power cut and reboot, keeping the recovered NVMM device.
    image = nvmm.crash_image()
    kernel.crash()
    ssd.crash()
    env2 = Environment()
    nvmm2 = NvmmDevice.from_image(env2, image)
    ssd.reattach(env2)
    kernel2 = Kernel(env2)
    for mountpoint, fs in kernel.vfs._mounts:
        fs.env = env2
        kernel2.mount(mountpoint, fs)
    report = env2.run_process(recover(env2, kernel2, nvmm2, nv.config))
    assert report.namespace_ops_replayed >= 2

    nv2 = Nvcache(env2, kernel2, nvmm2, nv.config, start_cleanup=False)
    for path in ("/a", "/b", "/c"):
        assert nv2.log.pending_removal(path) is False

    def after_recovery():
        fd = yield from nv2.open("/b", O_CREAT | O_WRONLY)   # nothing pending
        yield from nv2.pwrite(fd, b"b2", 0)
        yield from nv2.close(fd)
        yield from nv2.unlink("/b")
        yield from nv2.rename("/c", "/d")
        for name in ("/b", "/c"):                            # both pending
            fd = yield from nv2.open(name, O_CREAT | O_WRONLY)
            yield from nv2.close(fd)

    env2.run_process(after_recovery())
    assert oracle["mismatches"] == []
    assert oracle["true"] == 3
