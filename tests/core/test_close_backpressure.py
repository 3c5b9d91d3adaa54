"""Close-path backpressure: descriptor churn under saturation blocks on
a cleanup-thread-fired waitable instead of spinning 0.5 ms polls."""

from dataclasses import replace

from repro.core import NvcacheConfig
from repro.kernel.fd_table import O_CREAT, O_WRONLY
from repro.sim import Environment

from .conftest import make_stack, run

#: Interval of the poll loop this mechanism replaced; its reappearance
#: in a blocked close would mean the busy-wait is back.
OLD_POLL_INTERVAL = 5e-4

SATURATION_CONFIG = NvcacheConfig(
    log_entries=256,
    read_cache_pages=32,
    batch_min=4,
    batch_max=8,
    fd_max=20,
    cleanup_idle_flush=0.01,
)


def test_close_headroom_waiter_fires_immediately_when_under_threshold():
    env, _kernel, _ssd, _nvmm, nv = make_stack(SATURATION_CONFIG)
    waiter = nv.cleanup.request_close_headroom(threshold=1)
    assert waiter.fired  # empty backlog: no wait at all


def test_saturated_close_blocks_without_polling(monkeypatch):
    env, _kernel, _ssd, _nvmm, nv = make_stack(
        SATURATION_CONFIG, start_cleanup=False)
    threshold = SATURATION_CONFIG.fd_max * 3 // 4

    # Record every timeout requested while the final close is blocked.
    state = {"blocked": False, "delays": []}
    original_timeout = Environment.timeout

    def spying_timeout(self, delay, value=None):
        if state["blocked"]:
            state["delays"].append(delay)
        return original_timeout(self, delay, value)

    monkeypatch.setattr(Environment, "timeout", spying_timeout)

    outcome = {}

    def body():
        # With the cleanup thread stopped, every close of a written file
        # defers; fill the backlog exactly to the threshold (these closes
        # must not block).
        fds = []
        for i in range(threshold + 1):
            fd = yield from nv.open(f"/churn{i}", O_CREAT | O_WRONLY)
            yield from nv.pwrite(fd, bytes([i % 251]) * 64, 0)
            fds.append(fd)
        for fd in fds[:-1]:
            yield from nv.close(fd)
        assert len(nv.tables.deferred_close) == threshold

        def final_close():
            yield from nv.close(fds[-1])
            outcome["resumed_at"] = env.now
            outcome["backlog_at_resume"] = len(nv.tables.deferred_close)

        state["blocked"] = True
        closer = env.spawn(final_close(), name="saturated-close")
        yield env.timeout(1e-6)
        # Over the threshold and nothing draining: the close must be
        # parked on the waiter, consuming no events at all.
        assert closer.alive
        assert len(nv.tables.deferred_close) == threshold + 1
        nv.cleanup.start()
        yield closer
        state["blocked"] = False
        return env.now

    run(env, body())

    # The close completed, and only because the backlog really dropped.
    assert outcome["backlog_at_resume"] <= threshold
    # The regression this test guards against: the old implementation
    # would have requested dozens of 0.5 ms timeouts from the blocked
    # close. The event-driven wait requests none.
    assert OLD_POLL_INTERVAL not in state["delays"]


def test_descriptor_churn_drains_through_saturation():
    check_descriptor_churn_drains_through_saturation("logging")


def test_descriptor_churn_drains_through_saturation_paging():
    check_descriptor_churn_drains_through_saturation("paging")


def check_descriptor_churn_drains_through_saturation(mode):
    """Sustained churn past fd_max * 3/4 makes progress and finalizes
    every descriptor once the cache drains (the shared close valve)."""
    env, kernel, _ssd, _nvmm, nv = make_stack(
        replace(SATURATION_CONFIG, cache_mode=mode, paging_slots=64))
    threshold = SATURATION_CONFIG.fd_max * 3 // 4

    def body():
        peak = 0
        for i in range(threshold * 3):
            fd = yield from nv.open(f"/churn{i % 8}", O_CREAT | O_WRONLY)
            yield from nv.pwrite(fd, bytes([i % 251]) * 64, 0)
            yield from nv.close(fd)
            peak = max(peak, len(nv.tables.deferred_close))
        yield nv.cleanup.request_drain()
        yield env.timeout(0.01)
        return peak

    peak = run(env, body())
    # Saturation was really exercised, yet the valve held the line.
    assert peak >= threshold
    assert peak <= threshold + 1
    assert nv.tables.deferred_close == set()
    if mode == "logging":
        assert nv.log.used() == 0
    else:
        assert nv._dirty_count == 0
