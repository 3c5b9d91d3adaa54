"""Host speed, sampled around every timed phase.

Host times on a shared machine drift by 20% and more within a minute as
neighbours load the caches and memory bus. ``calibrate()`` times a
fixed piece of pure-Python work shaped like the simulator's hot path
(generator resumes, heap pushes and pops, dict and bytearray churn)
that does not depend on any code of the repository. A
:class:`PhaseTimer` samples it right before and right after each timed
phase of a rep and about every ``TICK_INTERVAL`` seconds inside it, and
reports the phase scaled to a reference host on which the calibration
takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / mean(samples of the phase)

A change to the simulator moves the measured time and not the
calibration, so it shows in full; a machine that is 20% slower while
the phase runs moves both, and cancels. The time spent sampling is
taken out of the phase, and the measured times are printed beside the
scaled ones.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Calibration time on the reference host (2-core Xeon, Python 3.11).
REFERENCE_S = 0.09
#: Calibrations per speed sample at a phase boundary (their median is
#: the sample).
CALIBRATIONS = 3
#: Rounds of the calibration workload in one calibration.
ROUNDS = 40
#: Host seconds between short calibrations inside a phase, and their
#: rounds.
TICK_INTERVAL = 0.25
TICK_ROUNDS = 10

clock = time.perf_counter


def _ticks(count: int):
    for tick in range(count):
        yield tick


def calibrate(rounds: int = ROUNDS) -> float:
    """Seconds the fixed calibration workload (``ROUNDS`` rounds) takes
    on this host now, measured over ``rounds`` rounds."""
    started = clock()
    heap = []
    table = {}
    for _ in range(rounds):
        for tick in _ticks(2000):
            heapq.heappush(heap, (tick * 7919 % 1000, tick))
            table[tick] = bytearray(64)
        while heap:
            heapq.heappop(heap)
        table.clear()
    return (clock() - started) * ROUNDS / rounds


def speed_sample() -> float:
    return statistics.median(calibrate() for _ in range(CALIBRATIONS))


class PhaseTimer:
    """Host time of a rep's set-up and measured phases. Each phase is
    bracketed by speed samples and takes short samples inside it
    whenever ``maybe_tick`` finds ``TICK_INTERVAL`` seconds passed since
    the last; their own time is taken out of the phase. Create the
    timer where set-up starts.

    A traced rep is not calibrated (its samples read ``REFERENCE_S``):
    calibration taken inside a running simulation would be charged to
    the layer profiler's ``sim`` frame."""

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.setup_speed = [self._sample()]
        self.wall_speed: list = []
        self.setup_s = self.wall_s = 0.0
        self._phase_speed = self.setup_speed
        self._paused = 0.0
        self._started = self._last_tick = clock()

    def _sample(self) -> float:
        return speed_sample() if self.calibrated else REFERENCE_S

    def maybe_tick(self) -> None:
        """Sample the host speed if the phase has run ``TICK_INTERVAL``
        seconds since the last sample."""
        now = clock()
        if self.calibrated and now - self._last_tick >= TICK_INTERVAL:
            self._phase_speed.append(calibrate(TICK_ROUNDS))
            self._last_tick = clock()
            self._paused += self._last_tick - now

    def _end_phase(self) -> float:
        elapsed = clock() - self._started - self._paused
        self._phase_speed.append(self._sample())
        self._paused = 0.0
        self._started = self._last_tick = clock()
        return elapsed

    def setup_done(self) -> None:
        self.setup_s = self._end_phase()
        self.wall_speed.append(self.setup_speed[-1])
        self._phase_speed = self.wall_speed

    def measured_done(self) -> None:
        self.wall_s = self._end_phase()

    def scaled(self) -> tuple:
        """(setup_s, wall_s) on the reference host."""
        setup_speed = sum(self.setup_speed) / len(self.setup_speed)
        wall_speed = sum(self.wall_speed) / len(self.wall_speed)
        return (self.setup_s * REFERENCE_S / setup_speed,
                self.wall_s * REFERENCE_S / wall_speed)
