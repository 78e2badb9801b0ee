"""Host-speed calibration and the normalised clock.

The benchmark never reports raw host seconds as an end-to-end metric.
On a small shared host the same simulation can take 0.36 s at one
moment and 0.63 s the next, so every timed interval is scaled by how
fast the host ran a fixed pure-Python loop at its edges and at the
quiet points inside it.  The loop exercises what the simulator's hot path exercises --
attribute access on small objects, dict probes, list appends and
data-dependent branches -- and deliberately imports nothing from
``repro``, so no change to the program under test can move it.

:class:`NormClock` scales each unit of work by ``REFERENCE_S / mean(its
calibrations)``, and calibration time itself counts for nothing.  A
normalised second is therefore "a second on a host that runs the loop
in ``REFERENCE_S``".
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

#: Iterations of :func:`spin` per calibration sample.
SPIN_ITERS = 6_000
#: Samples per calibration; their mean is the calibration value.
SAMPLES = 5
#: Samples at the edges of set-up and of a pass, which bound long
#: intervals and are taken rarely.
EDGE_SAMPLES = 11
#: Reference duration of one :func:`spin` sample, in seconds.  Chosen
#: near the loop's speed on an idle 2-vCPU 2.0 GHz Xeon host, so
#: normalised seconds read close to raw seconds there.
REFERENCE_S = 0.0040


#: The start-up calibration: a fresh interpreter importing a fixed set
#: of standard-library modules.  Interpreter start-up is process
#: creation, file reads, unmarshalling and module execution, and it
#: does not slow down with :func:`spin` on a shared host; set-up that is
#: mostly start-up is scaled by this instead.
STARTUP_CODE = (
    "import argparse, dataclasses, decimal, email.message, hashlib, "
    "http.client, json, logging, pathlib, typing, unittest"
)
#: Interpreters per start-up calibration; their mean is its value.
STARTUP_RUNS = 3
#: Reference duration of one :data:`STARTUP_CODE` interpreter, in
#: seconds, near its speed on the host named at :data:`REFERENCE_S`.
STARTUP_REFERENCE_S = 0.12


class _Item:
    __slots__ = ("key", "weight", "link")

    def __init__(self, key: int, weight: int, link: "_Item | None") -> None:
        self.key = key
        self.weight = weight
        self.link = link


def spin(iters: int = SPIN_ITERS) -> int:
    """The fixed calibration workload; returns a checksum so the work
    cannot be skipped."""
    table: dict[int, _Item] = {}
    window: list[_Item] = []
    acc = 0
    state = 12345
    for i in range(iters):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state & 255
        item = _Item(key, i, table.get(key))
        table[key] = item
        if state & 3 == 0:
            window.append(item)
        elif state & 3 == 1 and window:
            acc += window[-1].weight & 7
        elif item.link is not None:
            acc ^= item.link.key
        else:
            acc += 1
        if len(window) > 32:
            del window[:16]
    return acc + len(table)


def calibrate(samples: int = SAMPLES) -> float:
    """One calibration value: the mean duration of ``samples`` runs of
    :func:`spin`, in seconds.  The mean, not the median, because the
    work being scaled pays for the host's slow moments too.

    The collector is paused meanwhile: the loop's objects die by
    reference count, so the program under test sees the same garbage
    collections, and the same peak memory, as it would without
    calibration."""
    durations = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(samples):
            start = time.perf_counter()
            spin()
            durations.append(time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.fmean(durations)


def run_interpreter(code: str, cwd: Path, env: dict) -> float:
    """Seconds a fresh interpreter takes to run ``code`` and exit."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        check=True, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def calibrate_startup(cwd: Path, env: dict, runs: int = STARTUP_RUNS) -> float:
    """One start-up calibration: the mean duration of ``runs``
    interpreters running :data:`STARTUP_CODE`."""
    return statistics.fmean(
        run_interpreter(STARTUP_CODE, cwd, env) for _ in range(runs)
    )


def startup_samples(
    work: Callable[[], object], samples: int, cwd: Path, env: dict
) -> tuple[list[float], list[float]]:
    """(normalised, raw) seconds of ``samples`` runs of start-up work.

    A start-up calibration runs before the first sample and after each
    one; each sample is scaled by ``STARTUP_REFERENCE_S`` over the mean
    of the two around it."""
    norm, raw = [], []
    before = calibrate_startup(cwd, env)
    for _ in range(samples):
        start = time.perf_counter()
        work()
        seconds = time.perf_counter() - start
        after = calibrate_startup(cwd, env)
        raw.append(seconds)
        norm.append(seconds * STARTUP_REFERENCE_S / ((before + after) / 2))
        before = after
    return norm, raw


class NormClock:
    """A raw timeline with calibration points, and normalised lengths.

    Call :meth:`calibrate` at quiet points: the edges of a unit of work
    (a pass, one set-up sample) and the boundaries inside it (cells,
    gaps between request rounds).  A unit's normalised length is its
    raw length, calibration time excluded, times :meth:`factor`:
    ``REFERENCE_S`` over the mean of every calibration at its edges and
    inside it.  A span inside the unit is scaled by the same factor; a
    request or a cell by :meth:`local_factor`.
    """

    def __init__(self, measure: Callable[[int], float] = calibrate) -> None:
        self.measure = measure
        #: (raw_start, raw_end, value) of every calibration, in order.
        self.calibrations: list[tuple[float, float, float]] = []

    now = staticmethod(time.perf_counter)

    def calibrate(self, samples: int = SAMPLES) -> float:
        start = time.perf_counter()
        value = self.measure(samples)
        self.calibrations.append((start, time.perf_counter(), value))
        return value

    def factor(self, raw_start: float, raw_end: float) -> float:
        """``REFERENCE_S`` over the mean of the calibrations bracketing
        and inside a unit of work.

        The calibrations are averaged before the reciprocal is taken:
        the reciprocal of one noisy calibration overstates the speed-up
        by about its relative variance, which itself changes with the
        host's state."""
        cals = self.calibrations
        before = [c for c in cals if c[1] <= raw_start]
        after = [c for c in cals if c[0] >= raw_end]
        if not before or not after:
            raise ValueError("need a calibration before and after the work")
        inside = [c for c in cals if raw_start <= c[0] and c[1] <= raw_end]
        values = [before[-1][2], *(c[2] for c in inside), after[0][2]]
        return REFERENCE_S / statistics.fmean(values)

    def local_factor(self, raw: float) -> float:
        """``REFERENCE_S`` over the mean of the two calibrations around
        one instant.  For short intervals (one request, one cell), whose
        speed follows the host's from moment to moment, this tracks the
        host better than the factor of the whole unit."""
        cals = self.calibrations
        i = bisect.bisect_left([c[0] for c in cals], raw)
        if i == 0 or i == len(cals):
            raise ValueError("need a calibration before and after the work")
        return REFERENCE_S / ((cals[i - 1][2] + cals[i][2]) / 2)

    def raw_work(self, raw_start: float, raw_end: float) -> float:
        """Raw seconds of an interval, calibration time excluded."""
        inside = sum(
            max(0.0, min(end, raw_end) - max(start, raw_start))
            for start, end, _ in self.calibrations
        )
        return raw_end - raw_start - inside

    def span(self, raw_start: float, raw_end: float) -> float:
        """Normalised length of a unit of work."""
        return self.raw_work(raw_start, raw_end) * self.factor(raw_start, raw_end)

    def mean_calibration(self) -> float:
        return statistics.fmean(c[2] for c in self.calibrations)


class PairedCalibration:
    """Calibrate both CPUs of a two-CPU workload at once.

    A single process measures only the CPU it happens to run on, and on
    a shared host the two CPUs slow down independently.  This runs
    :func:`calibrate` here and, at the same moment, in a helper process
    (started once, idle between calibrations); the value is the mean of
    the two.  Use it where the work under test spans processes.
    """

    def __init__(self) -> None:
        root = str(Path(__file__).resolve().parent.parent)
        self.proc = subprocess.Popen(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {root!r}); "
             "from bench.calibrate import _helper; _helper()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self, samples: int = SAMPLES) -> float:
        self.proc.stdin.write(f"{samples}\n")
        self.proc.stdin.flush()
        here = calibrate(samples)
        there = float(self.proc.stdout.readline())
        return (here + there) / 2

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        finally:
            self.proc.wait(timeout=30)


def _helper() -> None:
    """Body of the :class:`PairedCalibration` helper process."""
    for line in sys.stdin:
        print(calibrate(int(line)), flush=True)


class Calibrator:
    """Calibrate at work boundaries, at most once per ``every`` raw
    seconds of work, so calibration costs a few per cent of a run
    while still tracking how the host's speed drifts."""

    def __init__(self, clock: NormClock, every: float = 0.2) -> None:
        self.clock = clock
        self.every = every
        self._last = clock.now()

    def force(self, samples: int = SAMPLES) -> None:
        self.clock.calibrate(samples)
        self._last = self.clock.now()

    def boundary(self) -> None:
        if self.clock.now() - self._last >= self.every:
            self.force()
