"""Host-speed normalisation of the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed changes for
seconds to minutes at a time (other tenants, the host's turbo budget): the
same cold cell took between 1.0x and 2.4x its fastest time within three
minutes on a 2-core Xeon host, with process CPU time equal to wall time, so
the slowdown is the core running slower, not the process waiting.  A fixed
reference workload run between the units of the program slows down with
it (log-correlation 0.72-0.77 per unit there).  Over 15-second windows the
summed unit time divided by the window's median reference time spread
0.04-0.06 of its value where the raw sum spread 0.09-0.11.

So a run probes the reference between its timed units -- after every cold
cell or lockstep row, warm block and serve slice, and every 0.3 s inside a
cold call -- and :func:`rescale` reports every end-to-end time at the speed
at which the reference takes :data:`NOMINAL_S`::

    reported = wall * (NOMINAL_S / median(probes of the metric's phase)) ** s

with the sensitivity ``s`` 1 for work in the probing process; the served
requests of ``serve_mixed`` (replica processes on the probing CPU) slow
down less than the reference, and use a smaller one.

Each metric is rescaled by the probes of the phase that measured it (the
cold cells, the warm replays, the serve slices, ...): a run can switch
speed between its phases.  The median over a phase's probes is robust to
a single probe's noise (a 14 ms probe alone spreads +-25%).  The reference
is the benchmark's own code (plain Python and NumPy in the program's
style: scalar Givens rotations, small-array ufuncs, bit rounding of
float64 words), so no change to the program moves it.  The raw wall
figures are kept in the run's notes.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

import numpy as np

_perf = time.perf_counter

#: median :func:`reference_seconds` on a 2-core Xeon (family 6 model 207)
#: host, so normalised figures read close to that host's wall times
NOMINAL_S = 0.0045
#: reference runs per probe; the probe is their median
PROBE_RUNS = 5
#: period and reference runs of the probes inside a long timed call
INNER_PERIOD_S = 0.3
INNER_RUNS = 3

_MASK = np.uint64(0xFFFFFFFFFFFFE000)
_HALF = np.uint64(0x1000)


def _round(x):
    """Round float64 words to 39 fraction bits (a toy format)."""
    u = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    return ((u + _HALF) & _MASK).view(np.float64)


def _eigen_sweeps(n: int = 32, sweeps: int = 6) -> float:
    d = _round(np.linspace(1.0, 2.0, n))
    e = _round(np.full(n - 1, 0.25))
    v = _round(np.cos(np.arange(n, dtype=np.float64)))
    total = 0.0
    for _ in range(sweeps):
        for i in range(n - 1):
            a, b = float(d[i]), float(e[i])
            r = math.hypot(a, b)
            c, s = a / r, b / r
            d[i] = r
            e[i] = s * float(d[i + 1])
            d[i + 1] = c * float(d[i + 1])
            total += c
        w = _round(d * v)
        v = _round(w / math.sqrt(float(np.dot(w, w))))
        d = _round(d + 0.5 * v * v)
        e = _round(e * 0.9)
    return total


def _interpreter_loop(count: int = 6000) -> int:
    table = {}
    total = 0
    for i in range(count):
        key = i & 63
        total += table.get(key, 0) + i * i
        table[key] = total & 0xFFFF
    return total


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference workload."""
    t0 = _perf()
    for _ in range(8):
        _eigen_sweeps()
    _interpreter_loop()
    return _perf() - t0


def probe(runs: int = PROBE_RUNS) -> float:
    """The median of ``runs`` reference runs, in seconds.

    The cyclic garbage collector is paused meanwhile: a collection the
    program's garbage has made due (after a lockstep row, up to 2.5x the
    probe) belongs to the program's next unit, not to the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(reference_seconds() for _ in range(runs))
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Times units of work and probes the host after each, filing the
    probes under the current phase."""

    def __init__(self, inner: bool = True):
        reference_seconds()  # the first run warms NumPy's dispatch caches
        self.inner = inner
        self.probes: dict = {}
        self.current: list = []

    def phase(self, name: str) -> None:
        """Start phase ``name`` with a probe."""
        self.current = self.probes.setdefault(name, [])
        self.probe()

    def probe(self) -> None:
        self.current.append(probe())

    def timed(self, fn, *args, **kwargs):
        """``(result, wall seconds, probe seconds)`` of one long call, then
        a probe.  The wall time excludes the probes inside the call.

        A cold cell or lockstep row runs for seconds, and a short probe
        between two of them catches a moment of the host's speed rather
        than the speed the call ran at.  So a timer also probes every
        :data:`INNER_PERIOD_S` inside the call (a Python signal handler
        runs between two bytecodes of the main thread), and the probes'
        own time is taken out of the call's wall time.
        """
        spent = [0.0]

        def inner_probe(_signum, _frame):
            start = _perf()
            self.current.append(probe(INNER_RUNS))
            spent[0] += _perf() - start

        if self.inner:
            previous = signal.signal(signal.SIGALRM, inner_probe)
            signal.setitimer(signal.ITIMER_REAL, INNER_PERIOD_S, INNER_PERIOD_S)
        t0 = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = _perf() - t0
            if self.inner:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self.probe()
        return result, wall - spent[0], spent[0]


def speed(probes) -> float:
    """Host speed over ``probes``; the nominal speed is 1."""
    return NOMINAL_S / statistics.median(probes)


def rescale(value: float, unit: str, probes, sensitivity: float = 1.0) -> float:
    """``value`` at the nominal host speed: a time (``s``, ``ms``) is
    multiplied, a rate (``1/s``) divided by the host speed raised to
    ``sensitivity``, the log-log slope of the measured time on the probe
    time (1 for work in the probing process)."""
    factor = speed(probes) ** sensitivity
    if unit == "1/s":
        return value / factor
    if unit in ("s", "ms"):
        return value * factor
    raise ValueError(f"no host-speed rescaling for unit {unit!r}")
