"""Machine-speed reference for timings on a shared, noisy host.

On the shared 2-core machine this benchmark was built on, the speed
available to one process drifts by 20-50% over tens of seconds: the same
four searches took 32 s and 48 s in consecutive runs. Raw wall times
therefore spread more between runs than any change worth detecting.

While the timed phase runs, ``SpeedProbe`` interrupts the process every
``PERIOD_S`` (SIGALRM, handled in the main thread between bytecodes, so the
library's own work is never running concurrently) and times a fixed
reference kernel of small SVDs and a small LP. Each operation's time
is then rescaled by ``REFERENCE_S / median kernel time`` over the samples
taken while it ran (the nearest few for operations shorter than the period):
a time in reference seconds, the time the operation would have taken had the
kernel run in ``REFERENCE_S``. The probe's own time is excluded from every
measured interval (``now``). The period, the sample window and the median
were chosen on repeated small searches, where they cut the spread of single
search times about in half against raw times.
"""

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.optimize import linprog

REFERENCE_S = 0.003  # the kernel's time at the reference speed
PERIOD_S = 0.05
MIN_SAMPLES = 3
CALIBRATION_RUNS = 10

_RNG = np.random.default_rng(0)
_CLOUD = _RNG.uniform(-1.0, 1.0, size=(60, 3))
_LP_COST = np.concatenate([np.zeros(60), np.ones(6)])
_LP_EQ = np.zeros((4, 66))
_LP_EQ[:3, :60] = _CLOUD.T
_LP_EQ[:3, 60:63] = -np.eye(3)
_LP_EQ[:3, 63:] = np.eye(3)
_LP_EQ[3, :60] = 1.0
_LP_RHS = np.array([0.1, 0.2, 0.3, 1.0])
_LP_BOUNDS = [(0.0, 1.0)] * 60 + [(0.0, None)] * 6


def kernel():
    """Fixed reference work: small SVDs and one small LP. Of the kinds of
    work the library does, these tracked the drift of every workload best
    (log-time correlation 0.85-0.95 with classify, shape fitting and shape
    enumeration); pure-interpreter kernels over-corrected."""
    centred = _CLOUD - _CLOUD.mean(axis=0)
    acc = 0.0
    for _ in range(10):
        acc += float(np.linalg.svd(centred, compute_uv=False)[0])
    res = linprog(_LP_COST, A_eq=_LP_EQ, b_eq=_LP_RHS, bounds=_LP_BOUNDS, method="highs")
    return acc + float(res.fun)


def calibrate(runs=CALIBRATION_RUNS):
    """Rescaling factor from back-to-back kernel runs (outside a probe)."""
    kernel()  # the first call pays scipy's lazy imports
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return REFERENCE_S / statistics.median(times)


class SpeedProbe:
    """Samples the kernel's time periodically while active."""

    def __init__(self):
        self.stamps = []
        self.times = []
        self.paused = 0.0
        self._previous = None

    def now(self):
        """A clock that does not advance while the probe itself runs."""
        return time.perf_counter() - self.paused

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.stamps.append(t0 - self.paused)
        self.times.append(t1 - t0)
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start, end):
        """Rescaling factor for an interval of ``now()`` readings: from the
        samples taken inside it, or the nearest few for a short interval."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        if hi - lo >= MIN_SAMPLES:
            window = self.times[lo:hi]
        else:
            mid = (start + end) / 2
            i = bisect.bisect_left(self.stamps, mid)
            near = range(max(0, i - MIN_SAMPLES), min(len(self.stamps), i + MIN_SAMPLES))
            near = sorted(near, key=lambda j: abs(self.stamps[j] - mid))[:MIN_SAMPLES]
            window = [self.times[j] for j in near]
        if not window:
            raise RuntimeError("no speed samples were taken")
        return REFERENCE_S / statistics.median(window)
