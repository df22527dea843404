"""A clock that runs at a fixed reference speed, for steady timings.

The benchmark runs on shared machines whose CPU speed drifts by up to 2x
within seconds (contention the guest cannot see: CPU time grows with wall
time, and no steal time is reported).  Raw wall times then spread more
from run to run than any change worth measuring.

``SpeedClock`` samples the machine's speed every ``TICK_S`` seconds of
wall time with a short fixed reference computation (small NumPy
operations in a Python loop, the same mix as cubicmin's own hot loops),
run from a SIGALRM handler in the main thread between bytecodes.  Its
``now()`` advances by each stretch of wall time multiplied by
``REF_NOMINAL_S / reference duration``, the reference measured at the
start of the stretch: seconds as they would read at the nominal speed.
The handler's own time is left out, so the program's time is not
charged with the probes, which take about 3% of the wall time.

Measured on a 2-core Xeon VM, repeating the same 30 models_small items
for 150 s: the median batch time of 11-second windows spread 19%
(inter-quartile range over median) in wall time and 3% in reference time;
single batches (0.2 s) spread 30% and 5%.

Only benchmark code is in the reference, so a change to cubicmin moves
reference time exactly as it moves wall time at a steady machine speed.
"""

import signal
import statistics
import time
from array import array

import numpy as np

TICK_S = 0.025
REF_ROUNDS = 100
# About the reference's duration on an uncontended 2-core Xeon VM (run
# medians there ranged 0.4-0.9 ms); a fixed constant, so reference seconds
# compare across runs and commits.
REF_NOMINAL_S = 5.0e-4

_A = np.eye(6)
_V = np.arange(6.0)


def reference():
    """The fixed reference computation; returns its wall duration."""
    t0 = time.perf_counter()
    for _ in range(REF_ROUNDS):
        w = _A @ _V
        np.linalg.norm(w)
        w * 2.0 + _V
    return time.perf_counter() - t0


class SpeedClock:
    """Reference-speed clock; use as a context manager around the timed work."""

    def __init__(self, tick_s=TICK_S):
        self.tick_s = tick_s
        self.probes = array("d")  # every reference duration measured
        self.probe_s = 0.0  # wall time spent in probes
        self._ticks = 0
        self._v = 0.0  # reference seconds up to wall time self._t
        self._t = 0.0
        self._factor = 1.0
        self._previous = None

    def _probe(self):
        t0 = time.perf_counter()
        ref = reference()
        t1 = time.perf_counter()
        self.probes.append(ref)
        self.probe_s += t1 - t0
        # Two probes smooth a single one that an interrupt lengthened.
        mean = ref if self._previous is None else 0.5 * (ref + self._previous)
        self._previous = ref
        return t0, t1, REF_NOMINAL_S / mean

    def _on_tick(self, signum, frame):
        t0, t1, factor = self._probe()
        self._v += (t0 - self._t) * self._factor
        self._t = t1
        self._factor = factor
        self._ticks += 1

    def __enter__(self):
        _, self._t, self._factor = self._probe()
        self._saved = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def now(self):
        """Reference seconds since the clock started."""
        while True:
            ticks = self._ticks
            value = self._v + (time.perf_counter() - self._t) * self._factor
            if ticks == self._ticks:  # no tick ran in between
                return value

    def summary(self, wall_s):
        """Probe statistics for a result file; ``wall_s`` is the run's wall time."""
        q1, median, q3 = statistics.quantiles(self.probes, n=4)
        return {
            "probes": len(self.probes),
            "probe_q1_s": q1,
            "probe_median_s": median,
            "probe_q3_s": q3,
            "probe_share_of_wall": self.probe_s / wall_s,
            "nominal_s": REF_NOMINAL_S,
        }
