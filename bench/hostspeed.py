"""Host-speed reference: a fixed numpy kernel timed through every run.

The host the benchmark was defined on (2 vCPUs of a shared machine) changes
speed by up to about 2x, back and forth within a second and in episodes of
tens of seconds, in CPU time as much as in wall time.  To keep runs of the
same code comparable, a fixed kernel shaped like qmor's hot loops (a
frequency sweep of a small system: complex solves and output norms in a
Python loop) is timed before every set-up round and between stretches of
ops.  The set-up time is multiplied by
``(REFERENCE_S / mean kernel time) ** EXPONENT`` over the set-up's kernel
timings, and the op times by the same factor over the op phase's timings.
One factor per phase follows the episodes without adding the kernel's
moment-to-moment noise to each op.

The exponent was picked from measurements on that host.  The kernel's time swings more than
the ops' do: over eight minutes of ``select`` ops timed between kernel runs,
the slope of log op time on log kernel time was 0.45 to 0.6.  On five-run
sets, the quartile spread of the op metrics (as a share of the median) was
0.14-0.25 raw; the plain ratio (exponent 1) left 0.05 on ``certify_small``
but 0.09-0.14 on ``select``, the square root 0.11-0.14 and 0.05-0.13, and
0.75 left 0.08-0.09 and 0.09-0.13.

The kernel does not call qmor, so a change to qmor moves the scaled times as
much as the raw ones.  The raw times and the factors are recorded beside
them.
"""

import statistics
import time

import numpy as np

# A round figure near the kernel's mean time on the 2-vCPU host the benchmark
# was defined on (6.9 ms over the runs of its ten-seed check, 8 to 9 ms in
# slow periods).
REFERENCE_S = 0.008
EXPONENT = 0.75
# Ops run in stretches of at least this many seconds between two kernel timings.
STRETCH_S = 1.0
REPEATS = 3  # back-to-back kernel runs per timing
STATES, PORTS, POINTS = 6, 2, 120

_rng = np.random.default_rng(1509)
_A = _rng.standard_normal((STATES, STATES)) + 1j * _rng.standard_normal((STATES, STATES))
_B = _rng.standard_normal((STATES, PORTS))
_C = _rng.standard_normal((PORTS, STATES))
_OMEGAS = np.linspace(0.0, 10.0, POINTS)


def _kernel():
    for omega in _OMEGAS:
        x = np.linalg.solve(1j * omega * np.eye(STATES) - _A, _B)
        np.linalg.norm(_C @ x, 2)


def kernel_seconds():
    """Seconds of ``REPEATS`` back-to-back kernel runs, one timing each."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


class Reference:
    """The reference-kernel timings taken through one phase of a run."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.extend(kernel_seconds())

    def factor(self):
        """Multiplier that takes the phase's times to the reference host speed."""
        return (REFERENCE_S / statistics.fmean(self.samples)) ** EXPONENT
