"""Host-speed probe behind the calibrated op times.

The benchmark runs on a few cores of a shared host.  Its speed drifts by
tens of percent over minutes and jumps within a second, as other tenants
come and go, and the drift shows in CPU time as much as in wall time.  A
wall time alone then measures the neighbours as much as the program.

The probe times a fixed reference next to every op and scales the op's
wall time by NOMINAL_S over the op's mean reference time: the calibrated
time is what the op takes on the same host while the reference takes its
quiet-period time.  A reference does not touch the package, so a change
to the program moves the calibrated time as it moves the wall time.

Each workload has the reference whose slow-downs matched its op's when
candidates were timed right next to ops (correlation, and a slope near 1
between the two logs).  Each shares its op's bottleneck:

- verify-large (interpreter, big ints, small arrays): a small-int Python
  loop plus a complex exp and multiply over a 1 MiB numpy array, timed at
  both edges of the op and every INTERVAL_S during it from a SIGALRM
  handler in the main thread (no thread is added; a handler runs between
  bytecodes, or after the C call in progress returns).  The probe's time
  is taken out of the op's.
- eval-disk (numpy streaming over arrays far larger than L2): the same
  exp and multiply over an 8 MiB array, at both edges of the op.
- cli-verify (a child process): the start of a bare interpreter
  (`python -c pass`), at both edges.  A child's time follows process
  start-up and page fault cost, which a probe in the waiting parent does
  not see.
"""

import functools
import signal
import subprocess
import sys
import time

import numpy as np

INTERVAL_S = 0.1


@functools.cache
def _array(size):
    """Fixed complex input, built on first use so that only the reference a
    workload uses adds to its memory."""
    return np.random.default_rng(size).standard_normal(size) + 0.5j


def _exp_mul(size):
    a = _array(size)
    np.exp(a * 0.1) * a


def interpreter_reference():
    s = 0
    for i in range(20_000):
        s += i * i
    _exp_mul(1 << 16)  # 1 MiB


def stream_reference():
    _exp_mul(1 << 19)  # 8 MiB


def spawn_reference():
    subprocess.run([sys.executable, "-c", "pass"], check=True)


# (reference, its quiet-period time, in-op sampling interval or None).  The
# quiet-period times are the fastest few percent of samples on a 2-vCPU
# Xeon VM; they only fix the unit of the calibrated time.
INTERPRETER = (interpreter_reference, 3.1e-3, INTERVAL_S)
STREAM = (stream_reference, 25e-3, None)
SPAWN = (spawn_reference, 48e-3, None)


class SpeedProbe:
    """Times ops together with a reference around (and during) them."""

    def __init__(self, reference, nominal_s, interval):
        self.reference = reference
        self.nominal_s = nominal_s
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.reference()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def run(self, fn):
        """Call fn().  Returns (result or None, exception or None, wall
        seconds without the probe's time, calibrated seconds)."""
        self.samples = []
        self._sample()
        self.spent = 0.0
        if self.interval:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        out, error = None, None
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # the caller counts it as a failed op
            error = exc
        finally:
            if self.interval:
                # Disarm first: a sample still pending runs before t1 is
                # read, so everything in self.spent lies inside [t0, t1].
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            t1 = time.perf_counter()
            if self.interval:
                signal.signal(signal.SIGALRM, previous)
        wall = t1 - t0 - self.spent
        self._sample()
        return out, error, wall, wall * self.nominal_s * len(self.samples) / sum(self.samples)
