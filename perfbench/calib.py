"""Host-speed calibration: a fixed reference task timed next to the ops.

The benchmark runs on shared hosts whose speed drifts, at times by a
factor of 1.5 to 2 over tens of seconds, in CPU time as well as wall
time.  Every timed interval is therefore scaled by
``REFERENCE_MS / t_ref``, where ``t_ref`` is the time of the reference
task measured right before and after that interval.  A reported time
reads as the time on a host where the reference task takes exactly
``REFERENCE_MS``.

The task is exact ``Fraction`` arithmetic from the standard library, the
kind of work the engine spends most of its time on, and it touches no
engine code: an engine change moves the op times and leaves the scale
alone.  The unscaled times are printed on standard error next to every
scaled metric.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Reference-task time that defines the reported scale (about its time on
# a 2-core shared x86-64 host running CPython 3).
REFERENCE_MS = 2.0
REPEATS = 3


def _task() -> Fraction:
    s = Fraction(0)
    for k in range(1, 400):
        s += Fraction(1, k * k + 1)
    return s


def sample() -> float:
    """Reference-task time in ms: the fastest of a few back-to-back runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _task()
        best = min(best, perf_counter() - t0)
    return best * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """Factor from measured to reported time for an interval between two samples."""
    return REFERENCE_MS / ((before_ms + after_ms) / 2)
