"""Timing at a fixed host speed.

Shared hosts swing between speeds: on the 2-CPU host used to tune this
benchmark the same work took anywhere from 1x to 2x its fastest time, with
the speed changing every few seconds.  Runs minutes apart then differ more
than any bound worth having.  bpsim's cost is of one kind (numpy call
overhead on arrays of tens of elements, Python loops, float formatting), so a
fixed loop of that kind run next to the measured work slows down with it:
the two stayed within about 5% of a fixed ratio while the raw times swung by
a factor of two.  The loop touches no bpsim code, so a faster bpsim still
shows.
"""

from __future__ import annotations

import time

import numpy as np

# The reference loop's time on the tuning host at its fast speed.  Timed
# metrics are reported at this speed.
REF_NOMINAL_S = 0.05
# Shortest stretch of timed work between two reference samples.  The speed
# changes every few seconds, so segments must be shorter than that.
LAP_S = 0.5


def reference_s() -> float:
    """Wall time of a fixed loop of small numpy calls and float formatting."""
    rng = np.random.default_rng(0)
    gain = rng.random((10, 10))
    src, dst = rng.integers(0, 10, 34), rng.integers(0, 10, 34)
    x = rng.random(34) + 0.1
    acc = 0.0
    t0 = time.perf_counter()
    for k in range(4000):
        tx = np.bincount(src, weights=x, minlength=10)
        other = (gain.T @ tx)[dst] - gain[src, dst] * tx[src]
        y = np.log(np.where(other > 0, other, 1.0) + x)
        acc += float(np.dot(y, x))
        if k % 8 == 0:
            acc += len(",".join(repr(float(v)) for v in y[:16]))
    took = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise ArithmeticError("reference loop produced a non-finite value")
    return took


class Stopwatch:
    """Accumulates timed work, raw and scaled to the nominal host speed.

    The timed stretch is cut into segments at ``tick`` calls at least LAP_S
    apart; the reference loop runs at each cut, outside the timed time, and a
    segment is divided by the mean slowdown of the two samples around it.
    With ``sample=False`` no reference runs and both totals are raw.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.raw_s = self.nominal_s = 0.0
        self._last_ref = 0.0
        self._t = 0.0

    def start(self) -> None:
        self.raw_s = self.nominal_s = 0.0
        if self.sample:
            self._last_ref = reference_s()
        self._t = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        """Mark an operation boundary inside the timed stretch."""
        seg = time.perf_counter() - self._t
        if self.sample and not force and seg < LAP_S:
            return
        slow = 1.0
        if self.sample:
            ref = reference_s()
            slow = (self._last_ref + ref) / (2.0 * REF_NOMINAL_S)
            self._last_ref = ref
        self.raw_s += seg
        self.nominal_s += seg / slow
        self._t = time.perf_counter()

    def stop(self) -> float:
        """End the stretch; returns its time at the nominal host speed."""
        self.tick(force=True)
        return self.nominal_s
