"""Reference work that tracks how fast the machine runs Python right now.

On a shared host the interpreter's speed drifts by 20% or more over minutes,
which no median inside one run can remove. The benchmark therefore times this
fixed piece of work next to the program, throughout the run, and reports
every time scaled to a reference speed:

    reported = measured * REFERENCE_S / median(reference samples of the same phase)

The work is interpreter-bound integer arithmetic, dict lookups and isinstance
tests. It uses nothing from protomerge, so a change to the library cannot
move it. Measured on 2 shared vCPUs, the summed time of a pass of
`nbody-scale` spread by 21% (interquartile range over median, 85 passes);
scaled by the reference taken during the same pass, by 8%.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Median time of `reference_work()` on the machine the bounds were set on
# (2 shared vCPUs, Python 3.11); a speed factor of 1 means that speed.
REFERENCE_S = 0.004

# Sample the reference after at most this much measured work.
SAMPLE_EVERY_S = 0.1


def reference_work() -> int:
    # The collector stays off so a collection of the program's heap cannot
    # land in a sample.
    gc.disable()
    try:
        table = {i: i for i in range(101)}
        acc = 0
        for i in range(30000):
            acc += table[i % 101] * (i & 7)
            if isinstance(acc, int):
                acc &= 0xFFFF
        return acc
    finally:
        gc.enable()


def time_reference() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class Speedometer:
    """Reference samples taken between instances.

    A pass runs the infer path of every instance, then the oracle path of
    every instance. Each of these two phases gets its own factor from the
    samples taken during it, because the speed drifts within a pass too.
    """

    def __init__(self):
        self.factors: list[float] = []
        self._pass: list[float] = []
        self._phase: list[float] = []
        self._since = 0.0

    def _sample(self) -> None:
        sample = time_reference()
        self._pass.append(sample)
        self._phase.append(sample)

    def begin_pass(self) -> None:
        self._pass = []

    def begin_phase(self) -> None:
        self._phase = []
        self._since = 0.0
        self._sample()

    def after(self, measured_s: float) -> None:
        self._since += measured_s
        if self._since >= SAMPLE_EVERY_S:
            self._since = 0.0
            self._sample()

    def end_phase(self) -> float:
        """The factor that puts this phase's measured times at reference speed."""
        self._sample()
        return REFERENCE_S / statistics.median(self._phase)

    def end_pass(self) -> float:
        """The factor for the whole pass, for figures that span both phases."""
        factor = REFERENCE_S / statistics.median(self._pass)
        self.factors.append(factor)
        return factor
