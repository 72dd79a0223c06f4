"""Machine-speed references for scaling measured times.

The shared machines this benchmark runs on change speed by up to 2x
over tens of seconds: a fixed op timed once a second drifted between
580 and 1190 runs per half second, and its process CPU time drifted
with it.  Raw times from two runs minutes apart can therefore differ by
more than any useful regression bound.

A `Speedometer` times a fixed reference task between ops, never inside
one, and records its slowness: the task's time over its reference
time.  A time divided by the slowness around it is the time the same
work takes on a machine where the task takes exactly its reference
time.  There are two references, because work in the measuring
process and work in fresh processes drifted independently:

- `in_process`: a loop of the kind of work the package does
  (Kronecker products of 2x2 matrices and a trace against an 8x8
  state, in small numpy calls).  The ratio of a package op to it stayed
  within a few percent while each swung by 30-40%.
- `fresh_process`: starting and stopping a bare interpreter.  Over
  three minutes the raw time of a CLI run spread 13% and its ratio to
  this reference 4%; scaled by the in-process loop it spread 25%.
"""

import subprocess
import sys
import time

import numpy as np

EVERY_S = 0.5  # at most this long between references during a loop
LOOP_ITERATIONS = 500
LOOP_REFERENCE_S = 0.025
START_REFERENCE_S = 0.08


class Speedometer:
    def __init__(self, task, reference_s):
        self._task = task
        self._reference_s = reference_s
        self.marks = []  # (time the task ended, slowness)

    def burst(self):
        start = time.perf_counter()
        self._task()
        end = time.perf_counter()
        self.marks.append((end, (end - start) / self._reference_s))

    def burst_if_due(self):
        """A burst when EVERY_S has passed since the last one."""
        if not self.marks or time.perf_counter() - self.marks[-1][0] >= EVERY_S:
            self.burst()

    def around(self, start, end):
        """Mean slowness of the last burst before `start` and the first
        after `end`, falling back to whichever exists."""
        before = [s for t, s in self.marks if t <= start]
        after = [s for t, s in self.marks if t >= end]
        near = before[-1:] + after[:1]
        return sum(near) / len(near)


def in_process():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = m @ m.conj().T
    state = m / np.trace(m)
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    b = np.array([[1, 0], [0, -1]], dtype=complex)

    def loop():
        for _ in range(LOOP_ITERATIONS):
            float(np.trace(np.kron(np.kron(a, b), a) @ state).real)

    return Speedometer(loop, LOOP_REFERENCE_S)


def fresh_process():
    def start():
        subprocess.run([sys.executable, "-c", "pass"], check=True)

    return Speedometer(start, START_REFERENCE_S)
