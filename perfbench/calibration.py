"""A fixed, library-free kernel that tracks how fast the machine runs right now.

On a shared virtual machine the same op can take twice as long from one
minute to the next, with slow spells that outlast a whole run.  A raw
latency then says more about the neighbours than about the program.  The
benchmark therefore times this kernel next to the ops, in the same
windows, and reports times in reference units:

    reference time = raw time * REFERENCE_US[n] / kernel time in that window

so a spell that slows both by the same factor cancels.  The kernel imitates
one round trip at grid size n without calling ipcrypt: an XOF draw seeding a
generator, a centered-binomial vector, two n x n matvecs and a tuple of
thresholded cell means.  At n = 256 it is bound by the interpreter and small
numpy calls, like the ops there; at n = 2048 by streaming a 32 MiB matrix,
like the ops there.  It never changes, so it measures the machine, not the
code under test.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# Median kernel time on the machine the benchmark was written on (2-core
# x86_64 VM, Python 3.11, numpy 2.4.6, OpenBLAS, 1 thread).  It only sets the
# unit: reference figures read as microseconds on that machine.
REFERENCE_US = {256: 120.0, 2048: 4000.0}
REPEATS = 3


class Calibrator:
    """The kernel at one grid size, with its fixed matrix and message profile."""

    def __init__(self, n: int) -> None:
        if n not in REFERENCE_US:
            raise ValueError(f"no calibration reference for n = {n}")
        self.n = n
        rng = np.random.default_rng(20251017)
        self.matrix = rng.random((n, n)) / n
        self.profile = np.repeat(rng.integers(0, 2, size=32).astype(np.float64), n // 32)
        self._counter = 0

    def _kernel(self) -> tuple[int, ...]:
        self._counter += 1
        seed = hashlib.shake_256(self._counter.to_bytes(8, "little") * 6).digest(32)
        rng = np.random.default_rng(int.from_bytes(seed, "little"))
        plus = rng.integers(0, 2, size=(self.n, 2))
        noise = (plus - rng.integers(0, 2, size=(self.n, 2))).sum(axis=1)
        smoothed = self.matrix @ (self.profile + 0.5 * noise)
        back = self.matrix.T @ smoothed
        return tuple(int(m >= 0.5) for m in back.reshape(32, -1).mean(axis=1))

    def sample(self) -> int:
        """Kernel time in ns: the fastest of REPEATS back-to-back runs."""
        best = None
        for _ in range(REPEATS):
            start = time.perf_counter_ns()
            self._kernel()
            ns = time.perf_counter_ns() - start
            best = ns if best is None else min(best, ns)
        return best


def factor(n: int, samples: list[int]) -> float:
    """Multiplier from raw to reference time, given kernel samples taken around it."""
    return REFERENCE_US[n] * 1e3 / float(np.median(samples))
