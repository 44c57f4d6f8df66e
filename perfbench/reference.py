"""A fixed piece of work that tells how fast the machine is right now.

The benchmark's machine changes speed by up to 1.8x for tens of seconds
at a time, more than any bound a regression check could use.  The run
therefore times this kernel every ``EVERY_S`` seconds, between and
inside operations, and scales its times by the kernel's time on the
baseline machine over its time now.  Drift slows the kernel and the
program alike, though not equally: interpreted Python slows more than
numpy.  So the kernel has two parts, timed apart.  ``python_part`` is
dict and string work.  ``numpy_part`` is strided numpy updates on 16 and
4096 amplitudes and one pass over 1 MiB.  In a noisy 4-minute stretch,
with an earlier version of the two parts, over 25 s windows:

- a pentagon spectrum job's mean time moved by 15% (quartile distance
  over median), its ratio to the Python part's mean by 3%;
- a square spectrum job: 16%, and 3% against the Python part;
- a pentagon evaluation: 13%, and 4% against the whole kernel;
- five noisy square shots: 18%, and 8% against the whole kernel.

``BASELINE.md`` gives the spreads of the scaled metrics over ten runs.
The kernel never calls hamqaoa, so no change to the program moves it.
"""
from __future__ import annotations

import time

import numpy as np

# Trimmed mean times of the two parts on the machine the first baseline
# was measured on (2 vCPUs, Python 3.11.7, numpy 2.4.6), so that scaled
# figures stay near that machine's seconds.
PYTHON_S = 0.0023
NUMPY_S = 0.0041
EVERY_S = 0.05
# An operation with no gaps inside (a batch of noisy shots) is bracketed
# by two samples only; the scale also takes this many on either side.
NEIGHBOURS = 5

_rng = np.random.default_rng(12345)
_TINY = _rng.random(16) + 1j * _rng.random(16)
_SMALL = _rng.random(4096) + 1j * _rng.random(4096)
_LARGE = _rng.random(1 << 16) + 1j * _rng.random(1 << 16)


def python_part() -> int:
    d = {}
    for i in range(8000):
        d[str(i)] = i * 3
    return sum(d.values())


def numpy_part() -> float:
    t = _TINY
    for _ in range(100):
        u = t.reshape(-1, 2, 4)
        t = (0.6 * u[:, ::-1, :] + 0.8j * u).reshape(-1)
    x = _SMALL
    for _ in range(40):
        y = x.reshape(-1, 2, 32)
        x = (0.6 * y[:, ::-1, :] + 0.8j * y).reshape(-1)
    z = _LARGE * np.exp(-0.1j * _LARGE.real)
    return float(abs(t[0]) + abs(x[0]) + abs(z[0]))


def kernel() -> tuple[float, float]:
    """Seconds taken by the Python part and by the numpy part."""
    t0 = time.perf_counter()
    python_part()
    t1 = time.perf_counter()
    numpy_part()
    return t1 - t0, time.perf_counter() - t1


def trimmed_mean(values, cut: float = 0.05) -> float:
    """Mean without the lowest and highest ``cut`` of the values.

    One stall of a few hundred milliseconds would otherwise move a mean
    of a few hundred millisecond-long samples by several percent.
    """
    x = np.sort(np.asarray(values, dtype=float))
    k = int(cut * len(x))
    return float(x[k : len(x) - k].mean())


class Reference:
    """Times of the kernel's two parts over one run."""

    def __init__(self):
        self.python: list[float] = []
        self.numpy: list[float] = []
        self.kernel = kernel
        self.spent = 0.0
        self._last = -np.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        py, nump = self.kernel()
        self.python.append(py)
        self.numpy.append(nump)
        self._last = time.perf_counter()
        self.spent += self._last - t0

    def maybe_sample(self) -> None:
        """Time the kernel if EVERY_S has passed since the last time."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def python_scale(self) -> float:
        """Baseline over current speed of interpreted Python, whole run."""
        return PYTHON_S / trimmed_mean(self.python)

    def scale(self, first: int, last: int) -> float:
        """Baseline over current speed of the whole kernel, from sample
        ``first`` to ``last`` widened by ``NEIGHBOURS`` on each side."""
        lo = max(0, first - NEIGHBOURS)
        hi = last + NEIGHBOURS + 1
        whole = np.add(self.python[lo:hi], self.numpy[lo:hi])
        return (PYTHON_S + NUMPY_S) / trimmed_mean(whole)
