"""A fixed piece of work that measures how fast the host runs right now.

The benchmark's host shares its cores with other tenants. Its speed moves
by up to 1.8x over minutes, longer than a run, and it moves everything
alike: in ten processes on one 2-core VM, the median times of a solver run,
of `write_libsvm` and of `parse_libsvm` spread 14-17% (up to 1.8x apart),
while each divided by this yardstick's median time in the same process
spread 4-7%. A session runs the yardstick once per cycle, between its
timed ops, and scales every timing by REFERENCE_S over the yardstick's
median (see Session.speed): a timing then reads as on a host where the
yardstick takes REFERENCE_S.

The work mirrors what vropt spends its time on, and does not call vropt, so
that no change to the program moves it: per-element numpy calls on short
vectors (the solvers' inner steps), text formatting and parsing in Python
(the LIBSVM writer and reader), and whole-array numpy work on long vectors
(full gradients, the O(d) terms of a step).
"""

from __future__ import annotations

import time

import numpy as np

# about the yardstick's median time on the reference host, a 2-core x86_64
# VM (Python 3.11.7, numpy 2.4.6, OpenBLAS at 1 thread); runs there read
# 0.026-0.033 s
REFERENCE_S = 0.03

_rng = np.random.default_rng(1908_09345)
_ROWS = _rng.standard_normal((256, 20))
_LABELS = np.sign(_rng.standard_normal(256))
_LONG = _rng.standard_normal((2, 20_000))


def _short_vectors() -> float:
    x = np.zeros(20)
    for k in range(1500):
        a, b = _ROWS[k & 255], _LABELS[k & 255]
        g = -b / (1.0 + np.exp(b * float(a @ x)))
        x -= 0.01 * (g * a + 1e-3 * x)
    return float(x @ x)


def _text() -> float:
    text = " ".join(f"{k % 97 + 1}:{k * 0.37:.6g}" for k in range(6000))
    total = 0.0
    for token in text.split():
        index, value = token.split(":")
        total += int(index) * float(value)
    return total


def _long_vectors() -> float:
    x = _LONG[0].copy()
    for _ in range(150):
        x -= 1e-4 * (float(x @ _LONG[1]) * _LONG[1] + x)
    return float(np.abs(x).sum())


def yardstick() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    _short_vectors()
    _text()
    _long_vectors()
    return time.perf_counter() - t0
