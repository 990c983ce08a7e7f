"""A fixed mix of work that does not involve snrsched, timed to gauge machine speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes. The op's own process times this mix just before and just
after the op, so both see the same processor in the same state; the op's
time is then reported at the speed where the mix takes ``REFERENCE_S``.
The parts stand for the ops' kinds of work: tuple-keyed dict updates (the
beam DP), small numpy calls in a Python loop (the exact DP), and exp and
row sums on (8192, 8) arrays (the posterior kernels). The arrays stay
below 1 MiB, so the mix never raises the peak RSS that the op reports.
"""

import time

import numpy as np

REFERENCE_S = 0.25  # the mix's time at the reference speed (about this machine's median)


def calibration_s() -> float:
    t0 = time.perf_counter()
    best = {}
    for i in range(250_000):
        key = (i % 251, i % 7)
        if key not in best or i < best[key]:
            best[key] = i * 0.5
    a = np.linspace(0.0, 1.0, 2000)
    for j in range(10_000):
        int(np.argmin(a[: 1000 + j % 1000] - 0.5 * j))
    x = np.linspace(-3.0, 3.0, 8192)[:, None] - np.linspace(-2.0, 2.0, 8)[None, :]
    for _ in range(160):
        r = np.exp(-0.5 * x * x)
        r /= r.sum(axis=1, keepdims=True)
    return time.perf_counter() - t0
