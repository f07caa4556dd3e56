"""Machine-speed gauge: scales measured times to a fixed reference speed.

The benchmark shares its CPUs with other tenants, and how fast this
machine runs the same Python code drifts by 20 % and more over tens of
seconds.  The drift hits the program and any other Python code alike, so
the benchmark interleaves a small fixed reference kernel (interpreter
loops, small numpy products, float formatting, no ontokit code) with the
work it measures, and divides every measured time by the slowness the
kernel shows at the same moments:

    slowness = mean reference-kernel time / REFERENCE_SECONDS
    reported time = measured time / slowness

A change to ontokit cannot change the kernel, so scaled times still move
one for one with the program's own speed.  Raw times are kept in the run
record next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time at the reference speed: its median on the reference machine
# (2 vCPU x86-64, Python 3.11, numpy 2.4, OpenBLAS on one thread).
REFERENCE_SECONDS = 1.0e-3
# One kernel sample is taken per this much measured work.
SAMPLE_EVERY_S = 0.01

_MATRIX = np.arange(49, dtype=float).reshape(7, 7) / 49.0


def reference_kernel() -> float:
    acc = 0.0
    for _ in range(120):
        acc += float(np.abs(_MATRIX @ _MATRIX).sum()) * 1e-6
        for j in range(25):
            acc += j * 0.5
    parts = [format(acc * i, ".17g") for i in range(150)]
    table = {str(i): (i, len(p)) for i, p in enumerate(parts)}
    return acc + len(table)


class SpeedGauge:
    """Mean time of reference-kernel samples."""

    def __init__(self):
        self.kernel_s = 0.0
        self.samples = 0

    def sample(self) -> None:
        t0 = perf_counter()
        reference_kernel()
        self.kernel_s += perf_counter() - t0
        self.samples += 1

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    @property
    def slowness(self) -> float:
        return self.kernel_s / self.samples / REFERENCE_SECONDS
