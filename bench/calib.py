"""Reference kernel: turns measured CPU seconds into seconds at a fixed speed.

On a shared virtual machine even CPU time swings by 10-20 % from second to
second, as other guests compete for the cores' caches and memory
bandwidth.  The benchmark runs this fixed kernel in the same process right
before and right after every operation it times, and scales the
operation's CPU seconds by NOMINAL_S / (mean of the two kernel times).
In a 100 s trial of back-to-back ``hm-sim die`` processes, the per-run
interquartile spread fell from 18 % raw to 5.8 % scaled, and for medians of
10 runs from 17 % to 0.7 %.  A kernel run in another process (maybe on the
other vCPU) did not correlate with the operation.  The kernel mixes an
interpreter-bound loop with sampler-like numpy array work, the two kinds of
work that hm-sim's operations consist of.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median CPU time of kernel_cpu() on the reference machine: 2-vCPU
# "Intel(R) Xeon(R) Processor" VM, Python 3.11.7, numpy 2.4.6, one BLAS thread.
NOMINAL_S = 0.072


def kernel_cpu() -> float:
    """CPU seconds of one run of the fixed reference kernel."""
    start = time.process_time()
    total = 0
    for i in range(200_000):
        total += i * i
    rng = np.random.default_rng(12345)
    u = rng.random(8)
    for _ in range(30):
        e = rng.standard_exponential((8192, 8))
        w = e / e.sum(axis=1, keepdims=True)
        np.argmin(w / u, axis=1)
    return time.process_time() - start


_warm = False


def kernel_samples(count: int) -> list[float]:
    """``count`` kernel times; the first call in a process adds a discarded run.

    A fresh process runs the kernel slower the first time (page faults,
    first use of the random generator), which would bias the bracket.
    """
    global _warm
    if not _warm:
        kernel_cpu()
        _warm = True
    return [kernel_cpu() for _ in range(count)]


def at_reference(cpu: float, kernel) -> float:
    """CPU seconds measured between the ``kernel`` samples, at the reference speed."""
    return cpu * NOMINAL_S / statistics.fmean(kernel)
