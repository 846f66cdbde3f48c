"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared host the speed of a single Python thread moves by 20-50% for
seconds to minutes at a time, with other tenants' load, and neither the
best nor the median of a run's times holds still from one run to the next.
The benchmark therefore runs this kernel before, between and after the two
commands of every timed tree run, in the same process, and divides each
command's time by the mean of the kernel's times either side of it: a busy
stretch of the host slows the kernel and the program alike and cancels,
while a change to the program moves its times and not the kernel's.
Multiplied by REFERENCE_S, the ratio reads as seconds on a quiet machine.
The kernel uses no tern2jw code and mixes what the program spends its time
on: interpreted string, list and dict work, byte-matrix XOR and shifts,
and a small complex matrix product.
"""

from __future__ import annotations

import gc
import time

import numpy

# The kernel's time on a quiet 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, one
# BLAS thread); scaled times read as seconds on that machine.
REFERENCE_S = 0.0015

_LETTERS = numpy.random.default_rng(0).integers(0, 4, size=(128, 257), dtype=numpy.uint8)
_DENSE = numpy.random.default_rng(1).standard_normal((32, 32)) * (1 + 1j)


def kernel() -> int:
    words = [f"q{i} :{'xyz'[i % 3]}" for i in range(1500)]
    seen: dict[str, int] = {}
    for word in " ".join(words).split():
        seen[word] = seen.get(word, 0) + 1
    letters = _LETTERS
    for _ in range(30):
        letters = letters ^ (_LETTERS >> 1)
    dense = _DENSE
    for _ in range(10):
        dense = dense @ _DENSE
        dense /= numpy.abs(dense).max()
    return len(seen) + int(letters[0, 0]) + int(dense.real[0, 0] > 0)


def gauge() -> float:
    """Seconds one run of the kernel takes now, with the collector held off
    so that garbage the program left behind is not collected on its clock."""
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()
