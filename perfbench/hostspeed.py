"""A fixed reference task that measures how fast the host is right now.

On a shared virtual machine the speed of the same code drifts: on the
2-vCPU guest this benchmark was written on, the pure-Python part below took
8 ms in one process and 17 ms in another a few minutes later, with no CPU
steal to account for it, and the same mc request list took 5.2 s in one
run and 8.5 s in another.  A benchmark gate with a 25% bound cannot absorb
that.

So every timed process also runs ``reference_slice`` between its timed
sections, and the benchmark reports its times in *reference seconds*:
measured seconds x ``speed``, the nominal time of one part of the slice over
its median measured time.  A host that runs a process 30% slower runs its
slices about 30% slower too, and the reported time stays put; a program that
gets faster does not change the slices, which are fixed code that calls
nothing of the program.

Host load does not slow every kind of code alike, so the slice has two
parts: pure-Python loops over permutations, dicts and Fractions, and a
batched complex einsum contraction with numpy's greedy plan.  Which part a
workload is scaled by, and whether by the speed of each process or by the
median speed over the run, is set in ``workloads.REFERENCE``.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# Seconds each part of the slice takes on a typical process of the host the
# baselines were taken on (a shared 2-vCPU Xeon VM at 2.0 GHz, one BLAS
# thread); reported times are in seconds of that process.
NOMINAL_S = {"python": 0.012, "numpy": 0.012}
PARTS = tuple(NOMINAL_S)

_N = 8


def _python_part() -> int:
    """Compose permutations, count cycles into a histogram, sum Fractions."""
    perm = list(range(_N))
    hist: dict[int, int] = {}
    total = Fraction(0)
    state = 1
    for step in range(4000):
        state = (state * 1103515245 + 12345) % 2**31
        i, j = state % _N, (state >> 8) % _N
        perm[i], perm[j] = perm[j], perm[i]
        other = perm[::-1]
        composed = [perm[other[k]] for k in range(_N)]
        seen = [False] * _N
        cycles = 0
        for start in range(_N):
            if not seen[start]:
                cycles += 1
                k = start
                while not seen[k]:
                    seen[k] = True
                    k = composed[k]
        hist[cycles] = hist.get(cycles, 0) + 1
        if step % 10 == 0:
            total += Fraction(cycles, step % 12 + 1)
    return sum(hist) + total.numerator


def _numpy_part() -> float:
    """Draw a batch of complex Gaussian tensors, contract a ring of three
    tensor pairs with numpy's greedy einsum plan and reduce the results."""
    rng = np.random.Generator(np.random.Philox(key=7))
    shape = (128, 5, 5, 5, 5)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = np.conj(a)
    ring = [
        (a, [0, 1, 2, 3, 4]), (b, [0, 1, 2, 5, 6]), (a, [0, 7, 8, 5, 6]),
        (b, [0, 7, 8, 9, 10]), (a, [0, 11, 12, 9, 10]), (b, [0, 11, 12, 3, 4]),
    ]
    values = np.einsum(*[x for pair in ring for x in pair], [0], optimize="greedy")
    scale = np.abs(values)
    return float(np.sum(np.real(values))) + float(np.max(np.abs(np.imag(values)) / scale))


def reference_slice() -> list[float]:
    """Run each part of the reference task once; their wall-clock seconds."""
    times = []
    for part in (_python_part, _numpy_part):
        start = time.perf_counter()
        part()
        times.append(time.perf_counter() - start)
    return times


def slices(count: int) -> list[list[float]]:
    return [reference_slice() for _ in range(count)]


def slices_for(seconds: float) -> list[list[float]]:
    """Slices until they have taken ``seconds``; at least one."""
    times = [reference_slice()]
    while sum(map(sum, times)) < seconds:
        times.append(reference_slice())
    return times


def speed(slice_times: list[list[float]], part: str) -> float:
    """How fast a process ran one part of the reference task: the nominal
    time over the median measured time.  Reference seconds are measured
    seconds x speed."""
    index = PARTS.index(part)
    return NOMINAL_S[part] / statistics.median(t[index] for t in slice_times)
