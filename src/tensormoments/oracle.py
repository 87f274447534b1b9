"""Brute-force Wick-contraction enumeration: the exact ground truth.

The Gaussian expectation of a bubble polynomial at unit covariance is the
sum over pairings pi in S_n of prod_c N^{#cycles(tau_c pi)} (pi -> pi^{-1}
is a bijection of S_n, so this equals the sum over tau_c pi^{-1}).  One
serial walk descends S_n > S_{n-1} > ... > S_k (S_m permutes positions
0..m-1, k = min(n, K)) and reaches each coset pi S_k once.  Its one step,
``_drop``, takes a colour's map in S_m to one in S_{m-1} and counts the
cycle it closes, if any; a drop is shared by every coset below it.  At S_k
each colour's map gives one row of k! cycle counts from S_k's table.  A row
of S_k is joined from k drops to rows of S_{k-1} (``_row``), and so on to
the one row of S_0, so the kernel counts cycles only through ``_drop``.
Each row is built the first time a walk needs it; nothing is built at
import.

Every colour has the same dimension N, so the result needs only each
pairing's total, the sum over colours of its cycle counts.
``wick_histogram`` sums a block of cosets colour by colour: one colour's
rows, joined over the block, are one little-endian integer, one byte per
pairing, and the cycles the drops closed above S_k are one more.  A byte
holds at most d*n, so no carry crosses into the next pairing while
d*n <= 255, which ``check_size`` requires.  The block's bytes are then
counted eight candidate totals per pass: one ``translate`` gives each
candidate its own bit and every other byte 0, and a masked ``bit_count``
reads each candidate's count.  For even d every total has the parity of
sum_c parity(tau_c), so the candidates step by 2 and one pass usually
covers a block.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from typing import Sequence

from .algebra import LaurentPoly, Refused, approx
from .bubbles import Bubble

DEFAULT_N_MAX = 9
# Positions permuted within a coset.  Kernel at n = 9, random d = 4 bubble,
# rows warm, one core of a 2-vCPU VM, in its day of one cycle walk per colour
# and coset: K = 5 40 ms, K = 6 24 ms (504 cosets of S_6 against 3024 of
# S_5).  ``_row`` joins each row of S_k from k drops to rows of S_{k-1}: all
# 720 rows of S_6 (0.5 MB) take 4-6 ms cold, S_1..S_5 included, against
# 1.3 s for one cycle walk per entry.
K = 6
# Cosets whose totals ``wick_histogram`` sums and counts at a time (23040
# bytes at K = 6).  The five warm histograms of the wick workload's seed 1
# (n = 8, 8, 8, 8, 9) took the same time for 8 to 32 cosets (12.2-12.7 ms
# on a 2-vCPU VM) and 5-15% longer for 64 to 504; the n = 9 call's traced
# memory peak is 65 / 125 / 250 KiB at 16 / 32 / 64 cosets.
COSETS_PER_BLOCK = 32


def check_size(n: int, d: int) -> None:
    """Refuse n over ``DEFAULT_N_MAX``, or d*n over one byte's 255 (a
    pairing's total in ``wick_histogram``): the one place the oracle's
    bounds are checked."""
    if n > DEFAULT_N_MAX:
        pairings = math.lgamma(n + 1)  # n! by its log, as ``approx`` takes it
        cosets = pairings - math.lgamma(K + 1)
        raise Refused(
            f"n={n} exceeds n_max={DEFAULT_N_MAX}: ~{approx(cosets, 2)} cosets, each adding {d} rows, "
            f"and ~{approx(pairings, 2)} totals counted; use the Monte Carlo estimator instead"
        )
    if d * n > 255:
        raise Refused(
            f"d*n={d * n} exceeds 255: the Wick oracle holds a pairing's total cycle count in one byte"
        )


def _drop(g: tuple[int, ...], j: int) -> tuple[tuple[int, ...], int]:
    """(f, closed) with #cycles(g pi_j rho) = closed + #cycles(f rho) for
    every rho in S_{k-1}, g in S_k, where pi_j sends 0..k-2 to the other
    points in order and k-1 to j.

    f is g with position j taken out and the entry k-1 replaced by g[j]:
    the walk from each p < k-1 passes through k-1 at most once.  If g[j] is
    k-1 itself, k-1 is a fixed point of g pi_j and closes one cycle.
    """
    top = len(g) - 1
    f = g[:j] + g[j + 1 :]
    if g[j] == top:
        return f, 1
    i = f.index(top)
    return f[:i] + (g[j],) + f[i + 1 :], 0


@lru_cache(maxsize=None)
def _shift(closed: int) -> bytes:
    """The ``bytes.translate`` table that adds ``closed`` to every byte."""
    return bytes(range(closed, 256)) + bytes(closed)


@lru_cache(maxsize=None)
def _row(g: tuple[int, ...]) -> bytes:
    """#cycles(g rho) for rho in S_k, k = len(g) <= K.

    The row of S_0 is the one empty permutation's 0 cycles.  For k >= 1 it
    joins k pieces, one per coset pi_j S_{k-1}, j = 0..k-1: ``_drop(g, j)``
    gives the row of S_{k-1} that counts #cycles(g pi_j rho') for every
    rho' in S_{k-1}, shifted by its closed count through ``_shift``.  So rho
    runs over pi_j rho', j outer and rho' in the join order of S_{k-1}
    inner; that order is the same for every g of one k, which is all a
    coset's sum needs.
    """
    if not g:
        return b"\x00"
    pieces = []
    for j in range(len(g)):
        f, closed = _drop(g, j)
        pieces.append(_row(f).translate(_shift(closed)))
    return b"".join(pieces)


@lru_cache(maxsize=None)
def _fill(closed: int, width: int) -> bytes:
    """``width`` copies of the byte ``closed``: a coset's closed cycles,
    added once to each of its totals."""
    return bytes((closed,)) * width


# The bytes ``wick_histogram``'s count table gives candidate totals 0..7 of a pass.
_BITS = bytes(1 << i for i in range(8))


@lru_cache(maxsize=None)
def _masks(length: int) -> tuple[int, ...]:
    """Bit i of each of ``length`` little-endian bytes, for i = 0..7."""
    return tuple(int.from_bytes(bytes((bit,)) * length, "little") for bit in _BITS)


def _coset_rows(b: Bubble):
    """Each coset's d rows and its closed count: the colours' cycle counts
    of its k! pairings, k = min(n, K), are closed + the sum of the rows.

    The walk descends S_n > S_{n-1} > ... > S_k.  At each level it drops
    position j = 0..m-1 from every colour's map in S_m and descends with
    the closed cycles summed, so one drop serves every coset below it; at
    S_k, ``_row`` of each colour's map holds its counts for the coset.
    """
    # Made from lists: a tuple made from a generator is resized once filled,
    # and for n <= K these tuples stay in the row cache as keys; made so,
    # they raised the trees workload's peak RSS by 1 MiB.
    taus = [tuple([img - 1 for img in b.tau(c).images]) for c in range(1, b.d + 1)]

    def walk(gs, m, closed):
        if m <= K:
            yield [_row(g) for g in gs], closed
            return
        for j in range(m):
            drops = [_drop(g, j) for g in gs]
            yield from walk([f for f, _ in drops], m - 1, closed + sum(c for _, c in drops))

    return walk(taus, b.n, 0)


def wick_histogram(b: Bubble) -> dict[int, int]:
    """Map sum_c #cycles(tau_c pi) -> number of pairings pi realizing it.

    A block of cosets is summed colour by colour: each colour's rows, joined
    coset by coset, are one little-endian integer, and the cosets' closed
    counts one more, joined from ``_fill``.  The sum's bytes are the block's
    totals, so the n! totals are never held at once.  They are counted eight
    candidate values per pass: ``translate`` sends the i-th candidate to bit
    i and every other byte to 0, and ``_masks`` picks out each bit's count.

    The first candidate is the block's least closed count plus d: each entry
    of a row of S_k, k >= 1, is at least one cycle.  For even d the
    candidates step by 2 from the parity of the block's first total: every
    total is congruent to sum_c parity(tau_c), as #cycles(tau_c pi) is
    n + parity(tau_c) + parity(pi) mod 2 and d*n, d*parity(pi) are even.
    """
    width = math.factorial(min(b.n, K))
    least = b.d if b.n else 0
    step = 2 - b.d % 2
    # Sized for the first block: ``&`` keeps the shorter length, so a short
    # last block needs no masks of its own.
    masks = _masks(min(math.factorial(b.n) // width, COSETS_PER_BLOCK) * width)
    walk = _coset_rows(b)
    hist: dict[int, int] = {}
    while cosets := list(islice(walk, COSETS_PER_BLOCK)):
        sums = int.from_bytes(b"".join([_fill(closed, width) for _, closed in cosets]), "little")
        for column in zip(*[rows for rows, _ in cosets]):
            sums += int.from_bytes(b"".join(column), "little")
        block = sums.to_bytes(len(cosets) * width, "little")
        first = least + min(closed for _, closed in cosets)
        first += (first - block[0]) % step
        left = len(block)
        for value in range(first, 256, 8 * step):
            # Room past 255 keeps the slice eight long; translate reads 256.
            table = bytearray(256 + 8 * step)
            table[value : value + 8 * step : step] = _BITS
            hot = int.from_bytes(block.translate(table[:256]), "little")
            for total, mask in zip(range(value, 256, step), masks):
                if count := (hot & mask).bit_count():
                    hist[total] = hist.get(total, 0) + count
                    left -= count
            if not left:
                break
        else:
            raise RuntimeError(f"{left} totals of a block not counted")
    return hist


def gaussian_expectation(b: Bubble) -> LaurentPoly:
    """Exact unit-covariance expectation of the bubble polynomial."""
    check_size(b.n, b.d)
    return LaurentPoly(wick_histogram(b))


def per_color_dimensions(b: Bubble, dims: Sequence[int]) -> int:
    """Exact expectation at numeric dimensions, one per colour, all equal:
    the polynomial evaluated there.  It stays only because the benchmark's
    Monte Carlo workload (``perfbench/workloads.py``) imports it by name."""
    if len(dims) != b.d:
        raise ValueError(f"need {b.d} dimensions, got {len(dims)}")
    if any(x < 1 for x in dims):
        raise ValueError("dimensions must be positive")
    if len(set(dims)) > 1:
        raise ValueError(f"dimensions must be equal, got {tuple(dims)}")
    return int(gaussian_expectation(b).evaluate(dims[0] if dims else 1))
