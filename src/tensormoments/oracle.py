"""Brute-force Wick-contraction enumeration: the exact ground truth.

The Gaussian expectation of a bubble polynomial at unit covariance is the
sum over pairings pi in S_n of prod_c N^{#cycles(tau_c pi)} (pi -> pi^{-1}
is a bijection of S_n, so this equals the sum over tau_c pi^{-1}).  One
serial walk over S_n, one coset pi S_k at a time (S_k permutes positions
0..k-1, k = min(n, K)), gives each coset one row of k! cycle counts per
colour: one cycle walk per colour and coset (``_fold``), then a row of
S_k's table.  For k < K all rows of S_k are built together, in one pass
over S_k; a row of S_K is joined from K rows of S_{K-1} by the same walk
one level down.  Each is built the first time a walk needs it; nothing is
built at import.

Every colour has the same dimension N, so the result needs only each
pairing's total, the sum over colours of its cycle counts.
``wick_histogram`` adds a coset's d rows as little-endian integers: one
big-int addition per colour sums all k! pairings, one byte each, and one
more adds the cycles the walks closed outside S_k to every byte.  A byte
holds at most d*n, so no carry crosses into the next pairing while
d*n <= 255, which ``check_size`` requires.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from typing import Sequence

from .algebra import LaurentPoly, Refused, _cycles
from .bubbles import Bubble

DEFAULT_N_MAX = 9
# Positions permuted within a coset.  Kernel at n = 9, random d = 4 bubble,
# rows warm, one core of a 2-vCPU VM: K = 5 40 ms, K = 6 24 ms (504 cosets
# of S_6 against 3024 of S_5).  S_6's 720 indices do not fit the one-byte
# tables ``_rows`` composes with (k! <= 256), so ``_row`` joins each row of
# S_6 from six rows of S_5: all 720 rows (0.5 MB) take 13-25 ms, 4320 walks
# of six points, against 1.3 s for one cycle walk per entry.  ``_rows``
# builds S_5's table (120 rows of 120 bytes) in about 1-2 ms.
K = 6
# Cosets whose totals ``wick_histogram`` counts at a time (23040 bytes at
# K = 6).  At n = 9 and K = 5 the count took the same time for 16 to 512
# cosets, but 512 raised the call's traced memory peak from 19 KiB to 168 KiB.
COSETS_PER_BLOCK = 32


class BubbleTooLarge(Refused):
    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        pairings = math.factorial(n)
        cosets = pairings // math.factorial(K)
        super().__init__(
            f"n={n} exceeds n_max={DEFAULT_N_MAX}: ~{cosets:.2e} cosets x {d} cycle walks "
            f"plus ~{pairings:.2e} table entries; use the Monte Carlo estimator instead"
        )


@dataclass(frozen=True)
class ExpectationResult:
    """Raw (covariance 1) and rescaled expectation of a bubble."""

    raw: LaurentPoly
    alpha: int
    n: int

    @property
    def scaled(self) -> LaurentPoly:
        return self.raw.shift(-self.alpha * self.n)

    def to_json(self) -> dict:
        exp, coeff = self.scaled.leading_term()
        return {
            "raw": self.raw.to_records(),
            "alpha": self.alpha,
            "scaled": self.scaled.to_records(),
            "leading": {"exp": exp, "coeff": str(coeff)},
        }


def check_size(n: int, d: int) -> None:
    """Refuse n over ``DEFAULT_N_MAX``, or d*n over one byte's 255 (a
    pairing's total in ``wick_histogram``): the one place the oracle's
    bounds are checked."""
    if n > DEFAULT_N_MAX:
        raise BubbleTooLarge(n, d)
    if d * n > 255:
        raise Refused(
            f"d*n={d * n} exceeds 255: the Wick oracle holds a pairing's total cycle count in one byte"
        )


@lru_cache(maxsize=None)
def _rows(k: int) -> dict[tuple[int, ...], bytes]:
    """g -> #cycles(g rho) for rho in S_k, in ``itertools.permutations``
    order, for every g in S_k, built in one pass.

    Left multiplication by g permutes the indices of S_k; as the byte string
    ``moves`` of the indices of g rho, rho in order, it composes by
    ``bytes.translate``: moves(s g) = moves(g).translate(moves(s)).  From
    the identity, the adjacent transpositions s reach every g (g is
    ``perms[moves(g)[0]]``, as rho_0 is the identity), and g's row is
    moves(g) translated through the k! cycle counts.
    """
    perms = list(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    pad = bytes(256 - len(perms))
    counts = bytes(len(_cycles(p)) for p in perms) + pad
    steps = []
    for i in range(k - 1):
        s = list(range(k))
        s[i], s[i + 1] = s[i + 1], s[i]
        # tuple() of a list is built at its exact size; grown from a generator,
        # each lookup key would stay on CPython's tuple free list (~40 KB).
        steps.append(bytes(index[tuple([s[r] for r in rho])] for rho in perms) + pad)
    rows: dict[tuple[int, ...], bytes] = {}
    frontier = [bytes(range(len(perms)))]
    while frontier:
        reached = []
        for moves in frontier:
            g = perms[moves[0]]
            if g not in rows:
                rows[g] = moves.translate(counts)
                reached += [moves.translate(step) for step in steps]
        frontier = reached
    return rows


def _cosets(n: int, k: int):
    """A representative pi of each coset pi S_k of S_n (S_k permutes
    positions 0..k-1): pi fixes the images of positions k..n-1 (the tail,
    in ``itertools.permutations`` order) and sends 0..k-1 to the remaining
    vertices in order."""
    vertices = set(range(n))
    for tail in permutations(range(n), n - k):
        yield sorted(vertices.difference(tail)) + list(tail)


def _fold(sigma: list[int], k: int) -> tuple[tuple[int, ...], int]:
    """(f, closed) with #cycles(sigma rho) = closed + #cycles(f rho) for
    every rho in S_k, sigma in S_n.

    ``closed`` counts the cycles of sigma that avoid A = {0..k-1}; f in S_k
    follows sigma from each p in A until it returns to A.
    """
    seen = [False] * len(sigma)
    f = []
    for x in sigma[:k]:
        while x >= k:
            seen[x] = True
            x = sigma[x]
        f.append(x)
    closed = 0
    for start in range(k, len(sigma)):
        if not seen[start]:
            closed += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = sigma[x]
    return tuple(f), closed


@lru_cache(maxsize=None)
def _shift(closed: int) -> bytes:
    """The ``bytes.translate`` table that adds ``closed`` to every byte."""
    return bytes(range(closed, 256)) + bytes(closed)


@lru_cache(maxsize=None)
def _row(g: tuple[int, ...]) -> bytes:
    """#cycles(g rho) for rho in S_k, k = len(g) <= K.

    For k < K it is ``_rows(k)``'s row, in ``itertools.permutations`` order.
    For k = K it joins K pieces, one per coset pi_j S_{K-1} (tails j in
    ``_cosets(K, K - 1)`` order): the walk of ``_coset_rows`` one level
    down, ``_fold`` of g pi_j, gives the row of S_{K-1} that counts
    #cycles(g pi_j rho') for every rho' in S_{K-1}, shifted by its closed
    count through ``_shift``.  So rho runs over pi_j rho', j outer and rho'
    in ``itertools`` order; that order is the same for every g, which is all
    a coset's sum needs.
    """
    if len(g) < K:
        return _rows(len(g))[g]
    pieces = []
    for pi in _cosets(K, K - 1):
        f, c = _fold([g[p] for p in pi], K - 1)
        pieces.append(_rows(K - 1)[f].translate(_shift(c)))
    return b"".join(pieces)


def _coset_rows(b: Bubble):
    """Each coset's d (row, closed) pairs: the colours' cycle counts of its
    k! pairings, k = min(n, K).

    Per colour, ``_fold`` of sigma = tau_c pi gives f and ``closed``, so
    closed + ``_row(f)`` holds the colour's count for all k! pairings
    pi rho of the coset.
    """
    n, k = b.n, min(b.n, K)
    taus = [[img - 1 for img in b.tau(c).images] for c in range(1, b.d + 1)]
    for pi in _cosets(n, k):
        rows = []
        for tau in taus:
            f, closed = _fold([tau[p] for p in pi], k)
            rows.append((_row(f), closed))
        yield rows


def wick_histogram(b: Bubble) -> dict[int, int]:
    """Map sum_c #cycles(tau_c pi) -> number of pairings pi realizing it.

    A coset's rows, added as little-endian integers, and its closed cycles,
    added once as that many copies of a row of ones, give its k! totals as
    bytes.  They are counted by byte value a block of cosets at a time, so
    the n! totals are never held at once.
    """
    width = math.factorial(min(b.n, K))
    ones = int.from_bytes(b"\x01" * width, "little")
    walk = _coset_rows(b)
    hist: dict[int, int] = {}
    while cosets := list(islice(walk, COSETS_PER_BLOCK)):
        block = bytearray()
        for rows in cosets:
            sums = closed = 0
            for row, c in rows:
                sums += int.from_bytes(row, "little")
                closed += c
            block += (sums + closed * ones).to_bytes(width, "little")
        total, left = 0, len(block)
        while left:
            if count := block.count(total):
                hist[total] = hist.get(total, 0) + count
                left -= count
            total += 1
    return hist


def gaussian_expectation(b: Bubble) -> LaurentPoly:
    """Exact unit-covariance expectation of the bubble polynomial."""
    check_size(b.n, b.d)
    return LaurentPoly(wick_histogram(b))


def expectation(b: Bubble, alpha: int = 0) -> ExpectationResult:
    """Expectation with covariance N^{-alpha} (applied as N^{-alpha n})."""
    return ExpectationResult(raw=gaussian_expectation(b), alpha=alpha, n=b.n)


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
