import math
from fractions import Fraction
from itertools import permutations
from typing import Iterator

import pytest

from tensormoments.algebra import LaurentPoly, Partition, Permutation, _cycle_type, _cycles
from tensormoments.bubbles import Bubble, ColorSplit, bubble_from_chains


@pytest.fixture
def split24():
    return ColorSplit(4, [2, 4])


def edge_tree_bubble(k: int, l: int) -> Bubble:
    """The two-chain d=4 bubble tr_1(tr_3 (MM+)^k tr_3 (MM+)^l)."""
    return bubble_from_chains(
        4,
        ColorSplit(4, [2, 4]),
        (k, l),
        {1: Permutation([2, 1]), 3: Permutation([1, 2])},
    )


def symmetric_group(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic image order."""
    return (Permutation(images) for images in permutations(range(1, n + 1)))


def class_size(p: Partition) -> int:
    """Size of the conjugacy class p of S_n: n! / prod_j j^{p_j} p_j!."""
    z = math.prod(j**mult * math.factorial(mult) for j, mult in p.multiplicities().items())
    return math.factorial(p.n) // z


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply ``q`` first, then ``p``: the convention the brute-force
    references are written in."""
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    return Permutation(tuple(p.images[qi - 1] for qi in q.images))


def cycles(p: Permutation) -> list[tuple[int, ...]]:
    """Cycle decomposition of ``p``; each cycle starts at its smallest element."""
    return [tuple(i + 1 for i in cyc) for cyc in _cycles(p._zero_indexed())]


def cycle_count(p: Permutation) -> int:
    return len(_cycles(p._zero_indexed()))


def cycle_type(p: Permutation) -> Partition:
    return Partition(_cycle_type(p._zero_indexed()))


def histogram_brute_force(b: Bubble) -> dict[tuple[int, ...], int]:
    """Per-color cycle counts of tau_c pi^{-1} over pi in S_n.

    On 0-indexed image lists, (tau_c pi^{-1})(x) = tau_c[pi^{-1}[x]]: one
    list and one ``_cycles`` per colour and pairing, with no Permutation
    built in the loop.
    """
    taus = [[img - 1 for img in b.tau(c).images] for c in range(1, b.d + 1)]
    hist: dict[tuple[int, ...], int] = {}
    for pi in permutations(range(b.n)):
        pinv = sorted(range(b.n), key=pi.__getitem__)
        key = tuple(len(_cycles([tau[x] for x in pinv])) for tau in taus)
        hist[key] = hist.get(key, 0) + 1
    return hist


def is_identity(p: Permutation) -> bool:
    return p == Permutation.identity(p.n)


def exact_coefficients(p: LaurentPoly) -> bool:
    """Every coefficient in canonical form: an int when whole, else a
    Fraction with denominator > 1; never a float, never zero."""
    return all(
        (type(c) is int or (type(c) is Fraction and c.denominator > 1)) and c != 0
        for c in p.terms.values()
    )
