"""References the tests share: brute-force walks over S_n and the slow
algorithms the library's fast paths are checked against, none of which a
command, a route or the benchmark runs; and the one way a test starts a
fresh Python process."""
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path
from typing import Iterator

import pytest

import tensormoments
from tensormoments.algebra import (
    LaurentPoly,
    N,
    Partition,
    Permutation,
    RationalFunc,
    _character,
    _content_polynomial,
    _contents,
    _cycles,
    _hook_product,
    partitions_of,
)
from tensormoments.bubbles import (
    Bubble,
    ChainDecomposition,
    ColorSplit,
    _white_maps,
    bubble_from_chains,
    white_maps_key,
)
from tensormoments.trees import CornerLabeledTree


def fresh_process(args, one_cpu=False, timeout=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a new process that imports the package from
    this checkout, pinned to one CPU if ``one_cpu``; its stdout and stderr
    are captured as text."""

    def pin():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    src = str(Path(tensormoments.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=pin if one_cpu else None,
    )


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


def cycle_lengths(images) -> tuple[int, ...]:
    """Cycle lengths of a 0-indexed image table, weakly decreasing."""
    return tuple(sorted(map(len, _cycles(images)), reverse=True))


def cycle_type(p: Permutation) -> Partition:
    return Partition(cycle_lengths(p._zero_indexed()))


def from_cycles(n: int, cycles) -> Permutation:
    """The permutation of 1..n with the given cycles, each a tuple or list."""
    images = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
            images[a - 1] = b
    return Permutation(images)


def class_representative(p: Partition) -> Permutation:
    """The permutation with cycles (1..a_1)(a_1+1..a_1+a_2)..."""
    cycles = []
    start = 1
    for part in p.parts:
        cycles.append(tuple(range(start, start + part)))
        start += part
    return from_cycles(p.n, cycles)


@lru_cache(maxsize=None)
def _gram_counts(n: int) -> tuple[tuple[Partition, ...], list[list[dict[Partition, int]]]]:
    """counts[a][b][type] = #{tau in class b : cycle_type(sigma_a tau^{-1}) = type}."""
    classes = tuple(partitions_of(n))
    index = {p.parts: i for i, p in enumerate(classes)}
    reps = [class_representative(p)._zero_indexed() for p in classes]
    counts: list[list[dict[Partition, int]]] = [[{} for _ in classes] for _ in classes]
    # tau -> tau^{-1} maps class b onto itself, so count sigma_a tau instead.
    for tau in permutations(range(n)):
        b = index[cycle_lengths(tau)]
        for sigma, cells in zip(reps, counts):
            t = classes[index[cycle_lengths([sigma[i] for i in tau])]]
            cells[b][t] = cells[b].get(t, 0) + 1
    return classes, counts


def gram_matrix(n: int, dim=None) -> list[list[LaurentPoly]]:
    """Class-algebra Gram matrix of dim^{#cycles}, indexed by the classes
    of S_n in the order of partitions_of(n).

    Entry (a, b) sums dim^{#cycles(sigma_a tau^{-1})} over all tau in class
    b, with sigma_a a fixed representative of class a.  ``dim`` defaults to
    the symbol N; an integer gives exact rational entries.  The Weingarten
    values solve gram_matrix(n, dim) x = delta.
    """
    if dim is None:
        dim = N
    elif isinstance(dim, int):
        dim = Fraction(dim)
    _, counts = _gram_counts(n)
    return [
        [sum((cnt * dim**t.num_parts for t, cnt in cell.items()), dim * 0) for cell in row]
        for row in counts
    ]


def gram_times_class_function(n, dim, values):
    """gram_matrix(n, dim) times the class-algebra matrix of the class
    function ``values`` (entry (b, c) sums values over sigma_b tau^{-1},
    tau in class c): the identity when ``values`` is the Weingarten table."""
    _, counts = _gram_counts(n)
    gram = gram_matrix(n, dim)
    wmat = [[sum(cnt * values[t] for t, cnt in cell.items()) for cell in row] for row in counts]
    size = len(counts)
    return [
        [sum(gram[a][b] * wmat[b][c] for b in range(size)) for c in range(size)]
        for a in range(size)
    ]


def substitute_power(f, k: int):
    """``f`` with N replaced by N^k (k >= 1): a LaurentPoly, or a
    RationalFunc in its numerator and denominator."""
    if isinstance(f, RationalFunc):
        return RationalFunc(substitute_power(f.num, k), substitute_power(f.den, k))
    if k < 1:
        raise ValueError("power must be >= 1")
    return LaurentPoly({e * k: c for e, c in f.terms.items()})


@lru_cache(maxsize=None)
def _laurent_wishart_weights(L: int, row, col) -> tuple:
    """(H, ((lam, (H / H_lam) P_lam(row) P_lam(col)) for every lam |- L)), each
    content polynomial put in at each dimension by Horner on LaurentPolys."""

    def at(coeffs, x):
        out = LaurentPoly.zero()
        for c in reversed(coeffs):
            out = out * x + c
        return out

    lams = [p.parts for p in partitions_of(L)]
    hooks = [_hook_product(lam) for lam in lams]
    H = math.lcm(*hooks)
    weights = []
    for lam, h in zip(lams, hooks):
        content = _content_polynomial(_contents(lam))
        weights.append((lam, at(content, row) * at(content, col) * (H // h)))
    return H, tuple(weights)


def wishart_laurent(lengths, row, col):
    """``wishart_moment_exact`` as LaurentPoly arithmetic: the character sum of
    the weights as LaurentPolys, over H once.  The reference for the
    integer-list weights."""
    lens = tuple(sorted(lengths, reverse=True))
    H, weights = _laurent_wishart_weights(sum(lens), row, col)
    total = LaurentPoly.zero()
    for lam, w in weights:
        total = total + _character(lam, lens) * w
    if isinstance(row, LaurentPoly) or isinstance(col, LaurentPoly):
        return total * Fraction(1, H)
    return Fraction(total.terms.get(0, 0), H)


def canonical_key(b: Bubble):
    """A hashable key equal for two bubbles exactly when they are isomorphic:
    ``white_maps_key`` of the maps g_c = tau_1^{-1} tau_c (c = 2..d).  A
    disconnected (or empty) bubble is its own key, so it is equal only to
    itself."""
    key = white_maps_key(b.d, b.n, _white_maps(b))
    return b if key is None else key


def vertex_count(t: CornerLabeledTree) -> int:
    return sum(1 for _ in t.vertices())


def tree_vertex_spans(t: CornerLabeledTree) -> list[tuple[CornerLabeledTree, tuple[int, int]]]:
    """Pair each tree vertex with its (first, last) white labels in the bubble.

    ``trees._glue`` gives each vertex, in preorder, the next k_v whites."""
    spans, last = [], 0
    for v in t.vertices():
        spans.append((v, (last + 1, last + v.k)))
        last += v.k
    return spans


def top_sigmas(decomp: ChainDecomposition, split: ColorSplit) -> tuple[int, list[Permutation]]:
    """(max g, the sigmas of S_m reaching it), g(sigma) = sum_c F_c(sigma) - |C| |sigma|.

    The pair (sigma, tau) of the angular sum scales as N^e with
    e = sum_c F_c(sigma) - |C| (|tau| + |sigma tau^{-1}|), F_c(sigma) =
    #cycles(pi_c sigma) over the row colours and |pi| = m - #cycles(pi).  By
    the triangle inequality the top pairs are the maximisers of g, each with
    a tau on a geodesic from id to sigma, which fixes every point sigma fixes.
    """
    m, ncols = decomp.m, len(split.column_colors)
    g = {
        sigma: sum(cycle_count(compose(decomp.endpoint_maps[c], sigma)) for c in split.row_colors)
        - ncols * (m - cycle_count(sigma))
        for sigma in symmetric_group(m)
    }
    best = max(g.values())
    return best, [sigma for sigma, value in g.items() if value == best]


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
