"""Exact and asymptotic Weingarten functions for the unitary group.

Values come from one table builder that solves the class-algebra Gram
system of ``gram_matrix`` (the function dim^{#cycles} over the symmetric
group): symbolically over rational functions of N, with N -> N^k
substituted afterwards, or numerically over exact rationals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Union

from .algebra import (
    LaurentPoly,
    N,
    Partition,
    Permutation,
    RationalFunc,
    _cycle_type,
    catalan,
    partitions_of,
)

DEFAULT_N_MAX = 8


@dataclass(frozen=True)
class ConjugacyClassTable:
    n: int
    classes: tuple[Partition, ...]
    class_sizes: tuple[int, ...]


def class_representative(p: Partition) -> Permutation:
    """The permutation with cycles (1..a_1)(a_1+1..a_1+a_2)..."""
    cycles = []
    start = 1
    for part in p.parts:
        cycles.append(tuple(range(start, start + part)))
        start += part
    return Permutation.from_cycles(p.n, cycles)


def class_size(p: Partition) -> int:
    """n! / prod_j j^{p_j} p_j!"""
    z = 1
    for j, mult in p.multiplicities().items():
        z *= j**mult * math.factorial(mult)
    return math.factorial(p.n) // z


@lru_cache(maxsize=None)
def conjugacy_classes(n: int) -> ConjugacyClassTable:
    classes = tuple(partitions_of(n))
    return ConjugacyClassTable(n, classes, tuple(class_size(p) for p in classes))


@lru_cache(maxsize=None)
def _gram_counts(n: int) -> tuple[tuple[Partition, ...], list[list[dict[Partition, int]]]]:
    """counts[a][b][type] = #{tau in class b : cycle_type(sigma_a tau^{-1}) = type}."""
    classes = conjugacy_classes(n).classes
    index = {p.parts: i for i, p in enumerate(classes)}
    reps = [class_representative(p)._zero_indexed() for p in classes]
    counts: list[list[dict[Partition, int]]] = [[{} for _ in classes] for _ in classes]
    # tau -> tau^{-1} maps class b onto itself, so count sigma_a tau instead.
    for tau in permutations(range(n)):
        b = index[_cycle_type(tau)]
        for sigma, cells in zip(reps, counts):
            t = classes[index[_cycle_type([sigma[i] for i in tau])]]
            cells[b][t] = cells[b].get(t, 0) + 1
    return classes, counts


Dim = Union[int, LaurentPoly]


def gram_matrix(n: int, dim: Dim = None) -> list[list[LaurentPoly]]:
    """Class-algebra Gram matrix of dim^{#cycles}, indexed by the classes
    of conjugacy_classes(n).

    Entry (a, b) sums dim^{#cycles(sigma_a tau^{-1})} over all tau in class
    b, with sigma_a a fixed representative of class a.  ``dim`` defaults to
    the symbol N; an integer gives exact rational entries.
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


def _solve_linear(matrix, rhs, zero):
    """Gaussian elimination over an exact field; matrix is modified."""
    m = len(matrix)
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if rows[r][col] != zero), None)
        if pivot is None:
            raise ZeroDivisionError("singular Gram matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != zero:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [rows[r][m] for r in range(m)]


@lru_cache(maxsize=None)
def _weingarten_table(n: int, dim: Dim) -> dict[Partition, Union[RationalFunc, Fraction]]:
    """Weingarten values per class of S_n at ``dim``, the symbol N (values
    in RationalFunc) or an integer (exact Fractions): the solution x of
    gram_matrix(n, dim) x = [class is the identity]."""
    classes = conjugacy_classes(n).classes
    matrix = gram_matrix(n, dim)
    if not isinstance(dim, int):
        matrix = [[RationalFunc(x) for x in row] for row in matrix]
    rhs = [int(p.parts == (1,) * n) for p in classes]
    return dict(zip(classes, _solve_linear(matrix, rhs, 0)))


def _symbolic_power(dim: LaurentPoly) -> int:
    terms = dim.terms
    if len(terms) != 1:
        raise ValueError(f"symbolic dimension must be a power of N, got {dim}")
    (exp, coeff), = terms.items()
    if coeff != 1 or exp < 1:
        raise ValueError(f"symbolic dimension must be N^k with k >= 1, got {dim}")
    return exp


def weingarten_exact(cls: Partition, dim: Dim) -> Union[RationalFunc, Fraction]:
    """Exact Weingarten value for a conjugacy class at the given dimension.

    ``dim`` is either a positive integer (returns a Fraction; must be
    >= |cls|) or a LaurentPoly monomial N^k (returns a RationalFunc in N).
    """
    n = cls.n
    if n > DEFAULT_N_MAX:
        raise ValueError(f"class size {n} exceeds n_max={DEFAULT_N_MAX}")
    if isinstance(dim, int):
        if dim < n:
            raise ValueError(
                f"numeric dimension {dim} < n={n}: Gram matrix not invertible"
            )
        return _weingarten_table(n, dim)[cls]
    power = _symbolic_power(dim)
    value = _weingarten_table(n, N)[cls]
    return value.substitute_power(power) if power != 1 else value


def weingarten_table(n: int, dim: Dim) -> dict[Partition, Union[RationalFunc, Fraction]]:
    """All Weingarten values for S_n at the given dimension."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return {p: weingarten_exact(p, dim) for p in partitions_of(n)}


def weingarten_asymptotic(cls: Partition) -> tuple[int, int]:
    """Leading monomial of Wg_dim(cls) as dim -> infinity.

    Returns (exponent in dim, integer coefficient): exponent is
    (#parts - 2n), the coefficient is prod_j [(-1)^{j-1} Cat_{j-1}]^{p_j}.
    """
    n = cls.n
    exponent = cls.num_parts - 2 * n
    coeff = 1
    for j, mult in cls.multiplicities().items():
        coeff *= ((-1) ** (j - 1) * catalan(j - 1)) ** mult
    return exponent, coeff
