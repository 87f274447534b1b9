"""Exact and asymptotic Weingarten functions for the unitary group.

Values come from one cached table per (n, dimension), built from the
characters of S_n (Collins & Sniady 2006) in integer content polynomials: a
numerator per class over one shared denominator, each a ``LaurentPoly`` in N
(a constant for an integer dimension, whose values are returned as
Fractions); ``weingarten_exact`` alone reduces a value.  The tests check
the table against the Gram system it inverts: sum over tau of
dim^{#cycles(sigma tau^{-1})} Wg(tau) = [sigma = id].
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .algebra import (
    LaurentPoly,
    Partition,
    RationalFunc,
    Refused,
    _at_dimension,
    _character,
    _content_polynomial,
    _contents,
    _hook_product,
    _wrapped,
    catalan,
    partitions_of,
)

DEFAULT_N_MAX = 8

Dim = Union[int, LaurentPoly]


@lru_cache(maxsize=None)
def _weingarten_table(n: int, dim: Dim) -> tuple[dict, LaurentPoly]:
    """Weingarten values of S_n at ``dim`` as (numerator per class, shared
    denominator), Laurent polynomials in N (constants for an integer
    ``dim``).  By characters,

        Wg(mu) = (1/n!) sum_{lam |- n} f^lam chi^lam(mu) / prod_{box in lam} (dim + c(box)),

    with every term over the common denominator prod_c (dim + c)^{k_c} (k_c
    the most boxes of content c in any lam).  f^lam / n! = 1 / H_lam, so with
    H the lcm of the hook products each numerator is an integer polynomial
    in dim, sum_lam chi^lam(mu) (H / H_lam) * cofactor_lam, divided by H once
    when dim is put in.  Nothing is reduced here.
    """
    lams = [lam.parts for lam in partitions_of(n)]
    mults = [Counter(_contents(lam)) for lam in lams]
    top = Counter({c: max(m[c] for m in mults) for c in set().union(*mults)})
    hooks = [_hook_product(lam) for lam in lams]
    H = math.lcm(*hooks)
    # (H / H_lam) times the cofactor prod_c (x + c)^{k_c - m_c} of lam's content product.
    weights = [
        [H // h * a for a in _content_polynomial((top - m).elements())]
        for m, h in zip(mults, hooks)
    ]
    nums = {}
    for cls in partitions_of(n):
        coeffs = [0] * len(weights[0])
        for lam, w in zip(lams, weights):
            chi = _character(lam, cls.parts)
            coeffs = [s + chi * a for s, a in zip(coeffs, w)]
        nums[cls] = _wrapped(_at_dimension(coeffs, dim), 1, H)
    return nums, _wrapped(_at_dimension(_content_polynomial(top.elements()), dim), 1, 1)


def weingarten_exact(cls: Partition, dim: Dim) -> Union[RationalFunc, Fraction]:
    """Exact Weingarten value for a conjugacy class at the given dimension.

    ``dim`` is either a positive integer (returns a Fraction; must be
    >= |cls|) or a LaurentPoly monomial N^k (returns a RationalFunc in N).
    A class over ``DEFAULT_N_MAX`` or any other dimension raises ``Refused``.
    """
    n = cls.n
    if n > DEFAULT_N_MAX:
        raise Refused(f"class size {n} exceeds n_max={DEFAULT_N_MAX}")
    if not isinstance(dim, (int, LaurentPoly)):
        raise Refused(f"dimension must be an integer or N^k, got {dim!r}")
    if isinstance(dim, int) and dim < n:
        raise Refused(f"numeric dimension {dim} < n={n}: Gram matrix not invertible")
    nums, den = _weingarten_table(n, dim)  # refuses a symbolic dim other than N^k
    if isinstance(dim, int):
        return Fraction(nums[cls].terms.get(0, 0), den.terms[0])
    return RationalFunc(nums[cls], den)


def weingarten_table(n: int, dim: Dim) -> dict[Partition, Union[RationalFunc, Fraction]]:
    """All Weingarten values for S_n at the given dimension."""
    if n < 0:
        raise Refused(f"n must be >= 0, got {n}")
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
