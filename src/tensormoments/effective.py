"""Angular integration: effective observables and Wishart moments.

For a chain-expressible bubble the unitary average at fixed singular
values is a combination of power sums p_l = sum_i lambda_i^{2l}; summing
the Weingarten-weighted permutation pairs yields the expansion, and the
complex Wishart (Laguerre) moments close the loop back to the exact
Gaussian expectation.  The expansion counts the pairs (sigma, tau) of
S_m x S_m by sigma-orbits: one walk over sigma, then one walk over tau per
orbit under conjugation by the length-keeping permutations.  Each
coefficient is reduced once, from numerators over the shared denominator of
a ``weingarten`` table, by a gcd on integer coefficient lists.  Wishart
moments are character sums over S_L of integer content polynomials put in
at the dimensions N^q as lists, each weight one list product and the sum
one int list, so this route never calls the Wick oracle it is checked
against.  The expansion records its colour split, which alone gives the Weingarten
dimension N^q and the N^q x N^{|C|} Wishart matrix (q row colours); the
reconstruction takes the lcm of the coefficients' denominators and ends in
one exact polynomial division, its gcds and divisions on integer lists.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Sequence, Union

from .algebra import (
    LaurentPoly,
    Partition,
    RationalFunc,
    Refused,
    _at_dimension,
    _character,
    _content_polynomial,
    _contents,
    _cycles,
    _hook_product,
    _list_product,
    _poly_divmod,
    _wrapped,
    approx,
    catalan,
    partitions_of,
    poly_gcd,
)
from .bubbles import (
    Bubble,
    ChainDecomposition,
    ColorSplit,
    chain_decomposition,
    chain_obstruction,
)
from .weingarten import _weingarten_table

WISHART_L_MAX = 9
# The expansion walks m! sigmas, then m! taus per sigma-orbit: at most m!^2
# steps (m! = 720 at m = 6, with 11 orbits for single-box chains).
ANGULAR_M_MAX = 6


@dataclass(frozen=True)
class PowerSumExpansion:
    """Linear combination of products of power sums in squared singular values.

    ``terms`` maps a descending tuple (l_1..l_k) to the rational-function
    coefficient of p_{l_1} ... p_{l_k}; ``split`` is the colour split it was
    computed over, which fixes M as N^q x N^{|C|} with q = #row colours.
    """

    terms: dict[tuple[int, ...], RationalFunc]
    split: ColorSplit

    def to_json(self) -> list[dict]:
        return [
            {"powers": list(powers), "coeff": self.terms[powers].to_records()}
            for powers in sorted(self.terms, reverse=True)
        ]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for powers in sorted(self.terms, reverse=True):
            prod = "*".join(f"p_{l}" for l in powers)
            pieces.append(f"({self.terms[powers]}) * {prod}")
        return "  +  ".join(pieces)


def _decompose(b: Bubble, split: ColorSplit) -> ChainDecomposition:
    """The chain decomposition of ``b``, refused over the angular bound."""
    decomp = chain_decomposition(b, split)
    if decomp is None:
        raise Refused(f"not chain-expressible: {chain_obstruction(b, split)}")
    if decomp.m > ANGULAR_M_MAX:
        steps = approx(math.lgamma(decomp.m + 1), 1)  # m!, from its log
        raise Refused(
            f"{decomp.m} chains exceed the angular bound {ANGULAR_M_MAX}: "
            f"{steps} sigma steps plus {steps} tau steps per sigma-orbit, "
            f"up to ~{approx(2 * math.lgamma(decomp.m + 1), 1)}"
        )
    return decomp


def _orbit_weights(decomp: ChainDecomposition, rows: Sequence[int]) -> dict:
    """weights[powers][Wg class][row exponent] = #{(sigma, tau) in S_m x S_m :
    powers of tau, cycle type of sigma tau^{-1}, sum_c F_c(sigma)}, with
    F_c(sigma) = #cycles(pi_c sigma) for the endpoint map pi_c of row colour c.

    Conjugating sigma and tau by a permutation that keeps chain lengths keeps
    the powers of tau and the class of sigma tau^{-1}, so the tau counts of a
    sigma depend only on its orbit: the multiset of its cycles, each read as
    the chain lengths along it up to rotation.  One walk over sigma gives
    each orbit's histogram of row exponents; then one walk over tau per
    orbit representative, m! + (#orbits) m! steps in all.
    """
    m, lengths = decomp.m, decomp.chain_lengths
    group = list(permutations(range(m)))  # S_m as 0-indexed image tuples
    ends = [decomp.endpoint_maps[c]._zero_indexed() for c in rows]
    cycles = {p: _cycles(p) for p in group}
    types = {p: tuple(sorted(map(len, cyc), reverse=True)) for p, cyc in cycles.items()}
    # Per tau: its powers (the chain lengths summed over each of its cycles,
    # in descending order) and tau^{-1}.
    taus = [
        (
            tuple(sorted((sum(lengths[j] for j in cyc) for cyc in cycles[tau]), reverse=True)),
            sorted(range(m), key=tau.__getitem__),
        )
        for tau in group
    ]
    orbits: dict[tuple, tuple[tuple[int, ...], dict[int, int]]] = {}
    for sigma in group:
        key = []
        for cyc in cycles[sigma]:
            labels = [lengths[i] for i in cyc]
            key.append(min(tuple(labels[i:] + labels[:i]) for i in range(len(labels))))
        _, exps = orbits.setdefault(tuple(sorted(key)), (sigma, {}))
        exp = sum(len(types[tuple(map(end.__getitem__, sigma))]) for end in ends)
        exps[exp] = exps.get(exp, 0) + 1
    weights: dict[tuple[int, ...], dict[tuple[int, ...], dict[int, int]]] = {}
    for rep, exps in orbits.values():
        counts = Counter(
            (powers, types[tuple(map(rep.__getitem__, tau_inv))]) for powers, tau_inv in taus
        )
        for (powers, wg_class), count in counts.items():
            cell = weights.setdefault(powers, {}).setdefault(wg_class, {})
            for exp, mult in exps.items():
                cell[exp] = cell.get(exp, 0) + count * mult
    return weights


def effective_observable(b: Bubble, split: ColorSplit) -> PowerSumExpansion:
    """Integrate out the angular degrees of freedom of ``b`` over ``split``.

    Sums Wg_{N^q}(sigma tau^{-1}) * prod_rows N^{#cycles(pi_c sigma)} over
    sigma, tau in S_m, attaching p_{sum of chain lengths} per cycle of tau;
    the pairs are counted by ``_orbit_weights``.  A bubble that is not
    chain-expressible for ``split``, or whose d is not the split's, or that
    has more than ``ANGULAR_M_MAX`` chains, is refused before any walk.  The
    expansion records ``split``.
    """
    decomp = _decompose(b, split)
    weights = _orbit_weights(decomp, split.row_colors)
    # m <= ANGULAR_M_MAX and q >= 1 row colours pass weingarten_exact's checks.
    wg_nums, wg_den = _weingarten_table(decomp.m, LaurentPoly.monomial(len(split.row_colors)))
    terms: dict[tuple[int, ...], RationalFunc] = {}
    for powers, by_class in weights.items():
        num = LaurentPoly.zero()
        for wg_class, exps in by_class.items():
            num = num + LaurentPoly(exps) * wg_nums[Partition(wg_class)]
        if num:
            terms[powers] = RationalFunc(num, wg_den)
    return PowerSumExpansion(terms=terms, split=split)


DimLike = Union[int, Fraction, LaurentPoly]


def wishart_moment_exact(
    lengths: Sequence[int], row_dim: DimLike, col_dim: DimLike
) -> Union[LaurentPoly, Fraction]:
    """<prod_j tr W^{l_j}> in the complex Wishart ensemble, unit covariance.

    W = M M^dagger with M of size row_dim x col_dim.  Dimensions may be
    exact numbers or powers N^k (k >= 1); the result is symbolic as soon as
    either one is.  By characters (Hanlon, Stanley & Stembridge
    1992), with L = sum(lengths) and P_lam(x) = prod_{box in lam} (x + c):

        sum_{lam |- L} chi^lam(lengths) P_lam(row) P_lam(col) / H_lam,

    summed in one integer list over H = lcm_lam H_lam and divided by H once.
    """
    lens = tuple(sorted((int(l) for l in lengths), reverse=True))
    if any(l < 1 for l in lens):
        raise Refused("lengths must be positive integers")
    L = sum(lens)
    if L > WISHART_L_MAX:
        raise Refused(f"total degree {L} exceeds the bound {WISHART_L_MAX}")
    den, weights = _wishart_weights(L, row_dim, col_dim)
    total = [0] * len(weights[0][1])
    for lam, w in weights:
        chi = _character(lam, lens)
        if chi:
            total = [t + chi * x for t, x in zip(total, w)]
    if isinstance(row_dim, LaurentPoly) or isinstance(col_dim, LaurentPoly):
        return _wrapped(total, 1, den)
    return Fraction(total[0], den)


@lru_cache(maxsize=None)
def _wishart_weights(L: int, row: DimLike, col: DimLike) -> tuple:
    """(D, ((lam, w_lam) for every lam |- L)), w_lam the integer list of
    D P_lam(row) P_lam(col) / H_lam, one list product; D = H r^L, with H the
    lcm of the hook products and r the numeric dimensions' denominators."""
    lams = [p.parts for p in partitions_of(L)]
    hooks = [_hook_product(lam) for lam in lams]
    H = math.lcm(*hooks)
    out = []
    for lam, h in zip(lams, hooks):
        content = _content_polynomial(_contents(lam))
        row_at = [H // h * c for c in _at_dimension(content, row)]
        out.append((lam, _list_product(row_at, _at_dimension(content, col))))
    r = math.prod(x.denominator for x in (row, col) if not isinstance(x, LaurentPoly))
    return H * r**L, tuple(out)


def wishart_moment_leading(l: int, balance: str) -> int:
    """Leading coefficient of <tr W^l> at large N: Cat_l when M is square,
    1 when the two dimensions scale differently."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if balance == "square":
        return catalan(l)
    if balance == "unbalanced":
        return 1
    raise ValueError(f"balance must be 'square' or 'unbalanced', got {balance!r}")


def laguerre_reconstruct(e: PowerSumExpansion) -> LaurentPoly:
    """Recompute <B> through the angular route: coefficients times Wishart
    moments of the N^q x N^{|C|} matrix of ``e.split``, over the lcm of
    their denominators, then one exact division.  The lcm, the cofactors
    and the division run on coefficient lists."""
    row_dim = LaurentPoly.monomial(len(e.split.row_colors))
    col_dim = LaurentPoly.monomial(len(e.split.column_colors))
    den = LaurentPoly.one()
    for d in {coeff.den for coeff in e.terms.values()}:
        den, _ = _poly_divmod(den * d, poly_gcd(den, d))
    num = LaurentPoly.zero()
    for powers, coeff in e.terms.items():
        cofactor, _ = _poly_divmod(den, coeff.den)
        num = num + coeff.num * cofactor * wishart_moment_exact(powers, row_dim, col_dim)
    low = min(0, min(num.terms, default=0))  # a net power of N lives in the numerators
    quo, rem = _poly_divmod(num.shift(-low), den)
    if rem:
        raise ValueError(f"not a polynomial: ({num}) / ({den})")
    return quo.shift(low)
