"""Angular integration: effective observables, Wishart moments, scaling.

For a chain-expressible bubble the unitary average at fixed singular
values is a combination of power sums p_l = sum_i lambda_i^{2l}; summing
the Weingarten-weighted permutation pairs yields the expansion, and the
complex Wishart (Laguerre) moments close the loop back to the exact
Gaussian expectation.  The expansion counts the pairs (sigma, tau) of
S_m x S_m by sigma-orbits: one walk over sigma, then one walk over tau per
orbit under conjugation by the length-keeping permutations.  Each
coefficient is reduced once, from numerators over the shared denominator of
a ``weingarten`` table, by a gcd on coefficient lists (``algebra.poly_gcd``).
Wishart moments are character sums over S_L of integer content polynomials
put in at the dimensions (``LaurentPoly``s, whose whole coefficients are
ints), so this route never calls the Wick oracle it is checked against.  The
expansion records its colour split, which alone gives the Weingarten
dimension N^q and the N^q x N^{|C|} Wishart matrix (q row colours); the
reconstruction takes the lcm of the coefficients' denominators and ends in
one exact polynomial division, its gcds and divisions on coefficient lists.
The scaling diagnostics alone walk every pair, one generator yielding them.
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
    Permutation,
    RationalFunc,
    Refused,
    _character,
    _content_polynomial,
    _contents,
    _cycle_type,
    _cycles,
    _hook_product,
    _poly_divmod,
    _polynomial_at,
    catalan,
    partitions_of,
    poly_gcd,
)
from .bubbles import (
    Bubble,
    ChainDecomposition,
    ColorSplit,
    NotChainExpressible,
    chain_decomposition,
    chain_obstruction,
)
from .weingarten import _weingarten_table

WISHART_L_MAX = 9
# The expansion walks m! sigmas, then m! taus per sigma-orbit: at most m!^2
# steps (m! = 720 at m = 6, with 11 orbits for single-box chains); the
# scaling diagnostics walk all m!^2 pairs (518,400 at m = 6).
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


@dataclass(frozen=True)
class ScalingDiagnostics:
    """Cycle counts of one (sigma, tau) term and its N-scaling exponent."""

    sigma: Permutation
    tau: Permutation
    f_rows: dict[int, int]
    f_box: int
    f0: int
    exponent: int


def _decompose(b: Bubble, split: ColorSplit) -> ChainDecomposition:
    """The chain decomposition of ``b``, refused over the angular bound."""
    decomp = chain_decomposition(b, split)
    if decomp is None:
        raise NotChainExpressible(f"not chain-expressible: {chain_obstruction(b, split)}")
    if decomp.m > ANGULAR_M_MAX:
        raise Refused(
            f"{decomp.m} chains exceed the angular bound {ANGULAR_M_MAX}: "
            f"{math.factorial(decomp.m)} sigma steps plus {math.factorial(decomp.m)} tau steps "
            f"per sigma-orbit, up to ~{math.factorial(decomp.m) ** 2:.1e}"
        )
    return decomp


def _tau_tables(decomp: ChainDecomposition, rows: Sequence[int]):
    """What both (sigma, tau) walks read, over S_m as 0-indexed image tuples.

    Returns (S_m, the 0-indexed endpoint map pi_c of each row colour c in
    ``rows``, and per tau the triple (tau, powers, tau^{-1})), with powers
    the chain lengths summed over each cycle of tau, in descending order.
    """
    m, lengths = decomp.m, decomp.chain_lengths
    group = list(permutations(range(m)))
    ends = [decomp.endpoint_maps[c]._zero_indexed() for c in rows]
    taus = [
        (
            tau,
            tuple(sorted((sum(lengths[j] for j in cyc) for cyc in _cycles(tau)), reverse=True)),
            sorted(range(m), key=tau.__getitem__),  # tau^{-1}
        )
        for tau in group
    ]
    return group, ends, taus


def _angular_terms(decomp: ChainDecomposition, rows: Sequence[int]):
    """Every (sigma, tau) in S_m x S_m as 0-indexed image tuples, sigma outer.

    Yields (sigma, [F_c(sigma) for c in rows], tau, powers, cycle type of
    sigma tau^{-1}) with F_c = #cycles(pi_c sigma) for the endpoint map pi_c
    of row colour c, and powers as in ``_tau_tables``.  F_c is computed once
    per sigma and powers once per tau.
    """
    group, ends, taus = _tau_tables(decomp, rows)
    for sigma in group:
        f_rows = [len(_cycles([end[i] for i in sigma])) for end in ends]
        for tau, powers, tau_inv in taus:
            yield sigma, f_rows, tau, powers, _cycle_type([sigma[i] for i in tau_inv])


def _orbit_weights(decomp: ChainDecomposition, rows: Sequence[int]) -> dict:
    """weights[powers][Wg class][row exponent] = #{(sigma, tau) in S_m x S_m :
    powers of tau, cycle type of sigma tau^{-1}, sum_c F_c(sigma)}.

    Conjugating sigma and tau by a permutation that keeps chain lengths keeps
    the powers of tau and the class of sigma tau^{-1}, so the tau counts of a
    sigma depend only on its orbit: the multiset of its cycles, each read as
    the chain lengths along it up to rotation.  One walk over sigma gives
    each orbit's histogram of row exponents; then one walk over tau per
    orbit representative, m! + (#orbits) m! steps in all.
    """
    lengths = decomp.chain_lengths
    group, ends, taus = _tau_tables(decomp, rows)
    cycles = {p: _cycles(p) for p in group}
    types = {p: tuple(sorted(map(len, cyc), reverse=True)) for p, cyc in cycles.items()}
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
            (powers, types[tuple(map(rep.__getitem__, tau_inv))]) for _, powers, tau_inv in taus
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
    chain-expressible for ``split``, or whose d is not the split's, raises
    ``NotChainExpressible`` and more than ``ANGULAR_M_MAX`` chains raise
    ``Refused``, both before any walk.  The expansion records ``split``.
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
    exact numbers or Laurent polynomials in N; the result is symbolic as
    soon as either one is.  By characters (Hanlon, Stanley & Stembridge
    1992), with L = sum(lengths) and P_lam(x) = prod_{box in lam} (x + c):

        sum_{lam |- L} chi^lam(lengths) P_lam(row) P_lam(col) / H_lam,

    summed in integers over H = lcm_lam H_lam and divided by H once.
    """
    lens = tuple(sorted((int(l) for l in lengths), reverse=True))
    if any(l < 1 for l in lens):
        raise Refused("lengths must be positive integers")
    L = sum(lens)
    if L > WISHART_L_MAX:
        raise Refused(f"total degree {L} exceeds the bound {WISHART_L_MAX}")
    H, weights = _wishart_weights(L, row_dim, col_dim)
    total = LaurentPoly.zero()
    for lam, w in weights:
        total = total + _character(lam, lens) * w
    if isinstance(row_dim, LaurentPoly) or isinstance(col_dim, LaurentPoly):
        return total * Fraction(1, H)
    return Fraction(total.terms.get(0, 0), H)


@lru_cache(maxsize=None)
def _wishart_weights(L: int, row: DimLike, col: DimLike) -> tuple:
    """(H, ((lam, (H / H_lam) P_lam(row) P_lam(col)) for every lam |- L)),
    with H the lcm of the hook products and each weight a LaurentPoly:
    integer coefficients for integer or N^k dimensions."""
    lams = [p.parts for p in partitions_of(L)]
    hooks = [_hook_product(lam) for lam in lams]
    H = math.lcm(*hooks)
    out = []
    for lam, h in zip(lams, hooks):
        content = _content_polynomial(_contents(lam))
        out.append((lam, _polynomial_at(content, row) * _polynomial_at(content, col) * (H // h)))
    return H, tuple(out)


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


def scaling_diagnostics(b: Bubble, split: ColorSplit) -> list[ScalingDiagnostics]:
    """Per-(sigma, tau) cycle counts F_c, F_box, F_0 and the exponent
    sum_c F_c + |C| F_box + |C| (F_0 - 2m).  Refused as
    ``effective_observable`` is."""
    decomp = _decompose(b, split)
    m = decomp.m
    rows = split.row_colors
    ncols = len(split.column_colors)
    perm = {p: Permutation([i + 1 for i in p]) for p in permutations(range(m))}
    out = []
    for sigma, f_rows, tau, powers, rho_type in _angular_terms(decomp, rows):
        f_box, f0 = len(powers), len(rho_type)
        out.append(
            ScalingDiagnostics(
                sigma=perm[sigma],
                tau=perm[tau],
                f_rows=dict(zip(rows, f_rows)),
                f_box=f_box,
                f0=f0,
                exponent=sum(f_rows) + ncols * f_box + ncols * (f0 - 2 * m),
            )
        )
    return out
