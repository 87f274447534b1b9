"""Brute-force Wick-contraction enumeration: the exact ground truth.

The Gaussian expectation of a bubble polynomial at unit covariance is the
sum over pairings pi in S_n of prod_c N^{#cycles(tau_c pi)} (pi -> pi^{-1}
is a bijection of S_n, so this equals the sum over tau_c pi^{-1}).  One
serial walk over S_n in Heap's order (Heap 1963), where consecutive pairings
differ by one transposition, moves each per-color cycle count by +-1 per
step and builds a histogram of them; symbolic results, per-color numeric
dimensions and dominant-contraction counts are all reductions of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import LaurentPoly, Refused
from .bubbles import Bubble

DEFAULT_N_MAX = 9


class BubbleTooLarge(Refused):
    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        cost = math.factorial(n) * d
        super().__init__(
            f"n={n} exceeds n_max={DEFAULT_N_MAX}: ~{cost:.2e} transposition updates; "
            "use the Monte Carlo estimator instead"
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
    """Refuse n over ``DEFAULT_N_MAX``: the one place the oracle's bound is checked."""
    if n > DEFAULT_N_MAX:
        raise BubbleTooLarge(n, d)


def wick_histogram(b: Bubble) -> dict[tuple[int, ...], int]:
    """Map (cycles of tau_c pi, per color) -> number of pairings pi realizing it.

    pi walks S_n in Heap's order, where each step is pi -> pi (i j), so each
    sigma_c = tau_c pi swaps its images of i and j: that splits the cycle
    through i and j (+1) or merges the two cycles holding them (-1).
    """
    taus = [b.tau(c) for c in range(1, b.d + 1)]
    sigmas = [[img - 1 for img in tau.images] for tau in taus]
    counts = [tau.cycle_count() for tau in taus]
    hist = {tuple(counts): 1}
    stack = [0] * b.n  # Heap's counters: swaps made so far at each level i
    i = 1
    while i < b.n:
        if stack[i] == i:
            stack[i] = 0
            i += 1
            continue
        j = stack[i] if i % 2 else 0
        for c, sigma in enumerate(sigmas):
            k = sigma[j]
            while k != i and k != j:
                k = sigma[k]
            counts[c] += 1 if k == i else -1
            sigma[i], sigma[j] = sigma[j], sigma[i]
        key = tuple(counts)
        hist[key] = hist.get(key, 0) + 1
        stack[i] += 1
        i = 1
    return hist


def gaussian_expectation(b: Bubble) -> LaurentPoly:
    """Exact unit-covariance expectation of the bubble polynomial."""
    check_size(b.n, b.d)
    hist = wick_histogram(b)
    terms: dict[int, int] = {}
    for key, cnt in hist.items():
        e = sum(key)
        terms[e] = terms.get(e, 0) + cnt
    return LaurentPoly(terms)


def expectation(b: Bubble, alpha: int = 0) -> ExpectationResult:
    """Expectation with covariance N^{-alpha} (applied as N^{-alpha n})."""
    return ExpectationResult(raw=gaussian_expectation(b), alpha=alpha, n=b.n)


def dominant_contractions(b: Bubble) -> tuple[int, int]:
    """(leading exponent, number of pairings achieving it)."""
    poly = gaussian_expectation(b)
    exp, coeff = poly.leading_term()
    assert coeff.denominator == 1
    return exp, coeff.numerator


def per_color_dimensions(b: Bubble, dims: Sequence[int]) -> int:
    """Exact expectation with a separate numeric dimension per color."""
    if len(dims) != b.d:
        raise ValueError(f"need {b.d} dimensions, got {len(dims)}")
    if any(x < 1 for x in dims):
        raise ValueError("dimensions must be positive")
    check_size(b.n, b.d)
    hist = wick_histogram(b)
    total = 0
    for key, cnt in hist.items():
        prod = cnt
        for dim, cycles in zip(dims, key):
            prod *= dim**cycles
        total += prod
    return total
