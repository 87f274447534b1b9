"""Exact combinatorial and symbolic arithmetic shared by every other module.

Permutations and partitions of the symmetric group, its irreducible
characters (with the contents, hook lengths and integer content polynomials
of Young diagrams), Catalan numbers, and Laurent polynomials in the single
symbol N with exact rational coefficients.  ``LaurentPoly`` is the one exact
polynomial type: it keeps a whole coefficient as an int and any other as a
Fraction, and refuses anything else, so integer polynomials (a content
polynomial at a dimension N^k) are summed and multiplied in ints.  A
``RationalFunc`` holds one reduced value and has no arithmetic.  Division
with remainder and the gcd that reduces it run on dense coefficient lists,
each result wrapped once as a LaurentPoly.  No floating point anywhere.
Also ``Refused``, the one exception a size bound or range check raises.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Union

Rational = Union[int, Fraction]


class Refused(ValueError):
    """An input over a size bound or out of range, refused where the bound lives.

    The command line reports it as one ``refused:`` line with exit code 2;
    any other exception is a fault and keeps its traceback.
    """


class Permutation:
    """A permutation of {1..n}, stored as its image sequence.

    ``images[i-1]`` is the image of ``i``.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        tup = tuple(int(x) for x in images)
        if sorted(tup) != list(range(1, len(tup) + 1)):
            raise ValueError(f"not a bijection of 1..{len(tup)}: {tup}")
        self.images = tup

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                images[a - 1] = b
        return cls(images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def _zero_indexed(self) -> list[int]:
        return [img - 1 for img in self.images]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def _cycles(images: Sequence[int]) -> list[list[int]]:
    """Cycles of the 0-indexed image table ``images`` (i -> images[i]), in
    order of their smallest element, each starting there."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = images[i]
        out.append(cyc)
    return out


def _cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths of a 0-indexed image table, weakly decreasing."""
    return tuple(sorted(map(len, _cycles(images)), reverse=True))


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing sequence of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts: Sequence[int]):
        tup = tuple(int(x) for x in parts)
        if any(p <= 0 for p in tup):
            raise ValueError(f"parts must be positive: {tup}")
        if list(tup) != sorted(tup, reverse=True):
            raise ValueError(f"parts must be weakly decreasing: {tup}")
        object.__setattr__(self, "parts", tup)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> dict[int, int]:
        """Map part size j -> number of parts of that size."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, in descending lexicographic order."""

    def gen(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for parts in gen(n, n):
        yield Partition(parts)


@lru_cache(maxsize=None)
def _character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Irreducible character chi^lam of S_n at the class mu (both partitions
    of n as part tuples), by the Murnaghan-Nakayama rule.

    A border strip of length r is a bead of the beta-set {lam_i + l - i}
    (l = len(lam)) moved down by r onto an empty position; its height is the
    number of beads jumped over.  chi^lam(mu) sums (-1)^height over the strip
    removals of mu[0], recursing on the remaining parts.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    ell = len(lam)
    beta = [p + ell - 1 - i for i, p in enumerate(lam)]
    beads = set(beta)
    total = 0
    for b in beta:
        if b < r or b - r in beads:
            continue
        height = sum(1 for c in beta if b - r < c < b)
        moved = sorted(beads - {b} | {b - r}, reverse=True)
        shape = tuple(x for i, c in enumerate(moved) if (x := c - (ell - 1 - i)))
        total += (-1) ** height * _character(shape, rest)
    return total


def _contents(lam: Sequence[int]) -> list[int]:
    """Contents j - i of the boxes (i, j) of the Young diagram of lam."""
    return [j - i for i, row in enumerate(lam) for j in range(row)]


def _hook_product(lam: Sequence[int]) -> int:
    """Product of the hook lengths of lam; f^lam = n! / _hook_product(lam)."""
    cols = [sum(1 for row in lam if row > j) for j in range(lam[0])] if lam else []
    return math.prod(row - j + cols[j] - i - 1 for i, row in enumerate(lam) for j in range(row))


def _content_polynomial(contents: Iterable[int]) -> list[int]:
    """Integer coefficients, constant term first, of prod_{c in contents} (x + c).

    With the contents of lam's boxes this is lam's content polynomial
    prod_{box in lam} (x + c(box)).
    """
    coeffs = [1]
    for c in contents:
        coeffs = [c * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _polynomial_at(coeffs: Sequence[Rational], x) -> LaurentPoly:
    """sum_k coeffs[k] x^k, by Horner, for x an int, a Fraction or a
    LaurentPoly (a number gives a constant polynomial)."""
    out = LaurentPoly.zero()
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _exact(c: Rational) -> Rational:
    """``c`` as an int when it is whole, else as a Fraction; anything that is
    neither an int nor a Fraction (a float, a string) raises TypeError."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


def catalan(l: int) -> int:
    """The l-th Catalan number, binomial(2l, l) / (l + 1)."""
    if l < 0:
        raise ValueError("catalan is defined for l >= 0")
    return math.comb(2 * l, l) // (l + 1)


class LaurentPoly:
    """Laurent polynomial in the symbol N with exact rational coefficients.

    Exponents may be negative.  Zero coefficients are never stored; a whole
    coefficient is stored as an int, any other as a Fraction, so integer
    polynomials are summed and multiplied without a Fraction.  Instances are
    immutable; arithmetic returns new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Rational] | None = None):
        clean: dict[int, Rational] = {}
        if terms:
            for e, c in terms.items():
                c = _exact(c)
                if c:
                    clean[int(e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, c: Rational) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, exp: int, coeff: Rational = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return min(self.terms)

    def leading_term(self) -> tuple[int, Rational]:
        """(exponent, coefficient) of the term of maximal exponent."""
        e = self.max_exp
        return e, self.terms[e]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.constant(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, Rational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by N^k."""
        return LaurentPoly({e + k: c for e, c in self.terms.items()})

    def substitute_power(self, k: int) -> "LaurentPoly":
        """Replace N by N^k (k >= 1)."""
        if k < 1:
            raise ValueError("power must be >= 1")
        return LaurentPoly({e * k: c for e, c in self.terms.items()})

    def evaluate(self, x: Rational) -> Fraction:
        x = Fraction(_exact(x))  # a float or a string is refused as a coefficient is
        if x == 0 and self.terms and self.min_exp < 0:
            raise ZeroDivisionError("negative exponent at N = 0")
        total = Fraction(0)
        for e, c in self.terms.items():
            total += c * x**e
        return total

    # -- equality / display ------------------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # A constant equals its value, so it hashes like it (the zero
        # polynomial like 0).
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            elif abs(c) == 1:
                body = f"N^{e}"
            else:
                body = f"{abs(c)}*N^{e}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self.terms!r})"

    # -- serialization -----------------------------------------------------

    def to_records(self) -> list[dict]:
        """[{"exp": int, "coeff": "p/q"}], sorted by descending exponent."""
        return [
            {"exp": e, "coeff": str(self.terms[e])}
            for e in sorted(self.terms, reverse=True)
        ]


#: The symbol N itself.
N = LaurentPoly.monomial(1)


def _coefficient_lists(a: LaurentPoly, b: LaurentPoly) -> tuple[list, list]:
    """Dense coefficients of ``a`` and ``b``, constant term first; a zero
    ``b`` or a negative exponent is refused."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if (a.terms and a.min_exp < 0) or b.min_exp < 0:
        raise ValueError("divmod requires non-negative exponents")
    lists = []
    for p in (a, b):
        coeffs = [0] * (max(p.terms, default=-1) + 1)
        for e, c in p.terms.items():
            coeffs[e] = c
        lists.append(coeffs)
    return lists[0], lists[1]


def _divmod_lists(a: list, b: list) -> tuple[list, list]:
    """Long division of coefficient lists (constant term first, ``b``'s last
    entry nonzero); the remainder has no trailing zeros."""
    db = len(b) - 1
    inv = 1 / Fraction(b[-1])  # a Fraction, so no quotient term is a float
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    for k in reversed(range(len(quo))):
        t = rem[k + db] * inv
        if t:
            t = quo[k] = _exact(t)
            rem[k : k + db] = [r - t * c for r, c in zip(rem[k : k + db], b)]
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder for ordinary polynomials (exponents >= 0)."""
    quo, rem = _divmod_lists(*_coefficient_lists(a, b))
    return LaurentPoly(dict(enumerate(quo))), LaurentPoly(dict(enumerate(rem)))


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic GCD of ordinary polynomials over the rationals, by Euclid's
    remainder sequence on coefficient lists."""
    if b.is_zero():
        return a * Fraction(1, a.leading_term()[1]) if a else a
    x, y = _coefficient_lists(a, b)
    while y:
        x, y = y, _divmod_lists(x, y)[1]
    inv = 1 / Fraction(x[-1])
    return LaurentPoly({e: c * inv for e, c in enumerate(x)})


class RationalFunc:
    """One reduced ratio of Laurent polynomials in N, with no arithmetic.

    The constructor puts it in canonical form: the denominator is an
    ordinary polynomial (minimal exponent 0) that is monic, and shares no
    polynomial factor with the numerator's polynomial part; any net power of
    N lives in the numerator.  Sums and products are formed in
    ``LaurentPoly`` before the one value is built.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        polys = [LaurentPoly._coerce(x) for x in (num, den)]
        for x, p in zip((num, den), polys):
            if p is NotImplemented:
                raise TypeError(f"cannot interpret {x!r} as a polynomial")
        num, den = polys
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = self._canonicalize(num, den)

    @staticmethod
    def _canonicalize(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
        if num.is_zero():
            return LaurentPoly.zero(), LaurentPoly.one()
        a, b = num.min_exp, den.min_exp
        nu, de = num.shift(-a), den.shift(-b)
        g = poly_gcd(nu, de)
        if g.max_exp > 0 or g.leading_term()[1] != 1:
            nu, _ = _poly_divmod(nu, g)
            de, _ = _poly_divmod(de, g)
        _, lc = de.leading_term()
        inv = Fraction(1, lc)
        nu = nu * inv
        de = de * inv
        return nu.shift(a - b), de

    def is_polynomial(self) -> bool:
        return self.den == LaurentPoly.one()

    def substitute_power(self, k: int) -> "RationalFunc":
        """Replace N by N^k in numerator and denominator."""
        return RationalFunc(self.num.substitute_power(k), self.den.substitute_power(k))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunc({self.num!r}, {self.den!r})"

    def to_records(self) -> dict:
        return {"num": self.num.to_records(), "den": self.den.to_records()}
