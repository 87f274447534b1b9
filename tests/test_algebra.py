"""Permutations, partitions, characters, Catalan numbers, exact polynomial
arithmetic."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensormoments.algebra import (
    LaurentPoly,
    Partition,
    Permutation,
    RationalFunc,
    _character,
    _contents,
    _hook_product,
    _poly_divmod,
    catalan,
    partitions_of,
    poly_gcd,
)

from conftest import class_size, compose, cycle_type, cycles, exact_coefficients, symmetric_group


class TestPermutation:
    def test_compose_identity(self):
        q = Permutation([3, 1, 2])
        assert compose(Permutation.identity(3), q) == q
        assert compose(q, Permutation.identity(3)) == q

    def test_compose_inverse(self):
        q = Permutation([3, 1, 4, 2])
        assert compose(q, q.inverse()) == Permutation.identity(4)
        assert compose(q.inverse(), q) == Permutation.identity(4)

    def test_compose_involution(self):
        swap = Permutation([2, 1])
        assert compose(swap, swap) == Permutation.identity(2)

    def test_compose_applies_right_first(self):
        p = Permutation([2, 3, 1])
        q = Permutation([1, 3, 2])
        # (p o q)(1) = p(q(1)) = p(1) = 2
        assert compose(p, q)(1) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compose(Permutation.identity(2), Permutation.identity(3))

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 3])

    def test_cycle_type_examples(self):
        assert cycle_type(Permutation.identity(3)) == Partition([1, 1, 1])
        assert cycle_type(Permutation([2, 1])) == Partition([2])
        assert cycle_type(Permutation([2, 3, 1])) == Partition([3])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cycle_type_conjugation_invariant_exhaustive(self, n):
        perms = list(symmetric_group(n))
        for p in perms:
            pinv = p.inverse()
            for q in perms:
                assert cycle_type(compose(compose(p, q), pinv)) == cycle_type(q)

    def test_cycle_type_conjugation_invariant_n6_sampled(self):
        rng = random.Random(7)
        perms = list(symmetric_group(6))
        for _ in range(2000):
            p, q = rng.choice(perms), rng.choice(perms)
            assert cycle_type(compose(compose(p, q), p.inverse())) == cycle_type(q)

    def test_associativity_sampled(self):
        rng = random.Random(11)
        perms = list(symmetric_group(5))
        for _ in range(500):
            p, q, r = (rng.choice(perms) for _ in range(3))
            assert compose(compose(p, q), r) == compose(p, compose(q, r))

    def test_from_cycles(self):
        p = Permutation.from_cycles(4, [(1, 2, 3)])
        assert p.images == (2, 3, 1, 4)
        assert cycles(p) == [(1, 2, 3), (4,)]


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([2, 0])

    def test_partitions_of(self):
        parts = [p.parts for p in partitions_of(4)]
        assert parts == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        counts = [len(list(partitions_of(n))) for n in range(1, 9)]
        assert counts == [1, 2, 3, 5, 7, 11, 15, 22]

    def test_multiplicities(self):
        assert Partition([3, 2, 2, 1]).multiplicities() == {3: 1, 2: 2, 1: 1}


class TestCatalan:
    def test_small_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5

    def test_convolution_recurrence(self):
        # independent oracle: Cat_{n+1} = sum_i Cat_i Cat_{n-i}
        cats = [1]
        for n in range(20):
            cats.append(sum(cats[i] * cats[n - i] for i in range(n + 1)))
        assert cats[10] == 16796
        for l in range(21):
            assert catalan(l) == cats[l]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)


def character_table(n):
    """(classes, class sizes, {(lam, mu): chi^lam(mu)}) of S_n."""
    parts = [p.parts for p in partitions_of(n)]
    sizes = [class_size(Partition(mu)) for mu in parts]
    return parts, sizes, {(lam, mu): _character(lam, mu) for lam in parts for mu in parts}


class TestCharacters:
    @pytest.mark.parametrize("n", range(9))
    def test_row_orthogonality(self, n):
        # sum_mu |C_mu| chi^lam(mu) chi^nu(mu) = n! [lam = nu]
        parts, sizes, chi = character_table(n)
        for lam in parts:
            for nu in parts:
                total = sum(s * chi[lam, mu] * chi[nu, mu] for mu, s in zip(parts, sizes))
                assert total == (math.factorial(n) if lam == nu else 0), (lam, nu)

    @pytest.mark.parametrize("n", range(9))
    def test_column_orthogonality(self, n):
        # sum_lam chi^lam(mu) chi^lam(nu) = n! / |C_mu| [mu = nu]
        parts, sizes, chi = character_table(n)
        for mu, s in zip(parts, sizes):
            for nu in parts:
                total = sum(chi[lam, mu] * chi[lam, nu] for lam in parts)
                assert total == (math.factorial(n) // s if mu == nu else 0), (mu, nu)

    @pytest.mark.parametrize("n", range(9))
    def test_dimension_is_hook_length_formula(self, n):
        for lam in partitions_of(n):
            assert _character(lam.parts, (1,) * n) == math.factorial(n) // _hook_product(lam.parts)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_trivial_sign_and_standard_by_enumeration(self, n):
        # independent oracle: chi^(n) = 1, chi^(1^n) = sign, chi^(n-1,1) = fixed points - 1
        for sigma in symmetric_group(n):
            mu = cycle_type(sigma).parts
            fixed = sum(1 for i in range(1, n + 1) if sigma(i) == i)
            assert _character((n,), mu) == 1
            assert _character((1,) * n, mu) == (-1) ** (n - len(mu))
            assert _character((n - 1, 1), mu) == fixed - 1

    def test_contents_and_hooks(self):
        assert _contents((3, 2)) == [0, 1, 2, -1, 0]
        assert _hook_product((3, 2)) == 4 * 3 * 1 * 2 * 1
        assert _hook_product(()) == 1


laurent_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    max_size=6,
).map(LaurentPoly)

nonzero_laurent_polys = laurent_polys.filter(bool)


class TestLaurentPoly:
    def test_leading_term_examples(self):
        assert LaurentPoly({7: 1, 5: 1}).leading_term() == (7, 1)
        assert LaurentPoly({3: 2, 1: -1}).leading_term() == (3, 2)
        assert LaurentPoly.constant(5).leading_term() == (0, 5)

    def test_leading_term_of_zero(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero().leading_term()

    def test_no_zero_terms_stored(self):
        p = LaurentPoly({3: 1, 2: 0})
        assert 2 not in p.terms
        assert (p - p).terms == {}

    @given(laurent_polys, laurent_polys, laurent_polys)
    @settings(max_examples=200)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * LaurentPoly.one() == a
        assert a + LaurentPoly.zero() == a

    @given(laurent_polys, laurent_polys)
    @settings(max_examples=100)
    def test_no_zero_coefficients_after_arithmetic(self, a, b):
        for poly in (a + b, a - b, a * b):
            assert all(c != 0 for c in poly.terms.values())

    @given(laurent_polys)
    def test_evaluation_matches_terms(self, p):
        x = Fraction(3, 2)
        expected = sum((c * x**e for e, c in p.terms.items()), Fraction(0))
        assert p.evaluate(x) == expected

    def test_negative_exponents(self):
        p = LaurentPoly({-2: 1, 1: 3})
        assert p.evaluate(2) == Fraction(1, 4) + 6
        assert p.shift(2) == LaurentPoly({0: 1, 3: 3})

    def test_substitute_power(self):
        p = LaurentPoly({2: 1, -1: 3})
        assert p.substitute_power(2) == LaurentPoly({4: 1, -2: 3})

    def test_str(self):
        assert str(LaurentPoly({3: 1, 1: 1})) == "N^3 + N^1"
        assert str(LaurentPoly({3: 2, 1: -1})) == "2*N^3 - N^1"
        assert str(LaurentPoly.zero()) == "0"

    def test_whole_coefficients_are_ints(self):
        p = LaurentPoly({2: Fraction(4, 2), 1: Fraction(1, 2), 0: True})
        assert p.terms == {2: 2, 1: Fraction(1, 2), 0: 1}
        assert [type(c) for c in p.terms.values()] == [int, Fraction, int]
        assert exact_coefficients(p * p + Fraction(1, 2) * p)

    @pytest.mark.parametrize("coeff", [0.1, 0.0, 2.0, "1/2", "3", None, 1j])
    def test_non_rational_coefficient_refused(self, coeff):
        with pytest.raises(TypeError):
            LaurentPoly({0: coeff})
        with pytest.raises(TypeError):
            LaurentPoly({0: 1}) * LaurentPoly({1: coeff})
        with pytest.raises(TypeError):
            LaurentPoly({2: 1, -1: 3}).evaluate(coeff)

    @pytest.mark.parametrize("value", [0, 1, -7, Fraction(2, 3)])
    def test_constant_hashes_like_its_value(self, value):
        p = LaurentPoly.constant(value)
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1

    def test_non_constant_hash_unchanged(self):
        p = LaurentPoly({2: 3, 0: Fraction(1, 2)})
        assert hash(p) == hash(frozenset({(2, 3), (0, Fraction(1, 2))}))

    def test_records_round_trip(self):
        p = LaurentPoly({4: Fraction(2, 3), -1: -5})
        recs = p.to_records()
        assert recs[0] == {"exp": 4, "coeff": "2/3"}
        assert from_records(recs) == p


def from_records(records) -> LaurentPoly:
    """The LaurentPoly that ``LaurentPoly.to_records`` wrote."""
    return LaurentPoly({r["exp"]: Fraction(r["coeff"]) for r in records})


def _reference_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Long division one LaurentPoly quotient term at a time: the reference
    for the coefficient-list kernel ``_poly_divmod``."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if (a.terms and a.min_exp < 0) or b.min_exp < 0:
        raise ValueError("divmod requires non-negative exponents")
    quo = LaurentPoly.zero()
    rem = a
    db, cb = b.leading_term()
    while rem.terms and rem.max_exp >= db:
        dr, cr = rem.leading_term()
        t = LaurentPoly.monomial(dr - db, Fraction(cr, cb))
        quo = quo + t
        rem = rem - t * b
    return quo, rem


def _reference_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Euclid on LaurentPolys: the reference for ``poly_gcd``."""
    while not b.is_zero():
        _, r = _reference_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    _, lc = a.leading_term()
    return a * Fraction(1, lc)


def _random_poly(rng: random.Random, degree: int, whole: bool) -> LaurentPoly:
    """An ordinary polynomial of exactly this degree, with int coefficients
    when ``whole``, else Fractions; the leading one is never 1."""
    coeffs = {
        e: rng.randint(-9, 9) if whole else Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        for e in range(degree)
    }
    coeffs[degree] = rng.choice([-3, -1, 2, 5, Fraction(-2, 7), Fraction(9, 4)])
    return LaurentPoly(coeffs)


def _division_cases():
    """(a, b) pairs: random, deg a < deg b, zero dividends, constant divisors,
    exact multiples, coprime pairs and pairs with a common factor."""
    rng = random.Random(18)
    cases = []
    for whole in (True, False):

        def poly(lo, hi):
            return _random_poly(rng, rng.randint(lo, hi), whole)

        for _ in range(12):
            cases.append((poly(0, 7), poly(0, 5)))  # either degree order
            cases.append((poly(0, 2), poly(3, 5)))  # deg a < deg b
            cases.append((LaurentPoly.zero(), poly(0, 4)))
            cases.append((poly(0, 6), poly(0, 0)))  # constant divisor
            b = poly(1, 3)
            cases.append((b * poly(0, 4), b))  # exact multiple
            g = poly(1, 3)
            cases.append((g * poly(0, 3), g * poly(0, 3)))  # common factor
        for _ in range(6):
            roots = rng.sample(range(-8, 9), 5)
            lin = [LaurentPoly({1: 1, 0: -r}) * rng.choice([1, Fraction(3, 2), -2]) for r in roots]
            cases.append((lin[0] * lin[1] * lin[2], lin[3] * lin[4]))  # coprime
    return cases


class TestDivisionKernels:
    def test_divmod_and_gcd_equal_the_references(self):
        for a, b in _division_cases():
            quo, rem = _poly_divmod(a, b)
            assert (quo, rem) == _reference_divmod(a, b)
            assert quo * b + rem == a
            g = poly_gcd(a, b)
            assert g == _reference_gcd(a, b)
            assert g.leading_term()[1] == 1
            assert all(exact_coefficients(p) for p in (quo, rem, g))

    def test_gcd_with_a_zero_operand(self):
        a = LaurentPoly({3: Fraction(2, 3), -1: 4})
        # b's leading coefficient is the int 3: made monic by an exact division.
        b = LaurentPoly({2: 3, 0: 1})
        zero = LaurentPoly.zero()
        for x, y in ((a, zero), (zero, zero), (b, zero), (zero, b)):
            assert poly_gcd(x, y) == _reference_gcd(x, y)
            assert exact_coefficients(poly_gcd(x, y))
        assert poly_gcd(b, zero) == LaurentPoly({2: 1, 0: Fraction(1, 3)})

    def test_exceptions_unchanged(self):
        a = LaurentPoly({2: 1, 0: 1})
        negative = LaurentPoly({1: 1, -1: 2})
        for f in (_poly_divmod, _reference_divmod):
            with pytest.raises(ZeroDivisionError):
                f(a, LaurentPoly.zero())
        for f in (_poly_divmod, _reference_divmod, poly_gcd, _reference_gcd):
            for x, y in ((negative, a), (a, negative)):
                with pytest.raises(ValueError):
                    f(x, y)


class TestRationalFunc:
    def test_common_factor_removed(self):
        num = LaurentPoly({1: 1})
        den = LaurentPoly({2: 1, 0: -1})
        g = LaurentPoly({1: 1, 0: 2})
        assert RationalFunc(num * g, den * g) == RationalFunc(num, den)

    def test_denominator_monic(self):
        # The leading coefficient 3 is an int: made monic by an exact division.
        r = RationalFunc(LaurentPoly.constant(1), LaurentPoly({1: 3, 0: 3}))
        assert r.den.leading_term()[1] == 1
        assert (r.num, r.den) == (LaurentPoly.constant(Fraction(1, 3)), LaurentPoly({1: 1, 0: 1}))
        assert exact_coefficients(r.num) and exact_coefficients(r.den)

    @given(nonzero_laurent_polys, nonzero_laurent_polys)
    @settings(max_examples=100)
    def test_canonicalization_idempotent(self, num, den):
        r = RationalFunc(num, den)
        again = RationalFunc(r.num, r.den)
        assert again.num == r.num and again.den == r.den

    @given(nonzero_laurent_polys, nonzero_laurent_polys)
    @settings(max_examples=60)
    def test_canonicalization_preserves_value(self, num, den):
        r = RationalFunc(num, den)
        rng = random.Random(3)
        checked = 0
        while checked < 10:
            x = Fraction(rng.randint(2, 60), rng.randint(1, 7))
            try:
                expected = num.evaluate(x) / den.evaluate(x)
            except ZeroDivisionError:
                continue
            assert r.num.evaluate(x) / r.den.evaluate(x) == expected
            checked += 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunc(1, 0)

    def test_equal_only_to_a_rational_func(self):
        # One reduced value: no coercion of numbers or polynomials.
        n = LaurentPoly.monomial(1)
        assert RationalFunc(n * n - 1, n - 1) == RationalFunc(n + 1)
        assert RationalFunc(1) != 1
        assert RationalFunc(n) != n

    def test_is_polynomial(self):
        n = LaurentPoly.monomial(1)
        assert RationalFunc(n * n + 1).is_polynomial()
        assert RationalFunc(n * n - 1, n - 1).is_polynomial()
        assert not RationalFunc(1, n + 1).is_polynomial()

    def test_substitute_power(self):
        n = LaurentPoly.monomial(1)
        r = RationalFunc(1, n * n - 1)
        assert r.substitute_power(2) == RationalFunc(1, LaurentPoly({4: 1, 0: -1}))

    def test_records_round_trip(self):
        n = LaurentPoly.monomial(1)
        r = RationalFunc(n, n * n + 1)
        records = r.to_records()
        assert RationalFunc(from_records(records["num"]), from_records(records["den"])) == r
