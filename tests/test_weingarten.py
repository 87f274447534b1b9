"""Gram inversion, exact Weingarten values, asymptotics, orthogonality."""
import math
from collections import Counter
from fractions import Fraction

import pytest

from tensormoments.algebra import (
    LaurentPoly,
    Partition,
    RationalFunc,
    Refused,
    _character,
    _contents,
    _hook_product,
    _poly_divmod,
    partitions_of,
    poly_gcd,
)
from tensormoments.weingarten import weingarten_asymptotic, weingarten_exact, weingarten_table

from conftest import (
    class_representative,
    class_size,
    compose,
    cycle_count,
    cycle_type,
    gram_matrix,
    gram_times_class_function,
    is_identity,
    symmetric_group,
)

N = LaurentPoly.monomial(1)


class TestConjugacyClasses:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sizes_sum_to_factorial(self, n):
        assert sum(class_size(p) for p in partitions_of(n)) == math.factorial(n)

    def test_sizes_match_enumeration(self):
        counted = Counter(cycle_type(p) for p in symmetric_group(4))
        for cls in partitions_of(4):
            assert counted[cls] == class_size(cls)

    def test_representative_has_right_type(self):
        p = Partition([3, 2, 1])
        assert cycle_type(class_representative(p)) == p


class TestGramMatrix:
    def test_n1(self):
        assert gram_matrix(1) == [[N]]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_by_direct_enumeration(self, n):
        # independent oracle: sum dim^{cycles(sigma_a tau^{-1})} over tau in class b
        classes = list(partitions_of(n))
        reps = [class_representative(p) for p in classes]
        expected = [
            [
                sum(
                    (
                        N ** cycle_count(compose(sigma, tau.inverse()))
                        for tau in symmetric_group(n)
                        if cycle_type(tau) == cls_b
                    ),
                    LaurentPoly.zero(),
                )
                for cls_b in classes
            ]
            for sigma in reps
        ]
        assert gram_matrix(n) == expected

    def test_n2_determinant(self):
        m = gram_matrix(2)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        # dim^2 (dim^2 - 1), nonzero for numeric dim >= 2
        assert det == LaurentPoly({4: 1, 2: -1})
        for dim in (2, 3, 7):
            assert det.evaluate(dim) != 0


class TestExactValues:
    def test_single_box(self):
        assert weingarten_exact(Partition([1]), N) == RationalFunc(1, N)
        assert weingarten_exact(Partition([1]), 7) == Fraction(1, 7)

    def test_n2_values(self):
        m2 = N * N
        assert weingarten_exact(Partition([1, 1]), N) == RationalFunc(1, m2 - 1)
        assert weingarten_exact(Partition([2]), N) == RationalFunc(-1, N * (m2 - 1))

    def test_n2_values_at_squared_dimension(self):
        dim = LaurentPoly.monomial(2)
        n4 = LaurentPoly.monomial(4)
        assert weingarten_exact(Partition([1, 1]), dim) == RationalFunc(1, n4 - 1)
        assert weingarten_exact(Partition([2]), dim) == RationalFunc(
            -1, LaurentPoly.monomial(2) * (n4 - 1)
        )

    def test_n3_identity_class(self):
        # Gram inversion at n=3
        m2 = N * N
        expected = RationalFunc(m2 - 2, N * (m2 - 1) * (m2 - 4))
        assert weingarten_exact(Partition([1, 1, 1]), N) == expected

    def test_numeric_matches_symbolic(self):
        for p in partitions_of(4):
            sym = weingarten_exact(p, N)
            assert weingarten_exact(p, 9) == sym.num.evaluate(9) / sym.den.evaluate(9)

    def test_small_numeric_dim_rejected(self):
        with pytest.raises(ValueError):
            weingarten_exact(Partition([2, 1]), 2)

    def test_dimension_other_than_an_integer_or_a_power_of_N_refused(self):
        for dim in (Fraction(7, 2), N + 1, 2 * N, LaurentPoly.one()):
            with pytest.raises(Refused):
                weingarten_exact(Partition([2, 1]), dim)

    def test_n_max_enforced(self):
        with pytest.raises(ValueError):
            weingarten_exact(Partition([9]), 20)

    def test_defining_relation_all_representatives(self):
        # sum_tau dim^{cycles(sigma tau^{-1})} Wg(tau) = [sigma = id], for
        # every sigma (not only class representatives): Wg is a class function.
        for n in (2, 3, 4):
            dim = 7
            wg = weingarten_table(n, dim)
            for sigma in symmetric_group(n):
                total = sum(
                    Fraction(dim) ** cycle_count(compose(sigma, tau.inverse()))
                    * wg[cycle_type(tau)]
                    for tau in symmetric_group(n)
                )
                assert total == (1 if is_identity(sigma) else 0)


class TestOrthogonality:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dim", [7, 11, 13])
    def test_gram_times_weingarten_is_identity(self, n, dim):
        product = gram_times_class_function(n, dim, weingarten_table(n, dim))
        for a, row in enumerate(product):
            for c, entry in enumerate(row):
                assert entry == (1 if a == c else 0)

    @pytest.mark.parametrize("n,dim", [(6, 6), (6, 11), (7, 7), (7, 11), (8, 8), (8, 11)])
    def test_gram_matrix_times_weingarten_is_identity(self, n, dim):
        wg = weingarten_table(n, dim)
        size = len(wg)
        identity = [[int(a == c) for c in range(size)] for a in range(size)]
        assert gram_times_class_function(n, dim, wg) == identity

    @pytest.mark.parametrize("n", range(7))
    def test_symbolic_gram_matrix_times_weingarten_is_identity(self, n):
        # Clear the denominators: den * Wg is a Laurent polynomial per class,
        # and gram * (den * Wg) must be den times the identity.
        wg = weingarten_table(n, N)
        den = LaurentPoly.one()
        for value in wg.values():
            den, _ = _poly_divmod(den * value.den, poly_gcd(den, value.den))
        cleared = {}
        for cls, value in wg.items():
            quotient, remainder = _poly_divmod(den, value.den)
            assert remainder == 0
            cleared[cls] = value.num * quotient
        size = len(wg)
        zero = LaurentPoly.zero()
        expected = [[den if a == c else zero for c in range(size)] for a in range(size)]
        assert gram_times_class_function(n, N, cleared) == expected


class TestAsymptotics:
    def test_examples(self):
        assert weingarten_asymptotic(Partition([1])) == (-1, 1)
        assert weingarten_asymptotic(Partition([2])) == (-3, -1)
        assert weingarten_asymptotic(Partition([3])) == (-5, 2)

    def test_mixed_class(self):
        # (2,1): exponent 2 - 6 = -4, coefficient (-1) * 1
        assert weingarten_asymptotic(Partition([2, 1])) == (-4, -1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_ratio_to_exact_tends_to_one(self, n):
        for p in partitions_of(n):
            exponent, coeff = weingarten_asymptotic(p)
            for m, tol in [(10**3, Fraction(1, 10)), (10**4, Fraction(1, 100))]:
                exact = weingarten_exact(p, m)
                ratio = exact / (Fraction(coeff) * Fraction(m) ** exponent)
                assert abs(ratio - 1) <= tol, (p, m, ratio)


class TestTableDump:
    def test_symbolic_table_covers_all_classes(self):
        table = weingarten_table(3, LaurentPoly.monomial(2))
        assert set(table) == set(partitions_of(3))
        for value in table.values():
            assert isinstance(value, RationalFunc)


def weingarten_reference(n, dim):
    """All Weingarten values of S_n by the Fraction formula: every character
    term 1 / (H_lam prod_{box in lam} (dim + c)) put over prod_c (dim + c)^{k_c}
    by its cofactor in Fraction arithmetic, each value reduced once."""
    if isinstance(dim, int):
        dim = Fraction(dim)
    lams = [lam.parts for lam in partitions_of(n)]
    mults = [Counter(_contents(lam)) for lam in lams]
    top = {c: max(m[c] for m in mults) for c in set().union(*mults)}
    den = math.prod((dim + c) ** k for c, k in top.items())
    weights = [
        Fraction(1, _hook_product(lam)) * math.prod((dim + c) ** (k - m[c]) for c, k in top.items())
        for lam, m in zip(lams, mults)
    ]
    out = {}
    for cls in partitions_of(n):
        num = sum((_character(lam, cls.parts) * w for lam, w in zip(lams, weights)), dim * 0)
        out[cls] = num / den if isinstance(num, Fraction) else RationalFunc(num, den)
    return out


@pytest.mark.parametrize("n", range(9))
def test_table_equals_the_fraction_formula(n):
    # Integer content polynomials over lcm H_lam give the same table.
    for dim in (N, N**2, max(n, 1), n + 3):
        assert weingarten_table(n, dim) == weingarten_reference(n, dim), dim
