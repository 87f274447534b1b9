"""Effective observables, Wishart moments, reconstruction, top sigmas.

The per-pair references live here: ``angular_brute_force`` walks every
(sigma, tau) on 1-indexed permutations, and ``_angular_terms`` on 0-indexed
image tuples, which ``pair_walk_weights`` tallies as the reference for the
orbit walk ``_orbit_weights``.  ``top_sigmas`` (conftest) is checked against
the pairs of top exponent.
"""
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import pytest

from tensormoments.algebra import (
    LaurentPoly,
    Permutation,
    RationalFunc,
    Refused,
    _character,
    _contents,
    _cycles,
    _hook_product,
    catalan,
    partitions_of,
)
from tensormoments.bubbles import (
    Bubble,
    ColorSplit,
    bubble_from_chains,
    chain_decomposition,
    necklace,
)
from tensormoments.effective import (
    _orbit_weights,
    effective_observable,
    laguerre_reconstruct,
    wishart_moment_exact,
    wishart_moment_leading,
)
from tensormoments import oracle
from tensormoments.oracle import gaussian_expectation
from tensormoments.weingarten import _weingarten_table, weingarten_exact
from tensormoments.trees import CornerLabeledTree, enumerate_trees, tree_to_bubble

from conftest import (
    compose,
    cycle_count,
    cycle_lengths,
    cycle_type,
    cycles,
    edge_tree_bubble,
    exact_coefficients,
    symmetric_group,
    top_sigmas,
    wishart_laurent,
)

SPLIT = ColorSplit(4, [2, 4])
N = LaurentPoly.monomial(1)
N2 = LaurentPoly.monomial(2)


class TestEffectiveObservable:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_necklace_passes_through(self, k):
        e = effective_observable(necklace(4, SPLIT, k), SPLIT)
        assert e.terms == {(k,): RationalFunc(1)}

    def test_dipole(self):
        b = Bubble(4, 1, (Permutation.identity(1),) * 4)
        e = effective_observable(b, SPLIT)
        assert e.terms == {(1,): RationalFunc(1)}

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_edge_tree_closed_form(self, k, l):
        e = effective_observable(edge_tree_bubble(k, l), SPLIT)
        coeff = RationalFunc(N, N2 + 1)
        expected = {tuple(sorted((k, l), reverse=True)): coeff, (k + l,): coeff}
        assert e.terms == expected

    def test_degree_conservation(self):
        for k, l in [(1, 1), (2, 3), (3, 1)]:
            b = edge_tree_bubble(k, l)
            e = effective_observable(b, SPLIT)
            for powers in e.terms:
                assert sum(powers) == k + l

    def test_not_chain_expressible_raises(self):
        b = Bubble(
            4,
            2,
            (
                Permutation.identity(2),
                Permutation([2, 1]),
                Permutation.identity(2),
                Permutation.identity(2),
            ),
        )
        with pytest.raises(Refused, match="disagree"):
            effective_observable(b, SPLIT)

    @pytest.mark.parametrize("route", [effective_observable])
    @pytest.mark.parametrize(
        "split",
        [ColorSplit(2, [2]), ColorSplit(3, [2]), ColorSplit(5, [2, 4])],
        ids=["d2", "d3", "d5"],
    )
    def test_split_for_another_d_refused(self, route, split):
        # Refused where the split meets the bubble, before any colour of the
        # split is looked up in it.
        with pytest.raises(Refused, match=f"split is for d={split.d}, bubble has d=4"):
            route(edge_tree_bubble(2, 1), split)

    @pytest.mark.parametrize("route", [effective_observable])
    def test_seven_chains_refused_before_the_pair_sum(self, route):
        # Seven single-box chains: colour 3 shifts every box to the next one.
        b = bubble_from_chains(
            4, SPLIT, (1,) * 7, {1: Permutation.identity(7), 3: Permutation([2, 3, 4, 5, 6, 7, 1])}
        )
        start = time.perf_counter()
        with pytest.raises(ValueError, match="7 chains exceed the angular bound 6"):
            route(b, SPLIT)
        assert time.perf_counter() - start < 1.0

    def test_two_thousand_chains_refused_with_their_cost(self):
        # 2000! has 5736 digits, past Python's int-to-str limit: the step
        # counts are written from their log, as every refusal's cost is.
        shift = Permutation([*range(2, 2001), 1])
        b = bubble_from_chains(4, SPLIT, (1,) * 2000, {1: Permutation.identity(2000), 3: shift})
        text = r"2000 chains exceed the angular bound 6: 3\.3e\+5735 sigma steps"
        start = time.perf_counter()
        with pytest.raises(Refused, match=text) as info:
            effective_observable(b, SPLIT)
        assert type(info.value) is Refused
        assert time.perf_counter() - start < 1.0


def wishart_brute_force(lengths, row, col):
    """sum over pi in S_L of row^{#cyc(gamma pi)} col^{#cyc(pi)}, with gamma
    one cycle per trace."""
    images, start = [], 0
    for l in lengths:
        images += [start + (j + 1) % l + 1 for j in range(l)]
        start += l
    gamma = Permutation(images)
    total = 0
    for pi in symmetric_group(start):
        total = total + row ** cycle_count(compose(gamma, pi)) * col ** cycle_count(pi)
    return total


class TestWishartMoments:
    def test_single_pair(self):
        assert wishart_moment_exact((1,), N, N) == N * N
        assert wishart_moment_exact((1,), 3, 5) == 15

    def test_length_two(self):
        # two pairings of tr W^2: row*col*(row + col)
        assert wishart_moment_exact((2,), N, N) == LaurentPoly({3: 2})
        assert wishart_moment_exact((2,), 2, 3) == 2 * 3 * (2 + 3)

    def test_two_traces(self):
        # self + cross pairing
        assert wishart_moment_exact((1, 1), N, N) == LaurentPoly({4: 1, 2: 1})
        assert wishart_moment_exact((1, 1), 3, 5) == 225 + 15

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_square_leading_coefficient_is_catalan(self, l):
        poly = wishart_moment_exact((l,), N, N)
        assert poly.leading_term() == (l + 1, catalan(l))

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_unbalanced_leading_coefficient_is_one(self, l):
        poly = wishart_moment_exact((l,), N, LaurentPoly.monomial(3))
        _, coeff = poly.leading_term()
        assert coeff == 1

    def test_leading_helper(self):
        assert wishart_moment_leading(3, "square") == 5
        assert wishart_moment_leading(3, "unbalanced") == 1
        assert wishart_moment_leading(1, "square") == 1
        assert wishart_moment_leading(1, "unbalanced") == 1
        with pytest.raises(ValueError):
            wishart_moment_leading(2, "diagonal")

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            wishart_moment_exact((10,), N, N)

    @pytest.mark.parametrize(
        "lengths", [p.parts for L in range(1, 7) for p in partitions_of(L)], ids=str
    )
    def test_matches_brute_force(self, lengths):
        for row, col in ((N, N2), (2, 3)):
            assert wishart_moment_exact(lengths, row, col) == wishart_brute_force(
                lengths, row, col
            )

    @pytest.mark.parametrize(
        "row, col",
        [(N2, N2), (N, N2), (N**3, N), (3, 5), (Fraction(7, 2), 4)],
        ids=["N2-N2", "N-N2", "N3-N", "3-5", "7/2-4"],
    )
    def test_equals_the_fraction_formula(self, row, col):
        for lengths in (p.parts for L in range(1, 10) for p in partitions_of(L)):
            got = wishart_moment_exact(lengths, row, col)
            expected = wishart_reference(lengths, row, col)
            assert (got, type(got)) == (expected, type(expected)), lengths

    @pytest.mark.parametrize(
        "row, col",
        [(N, N), (N, N2), (N**3, N), (N2, 3), (2, 3), (Fraction(7, 2), N2)],
        ids=["N-N", "N-N2", "N3-N", "N2-3", "2-3", "7/2-N2"],
    )
    def test_equals_the_laurent_poly_sum(self, row, col):
        for lengths in (p.parts for L in range(1, 10) for p in partitions_of(L)):
            got = wishart_moment_exact(lengths, row, col)
            expected = wishart_laurent(lengths, row, col)
            assert (got, type(got)) == (expected, type(expected)), lengths
            assert not isinstance(got, LaurentPoly) or exact_coefficients(got)

    def test_symbolic_dimension_other_than_a_power_of_N_refused(self):
        for dim in (N + 1, 2 * N, LaurentPoly.one(), LaurentPoly.monomial(-1)):
            with pytest.raises(Refused, match="N\\^k with k >= 1"):
                wishart_moment_exact((2, 1), N, dim)

    def test_catalan_limit_numeric(self):
        # <tr W^l> / m^{l+1} -> Cat_l for square m x m
        for l in (2, 3):
            value = wishart_moment_exact((l,), 10**4, 10**4)
            ratio = Fraction(value) / Fraction(10 ** (4 * (l + 1)))
            assert abs(ratio - catalan(l)) < Fraction(catalan(l), 100)


@lru_cache(maxsize=None)
def _reference_weights(L, row, col):
    """(lam, prod_{box in lam} (row + c)(col + c) / H_lam) for every lam |- L,
    in Fraction arithmetic."""
    out = []
    for lam in (p.parts for p in partitions_of(L)):
        boxes = math.prod((row + c) * (col + c) for c in _contents(lam))
        out.append((lam, Fraction(1, _hook_product(lam)) * boxes))
    return tuple(out)


def wishart_reference(lengths, row, col):
    """sum_lam chi^lam(lengths) prod_{box} (row + c)(col + c) / H_lam, one
    Fraction-coefficient product per box: the reference for the integer sums."""
    row, col = (Fraction(x) if isinstance(x, int) else x for x in (row, col))
    lens = tuple(sorted(lengths, reverse=True))
    return sum(_character(lam, lens) * w for lam, w in _reference_weights(sum(lens), row, col))


class TestLaguerreReconstruct:
    def test_edge_tree_k1_l1(self):
        e = effective_observable(edge_tree_bubble(1, 1), SPLIT)
        assert laguerre_reconstruct(e) == LaurentPoly({7: 1, 5: 1})

    def test_necklace_pass_through(self):
        for k in (2, 4):
            e = effective_observable(necklace(4, SPLIT, k), SPLIT)
            assert laguerre_reconstruct(e) == wishart_moment_exact((k,), N2, N2)

    def test_dipole(self):
        b = Bubble(4, 1, (Permutation.identity(1),) * 4)
        e = effective_observable(b, SPLIT)
        assert laguerre_reconstruct(e) == LaurentPoly({4: 1})

    @pytest.mark.parametrize("k,l", [(2, 1), (2, 2), (3, 2), (4, 3)])
    def test_two_path_consistency_edge_trees(self, k, l):
        b = edge_tree_bubble(k, l)
        e = effective_observable(b, SPLIT)
        assert laguerre_reconstruct(e) == gaussian_expectation(b)

    def test_two_path_consistency_small_trees(self):
        for t in enumerate_trees(3, 4):
            b = tree_to_bubble(t)
            e = effective_observable(b, SPLIT)
            assert laguerre_reconstruct(e) == gaussian_expectation(b), t.to_json()

    def test_two_path_consistency_five_chains(self):
        t = CornerLabeledTree(
            1,
            (0, 1),
            (
                CornerLabeledTree(
                    3,
                    (0, 1),
                    (
                        CornerLabeledTree(
                            1,
                            (0, 1),
                            (
                                CornerLabeledTree(
                                    3, (0, 1), (CornerLabeledTree(1, (1,)),)
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        )
        b = tree_to_bubble(t)
        assert chain_decomposition(b, SPLIT).chain_lengths == (1, 1, 1, 1, 1)
        e = effective_observable(b, SPLIT)
        assert laguerre_reconstruct(e) == gaussian_expectation(b)


    def test_angular_route_never_calls_the_wick_oracle(self, monkeypatch):
        # The two routes of the cross-check must be independent: replace
        # wick_histogram and the coset walk under every name a tensormoments
        # module holds them by.
        leaf = CornerLabeledTree(1, (1,))
        b = tree_to_bubble(CornerLabeledTree(1, (1, 2), (CornerLabeledTree(3, (2, 1), (leaf,)),)))
        expected = gaussian_expectation(b)

        def refuse(*args, **kwargs):
            raise AssertionError("the angular route called the Wick oracle")

        originals = (oracle.wick_histogram, oracle._coset_rows)
        for name, module in list(sys.modules.items()):
            if name == "tensormoments" or name.startswith("tensormoments."):
                for attr, value in list(vars(module).items()):
                    if any(value is original for original in originals):
                        monkeypatch.setattr(module, attr, refuse)
        with pytest.raises(AssertionError):
            gaussian_expectation(b)
        e = effective_observable(b, SPLIT)
        assert laguerre_reconstruct(e) == expected

    def test_two_path_consistency_at_every_split(self):
        # The expansion's split alone fixes the dimensions the reconstruction
        # uses, at every split a random d = 4 bubble is chain-expressible for.
        # The colours are drawn from a pool of 2 to 4 random maps, so that
        # splits with two and three column colours come up too.
        rng = random.Random(21)
        splits = [ColorSplit(4, cols) for r in (1, 2, 3) for cols in combinations(range(1, 5), r)]
        checked = Counter()
        for _ in range(24):
            n = rng.randint(3, 5)
            pool = [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(rng.randint(2, 4))]
            b = Bubble(4, n, tuple(rng.choices(pool, k=4)))
            expected = gaussian_expectation(b)
            for split in splits:
                if chain_decomposition(b, split) is not None:
                    e = effective_observable(b, split)
                    assert laguerre_reconstruct(e) == expected, (b.to_json(), split.columns)
                    checked[len(split.column_colors)] += 1
        assert checked[1] == 4 * 24 and checked[2] and checked[3], checked


GOLDEN = Path(__file__).parent / "golden"
# Four single-box chains whose coefficients reduce to two different
# denominators.
TWO_DENOMINATORS = Bubble(
    4,
    4,
    (
        Permutation([1, 3, 4, 2]),
        Permutation.identity(4),
        Permutation([4, 2, 3, 1]),
        Permutation.identity(4),
    ),
)


@pytest.mark.parametrize(
    "name", ["chains_1-1-1-1", "chains_2-1-1-1", "chains_3-3-2", "two_denominators"]
)
def test_angular_route_does_no_rational_function_arithmetic(name):
    # Coefficients are summed over the Weingarten table's shared denominator
    # and reduced once each; the reconstruction puts every term over the
    # lcm of the distinct denominators and divides once, exactly.  A
    # RationalFunc has no arithmetic to call.
    assert not any(hasattr(RationalFunc, op) for op in ("__add__", "__mul__", "__truediv__"))
    b = TWO_DENOMINATORS if name == "two_denominators" else Bubble.load(GOLDEN / f"{name}.json")
    e = effective_observable(b, SPLIT)
    reconstructed = laguerre_reconstruct(e)
    if b is TWO_DENOMINATORS:
        assert len({coeff.den for coeff in e.terms.values()}) == 2
    assert reconstructed == gaussian_expectation(b)


def test_route_outputs_hold_exact_coefficients():
    # Whole coefficients are ints, the others Fractions with denominator > 1:
    # in the oracle's value, the Weingarten tables, the expansions, the
    # Wishart moments and the reconstructions.
    polys = []
    for n in range(1, 7):
        nums, den = _weingarten_table(n, N2)
        polys += [*nums.values(), den]
    for lengths in ((3, 2, 1), (4, 4), (2, 2, 2, 1, 1)):
        polys += [wishart_moment_exact(lengths, row, col) for row in (N, N2) for col in (N2, 3)]
    for name in ("chains_1-1-1-1", "chains_2-1-1-1", "chains_3-3-2"):
        b = Bubble.load(GOLDEN / f"{name}.json")
        e = effective_observable(b, SPLIT)
        polys += [gaussian_expectation(b), laguerre_reconstruct(e)]
        polys += [p for coeff in e.terms.values() for p in (coeff.num, coeff.den)]
    assert all(exact_coefficients(p) for p in polys)


class TestTopSigmas:
    def test_max_exponent_matches_reconstruction_leading(self):
        # max exponent + 2 * total chain length = leading exponent of the
        # reconstructed polynomial (box cycles scale as N^2 while Laguerre
        # moments add N^{2 l} on top)
        cases = [edge_tree_bubble(1, 1), edge_tree_bubble(2, 1), necklace(4, SPLIT, 3)]
        for b in cases:
            best, _ = top_sigmas(chain_decomposition(b, SPLIT), SPLIT)
            lead, _ = laguerre_reconstruct(effective_observable(b, SPLIT)).leading_term()
            assert best + 2 * b.n == lead

    def test_dominance_fixes_leaf_chain(self):
        _, sigmas = top_sigmas(chain_decomposition(edge_tree_bubble(1, 1), SPLIT), SPLIT)
        assert sigmas and all(sigma(2) == 2 for sigma in sigmas)


# Three chains of unequal length; no two row colours agree on any endpoint.
UNEQUAL = bubble_from_chains(
    4, SPLIT, (2, 1, 1), {1: Permutation([2, 3, 1]), 3: Permutation([3, 1, 2])}
)


def angular_brute_force(decomp, split):
    """1-indexed reference for the (sigma, tau) sum, sigma outer: per pair
    (sigma, tau, F_c, F_box, F_0, exponent, powers of tau, Wg class)."""
    m, ncols = decomp.m, len(split.column_colors)
    out = []
    for sigma in symmetric_group(m):
        for tau in symmetric_group(m):
            f_rows = {
                c: cycle_count(compose(decomp.endpoint_maps[c], sigma))
                for c in split.row_colors
            }
            f_box = cycle_count(tau)
            rho = compose(sigma, tau.inverse())
            f0 = cycle_count(rho)
            exponent = sum(f_rows.values()) + ncols * f_box + ncols * (f0 - 2 * m)
            powers = tuple(
                sorted(
                    (sum(decomp.chain_lengths[j - 1] for j in cyc) for cyc in cycles(tau)),
                    reverse=True,
                )
            )
            out.append((sigma, tau, f_rows, f_box, f0, exponent, powers, cycle_type(rho)))
    return out


class TestAngularBruteForce:
    def test_chains_are_unequal(self):
        assert chain_decomposition(UNEQUAL, SPLIT).chain_lengths == (2, 1, 1)

    def test_top_sigmas_match(self):
        assert_top_sigmas_match(chain_decomposition(UNEQUAL, SPLIT), SPLIT)

    def test_effective_observable_matches(self):
        # The pair walk's Weingarten values put over one common denominator,
        # the product of their distinct denominators, then compared by
        # cross-multiplying.
        walk = angular_brute_force(chain_decomposition(UNEQUAL, SPLIT), SPLIT)
        values = {row[7]: weingarten_exact(row[7], N2) for row in walk}
        dens = {value.den for value in values.values()}
        den = math.prod(dens, start=LaurentPoly.one())
        expected = {}
        for _, _, f_rows, _, _, _, powers, wg_class in walk:
            value = values[wg_class]
            cofactor = math.prod(dens - {value.den}, start=LaurentPoly.one())
            term = value.num * cofactor * N ** sum(f_rows.values())
            expected[powers] = expected.get(powers, LaurentPoly.zero()) + term
        expected = {p: num for p, num in expected.items() if num}
        terms = effective_observable(UNEQUAL, SPLIT).terms
        assert terms.keys() == expected.keys()
        for powers, coeff in terms.items():
            assert coeff.num * den == expected[powers] * coeff.den, powers


def assert_top_sigmas_match(decomp, split):
    """``top_sigmas`` against the pairs of top exponent in the brute force:
    the same maximum, the same sigmas, and each of their taus fixes every
    point its sigma fixes."""
    walk = angular_brute_force(decomp, split)
    best = max(row[5] for row in walk)
    top = [(row[0], row[1]) for row in walk if row[5] == best]
    assert top_sigmas(decomp, split) == (best, list(dict.fromkeys(sigma for sigma, _ in top)))
    for sigma, tau in top:
        assert all(tau(i) == i for i in range(1, decomp.m + 1) if sigma(i) == i), (sigma, tau)


def _angular_terms(decomp, rows):
    """Every (sigma, tau) in S_m x S_m as 0-indexed image tuples, sigma outer:
    per pair ([F_c(sigma) for c in rows], powers of tau, cycle type of
    sigma tau^{-1}), each F_c computed per sigma and the powers per tau."""
    m, lengths = decomp.m, decomp.chain_lengths
    group = list(permutations(range(m)))
    ends = [decomp.endpoint_maps[c]._zero_indexed() for c in rows]
    taus = [
        (
            tuple(sorted((sum(lengths[j] for j in cyc) for cyc in _cycles(tau)), reverse=True)),
            sorted(range(m), key=tau.__getitem__),  # tau^{-1}
        )
        for tau in group
    ]
    for sigma in group:
        f_rows = [len(_cycles([end[i] for i in sigma])) for end in ends]
        for powers, tau_inv in taus:
            yield f_rows, powers, cycle_lengths([sigma[i] for i in tau_inv])


def pair_walk_weights(decomp, rows):
    """weights[powers][Wg class][row exponent] tallied pair by pair from
    ``_angular_terms``: the reference for ``_orbit_weights``."""
    weights = {}
    for f_rows, powers, wg_class in _angular_terms(decomp, rows):
        cell = weights.setdefault(powers, {}).setdefault(wg_class, {})
        cell[sum(f_rows)] = cell.get(sum(f_rows), 0) + 1
    return weights


def length_shapes(m_max):
    """One tuple of chain lengths per pattern of equal lengths with m <= m_max:
    the partition (2, 2) of m = 4 gives (2, 2, 1, 1), (2, 1, 1) gives (3, 3, 2, 1)."""
    for m in range(1, m_max + 1):
        for p in partitions_of(m):
            k = p.num_parts
            yield tuple(k - i for i, mult in enumerate(p.parts) for _ in range(mult))


def random_chain_decomposition(rng, split, lengths):
    """The decomposition of a random bubble with chains of exactly ``lengths``."""
    m = len(lengths)
    while True:
        maps = {}
        for c in split.row_colors:
            images = list(range(1, m + 1))
            rng.shuffle(images)
            maps[c] = Permutation(images)
        decomp = chain_decomposition(bubble_from_chains(split.d, split, lengths, maps), split)
        if sorted(decomp.chain_lengths) == sorted(lengths):
            return decomp


ORBIT_SHAPES = [*length_shapes(5), (3, 3, 2)]


@pytest.mark.parametrize("split", [SPLIT, ColorSplit(4, [4])], ids=["2,4", "4"])
@pytest.mark.parametrize("lengths", ORBIT_SHAPES, ids=lambda l: "-".join(map(str, l)))
def test_orbit_weights_equal_the_pair_walk(lengths, split):
    rng = random.Random(f"{lengths} {split.columns}")
    for _ in range(2):
        decomp = random_chain_decomposition(rng, split, lengths)
        assert _orbit_weights(decomp, split.row_colors) == pair_walk_weights(
            decomp, split.row_colors
        )


TOP_SPLITS = [SPLIT, ColorSplit(4, [4]), ColorSplit(4, [2]), ColorSplit(4, [2, 3, 4])]
# Every shape with m <= 4 at each split, and one shape of five chains per
# split: the brute force walks 14,400 pairs at m = 5.
FIVE_CHAINS = [lengths for lengths in length_shapes(5) if len(lengths) == 5]
TOP_CASES = [
    *((split, lengths) for split in TOP_SPLITS for lengths in length_shapes(4)),
    *zip(TOP_SPLITS, FIVE_CHAINS),
]


@pytest.mark.parametrize(
    "split, lengths",
    TOP_CASES,
    ids=[f"split{','.join(map(str, s.columns))}-{'-'.join(map(str, l))}" for s, l in TOP_CASES],
)
def test_top_sigmas_equal_the_pair_walk(split, lengths):
    rng = random.Random(f"top {lengths} {split.columns}")
    assert_top_sigmas_match(random_chain_decomposition(rng, split, lengths), split)
