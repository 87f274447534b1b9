"""Wick-enumeration oracle: exact expectations, dominant contractions."""
import math
import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import tensormoments

from tensormoments import oracle
from tensormoments.algebra import LaurentPoly, Permutation, Refused, _cycles
from tensormoments.bubbles import Bubble, ColorSplit, bubble_from_chains, necklace
from tensormoments.effective import effective_observable, laguerre_reconstruct
from tensormoments.oracle import (
    K,
    BubbleTooLarge,
    expectation,
    gaussian_expectation,
    per_color_dimensions,
    wick_histogram,
)
from tensormoments.trees import CornerLabeledTree, enumerate_trees, tree_to_bubble

from conftest import edge_tree_bubble, histogram_brute_force

SPLIT = ColorSplit(4, [2, 4])


def by_total(hist):
    """A per-color histogram summed by total cycle count."""
    totals = {}
    for key, count in hist.items():
        totals[sum(key)] = totals.get(sum(key), 0) + count
    return totals


def random_bubble(rng, d, n):
    """d uniformly random color maps on n vertices (connected or not)."""
    maps = []
    for _ in range(d):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        maps.append(Permutation(images))
    return Bubble(d, n, tuple(maps))


def dipole(d=4):
    return Bubble(d, 1, tuple(Permutation.identity(1) for _ in range(d)))


class TestGaussianExpectation:
    def test_dipole(self):
        assert gaussian_expectation(dipole()) == LaurentPoly({4: 1})

    def test_edge_tree_k1_l1(self):
        assert gaussian_expectation(edge_tree_bubble(1, 1)) == LaurentPoly({7: 1, 5: 1})

    def test_scaled_alpha2(self):
        result = expectation(edge_tree_bubble(1, 1), alpha=2)
        assert result.scaled == LaurentPoly({3: 1, 1: 1})
        assert result.scaled.leading_term() == (3, 1)

    def test_empty_bubble_is_one(self):
        empty = Bubble(4, 0, tuple(Permutation.identity(0) for _ in range(4)))
        assert gaussian_expectation(empty) == LaurentPoly({0: 1})
        assert per_color_dimensions(empty, (2, 2, 2, 2)) == 1

    def test_refusal_with_cost_estimate(self):
        big = necklace(4, SPLIT, 12)
        with pytest.raises(BubbleTooLarge, match="Monte Carlo"):
            gaussian_expectation(big)

    def test_positive_coefficients(self):
        for b in [dipole(), edge_tree_bubble(2, 1), necklace(4, SPLIT, 4)]:
            poly = gaussian_expectation(b)
            assert all(c > 0 for c in poly.terms.values())
            assert poly.evaluate(1) == math.factorial(b.n)


class TestDominantContractions:
    def test_dipole(self):
        assert gaussian_expectation(dipole()).leading_term() == (4, 1)

    def test_tree_bubble_2_1(self):
        t = CornerLabeledTree(1, (1, 1), (CornerLabeledTree(1, (1,)),))
        _, count = gaussian_expectation(tree_to_bubble(t)).leading_term()
        assert count == 2  # Cat_2 * Cat_1

    def test_necklace_k2(self):
        assert gaussian_expectation(necklace(4, SPLIT, 2)).leading_term() == (6, 2)  # Cat_2


class TestPerColorDimensions:
    def test_unequal_dimensions_refused(self):
        with pytest.raises(ValueError, match=r"equal, got \(2, 3, 4, 5\)"):
            per_color_dimensions(dipole(), (2, 3, 4, 5))

    def test_edge_tree_at_two(self):
        assert per_color_dimensions(edge_tree_bubble(1, 1), (2, 2, 2, 2)) == 2**7 + 2**5

    def test_all_dims_one_counts_pairings(self):
        for b in [edge_tree_bubble(2, 1), necklace(4, SPLIT, 4)]:
            assert per_color_dimensions(b, (1, 1, 1, 1)) == math.factorial(b.n)

    @pytest.mark.parametrize("n0", [2, 3, 5])
    def test_specialization_consistency(self, n0):
        suite = [
            dipole(),
            edge_tree_bubble(1, 1),
            edge_tree_bubble(2, 1),
            necklace(4, SPLIT, 3),
            necklace(4, SPLIT, 5),
        ]
        for b in suite:
            sym = gaussian_expectation(b)
            assert per_color_dimensions(b, (n0,) * 4) == sym.evaluate(n0)

    def test_equal_dimensions_evaluate_the_polynomial(self):
        rng = random.Random(13)
        for _ in range(20):
            b = random_bubble(rng, rng.randint(1, 5), rng.randint(0, 7))
            N = rng.randint(1, 4)
            assert per_color_dimensions(b, [N] * b.d) == gaussian_expectation(b).evaluate(N)

    def test_dimension_count_checked(self):
        with pytest.raises(ValueError):
            per_color_dimensions(dipole(), (2, 2))


class TestParallelDeterminism:
    """Reruns of the one serial walk: equal values, equal records."""

    def test_polynomial_bit_identical(self):
        b = necklace(4, SPLIT, 5)
        first, rerun = gaussian_expectation(b), gaussian_expectation(b)
        assert first == rerun
        assert first.to_records() == rerun.to_records()

    @pytest.mark.parametrize(
        "b", [edge_tree_bubble(2, 2), necklace(4, SPLIT, 5)], ids=["edge_tree_2_2", "necklace_5"]
    )
    def test_histogram_matches_inverse_convention(self, b):
        assert wick_histogram(b) == by_total(histogram_brute_force(b))


class TestTranspositionWalk:
    """The coset walk's reduction against the recount over every pi in S_n.

    (The class keeps the name of the walk it was written for, so that its
    test ids stay stable.)
    """

    @pytest.mark.parametrize("n", range(K + 3))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_random_bubbles(self, d, n):
        # per_color_dimensions at equal dimensions against the recount's
        # sum over pairings of prod_c N^{cycles_c}.  n < K and n = K are one
        # coset, all of S_n; n = K + 1 and K + 2 have n!/K! cosets, whose
        # walks pass through positions K..n-1.  The recount walks all n!
        # pairings, so n = K + 2 takes one bubble.
        rng = random.Random(f"{d}:{n}")
        for _ in range(1 if n == K + 2 else 3):
            b = random_bubble(rng, d, n)
            N = rng.randint(1, 4)
            recount = histogram_brute_force(b)
            exact = sum(count * N ** sum(key) for key, count in recount.items())
            assert per_color_dimensions(b, [N] * d) == exact

    def test_no_colors(self):
        for n in range(K + 3):
            b = Bubble(0, n, ())
            assert wick_histogram(b) == by_total(histogram_brute_force(b)) == {0: math.factorial(n)}

    def test_counts_every_pairing_once(self):
        b = random_bubble(random.Random(8), 4, 8)
        assert sum(wick_histogram(b).values()) == math.factorial(8)

    @pytest.mark.parametrize("n", range(K + 3))
    @pytest.mark.parametrize("d", range(6))
    def test_totals_of_random_bubbles(self, d, n):
        rng = random.Random(f"totals {d}:{n}")
        for _ in range(1 if n == K + 2 else 3):
            b = random_bubble(rng, d, n)
            assert wick_histogram(b) == by_total(histogram_brute_force(b))

    def test_totals_of_every_tree_bubble(self):
        for t in enumerate_trees(3, 4):
            b = tree_to_bubble(t)
            assert wick_histogram(b) == by_total(histogram_brute_force(b))

    @pytest.mark.parametrize(
        "lengths, maps",
        [
            ((3, 3, 2, 1), ([1, 2, 3, 4], [2, 4, 1, 3])),
            ((4, 3, 2), ([2, 1, 3], [1, 3, 2])),
            ((2, 2, 2, 2, 1), ([3, 4, 2, 1, 5], [1, 5, 3, 2, 4])),
        ],
        ids=["3-3-2-1", "4-3-2", "2-2-2-2-1"],
    )
    def test_totals_equal_the_angular_route(self, lengths, maps):
        # n = 9: 504 cosets in 16 blocks of 32, past the recount's reach in
        # tier-1 time.  The reference is the angular route (Weingarten and
        # Wishart), which reads no Wick pairing.
        tau1, tau3 = (Permutation(images) for images in maps)
        b = bubble_from_chains(4, SPLIT, lengths, {1: tau1, 3: tau3})
        assert b.n == 9
        assert gaussian_expectation(b) == laguerre_reconstruct(effective_observable(b, SPLIT))

    def test_totals_up_to_one_byte(self):
        # d*n = 255: the identity pairing's total fills a byte with no carry.
        b = Bubble(51, 5, (Permutation.identity(5),) * 51)
        hist = wick_histogram(b)
        assert hist == by_total(histogram_brute_force(b))
        assert hist[255] == 1
        assert gaussian_expectation(b) == LaurentPoly(hist)

    def test_total_past_one_byte_refused(self):
        b = Bubble(52, 5, (Permutation.identity(5),) * 52)
        with pytest.raises(Refused, match="255"):
            gaussian_expectation(b)

    @pytest.mark.parametrize("k", range(1, K))
    def test_one_pass_rows_equal_the_per_entry_recount(self, k):
        # The per-entry form the one-pass build replaced, kept as the oracle.
        # Rows of S_k, k < K, are in itertools.permutations order.
        for g in permutations(range(k)):
            recount = bytes(len(_cycles([g[r] for r in rho])) for rho in permutations(range(k)))
            assert oracle._row(g) == recount
            for closed in range(5):
                shifted = bytes(closed + count for count in recount)
                assert oracle._row(g).translate(oracle._shift(closed)) == shifted

    def test_rows_of_s_k_equal_the_per_entry_recount(self):
        # A row of S_K joins K rows of S_{K-1}, one per coset pi_j S_{K-1}:
        # pi_j sends 0..K-2 to the other points in order and K-1 to j.  Its
        # entries run over rho = pi_j rho', j = 0..K-1 outer and rho' in
        # itertools order inner: every rho in S_K once.
        order = []
        for j in range(K):
            pi = [x for x in range(K) if x != j] + [j]
            order += [[pi[r] for r in rho] + [j] for rho in permutations(range(K - 1))]
        assert sorted(map(tuple, order)) == list(permutations(range(K)))
        rng = random.Random("rows of S_K")
        gs = [tuple(range(K))] + [tuple(rng.sample(range(K), K)) for _ in range(50)]
        for g in gs:
            recount = bytes(len(_cycles([g[r] for r in rho])) for rho in order)
            assert oracle._row(g) == recount
            for closed in range(3):
                shifted = bytes(closed + count for count in recount)
                assert oracle._row(g).translate(oracle._shift(closed)) == shifted

    def test_totals_cache_only_unshifted_rows(self, monkeypatch):
        # wick_histogram adds a coset's closed cycles as one integer, so the
        # row cache holds rows of S_K unshifted: at most K! of K! bytes.
        requested = set()
        row = oracle._row

        def spy(g):
            requested.add(g)
            return row(g)

        row.cache_clear()
        monkeypatch.setattr(oracle, "_row", spy)
        b = random_bubble(random.Random("unshifted 4:9"), 4, 9)
        assert sum(wick_histogram(b).values()) == math.factorial(9)
        assert {len(g) for g in requested} == {K}
        assert row.cache_info().currsize == len(requested) <= math.factorial(K)

    def test_table_built_on_first_use_not_at_import(self):
        # A fresh interpreter: importing the package (what a command pays
        # before any work) builds no row of the table; one histogram does.
        code = (
            "import tensormoments.cli\n"
            "from tensormoments import oracle\n"
            "from tensormoments.bubbles import ColorSplit, necklace\n"
            "print(oracle._row.cache_info().currsize)\n"
            "oracle.wick_histogram(necklace(4, ColorSplit(4, [2, 4]), 7))\n"
            "print(oracle._row.cache_info().currsize)\n"
        )
        src = str(Path(tensormoments.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout.split("\n")
        assert int(out[0]) == 0
        assert int(out[1]) > 0
