"""Bubble validation, necklaces, chain decomposition, bicolored cycles."""
from itertools import permutations as perm_tuples

import pytest

from tensormoments.algebra import Permutation, symmetric_group
from tensormoments.bubbles import (
    Bubble,
    ColorSplit,
    bicolored_cycle_count,
    bubble_from_chains,
    chain_decomposition,
    chain_obstruction,
    necklace,
    validate,
)
from tensormoments.oracle import per_color_dimensions

from conftest import edge_tree_bubble


def dipole(d: int = 4) -> Bubble:
    return Bubble(d, 1, tuple(Permutation.identity(1) for _ in range(d)))


class TestValidate:
    def test_dipole_ok(self):
        assert validate(dipole()).ok

    def test_two_dipoles_disconnected(self):
        ident = Permutation.identity(2)
        b = Bubble(4, 2, (ident,) * 4)
        diag = validate(b)
        assert not diag.ok
        assert any("disconnected" in p for p in diag.problems)

    def test_edge_tree_bubble_ok(self):
        assert validate(edge_tree_bubble(2, 3)).ok

    def test_wrong_map_count(self):
        with pytest.raises(ValueError):
            Bubble(4, 1, (Permutation.identity(1),) * 3)


class TestNecklace:
    def test_k1_all_identity(self, split24):
        b = necklace(4, split24, 1)
        assert b.n == 1
        assert all(b.tau(c).is_identity() for c in range(1, 5))

    def test_fig1_five_colors(self):
        split = ColorSplit(5, [3, 5])
        b = necklace(5, split, 3)
        assert (b.d, b.n) == (5, 3)
        assert validate(b).ok
        for c in (3, 5):
            assert b.tau(c).is_identity()
        for c in (1, 2, 4):
            assert b.tau(c).images == (3, 1, 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_decomposes_to_single_chain(self, split24, k):
        d = chain_decomposition(necklace(4, split24, k), split24)
        assert d.chain_lengths == (k,)
        assert all(p.is_identity() for p in d.endpoint_maps.values())

    def test_invalid_length(self, split24):
        with pytest.raises(ValueError):
            necklace(4, split24, 0)


class TestColorSplit:
    def test_rows_are_complement(self):
        s = ColorSplit(5, [3, 5])
        assert s.row_colors == (1, 2, 4)

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            ColorSplit(4, [])
        with pytest.raises(ValueError):
            ColorSplit(4, [1, 2, 3, 4])


class TestChainDecomposition:
    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (3, 2)])
    def test_edge_tree_bubble(self, split24, k, l):
        d = chain_decomposition(edge_tree_bubble(k, l), split24)
        assert sorted(d.chain_lengths, reverse=True) == sorted([k, l], reverse=True)
        assert d.endpoint_maps[1] == Permutation([2, 1])
        assert d.endpoint_maps[3] == Permutation([1, 2])

    def test_mismatched_columns_not_expressible(self, split24):
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
        assert chain_decomposition(b, split24) is None
        assert "disagree" in chain_obstruction(b, split24)

    def test_lengths_sum_to_n(self, split24):
        for k, l in [(1, 1), (2, 2), (4, 3)]:
            b = edge_tree_bubble(k, l)
            d = chain_decomposition(b, split24)
            assert sum(d.chain_lengths) == b.n

    def test_closed_chain_cut_at_smallest_label(self, split24):
        # tr (MM+)^{k+l} arises when both row colors glue the chains cyclically
        b = bubble_from_chains(
            4, split24, (2, 3), {1: Permutation([2, 1]), 3: Permutation([2, 1])}
        )
        d = chain_decomposition(b, split24)
        assert d.chain_lengths == (5,)
        assert d.chains[0][0] == 1

    def test_open_chain_beside_a_cycle(self, split24):
        # Links 1 -> 4 -> 1 (a cycle), 3 -> 2 and 5 -> 6 (open chains; the
        # first starts above its smallest white); the row colours disagree
        # at blacks 2 and 6, so those chains end there.
        ident = Permutation.identity(6)
        b = Bubble(
            4,
            6,
            (Permutation([4, 3, 2, 1, 6, 5]), ident, Permutation([4, 3, 6, 1, 2, 5]), ident),
        )
        d = chain_decomposition(b, split24)
        assert d.chains == ((1, 4), (3, 2), (5, 6))
        assert d.chain_lengths == (2, 2, 2)
        assert d.endpoint_maps == {1: Permutation([1, 2, 3]), 3: Permutation([1, 3, 2])}


def _all_chain_expressible(n):
    """All d=4 bubbles with equal colors 2 and 4, up to the stated labeling."""
    split = ColorSplit(4, [2, 4])
    perms = list(symmetric_group(n))
    for rho in perms:
        for t1 in perms:
            for t3 in perms:
                yield Bubble(4, n, (t1, rho, t3, rho)), split


class TestReconstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_exhaustive(self, n):
        dims = (2, 3, 2, 3)
        checked = 0
        for b, split in _all_chain_expressible(n):
            d = chain_decomposition(b, split)
            assert d is not None
            rebuilt = bubble_from_chains(4, split, d.chain_lengths, d.endpoint_maps)
            d2 = chain_decomposition(rebuilt, split)
            assert d2.chain_lengths == d.chain_lengths
            assert d2.endpoint_maps == d.endpoint_maps
            if n <= 3:
                # color-preserving relabeling leaves the Wick sum unchanged
                assert per_color_dimensions(rebuilt, dims) == per_color_dimensions(b, dims)
            checked += 1
        assert checked == len(list(symmetric_group(n))) ** 3


class TestBicoloredCycles:
    def test_edge_tree_example(self):
        b = edge_tree_bubble(1, 1)
        assert bicolored_cycle_count(b, 1, 2) == 1
        assert bicolored_cycle_count(b, 3, 4) == 2

    def test_identical_maps_give_n_cycles(self):
        b = edge_tree_bubble(2, 2)
        assert bicolored_cycle_count(b, 2, 4) == b.n

    def test_symmetric_in_colors(self):
        b = edge_tree_bubble(2, 3)
        for c1 in range(1, 5):
            for c2 in range(1, 5):
                if c1 != c2:
                    assert bicolored_cycle_count(b, c1, c2) == bicolored_cycle_count(b, c2, c1)

    def test_equal_colors_rejected(self):
        with pytest.raises(ValueError):
            bicolored_cycle_count(dipole(), 2, 2)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        b = edge_tree_bubble(2, 1)
        path = tmp_path / "bubble.json"
        b.save(path)
        assert Bubble.load(path) == b

    def test_json_shape(self):
        data = edge_tree_bubble(1, 1).to_json()
        assert data == {
            "d": 4,
            "n": 2,
            "colors": {"1": [2, 1], "2": [1, 2], "3": [1, 2], "4": [1, 2]},
        }
