"""Bubble validation, necklaces, chain decomposition, isomorphism keys."""
import random
from itertools import combinations

import pytest

from tensormoments.algebra import Permutation
from tensormoments.bubbles import (
    Bubble,
    ColorSplit,
    bubble_from_chains,
    chain_decomposition,
    chain_obstruction,
    necklace,
    validate,
)

from conftest import (
    canonical_key,
    compose,
    edge_tree_bubble,
    histogram_brute_force,
    is_identity,
    symmetric_group,
)


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

    def test_three_interleaved_components_listed(self):
        b = Bubble(2, 6, (Permutation([4, 2, 6, 1, 5, 3]), Permutation([1, 5, 3, 4, 2, 6])))
        assert validate(b).problems == ("disconnected: white components [1, 4]; [2, 5]; [3, 6]",)

    def test_no_colours_gives_one_component_per_pair(self):
        # d = 0: n isolated white-black pairs, and no colour 1 to read.
        assert validate(Bubble(0, 3, ())).problems == (
            "disconnected: white components [1]; [2]; [3]",
        )
        assert validate(Bubble(0, 1, ())).ok

    @pytest.mark.parametrize("d, n", [(0, -1), (-1, 0)])
    def test_negative_size_rejected(self, d, n):
        with pytest.raises(ValueError):
            Bubble(d, n, ())

    def test_wrong_map_count(self):
        with pytest.raises(ValueError):
            Bubble(4, 1, (Permutation.identity(1),) * 3)


class TestNecklace:
    def test_k1_all_identity(self, split24):
        b = necklace(4, split24, 1)
        assert b.n == 1
        assert all(is_identity(b.tau(c)) for c in range(1, 5))

    def test_fig1_five_colors(self):
        split = ColorSplit(5, [3, 5])
        b = necklace(5, split, 3)
        assert (b.d, b.n) == (5, 3)
        assert validate(b).ok
        for c in (3, 5):
            assert is_identity(b.tau(c))
        for c in (1, 2, 4):
            assert b.tau(c).images == (3, 1, 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_decomposes_to_single_chain(self, split24, k):
        d = chain_decomposition(necklace(4, split24, k), split24)
        assert d.chain_lengths == (k,)
        assert all(is_identity(p) for p in d.endpoint_maps.values())

    def test_invalid_length(self, split24):
        with pytest.raises(ValueError):
            necklace(4, split24, 0)

    def test_split_for_another_d_refused(self, split24):
        ends = {1: Permutation.identity(2), 3: Permutation([2, 1])}
        with pytest.raises(ValueError, match="split is for d=4, bubble has d=3"):
            bubble_from_chains(3, split24, (2, 1), ends)
        with pytest.raises(ValueError, match="split is for d=4, bubble has d=3"):
            necklace(3, split24, 2)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_one_closed_chain(self, d):
        for r in range(1, d):
            for columns in combinations(range(1, d + 1), r):
                split = ColorSplit(d, columns)
                ends = {c: Permutation.identity(1) for c in split.row_colors}
                for k in range(1, 8):
                    b = necklace(d, split, k)
                    assert b == bubble_from_chains(d, split, (k,), ends)
                    down = (k, *range(1, k))  # i -> i-1 (mod k)
                    assert [b.tau(c).images for c in split.row_colors] == [down] * (d - r)
                    assert all(is_identity(b.tau(c)) for c in columns)


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
        checked = 0
        for b, split in _all_chain_expressible(n):
            d = chain_decomposition(b, split)
            assert d is not None
            rebuilt = bubble_from_chains(4, split, d.chain_lengths, d.endpoint_maps)
            d2 = chain_decomposition(rebuilt, split)
            assert d2.chain_lengths == d.chain_lengths
            assert d2.endpoint_maps == d.endpoint_maps
            if n <= 3:
                # color-preserving relabeling leaves the per-colour Wick
                # histogram unchanged
                assert histogram_brute_force(rebuilt) == histogram_brute_force(b)
            checked += 1
        assert checked == len(list(symmetric_group(n))) ** 3


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


def random_perm(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def random_connected(rng: random.Random, d: int, n: int) -> Bubble:
    while True:
        b = Bubble(d, n, tuple(random_perm(rng, n) for _ in range(d)))
        if validate(b).ok:
            return b


def relabelled(b: Bubble, alpha: Permutation, beta: Permutation) -> Bubble:
    """Whites renamed by alpha, blacks by beta: tau_c -> beta tau_c alpha^{-1}."""
    a_inv = alpha.inverse()
    return Bubble(b.d, b.n, tuple(compose(beta, compose(t, a_inv)) for t in b.color_maps))


def isomorphic(a: Bubble, b: Bubble) -> bool:
    """Brute force: some renaming of the whites conjugates every tau_1^{-1} tau_c
    of ``a`` into that of ``b``."""
    if (a.d, a.n) != (b.d, b.n):
        return False
    ga = [compose(a.tau(1).inverse(), a.tau(c)) for c in range(2, a.d + 1)]
    gb = [compose(b.tau(1).inverse(), b.tau(c)) for c in range(2, b.d + 1)]
    return any(
        all(compose(alpha, compose(g, alpha.inverse())) == h for g, h in zip(ga, gb))
        for alpha in symmetric_group(a.n)
    )


class TestCanonicalKey:
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_relabelled_copies_share_a_key(self, d, n):
        rng = random.Random(100 * d + n)
        for _ in range(10):
            b = random_connected(rng, d, n)
            copy = relabelled(b, random_perm(rng, n), random_perm(rng, n))
            assert canonical_key(copy) == canonical_key(b)

    @pytest.mark.parametrize("d, n", [(2, 4), (3, 3), (3, 4), (4, 3)])
    def test_equal_keys_exactly_when_isomorphic(self, d, n):
        rng = random.Random(d * n)
        bubbles = [random_connected(rng, d, n) for _ in range(12)]
        bubbles += [relabelled(b, random_perm(rng, n), random_perm(rng, n)) for b in bubbles[:4]]
        merged = 0
        for i, a in enumerate(bubbles):
            for b in bubbles[:i]:
                same = canonical_key(a) == canonical_key(b)
                assert same == isomorphic(a, b)
                merged += same
        assert merged >= 4

    @pytest.mark.parametrize("d, n", [(3, 3), (4, 4), (4, 6)])
    def test_equal_keys_give_equal_histograms(self, d, n):
        rng = random.Random(7 * d + n)
        bubbles = [random_connected(rng, d, n) for _ in range(30)]
        bubbles += [relabelled(b, random_perm(rng, n), random_perm(rng, n)) for b in bubbles[:5]]
        first: dict = {}
        for b in bubbles:
            first.setdefault(canonical_key(b), b)
        assert len(first) < len(bubbles)
        for b in bubbles:
            assert histogram_brute_force(b) == histogram_brute_force(first[canonical_key(b)])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_key_is_the_smallest_renumbering_over_every_start(self, d):
        # The key walks only the starts that tau_1^-1 tau_2 fixes, when it
        # fixes any; the value is still the minimum over every start.
        rng = random.Random(d)
        fixing = 0
        for n in range(1, 7):
            for _ in range(15):
                b = random_connected(rng, d, n)
                inv1 = b.tau(1).inverse()
                gs = [[inv1(b.tau(c)(w + 1)) - 1 for w in range(n)] for c in range(2, d + 1)]
                fixing += any(g == w for w, g in enumerate(gs[0]))
                renumberings = []
                for start in range(n):
                    order = [start]
                    for v in order:  # breadth first, colours in order
                        for g in gs:
                            if g[v] not in order:
                                order.append(g[v])
                    place = {w: i for i, w in enumerate(order)}
                    renumberings.append(tuple(place[g[v]] for g in gs for v in order))
                assert canonical_key(b) == (d, n, min(renumberings))
        assert 0 < fixing < 90

    def test_disconnected_bubble_is_its_own_key(self):
        two_dipoles = Bubble(4, 2, (Permutation.identity(2),) * 4)
        swapped = relabelled(two_dipoles, Permutation([2, 1]), Permutation.identity(2))
        assert canonical_key(two_dipoles) is two_dipoles
        assert canonical_key(swapped) == swapped != two_dipoles
        empty = Bubble(4, 0, (Permutation.identity(0),) * 4)
        assert canonical_key(empty) is empty

    def test_no_colours_is_disconnected(self):
        pairs = Bubble(0, 2, ())
        assert canonical_key(pairs) is pairs
        assert canonical_key(Bubble(0, 1, ())) == (0, 1, ())

    def test_colours_are_not_interchanged(self):
        # Colours 2 and 3 swapped: isomorphic as uncoloured graphs only.
        b = edge_tree_bubble(2, 1)
        t = b.color_maps
        swapped = Bubble(4, b.n, (t[0], t[2], t[1], t[3]))
        assert not isomorphic(b, swapped)
        assert canonical_key(b) != canonical_key(swapped)
