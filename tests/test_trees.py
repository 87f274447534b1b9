"""Corner-labeled trees, necklace insertion, Catalan products, enumeration."""
import hashlib
import json
from collections import Counter

import pytest

from tensormoments.algebra import catalan
from tensormoments.bubbles import (
    ColorSplit,
    chain_decomposition,
    necklace,
    validate,
)
from tensormoments.oracle import gaussian_expectation
from tensormoments.trees import (
    CornerLabeledTree,
    catalan_product,
    enumerate_trees,
    glue,
    glued_key,
    tree_to_bubble,
)

from conftest import canonical_key, edge_tree_bubble, tree_vertex_spans, vertex_count

SPLIT = ColorSplit(4, [2, 4])


def two_vertex_tree(k: int, l: int) -> CornerLabeledTree:
    return CornerLabeledTree(1, (0, k), (CornerLabeledTree(1, (l,)),))


def expected_chain_lengths(t: CornerLabeledTree) -> Counter:
    """Chain multiset read off the corner structure: each vertex necklace is
    cut at its parent slot and at every distinct child insertion position."""
    out: list[int] = []

    def walk(v: CornerLabeledTree, is_root: bool) -> None:
        k = v.k
        cuts = set() if is_root else {0}
        cum = 0
        for child, gap in zip(v.children, v.labels):
            cum += gap
            cuts.add(cum % k)
            walk(child, False)
        if not cuts:
            out.append(k)
            return
        pos = sorted(cuts)
        out.extend(b - a for a, b in zip(pos, pos[1:]))
        out.append(k - pos[-1] + pos[0])

    walk(t, True)
    return Counter(out)


class TestValidation:
    def test_negative_label(self):
        with pytest.raises(ValueError):
            CornerLabeledTree(1, (-1, 2))

    def test_zero_total(self):
        with pytest.raises(ValueError):
            CornerLabeledTree(1, (0,))

    def test_label_count(self):
        with pytest.raises(ValueError):
            CornerLabeledTree(1, (1, 1), ())

    def test_bad_color(self):
        with pytest.raises(ValueError):
            CornerLabeledTree(2, (1,))

    def test_root_color_must_be_one(self):
        with pytest.raises(ValueError):
            tree_to_bubble(CornerLabeledTree(3, (1,)))


class TestTreeToBubble:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_single_vertex_is_necklace(self, k):
        b = tree_to_bubble(CornerLabeledTree(1, (k,)))
        assert b == necklace(4, SPLIT, k)

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (2, 3)])
    def test_two_vertex_tree_is_edge_tree_bubble(self, k, l):
        b = tree_to_bubble(two_vertex_tree(k, l))
        assert gaussian_expectation(b) == gaussian_expectation(edge_tree_bubble(k, l))
        d = chain_decomposition(b, SPLIT)
        assert sorted(d.chain_lengths) == sorted([k, l])

    def test_three_vertex_path_unit_lengths(self):
        t = CornerLabeledTree(
            1,
            (0, 1),
            (CornerLabeledTree(3, (0, 1), (CornerLabeledTree(1, (1,)),)),),
        )
        b = tree_to_bubble(t)
        assert b.n == 3
        assert chain_decomposition(b, SPLIT).chain_lengths == (1, 1, 1)

    def test_all_outputs_validate_and_decompose(self):
        for t in enumerate_trees(3, 4):
            b = tree_to_bubble(t)
            assert validate(b).ok
            d = chain_decomposition(b, SPLIT)
            assert d is not None
            assert Counter(d.chain_lengths) == expected_chain_lengths(t)

    def test_vertex_spans_partition_the_whites(self):
        t = CornerLabeledTree(
            1, (1, 1), (CornerLabeledTree(3, (0, 2), (CornerLabeledTree(1, (1,)),)),)
        )
        spans = tree_vertex_spans(t)
        whites = sorted(w for _, (a, b) in spans for w in range(a, b + 1))
        assert whites == list(range(1, tree_to_bubble(t).n + 1))

    def test_bubbles_and_spans_of_4_5_pinned(self):
        # The labelling, not just the isomorphism class: every white of every
        # bubble of the 2053 trees of enumerate_trees(4, 5), and every span.
        rows = [
            [tree_to_bubble(t).to_json(), [span for _, span in tree_vertex_spans(t)]]
            for t in enumerate_trees(4, 5)
        ]
        assert len(rows) == 2053
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == "635a80d84fd5711cde5b6b4095b3ffaac329dc86fa5e65d3a8dbbb5692f95da2"

    @pytest.mark.parametrize("bounds", [(3, 6), (4, 5)])
    def test_glued_key_is_the_canonical_key(self, bounds):
        # The key taken from the glued lists, without the bubble, is the
        # bubble's canonical key: 93 classes among the 1134 trees of (3, 6).
        keys = set()
        for t in enumerate_trees(*bounds):
            key = glued_key(glue(t))
            assert key == canonical_key(tree_to_bubble(t))
            keys.add(key)
        assert len(keys) == {(3, 6): 93, (4, 5): 76}[bounds]


class TestCatalanProduct:
    def test_unit_lengths(self):
        assert catalan_product(two_vertex_tree(1, 1)) == 1

    def test_two_one(self):
        t = CornerLabeledTree(1, (1, 1), (CornerLabeledTree(1, (1,)),))
        assert catalan_product(t) == 2

    def test_fig3_vertex_contributes_cat9(self):
        children = tuple(
            CornerLabeledTree(c, (1,)) for c in (1, 3, 1, 3, 1)
        )
        t = CornerLabeledTree(1, (3, 2, 0, 1, 3, 0), children)
        assert catalan_product(t) == catalan(9)
        assert catalan(9) == 4862


class TestEnumeration:
    def test_single_vertex_bounds(self):
        trees = list(enumerate_trees(1, 2))
        assert [t.labels for t in trees] == [(1,), (2,)]

    def test_two_two(self):
        trees = list(enumerate_trees(2, 2))
        # hand count: (1,), (2,), and 2 label compositions x 2 colors at v=2
        assert len(trees) == 6
        assert len(set(trees)) == 6
        assert all(vertex_count(t) <= 2 and t.total_label <= 2 for t in trees)

    def test_no_duplicates_and_valid(self):
        trees = list(enumerate_trees(3, 4))
        assert len(trees) == len(set(trees))
        for t in trees:
            assert validate(tree_to_bubble(t)).ok

    def test_deterministic_order(self):
        assert list(enumerate_trees(3, 4)) == list(enumerate_trees(3, 4))

    def test_total_label_is_the_bubble_size(self):
        # `tree --enumerate` budgets n! per tree from total_label; the glued
        # bubble counts its n independently, one white per necklace slot.
        for t in enumerate_trees(4, 5):
            assert t.total_label == sum(v.k for v in t.vertices()) == len(glue(t)[0])

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_trees(0, 3))


class TestLeadingCoefficientLaw:
    @pytest.mark.parametrize("total", [2, 3, 4])
    def test_catalan_product_matches_oracle(self, total):
        for t in enumerate_trees(3, total):
            b = tree_to_bubble(t)
            _, coeff = gaussian_expectation(b).leading_term()
            assert coeff == catalan_product(t), t.to_json()


class TestSerialization:
    def test_round_trip(self, tmp_path):
        t = CornerLabeledTree(
            1, (1, 0), (CornerLabeledTree(3, (2,)),)
        )
        path = tmp_path / "tree.json"
        t.save(path)
        assert CornerLabeledTree.load(path) == t

    def test_json_shape(self):
        t = two_vertex_tree(1, 2)
        assert t.to_json() == {
            "color": 1,
            "labels": [0, 1],
            "children": [{"color": 1, "labels": [2], "children": []}],
        }
