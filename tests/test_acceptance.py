"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Each criterion is implemented as a function returning a canonical output
string; the determinism criterion reruns the others once (the Monte Carlo
criterion with the same seed) and requires byte-identical output.
"""
import functools
import json
import sys
import time

import pytest

from tensormoments.algebra import (
    LaurentPoly,
    Partition,
    Permutation,
    RationalFunc,
    catalan,
)
from tensormoments.bubbles import Bubble, ColorSplit, chain_decomposition, necklace
from tensormoments.effective import (
    effective_observable,
    laguerre_reconstruct,
    wishart_moment_exact,
)
from tensormoments.montecarlo import SampleSpec, estimate_expectation
from tensormoments.oracle import gaussian_expectation, per_color_dimensions
from tensormoments.weingarten import weingarten_exact, weingarten_table
from tensormoments.trees import CornerLabeledTree, catalan_product, enumerate_trees, tree_to_bubble

from conftest import (
    edge_tree_bubble,
    gram_times_class_function,
    substitute_power,
    top_sigmas,
    tree_vertex_spans,
    vertex_count,
)

SPLIT = ColorSplit(4, [2, 4])
N = LaurentPoly.monomial(1)
N2 = LaurentPoly.monomial(2)
MC_SEED = 2026


def criterion(num, name, limit_s):
    """Print one PASS/FAIL line per criterion and enforce its time budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({name}): FAIL", file=sys.__stderr__)
                raise
            elapsed = time.perf_counter() - start
            print(
                f"criterion {num:2d} ({name}): PASS [{elapsed:.2f}s]",
                file=sys.__stderr__,
            )
            assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s"
            return result

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# criterion bodies; each returns a canonical string used by the determinism
# check


def run_weingarten_n2():
    m2 = N * N
    pairs = [
        (Partition([1, 1]), RationalFunc(1, m2 - 1)),
        (Partition([2]), RationalFunc(-1, N * (m2 - 1))),
    ]
    lines = []
    for cls, expected in pairs:
        got = weingarten_exact(cls, N)
        assert got == expected, cls
        # specialization used by the angular integral: dimension N^2
        assert weingarten_exact(cls, N2) == substitute_power(expected, 2)
        lines.append(f"{cls.parts}: {got}")
    return "\n".join(lines)


def run_orthogonality():
    lines = []
    for n in (1, 2, 3, 4):
        for dim in (7, 11):
            product = gram_times_class_function(n, dim, weingarten_table(n, dim))
            for a, row in enumerate(product):
                for c, entry in enumerate(row):
                    assert entry == (1 if a == c else 0), (n, dim, a, c)
            lines.append(f"n={n} dim={dim}: identity")
    return "\n".join(lines)


def run_effective_coefficients():
    coeff = RationalFunc(N, N2 + 1)
    lines = []
    for k, l in [(1, 1), (2, 1), (2, 2), (3, 1)]:
        e = effective_observable(edge_tree_bubble(k, l), SPLIT)
        expected = {tuple(sorted((k, l), reverse=True)): coeff, (k + l,): coeff}
        assert e.terms == expected, (k, l)
        lines.append(f"({k},{l}): {e}")
    return "\n".join(lines)


def _five_chain_path():
    t = CornerLabeledTree(1, (1,))
    for color in (3, 1, 3, 1):
        t = CornerLabeledTree(color, (0, 1), (t,))
    return tree_to_bubble(t)


def consistency_suite():
    bubbles = [tree_to_bubble(t) for t in enumerate_trees(3, 4)]
    bubbles += [necklace(4, SPLIT, k) for k in (5, 6, 7)]
    bubbles += [edge_tree_bubble(3, 4), _five_chain_path()]
    return bubbles


def run_two_path_consistency():
    suite = consistency_suite()
    assert len(suite) >= 10
    lines = []
    for b in suite:
        assert b.n <= 7
        e = effective_observable(b, SPLIT)
        reconstructed = laguerre_reconstruct(e)
        oracle = gaussian_expectation(b)
        assert reconstructed == oracle, b.to_json()
        lines.append(f"n={b.n}: {oracle}")
    return "\n".join(lines)


def run_scaled_leading():
    lines = []
    for k in range(1, 5):
        for l in range(1, 5):
            if k + l > 5:
                continue
            b = edge_tree_bubble(k, l)
            lead = gaussian_expectation(b).shift(-2 * b.n).leading_term()
            assert lead == (3, catalan(k) * catalan(l)), (k, l, lead)
            lines.append(f"({k},{l}): leading {lead}")
    return "\n".join(lines)


def run_catalan_product_law():
    lines = []
    for t in enumerate_trees(3, 5):
        b = tree_to_bubble(t)
        _, coeff = gaussian_expectation(b).leading_term()
        assert coeff == catalan_product(t), t.to_json()
        lines.append(f"{json.dumps(t.to_json())}: {coeff}")
    return "\n".join(lines)


def run_wishart_leading():
    lines = []
    for l in range(1, 6):
        _, coeff = wishart_moment_exact((l,), N, N).leading_term()
        assert coeff == catalan(l), l
        lines.append(f"square l={l}: {coeff}")
    for l in range(1, 5):
        _, coeff = wishart_moment_exact((l,), N, LaurentPoly.monomial(3)).leading_term()
        assert coeff == 1, l
        lines.append(f"unbalanced l={l}: {coeff}")
    return "\n".join(lines)


def run_dominance():
    lines = []
    checked = 0
    for t in enumerate_trees(3, 4):
        if vertex_count(t) < 2:
            continue
        b = tree_to_bubble(t)
        decomp = chain_decomposition(b, SPLIT)
        if decomp.m > 4:
            continue
        leaf_chains = []
        for v, (first, last) in tree_vertex_spans(t):
            if v.children:
                continue
            whites = set(range(first, last + 1))
            matches = [
                j for j, ch in enumerate(decomp.chains, start=1) if set(ch) == whites
            ]
            assert len(matches) == 1, (t.to_json(), v.labels)
            leaf_chains.append(matches[0])
        assert leaf_chains, t.to_json()
        best, sigmas = top_sigmas(decomp, SPLIT)
        for sigma in sigmas:
            for j in leaf_chains:
                assert sigma(j) == j, (t.to_json(), j)
        checked += 1
        lines.append(f"{json.dumps(t.to_json())}: max {best} leaf chains {leaf_chains}")
    assert checked >= 100
    return "\n".join(lines)


def mc_suite():
    path3 = tree_to_bubble(
        CornerLabeledTree(
            1, (0, 1), (CornerLabeledTree(3, (0, 1), (CornerLabeledTree(1, (1,)),)),)
        )
    )
    return [
        Bubble(4, 1, (Permutation.identity(1),) * 4),
        necklace(4, SPLIT, 2),
        edge_tree_bubble(1, 1),
        path3,
        necklace(4, SPLIT, 3),
    ]


def run_monte_carlo(seed=MC_SEED):
    lines = []
    for i, b in enumerate(mc_suite()):
        for dim in (2, 3):
            spec = SampleSpec(N=dim, samples=100_000, seed=seed + i)
            est = estimate_expectation(b, spec)
            exact = float(per_color_dimensions(b, (dim,) * 4))
            assert abs(est.mean - exact) <= 5 * est.stderr, (i, dim, est, exact)
            lines.append(f"bubble{i} N={dim}: {json.dumps(est.to_json())}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the tests

CRITERIA = [
    (1, "Weingarten n=2 exact", 1.0, run_weingarten_n2),
    (2, "Gram x Wg orthogonality", 10.0, run_orthogonality),
    (3, "effective observable coefficients", 5.0, run_effective_coefficients),
    (4, "two-path consistency", 60.0, run_two_path_consistency),
    (5, "scaled leading term", 10.0, run_scaled_leading),
    (6, "Catalan-product law", 120.0, run_catalan_product_law),
    (7, "Wishart leading coefficients", 10.0, run_wishart_leading),
    (8, "dominance fixes leaf chains", 10.0, run_dominance),
]

_first_outputs = {}


@pytest.mark.parametrize(
    "num,name,limit,fn",
    CRITERIA,
    ids=[f"criterion_{n}" for n, _, _, _ in CRITERIA],
)
def test_criteria_1_to_8(num, name, limit, fn):
    wrapped = criterion(num, name, limit)(fn)
    _first_outputs[num] = wrapped()


def test_criterion_9_monte_carlo():
    wrapped = criterion(9, "Monte Carlo concordance", 120.0)(run_monte_carlo)
    _first_outputs[9] = wrapped(seed=MC_SEED)


def test_criterion_10_determinism():
    @criterion(10, "determinism", 600.0)
    def run():
        for num, _, _, fn in CRITERIA:
            baseline = _first_outputs.get(num) or fn()
            assert fn() == baseline, num
        mc_baseline = _first_outputs.get(9) or run_monte_carlo(seed=MC_SEED)
        assert run_monte_carlo(seed=MC_SEED) == mc_baseline
        return "byte-identical"

    run()
