"""Monte Carlo sampling: reproducibility, invariances, statistical accuracy."""
import numpy as np
import pytest

from tensormoments.algebra import Permutation
from tensormoments.bubbles import Bubble, ColorSplit, necklace
from tensormoments.montecarlo import (
    DEFAULT_CHUNK,
    Estimate,
    SampleSpec,
    estimate_expectation,
    evaluate_bubble,
    sample_batch,
    sample_tensor,
)
from tensormoments.oracle import per_color_dimensions

from conftest import edge_tree_bubble

SPLIT = ColorSplit(4, [2, 4])


def dipole(d=4):
    return Bubble(d, 1, tuple(Permutation.identity(1) for _ in range(d)))


class TestSampling:
    def test_same_seed_same_tensors(self):
        spec = SampleSpec(N=3, d=4, samples=10, seed=7)
        a = sample_batch(spec, 0, 4)
        b = sample_batch(spec, 0, 4)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_tensor(SampleSpec(N=3, d=4, samples=2, seed=1))
        b = sample_tensor(SampleSpec(N=3, d=4, samples=2, seed=2))
        assert not np.array_equal(a, b)

    def test_chunks_are_independent_streams(self):
        spec = SampleSpec(N=2, d=4, samples=10, seed=0)
        assert not np.array_equal(sample_batch(spec, 0, 2), sample_batch(spec, 1, 2))

    def test_entry_variance(self):
        spec = SampleSpec(N=4, d=4, samples=2, seed=11, variance=2.0)
        batch = sample_batch(spec, 0, 2000)
        var = float(np.mean(np.abs(batch) ** 2))
        assert abs(var - 2.0) < 0.05

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(N=0, d=4, samples=10, seed=0)
        with pytest.raises(ValueError):
            SampleSpec(N=2, d=4, samples=1, seed=0)
        with pytest.raises(ValueError):
            SampleSpec(N=2, d=4, samples=10, seed=0, variance=0.0)
        for variance in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SampleSpec(N=2, d=4, samples=10, seed=0, variance=variance)


class TestEvaluateBubble:
    def test_rank_one_tensor_gives_one(self):
        # T = e1 x e1 x e1 x e1: every contraction evaluates to 1
        t = np.zeros((2, 2, 2, 2), dtype=complex)
        t[0, 0, 0, 0] = 1.0
        for b in [dipole(), edge_tree_bubble(1, 1), necklace(4, SPLIT, 3)]:
            assert evaluate_bubble(b, t) == pytest.approx(1.0)

    def test_value_is_real_nonnegative(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3,) * 4) + 1j * rng.standard_normal((3,) * 4)
        for b in [dipole(), necklace(4, SPLIT, 2), edge_tree_bubble(2, 1)]:
            v = evaluate_bubble(b, t)
            assert abs(v.imag) < 1e-9 * max(abs(v), 1.0)
            assert v.real > 0

    def test_phase_invariance(self):
        rng = np.random.default_rng(9)
        t = rng.standard_normal((3,) * 4) + 1j * rng.standard_normal((3,) * 4)
        b = edge_tree_bubble(1, 1)
        base = evaluate_bubble(b, t)
        rotated = evaluate_bubble(b, np.exp(0.7j) * t)
        assert rotated == pytest.approx(base, rel=1e-10)

    def test_unitary_invariance_per_color(self):
        rng = np.random.default_rng(13)
        n = 3
        t = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
        b = edge_tree_bubble(2, 1)
        base = evaluate_bubble(b, t)
        for axis in range(4):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u, _ = np.linalg.qr(g)
            rotated = np.moveaxis(
                np.tensordot(t, u, axes=([axis], [0])), -1, axis
            )
            assert evaluate_bubble(b, rotated) == pytest.approx(base, rel=1e-8)

    def test_contraction_order_irrelevant(self):
        rng = np.random.default_rng(17)
        t = rng.standard_normal((3,) * 4) + 1j * rng.standard_normal((3,) * 4)
        b = edge_tree_bubble(2, 2)
        greedy = evaluate_bubble(b, t, optimize="greedy")
        optimal = evaluate_bubble(b, t, optimize="optimal")
        assert greedy == pytest.approx(optimal, rel=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_bubble(dipole(), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            evaluate_bubble(dipole(), np.zeros((2, 2, 2, 3)))


class TestEstimate:
    def test_deterministic_for_fixed_seed(self):
        b = edge_tree_bubble(1, 1)
        spec = SampleSpec(N=2, d=4, samples=2000, seed=42)
        e1 = estimate_expectation(b, spec)
        e2 = estimate_expectation(b, spec)
        assert e1 == e2

    def test_chunk_size_does_not_change_result(self):
        b = dipole()
        spec = SampleSpec(N=2, d=4, samples=1536, seed=3)
        a = estimate_expectation(b, spec)
        c = estimate_expectation(b, spec)
        assert a == c

    def test_dipole_matches_exact(self):
        spec = SampleSpec(N=3, d=4, samples=40_000, seed=1)
        est = estimate_expectation(dipole(), spec)
        exact = float(per_color_dimensions(dipole(), (3,) * 4))
        assert abs(est.mean - exact) <= 5 * est.stderr
        assert est.max_rel_imag < 1e-12

    def test_variance_scaling(self):
        spec = SampleSpec(N=2, d=4, samples=40_000, seed=8, variance=2.0)
        est = estimate_expectation(dipole(), spec)
        exact = 2.0 * float(per_color_dimensions(dipole(), (2,) * 4))
        assert abs(est.mean - exact) <= 5 * est.stderr

    def test_edge_tree_matches_exact(self):
        b = edge_tree_bubble(1, 1)
        spec = SampleSpec(N=2, d=4, samples=60_000, seed=5)
        est = estimate_expectation(b, spec)
        exact = float(per_color_dimensions(b, (2,) * 4))
        assert abs(est.mean - exact) <= 5 * est.stderr

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            estimate_expectation(dipole(3), SampleSpec(N=2, d=4, samples=10, seed=0))

    def test_json_fields(self):
        e = Estimate(mean=1.0, stderr=0.1, samples=100, seed=9)
        assert e.to_json() == {
            "mean": 1.0, "stderr": 0.1, "samples": 100, "seed": 9, "max_rel_imag": 0.0
        }

    def test_merged_statistics_match_two_pass(self):
        # 1300 draws: two full chunks and a partial one of 276.
        b = edge_tree_bubble(1, 1)
        spec = SampleSpec(N=2, d=4, samples=1300, seed=21)
        est = estimate_expectation(b, spec)
        sizes = [DEFAULT_CHUNK, DEFAULT_CHUNK, spec.samples - 2 * DEFAULT_CHUNK]
        values = np.array(
            [
                evaluate_bubble(b, t).real
                for index, size in enumerate(sizes)
                for t in sample_batch(spec, index, size)
            ]
        )
        n = len(values)
        assert est.samples == n
        assert est.mean == pytest.approx(np.mean(values), rel=1e-12)
        assert est.stderr == pytest.approx(np.std(values, ddof=1) / np.sqrt(n), rel=1e-12)
