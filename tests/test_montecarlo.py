"""Monte Carlo sampling: reproducibility, invariances, statistical accuracy."""
import math
import sys
import time

import numpy as np
import pytest

from tensormoments import montecarlo
from tensormoments.algebra import Permutation
from tensormoments.bubbles import Bubble, ColorSplit, necklace
from tensormoments.montecarlo import (
    DEFAULT_CHUNK,
    INTERMEDIATE_MAX,
    Estimate,
    SampleSpec,
    _plan,
    estimate_expectation,
    sample_batch,
)
from tensormoments.oracle import per_color_dimensions

from conftest import edge_tree_bubble

SPLIT = ColorSplit(4, [2, 4])
# A connected d = 4, n = 14 bubble: colour 1 the identity, the others drawn
# at random once and written out.
RANDOM_N14 = (
    tuple(range(1, 15)),
    (13, 14, 8, 1, 7, 3, 6, 5, 4, 9, 11, 12, 10, 2),
    (4, 1, 10, 13, 6, 3, 9, 14, 2, 12, 7, 11, 8, 5),
    (2, 4, 10, 13, 7, 8, 6, 1, 14, 5, 12, 11, 9, 3),
)
# The d = 4, n = 8 bubble on which numpy's greedy plan cost 4.5e11 FLOPs per
# 512-sample chunk at N = 2.
GREEDY_CLIFF_N8 = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (7, 4, 2, 1, 8, 3, 6, 5),
    (5, 7, 6, 4, 3, 8, 2, 1),
    (7, 3, 4, 6, 1, 8, 5, 2),
)

# A d = 4, n = 8 bubble drawn at random once and written out; its plan
# reuses two pair products.
RANDOM_N8 = (
    (6, 4, 5, 2, 3, 7, 8, 1),
    (6, 4, 3, 1, 7, 2, 8, 5),
    (1, 2, 8, 3, 5, 4, 6, 7),
    (6, 8, 2, 4, 3, 7, 1, 5),
)

# A d = 4, n = 5 bubble drawn at random once and written out.
RANDOM_N5 = (
    (1, 2, 3, 4, 5),
    (1, 2, 4, 3, 5),
    (3, 4, 2, 1, 5),
    (3, 4, 5, 2, 1),
)


def from_images(rows):
    return Bubble(len(rows), len(rows[0]), tuple(Permutation(list(r)) for r in rows))


def dipole(d=4):
    return Bubble(d, 1, tuple(Permutation.identity(1) for _ in range(d)))


class TestSampling:
    def test_same_seed_same_tensors(self):
        spec = SampleSpec(N=3, samples=10, seed=7)
        a = sample_batch(spec, 4, 0, 4)
        b = sample_batch(spec, 4, 0, 4)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample_batch(SampleSpec(N=3, samples=2, seed=1), 4, 0, 1)
        b = sample_batch(SampleSpec(N=3, samples=2, seed=2), 4, 0, 1)
        assert not np.array_equal(a, b)

    def test_chunks_are_independent_streams(self):
        spec = SampleSpec(N=2, samples=10, seed=0)
        assert not np.array_equal(sample_batch(spec, 4, 0, 2), sample_batch(spec, 4, 1, 2))

    def test_entry_variance(self):
        spec = SampleSpec(N=4, samples=2, seed=11, variance=2.0)
        batch = sample_batch(spec, 4, 0, 2000)
        var = float(np.mean(np.abs(batch) ** 2))
        assert abs(var - 2.0) < 0.05

    def test_batch_is_scaled_real_then_imaginary_draws(self):
        # Reference: the two draws combined as complex temporaries.  The last
        # input's 33 * 8**4 draws per part cross two of sample_batch's buffers.
        assert 2 * montecarlo._DRAWS < 33 * 8**4 < 3 * montecarlo._DRAWS
        cases = [(2, 4, 0.3, 7), (3, 3, 1.0, 7), (6, 4, 2.5, 7), (8, 4, 0.7, 33)]
        for N, d, variance, count in cases:
            spec = SampleSpec(N=N, samples=2, seed=19, variance=variance)
            rng = montecarlo._rng(spec.seed, 5)
            shape = (count,) + (N,) * d
            re, im = rng.standard_normal(shape), rng.standard_normal(shape)
            expected = np.sqrt(variance / 2) * (re + 1j * im)
            assert sample_batch(spec, d, 5, count).tobytes() == expected.tobytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(N=0, samples=10, seed=0)
        with pytest.raises(ValueError):
            SampleSpec(N=2, samples=1, seed=0)
        with pytest.raises(ValueError):
            SampleSpec(N=2, samples=10, seed=0, variance=0.0)
        for variance in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SampleSpec(N=2, samples=10, seed=0, variance=variance)


def rank_one(N, seed):
    """T = u1 x u2 x u3 x u4 and prod_c |u_c|^2: each colour-c edge contracts
    u_c with its conjugate, so a bubble on T is that product to the power n."""
    rng = np.random.default_rng(seed)
    us = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(4)]
    return np.einsum("i,j,k,l->ijkl", *us), np.prod([np.linalg.norm(u) ** 2 for u in us])


def evaluate_bubble(b, tensor):
    """The bubble on one tensor, by the plan and contraction estimate_expectation runs."""
    steps, _, _ = _plan(b, tensor.shape[0], 1)
    return complex(montecarlo._contract(tensor[None], b.n, steps)[0])


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
        # Reference: numpy's own full einsum, planned by its optimal search.
        rng = np.random.default_rng(17)
        t = rng.standard_normal((3,) * 4) + 1j * rng.standard_normal((3,) * 4)
        for b in [edge_tree_bubble(2, 2), necklace(4, SPLIT, 2), necklace(4, SPLIT, 3)]:
            args = []
            for i in range(1, b.n + 1):
                args += [t, [b.n * (c - 1) + b.tau(c)(i) - 1 for c in range(1, 5)]]
            for j in range(1, b.n + 1):
                args += [t.conj(), [b.n * (c - 1) + j - 1 for c in range(1, 5)]]
            optimal = np.einsum(*args, [], optimize="optimal")
            assert evaluate_bubble(b, t) == pytest.approx(complex(optimal), rel=1e-9)

    @pytest.mark.parametrize(
        "b",
        [
            necklace(4, SPLIT, 13),
            necklace(4, SPLIT, 16),
            from_images(RANDOM_N14),
        ],
        ids=["necklace13", "necklace16", "random14"],
    )
    def test_rank_one_tensor_past_numpy_einsum_labels(self, b):
        # d*n + 1 > 52.
        t, norm2 = rank_one(2, 23)
        assert evaluate_bubble(b, t) == pytest.approx(norm2**b.n, rel=1e-10)

    def test_one_tensor_budgeted_as_one_sample(self):
        # One 20^4 tensor is 1.6e5 elements; a 512-sample chunk of them
        # would be 8.2e7, over INTERMEDIATE_MAX.
        b = necklace(4, SPLIT, 2)
        t, norm2 = rank_one(20, 29)
        assert evaluate_bubble(b, t) == pytest.approx(norm2**b.n, rel=1e-10)


class TestEstimate:
    def test_deterministic_for_fixed_seed(self):
        b = edge_tree_bubble(1, 1)
        spec = SampleSpec(N=2, samples=2000, seed=42)
        e1 = estimate_expectation(b, spec)
        e2 = estimate_expectation(b, spec)
        assert e1 == e2

    def test_chunk_size_does_not_change_result(self):
        b = dipole()
        spec = SampleSpec(N=2, samples=1536, seed=3)
        a = estimate_expectation(b, spec)
        c = estimate_expectation(b, spec)
        assert a == c

    def test_dipole_matches_exact(self):
        spec = SampleSpec(N=3, samples=40_000, seed=1)
        est = estimate_expectation(dipole(), spec)
        exact = float(per_color_dimensions(dipole(), (3,) * 4))
        assert abs(est.mean - exact) <= 5 * est.stderr
        assert est.max_rel_imag < 1e-12

    def test_variance_scaling(self):
        spec = SampleSpec(N=2, samples=40_000, seed=8, variance=2.0)
        est = estimate_expectation(dipole(), spec)
        exact = 2.0 * float(per_color_dimensions(dipole(), (2,) * 4))
        assert abs(est.mean - exact) <= 5 * est.stderr

    def test_edge_tree_matches_exact(self):
        b = edge_tree_bubble(1, 1)
        spec = SampleSpec(N=2, samples=60_000, seed=5)
        est = estimate_expectation(b, spec)
        exact = float(per_color_dimensions(b, (2,) * 4))
        assert abs(est.mean - exact) <= 5 * est.stderr

    def test_json_fields(self):
        e = Estimate(mean=1.0, stderr=0.1, samples=100, seed=9)
        assert e.to_json() == {
            "mean": 1.0, "stderr": 0.1, "samples": 100, "seed": 9, "max_rel_imag": 0.0
        }

    def test_merged_statistics_match_two_pass(self):
        # 1300 draws: two full chunks and a partial one of 276.
        b = edge_tree_bubble(1, 1)
        spec = SampleSpec(N=2, samples=1300, seed=21)
        est = estimate_expectation(b, spec)
        sizes = [DEFAULT_CHUNK, DEFAULT_CHUNK, spec.samples - 2 * DEFAULT_CHUNK]
        values = np.array(
            [
                evaluate_bubble(b, t).real
                for index, size in enumerate(sizes)
                for t in sample_batch(spec, b.d, index, size)
            ]
        )
        n = len(values)
        assert est.samples == n
        assert est.mean == pytest.approx(np.mean(values), rel=1e-12)
        assert est.stderr == pytest.approx(np.std(values, ddof=1) / np.sqrt(n), rel=1e-12)


def serial_estimate(b, spec):
    """Reference: draw each chunk, contract it whole, merge in index order."""
    steps, _, _ = _plan(b, spec.N, DEFAULT_CHUNK)
    mean, m2, max_rel_imag = 0.0, 0.0, 0.0
    for index, done in enumerate(range(0, spec.samples, DEFAULT_CHUNK)):
        take = min(DEFAULT_CHUNK, spec.samples - done)
        values = montecarlo._contract(sample_batch(spec, b.d, index, take), b.n, steps)
        scale = np.abs(values)
        rel = np.divide(np.abs(values.imag), scale, out=np.zeros(take), where=scale > 0)
        max_rel_imag = max(max_rel_imag, float(np.max(rel)))
        re = values.real
        chunk_mean = float(np.mean(re))
        delta = chunk_mean - mean
        mean += delta * take / (done + take)
        m2 += float(np.sum((re - chunk_mean) ** 2)) + delta * delta * done * take / (done + take)
    n = spec.samples
    return Estimate(mean, math.sqrt(m2 / (n - 1) / n), n, spec.seed, max_rel_imag)


@pytest.mark.parametrize("samples", [2, 513, 1000, 1536])
@pytest.mark.parametrize(
    "b, N",
    [
        (necklace(4, SPLIT, 3), 3),
        (edge_tree_bubble(1, 1), 3),
        (from_images(RANDOM_N5), 3),
        (Bubble(4, 0, (Permutation.identity(0),) * 4), 2),
    ],
    ids=["necklace3", "edge_tree", "random_n5", "empty"],
)
def test_estimate_is_bitwise_the_serial_reference(b, N, samples):
    # 513 draws leave one in the last chunk, so one of its halves is empty.
    spec = SampleSpec(N=N, samples=samples, seed=37)
    est, ref = estimate_expectation(b, spec), serial_estimate(b, spec)
    for field in ("mean", "stderr", "samples", "seed", "max_rel_imag"):
        assert getattr(est, field) == getattr(ref, field), field


def test_sampler_thread_under_frequent_switches():
    # Each batch is handed over from the sampler thread through a shared dict;
    # switching threads every microsecond makes a lost or misordered hand-over
    # show as a changed estimate.
    b = edge_tree_bubble(1, 1)
    spec = SampleSpec(N=2, samples=8 * DEFAULT_CHUNK + 3, seed=41)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = estimate_expectation(b, spec)
    finally:
        sys.setswitchinterval(interval)
    assert est == serial_estimate(b, spec)


class TestPlan:
    def test_greedy_cliff_bubble_in_seconds(self):
        b = from_images(GREEDY_CLIFF_N8)
        spec = SampleSpec(N=2, samples=2000, seed=0)
        start = time.perf_counter()
        est = estimate_expectation(b, spec)
        assert time.perf_counter() - start < 5.0
        exact = float(per_color_dimensions(b, (2,) * 4))
        assert abs(est.mean - exact) <= 5 * est.stderr

    def test_plan_counts_flops_like_numpy(self):
        # The plan's FLOPs per chunk are np.einsum_path's count of each
        # computed step; a reused product costs none.
        b = necklace(4, SPLIT, 3)
        steps, flops, largest = _plan(b, 3, DEFAULT_CHUNK)
        counted = []
        for _, _, (sub_a, sub_b, sub_out), same in steps:
            if same is not None:
                continue
            a = np.empty((DEFAULT_CHUNK,) + (3,) * (len(sub_a) - 1))
            c = np.empty((DEFAULT_CHUNK,) + (3,) * (len(sub_b) - 1))
            _, report = np.einsum_path(
                a, sub_a, c, sub_b, sub_out, optimize=["einsum_path", (0, 1)]
            )
            counted.append(float(report.split("Optimized FLOP count:")[1].split()[0]))
        assert flops == pytest.approx(sum(counted), rel=1e-3)
        assert largest == DEFAULT_CHUNK * 3**4

    def test_necklace_computes_three_of_five_steps(self):
        # T·T̄ is the first product and the next two: 9.7e7 FLOPs per chunk
        # at N = 6, where computing every step costs 1.9e8.
        steps, flops, _ = _plan(necklace(4, SPLIT, 3), 6, DEFAULT_CHUNK)
        assert len(steps) == 5
        assert sum(same is not None for *_, same in steps) == 2
        assert flops == pytest.approx(9.69e7, rel=1e-3)

    @pytest.mark.parametrize(
        "b, N",
        [
            (necklace(4, SPLIT, 3), 3),
            (edge_tree_bubble(1, 1), 3),
            (from_images(GREEDY_CLIFF_N8), 2),
            (from_images(RANDOM_N8), 2),
        ],
        ids=["necklace3", "edge_tree", "greedy_cliff_n8", "random_n8"],
    )
    def test_reuse_is_bitwise_equal_to_computing_every_step(self, b, N):
        spec = SampleSpec(N=N, samples=2, seed=31)
        batch = sample_batch(spec, b.d, 0, 64)
        steps, _, _ = _plan(b, N, len(batch))
        assert any(same is not None for *_, same in steps)
        operands = [batch] * b.n + [np.conj(batch)] * b.n
        for i, j, (sub_a, sub_b, sub_out), _ in steps:
            product = np.einsum(
                operands[i], sub_a, operands[j], sub_b, sub_out, optimize=["einsum_path", (0, 1)]
            )
            del operands[j], operands[i]
            operands.append(product)
        assert montecarlo._contract(batch, b.n, steps).tobytes() == operands[0].tobytes()

    def test_over_memory_budget_refused_before_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the plan was checked")

        monkeypatch.setattr(montecarlo, "sample_batch", refuse)
        # The dipole's only intermediate is one value per sample, so the
        # sampled batch alone decides: it fills the budget at N = 16.
        N = round((INTERMEDIATE_MAX / DEFAULT_CHUNK) ** 0.25)
        assert _plan(dipole(), N, DEFAULT_CHUNK)[2] == INTERMEDIATE_MAX
        with pytest.raises(ValueError, match="INTERMEDIATE_MAX"):
            estimate_expectation(dipole(), SampleSpec(N=N + 1, samples=10, seed=0))
