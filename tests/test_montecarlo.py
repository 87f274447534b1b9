"""Monte Carlo sampling: reproducibility, invariances, statistical accuracy."""
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tensormoments import montecarlo
from tensormoments.algebra import Permutation, Refused
from tensormoments.bubbles import Bubble, ColorSplit, necklace
from tensormoments.montecarlo import (
    DEFAULT_CHUNK,
    AXES_MAX,
    INTERMEDIATE_MAX,
    PIECE_ELEMENTS,
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

    def test_batch_is_scaled_interleaved_draws(self):
        # Reference: one draw of every real and imaginary part, entry after
        # entry (re, im, re, im, ...), scaled and read as complex.
        cases = [(2, 4, 0.3, 7), (3, 3, 1.0, 7), (6, 4, 2.5, 7), (8, 4, 0.7, 33)]
        for N, d, variance, count in cases:
            spec = SampleSpec(N=N, samples=2, seed=19, variance=variance)
            rng = montecarlo._rng(spec.seed, 5)
            draws = rng.standard_normal(2 * count * N**d)
            expected = (np.sqrt(variance / 2) * draws).view(complex)
            assert sample_batch(spec, d, 5, count).tobytes() == expected.tobytes()

    def test_seeds_past_64_bits_draw_their_own_streams(self):
        # The whole seed keys the stream, not the seed modulo 2**64.
        for seed in (0, 7):
            a = sample_batch(SampleSpec(N=2, samples=2, seed=seed), 4, 0, 3)
            b = sample_batch(SampleSpec(N=2, samples=2, seed=seed + 2**64), 4, 0, 3)
            assert not np.array_equal(a, b), seed

    def test_draws_into_a_used_buffer_equal_a_fresh_batch(self):
        # A full chunk and a short last one, each drawn in one piece into a
        # buffer that holds an earlier chunk, as a worker reuses its piece
        # buffer.
        spec = SampleSpec(N=2, samples=1300, seed=3)
        buffer = sample_batch(spec, 4, 0, DEFAULT_CHUNK)
        for index, count in [(2, DEFAULT_CHUNK), (3, 276)]:
            (drawn,) = montecarlo._draw_pieces(spec, 4, index, count, buffer)
            assert np.shares_memory(drawn, buffer)
            assert drawn.tobytes() == sample_batch(spec, 4, index, count).tobytes()

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


def arena(b, N, steps, batch):
    """A worker's arena for the plan ``steps`` of ``b`` at N and pieces of
    ``batch`` samples."""
    moves, length = montecarlo._layout(b.n, N, steps)
    return moves, np.empty(batch * length, complex)


def evaluate_bubble(b, tensor):
    """The bubble on one tensor, by the plan and contraction estimate_expectation runs."""
    steps, _, _ = _plan(b, tensor.shape[0], 1)
    work = arena(b, tensor.shape[0], steps, 1)
    return complex(montecarlo._contract(tensor[None], b.n, steps, work)[0])


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
        values = montecarlo._contract(
            sample_batch(spec, b.d, index, take), b.n, steps, arena(b, spec.N, steps, take)
        )
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


@pytest.mark.parametrize("samples", [2, 513, 1000, 1100, 1536])
@pytest.mark.parametrize(
    "b, N",
    [
        (necklace(4, SPLIT, 3), 3),
        (edge_tree_bubble(1, 1), 3),
        (from_images(RANDOM_N5), 3),
        (Bubble(4, 0, (Permutation.identity(0),) * 4), 2),
        (necklace(4, SPLIT, 3), 6),
    ],
    ids=["necklace3", "edge_tree", "random_n5", "empty", "necklace3_N6"],
)
def test_estimate_is_bitwise_the_serial_reference(b, N, samples):
    # 513 draws leave one in the last chunk, and 1100 a short chunk of 76.
    # The 3-necklace at N = 6 is contracted in pieces of 50 samples, so the
    # last piece of a chunk is short too.
    spec = SampleSpec(N=N, samples=samples, seed=37)
    est, ref = estimate_expectation(b, spec), serial_estimate(b, spec)
    for field in ("mean", "stderr", "samples", "seed", "max_rel_imag"):
        assert getattr(est, field) == getattr(ref, field), field


def test_sampler_thread_under_frequent_switches():
    # The two workers, the calling thread and one thread, each write their
    # chunks' reductions into one shared list, merged in index order after
    # the join; switching threads every microsecond makes a lost, misplaced
    # or unfinished chunk show as a changed estimate.
    b = edge_tree_bubble(1, 1)
    spec = SampleSpec(N=2, samples=8 * DEFAULT_CHUNK + 3, seed=41)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = estimate_expectation(b, spec)
    finally:
        sys.setswitchinterval(interval)
    assert est == serial_estimate(b, spec)


@pytest.mark.parametrize("failing", ["chunk_1", "every_chunk_after_0"])
def test_fault_stops_both_workers(failing, monkeypatch):
    # Chunk 1 is the other worker's first chunk.  Its fault stops the calling
    # thread's worker before its next chunk, so of 200 chunks only a few are
    # drawn, and the fault of the lowest-indexed failed chunk is raised.
    drawn = []
    draw_pieces = montecarlo._draw_pieces

    def fault(spec, d, index, count, out):
        drawn.append(index)
        if index == 1 or (failing == "every_chunk_after_0" and index > 1):
            raise ValueError(f"injected fault at chunk {index}")
        return draw_pieces(spec, d, index, count, out)

    monkeypatch.setattr(montecarlo, "_draw_pieces", fault)
    threads = threading.active_count()
    spec = SampleSpec(N=3, samples=200 * DEFAULT_CHUNK, seed=5)
    with pytest.raises(ValueError, match="injected fault at chunk 1$"):
        estimate_expectation(necklace(4, SPLIT, 3), spec)
    assert threading.active_count() == threads
    assert len(drawn) <= 8


@pytest.mark.parametrize("N", [1, 2, 3, 6])
def test_pieces_change_no_bits(N):
    # A worker contracts each chunk in pieces: every step is per sample, so
    # pieces of any size give the bits of the whole chunk.
    rng = random.Random(f"pieces:{N}")
    bubbles = [necklace(4, SPLIT, 3)] + [
        from_images([list(range(1, n + 1))] + [rng.sample(range(1, n + 1), n) for _ in range(3)])
        for n in (1, 2, 3, 4)
    ]
    for b in bubbles:
        steps, _, largest = _plan(b, N, DEFAULT_CHUNK)
        computed = max(1, min(DEFAULT_CHUNK, PIECE_ELEMENTS // (largest // DEFAULT_CHUNK)))
        x = sample_batch(SampleSpec(N=N, samples=2, seed=43), b.d, 0, DEFAULT_CHUNK)
        whole = montecarlo._contract(x, b.n, steps, arena(b, N, steps, len(x))).tobytes()
        for piece in sorted({1, 7, computed}):
            parts = [slice(start, start + piece) for start in range(0, len(x), piece)]
            work = arena(b, N, steps, piece)
            values = np.concatenate(
                [montecarlo._contract(x[part], b.n, steps, work) for part in parts]
            )
            assert values.tobytes() == whole, (b.n, piece)


@pytest.mark.parametrize("N", [2, 3, 6])
def test_drawn_pieces_are_the_batch_bitwise(N):
    # A worker draws each piece of a chunk straight into its piece buffer.
    # The pieces of a full chunk and of a short last one (276 samples),
    # concatenated, are sample_batch's batch byte for byte.
    b = necklace(4, SPLIT, 3)
    _, _, largest = _plan(b, N, DEFAULT_CHUNK)
    computed = max(1, min(DEFAULT_CHUNK, PIECE_ELEMENTS // (largest // DEFAULT_CHUNK)))
    if N == 6:
        assert computed == 50
    spec = SampleSpec(N=N, samples=2 * DEFAULT_CHUNK + 276, seed=29, variance=0.6)
    for index, count in [(0, DEFAULT_CHUNK), (2, 276)]:
        whole = sample_batch(spec, b.d, index, count).tobytes()
        for piece in sorted({1, 7, computed}):
            out = np.empty((piece,) + (N,) * b.d, complex)
            drawn = montecarlo._draw_pieces(spec, b.d, index, count, out)
            assert np.concatenate([batch.copy() for batch in drawn]).tobytes() == whole, piece


def test_workers_hold_one_piece():
    # Each worker draws each piece straight into its piece buffer, so it
    # holds one piece, that piece's intermediates and a chunk's values: the
    # two together read 0.43 to 0.48 of a complex chunk on this plan.
    N = 7
    chunk_bytes = 16 * DEFAULT_CHUNK * N**4
    spec = SampleSpec(N=N, samples=2 * DEFAULT_CHUNK, seed=47)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        estimate_expectation(necklace(4, SPLIT, 3), spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 0.75 * chunk_bytes, peak / chunk_bytes


def einsum_steps(b, steps):
    """Each step of a plan as (i, j, the labels of terms i and j and of their
    product, same), replayed from ``montecarlo._labels``: a pair sums the
    labels it shares, and the product's are the sample, then j's own, then
    i's own, the order numpy's batched matmul produces."""
    terms = montecarlo._labels(b)
    for i, j, *_, same in steps:
        a, c = terms[i], terms[j]
        out = [0] + [x for x in c if x not in a] + [x for x in a if x not in c]
        del terms[j], terms[i]
        terms.append(out)
        yield i, j, (list(a), list(c), out), same


def assert_bitwise_einsum(b, N, batch, steps):
    """``_contract`` gives the bits of one two-operand ``np.einsum`` per step,
    every step computed, reused ones included."""
    x = sample_batch(SampleSpec(N=N, samples=2, seed=31), b.d, 0, batch)
    operands = [x] * b.n + [np.conj(x)] * b.n
    for i, j, (sub_a, sub_b, sub_out), _ in einsum_steps(b, steps):
        product = np.einsum(
            operands[i], sub_a, operands[j], sub_b, sub_out, optimize=["einsum_path", (0, 1)]
        )
        del operands[j], operands[i]
        operands.append(product)
    values = montecarlo._contract(x, b.n, steps, arena(b, N, steps, batch))
    assert values.tobytes() == operands[0].tobytes()


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
        for _, _, (sub_a, sub_b, sub_out), same in einsum_steps(b, steps):
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
        "b, N, batch",
        [
            pytest.param(b, dim, batch, id=name + suffix)
            for name, b, N in [
                ("necklace3", necklace(4, SPLIT, 3), 3),
                ("edge_tree", edge_tree_bubble(1, 1), 3),
                ("greedy_cliff_n8", from_images(GREEDY_CLIFF_N8), 2),
                ("random_n8", from_images(RANDOM_N8), 2),
            ]
            for dim, batch, suffix in [
                (N, 64, ""), (N, 1, "-batch1"), (N, 3, "-batch3"),
                (1, 1, "-N1-batch1"), (1, 3, "-N1-batch3"), (1, 64, "-N1-batch64"),
            ]
        ],
    )
    def test_reuse_is_bitwise_equal_to_computing_every_step(self, b, N, batch):
        steps = _plan(b, N, batch)[0]
        assert any(same is not None for *_, same in steps)
        assert_bitwise_einsum(b, N, batch, steps)

    @pytest.mark.parametrize("batch", [1, 3, 17])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_random_plans_are_bitwise_equal_to_einsum(self, N, batch):
        # At N = 1 every step is a broadcast multiply, whose bits a matmul does
        # not reproduce; at batch 1 numpy drops the sample axis as a singleton.
        rng = random.Random(f"bitwise:{N}:{batch}")
        for n in range(1, 8):
            rows = [list(range(1, n + 1))] + [rng.sample(range(1, n + 1), n) for _ in range(3)]
            b = from_images(rows)
            assert_bitwise_einsum(b, N, batch, _plan(b, N, batch)[0])

    def test_over_memory_budget_refused_before_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the plan was checked")

        monkeypatch.setattr(montecarlo, "_draw_pieces", refuse)
        # The dipole's only intermediate is one value per sample, so the
        # sampled batch alone decides: it fills the budget at N = 16.
        N = round((INTERMEDIATE_MAX / DEFAULT_CHUNK) ** 0.25)
        assert _plan(dipole(), N, DEFAULT_CHUNK)[2] == INTERMEDIATE_MAX
        with pytest.raises(ValueError, match="INTERMEDIATE_MAX"):
            estimate_expectation(dipole(), SampleSpec(N=N + 1, samples=10, seed=0))

    def test_over_numpy_axes_refused_before_sampling(self, monkeypatch):
        # At N = 1 every size is 1, so only the axes bound refuses.  The
        # dipole's batch has d + 1 axes: numpy's 64 at d = 63, which runs.
        assert AXES_MAX == 64
        spec = SampleSpec(N=1, samples=2, seed=0)
        assert _plan(dipole(AXES_MAX - 1), 1, DEFAULT_CHUNK)[2] == DEFAULT_CHUNK
        assert estimate_expectation(dipole(AXES_MAX - 1), spec).samples == 2

        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the plan was checked")

        monkeypatch.setattr(montecarlo, "_draw_pieces", refuse)
        with pytest.raises(Refused, match="65 axes, over numpy's 64"):
            estimate_expectation(dipole(AXES_MAX), spec)
        # An intermediate past 64 axes, the batch itself within them: a
        # random d = 28, n = 9 bubble.
        rng = random.Random("numpy axes")
        b = from_images([rng.sample(range(1, 10), 9) for _ in range(28)])
        with pytest.raises(Refused, match="axes, over numpy's 64"):
            estimate_expectation(b, spec)


def replay_in_arena(b, N, steps, batch):
    """The plan replayed on views of a worker's arena, computing no values.

    Checks that a factor the layout leaves as a view is one numpy's reshape
    views, and that nothing is written over an array still to be read: a
    left copy over any product a term holds, a right copy over the left
    factor, its own source or a product held after the step, a product over
    its factors or a product held after the step.  Returns the arena's
    length and the most elements the plan held at once with a new array for
    every copy and product, as before the arena: the products terms hold,
    the last product made, the step's copies and its product.  Both count
    elements per sample."""
    moves, length = montecarlo._layout(b.n, N, steps)
    buffer = np.empty(batch * length, complex)
    x = np.empty((batch,) + (N,) * b.d, complex)
    operands = [x] * b.n + [None] * b.n  # None: a black tensor
    last, peak = None, 0

    def products(terms):
        return {id(a): a for a in terms if a is not None and a is not x}

    def overlaps(a, arrays):
        return any(np.may_share_memory(a, other) for other in arrays)

    for t, ((i, j, left, right, (own_j, summed, own_i), _, same), move) in enumerate(
        zip(steps, moves)
    ):
        if same is None:
            held = products(operands)
            after = products([a for k, a in enumerate(operands) if k not in (i, j)])
            factors, copies = [], 0
            for operand, axes, groups, at in [
                (operands[j], left, (own_j, summed), move[0]),
                (operands[i], right, (summed, own_i), move[1]),
            ]:
                shape = (batch,) + tuple(N**g for g in groups)
                if operand is None:
                    assert at is not None, t
                else:
                    view = operand.transpose(axes).reshape(shape)
                    assert np.may_share_memory(view, operand) == (at is None), t
                if at is None:
                    factors.append(operand)
                    continue
                size = batch * N ** (len(axes) - 1)
                copy = buffer[at * batch : at * batch + size]
                # The left copy is made while every held product is still to
                # be read; the right one after the left factor is made.
                unread = held.values() if not factors else [*factors, operand, *after.values()]
                assert not overlaps(copy, [a for a in unread if a is not None]), t
                factors.append(copy)
                copies += size
            if t < len(steps) - 1:
                assert move[2] is not None, t
                shape = (batch,) + (N,) * (own_j + own_i)
                product = buffer[move[2] * batch :][: math.prod(shape)].reshape(shape)
                unread = [a for a in factors + list(after.values()) if a is not None]
                assert not overlaps(product, unread), t
            else:
                assert move[2] is None
                product = np.empty(batch, complex)
            stale = [] if last is None or id(last) in held else [last]
            alive = sum(a.size for a in [*held.values(), *stale, product]) + copies
            peak = max(peak, alive // batch)
            last = product
        del operands[j], operands[i]
        operands.append(product if same is None else operands[same])
    return length, peak


@pytest.mark.parametrize("N", [1, 2, 3, 6])
def test_arena_aliases_nothing_live_and_fits_the_old_peak(N):
    # No product or copy in a worker's arena overwrites an array still to be
    # read, a product a live term holds through ``same`` included, and the
    # arena is no longer than the most elements the plan held at once with a
    # new array for every copy and product.
    rng = random.Random(f"arena:{N}")
    sizes = range(1, 9) if N < 6 else range(1, 4)
    bubbles = [necklace(4, SPLIT, 3)] + [from_images(RANDOM_N8)] * (N < 6) + [
        from_images([list(range(1, n + 1))] + [rng.sample(range(1, n + 1), n) for _ in range(3)])
        for n in sizes
        for _ in range(4)
    ]
    for b in bubbles:
        steps = _plan(b, N, DEFAULT_CHUNK)[0]
        for batch in (1, 3):
            length, peak = replay_in_arena(b, N, steps, batch)
            assert length <= peak, (b.n, batch)
    # The 3-necklace at N = 6: three arrays of one sample, 1 MiB in a piece.
    steps = _plan(necklace(4, SPLIT, 3), 6, DEFAULT_CHUNK)[0]
    assert montecarlo._layout(3, 6, steps)[1] == 3 * 6**4


def test_small_matrix_products_take_turns():
    # Every matrix product of the random n = 8 plan at N = 2 takes its turn
    # but the last, an inner product; no step of the 3-necklace at N = 6 does,
    # nor any step at N = 1, where every step is a broadcast multiply.
    steps = _plan(from_images(RANDOM_N8), 2, DEFAULT_CHUNK)[0]
    computed = [(groups, turn) for *_, groups, turn, same in steps if same is None]
    assert [turn for _, turn in computed] == [True] * (len(computed) - 1) + [False]
    assert computed[-1][0][0] == computed[-1][0][2] == 0
    for b, N in [(necklace(4, SPLIT, 3), 6), (from_images(RANDOM_N8), 1)]:
        assert not any(turn for *_, turn, _ in _plan(b, N, DEFAULT_CHUNK)[0])


def test_fault_in_a_step_taking_its_turn_stops_both_workers(monkeypatch):
    # The other worker's first chunk, 1, faults inside a step that holds the
    # turn lock: the lock is released, the calling thread's worker stops
    # before its next chunk, the thread is joined, and a second estimate
    # in this process finishes.
    b = from_images(RANDOM_N8)
    assert all(turn for *_, turn, same in _plan(b, 2, DEFAULT_CHUNK)[0][:-1] if same is None)
    drawn = []
    draw_pieces, matmul = montecarlo._draw_pieces, np.matmul

    def draw(spec, d, index, count, out):
        drawn.append(index)
        return draw_pieces(spec, d, index, count, out)

    def fault(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            assert montecarlo._TURN.locked()
            raise ValueError("injected fault in a step taking its turn")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_draw_pieces", draw)
    monkeypatch.setattr(np, "matmul", fault)
    threads = threading.active_count()
    spec = SampleSpec(N=2, samples=200 * DEFAULT_CHUNK, seed=5)
    with pytest.raises(ValueError, match="injected fault in a step taking its turn"):
        estimate_expectation(b, spec)
    assert threading.active_count() == threads
    assert not montecarlo._TURN.locked()
    assert len(drawn) <= 8
    monkeypatch.undo()
    spec = SampleSpec(N=2, samples=4 * DEFAULT_CHUNK, seed=5)
    assert estimate_expectation(b, spec) == serial_estimate(b, spec)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts pages on Linux")
def test_first_estimate_in_a_fresh_process_pays_no_extra_faults():
    # Each worker's arena is allocated once per estimate, so the first
    # estimate in a process faults in about the pages a second one does; with
    # a new array per step, glibc handed freed ones back until its mmap
    # threshold rose, and the first took 10-30 times the faults.
    code = (
        "import json, resource\n"
        "from tensormoments.bubbles import ColorSplit, necklace\n"
        "from tensormoments.montecarlo import SampleSpec, estimate_expectation\n"
        "b = necklace(4, ColorSplit(4, [2, 4]), 3)\n"
        "faults = []\n"
        "for seed in (1, 2):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    estimate_expectation(b, SampleSpec(N=6, samples=12288, seed=seed))\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(json.dumps(faults))\n"
    )
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    first, second = json.loads(run.stdout)
    assert first <= 3 * second, (first, second)
