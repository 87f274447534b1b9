"""Statistical ground truth: sample Gaussian tensors, contract, estimate.

Sampling uses the counter-based Philox generator keyed by (seed, chunk
index), so results are reproducible and independent of evaluation order.
Exactness lives elsewhere; this module is double precision by design.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .bubbles import Bubble

DEFAULT_CHUNK = 512
# numpy's einsum names subscripts by the letters a-z and A-Z.
EINSUM_LABELS = 52


@dataclass(frozen=True)
class SampleSpec:
    N: int
    d: int
    samples: int
    seed: int
    variance: float = 1.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")
        if not 0 < self.variance < math.inf:
            raise ValueError(f"variance must be finite and positive, got {self.variance}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    stderr: float
    samples: int
    seed: int
    max_rel_imag: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


def _rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed % 2**64, index % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_tensor(spec: SampleSpec, index: int = 0) -> np.ndarray:
    """One complex Gaussian tensor; entries have variance ``spec.variance``."""
    return sample_batch(spec, index, 1)[0]

def sample_batch(spec: SampleSpec, index: int, count: int) -> np.ndarray:
    """``count`` i.i.d. tensors drawn from the stream keyed (seed, index)."""
    rng = _rng(spec.seed, index)
    shape = (count,) + (spec.N,) * spec.d
    scale = math.sqrt(spec.variance / 2.0)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return scale * (re + 1j * im)


def _einsum_args(b: Bubble, batch: np.ndarray) -> list:
    """Integer-subscript einsum arguments contracting the bubble on a batch.

    Index 0 is the batch; index (c, j) is the color-c edge into black
    vertex j, and white i uses (c, tau_c(i)).  That is d*n + 1 labels; a
    bubble needing more than numpy's einsum has raises ValueError.
    """
    labels = b.d * b.n + 1
    if labels > EINSUM_LABELS:
        raise ValueError(
            f"d={b.d}, n={b.n} needs {labels} einsum labels (d*n + 1); "
            f"numpy's einsum has {EINSUM_LABELS}"
        )

    def idx(c, j):
        return 1 + (c - 1) * b.n + (j - 1)

    subs = [[0] + [idx(c, b.tau(c)(i)) for c in range(1, b.d + 1)] for i in range(1, b.n + 1)]
    subs += [[0] + [idx(c, j) for c in range(1, b.d + 1)] for j in range(1, b.n + 1)]
    operands = [batch] * b.n + [np.conj(batch)] * b.n
    return [x for pair in zip(operands, subs) for x in pair] + [[0]]


def evaluate_bubble(b: Bubble, tensor: np.ndarray, optimize="greedy") -> complex:
    """Contract the bubble polynomial on one tensor.

    The contraction order comes from numpy's greedy smallest-intermediate
    planner by default; any order gives the same value up to rounding.
    """
    if tensor.ndim != b.d or any(s != tensor.shape[0] for s in tensor.shape):
        raise ValueError(
            f"tensor shape {tensor.shape} does not match d={b.d} equal dimensions"
        )
    return complex(np.einsum(*_einsum_args(b, tensor[None]), optimize=optimize)[0])


def estimate_expectation(b: Bubble, spec: SampleSpec) -> Estimate:
    """Streaming mean and standard error over ``spec.samples`` draws.

    Chunks of ``DEFAULT_CHUNK`` draws are keyed by their index, so the result
    is byte-identical for a fixed seed however the chunks are scheduled. The
    contraction is planned once, on the first chunk.
    """
    if spec.d != b.d:
        raise ValueError(f"spec has d={spec.d}, bubble has d={b.d}")
    mean, m2, max_rel_imag, path = 0.0, 0.0, 0.0, None
    for index, done in enumerate(range(0, spec.samples, DEFAULT_CHUNK)):
        take = min(DEFAULT_CHUNK, spec.samples - done)
        args = _einsum_args(b, sample_batch(spec, index, take))
        if path is None:
            path, _ = np.einsum_path(*args, optimize="greedy")
        values = np.einsum(*args, optimize=path)
        scale = np.abs(values)
        rel = np.divide(np.abs(values.imag), scale, out=np.zeros(take), where=scale > 0)
        max_rel_imag = max(max_rel_imag, float(np.max(rel)))
        # Merge this chunk's (count, mean, M2) into the running one in
        # chunk-index order (Chan, Golub & LeVeque 1979): no cancellation.
        re = values.real
        chunk_mean = float(np.mean(re))
        delta = chunk_mean - mean
        mean += delta * take / (done + take)
        m2 += float(np.sum((re - chunk_mean) ** 2)) + delta * delta * done * take / (done + take)
    n = spec.samples
    return Estimate(
        mean=mean,
        stderr=math.sqrt(m2 / (n - 1) / n),
        samples=n,
        seed=spec.seed,
        max_rel_imag=max_rel_imag,
    )
