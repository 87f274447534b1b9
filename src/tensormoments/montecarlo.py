"""Statistical ground truth: sample Gaussian tensors, contract, estimate.

Sampling uses the counter-based Philox generator keyed by (seed, chunk
index), so results are reproducible and independent of evaluation order.

The contraction is planned here, not by numpy: ``_plan`` orders the 2n
tensors pair by pair with a greedy smallest-intermediate rule, once per
bubble and before any sample is drawn, and ``_contract`` runs each pair as
one two-operand ``np.einsum`` with its labels renumbered from 0.  So
numpy's 52 einsum letters do not limit d*n, and no intermediate cap drops
the rest of a contraction into one nested loop, as numpy's greedy path
does.  A pair product equal to one already held is computed once: every
white tensor is the one sampled batch and every black one its one
conjugate, so two steps on equal inputs with the same subscripts give
bitwise-equal arrays, and the second step takes the first one's.  The one
bound is memory: a plan whose largest array in a chunk, the sampled batch
included, exceeds ``INTERMEDIATE_MAX`` elements is refused with its size
and FLOP count.

``estimate_expectation`` draws chunk k + 1 on one thread while the calling
thread contracts chunk k, in two halves.  So two sampled batches are alive,
plus the conjugate and the intermediates of half a chunk.  The budget is
still counted on one whole ``DEFAULT_CHUNK``-sample chunk; where the batch
is the largest array, peak memory is 2 to 2.6 batches, as the two threads'
timing falls, against 2 when each chunk was drawn after the last one was
contracted.

Exactness lives elsewhere; this module is double precision by design.
"""
from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .algebra import Refused
from .bubbles import Bubble

DEFAULT_CHUNK = 512
# Elements in the largest array of one chunk, the sampled batch included:
# 2**25 complex doubles are 512 MiB.
INTERMEDIATE_MAX = 2**25
# Normal draws per standard_normal call in sample_batch: a 512 KiB buffer.
_DRAWS = 2**16


@dataclass(frozen=True)
class SampleSpec:
    N: int
    d: int
    samples: int
    seed: int
    variance: float = 1.0

    def __post_init__(self):
        if self.N < 1:
            raise Refused("N must be >= 1")
        if self.samples < 2:
            raise Refused("need at least 2 samples")
        if not 0 < self.variance < math.inf:
            raise Refused(f"variance must be finite and positive, got {self.variance}")


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


def sample_batch(spec: SampleSpec, index: int, count: int) -> np.ndarray:
    """``count`` i.i.d. tensors drawn from the stream keyed (seed, index).

    The stream gives every real part, then every imaginary part.  They are
    drawn ``_DRAWS`` at a time through one small buffer, which gives the
    values of one call, so no float array of half the batch's size is
    allocated beside it.
    """
    rng = _rng(spec.seed, index)
    shape = (count,) + (spec.N,) * spec.d
    scale = math.sqrt(spec.variance / 2.0)
    out = np.empty(shape, complex)
    flat = out.reshape(-1).view(np.float64)  # re, im, re, im, ...
    draws = np.empty(min(out.size, _DRAWS))
    for part in (flat[0::2], flat[1::2]):
        for start in range(0, part.size, _DRAWS):
            piece = draws[: min(_DRAWS, part.size - start)]
            rng.standard_normal(out=piece)
            np.multiply(piece, scale, out=part[start : start + len(piece)])
    return out


def _labels(b: Bubble) -> list[tuple[int, ...]]:
    """Contraction labels of the 2n tensors: the n copies of T, then the n of T-bar.

    Label 0 is the sample; label (c, j) is the color-c edge into black
    vertex j, and white i uses (c, tau_c(i)).  Every other label sits on
    exactly one white and one black tensor.
    """
    def idx(c, j):
        return 1 + (c - 1) * b.n + (j - 1)

    colors = range(1, b.d + 1)
    whites = [(0, *(idx(c, b.tau(c)(i)) for c in colors)) for i in range(1, b.n + 1)]
    blacks = [(0, *(idx(c, j) for c in colors)) for j in range(1, b.n + 1)]
    return whites + blacks


def _kept(a: tuple, c: tuple, holders: dict) -> tuple:
    """Labels of the product of terms ``a`` and ``c`` that another term or the
    output still holds, in the order numpy's batched matmul produces them
    (it takes the pair as (c, a)): shared, then ``c``'s own, then ``a``'s."""
    order = [x for x in c if x in a] + [x for x in c if x not in a] + [x for x in a if x not in c]
    return tuple(x for x in order if holders[x] > (x in a) + (x in c))


def _plan(b: Bubble, N: int, batch: int) -> tuple[list, int, int]:
    """Greedy pairwise contraction order for a chunk of ``batch`` samples.

    Works on label sets alone.  Each step contracts the pair of terms (i, j),
    i < j, whose product grows memory least, size(out) - size(a) - size(b),
    the rule of opt_einsum's greedy (Smith & Gray 2018), with ties to the
    smallest (i, j); the product goes to the end of the list, as in numpy's
    paths.  No intermediate is capped.  Every size scales with ``batch``, so
    the order does not depend on it.

    Each term has a key: "T" for a white, "C" for a black, and (key of a,
    key of b, the step's subscripts) for a product.  Equal keys mean the
    same einsum on the same arrays, as every white is the one sampled batch
    and every black its one conjugate, so the results are bitwise equal.  A
    step whose product's key a live term already holds is not computed.

    Returns (steps, FLOPs per chunk as ``np.einsum_path`` counts them,
    largest array in elements), where a step is (i, j, subscripts of a, b
    and the product, renumbered from 0, same): ``same`` is the index, once
    the pair is removed, of the live term equal to the product, else None.
    FLOPs and the largest array count computed steps only, and the largest
    array includes the sampled batch.  A plan whose largest array exceeds
    ``INTERMEDIATE_MAX`` raises ``Refused``.
    """
    def size(labels, dim=N):  # every term carries the sample label 0
        return batch * dim ** (len(labels) - 1)

    # At N = 1 every order costs the same; ranking pairs as at N = 2 keeps
    # each step's label count small (numpy's einsum has 52 letters).
    rank_dim = max(N, 2)
    terms = _labels(b)
    keys = ["T"] * b.n + ["C"] * b.n
    holders = Counter(x for term in terms for x in term)
    holders[0] += 1  # the output holds the sample label
    steps, flops, largest = [], 0, batch * N**b.d
    while len(terms) > 1:
        best = None
        for i, j in combinations(range(len(terms)), 2):
            out = _kept(terms[i], terms[j], holders)
            cost = size(out, rank_dim) - size(terms[i], rank_dim) - size(terms[j], rank_dim)
            if best is None or cost < best[0]:
                best = (cost, i, j, out)
        _, i, j, out = best
        a, c = terms[i], terms[j]
        local = {x: k for k, x in enumerate(dict.fromkeys(a + c))}
        subscripts = tuple([local[x] for x in t] for t in (a, c, out))
        key = (keys[i], keys[j], subscripts)
        del terms[j], terms[i], keys[j], keys[i]
        same = keys.index(key) if key in keys else None
        steps.append((i, j, subscripts, same))
        if same is None:
            flops += size(local) * (2 if len(out) < len(local) else 1)
            largest = max(largest, size(out))
        holders.subtract(a + c)
        holders.update(out)
        terms.append(out)
        keys.append(key)
    if largest > INTERMEDIATE_MAX:
        raise Refused(
            f"d={b.d}, n={b.n} at N={N}: the largest array of a {batch}-sample "
            f"chunk holds {largest:.2e} elements, over INTERMEDIATE_MAX = "
            f"{INTERMEDIATE_MAX:.2e}; the plan costs {flops:.2e} FLOPs per chunk"
        )
    return steps, flops, largest


def _contract(batch: np.ndarray, n: int, steps: list) -> np.ndarray:
    """The bubble's value on each tensor of ``batch``: one einsum per step,
    none for a step whose product a live operand already holds."""
    operands = [batch] * n + [np.conj(batch)] * n
    for i, j, (sub_a, sub_b, sub_out), same in steps:
        if same is None:
            # An explicit one-pair path sends the pair to numpy's batched matmul.
            product = np.einsum(
                operands[i], sub_a, operands[j], sub_b, sub_out, optimize=["einsum_path", (0, 1)]
            )
        del operands[j], operands[i]
        operands.append(product if same is None else operands[same])
    return operands[0] if n else np.ones(len(batch), dtype=complex)


def estimate_expectation(b: Bubble, spec: SampleSpec) -> Estimate:
    """Streaming mean and standard error over ``spec.samples`` draws.

    Chunks of ``DEFAULT_CHUNK`` draws are keyed by their index, so the result
    is byte-identical for a fixed seed however the chunks are scheduled. The
    contraction is planned once, before the first chunk is drawn, so a plan
    over the memory budget is refused before any sampling.  While chunk k is
    contracted, one thread draws chunk k + 1, and the chunks are merged in
    index order.  The thread is joined before this returns or raises; a
    fault in it is raised here.
    """
    if spec.d != b.d:
        raise ValueError(f"spec has d={spec.d}, bubble has d={b.d}")
    steps, _, _ = _plan(b, spec.N, DEFAULT_CHUNK)
    takes = [
        min(DEFAULT_CHUNK, spec.samples - done) for done in range(0, spec.samples, DEFAULT_CHUNK)
    ]
    drawn = {}

    def draw(index):
        try:
            drawn[index] = sample_batch(spec, index, takes[index])
        except Exception as error:
            drawn[index] = error

    mean, m2, max_rel_imag, done = 0.0, 0.0, 0.0, 0
    sampler = None
    draw(0)
    try:
        for index, take in enumerate(takes):
            if sampler is not None:
                sampler.join()
            batch = drawn.pop(index)
            if isinstance(batch, Exception):
                raise batch
            if index + 1 < len(takes):
                sampler = threading.Thread(target=draw, args=(index + 1,))
                sampler.start()
            # In two halves: with the next batch drawn meanwhile, memory holds
            # two batches but the intermediates of half a chunk.  Every step
            # is per sample, so the values equal those of the whole chunk.
            half = take // 2
            values = np.concatenate(
                [_contract(batch[:half], b.n, steps), _contract(batch[half:], b.n, steps)]
            )
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
            done += take
    finally:
        if sampler is not None:
            sampler.join()
    n = spec.samples
    return Estimate(
        mean=mean,
        stderr=math.sqrt(m2 / (n - 1) / n),
        samples=n,
        seed=spec.seed,
        max_rel_imag=max_rel_imag,
    )
