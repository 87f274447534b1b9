"""Statistical ground truth: sample Gaussian tensors, contract, estimate.

Sampling uses an SFC64 generator seeded by ``SeedSequence(seed,
spawn_key=(chunk index,))``, one stream per chunk, so results are
reproducible and independent of evaluation order, and distinct seeds give
distinct streams.
A ``SampleSpec`` holds N, the sample count, the seed and the variance; the
bubble fixes the tensor's rank d.

The contraction is planned here, not by numpy: ``_plan`` orders the 2n
tensors pair by pair with a greedy smallest-intermediate rule, once per
bubble and before any sample is drawn, and compiles each pair to the form
numpy's two-operand einsum runs it: a permutation of each factor's axes and
the lengths of the (own, summed, own) groups.  ``_contract`` runs that form
directly: transpose, reshape and one batched ``np.matmul``, or a broadcast
``np.multiply`` where nothing longer than 1 is summed.  So no einsum is
parsed or planned per call, and the values are bitwise those of
``np.einsum`` given each pair with the explicit path (0, 1).  numpy's
52 einsum letters do not limit d*n, and no intermediate cap drops the rest
of a contraction into one nested loop, as numpy's greedy path does.  A pair
product equal to one already held is computed once: every white tensor is
the one sampled batch and every black one its one conjugate, so two steps
of the same form on equal inputs give bitwise-equal arrays, and the second
step takes the first one's.  The bounds are memory and numpy's axes: a plan
whose largest array in a chunk, the sampled batch included, exceeds
``INTERMEDIATE_MAX`` elements, or has an array of more than ``AXES_MAX``
axes, is refused with its size and FLOP count.

``estimate_expectation`` runs two workers, the calling thread and one
thread; worker w draws and contracts the chunks k with k % 2 == w and
reduces each to its (mean, sum of squared deviations, max_rel_imag), which
the calling thread merges in index order after the join.  A chunk is drawn
and contracted in pieces whose largest array holds at most
``PIECE_ELEMENTS`` elements, so a piece's intermediates stay in a core's L2
cache.  A chunk's stream gives each entry's real and imaginary parts in
turn, so a worker draws each piece straight into its one complex piece
buffer, viewed as floats, and scales it there (``_draw_pieces``, the one
draw path; ``sample_batch`` is its one-piece case).  So a worker holds one
piece, that piece's intermediates and a chunk's values.  A black
tensor's conjugate is formed where a step uses it, in the pass that copies
it into place, so no conjugate batch stays alive.  The budget
``INTERMEDIATE_MAX`` is still counted on one whole complex
``DEFAULT_CHUNK``-sample chunk.

Every factor copy and product of a piece goes into the worker's arena, one
buffer that ``_layout`` lays out once per plan by the arrays' lives and
each worker allocates once per estimate, and each piece's values go
straight into the worker's chunk vector; so no step allocates, and a fresh
process does not fault in pages again piece after piece.  Small complex
matrix products take turns: a step ``_plan`` marks from its shape runs its
matmul holding one module lock (``_TURN``), since two threads' small BLAS
products run slower together than one thread's alone.

Exactness lives elsewhere; this module is double precision by design.
"""
from __future__ import annotations

import heapq
import math
import threading
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .algebra import Refused, approx
from .bubbles import Bubble

DEFAULT_CHUNK = 512
# Elements in the largest array of one chunk, the sampled batch included:
# 2**25 complex doubles are 512 MiB.
INTERMEDIATE_MAX = 2**25
# Axes of the plan's arrays, the sample axis included: numpy's limit.  At
# N = 1 every size is 1, so ``INTERMEDIATE_MAX`` alone would not bound them.
AXES_MAX = 64
# Elements in the largest array of one contraction piece: 2**16 complex
# doubles are 1 MiB, so a piece's intermediates fit a core's L2 cache.
PIECE_ELEMENTS = 2**16


@dataclass(frozen=True)
class SampleSpec:
    N: int
    samples: int
    seed: int
    variance: float = 1.0

    def __post_init__(self):
        if self.N < 1:
            raise Refused("N must be >= 1")
        if self.samples < 2:
            raise Refused("need at least 2 samples")
        if self.seed < 0:
            raise Refused(f"seed must be >= 0, got {self.seed}")
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
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(index,))))


def sample_batch(spec: SampleSpec, d: int, index: int, count: int) -> np.ndarray:
    """``count`` i.i.d. rank-``d`` tensors drawn from the stream keyed (seed, index).

    The whole batch as one piece of ``_draw_pieces``, into a new array.
    """
    out = np.empty((count,) + (spec.N,) * d, complex)
    (batch,) = _draw_pieces(spec, d, index, count, out)
    return batch


def _draw_pieces(spec: SampleSpec, d: int, index: int, count: int, out: np.ndarray):
    """Yield the ``count`` tensors keyed (seed, index) in pieces of
    ``len(out)`` samples, each drawn into the front of ``out``.

    The stream gives each entry's real part, then its imaginary part, entry
    after entry: a piece's draws go straight into its complex buffer, viewed
    as re, im, re, im, ..., and are scaled there.  A stream read in pieces
    gives the values it gives read whole, so pieces change no bits.
    """
    rng = _rng(spec.seed, index)
    scale = math.sqrt(spec.variance / 2.0)
    step = len(out)
    for start in range(0, count, step):
        piece = out[: min(step, count - start)]
        flat = piece.reshape(-1).view(np.float64)
        rng.standard_normal(out=flat)
        flat *= scale
        yield piece


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


def _plan(b: Bubble, N: int, batch: int) -> tuple[list, int, int]:
    """Greedy pairwise contraction order for a chunk of ``batch`` samples.

    Works on label sets alone.  Each step contracts the pair of terms (i, j),
    i < j, whose product grows memory least, size(out) - size(a) - size(b),
    the rule of opt_einsum's greedy (Smith & Gray 2018), with ties to the
    smallest (i, j); the product goes to the end of the list, as in numpy's
    paths.  No intermediate is capped.  Every size scales with ``batch``, so
    the order does not depend on it.  Every label but the sample's sits on
    exactly two live terms, so a pair sums the labels it shares and keeps
    the others.

    Each step is compiled to the form numpy's two-operand einsum runs it
    (``bmm_einsum``), which pops the pair right to left: term j is the left
    factor.  Its axes are permuted to (sample, own, summed) and term i's to
    (sample, summed, own), the summed labels in j's order, and the product's
    are (sample, j's own, i's own).

    Each term has a key: "T" for a white, "C" for a black, and (key of a,
    key of b, the step's form) for a product.  Equal keys mean the same
    products of the same arrays, as every white is the one sampled batch and
    every black its one conjugate, so the results are bitwise equal.  A step
    whose product's key a live term already holds is not computed.

    Returns (steps, FLOPs per chunk as ``np.einsum_path`` counts them,
    largest array in elements), where a step is (i, j, left, right, groups,
    turn, same): ``left`` and ``right`` permute terms j and i, ``groups`` is
    the number of j's own, summed and i's own labels, ``turn`` marks a
    matrix product small enough to run one worker at a time (``_TURN``), and
    ``same`` is the index, once the pair is removed, of the live term equal
    to the product, else None.  FLOPs and the largest array count computed
    steps only, and the largest array includes the sampled batch.  A plan
    whose largest array exceeds ``INTERMEDIATE_MAX`` elements, or any of
    whose arrays has more than ``AXES_MAX`` axes, raises ``Refused``.
    """
    def size(labels, dim=N):  # a term of this many labels, the sample's among them
        return batch * dim ** (labels - 1)

    # At N = 1 every order costs the same; ranking pairs as at N = 2 keeps
    # each step's label count small.
    rank_dim = max(N, 2)

    def cost(a, c):  # the product keeps the sample label and every label not shared
        kept = len(a) + len(c) + 1 - 2 * len(set(a).intersection(c))
        return size(kept, rank_dim) - size(len(a), rank_dim) - size(len(c), rank_dim)

    terms = _labels(b)
    keys = ["T"] * b.n + ["C"] * b.n
    # Each term has an id in creation order, the order of the live list, so
    # the heap's (cost, id, id) order is (cost, i, j) order; a pair with a
    # term already used is skipped when it comes up.
    ids, used = list(range(2 * b.n)), set()
    pairs = [(cost(terms[i], terms[j]), i, j) for i, j in combinations(ids, 2)]
    heapq.heapify(pairs)
    steps, flops, largest, axes = [], 0, batch * N**b.d, b.d + 1
    while len(terms) > 1:
        _, u, v = heapq.heappop(pairs)
        if u in used or v in used:
            continue
        used.update((u, v))
        i, j = ids.index(u), ids.index(v)
        a, c = terms[i], terms[j]
        # The sample label 0 comes first on every term.
        own_c = [x for x in c if x not in a]
        summed = [x for x in c[1:] if x in a]
        own_a = [x for x in a if x not in c]
        left = (0, *map(c.index, own_c), *map(c.index, summed))
        right = (0, *map(a.index, summed), *map(a.index, own_a))
        groups = (len(own_c), len(summed), len(own_a))
        rows, inner, cols = (N**g for g in groups)
        # A small matrix product of two matrices takes its turn (see _TURN).
        turn = inner > 1 and rows > 1 and cols > 1 and rows * inner * cols < 2048
        key = (keys[i], keys[j], left, right, groups)
        del terms[j], terms[i], keys[j], keys[i], ids[j], ids[i]
        same = keys.index(key) if key in keys else None
        steps.append((i, j, left, right, groups, turn, same))
        out = (0, *own_c, *own_a)
        if same is None:
            flops += size(len(out) + len(summed)) * (2 if summed else 1)
            largest = max(largest, size(len(out)))
            axes = max(axes, len(out))
        new = 2 * b.n + len(steps) - 1  # the product's id
        for t, u in zip(terms, ids):
            heapq.heappush(pairs, (cost(t, out), u, new))
        terms.append(out)
        keys.append(key)
        ids.append(new)
    if axes > AXES_MAX or largest > INTERMEDIATE_MAX:
        # Written from their logs: at a large N the counts are past float range.
        log_flops = math.log(flops) if flops else -math.inf
        cost = f"the plan costs {approx(log_flops, 2)} FLOPs per chunk"
        if axes > AXES_MAX:
            raise Refused(
                f"d={b.d}, n={b.n} at N={N}: an array of the plan has {axes} axes, over "
                f"numpy's {AXES_MAX}; {cost}"
            )
        raise Refused(
            f"d={b.d}, n={b.n} at N={N}: the largest array of a {batch}-sample "
            f"chunk holds {approx(math.log(largest), 2)} elements, over INTERMEDIATE_MAX = "
            f"{INTERMEDIATE_MAX:.2e}; {cost}"
        )
    return steps, flops, largest


def _layout(n: int, N: int, steps: list) -> tuple[list, int]:
    """Where ``_contract`` puts each array it makes, laid out once per plan:
    a slot of a worker's arena, one buffer, for every factor copy and every
    product but the last, which goes to ``out``.

    Every operand is C-ordered, so a factor's reshape is a view exactly
    where N = 1 or each group of its permuted axes is adjacent and
    increasing in memory.  Elsewhere, and for every black tensor, whose
    conjugate is formed in the copy, the factor is copied into a slot in C
    order, as numpy's own copy is.  Step t copies its left factor at time
    3t, its right at 3t + 1, and multiplies at 3t + 2.  A copy lives from
    its time to 3t + 2; a product from 3t + 2 to the last time a step reads
    it, through ``same`` too.  Slots of arrays whose lives meet do not
    overlap, so a product never overwrites its factors or a live operand,
    and no copy overwrites an array still to be read.  Each slot is as long
    as its array.  Slots are placed largest first, each at the lowest offset
    where it fits, ties going earliest first in one pass and longest-lived
    first in another; the shorter arena is kept.

    Returns (moves, length): ``moves[t]`` is None for a step not computed,
    else the offsets of its (left copy, right copy, product), None for a
    factor that is a view and for the last product; ``length`` is the
    arena's.  Offsets and length count elements per sample.
    """
    def copied(axes, cut, black):  # axes[1:cut] and axes[cut:] are the groups
        groups = (axes[1:cut], axes[cut:])
        return black or (N > 1 and any(b != a + 1 for g in groups for a, b in zip(g, g[1:])))

    # lives[(t, k)]: [first time, last time, length] of step t's left copy
    # (k = 0), right copy (1) or product (2).
    terms, lives = ["T"] * n + ["C"] * n, {}
    for t, (i, j, left, right, (own_j, summed, own_i), _, same) in enumerate(steps):
        if same is None:
            factors = ((0, terms[j], left, 1 + own_j), (1, terms[i], right, 1 + summed))
            for k, term, axes, cut in factors:
                read = 3 * t + 2
                if copied(axes, cut, term == "C"):
                    read = 3 * t + k
                    lives[t, k] = [read, 3 * t + 2, N ** (len(axes) - 1)]
                if type(term) is int:
                    lives[term, 2][1] = read  # reads come in time order
            if t < len(steps) - 1:
                lives[t, 2] = [3 * t + 2, 3 * t + 2, N ** (own_j + own_i)]
        del terms[j], terms[i]
        terms.append(t if same is None else terms[same])

    def place(order):
        offsets = {}
        for key in sorted(lives, key=order):
            start, end, length = lives[key]
            clash = [
                (offsets[other], lives[other][2])
                for other in offsets
                if lives[other][0] <= end and start <= lives[other][1]
            ]
            offsets[key] = min(
                at
                for at in {0, *(o + size for o, size in clash)}
                if all(at + length <= o or o + size <= at for o, size in clash)
            )
        return max((offsets[key] + lives[key][2] for key in offsets), default=0), offsets

    length, offsets = min(
        (
            place(lambda key: (-lives[key][2], lives[key][0], key)),
            place(lambda key: (-lives[key][2], lives[key][0] - lives[key][1], key)),
        ),
        key=lambda placed: placed[0],
    )
    moves = [
        None if same is not None else tuple(offsets.get((t, k)) for k in range(3))
        for t, (*_, same) in enumerate(steps)
    ]
    return moves, length


# Small complex matrix products take turns: a step ``_plan`` marks runs its
# np.matmul holding this lock, while draws, copies and every other step stay
# parallel.  With OPENBLAS_NUM_THREADS=1, two threads multiplying
# (512, M, K) and (512, K, P) complex128 stacks gave this throughput against
# one thread (2-vCPU Xeon VM, numpy 2.4, OpenBLAS 0.3.31; two processes
# gave 1.5-1.9x on 4 4 4 to 9 9 9, and matmul releases the GIL, so the
# contention is inside BLAS):
#   M K P      2 2 2  4 2 4  4 4 4  6 6 6  8 8 8  9 9 9  12 12 12
#   two/one    0.69   0.48   0.43   0.50   0.57   0.78   0.76
#   M K P      6 36 6  36 6 6  32 2 32  27 3 27  16 16 16  36 36 36
#   two/one    0.89    0.86    1.17     1.28     1.44      1.90
# Inner products (M = P = 1, K = 36..1296) gave 1.7-2.0x, and products of a
# matrix and a vector (M = 1 or P = 1) 1.3-2.0x.  So a product with M, K,
# P > 1 and M*K*P < 2048 takes its turn; the others run in parallel.
_TURN = threading.Lock()


def _factor(operand, batch: np.ndarray, axes: tuple, shape: tuple, buffer, offset) -> np.ndarray:
    """``operand`` with its axes permuted and grouped into ``shape``: a view,
    or, where ``offset`` is not None, a C-ordered copy at that offset per
    sample of ``buffer``.  None stands for the conjugate of ``batch``, which
    is formed in the copy, so no conjugate batch stays alive across steps."""
    view = (batch if operand is None else operand).transpose(axes)
    if offset is not None:
        start = offset * len(batch)
        copy = buffer[start : start + view.size].reshape(view.shape)
        if operand is None:
            np.conjugate(view, out=copy)
        else:
            np.copyto(copy, view)
        view = copy
    return view.reshape(shape)


def _contract(batch: np.ndarray, n: int, steps: list, arena: tuple, out=None) -> np.ndarray:
    """The bubble's value on each tensor of ``batch``, written to ``out`` (a
    new vector by default) and returned, as numpy's two-operand einsum
    computes each step, with no einsum call: the left factor is permuted to
    (sample, own, summed) and reshaped to one matrix per sample, the right
    to (sample, summed, own), and the two are multiplied by ``np.matmul``.
    Where no summed axis is longer than 1 (every step at N = 1),
    ``np.multiply`` broadcasts them instead, as numpy does, since a matmul
    changes the bits there.  A step whose product a live operand already
    holds is not computed.  ``arena`` is a worker's (moves, buffer): every
    copy and product but the last is written into the slot of the buffer
    that ``_layout``'s moves gave it, which holds at least ``len(batch)``
    samples; the last into ``out``."""
    moves, buffer = arena
    B = len(batch)
    N = batch.shape[-1] if batch.ndim > 1 else 1
    out = np.empty(B, complex) if out is None else out
    operands = [batch] * n + [None] * n  # None: a black tensor, see _factor
    for (i, j, left, right, (own_j, summed, own_i), turn, same), move in zip(steps, moves):
        if same is None:
            x, y, at = move
            rows, inner, cols = N**own_j, N**summed, N**own_i
            left_factor = _factor(operands[j], batch, left, (B, rows, inner), buffer, x)
            right_factor = _factor(operands[i], batch, right, (B, inner, cols), buffer, y)
            product = out if at is None else buffer[at * B : (at + rows * cols) * B]
            matrices = product.reshape(B, rows, cols)
            if inner == 1:
                np.multiply(left_factor, right_factor, out=matrices)
            elif turn:
                with _TURN:
                    np.matmul(left_factor, right_factor, out=matrices)
            else:
                np.matmul(left_factor, right_factor, out=matrices)
            product = product.reshape((B,) + (N,) * (own_j + own_i))
        del operands[j], operands[i]
        operands.append(product if same is None else operands[same])
    if not n:
        out.fill(1)
    return out


def estimate_expectation(b: Bubble, spec: SampleSpec) -> Estimate:
    """Streaming mean and standard error over ``spec.samples`` draws.

    Chunks of ``DEFAULT_CHUNK`` draws are keyed by their index, so the result
    is byte-identical for a fixed seed however the chunks are scheduled. The
    contraction is planned once, before the first chunk is drawn, so a plan
    over the memory budget is refused before any sampling.  Two workers, the
    calling thread and one thread, each draw, contract and reduce every
    other chunk; a chunk is drawn and contracted in pieces whose largest
    array holds at most ``PIECE_ELEMENTS`` elements (one sample where a
    sample alone holds more).  Each worker allocates once one complex
    piece buffer, its arena for the plan's ``_layout`` and a vector for a
    chunk's values, and holds no whole chunk: each piece is drawn straight
    into the piece buffer.  The draws and every contraction step are per
    sample, so the values equal those of ``sample_batch``'s whole chunk.
    The chunks are merged in index order once both are done.  A fault in
    either worker stops the other before its next chunk; the
    thread is joined before this returns or raises, and the fault of the
    lowest-indexed failed chunk is raised here.
    """
    steps, _, largest = _plan(b, spec.N, DEFAULT_CHUNK)
    moves, length = _layout(b.n, spec.N, steps)
    piece = max(1, min(DEFAULT_CHUNK, PIECE_ELEMENTS // (largest // DEFAULT_CHUNK)))
    takes = [
        min(DEFAULT_CHUNK, spec.samples - done) for done in range(0, spec.samples, DEFAULT_CHUNK)
    ]
    chunks = [None] * len(takes)  # (mean, sum of squared deviations, max_rel_imag)
    faults = {}
    stop = threading.Event()

    def work(first):
        # Chunks first, first + 2, ..., each drawn piece by piece into this
        # worker's piece buffer and contracted in its arena into ``values``;
        # all three are allocated once.  A fault is kept for the caller to
        # raise.
        index = first
        try:
            size = min(piece, takes[0])
            pieces = np.empty((size,) + (spec.N,) * b.d, complex)
            arena = moves, np.empty(size * length, complex)
            values = np.empty(takes[0], complex)
            # Past a double a value is inf or nan, which the merged estimate
            # refuses; numpy's error state is per thread, so each worker sets it.
            with np.errstate(over="ignore", invalid="ignore"):
                for index in range(first, len(takes), 2):
                    if stop.is_set():
                        return
                    take, done = takes[index], 0
                    for batch in _draw_pieces(spec, b.d, index, take, pieces):
                        _contract(batch, b.n, steps, arena, values[done : done + len(batch)])
                        done += len(batch)
                    chunk = values[:take]
                    scale = np.abs(chunk)
                    rel = np.divide(np.abs(chunk.imag), scale, out=np.zeros(take), where=scale > 0)
                    re = chunk.real
                    chunk_mean = float(np.mean(re))
                    chunks[index] = (
                        chunk_mean, float(np.sum((re - chunk_mean) ** 2)), float(np.max(rel))
                    )
        except Exception as error:
            faults[index] = error
            stop.set()

    other = threading.Thread(target=work, args=(1,))
    other.start()
    try:
        work(0)
    except BaseException:  # an interrupt in the calling thread stops the other worker too
        stop.set()
        raise
    finally:
        other.join()
    if faults:
        raise faults[min(faults)]
    # Merge each chunk's (count, mean, M2) into the running one in
    # chunk-index order (Chan, Golub & LeVeque 1979): no cancellation.
    mean, m2, max_rel_imag, done = 0.0, 0.0, 0.0, 0
    for take, (chunk_mean, chunk_m2, chunk_rel_imag) in zip(takes, chunks):
        max_rel_imag = max(max_rel_imag, chunk_rel_imag)
        delta = chunk_mean - mean
        mean += delta * take / (done + take)
        m2 += chunk_m2 + delta * delta * done * take / (done + take)
        done += take
    n = spec.samples
    stderr = math.sqrt(m2 / (n - 1) / n)
    # A value, a sum or a squared deviation past a double gives inf or nan,
    # which no report may print.  |B(T)| <= |T|^(2n), and |T|^2 / variance
    # is Gamma(N^d)-distributed, so E|T|^(2n) = variance^n (N^d)_n.
    if not all(map(math.isfinite, (mean, stderr, max_rel_imag))):
        size = spec.N**b.d
        ln = b.n * math.log(spec.variance) + math.lgamma(size + b.n) - math.lgamma(size)
        raise Refused(
            f"d={b.d}, n={b.n} at N={spec.N}, variance {spec.variance}: the estimate "
            f"overflows a double; a sample is at most |T|^(2n), of mean {approx(ln, 2)}"
        )
    return Estimate(
        mean=mean,
        stderr=stderr,
        samples=n,
        seed=spec.seed,
        max_rel_imag=max_rel_imag,
    )
