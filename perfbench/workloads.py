"""Seeded request lists for the benchmark workloads.

``build(workload, seed, smoke, directory)`` draws the inputs of one workload
from ``seed``, writes them to ``directory`` as bubble JSON files and returns
the request list.  Each request is a dict:

    argv   arguments for ``tensormoments.cli.main``
    kind   the CLI command, which selects the output check
    check  expected values the answer is compared against
    size   what was asked for: n, m, chain lengths, N, samples

The same seed gives the same requests.  Generation runs before any timing
and may use the package itself (bubble constructors, validation, and the
oracle for the one Monte Carlo request whose exact value the CLI skips).
"""
from __future__ import annotations

import math
import random
import re

import numpy as np

from tensormoments.algebra import Permutation
from tensormoments.bubbles import (
    Bubble,
    ColorSplit,
    bubble_from_chains,
    chain_decomposition,
    necklace,
    validate,
)
from tensormoments.oracle import per_color_dimensions
from tensormoments.trees import enumerate_trees

WORKLOADS = ("wick", "trees", "angular", "mc")
# The part of the host-speed reference task (hostspeed.py) a workload's times
# are scaled by, and over what: "pass" takes the speed of each pass's own
# process, "run" the median speed over all processes of the run.  The
# single-threaded workloads follow their own process, by the part that does
# the same kind of work.  The wick and trees requests run two worker threads
# on both CPUs, which one process's slices do not describe; the numpy
# part's median over the run was the steadiest scale for them.  (Chosen from
# six runs per workload and scale, of pass and run scales of both parts.)
REFERENCE = {
    "wick": ("numpy", "run"),
    "trees": ("numpy", "run"),
    "angular": ("python", "pass"),
    "mc": ("numpy", "pass"),
}

D = 4
SPLIT = ColorSplit(D, [2, 4])
# The CLI's Monte Carlo chunk size; the FLOP figures below are per chunk.
MC_CHUNK = 512

# Request sizes.  "smoke" runs every code path of a workload in seconds.
WICK = {"full": (8, 8, 8, 8, 9), "smoke": (6, 7)}
TREES = {  # (V, K, number of trees the enumeration must produce)
    "full": ((3, 6, 1134), (4, 5, 2053)),
    "smoke": ((3, 4, 176),),
}
# The m = 6 single box (20 s alone) and n = 9 chains (5 s each) are left
# out: a run must repeat its passes several times to take a median.
ANGULAR = {  # chain lengths; m = len(lengths), n = sum(lengths)
    "full": ((1,) * 5, (1,) * 4, (2, 1, 1, 1), (3, 3, 2), (4, 2, 2), (5, 3)),
    "smoke": ((1, 1, 1), (2, 1), (2, 2, 1)),
}

# Random Monte Carlo bubbles are redrawn until numpy's greedy plan for one
# chunk falls in a FLOP band.  Between random bubbles of the same n the plan
# cost spans five orders of magnitude (2e6 to 2e10 at n = 5, N = 3; 7e5 to
# 4e11 at n = 8, N = 2) and a 2e10 plan takes minutes per chunk, so an
# unrestricted draw could neither finish in time nor cost the same from seed
# to seed.  Each band holds one common plan class: about 48% of n = 5 draws
# and 4% of n = 8 draws.  Rejected draws are reported as
# ``montecarlo.plan_rejections``.
BAND_N5 = (4.0e6, 6.5e6)
BAND_N8 = (3.0e6, 3.5e6)
# One fixed n = 7 bubble whose greedy plan at N = 3 costs 1.6e8 FLOPs per
# chunk, 30-50x the bands above and outside both: the planner cliff the
# bands keep out, at a size that still finishes in about a second.
PLANNER_CLIFF = (
    (1, 2, 3, 4, 5, 6, 7),
    (7, 1, 3, 5, 6, 4, 2),
    (2, 4, 3, 1, 7, 5, 6),
    (6, 4, 7, 1, 3, 5, 2),
)
MC = {  # (shape, n, N, samples, FLOP band of a random draw)
    "full": (
        ("necklace", 3, 6, 12 * 1024, None),
        ("necklace", 2, 3, 20 * 1024, None),
        ("edge_tree", 4, 3, 20 * 1024, None),
        ("random", 5, 3, 40 * 1024, BAND_N5),
        ("random", 8, 2, 20 * 1024, BAND_N8),
        ("planner_cliff", 7, 3, 2 * MC_CHUNK, None),
    ),
    "smoke": (
        ("necklace", 3, 3, 2048, None),
        ("edge_tree", 4, 3, 2048, None),
        ("random", 8, 2, 4096, BAND_N8),
        ("planner_cliff", 7, 3, 2 * MC_CHUNK, None),
    ),
}


def _random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def random_bubble(rng: random.Random, n: int) -> Bubble:
    """Connected d = 4 bubble: colour 1 the identity, the others random."""
    while True:
        maps = (Permutation.identity(n),) + tuple(
            _random_permutation(rng, n) for _ in range(D - 1)
        )
        bubble = Bubble(D, n, maps)
        if validate(bubble).ok:
            return bubble


def chain_bubble(rng: random.Random, lengths) -> Bubble:
    """Connected bubble with exactly ``len(lengths)`` chains of these lengths."""
    m = len(lengths)
    while True:
        maps = {c: _random_permutation(rng, m) for c in SPLIT.row_colors}
        bubble = bubble_from_chains(D, SPLIT, lengths, maps)
        decomp = chain_decomposition(bubble, SPLIT)
        if decomp is not None and decomp.m == m and validate(bubble).ok:
            return bubble


def _einsum_operands(b: Bubble, N: int, batch: int):
    """The batched contraction the Monte Carlo route evaluates, as einsum
    operands on zero arrays: index (c, j) is the colour-c edge into black
    vertex j, white vertex i carries (c, tau_c(i)), index 0 is the batch.

    Used only to choose inputs, so the choice does not change when the
    program's contraction code does; the traced run costs the plans the
    program itself asks for (``tracer.EinsumCalls``)."""
    def idx(c, j):
        return 1 + (c - 1) * b.n + (j - 1)

    whites = [[0] + [idx(c, b.tau(c)(i)) for c in range(1, b.d + 1)] for i in range(1, b.n + 1)]
    blacks = [[0] + [idx(c, j) for c in range(1, b.d + 1)] for j in range(1, b.n + 1)]
    tensor = np.zeros((batch,) + (N,) * b.d, dtype=complex)
    args = []
    for subs in whites + blacks:
        args += [tensor, subs]
    return args + [[0]]


def einsum_plan(b: Bubble, N: int, batch: int = MC_CHUNK) -> tuple[float, float]:
    """(FLOPs, largest intermediate in elements) of numpy's greedy plan for
    one batch, as ``np.einsum_path`` reports them.  A computed figure, not a
    measurement."""
    _, report = np.einsum_path(*_einsum_operands(b, N, batch), optimize="greedy")
    flops = float(re.search(r"Optimized FLOP count:\s*(\S+)", report).group(1))
    largest = float(re.search(r"Largest intermediate:\s*(\S+)", report).group(1))
    return flops, largest


def _edge_tree() -> Bubble:
    """tr_1(tr_3 (MM+)^2 tr_3 (MM+)^2): two chains of length 2."""
    return bubble_from_chains(
        D, SPLIT, (2, 2), {1: Permutation([2, 1]), 3: Permutation([1, 2])}
    )


def _save(bubble: Bubble, directory, index: int) -> str:
    path = f"{directory}/bubble_{index:02d}.json"
    bubble.save(path)
    return path


def _wick(rng, sizes, directory):
    requests = []
    for i, n in enumerate(sizes):
        path = _save(random_bubble(rng, n), directory, i)
        argv = ["expect", path, "--alpha", "2", "--threads", "2"]
        check = {"pairings": math.factorial(n)}
        size = {"n": n, "pairings": math.factorial(n)}
        if i % 2 == 1:
            argv += ["--numeric-N", "3"]
            check["N"] = size["N"] = 3
        requests.append({"argv": argv, "kind": "expect", "check": check, "size": size})
    return requests


def _trees(rng, sizes, directory):
    requests = []
    for v, k, count in sizes:
        # A tree's bubble has n = its total corner label.
        pairings = sum(math.factorial(t.total_label) for t in enumerate_trees(v, k))
        requests.append(
            {
                "argv": ["tree", "--enumerate", str(v), str(k), "--threads", "2"],
                "kind": "tree",
                "check": {"trees": count},
                "size": {"V": v, "K": k, "trees": count, "pairings": pairings},
            }
        )
    return requests


def _angular(rng, sizes, directory):
    requests = []
    for i, lengths in enumerate(sizes):
        path = _save(chain_bubble(rng, lengths), directory, i)
        requests.append(
            {
                "argv": ["effective", path, "--split", "2,4"],
                "kind": "effective",
                "check": {},
                "size": {
                    "n": sum(lengths),
                    "m": len(lengths),
                    "chains": list(lengths),
                },
            }
        )
    return requests


def _mc(rng, sizes, directory):
    requests = []
    rejections = 0
    for i, (shape, n, N, samples, band) in enumerate(sizes):
        if shape == "necklace":
            bubble = necklace(D, SPLIT, n)
        elif shape == "edge_tree":
            bubble = _edge_tree()
        elif shape == "planner_cliff":
            bubble = Bubble(D, n, tuple(Permutation(list(images)) for images in PLANNER_CLIFF))
        else:
            while True:
                bubble = random_bubble(rng, n)
                if band[0] <= einsum_plan(bubble, N)[0] <= band[1]:
                    break
                rejections += 1
        check = {"samples": samples}
        if n > 7:
            # cmd_mc only compares against the exact value up to n = 7.
            check["exact"] = per_color_dimensions(bubble, [N] * D)
        seed = rng.randrange(2**32)
        requests.append(
            {
                "argv": [
                    "mc", _save(bubble, directory, i), "--numeric-N", str(N),
                    "--samples", str(samples), "--seed", str(seed),
                ],
                "kind": "mc",
                "check": check,
                "size": {
                    "shape": shape,
                    "n": n,
                    "N": N,
                    "samples": samples,
                },
            }
        )
    return requests, rejections


def build(workload: str, seed: int, smoke: bool, directory) -> dict:
    """The request list of one workload, with its inputs written to disk."""
    rng = random.Random(f"{workload}:{seed}")
    scale = "smoke" if smoke else "full"
    plan = {"workload": workload, "seed": seed, "scale": scale, "plan_rejections": 0}
    if workload == "wick":
        plan["requests"] = _wick(rng, WICK[scale], directory)
    elif workload == "trees":
        plan["requests"] = _trees(rng, TREES[scale], directory)
    elif workload == "angular":
        plan["requests"] = _angular(rng, ANGULAR[scale], directory)
    elif workload == "mc":
        plan["requests"], rejections = _mc(rng, MC[scale], directory)
        plan["plan_rejections"] = rejections
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return plan
