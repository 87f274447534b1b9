"""Command-line front end: expect, effective, tree, weingarten, wishart, mc.

Every cross-check command prints a PASS/FAIL verdict with both sides'
exact values and exits 0 only when all checks pass.  A ``Refused`` raised
anywhere below a command, where its bound lives, becomes one ``refused:``
line and exit code 2; any other exception is a fault and keeps its
traceback.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from .algebra import LaurentPoly, Refused, approx, catalan, partitions_of
from .bubbles import Bubble, ColorSplit
from .effective import effective_observable, laguerre_reconstruct, wishart_moment_exact
from .oracle import DEFAULT_N_MAX, check_size, gaussian_expectation
from .trees import D as TREE_D
from .trees import CornerLabeledTree, enumerate_trees, glue, glued_bubble, glued_key
from .weingarten import weingarten_table


def _emit(text: str, args) -> None:
    """Print ``text`` and write the same to ``--out`` when given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _load(cls, path):
    """``cls.load(path)`` for a bubble or tree file, malformed files refused."""
    try:
        return cls.load(path)
    except KeyError as exc:
        raise Refused(f"{path}: missing key {exc}") from None
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise Refused(f"{path}: {exc}") from None


def _parse_dim(text: str):
    """'N', 'N^k' with k >= 1 or a positive integer."""
    try:
        if text.startswith("N"):
            power = 1 if text == "N" else int(text.split("^", 1)[1])
            if power >= 1:
                return LaurentPoly.monomial(power)
        elif int(text) >= 1:
            return int(text)
    except (ValueError, IndexError):
        pass
    raise Refused(f"dimension {text!r}: expected N, N^k with k >= 1 or a positive integer")


def cmd_expect(args) -> int:
    bubble = _load(Bubble, args.bubble)
    if args.numeric_N is not None and args.numeric_N < 1:
        raise Refused(f"--numeric-N must be positive, got {args.numeric_N}")
    # Covariance N^-alpha scales every pairing by N^(-alpha n).
    raw = gaussian_expectation(bubble)
    scaled = raw.shift(-args.alpha * bubble.n)
    exp, coeff = scaled.leading_term()
    dominant, count = raw.leading_term()
    report = {
        "raw": raw.to_records(),
        "alpha": args.alpha,
        "scaled": scaled.to_records(),
        "leading": {"exp": exp, "coeff": str(coeff)},
        "dominant": {"exp": dominant, "count": int(count)},
        "raw_str": str(raw),
        "scaled_str": str(scaled),
    }
    if args.numeric_N is not None:
        report["value_at_N"] = int(raw.evaluate(args.numeric_N))
    _emit(json.dumps(report, indent=1), args)
    return 0


def cmd_effective(args) -> int:
    bubble = _load(Bubble, args.bubble)
    try:
        split = ColorSplit(bubble.d, [int(c) for c in args.split.split(",")])
    except ValueError as exc:
        raise Refused(f"--split {args.split}: {exc}") from None
    # Refusals before any enumeration: the oracle's size bound (which also
    # keeps the Wishart moments in range), then the angular route's bounds.
    check_size(bubble.n, bubble.d)
    expansion = effective_observable(bubble, split)
    oracle = gaussian_expectation(bubble)
    reconstructed = laguerre_reconstruct(expansion)
    ok = reconstructed == oracle
    report = {
        "expansion": expansion.to_json(),
        "expansion_str": str(expansion),
        "reconstructed": reconstructed.to_records(),
        "oracle": oracle.to_records(),
        "cross_check": "PASS" if ok else "FAIL",
    }
    _emit(json.dumps(report, indent=1), args)
    print(f"cross-check: {'PASS' if ok else 'FAIL'} "
          f"(angular route {reconstructed} vs oracle {oracle})")
    return 0 if ok else 1


def _tree_text(t, indent: int, memo: dict) -> tuple[str, int]:
    """``json.dumps(t.to_json(), indent=1)``'s text with its keys at ``indent``,
    and t's Catalan product.

    Memoised per (subtree, indent) in ``memo``: enumerated trees share their
    subtrees.  The key is the subtree's id, so each entry also holds the
    subtree, which keeps the id from being reused while ``memo`` lives.
    """
    hit = memo.get((id(t), indent))
    if hit is None:
        nl = "\n" + " " * indent
        sep = ",\n" + " " * (indent + 1)  # between the items of a list keyed at ``indent``
        product = catalan(t.k)
        children = []
        for child in t.children:
            text, sub = _tree_text(child, indent + 2, memo)
            children.append(text)
            product *= sub
        labels = "[" + sep[1:] + sep.join(map(str, t.labels)) + nl + "]"
        listed = "[" + sep[1:] + sep.join(children) + nl + "]" if children else "[]"
        text = f'{{{nl}"color": {t.color},{nl}"labels": {labels},{nl}"children": {listed}{nl[:-1]}}}'
        hit = memo[id(t), indent] = (text, product, t)
    return hit[0], hit[1]


def _tree_rows(trees) -> list[tuple[str, int, int, int, str]]:
    """One row per tree: (tree text, n, predicted, oracle_leading_coeff, verdict).

    Each tree is glued once and keyed from its glued lists.  The leading
    coefficient is kept per isomorphism class of bubble, for this call
    only: isomorphic bubbles have equal Wick sums, so the oracle runs, and
    the bubble is built, once per class.  The tree text is the one the
    report writes at a row's depth.
    """
    leading = {}
    memo = {}
    rows = []
    for t in trees:
        glued = glue(t)
        key = glued_key(glued)
        coeff = leading.get(key)
        if coeff is None:
            coeff = leading[key] = gaussian_expectation(glued_bubble(glued)).leading_term()[1]
        text, predicted = _tree_text(t, 4, memo)
        verdict = "PASS" if coeff == predicted else "FAIL"
        rows.append((text, len(glued[0]), predicted, int(coeff), verdict))
    return rows


def _tree_report(rows, ok: bool) -> str:
    """``json.dumps({"trees": [...], "all_pass": ok}, indent=1)`` of ``_tree_rows``'s rows.

    The rows (one or more) are written by one template, not by ``json``:
    with ``indent`` set, ``json.dumps`` runs its pure-Python encoder, slow
    on the megabytes of an enumeration's report.
    """
    items = ",".join(
        f'\n  {{\n   "tree": {text},\n   "n": {n},\n   "predicted": {predicted},'
        f'\n   "oracle_leading_coeff": {coeff},\n   "verdict": "{verdict}"\n  }}'
        for text, n, predicted, coeff, verdict in rows
    )
    return f'{{\n "trees": [{items}\n ],\n "all_pass": {"true" if ok else "false"}\n}}'


# Wick pairings (sum of n! over the trees) one ``tree --enumerate`` may
# cost.  The sum is a budget, not the work done: ``_tree_rows`` runs the
# oracle once per isomorphism class of the trees' bubbles.  On one core of a
# 2-vCPU Xeon VM, the whole command in a fresh process, `1 9` (4.1e5
# pairings in 9 trees, 9 classes) takes 0.17-0.19 s and `5 5` (4.8e5
# pairings in 4341 trees, 86 classes) 0.36-0.39 s, 0.05 s of it writing
# the 2.4 MB report.
TREE_PAIRINGS_MAX = 10**6


def cmd_tree(args) -> int:
    # A tree's bubble has n = its total label: the oracle's bound is checked
    # before any tree is enumerated.
    if args.enumerate and args.tree is not None:
        raise Refused("provide a tree file or --enumerate V K, not both")
    if args.enumerate:
        v, k = args.enumerate
        check_size(k, TREE_D)
        # The sum only grows, so it is checked as the trees come: a refused
        # enumeration stops at the tree that passes the budget.
        trees, pairings = [], 0
        for t in enumerate_trees(v, k):
            trees.append(t)
            pairings += math.factorial(t.total_label)
            if pairings > TREE_PAIRINGS_MAX:
                raise Refused(
                    f"--enumerate {v} {k}: the first {len(trees)} trees already need "
                    f"~{pairings:.1e} Wick pairings, over the budget {TREE_PAIRINGS_MAX:.0e}"
                )
    elif args.tree is None:
        raise Refused("provide a tree file or --enumerate V K")
    else:
        tree = _load(CornerLabeledTree, args.tree)
        check_size(tree.total_label, TREE_D)
        trees = [tree]
    rows = _tree_rows(trees)
    ok = all(verdict == "PASS" for *_, verdict in rows)
    if args.csv:
        lines = ["n,predicted,oracle_leading_coeff,verdict"] + [
            f"{n},{predicted},{coeff},{verdict}" for _, n, predicted, coeff, verdict in rows
        ]
        _emit("\n".join(lines), args)
    else:
        _emit(_tree_report(rows, ok), args)
    return 0 if ok else 1


def cmd_weingarten(args) -> int:
    dim = _parse_dim(args.dim)
    table = weingarten_table(args.n, dim)
    rows = []
    for p in partitions_of(args.n):
        value = table[p]
        rows.append(
            {
                "class": list(p.parts),
                "value": value.to_records() if hasattr(value, "to_records") else str(value),
                "value_str": str(value),
            }
        )
    if args.csv:
        lines = ["class,value"] + [f"\"{r['class']}\",\"{r['value_str']}\"" for r in rows]
        _emit("\n".join(lines), args)
    else:
        _emit(json.dumps({"n": args.n, "dim": args.dim, "values": rows}, indent=1), args)
    return 0


def cmd_wishart(args) -> int:
    row = _parse_dim(args.rows)
    col = _parse_dim(args.cols)
    moment = wishart_moment_exact(args.lengths, row, col)
    if isinstance(moment, LaurentPoly):
        report = {"lengths": args.lengths, "moment": moment.to_records(), "moment_str": str(moment)}
    else:
        report = {"lengths": args.lengths, "moment": str(moment)}
    _emit(json.dumps(report, indent=1), args)
    return 0


def cmd_mc(args) -> int:
    # The one command that needs numpy imports it here, not at the top.
    from .montecarlo import SampleSpec, estimate_expectation

    bubble = _load(Bubble, args.bubble)
    spec = SampleSpec(
        N=args.numeric_N, samples=args.samples, seed=args.seed, variance=args.variance
    )
    # Within the oracle's bound the report adds its exact value; past it, the
    # estimate alone.  The oracle's bounds are checked before any sample is
    # drawn: ``check_size`` refuses a d*n over its byte bound.
    if bubble.n <= DEFAULT_N_MAX:
        check_size(bubble.n, bubble.d)
    estimate = estimate_expectation(bubble, spec)
    report = estimate.to_json()
    ok = True
    if bubble.n <= DEFAULT_N_MAX:
        exact = float(gaussian_expectation(bubble).evaluate(args.numeric_N))
        try:
            report["exact"] = exact * args.variance**bubble.n
        except OverflowError:  # variance**n past a double
            report["exact"] = math.inf
        if report["exact"] == math.inf:
            ln = math.log(exact) + bubble.n * math.log(args.variance)
            raise Refused(f"the exact value {approx(ln, 3)} overflows a double")
        ok = abs(estimate.mean - report["exact"]) <= 5 * estimate.stderr
        report["within_5_sigma"] = "PASS" if ok else "FAIL"
    _emit(json.dumps(report, indent=1), args)
    return 0 if ok else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process: ``parse_args`` makes a
    new namespace on each call, so no call sees another's arguments."""
    parser = argparse.ArgumentParser(
        prog="tensormoments",
        description="Gaussian expectations of random-tensor bubble observables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect", help="exact Wick-enumeration expectation")
    p.add_argument("bubble")
    p.add_argument("--alpha", type=int, default=0, help="covariance exponent")
    p.add_argument("--numeric-N", type=int, default=None)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("effective", help="angular integration + cross-check")
    p.add_argument("bubble")
    p.add_argument("--split", default="2,4", help="comma-separated column colors")
    p.set_defaults(func=cmd_effective)

    p = sub.add_parser("tree", help="Catalan-product law on tree observables")
    p.add_argument("tree", nargs="?", default=None)
    p.add_argument("--enumerate", nargs=2, type=int, metavar=("V", "K"), default=None)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("weingarten", help="Weingarten table for S_n")
    p.add_argument("n", type=int)
    p.add_argument("--dim", default="N^2", help="'N^k' or an integer")
    p.set_defaults(func=cmd_weingarten)

    p = sub.add_parser("wishart", help="complex Wishart trace moments")
    p.add_argument("lengths", nargs="+", type=int)
    p.add_argument("--rows", default="N^2")
    p.add_argument("--cols", default="N^2")
    p.set_defaults(func=cmd_wishart)

    p = sub.add_parser("mc", help="Monte Carlo estimate")
    p.add_argument("bubble")
    p.add_argument("--numeric-N", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variance", type=float, default=1.0)
    p.set_defaults(func=cmd_mc)

    # Each subcommand takes only the flags it reads, except --threads: no code
    # reads it, and it stays accepted where existing command lines pass it.
    for name in ("expect", "effective", "tree"):
        sub.choices[name].add_argument("--threads", type=int, help="ignored; enumeration is serial")
    for name in ("tree", "weingarten"):
        sub.choices[name].add_argument("--csv", action="store_true")
    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write the report to this file too")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if args.out:  # refused before any work; a new file is not left behind
            existed = os.path.exists(args.out)
            try:
                open(args.out, "a").close()
            except OSError as exc:
                raise Refused(f"--out {args.out}: {exc.strerror}") from None
            if not existed:
                os.remove(args.out)
        code = args.func(args)
    except Refused as exc:
        print(f"refused: {args.command}: {exc}", file=sys.stderr)
        code = 2
    elapsed = time.perf_counter() - start
    print(f"done in {elapsed:.3f}s (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
