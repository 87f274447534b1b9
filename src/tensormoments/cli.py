"""Command-line front end: expect, effective, tree, weingarten, wishart, mc.

Every cross-check command prints a PASS/FAIL verdict with both sides'
exact values and exits 0 only when all checks pass.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .algebra import LaurentPoly, partitions_of
from .bubbles import Bubble, ColorSplit, NotChainExpressible
from .effective import effective_observable, laguerre_reconstruct, wishart_moment_exact
from .montecarlo import SampleSpec, estimate_expectation
from .oracle import DEFAULT_N_MAX as ORACLE_N_MAX
from .oracle import BubbleTooLarge, expectation, gaussian_expectation, per_color_dimensions
from .trees import D as TREE_D
from .trees import CornerLabeledTree, catalan_product, enumerate_trees, tree_to_bubble
from .weingarten import weingarten_table


def _emit(text: str, args) -> None:
    """Print ``text`` and write the same to ``--out`` when given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _json(report: dict) -> str:
    return json.dumps(report, indent=1)


class _InputError(Exception):
    """Malformed command-line input, reported as a one-line refusal."""


def _load(cls, path):
    """``cls.load(path)`` for a bubble or tree file, malformed files refused."""
    try:
        return cls.load(path)
    except KeyError as exc:
        raise _InputError(f"{path}: missing key {exc}") from None
    except (OSError, ValueError, TypeError) as exc:
        raise _InputError(f"{path}: {exc}") from None


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
    raise _InputError(f"dimension {text!r}: expected N, N^k with k >= 1 or a positive integer")


def cmd_expect(args) -> int:
    bubble = _load(Bubble, args.bubble)
    if args.numeric_N is not None and args.numeric_N < 1:
        raise _InputError(f"--numeric-N must be positive, got {args.numeric_N}")
    try:
        result = expectation(bubble, alpha=args.alpha, threads=args.threads)
    except BubbleTooLarge as exc:
        raise _InputError(str(exc)) from None
    exp, count = result.raw.leading_term()
    report = result.to_json()
    report["dominant"] = {"exp": exp, "count": int(count)}
    report["raw_str"] = str(result.raw)
    report["scaled_str"] = str(result.scaled)
    if args.numeric_N is not None:
        report["value_at_N"] = int(result.raw.evaluate(args.numeric_N))
    _emit(_json(report), args)
    return 0


def cmd_effective(args) -> int:
    bubble = _load(Bubble, args.bubble)
    try:
        split = ColorSplit(bubble.d, [int(c) for c in args.split.split(",")])
    except ValueError as exc:
        raise _InputError(f"--split {args.split}: {exc}") from None
    # Refusals before any enumeration: the oracle's size bound (which also
    # keeps the Wishart moments in range), then the angular route's bounds.
    if bubble.n > ORACLE_N_MAX:
        raise _InputError(str(BubbleTooLarge(bubble.n, bubble.d)))
    try:
        expansion = effective_observable(bubble, split)
    except NotChainExpressible as exc:
        raise _InputError(f"not chain-expressible: {exc}") from None
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    oracle = gaussian_expectation(bubble, threads=args.threads)
    row_dim = LaurentPoly.monomial(split.d - len(split.column_colors))
    col_dim = LaurentPoly.monomial(len(split.column_colors))
    reconstructed = laguerre_reconstruct(expansion, row_dim, col_dim)
    ok = reconstructed == oracle
    report = {
        "expansion": expansion.to_json(),
        "expansion_str": str(expansion),
        "reconstructed": reconstructed.to_records(),
        "oracle": oracle.to_records(),
        "cross_check": "PASS" if ok else "FAIL",
    }
    _emit(_json(report), args)
    print(f"cross-check: {'PASS' if ok else 'FAIL'} "
          f"(angular route {reconstructed} vs oracle {oracle})")
    return 0 if ok else 1


def _tree_rows(trees, threads):
    rows = []
    for t in trees:
        bubble = tree_to_bubble(t)
        predicted = catalan_product(t)
        _, coeff = gaussian_expectation(bubble, threads=threads).leading_term()
        rows.append(
            {
                "tree": t.to_json(),
                "n": bubble.n,
                "predicted": predicted,
                "oracle_leading_coeff": int(coeff),
                "verdict": "PASS" if coeff == predicted else "FAIL",
            }
        )
    return rows


# Wick pairings (sum of n! over the trees) one ``tree --enumerate`` may
# cost: about 4 s of enumeration on one core of a 2-vCPU Xeon VM.
TREE_PAIRINGS_MAX = 10**6


def _check_tree_size(total_label: int, source: str) -> None:
    """A tree's bubble has n = total label; refuse n over the oracle bound."""
    if total_label > ORACLE_N_MAX:
        raise _InputError(f"{source}: {BubbleTooLarge(total_label, TREE_D)}")


def cmd_tree(args) -> int:
    if args.enumerate:
        v, k = args.enumerate
        _check_tree_size(k, f"--enumerate {v} {k}")
        try:
            trees = list(enumerate_trees(v, k))
        except ValueError as exc:
            raise _InputError(f"--enumerate {v} {k}: {exc}") from None
        pairings = sum(math.factorial(t.total_label) for t in trees)
        if pairings > TREE_PAIRINGS_MAX:
            raise _InputError(
                f"--enumerate {v} {k}: {len(trees)} trees need ~{pairings:.1e} Wick "
                f"pairings, over the budget {TREE_PAIRINGS_MAX:.0e}"
            )
    elif args.tree is None:
        raise _InputError("tree: provide a tree file or --enumerate V K")
    else:
        tree = _load(CornerLabeledTree, args.tree)
        _check_tree_size(tree.total_label, args.tree)
        if tree.color != 1:
            raise _InputError(f"{args.tree}: root insertion color must be 1, got {tree.color}")
        trees = [tree]
    rows = _tree_rows(trees, args.threads)
    ok = all(r["verdict"] == "PASS" for r in rows)
    if args.csv:
        lines = ["n,predicted,oracle_leading_coeff,verdict"] + [
            f"{r['n']},{r['predicted']},{r['oracle_leading_coeff']},{r['verdict']}" for r in rows
        ]
        _emit("\n".join(lines), args)
    else:
        _emit(_json({"trees": rows, "all_pass": ok}), args)
    return 0 if ok else 1


def cmd_weingarten(args) -> int:
    dim = _parse_dim(args.dim)
    try:
        table = weingarten_table(args.n, dim)
    except ValueError as exc:
        raise _InputError(f"weingarten {args.n} --dim {args.dim}: {exc}") from None
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
        _emit(_json({"n": args.n, "dim": args.dim, "values": rows}), args)
    return 0


def cmd_wishart(args) -> int:
    row = _parse_dim(args.rows)
    col = _parse_dim(args.cols)
    try:
        moment = wishart_moment_exact(args.lengths, row, col)
    except ValueError as exc:
        raise _InputError(f"wishart {' '.join(map(str, args.lengths))}: {exc}") from None
    if isinstance(moment, LaurentPoly):
        report = {"lengths": args.lengths, "moment": moment.to_records(), "moment_str": str(moment)}
    else:
        report = {"lengths": args.lengths, "moment": str(moment)}
    _emit(_json(report), args)
    return 0


def cmd_mc(args) -> int:
    bubble = _load(Bubble, args.bubble)
    try:
        spec = SampleSpec(
            N=args.numeric_N,
            d=bubble.d,
            samples=args.samples,
            seed=args.seed,
            variance=args.variance,
        )
    except ValueError as exc:
        raise _InputError(f"mc: {exc}") from None
    try:
        estimate = estimate_expectation(bubble, spec)
    except ValueError as exc:
        raise _InputError(f"mc: {exc}") from None
    report = estimate.to_json()
    ok = True
    if bubble.n <= 7:
        exact = per_color_dimensions(bubble, [args.numeric_N] * bubble.d)
        exact_scaled = float(exact) * args.variance**bubble.n
        report["exact"] = exact_scaled
        deviation = abs(estimate.mean - exact_scaled)
        ok = deviation <= 5 * estimate.stderr
        report["within_5_sigma"] = "PASS" if ok else "FAIL"
    _emit(_json(report), args)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
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

    # Each subcommand takes only the flags it reads.
    for name in ("expect", "effective", "tree"):
        sub.choices[name].add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility; Wick enumeration is serial",
        )
    for name in ("tree", "weingarten"):
        sub.choices[name].add_argument("--csv", action="store_true")
    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write the report to this file too")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except _InputError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        code = 2
    elapsed = time.perf_counter() - start
    print(f"done in {elapsed:.3f}s (exit {code})", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
