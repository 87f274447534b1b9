"""Command-line front end: expect, effective, tree, weingarten, wishart, mc.

Every cross-check command prints a PASS/FAIL verdict with both sides'
exact values and exits 0 only when all checks pass.  A ``Refused`` raised
anywhere below a command, where its bound lives, becomes one ``refused:``
line and exit code 2; any other exception is a fault and keeps its
traceback.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _quote

from .algebra import LaurentPoly, Refused, partitions_of
from .bubbles import Bubble, ColorSplit, canonical_key
from .effective import effective_observable, laguerre_reconstruct, wishart_moment_exact
from .oracle import check_size, expectation, gaussian_expectation
from .trees import D as TREE_D
from .trees import CornerLabeledTree, catalan_product, enumerate_trees, tree_to_bubble
from .weingarten import weingarten_table


def _emit(text: str, args) -> None:
    """Print ``text`` and write the same to ``--out`` when given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _leaf(x) -> str:
    """``json.dumps``'s text of a str, None, bool, int, float or empty container."""
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (math.inf, -math.inf):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    if isinstance(x, (list, tuple, dict)) and not x:
        return "{}" if isinstance(x, dict) else "[]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _key(k) -> str:
    """A dict key as ``json.dumps`` writes it: a str, or a scalar's text, quoted."""
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return _quote(_leaf(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _write(x, depth: int, chunks: list[str], levels: list[tuple[str, ...]]) -> None:
    """Append a non-empty list, tuple or dict whose items sit at ``depth``.

    ``levels[depth]`` holds the item separator, "[" and "{" each with the
    newline and indent of ``depth``, and "]" and "}" each after the newline
    and indent of ``depth - 1``; it is built on the first visit.
    """
    append = chunks.append
    if depth == len(levels):
        nl, outer = "\n" + " " * depth, "\n" + " " * (depth - 1)
        levels.append(("," + nl, "[" + nl, "{" + nl, outer + "]", outer + "}"))
    comma, open_list, open_dict, close_list, close_dict = levels[depth]
    if isinstance(x, dict):
        sep = open_dict
        for k, v in x.items():
            head = sep + _key(k) + ": "
            if isinstance(v, (list, tuple, dict)) and v:
                append(head)
                _write(v, depth + 1, chunks, levels)
            else:
                append(head + _leaf(v))
            sep = comma
        append(close_dict)
    else:
        sep = open_list
        for v in x:
            if isinstance(v, (list, tuple, dict)) and v:
                append(sep)
                _write(v, depth + 1, chunks, levels)
            else:
                append(sep + _leaf(v))
            sep = comma
        append(close_list)


def _json(report) -> str:
    """The text of ``json.dumps(report, indent=1)``, written directly.

    With ``indent`` set, ``json`` falls back to its pure-Python encoder.
    This writer appends one chunk per leaf item (its separator, key and
    text joined) to one list, joins the list once, and builds the
    separators of each depth once.  ``_write`` is a plain function, not a
    closure over the list, so no reference cycle keeps the chunks alive
    after the join.
    """
    if not (isinstance(report, (list, tuple, dict)) and report):
        return _leaf(report)
    chunks: list[str] = []
    _write(report, 1, chunks, [("",) * 5])
    return "".join(chunks)


def _load(cls, path):
    """``cls.load(path)`` for a bubble or tree file, malformed files refused."""
    try:
        return cls.load(path)
    except KeyError as exc:
        raise Refused(f"{path}: missing key {exc}") from None
    except (OSError, ValueError, TypeError) as exc:
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
    result = expectation(bubble, alpha=args.alpha)
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
    _emit(_json(report), args)
    print(f"cross-check: {'PASS' if ok else 'FAIL'} "
          f"(angular route {reconstructed} vs oracle {oracle})")
    return 0 if ok else 1


def _tree_rows(trees):
    # Leading coefficient per isomorphism class of bubble, for this call only:
    # isomorphic bubbles have equal Wick sums, so the oracle runs once per class.
    leading = {}
    rows = []
    for t in trees:
        bubble = tree_to_bubble(t)
        predicted = catalan_product(t)
        key = canonical_key(bubble)
        if key not in leading:
            leading[key] = gaussian_expectation(bubble).leading_term()[1]
        coeff = leading[key]
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
# cost.  The sum is a budget, not the work done: ``_tree_rows`` runs the
# oracle once per isomorphism class of the trees' bubbles.  On one core of a
# 2-vCPU Xeon VM, `1 9` (4.1e5 pairings in 9 trees, 9 classes) takes
# 0.17-0.20 s and `5 5` (4.8e5 pairings in 4341 trees, 86 classes)
# 0.63-0.67 s, 0.14 s of it writing the 2.4 MB report.
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
        _emit(_json({"n": args.n, "dim": args.dim, "values": rows}), args)
    return 0


def cmd_wishart(args) -> int:
    row = _parse_dim(args.rows)
    col = _parse_dim(args.cols)
    moment = wishart_moment_exact(args.lengths, row, col)
    if isinstance(moment, LaurentPoly):
        report = {"lengths": args.lengths, "moment": moment.to_records(), "moment_str": str(moment)}
    else:
        report = {"lengths": args.lengths, "moment": str(moment)}
    _emit(_json(report), args)
    return 0


# Largest n whose ``mc`` report adds the oracle's exact value.  The oracle's
# walk takes 0.002 s at n = 7, 0.015-0.02 s at n = 8 and 0.13-0.14 s at n = 9
# (d = 4, one core of a 2-vCPU Xeon VM); the bound fixes which reports carry
# ``exact`` and ``within_5_sigma``.
MC_EXACT_N_MAX = 7


def cmd_mc(args) -> int:
    # The one command that needs numpy imports it here, not at the top.
    from .montecarlo import SampleSpec, estimate_expectation

    bubble = _load(Bubble, args.bubble)
    spec = SampleSpec(
        N=args.numeric_N, samples=args.samples, seed=args.seed, variance=args.variance
    )
    estimate = estimate_expectation(bubble, spec)
    report = estimate.to_json()
    ok = True
    if bubble.n <= MC_EXACT_N_MAX:
        exact = gaussian_expectation(bubble).evaluate(args.numeric_N)
        report["exact"] = float(exact) * args.variance**bubble.n
        ok = abs(estimate.mean - report["exact"]) <= 5 * estimate.stderr
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
