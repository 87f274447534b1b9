"""Command-line interface: verdicts, exit codes, output determinism."""
import argparse
import hashlib
import json
import random
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from tensormoments import cli, effective, montecarlo, oracle
from tensormoments.algebra import LaurentPoly, Permutation, RationalFunc, Refused
from tensormoments.bubbles import Bubble, ColorSplit, bubble_from_chains, necklace
from tensormoments.cli import build_parser, main
from tensormoments.trees import CornerLabeledTree, catalan_product, enumerate_trees, tree_to_bubble
from tensormoments.weingarten import _weingarten_table

from conftest import canonical_key, edge_tree_bubble, fresh_process

SPLIT = ColorSplit(4, [2, 4])
N = LaurentPoly.monomial(1)
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def bubble_file(tmp_path):
    def save(b: Bubble, name="bubble.json"):
        path = tmp_path / name
        b.save(path)
        return str(path)

    return save


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def first_json(out: str) -> dict:
    decoder = json.JSONDecoder()
    data, _ = decoder.raw_decode(out)
    return data


class TestExpect:
    def test_edge_tree_scaled(self, capsys, bubble_file):
        path = bubble_file(edge_tree_bubble(1, 1))
        code, out = run(capsys, "expect", path, "--alpha", "2")
        assert code == 0
        report = first_json(out)
        assert report["raw_str"] == "N^7 + N^5"
        assert report["scaled_str"] == "N^3 + N^1"
        assert report["dominant"] == {"exp": 7, "count": 1}

    def test_dipole_numeric(self, capsys, bubble_file):
        b = Bubble(4, 1, tuple(necklace(4, SPLIT, 1).color_maps))
        path = bubble_file(b)
        code, out = run(capsys, "expect", path, "--numeric-N", "3")
        assert code == 0
        report = first_json(out)
        assert report["raw_str"] == "N^4"
        assert report["value_at_N"] == 81

    def test_refusal_exit_code(self, capsys, bubble_file):
        path = bubble_file(necklace(4, SPLIT, 12))
        code, _ = run(capsys, "expect", path)
        assert code == 2


class TestEffective:
    def test_edge_tree_cross_check_passes(self, capsys, bubble_file, tmp_path):
        path = bubble_file(edge_tree_bubble(1, 1))
        out_path = tmp_path / "report.json"
        code, out = run(capsys, "effective", path, "--out", str(out_path))
        assert code == 0
        assert "cross-check: PASS" in out
        report = json.loads(out_path.read_text())
        assert report["cross_check"] == "PASS"
        coeff = RationalFunc(N, LaurentPoly.monomial(2) + 1).to_records()
        by_powers = {tuple(e["powers"]): e["coeff"] for e in report["expansion"]}
        assert by_powers == {(2,): coeff, (1, 1): coeff}

    def test_not_expressible_exit_code(self, capsys, bubble_file):
        from tensormoments.algebra import Permutation

        b = Bubble(
            4,
            2,
            (
                Permutation.identity(2),
                Permutation([2, 1]),
                Permutation.identity(2),
                Permutation.identity(2),
            ),
        )
        code, _ = run(capsys, "effective", bubble_file(b))
        assert code == 2


class TestTree:
    def test_enumerate_all_pass(self, capsys):
        code, out = run(capsys, "tree", "--enumerate", "2", "3")
        assert code == 0
        report = first_json(out)
        assert report["all_pass"] is True
        assert all(r["verdict"] == "PASS" for r in report["trees"])

    def test_single_tree_file(self, capsys, tmp_path):
        t = CornerLabeledTree(1, (1, 1), (CornerLabeledTree(1, (1,)),))
        path = tmp_path / "tree.json"
        t.save(path)
        code, out = run(capsys, "tree", str(path), "--csv")
        assert code == 0
        assert "3,2,2,PASS" in out  # n=3 whites, predicted Cat_2*Cat_1 = 2

    def test_missing_arguments(self, capsys):
        code, _ = run(capsys, "tree")
        assert code == 2


class TestWeingarten:
    def test_n2_table(self, capsys):
        code, out = run(capsys, "weingarten", "2", "--dim", "N")
        assert code == 0
        report = first_json(out)
        values = {tuple(r["class"]): r["value_str"] for r in report["values"]}
        m2 = N * N
        assert values[(1, 1)] == str(RationalFunc(1, m2 - 1))
        assert values[(2,)] == str(RationalFunc(-1, N * (m2 - 1)))

    def test_numeric_dim(self, capsys):
        code, out = run(capsys, "weingarten", "2", "--dim", "5")
        assert code == 0
        report = first_json(out)
        values = {tuple(r["class"]): r["value_str"] for r in report["values"]}
        assert values[(1, 1)] == "1/24"
        assert values[(2,)] == "-1/120"


    def test_n8_symbolic_table_in_seconds(self, capsys):
        _weingarten_table.cache_clear()
        start = time.perf_counter()
        code, out = run(capsys, "weingarten", "8", "--dim", "N")
        assert time.perf_counter() - start < 10
        assert code == 0
        assert len(first_json(out)["values"]) == 22


class TestWishart:
    def test_symbolic(self, capsys):
        code, out = run(capsys, "wishart", "2", "--rows", "N", "--cols", "N")
        assert code == 0
        assert first_json(out)["moment_str"] == "2*N^3"

    def test_numeric(self, capsys):
        code, out = run(capsys, "wishart", "1", "1", "--rows", "3", "--cols", "5")
        assert code == 0
        assert first_json(out)["moment"] == "240"


class TestMonteCarlo:
    def test_within_5_sigma(self, capsys, bubble_file):
        path = bubble_file(edge_tree_bubble(1, 1))
        code, out = run(
            capsys, "mc", path, "--numeric-N", "2", "--samples", "4000", "--seed", "7"
        )
        assert code == 0
        report = first_json(out)
        assert report["exact"] == 160.0
        assert report["within_5_sigma"] == "PASS"

    def test_past_numpy_einsum_labels(self, capsys, bubble_file):
        # d*n + 1 = 53 labels: more than numpy's einsum alphabet.
        path = bubble_file(necklace(4, SPLIT, 13))
        code, out = run(capsys, "mc", path, "--numeric-N", "2", "--seed", "5")
        assert code == 0
        assert first_json(out)["samples"] == 100_000

    def test_exact_value_up_to_the_oracle_bound(self, capsys, bubble_file, monkeypatch):
        args = ("--numeric-N", "2", "--samples", "1000", "--seed", "1")
        code, out = run(capsys, "mc", bubble_file(necklace(4, SPLIT, 8)), *args)
        report = first_json(out)
        assert code == 0 and report["within_5_sigma"] == "PASS" and "exact" in report
        # Past the oracle's bound the report is the estimate alone, and no
        # Wick pairing is walked.
        _forbid(monkeypatch, oracle, *WICK_WALK)
        past = necklace(4, SPLIT, oracle.DEFAULT_N_MAX + 1)
        code, out = run(capsys, "mc", bubble_file(past), *args)
        report = first_json(out)
        assert code == 0 and report["samples"] == 1000
        assert "exact" not in report and "within_5_sigma" not in report

    def test_reruns_byte_identical(self, capsys, bubble_file):
        path = bubble_file(necklace(4, SPLIT, 2))
        args = ("mc", path, "--numeric-N", "2", "--samples", "2000", "--seed", "3")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2


DIPOLE = '{"d": 4, "n": 1, "colors": {"1": [1], "2": [1], "3": [1], "4": [1]}}'


def single_box_chains(m: int) -> str:
    """m single-box chains: colour 3 shifts every box to the next one."""
    shift = Permutation([*range(2, m + 1), 1])
    return json.dumps(
        bubble_from_chains(4, SPLIT, (1,) * m, {1: Permutation.identity(m), 3: shift}).to_json()
    )


def random_bubble_json(seed, d: int, n: int) -> str:
    """A bubble of d colour maps drawn at random on n vertices, as JSON."""
    rng = random.Random(seed)
    maps = tuple(Permutation(rng.sample(range(1, n + 1), n)) for _ in range(d))
    return json.dumps(Bubble(d, n, maps).to_json())


# Column colours 2 and 4 disagree, so no chains exist for the split (2, 4).
NOT_CHAIN_EXPRESSIBLE = (
    '{"d": 4, "n": 2, "colors": {"1": [1, 2], "2": [2, 1], "3": [1, 2], "4": [1, 2]}}'
)

MALFORMED = {
    "missing_color_key": ("expect", '{"d": 2, "n": 1, "colors": {"1": [1]}}', ()),
    "not_a_bijection": ("expect", '{"d": 1, "n": 2, "colors": {"1": [1, 1]}}', ()),
    "invalid_json": ("expect", '{"d": 4, "n":', ()),
    "missing_file": ("expect", None, ()),
    "tree_label_count": ("tree", '{"color": 1, "labels": [1, 1], "children": []}', ()),
    "expect_numeric_N_zero": ("expect", DIPOLE, ("--numeric-N", "0")),
    "mc_numeric_N_zero": ("mc", DIPOLE, ("--numeric-N", "0")),
    "split_on_d1": ("effective", '{"d": 1, "n": 1, "colors": {"1": [1]}}', ("--split", "1")),
    "mc_no_samples": ("mc", DIPOLE, ("--numeric-N", "2", "--samples", "0")),
    "mc_one_sample": ("mc", DIPOLE, ("--numeric-N", "2", "--samples", "1")),
    "mc_zero_variance": ("mc", DIPOLE, ("--numeric-N", "2", "--variance", "0")),
    "mc_nan_variance": ("mc", DIPOLE, ("--numeric-N", "2", "--variance", "nan")),
    "mc_inf_variance": ("mc", DIPOLE, ("--numeric-N", "2", "--variance", "inf")),
    "tree_over_oracle_bound": ("tree", '{"color": 1, "labels": [10], "children": []}', ()),
    "tree_root_color_3": ("tree", '{"color": 3, "labels": [1], "children": []}', ()),
    # A tree file with --enumerate is refused, not ignored.
    "tree_file_and_enumerate": ("tree", '{"color": 1, "labels": [2]}', ("--enumerate", "1", "1")),
    "effective_nine_chains": ("effective", single_box_chains(9), ()),
    "effective_seven_chains": ("effective", single_box_chains(7), ()),
    "effective_not_chain_expressible": ("effective", NOT_CHAIN_EXPRESSIBLE, ()),
    "effective_over_oracle_bound": ("effective", json.dumps(necklace(4, SPLIT, 10).to_json()), ()),
    # d*n = 260: a pairing's total cycle count would not fit the oracle's byte.
    "expect_total_over_one_byte": (
        "expect", json.dumps(Bubble(52, 5, (Permutation.identity(5),) * 52).to_json()), ()
    ),
    # Every number in bubble or tree JSON is a JSON integer: no bool, float or string.
    "bubble_float_entry": (
        "expect",
        '{"d": 4, "n": 2, "colors": {"1": [1.5, 2], "2": [1, 2], "3": [1, 2], "4": [2, 1]}}',
        (),
    ),
    "bubble_string_entries": ("expect", '{"d": 1, "n": 2, "colors": {"1": ["1", "2"]}}', ()),
    "bubble_string_d": ("expect", '{"d": "1", "n": 1, "colors": {"1": [1]}}', ()),
    "bubble_bool_n": ("expect", '{"d": 1, "n": true, "colors": {"1": [1]}}', ()),
    "tree_float_label": ("tree", '{"color": 1, "labels": [1.7]}', ()),
    "tree_bool_label": ("tree", '{"color": 1, "labels": [true]}', ()),
    "tree_float_color": ("tree", '{"color": 1.0, "labels": [1]}', ()),
    # An unknown key is refused, not dropped.
    "tree_unknown_key": (
        "tree", '{"color": 1, "labels": [1], "childs": [{"color": 3, "labels": [1]}]}', ()
    ),
    "bubble_unknown_color": ("expect", '{"d": 1, "n": 1, "colors": {"1": [1], "5": [1]}}', ()),
    # A negative size is refused when the bubble is built, not left to fail
    # in n! or in an index.
    "bubble_negative_n": ("expect", '{"d": 0, "n": -1, "colors": {}}', ()),
    "mc_negative_n": ("mc", '{"d": 0, "n": -1, "colors": {}}', ("--numeric-N", "2")),
    # One 512-sample chunk of N^4 entries at N = 64 would be ~137 GB.
    "mc_over_memory_budget": (
        "mc", json.dumps(necklace(4, SPLIT, 2).to_json()), ("--numeric-N", "64")
    ),
    # Nine d = 29 dipoles: d*n = 261, over the oracle's byte, refused before
    # any of the 100000 samples is drawn.
    "mc_total_over_one_byte": (
        "mc",
        json.dumps(Bubble(29, 9, (Permutation.identity(9),) * 29).to_json()),
        ("--numeric-N", "1", "--samples", "100000"),
    ),
    # d = 28, n = 9 (d*n = 252): at N = 1 every size is 1, but the plan's
    # intermediates have more axes than numpy's 64.
    "mc_over_numpy_axes": (
        "mc", random_bubble_json("numpy axes", 28, 9), ("--numeric-N", "1", "--samples", "10")
    ),
    # A bubble's colour map is a JSON array, never an object or a string.
    "bubble_color_map_object": ("expect", '{"d": 1, "n": 0, "colors": {"1": {}}}', ()),
    "bubble_color_map_string": ("expect", '{"d": 1, "n": 0, "colors": {"1": ""}}', ()),
    # A tree's children are a JSON array, never an object or a string.
    "tree_children_object": ("tree", '{"color": 1, "labels": [2], "children": {}}', ()),
    "tree_children_string": ("tree", '{"color": 1, "labels": [2], "children": ""}', ()),
    # n = 171: n! ~ 1.2e309 is past float range, so the refusal writes its
    # cost from a log.  effective checks the oracle's bound first.
    "expect_n171": (
        "expect", json.dumps({"d": 1, "n": 171, "colors": {"1": list(range(1, 172))}}), ()
    ),
    "effective_n171": ("effective", json.dumps(necklace(4, SPLIT, 171).to_json()), ()),
    # N = 10^80: the plan's largest array and its FLOPs are past float range.
    "mc_numeric_N_huge": ("mc", DIPOLE, ("--numeric-N", str(10**80), "--samples", "10")),
    # 700 nested vertices: deeper than the reader's recursion limit.
    "tree_nested_too_deep": (
        "tree",
        '{"color": 1, "labels": [1, 1], "children": [' * 700
        + '{"color": 1, "labels": [1]}'
        + "]}" * 700,
        (),
    ),
}


def assert_refused(code, capsys):
    """Exit 2 with exactly one ``refused: ...`` line and no traceback."""
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    reasons = [line for line in err.splitlines() if line.startswith("refused: ")]
    assert len(reasons) == 1, err


# The oracle's entry point and the coset walk it reads.
WICK_WALK = ("wick_histogram", "_coset_rows")


def _forbid(monkeypatch, module, *names):
    """Make each ``module.name`` raise, under every name a tensormoments
    module holds it by."""
    for name in names:
        original = getattr(module, name)

        def forbidden(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called before the refusal")

        for key, mod in list(sys.modules.items()):
            if key == "tensormoments" or key.startswith("tensormoments."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, forbidden)


def malformed_argv(case, tmp_path):
    """The command line of a MALFORMED case, named or given as its
    (command, text, extra), its input written to a file."""
    command, text, extra = MALFORMED[case] if isinstance(case, str) else case
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    return [command, str(path), *extra]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_refused(case, capsys, tmp_path, monkeypatch):
    # A refusal costs no Wick enumeration and no Monte Carlo sample.
    _forbid(monkeypatch, oracle, *WICK_WALK)
    _forbid(monkeypatch, montecarlo, "_draw_pieces")
    assert_refused(main(malformed_argv(case, tmp_path)), capsys)


REFUSED_ARGV = {
    "wishart_over_bound": ("wishart", "10"),
    "wishart_zero_length": ("wishart", "0"),
    "wishart_bad_dim": ("wishart", "2", "--rows", "x"),
    "weingarten_over_bound": ("weingarten", "9"),
    "weingarten_small_dim": ("weingarten", "3", "--dim", "2"),
    "weingarten_dim_N0": ("weingarten", "3", "--dim", "N^0"),
    "weingarten_negative_n": ("weingarten", "-1"),
    "wishart_negative_dim": ("wishart", "2", "--rows", "-3", "--cols", "2"),
    "wishart_zero_dim": ("wishart", "2", "--cols", "0"),
    "wishart_dim_N_negative_power": ("wishart", "2", "--rows", "N^-1"),
    "tree_enumerate_zero_vertices": ("tree", "--enumerate", "0", "3"),
    "tree_enumerate_over_oracle_bound": ("tree", "--enumerate", "1", "10"),
    "tree_no_input": ("tree",),
    "tree_enumerate_over_pairing_budget": ("tree", "--enumerate", "4", "9"),
    # Millions of trees: refused at the tree that passes the budget.
    "tree_enumerate_9_9": ("tree", "--enumerate", "9", "9"),
    # K = 10^6 is over the oracle's bound; the refusal does not form 10^6!.
    "tree_enumerate_huge_K": ("tree", "--enumerate", "1", "1000000"),
    # A seed keys its stream whole, so a negative one is refused, not
    # wrapped modulo 2^64 onto another seed's stream.
    "mc_negative_seed": (
        "mc", str(GOLDEN / "bubble_d4_n5.json"), "--numeric-N", "2", "--seed", "-1"
    ),
    # A repeated colour is not merged into one, and an empty item is no colour.
    "effective_split_repeated_color": (
        "effective", str(GOLDEN / "bubble_d4_n5.json"), "--split", "2,2"
    ),
    "effective_split_empty_item": ("effective", str(GOLDEN / "bubble_d4_n5.json"), "--split", "2,"),
    "effective_split_empty": ("effective", str(GOLDEN / "bubble_d4_n5.json"), "--split", ""),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ARGV))
def test_out_of_range_arguments_refused(case, capsys):
    assert_refused(main(list(REFUSED_ARGV[case])), capsys)


# Monte Carlo past a double: a sample's square (variance 1e30), a sample
# (1e70), or the squared deviations of a d = 1 bubble of 200 dipoles, and
# the exact value alone (1e70, the estimate replaced by a finite one).  At
# d = 1, N = 10 a sample is (|T|^2)^200 with |T|^2 ~ Gamma(10): the squared
# deviations overflow once any |T|^2 > 5.9, and all 64 draws stay below it
# with p < 1e-70; a sample overflows itself past 34.8, and then the mean.
# So the refusal holds on every seed, not on a lucky one.
MC_OVERFLOW = {
    "squares_variance_1e30": ("bubble_d4_n5", "2", "1e30", False),
    "samples_variance_1e70": ("bubble_d4_n5", "2", "1e70", False),
    "deviations_d1_n200": ("d1_n200", "10", "1", False),
    "exact_variance_1e70": ("bubble_d4_n5", "2", "1e70", True),
}


@pytest.mark.parametrize("case", sorted(MC_OVERFLOW))
def test_mc_overflow_refused(case, capsys, bubble_file, monkeypatch):
    name, dim, variance, finite_estimate = MC_OVERFLOW[case]
    if name == "d1_n200":
        path = bubble_file(Bubble(1, 200, (Permutation.identity(200),)))
    else:
        path = str(GOLDEN / f"{name}.json")
    if finite_estimate:
        fake = montecarlo.Estimate(mean=1.0, stderr=1.0, samples=64, seed=7)
        monkeypatch.setattr(montecarlo, "estimate_expectation", lambda b, spec: fake)
    argv = ["mc", path, "--numeric-N", dim, "--samples", "64", "--seed", "7"]
    # Both workers' numpy warnings land here: the warnings filters are global.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--variance", variance])
    out, err = capsys.readouterr()
    # No report, so no Infinity or NaN on stdout; one refusal, no traceback
    # and no numpy overflow warning before it.
    assert (code, out) == (2, "") and "Traceback" not in err
    assert [str(w.message) for w in caught] == [] and "RuntimeWarning" not in err
    (reason,) = [line for line in err.splitlines() if line.startswith("refused: ")]
    assert reason.startswith("refused: mc: ") and "overflows a double" in reason


# A label of 10^9 runs only in a child process: a refusal that formed 10^9!
# would not end, and the child's timeout cuts it.
TREE_LABEL_HUGE = ("tree", '{"color": 1, "labels": [1000000000]}', ())


@pytest.mark.parametrize(
    "case",
    [
        "effective_n171",
        "expect_n171",
        "mc_numeric_N_huge",
        "tree_enumerate_huge_K",
        "tree_label_huge",
    ],
)
def test_huge_sizes_refused_within_a_second(case, tmp_path):
    # Each refusal writes its cost from a log: no overflow past float range
    # and no factorial too large to form.  main's own "done in" line times it.
    if case in REFUSED_ARGV:
        argv = list(REFUSED_ARGV[case])
    else:
        argv = malformed_argv(TREE_LABEL_HUGE if case == "tree_label_huge" else case, tmp_path)
    proc = fresh_process(["-m", "tensormoments.cli", *argv], timeout=10)
    assert proc.returncode == 2, proc.stderr
    # One refusal, then "done in 0.001s (exit 2)": nothing else, no traceback.
    reason, done = proc.stderr.splitlines()
    assert reason.startswith(f"refused: {argv[0]}: ") and done.startswith("done in ")
    assert float(done.split()[2].rstrip("s")) < 1.0


# A container of the wrong JSON type is refused by its field's name, not by
# the error Python raises reading it.
WRONG_CONTAINER = {
    "colors_array": ("expect", '{"d": 1, "n": 1, "colors": [[1]]}', "colors"),
    "colors_string": ("expect", '{"d": 1, "n": 1, "colors": "abc"}', "colors"),
    "labels_int": ("tree", '{"color": 1, "labels": 5}', "labels"),
    "labels_object": ("tree", '{"color": 1, "labels": {"3": 1}}', "labels"),
    "labels_string": ("tree", '{"color": 1, "labels": "7"}', "labels"),
}


@pytest.mark.parametrize("case", sorted(WRONG_CONTAINER))
def test_wrong_container_refused_by_its_field(case, capsys, tmp_path):
    command, text, field = WRONG_CONTAINER[case]
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main([command, str(path)])
    reason = capsys.readouterr().err.splitlines()[0]
    assert code == 2
    assert reason.startswith(f"refused: {command}: {path}: {field} must be a JSON "), reason


@pytest.mark.parametrize("case", [c for c in sorted(REFUSED_ARGV) if "_split_" in c])
def test_bad_split_refused_by_its_form(case, capsys):
    code = main(list(REFUSED_ARGV[case]))
    reason = capsys.readouterr().err.splitlines()[0]
    assert code == 2
    assert reason.endswith(": expected comma-separated distinct colours in 1..4"), reason


def test_enumeration_budget_checked_while_enumerating(capsys, monkeypatch):
    _forbid(monkeypatch, oracle, *WICK_WALK)
    start = time.perf_counter()
    assert_refused(main(["tree", "--enumerate", "9", "9"]), capsys)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "target", ["missing/report.json", "."], ids=["no_directory", "a_directory"]
)
def test_unwritable_out_refused_before_any_work(target, capsys, tmp_path, monkeypatch):
    _forbid(monkeypatch, oracle, *WICK_WALK)
    out = tmp_path / target
    argv = ["effective", str(GOLDEN / "chains_3-3-2.json"), "--split", "2,4", "--out", str(out)]
    assert_refused(main(argv), capsys)
    assert list(tmp_path.iterdir()) == []


def test_refused_command_leaves_no_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    assert_refused(main(["weingarten", "9", "--out", str(out)]), capsys)
    assert not out.exists()


def test_parser_is_built_once_and_keeps_no_arguments(capsys, tmp_path):
    assert build_parser() is build_parser()
    out = tmp_path / "report.json"
    code, first = run(capsys, "weingarten", "2", "--out", str(out))
    assert code == 0 and out.read_text() == first
    out.unlink()
    # The same parser, a new namespace: no --out, and the second call's n.
    code, second = run(capsys, "weingarten", "3")
    assert code == 0 and first_json(second)["n"] == 3
    assert not out.exists()


# The command-line functions that turn a constructor's ValueError (or a
# failed read) into a refusal; every other refusal is raised where its
# bound lives and reaches ``main`` as it was raised.
PARSE_SITES = {"_load", "_parse_dim", "cmd_effective"}


@pytest.mark.parametrize("case", sorted(MALFORMED) + sorted(REFUSED_ARGV))
def test_refusal_raised_at_its_origin(case, tmp_path):
    argv = list(REFUSED_ARGV[case]) if case in REFUSED_ARGV else malformed_argv(case, tmp_path)
    args = build_parser().parse_args(argv)
    with pytest.raises(Refused) as info:
        args.func(args)
    assert type(info.value) is Refused
    assert info.value.__context__ is None or info.traceback[-1].name in PARSE_SITES


def _inject_fault(*args, **kwargs):
    raise ValueError("injected fault")


def _fault_after_first_chunk(
    spec, d, index, count, out, draw_pieces=montecarlo._draw_pieces
):
    # Chunk 0 is drawn by the calling thread's worker and chunk 1 by the
    # other worker's thread; its fault stops the calling thread before its
    # next chunk and is raised in the caller.
    if index == 0:
        return draw_pieces(spec, d, index, count, out)
    raise ValueError("injected fault")


@pytest.mark.parametrize(
    "module, name, fault, argv",
    [
        (montecarlo, "_contract", _inject_fault, ("mc", "--numeric-N", "2", "--samples", "1000")),
        (
            montecarlo,
            "_draw_pieces",
            _fault_after_first_chunk,
            ("mc", "--numeric-N", "2", "--samples", "1000"),
        ),
        (effective, "_orbit_weights", _inject_fault, ("effective",)),
    ],
    ids=["mc_contraction", "mc_sampling", "effective_pair_walk"],
)
def test_fault_is_not_a_refusal(module, name, fault, argv, monkeypatch, capsys, bubble_file):
    monkeypatch.setattr(module, name, fault)
    command, *extra = argv
    threads = threading.active_count()
    with pytest.raises(ValueError, match="injected fault"):
        main([command, bubble_file(edge_tree_bubble(1, 1)), *extra])
    assert "refused: " not in capsys.readouterr().err
    # No sampler thread outlives the call.
    assert threading.active_count() == threads


EMPTY = '{"d": 4, "n": 0, "colors": {"1": [], "2": [], "3": [], "4": []}}'


def test_empty_bubble_is_one_on_all_three_routes(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(EMPTY)
    code, out = run(capsys, "expect", str(path))
    assert code == 0 and first_json(out)["raw_str"] == "1"
    code, out = run(capsys, "effective", str(path))
    assert code == 0 and "cross-check: PASS (angular route 1 vs oracle 1)" in out
    code, out = run(capsys, "mc", str(path), "--numeric-N", "2", "--samples", "10")
    report = first_json(out)
    assert code == 0 and (report["mean"], report["stderr"], report["exact"]) == (1.0, 0.0, 1.0)


GOLDEN_ARGV = {
    "weingarten_5_N2": ("weingarten", "5", "--dim", "N^2"),
    "weingarten_5_11": ("weingarten", "5", "--dim", "11"),
    "effective_1-1-1-1": ("effective", "chains_1-1-1-1.json", "--split", "2,4"),
    "effective_2-1-1-1": ("effective", "chains_2-1-1-1.json", "--split", "2,4"),
    "effective_3-3-2": ("effective", "chains_3-3-2.json", "--split", "2,4"),
    "effective_1-1-1-1-1": ("effective", "chains_1-1-1-1-1.json", "--split", "2,4"),
    "effective_2-2-1-1-1": ("effective", "chains_2-2-1-1-1.json", "--split", "2,4"),
    # Row power q = 3 (four chains) and q = 1 (one chain: a single row colour
    # links every white, so a connected bubble is one chain at this split).
    "effective_split2_1-1-1-1": ("effective", "chains_split2_1-1-1-1.json", "--split", "2"),
    "effective_split234_4": ("effective", "chains_split234_4.json", "--split", "2,3,4"),
    "wishart_3-2-1": ("wishart", "3", "2", "1", "--rows", "N", "--cols", "N^2"),
    "wishart_4-3-2": ("wishart", "4", "3", "2", "--rows", "N^3", "--cols", "N"),
    "tree_enumerate_2_4": ("tree", "--enumerate", "2", "4"),
    "expect_d4_n5": ("expect", "bubble_d4_n5.json", "--alpha", "2", "--numeric-N", "3"),
    # n = 5 is one coset of S_5; n = 9 walks 504 cosets of S_6.  Each row of
    # S_k is joined from rows of S_{k-1}, down to the one row of S_0.
    "expect_d4_n9": ("expect", "bubble_d4_n9.json", "--alpha", "2", "--numeric-N", "3"),
    "mc_d4_n5": ("mc", "bubble_d4_n5.json", "--numeric-N", "2", "--samples", "1024", "--seed", "7"),
    # N = 1: every step a broadcast multiply; 1001 samples end in a short
    # chunk of 489, contracted in halves of 244 and 245.
    "mc_d4_n5_N1": (
        "mc", "bubble_d4_n5.json", "--numeric-N", "1", "--samples", "1001", "--seed", "7"
    ),
    # N = 3: chunk 0 is drawn and contracted in pieces of 89 samples, and
    # the short chunk 1 of 88 in one piece.
    "mc_d4_n5_N3": (
        "mc", "bubble_d4_n5.json", "--numeric-N", "3", "--samples", "600", "--seed", "7"
    ),
    # Variance 0.6: each piece's draws scaled in place by sqrt(0.3).
    "mc_d4_n5_var0.6": (
        "mc", "bubble_d4_n5.json", "--numeric-N", "2", "--samples", "1024", "--seed", "7",
        "--variance", "0.6",
    ),
    # The 3-necklace at N = 6: chunks contracted in pieces of 50 samples, the
    # last piece of each chunk short, and two of five steps reusing a
    # product through ``same``, whose arena slot stays live meanwhile.
    "mc_necklace3_N6": (
        "mc", "necklace_3.json", "--numeric-N", "6", "--samples", "1100", "--seed", "7"
    ),
}


def golden_argv(case: str) -> list[str]:
    return [str(GOLDEN / a) if a.endswith(".json") else a for a in GOLDEN_ARGV[case]]


def test_golden_files_are_the_golden_cases():
    # GOLDEN_ARGV is the one list of goldens: no file in golden/ is outside it.
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(GOLDEN_ARGV)
    named = {a for argv in GOLDEN_ARGV.values() for a in argv if a.endswith(".json")}
    assert {p.name for p in GOLDEN.glob("*.json")} == named


# Each case as a user runs it, in a new process; each mc case also with its
# two workers (the calling thread and one thread) sharing one CPU, where the
# chunks are still reduced on their own and merged in index order.
@pytest.mark.parametrize(
    "case, one_cpu",
    [pytest.param(case, False, id=case) for case in sorted(GOLDEN_ARGV)]
    + [
        pytest.param(case, True, id=f"{case}-one_cpu")
        for case in sorted(GOLDEN_ARGV)
        if GOLDEN_ARGV[case][0] == "mc"
    ],
)
def test_stdout_matches_golden_file(case, one_cpu):
    proc = fresh_process(["-m", "tensormoments.cli", *golden_argv(case)], one_cpu=one_cpu)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{case}.out").read_text()


def test_exact_commands_never_load_numpy():
    # Only mc samples; the exact routes are integer arithmetic, and a fresh
    # process that runs them (every CLI call) does not pay numpy's import.
    cases = sorted(case for case, argv in GOLDEN_ARGV.items() if argv[0] != "mc")
    assert {GOLDEN_ARGV[case][0] for case in cases} == {
        "expect", "effective", "tree", "weingarten", "wishart"
    }
    runs = [golden_argv(c) for c in cases]
    code = (
        "import contextlib, io, json, sys\n"
        "from tensormoments import cli\n"
        "outs = []\n"
        f"for argv in {runs!r}:\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        assert cli.main(argv) == 0\n"
        "    outs.append(buf.getvalue())\n"
        "print(json.dumps(['numpy' in sys.modules, outs]))\n"
    )
    proc = fresh_process(["-c", code])
    assert proc.returncode == 0, proc.stderr
    loaded, outs = json.loads(proc.stdout)
    assert loaded is False
    assert outs == [(GOLDEN / f"{case}.out").read_text() for case in cases]


def test_mc_and_the_lazy_exports_load_numpy():
    argv = golden_argv("mc_d4_n5")
    code = (
        "import contextlib, io, json, sys\n"
        "from tensormoments import cli\n"
        "before = 'numpy' in sys.modules\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "from tensormoments import Estimate, SampleSpec, estimate_expectation\n"
        "print(json.dumps([before, 'numpy' in sys.modules, buf.getvalue()]))\n"
    )
    proc = fresh_process(["-c", code])
    assert proc.returncode == 0, proc.stderr
    before, after, out = json.loads(proc.stdout)
    assert (before, after) == (False, True)
    assert out == (GOLDEN / "mc_d4_n5.out").read_text()


def test_large_tree_report_is_pinned(capsys):
    # The ~1 MB report of ``tree --enumerate 4 5``, pinned by its digest.
    code, out = run(capsys, "tree", "--enumerate", "4", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "881badfcbf6df53700f01a3fbad3ce9db5821ef24d7dfc39c4e809ccfb686cd1"
    )


# Every n = 0..8 Weingarten table at three symbolic and two numeric
# dimensions, and eight Wishart moments at three row and four column
# dimensions, pinned by one digest of (argv, exit code, stdout).
DIGEST_SWEEP = [
    ("weingarten", str(n), "--dim", dim)
    for n in range(9)
    for dim in ("N", "N^2", "N^3", "8", "11")
] + [
    ("wishart", *lengths, "--rows", rows, "--cols", cols)
    for lengths in (
        ("1",), ("2", "1"), ("3", "3", "2"), ("4", "2", "2"),
        ("5", "3"), ("9",), ("2", "2", "2", "1", "1"), ("4", "3", "2"),
    )
    for rows in ("N", "N^2", "3")
    for cols in ("N^2", "N^3", "2", "5")
]


def test_weingarten_and_wishart_sweep_is_pinned(capsys):
    runs = [[list(argv), *run(capsys, *argv)] for argv in DIGEST_SWEEP]
    assert len(runs) == 45 + 96
    digest = hashlib.sha256(json.dumps(runs).encode()).hexdigest()
    assert digest == "50836f58394a824a3117a44b0cc8a7c4ead75e90229eb50b2e13e12aeae35050"


def dict_tree_report(trees, expectation=oracle.gaussian_expectation) -> dict:
    """The tree report as a dict, each row from its own oracle run on
    ``tree_to_bubble(t)``: the shape ``json.dumps`` writes the report from."""
    rows = []
    for t in trees:
        bubble = tree_to_bubble(t)
        _, coeff = expectation(bubble).leading_term()
        predicted = catalan_product(t)
        rows.append(
            {
                "tree": t.to_json(),
                "n": bubble.n,
                "predicted": predicted,
                "oracle_leading_coeff": int(coeff),
                "verdict": "PASS" if coeff == predicted else "FAIL",
            }
        )
    return {"trees": rows, "all_pass": all(r["verdict"] == "PASS" for r in rows)}


def test_tree_rows_equal_the_oracle_tree_by_tree():
    trees = list(enumerate_trees(3, 5))
    assert len(trees) == 493
    expected = dict_tree_report(trees)["trees"]
    for t, row, want in zip(trees, cli._tree_rows(trees), expected, strict=True):
        text, n, predicted, coeff, verdict = row
        assert json.loads(text) == want["tree"] == t.to_json()
        assert (n, predicted, coeff, verdict) == (
            want["n"], want["predicted"], want["oracle_leading_coeff"], want["verdict"]
        )


def test_tree_report_equals_json_dumps_of_the_dict_report(capsys):
    code, out = run(capsys, "tree", "--enumerate", "3", "5")
    report = dict_tree_report(enumerate_trees(3, 5))
    assert len(report["trees"]) == 493 and report["all_pass"] is True
    assert (code, out) == (0, json.dumps(report, indent=1) + "\n")


# Three levels, both insertion colours, an empty corner label and a vertex
# with two children: total label 8.
DEEP_TREE = CornerLabeledTree(
    1,
    (1, 0, 2),
    (CornerLabeledTree(3, (1, 1), (CornerLabeledTree(1, (1,)),)), CornerLabeledTree(3, (2,))),
)


@pytest.mark.parametrize("csv", [False, True], ids=["json", "csv"])
def test_tree_file_report_equals_the_dict_report(csv, capsys, tmp_path):
    path = tmp_path / "tree.json"
    DEEP_TREE.save(path)
    code, out = run(capsys, "tree", str(path), *(["--csv"] if csv else []))
    report = dict_tree_report([DEEP_TREE])
    if csv:
        expected = "n,predicted,oracle_leading_coeff,verdict\n" + "".join(
            f"{r['n']},{r['predicted']},{r['oracle_leading_coeff']},{r['verdict']}\n"
            for r in report["trees"]
        )
    else:
        expected = json.dumps(report, indent=1) + "\n"
    assert report["trees"][0]["n"] == 8
    assert (code, out) == (0, expected)


def test_tree_report_with_a_fail_row(capsys, monkeypatch):
    original = cli.gaussian_expectation

    def doubled_at_n2(bubble):
        return original(bubble) * (2 if bubble.n == 2 else 1)

    monkeypatch.setattr(cli, "gaussian_expectation", doubled_at_n2)
    code, out = run(capsys, "tree", "--enumerate", "2", "3")
    report = dict_tree_report(enumerate_trees(2, 3), doubled_at_n2)
    assert {r["verdict"] for r in report["trees"]} == {"PASS", "FAIL"}
    assert (code, out) == (1, json.dumps(report, indent=1) + "\n")
    assert '"verdict": "FAIL"' in out and '"all_pass": false' in out


def test_tree_enumerate_runs_the_oracle_once_per_class(capsys, monkeypatch):
    keys = []
    original = cli.gaussian_expectation

    def counted(bubble):
        keys.append(canonical_key(bubble))
        return original(bubble)

    monkeypatch.setattr(cli, "gaussian_expectation", counted)
    code, out = run(capsys, "tree", "--enumerate", "3", "6")
    assert code == 0 and len(first_json(out)["trees"]) == 1134
    classes = {canonical_key(tree_to_bubble(t)) for t in enumerate_trees(3, 6)}
    assert len(keys) == len(set(keys)) == len(classes) == 93


@pytest.mark.parametrize("argv", [("tree", "TREE", "--csv"), ("weingarten", "2", "--csv")])
def test_csv_out_file_equals_stdout(argv, capsys, tmp_path):
    tree = tmp_path / "tree.json"
    CornerLabeledTree(1, (1, 1), (CornerLabeledTree(1, (1,)),)).save(tree)
    out_path = tmp_path / "out.csv"
    argv = [str(tree) if a == "TREE" else a for a in argv]
    code, out = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert out.startswith(("n,predicted", "class,value"))
    assert out_path.read_text() == out


CLI_OPTIONS = {
    "expect": {"--alpha", "--numeric-N", "--threads", "--out"},
    "effective": {"--split", "--threads", "--out"},
    "tree": {"--enumerate", "--threads", "--csv", "--out"},
    "weingarten": {"--dim", "--csv", "--out"},
    "wishart": {"--rows", "--cols", "--out"},
    "mc": {"--numeric-N", "--samples", "--seed", "--variance", "--out"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert options == CLI_OPTIONS


# --threads is accepted where existing command lines pass it, and read by no code.
@pytest.mark.parametrize(
    "argv",
    [
        ("expect", "chains_3-3-2.json", "--alpha", "2", "--numeric-N", "3"),
        ("effective", "chains_2-1-1-1.json"),
        ("tree", "--enumerate", "2", "3"),
    ],
    ids=["expect", "effective", "tree"],
)
def test_threads_flag_changes_nothing(argv, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    code, out = run(capsys, *argv)
    assert (code, out) == run(capsys, *argv, "--threads", "2")
    assert code == 0 and out


@pytest.mark.parametrize(
    "argv", [("expect", "b.json", "--csv"), ("mc", "b.json", "--numeric-N", "2", "--threads", "2")]
)
def test_unread_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
