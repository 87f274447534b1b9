"""Command-line interface: verdicts, exit codes, output determinism."""
import json

import pytest

from tensormoments.algebra import LaurentPoly, RationalFunc
from tensormoments.bubbles import Bubble, ColorSplit, necklace
from tensormoments.cli import main
from tensormoments.trees import CornerLabeledTree

from conftest import edge_tree_bubble

SPLIT = ColorSplit(4, [2, 4])
N = LaurentPoly.monomial(1)


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

    def test_reruns_byte_identical(self, capsys, bubble_file):
        path = bubble_file(necklace(4, SPLIT, 2))
        args = ("mc", path, "--numeric-N", "2", "--samples", "2000", "--seed", "3")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2


DIPOLE = '{"d": 4, "n": 1, "colors": {"1": [1], "2": [1], "3": [1], "4": [1]}}'

MALFORMED = {
    "missing_color_key": ("expect", '{"d": 2, "n": 1, "colors": {"1": [1]}}', ()),
    "not_a_bijection": ("expect", '{"d": 1, "n": 2, "colors": {"1": [1, 1]}}', ()),
    "invalid_json": ("expect", '{"d": 4, "n":', ()),
    "missing_file": ("expect", None, ()),
    "tree_label_count": ("tree", '{"color": 1, "labels": [1, 1], "children": []}', ()),
    "expect_numeric_N_zero": ("expect", DIPOLE, ("--numeric-N", "0")),
    "mc_numeric_N_zero": ("mc", DIPOLE, ("--numeric-N", "0")),
    "split_on_d1": ("effective", '{"d": 1, "n": 1, "colors": {"1": [1]}}', ("--split", "1")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_refused(case, capsys, tmp_path):
    command, text, extra = MALFORMED[case]
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    code = main([command, str(path), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    reasons = [line for line in err.splitlines() if line.startswith("refused: ")]
    assert len(reasons) == 1, err
