"""Tests of the benchmark itself, on smoke-sized requests.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that every metric BENCHMARK.json declares is printed with its
unit, that a wrong answer is counted as a failure, that the exact counts of
a traced run repeat, that the traced layers hold the work, that einsum
plans are costed from the calls the program makes, and that the benchmark
refuses to run without the package sources.
"""
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EinsumCalls  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The layers that do a workload's work, below cli.main.
BUSY = {
    "wick": ("oracle.",),
    "trees": ("oracle.", "trees."),
    "angular": ("oracle.", "weingarten.", "algebra.", "effective."),
    "mc": ("montecarlo.",),
}


def bench(workload, trace, seed=3, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    table = {
        line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("#")
    }
    return table, json.loads(lines[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    table, result = parse(bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())
    for name, unit in {**run.END_TO_END, **run.SUMMARY_ONLY}.items():
        assert table[name] == unit


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_layers_and_repeats_exact_counts(workload):
    table, first = parse(bench(workload, trace=1, seed=5))
    _, second = parse(bench(workload, trace=1, seed=5))
    assert first["correct"] and second["correct"]
    assert {name: m["unit"] for name, m in first["metrics"].items()} == declared("per_layer")
    for name, unit in declared("per_layer").items():
        assert table[name] == unit
    for name in run.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    values = {name: m["value"] for name, m in first["metrics"].items()}
    self_times = {
        name[: -len(".self_s")]: value
        for name, value in values.items() if name.endswith(".self_s")
    }
    wall = values["trace.wall_s"]
    # The self times, cli.main's included, account for the traced wall time.
    assert sum(self_times.values()) == pytest.approx(wall, rel=0.05)
    # Most of it is in the workload's own layers, not in untraced code.
    busy = sum(v for name, v in self_times.items() if name.startswith(BUSY[workload]))
    assert busy >= 0.8 * wall, self_times
    assert values["trace.cli_self_share"] < 0.2
    assert (values["montecarlo.einsum_flops"] > 0) == (workload == "mc")


def test_einsum_plans_are_costed_from_the_calls_made():
    module = types.SimpleNamespace(np=np)
    calls = EinsumCalls(module)
    a, b = np.ones((6, 7)), np.ones((7, 8))
    for _ in range(3):
        module.np.einsum(a, [0, 1], b, [1, 2], [0, 2], optimize="greedy")
    module.np.einsum("ij,jk->ik", a, b)
    assert len(calls.calls) == 2
    # np.einsum_path counts 673 FLOPs for a 6x7 by 7x8 product, and the
    # 6x8 result is the largest array.
    assert calls.plans() == (4 * 673.0, 48.0)


def test_wrong_expected_value_counts_as_failure(tmp_path):
    plan = workloads.build("wick", 3, True, tmp_path)
    plan["requests"][0]["check"]["pairings"] += 1
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    result = run.Children(tmp_path, time.monotonic() + 60).run(plan_path)
    assert result["attempted"] == len(plan["requests"])
    assert result["failed"] == 1
    assert "expected n!" in result["failures"][0]


def test_same_seed_gives_same_inputs(tmp_path):
    def inputs(directory):
        directory.mkdir()
        plan = workloads.build("mc", 7, True, directory)
        files = sorted(p.read_text() for p in directory.glob("*.json"))
        return [r["argv"][2:] for r in plan["requests"]], files

    assert inputs(tmp_path / "a") == inputs(tmp_path / "b")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("wick", trace=0, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
