"""Benchmark of the tensormoments CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload wick --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload mc --seed 1 --seconds 2 --trace 1 --smoke

The package is imported from the ``src`` directory next to ``perfbench``.
The request list of the workload is drawn from ``--seed`` (see
``workloads.py``) and written as bubble JSON to a temporary directory under
``.bench_tmp/``.  Each pass over the list is one fresh Python process
(``child.py``) that sends the requests through ``tensormoments.cli.main``
one at a time (a closed loop with one client) and checks every answer.

``--trace 0`` starts passes, each after two set-up probes (processes that
only import the package), until ``--seconds`` have gone by, and reports the
end-to-end metrics as medians over the passes and probes.  Times are in
reference seconds: the host's CPU steal is taken out of wall-clock times
(``hoststeal.py``), and every timed process also runs a fixed reference task
by whose speed the times are scaled (``hostspeed.py``), which takes the
drift of a shared host's speed out.  The table also prints the raw
wall-clock time.  ``--trace 1`` makes one untraced and one traced pass
and reports the per-layer metrics of the traced one; its spans go to
``.bench_out/``.
``--smoke`` shrinks every request so that a workload runs in seconds.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit.  Exit codes: 0 every answer was right, 1 an answer was
wrong, 2 the sources are missing, 3 a pass crashed or did not finish in time.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import speed
from hoststeal import cpu_ticks, without_steal
from tracer import TRACED_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# numpy's BLAS gets one thread; the wick and trees requests ask the library
# for two worker threads, so a run stays within the 2 cores it targets.
BLAS_THREADS = 1
PROBES_PER_PASS = 2
# Every child must end within this many seconds of the start of the run.
DEADLINE_S = 170

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Listed with the others but kept out of the JSON result: fail_frac is 0 on
# every correct run (the result carries it as failed / attempted);
# pairings_per_s (wick, trees) and samples_per_s (mc) are a fixed amount of
# work divided by wall_s, so wall_s gates them already; raw_wall_s is wall_s
# in wall-clock seconds, and host_speed the factor that turned one into the
# other (hostspeed.speed, median over passes).
SUMMARY_ONLY = {
    "fail_frac": "ratio",
    "pairings_per_s": "1/s",
    "samples_per_s": "1/s",
    "raw_wall_s": "s",
    "host_speed": "ratio",
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "oracle.pairings_enumerated",
    "oracle.histograms_per_request",
    "oracle.wick_histogram.calls",
    "weingarten.weingarten_exact.calls",
    "algebra.poly_gcd.calls",
    "montecarlo.sample_batch.calls",
    "montecarlo.einsum_flops",
    "montecarlo.largest_intermediate",
)


# Every per-layer metric of a traced run, with its unit.
PER_LAYER = {
    f"{name}.{stat}": unit
    for name in TRACED_NAMES
    for stat, unit in (("s", "s"), ("self_s", "s"), ("calls", "count"))
}
PER_LAYER.update(
    {
        "oracle.pairings_enumerated": "count",
        "oracle.histograms_per_request": "1/request",
        "weingarten.weingarten_exact.cold_s": "s",
        "montecarlo.einsum_flops": "flop.computed",
        "montecarlo.largest_intermediate": "elem.computed",
        "montecarlo.plan_rejections": "count",
        "trace.cli_self_share": "ratio",
        "trace.spans": "count",
        "trace.wall_s": "s",
        "trace.overhead": "ratio",
    }
)


class PassFailed(Exception):
    """A child crashed or did not finish before the run's deadline."""


class Children:
    """Starts child processes with a pinned environment and one deadline."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env.update(
            {
                "PYTHONPATH": str(SRC),
                "PYTHONHASHSEED": "0",
                "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
                "OMP_NUM_THREADS": str(BLAS_THREADS),
                "MKL_NUM_THREADS": str(BLAS_THREADS),
            }
        )

    def _start(self, *args) -> dict:
        self.count += 1
        result_path = self.tmp / f"result_{self.count}.json"
        command = [sys.executable, str(HERE / "child.py"), str(result_path), *map(str, args)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassFailed("no time left for another pass")
        ticks = cpu_ticks()
        started = time.monotonic()
        try:
            # run() kills the child and waits for it when the timeout expires.
            proc = subprocess.run(
                command, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise PassFailed(f"a pass did not finish within {DEADLINE_S} s of the start") from exc
        if proc.returncode != 0:
            raise PassFailed(f"a child exited {proc.returncode}:\n{proc.stderr}")
        with open(result_path) as fh:
            result = json.load(fh)
        # Importing is pure-Python work, whatever the workload does later, and
        # it is short, so the process's own speed describes it best.
        setup = without_steal(result["imported_at"] - started, ticks, result["import_ticks"])
        result["setup_s"] = setup * speed(result["slice_s"], "python")
        return result

    def probe(self) -> dict:
        """A process that only imports the package."""
        return self._start("--probe")

    def run(self, plan_path: Path, spans: Path | None = None) -> dict:
        """One pass over the plan, traced when ``spans`` is given."""
        return self._start(plan_path, *(["--spans", spans] if spans else []))


def scale(passes: list, others: list, reference: tuple[str, str]) -> None:
    """Put the request times of each pass in reference seconds.

    The steal-free times are scaled by a speed.  ``reference`` is (part,
    scope) from ``workloads.REFERENCE``: the part of the reference task whose
    speed it is, taken per pass or as the median over the passes and the
    ``others`` processes of the run.
    """
    part, scope = reference
    run_speed = statistics.median(speed(p["slice_s"], part) for p in passes + others)
    for p in passes:
        p["host_speed"] = speed(p["slice_s"], part) if scope == "pass" else run_speed
        p["request_s"] = [t * p["host_speed"] for t in p["request_steal_free_s"]]
        p["wall_s"] = sum(p["request_s"])
        p["raw_wall_s"] = sum(p["request_raw_s"])


def aggregate(plan: dict, passes: list, setups: list) -> dict:
    """End-to-end metrics of one run, as medians over its passes.

    ``wall_s`` sums each request's median time, which keeps a stall in one
    pass from moving every request of that pass.
    """
    def median_sum(key):
        return sum(statistics.median(times) for times in zip(*(p[key] for p in passes)))

    wall = median_sum("request_s")
    sizes = [r["size"] for r in plan["requests"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "fail_frac": failed / attempted,
        "raw_wall_s": median_sum("request_raw_s"),
        "host_speed": statistics.median(p["host_speed"] for p in passes),
    }
    for name, key in (("pairings_per_s", "pairings"), ("samples_per_s", "samples")):
        work = sum(s.get(key, 0) for s in sizes)
        if work:
            metrics[name] = work / wall
    return metrics


def measure(args, plan: dict, plan_path: Path, children: Children, reference) -> tuple[dict, list]:
    """Run the passes of one run; return its metrics and its passes."""
    if args.trace:
        untraced = children.run(plan_path)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans_{args.workload}_seed{args.seed}.json"
        traced = children.run(plan_path, spans)
        scale([untraced, traced], [], reference)
        # Span times are scaled like the request times, so the self times
        # still add up to trace.wall_s.
        factor = traced["wall_s"] / traced["raw_wall_s"]
        metrics = {
            name: value * factor if name.endswith("_s") or name.endswith(".s") else value
            for name, value in traced["layers"].items()
        }
        metrics["montecarlo.plan_rejections"] = plan["plan_rejections"]
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
        return metrics, [untraced, traced]
    children.probe()  # compiles the bytecode caches; not counted
    probes, passes = [], []
    started = time.monotonic()
    while not passes or time.monotonic() - started < args.seconds:
        probes += [children.probe() for _ in range(PROBES_PER_PASS)]
        passes.append(children.run(plan_path))
    scale(passes, probes, reference)
    setups = [p["setup_s"] for p in probes + passes]
    return aggregate(plan, passes, setups), passes


def main(argv=None) -> int:
    if not (SRC / "tensormoments" / "cli.py").is_file():
        print(f"perfbench: no tensormoments sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny requests, for tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills the running child and
    # waits for it, and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + DEADLINE_S
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        tmp = Path(tmp)
        plan = workloads.build(args.workload, args.seed, args.smoke, tmp)
        plan_path = tmp / "plan.json"
        plan_path.write_text(json.dumps(plan))
        try:
            children = Children(tmp, deadline)
            reference = workloads.REFERENCE[args.workload]
            metrics, passes = measure(args, plan, plan_path, children, reference)
        except PassFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for failure in (f for p in passes for f in p["failures"]):
        print(f"FAILED {failure}", file=sys.stderr)
    env = passes[0]["env"]
    kinds = " (untraced, traced)" if args.trace else ""
    print(
        f"# {args.workload} seed={args.seed} scale={plan['scale']} passes={len(passes)}{kinds} "
        f"requests/pass={len(plan['requests'])} python={env['python']} numpy={env['numpy']} "
        f"blas_threads={env['blas_threads']} (pinned {BLAS_THREADS}) nproc={os.cpu_count()}"
    )
    reported = PER_LAYER if args.trace else END_TO_END
    for name, unit in (reported if args.trace else {**END_TO_END, **SUMMARY_ONLY}).items():
        value = metrics.get(name)
        print(f"{name:48s} {'n/a' if value is None else f'{value:.6g}':>14s} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
