"""One pass of a workload, in a fresh Python process.

    python3 perfbench/child.py RESULT --probe
    python3 perfbench/child.py RESULT PLAN [--spans SPANS]

The process imports ``tensormoments`` and notes when the import finished.
It then runs the host-speed reference slices (``hostspeed.py``); the probe
stops there.  A pass sends each request of PLAN through
``tensormoments.cli.main`` in this process, one at a time, captures the JSON
printed on stdout and checks it, with reference slices before the first
request and after each one.  With ``--spans`` it first
installs the tracer, and writes the spans to SPANS and the per-layer figures
to RESULT.  Times in RESULT are wall-clock seconds, some also with the CPU
steal taken out (``hoststeal.py``); the parent turns them into reference
seconds.

The parent sets PYTHONPATH to the checkout's ``src`` and pins the BLAS
thread count in the environment before this process starts.
"""
import time

# Set-up time ends here, so only what a CLI user also loads comes first.
from tensormoments import cli

IMPORTED_AT = time.monotonic()

from hoststeal import cpu_ticks, without_steal

IMPORT_TICKS = cpu_ticks()

import contextlib
import ctypes
import glob
import io
import json
import math
import os
import resource
import sys
import traceback
from fractions import Fraction

import numpy as np
from tensormoments import montecarlo

from hostspeed import slices, slices_for
from tracer import EinsumCalls, Tracer

FIVE_SIGMA = 5
# Reference slices run by a probe, and before the first request of a pass.
PROBE_SLICES = 7
EDGE_SLICES = 3
# After each request, reference slices run for this share of its time.
SLICE_SHARE = 0.1


def check(request: dict, code, out: str):
    """None when the answer is right, else the reason it is not."""
    if code != 0:
        return f"exit {code}"
    expected = request["check"]
    try:
        report, _ = json.JSONDecoder().raw_decode(out)
        kind = request["kind"]
        if kind == "expect":
            raw = {int(r["exp"]): Fraction(r["coeff"]) for r in report["raw"]}
            total = sum(raw.values())
            if total != expected["pairings"]:
                return f"raw sums to {total}, expected n! = {expected['pairings']}"
            lead = max(raw)
            if report["dominant"] != {"exp": lead, "count": raw[lead]}:
                return f"dominant {report['dominant']} is not the leading term of raw"
            if "N" in expected:
                value = sum(c * Fraction(expected["N"]) ** e for e, c in raw.items())
                if report["value_at_N"] != value:
                    return f"value_at_N {report['value_at_N']} != raw at N: {value}"
        elif kind == "tree":
            if report["all_pass"] is not True:
                return "all_pass is not true"
            if len(report["trees"]) != expected["trees"]:
                return f"{len(report['trees'])} trees, expected {expected['trees']}"
        elif kind == "effective":
            if report["cross_check"] != "PASS":
                return f"cross_check {report['cross_check']}"
        elif kind == "mc":
            if report["samples"] != expected["samples"]:
                return f"{report['samples']} samples, expected {expected['samples']}"
            if "exact" in expected:
                deviation = abs(report["mean"] - expected["exact"])
                if not deviation <= FIVE_SIGMA * report["stderr"]:
                    return f"mean {report['mean']} is {deviation} from {expected['exact']}"
            elif report.get("within_5_sigma") != "PASS":
                return f"within_5_sigma {report.get('within_5_sigma')}"
        else:
            return f"no check for {kind!r}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable answer: {exc!r}"
    return None


def run_requests(requests: list, tracer=None) -> dict:
    """Send the requests through cli.main; time each call and check it.

    Each request's time is kept as measured and with the host's CPU steal
    taken out.  Reference slices run outside the timed calls: before the
    first request, and after each request for a tenth of the time it took,
    so that they sample the host's speed about evenly over the pass.
    """
    seconds, steal_free, failures = [], [], []
    slice_s = slices(EDGE_SLICES)
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        out, err = io.StringIO(), io.StringIO()
        ticks = cpu_ticks()
        start = time.perf_counter()
        raised = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(request["argv"])
        except (Exception, SystemExit):
            # A failed request is counted, and the pass goes on.
            raised = traceback.format_exc(limit=-3)
        seconds.append(time.perf_counter() - start)
        steal_free.append(without_steal(seconds[-1], ticks, cpu_ticks()))
        reason = f"raised {raised}" if raised else check(request, code, out.getvalue())
        if reason is not None:
            failures.append(f"request {index} {request['argv'][:2]}: {reason}")
        slice_s += slices_for(SLICE_SHARE * seconds[-1])
    return {
        "request_raw_s": seconds,
        "request_steal_free_s": steal_free,
        "slice_s": slice_s,
        "attempted": len(requests),
        "failed": len(failures),
        "failures": failures,
    }


def blas_threads():
    """The thread count numpy's OpenBLAS reports, or None if it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def layer_metrics(plan: dict, tracer, einsums) -> dict:
    """Per-layer figures of a traced pass, named <module>.<function>.<stat>."""
    out = {}
    for name, stat in tracer.stats.items():
        out[f"{name}.s"] = stat["s"]
        out[f"{name}.self_s"] = stat["self_s"]
        out[f"{name}.calls"] = stat["calls"]
    histograms = tracer.notes["oracle.wick_histogram"]
    out["oracle.pairings_enumerated"] = sum(math.factorial(n) for _, n, _ in histograms)
    out["oracle.histograms_per_request"] = len(histograms) / len(plan["requests"])
    seen, cold = set(), 0.0
    for _, key, duration in tracer.notes["weingarten.weingarten_exact"]:
        if key not in seen:
            seen.add(key)
            cold += duration
    out["weingarten.weingarten_exact.cold_s"] = cold
    out["montecarlo.einsum_flops"], out["montecarlo.largest_intermediate"] = einsums.plans()
    main = tracer.stats["cli.main"]
    out["trace.cli_self_share"] = main["self_s"] / main["s"] if main["s"] else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out


def main(argv) -> int:
    result_path = argv[0]
    if argv[1] == "--probe":
        probe = {"imported_at": IMPORTED_AT, "import_ticks": IMPORT_TICKS}
        probe["slice_s"] = slices(PROBE_SLICES)
        with open(result_path, "w") as fh:
            json.dump(probe, fh)
        return 0
    plan_path = argv[1]
    spans_path = argv[3] if argv[2:3] == ["--spans"] else None
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = einsums = None
    if spans_path is not None:
        tracer = Tracer(
            notes={
                "oracle.wick_histogram": lambda b, *a, **k: b.n,
                "weingarten.weingarten_exact": lambda cls, dim, *a, **k: (cls.n, str(dim)),
            }
        )
        tracer.install()
        einsums = EinsumCalls(montecarlo)
    result = run_requests(plan["requests"], tracer)
    result["imported_at"] = IMPORTED_AT
    result["import_ticks"] = IMPORT_TICKS
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(plan, tracer, einsums)
        tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
