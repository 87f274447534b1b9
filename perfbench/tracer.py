"""In-memory span tracer for the traced benchmark pass.

``Tracer.install()`` replaces each function named in ``TRACED`` by a timing
wrapper: in its defining module and under every name another
``tensormoments`` module imported it as (``cli.gaussian_expectation`` and
the like), so every call path into the function is seen.  The program
itself is not edited.

Each call records a span ``[name, start, end, parent span, request]`` in
memory; ``write`` saves them at the end.  Per name the tracer keeps the call
count, the summed duration and the self time, which is the duration minus
the time covered by the spans it caused.

``EinsumCalls`` likewise replaces a module's ``np`` by a proxy that notes the
operand shapes, subscripts and ``optimize`` argument of every ``np.einsum``
call the module makes, so the contraction plan can be costed afterwards.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import re
import sys
import threading
import time

import numpy as np

# (module, attribute) of every traced function; a dotted attribute is a
# classmethod.
TRACED = (
    ("cli", "main"),
    ("bubbles", "Bubble.load"),
    ("bubbles", "chain_decomposition"),
    ("oracle", "wick_histogram"),
    ("weingarten", "weingarten_exact"),
    ("algebra", "poly_gcd"),
    ("effective", "effective_observable"),
    ("effective", "wishart_moment_exact"),
    ("effective", "laguerre_reconstruct"),
    ("trees", "enumerate_trees"),
    ("trees", "tree_to_bubble"),
    ("trees", "catalan_product"),
    ("montecarlo", "sample_batch"),
    ("montecarlo", "estimate_expectation"),
)
TRACED_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)


class Tracer:
    def __init__(self, notes=None):
        """``notes`` maps a traced name to ``f(*args, **kwargs)``; for each
        call, ``self.notes[name]`` gets (request, value of f, duration)."""
        self.request = None
        self.spans: list[list] = []
        self.stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in TRACED_NAMES}
        self.notes = {name: [] for name in (notes or {})}
        self._note_fns = dict(notes or {})
        self._stack: list[list] = []  # [span index, time covered by children]
        self._main = threading.main_thread()

    def _wrap(self, name, fn):
        note = self._note_fns.get(name)
        materialise = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The Wick route's worker threads call nothing traced; any other
            # thread is passed through so the span stack stays well nested.
            if threading.current_thread() is not self._main:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            frame = [index, 0.0]
            span = [name, 0.0, 0.0, parent, self.request]
            self.spans.append(span)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialise:
                    # The CLI exhausts the enumeration at once, so timing the
                    # whole of it here measures what the caller waits for.
                    result = list(result)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                span[1], span[2] = start, end
                stat = self.stats[name]
                stat["calls"] += 1
                stat["s"] += duration
                stat["self_s"] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                if note is not None:
                    self.notes[name].append((self.request, note(*args, **kwargs), duration))
            return iter(result) if materialise else result

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if key == "tensormoments" or key.startswith("tensormoments.")
        ]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            module = importlib.import_module(f"tensormoments.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method].__func__
                setattr(cls, method, classmethod(self._wrap(name, original)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "request"], "spans": self.spans},
                fh,
            )
            fh.write("\n")


def _frozen(value):
    """A hashable copy of an einsum argument; arrays become their shape."""
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.dtype.str)
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def _thawed(value):
    if isinstance(value, tuple) and value[:1] == ("array",):
        return np.empty(value[1], dtype=value[2])
    if isinstance(value, tuple):
        return [_thawed(v) for v in value]
    return value


class EinsumCalls:
    """Counts the distinct ``np.einsum`` calls of one module."""

    def __init__(self, module):
        self.calls: dict[tuple, int] = {}
        calls = self.calls

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def einsum(*operands, **kwargs):
                key = (_frozen(operands), _frozen(kwargs.get("optimize", False)))
                calls[key] = calls.get(key, 0) + 1
                return np.einsum(*operands, **kwargs)

        module.np = Numpy()

    def plans(self) -> tuple[float, float]:
        """(FLOPs summed over all calls, largest intermediate in elements) of
        the plans the calls asked for, as ``np.einsum_path`` computes them."""
        flops, largest = 0.0, 0.0
        for (operands, optimize), count in self.calls.items():
            _, report = np.einsum_path(*_thawed(operands), optimize=_thawed(optimize))
            flops += count * float(re.search(r"Optimized FLOP count:\s*(\S+)", report).group(1))
            largest = max(
                largest, float(re.search(r"Largest intermediate:\s*(\S+)", report).group(1))
            )
        return flops, largest
