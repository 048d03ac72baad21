"""Span recording for the traced benchmark run.

The tracer swaps the functions at the fibocube layer boundaries for wrappers
that record one span per call: name, start, end, parent span, the request
being served and, for a few functions, a count taken from the result.  Spans
stay in memory until the run ends; `write_spans` saves them.  Nothing inside
the package is edited: the wrappers are installed by replacing module and
class attributes, and removed again when `instrument` exits.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from functools import cached_property

PACKAGE = "fibocube"
LAYERS = ("words", "structural", "oracle", "periodicity", "harness", "cli")

# Methods whose names start with "_" that are still layer work: building a
# Word runs its validation in __post_init__.
TRACED_DUNDERS = {"__post_init__"}


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.case = ""
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.cases: list[str] = []
        self.counts: list[int] = []
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.starts)

    def wrap(self, name: str, fn, count=None):
        """A function that calls fn and records a span named name.

        count, when given, maps fn's result to the number stored with the
        span (vertices built, candidates returned, bytes written).
        """
        names, starts, ends = self.names, self.starts, self.ends
        parents, cases, counts, stack = self.parents, self.cases, self.counts, self._stack
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            cases.append(tracer.case)
            counts.append(-1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                counts[i] = count(result)
            return result

        return traced


def span_cost(n: int = 200_000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    def noop():
        return None

    traced = Tracer("calibration").wrap("calibration.noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are merged as intervals, so overlapping children are not
    subtracted twice and a child running past its parent's end is clipped.
    """
    children: list[list[int]] = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        covered = 0.0
        reach = starts[i]
        for c in sorted(kids, key=starts.__getitem__):
            lo = max(starts[c], reach)
            hi = min(ends[c], ends[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(ends[i] - starts[i] - covered)
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _package_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _boundary_functions(layer_modules: dict, all_modules: list) -> dict:
    """original function -> span name, for every call crossing a layer boundary.

    That is each public module-level function of a layer, plus any private
    one that another module imports (such as the words hot path used by the
    structural enumerators).
    """
    home = {m.__name__: short for short, m in layer_modules.items()}
    found = {}
    for mod in all_modules:
        for attr, value in vars(mod).items():
            if not inspect.isfunction(value) or value.__module__ not in home:
                continue
            if attr.startswith("_") and value.__module__ == mod.__name__:
                continue
            found[value] = f"{home[value.__module__]}.{value.__name__}"
    return found


def _wrap_class(tracer: Tracer, short: str, cls, counts: dict, undo: list) -> None:
    for attr, value in list(vars(cls).items()):
        if attr.startswith("_") and attr not in TRACED_DUNDERS:
            continue
        name = f"{short}.{cls.__name__}.{attr}"
        count = counts.get(name)
        if inspect.isfunction(value):
            new = tracer.wrap(name, value, count)
        elif isinstance(value, classmethod):
            new = classmethod(tracer.wrap(name, value.__func__, count))
        elif isinstance(value, staticmethod):
            new = staticmethod(tracer.wrap(name, value.__func__, count))
        elif isinstance(value, property) and value.fget is not None:
            new = property(tracer.wrap(name, value.fget, count), value.fset, value.fdel,
                           value.__doc__)
        elif isinstance(value, cached_property):
            new = cached_property(tracer.wrap(name, value.func, count))
            new.__set_name__(cls, attr)
        else:
            continue
        undo.append((cls, attr, value))
        setattr(cls, attr, new)


@contextmanager
def instrument(tracer: Tracer, counts: dict | None = None):
    """Install span-recording wrappers on every layer boundary; undo on exit.

    counts maps span names to functions that turn a call's result into the
    count stored with its span.
    """
    counts = counts or {}
    layer_modules = {
        short: importlib.import_module(f"{PACKAGE}.{short}") for short in LAYERS
    }
    all_modules = _package_modules()
    wrappers = {
        fn: tracer.wrap(name, fn, counts.get(name))
        for fn, name in _boundary_functions(layer_modules, all_modules).items()
    }
    undo: list = []
    try:
        for mod in all_modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        classes = {}  # an alias such as words.Pattern = Word must be wrapped once
        for short, mod in layer_modules.items():
            for value in vars(mod).values():
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    classes[value] = short
        for cls, short in classes.items():
            _wrap_class(tracer, short, cls, counts, undo)
        yield tracer
    finally:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)


def write_spans(tracer: Tracer, path) -> None:
    """One JSON array per span: name, start, end, parent, workload, case, count."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for row in zip(tracer.names, tracer.starts, tracer.ends, tracer.parents,
                       [tracer.workload] * len(tracer), tracer.cases, tracer.counts):
            fh.write(json.dumps(row) + "\n")
