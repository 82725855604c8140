"""Span tracer for the edgedel benchmark.

``Tracer.install`` replaces each listed public function with a timing
wrapper at every module of the package that binds its name (``harness`` and
``cli`` import ``min_fill_order`` by name, for example), so no call path
escapes the trace.  Spans stay in memory and are written out when the
benchmark ends.  Nothing inside ``src/edgedel`` is modified on disk.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from contextlib import contextmanager

# The layers are the package modules; these are the public functions traced
# in each.
LAYERS = {
    "engine": (
        "compile",
        "cpt_derivatives",
        "posterior_marginal",
        "pairwise_marginal",
        "exact_map",
        "min_fill_order",
        "constrained_order",
    ),
    "parametrize": ("run", "true_edge_marginals"),
    "divergence": ("score_edges", "kl_bound", "exact_kl"),
    "model": ("enumerate_joint",),
    "deletion": ("approximate_network", "apply_params"),
    "mapapprox": ("approximate_map", "map_quality"),
    "harness": ("rank_edges", "run_deletion_instance"),
    "netio": ("write_report",),
}
ALL_FUNCTIONS = tuple(f"{m}.{f}" for m, fns in LAYERS.items() for f in fns)

# What a span records besides its times, read from the call's arguments and
# result.  ``parametrize.run`` returns (plan, report, trace).
_NOTES = {
    "engine.compile": lambda args, result: result.width,
    "parametrize.run": lambda args, result: [result[1].iterations, len(result[0])],
    "divergence.score_edges": lambda args, result: len(result),
    "model.enumerate_joint": lambda args, result: args[0].joint_size(),
}

# Every duration the benchmark reports is read from this clock: the CPU time
# of the process.  On a KVM guest with paravirt steal accounting it leaves out
# the time the hypervisor gives the CPU to other guests, which moved
# wall-clock medians by up to 30 % from one run to the next on the 2-vCPU
# machine the baseline was measured on.  The solves are single-threaded and do
# no I/O, so with nothing stolen it equals wall time.
CLOCK = time.process_time

# Span fields, in list order.
NAME, START, END, PARENT, SOLVE, VALUE, ERROR = range(7)


def package_modules():
    """The ``edgedel`` package and every one of its submodules, imported."""
    import edgedel

    modules = [edgedel]
    for info in pkgutil.iter_modules(edgedel.__path__):
        modules.append(importlib.import_module(f"edgedel.{info.name}"))
    return modules


class Tracer:
    """Records one span per call of the wrapped functions.

    A span is [name, start, end, parent span index, solve id, value, error].
    ``solve`` is set by the caller before each solve so that every span of
    one solve shares its id.
    """

    def __init__(self, functions=ALL_FUNCTIONS):
        self.functions = tuple(functions)
        self.spans: list[list] = []
        self.solve = None
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._active = True
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        modules = package_modules()
        for qual in self.functions:
            module_name, fn_name = qual.split(".")
            original = getattr(importlib.import_module(f"edgedel.{module_name}"), fn_name)
            self.originals[qual] = original
            wrapper = self._wrap(qual, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def _wrap(self, qual, fn):
        note = _NOTES.get(qual)
        spans = self.spans
        stack = self._stack
        clock = CLOCK

        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1, self.solve, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[VALUE] = note(args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        keys = ("name", "start", "end", "parent", "solve", "value", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _has_ancestor(spans, span, names) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The benchmark is single-threaded, so children of one span never overlap
    and their durations simply add up.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-function calls, self and total time, plus the layer counts.

    ``total_s`` counts only the outermost span of a function, so a function
    reached again inside itself is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for qual in ALL_FUNCTIONS:
        out[f"{qual}.calls"] = 0
        out[f"{qual}.self_s"] = 0.0
        out[f"{qual}.total_s"] = 0.0
    for span, self_s in zip(spans, selfs):
        qual = span[NAME]
        out[f"{qual}.calls"] += 1
        out[f"{qual}.self_s"] += self_s
        if not _has_ancestor(spans, span, (qual,)):
            out[f"{qual}.total_s"] += span[END] - span[START]

    runs = [s for s in spans if s[NAME] == "parametrize.run" and s[VALUE] is not None]
    sweeps = sum(s[VALUE][0] for s in runs)
    edge_updates = sum(s[VALUE][0] * s[VALUE][1] for s in runs)
    under_run = ("parametrize.run",)
    compiles = sum(
        1 for s in spans if s[NAME] == "engine.compile" and _has_ancestor(spans, s, under_run)
    )
    derivatives = sum(
        1
        for s in spans
        if s[NAME] == "engine.cpt_derivatives" and _has_ancestor(spans, s, under_run)
    )
    out["parametrize.sweeps"] = sweeps
    out["parametrize.edge_updates"] = edge_updates
    out["parametrize.compiles_per_edge_update"] = compiles / edge_updates if edge_updates else 0.0
    out["parametrize.derivatives_per_edge_update"] = (
        derivatives / edge_updates if edge_updates else 0.0
    )
    out["parametrize.derivatives_used_frac"] = (
        2 * edge_updates / derivatives if derivatives else 0.0
    )
    out["engine.max_width"] = max(
        (s[VALUE] for s in spans if s[NAME] == "engine.compile" and s[VALUE] is not None),
        default=0,
    )
    out["divergence.edges_scored"] = sum(
        s[VALUE] for s in spans if s[NAME] == "divergence.score_edges" and s[VALUE] is not None
    )
    out["divergence.exact_kl.refused"] = sum(
        1 for s in spans if s[NAME] == "divergence.exact_kl" and s[ERROR] == "CapacityError"
    )
    out["model.enumerate_joint.entries"] = sum(
        s[VALUE] for s in spans if s[NAME] == "model.enumerate_joint" and s[VALUE] is not None
    )
    return out
