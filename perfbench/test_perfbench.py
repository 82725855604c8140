"""Tests of the benchmark itself: tracer coverage and determinism.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ALL_FUNCTIONS, Tracer, layer_metrics, package_modules, self_times  # noqa: E402

SEED = 3
COUNTS = ("calls", "sweeps", "edge_updates", "edges_scored", "entries")


def test_every_binding_of_a_traced_function_is_wrapped():
    tracer = Tracer().install()
    try:
        originals = {id(fn): qual for qual, fn in tracer.originals.items()}
        assert set(tracer.originals) == set(ALL_FUNCTIONS)
        unwrapped = [
            f"{module.__name__}.{attr} is the original {originals[id(value)]}"
            for module in package_modules()
            for attr, value in vars(module).items()
            if id(value) in originals
        ]
        assert unwrapped == []
        import edgedel.cli as cli
        import edgedel.divergence as divergence
        import edgedel.harness as harness

        # names imported with "from ... import" are separate bindings
        for module, attr in (
            (harness, "min_fill_order"),
            (cli, "min_fill_order"),
            (cli, "constrained_order"),
            (cli, "apply_params"),
            (harness, "apply_params"),
            (divergence, "enumerate_joint"),
        ):
            assert getattr(module, attr).__wrapped__ is not None
    finally:
        tracer.uninstall()
    for qual, fn in tracer.originals.items():
        module_name, fn_name = qual.split(".")
        assert getattr(sys.modules[f"edgedel.{module_name}"], fn_name) is fn


def _counts(metrics):
    return {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNTS}


@pytest.mark.parametrize("name", ["matrix", "map", "ladder"])
def test_traced_runs_repeat_counts_and_match_untraced(name, monkeypatch):
    if name == "ladder":
        # one small rung keeps the test short; the code path is the same
        monkeypatch.setattr(workloads, "LADDER_RUNGS", ((4, 4),))
    workload = dataclasses.replace(workloads.WORKLOADS[name], trace_rounds=1)
    runs = []
    for _ in range(2):
        plain, traced, tracer = run.traced_rounds(workload, workload.prepare(SEED, 1), SEED)
        assert plain and all(s.error is None for s in plain + traced)
        assert [s.quality for s in traced] == [s.quality for s in plain]
        runs.append((plain, layer_metrics(tracer.spans)))
    (first, m1), (second, m2) = runs
    assert _counts(m1) == _counts(m2)
    assert [s.quality for s in first] == [s.quality for s in second]
    assert m1["parametrize.run.calls"] > 0
    assert m1["parametrize.derivatives_used_frac"] == 0.5


def test_self_time_excludes_children():
    spans = [
        ["a", 0.0, 10.0, -1, None, None, None],
        ["b", 1.0, 4.0, 0, None, None, None],
        ["c", 5.0, 6.0, 0, None, None, None],
        ["d", 2.0, 3.0, 1, None, None, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
