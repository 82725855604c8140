#!/usr/bin/env python3
"""Run one edgedel benchmark workload and print its metrics.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` times whole rounds of solves for ``--seconds`` and
prints the end-to-end metrics; ``--trace 1`` runs a fixed number of rounds,
each untraced and traced, and prints the per-layer metrics.  Every solve is
checked; the last line of output is one JSON object, and the exit code is 1
when any check failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_ROUNDS = 5
# Functions the untraced run times, for sweep_p50_ms and the scoring times:
# one span per call of at least milliseconds, so the cost is out of reach of
# the bounds.
LIGHT_FUNCTIONS = ("parametrize.run", "divergence.score_edges")
QUALITY_RTOL = 1e-6
QUALITY_ATOL = 1e-9
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
WORKLOAD_NAMES = ("matrix", "map", "ladder")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
        help="'all' runs each workload in its own process, one after another",
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name: str, seed: int):
    """Import, input generation from the seed, warm-up; returns (seconds, workload, rounds)."""
    start = time.process_time()
    import workloads

    workload = workloads.WORKLOADS[name]
    rounds = workload.prepare(seed, workload.pool)
    workloads.warm_up(seed)
    return time.process_time() - start, workload, rounds


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, which pays the import again."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload;
    returns the worst exit code."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def run_rounds(workload, rounds, ctx, seconds: float):
    """Closed loop over rounds; a new group of rounds starts only while the
    timed work is under ``seconds``."""
    solves = []
    for i, rnd in enumerate(rounds):
        if i % workload.group == 0 and ctx.timed_s >= seconds:
            break
        solves.extend(workload.run_round(rnd, ctx))
    return solves


def traced_rounds(workload, rounds, seed):
    """Each of the first ``trace_rounds`` rounds twice, untraced and traced,
    from separately generated identical inputs.  The order alternates per
    round, so a drift in machine speed does not read as tracing cost.

    Returns (untraced solves, traced solves, the full tracer); a traced
    answer that differs from the untraced one marks the traced solve failed.
    """
    import workloads
    from tracer import Tracer

    light = Tracer(LIGHT_FUNCTIONS)
    full = Tracer()
    twins = workload.prepare(seed, workload.trace_rounds)
    plain, traced = [], []
    for i in range(workload.trace_rounds):
        order = ((light, rounds[i], plain), (full, twins[i], traced))
        for tracer, rnd, out in order if i % 2 == 0 else order[::-1]:
            tracer.install()
            try:
                out.extend(workload.run_round(rnd, workloads.Context(tracer)))
            finally:
                tracer.uninstall()
    for a, b in zip(plain, traced):
        if b.error is None and (a.key != b.key or a.quality != b.quality):
            b.error = (
                f"traced answers {json.dumps(b.quality)} differ from untraced "
                f"{json.dumps(a.quality)}"
            )
    return plain, traced, full


def load_reference(name: str, seed: int) -> dict:
    """Recorded answers of this workload and seed, by solve key."""
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh)
    prefix = f"{name} {seed} "
    return {k[len(prefix):]: v for k, v in recorded.items() if k.startswith(prefix)}


def same_quality(got, want) -> bool:
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g is None or w is None:
            if g is not w:
                return False
        elif not math.isclose(g, w, rel_tol=QUALITY_RTOL, abs_tol=QUALITY_ATOL):
            return False
    return True


def check_reference(solves, reference: dict) -> int:
    """Mark solves whose answers moved from the recorded ones; returns how
    many were compared."""
    compared = 0
    for s in solves:
        want = reference.get(s.key)
        if s.error is not None or want is None:
            continue
        compared += 1
        if not same_quality(s.quality, want):
            s.error = f"answers {json.dumps(s.quality)} differ from reference {json.dumps(want)}"
    return compared


def tail(values):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            rank = max(1, math.ceil(pct / 100 * n))
            return pct, ordered[rank - 1]
    return None


def _median(values) -> float:
    """NaN when every solve failed, so the failed run still prints its result."""
    return statistics.median(values) if values else math.nan


def end_to_end(solves, spans, ctx, setup_s) -> tuple[dict, list[str]]:
    """The gated metrics (name -> (value, unit)) and the lines printed for
    every end-to-end metric, gated or not."""
    from tracer import END, NAME, START, VALUE

    ok = [s for s in solves if s.error is None]
    latencies = [s.seconds for s in ok]
    sweeps = [
        (sp[END] - sp[START]) / sp[VALUE][0]
        for sp in spans
        if sp[NAME] == "parametrize.run" and sp[VALUE] and sp[VALUE][0] > 0
    ]
    scores = [sp[END] - sp[START] for sp in spans if sp[NAME] == "divergence.score_edges"]
    gated = {
        "setup_s": (setup_s, "s"),
        "sweep_p50_ms": (_median(sweeps) * 1e3, "ms"),
        "score_mean_ms": (statistics.fmean(scores) * 1e3 if scores else math.nan, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in gated.items()]
    lines.append(f"solve_p50_ms {_median(latencies) * 1e3:.6g} ms (n={len(latencies)})")
    t = tail(latencies)
    if t is None:
        lines.append(f"solve_tail_ms n/a ms (only {len(latencies)} solves)")
    else:
        lines.append(f"solve_tail_ms {t[1] * 1e3:.6g} ms (p{t[0]:g} of {len(latencies)} solves)")
    lines.append(f"solves_per_s {len(ok) / ctx.timed_s:.6g} 1/s")
    lines.append(
        f"cpu_share {ctx.timed_s / ctx.wall_s:.6g} ratio "
        f"({ctx.timed_s:.3f} s of CPU in {ctx.wall_s:.3f} s of timed wall time)"
    )
    lines.append(f"score_p50_ms {_median(scores) * 1e3:.6g} ms (n={len(scores)})")
    failed = len(solves) - len(ok)
    lines.append(f"failed_frac {failed / len(solves):.6g} ratio ({failed}/{len(solves)})")
    runs = [s for s in ok if s.converged is not None]
    unconverged = sum(1 for s in runs if not s.converged)
    lines.append(
        f"unconverged_frac {unconverged / len(runs) if runs else math.nan:.6g} ratio "
        f"({unconverged}/{len(runs)})"
    )
    for name, attr, unit in (
        ("mean_kl_bound", "kl_bound", "nats"),
        ("mean_exact_kl", "exact_kl", "nats"),
        ("mean_map_ratio", "map_ratio", "ratio"),
    ):
        values = [getattr(s, attr) for s in ok if getattr(s, attr) is not None]
        if values:
            lines.append(f"{name} {statistics.fmean(values):.6g} {unit} (n={len(values)})")
    return gated, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "edgedel" / "__init__.py").is_file():
        print("perfbench: src/edgedel not found; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        print(repr(setup(args.workload, args.seed)[0]))
        return 0

    setup_s, workload, rounds = setup(args.workload, args.seed)
    import workloads
    from tracer import Tracer, layer_metrics

    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        setup_samples = [setup_s] + [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_ROUNDS - 1)
        ]
        light = Tracer(LIGHT_FUNCTIONS).install()
        ctx = workloads.Context(light)
        solves = run_rounds(workload, rounds, ctx, args.seconds)
        light.uninstall()
        compared = check_reference(solves, load_reference(args.workload, args.seed))
        metrics, lines = end_to_end(
            solves, light.spans, ctx, statistics.median(setup_samples)
        )
        answers = {s.key: s.quality for s in solves if s.error is None}
        with open(OUT / f"solves-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(answers, fh)
    else:
        plain, traced, full = traced_rounds(workload, rounds, args.seed)
        compared = check_reference(plain, load_reference(args.workload, args.seed))
        full.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        values = layer_metrics(full.spans)
        values["trace_overhead_frac"] = (
            sum(s.seconds for s in traced) / sum(s.seconds for s in plain) - 1.0
        )
        metrics = {name: (value, layer_unit(name)) for name, value in values.items()}
        lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        solves = plain + traced

    failed = [s for s in solves if s.error is not None]
    for s in failed[:20]:
        print(f"FAILED {s.key}: {s.error}")
    for line in lines:
        print(line)
    print(f"solves {len(solves)}, compared with reference {compared}, failed {len(failed)}")
    result = {
        "correct": not failed,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not failed else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_per_edge_update")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
