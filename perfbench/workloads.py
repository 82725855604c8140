"""The benchmark's three workloads: seeded inputs and rounds of solves.

Each workload is one process with one closed-loop caller: a solve starts only
after the previous one has returned.  ``prepare`` makes every input from the
seed; ``run_round`` runs one round of solves through the package's public
API and checks each result.  Only generated networks and evidence reach
``edgedel``.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from edgedel import deletion, divergence, engine, harness, mapapprox, netio, parametrize
from edgedel.model import Evidence, ModelError, Network
from tracer import CLOCK

MARGINAL_TOL = 1e-9
KL_SLACK = 1e-9


@dataclass
class Solve:
    """One timed solve and what the benchmark learned from its result.

    ``quality`` holds the values compared against the recorded reference:
    answers, never iteration counts, which roundoff may move.
    """

    key: str
    seconds: float = 0.0
    quality: list = field(default_factory=list)
    converged: bool | None = None
    kl_bound: float | None = None
    exact_kl: float | None = None
    map_ratio: float | None = None
    error: str | None = None


class Context:
    """Times the package calls of one run and tags their spans.

    ``timed_s`` sums the calls on ``CLOCK``; ``wall_s`` sums the same calls
    on the wall clock, so their ratio shows how much time was stolen.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.timed_s = 0.0
        self.wall_s = 0.0

    def call(self, solve: Solve | None, tag: str, fn):
        """Run ``fn`` timed; a ModelError marks ``solve`` failed.

        Returns fn's result, or None after a failure.  The time is added to
        the run's timed total and, for a solve, to its latency.
        """
        self.tracer.solve = tag
        wall = time.perf_counter()
        start = CLOCK()
        try:
            return fn()
        except ModelError as exc:
            if solve is None:
                raise
            solve.error = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            elapsed = CLOCK() - start
            self.timed_s += elapsed
            self.wall_s += time.perf_counter() - wall
            if solve is not None:
                solve.seconds += elapsed
            self.tracer.solve = None

    @contextmanager
    def checking(self, solve: Solve):
        """Untimed, untraced checks; a ModelError or a failed assertion of the
        benchmark marks ``solve`` failed."""
        with self.tracer.paused():
            try:
                yield
            except (ModelError, CheckFailed) as exc:
                solve.error = f"{type(exc).__name__}: {exc}"


class CheckFailed(Exception):
    """A solve returned a wrong or inconsistent answer."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_marginals(nprime: Network, plan, evp: Evidence) -> None:
    """Recovered source-variable marginals of the fitted N' each sum to 1."""
    current = deletion.apply_params(nprime, plan)
    marginals = deletion.recover_marginals(current, plan, engine.compile(current, evp))
    for name, m in marginals.items():
        total = float(np.sum(m))
        require(
            abs(total - 1.0) <= MARGINAL_TOL and bool(np.all(m >= -MARGINAL_TOL)),
            f"recovered marginal of {name} sums to {total!r}",
        )


def _final_kl(trace) -> float | None:
    return trace[-1].kl_bound if trace else None


def warm_up(seed: int) -> None:
    """One small solve through every layer, so lazy set-up is done before timing."""
    rng = np.random.default_rng([seed, 999])
    net = harness.grid_network(3, 3, 2, rng)
    ev = harness.sample_evidence(net, "leaves-from-joint", rng)
    ranked, params = harness.rank_edges(net, ev, "guided", rng)
    outcome = harness.run_deletion_instance(net, ev, ranked[:2], "ed-kl", warm_params=params[:2])
    netio.write_report([outcome.row], io.BytesIO())
    aug, nprime, plan = deletion.approximate_network(net, ranked[:2])
    evp = deletion.augmented_evidence(nprime, ev)
    mapapprox.approximate_map_quality(aug, nprime, plan, ev, evp, ["N0_0", "N1_1"])


# --- matrix: the criterion-10 experiment matrix -----------------------------

MATRIX_NETWORKS = (("chain(8)", 3, (1, 2, 3)), ("grid(4x4)", 2, (1, 2, 4)))
MATRIX_METHODS = ("ed-kl", "ed-bp")
MATRIX_SELECTIONS = ("rand", "guided")


@dataclass
class MatrixInstance:
    network: str
    index: int
    ks: tuple
    net: Network
    ev: Evidence
    rng: np.random.Generator


def matrix_prepare(seed: int, rounds: int):
    """Round i is instance i of each matrix network (one chain, one grid)."""
    out = []
    for i in range(rounds):
        pair = []
        for c, (token, states, ks) in enumerate(MATRIX_NETWORKS):
            rng = np.random.default_rng([seed, c, i])
            net = harness.make_synthetic(token, states, rng)
            ev = harness.sample_evidence(net, "leaves-from-joint", rng)
            pair.append(MatrixInstance(token, i, ks, net, ev, rng))
        out.append(pair)
    return out


def matrix_round(pair, ctx: Context) -> list[Solve]:
    """Each instance as ``harness.run_experiment`` runs it: rank, then every
    (method, selection, k) cell, then the CSV report."""
    solves = []
    for inst in pair:
        prefix = f"i{inst.index}/{inst.network}"
        cells = [
            Solve(f"{prefix}/{m}/{s}/k{k}")
            for m in MATRIX_METHODS
            for s in MATRIX_SELECTIONS
            for k in inst.ks
        ]
        solves.extend(cells)
        try:
            rankings = ctx.call(
                None,
                f"{prefix}/rank",
                lambda: {
                    sel: harness.rank_edges(inst.net, inst.ev, sel, inst.rng)
                    for sel in MATRIX_SELECTIONS
                },
            )
        except ModelError as exc:
            for cell in cells:
                cell.error = f"not run: ranking failed: {exc}"
            continue
        rows = []
        cell_iter = iter(cells)
        for method in MATRIX_METHODS:
            for sel in MATRIX_SELECTIONS:
                ranked, guided_params = rankings[sel]
                for k in inst.ks:
                    solve = next(cell_iter)
                    warm = guided_params[:k] if method == "ed-kl" and guided_params else None
                    outcome = ctx.call(
                        solve,
                        solve.key,
                        lambda: harness.run_deletion_instance(
                            inst.net,
                            inst.ev,
                            ranked[:k],
                            method,
                            network_id=inst.network,
                            instance_id=inst.index,
                            selection_tag=sel,
                            warm_params=warm,
                        ),
                    )
                    if outcome is None:
                        continue
                    row = outcome.row
                    solve.converged = row.converged
                    solve.kl_bound = row.kl_bound
                    solve.exact_kl = row.exact_kl
                    solve.quality = [row.kl_bound, row.exact_kl, row.constrained_treewidth]
                    with ctx.checking(solve):
                        row.validate()
                        require(row.exact_kl is not None, "exact_kl was not computed")
                        require(
                            row.exact_kl <= row.kl_bound + KL_SLACK,
                            f"exact_kl {row.exact_kl!r} exceeds kl_bound {row.kl_bound!r}",
                        )
                    if solve.error is None:
                        rows.append(row)
        sink = io.BytesIO()
        ctx.call(None, f"{prefix}/report", lambda: netio.write_report(rows, sink))
        lines = sink.getvalue().count(b"\n")
        if lines != len(rows) + 1:
            for cell in cells:
                cell.error = cell.error or f"report has {lines} lines for {len(rows)} rows"
    return solves


# --- map: the criterion-11 MAP sweep ----------------------------------------

MAP_K = 6
MAP_VARS = 5


@dataclass
class MapInstance:
    index: int
    net: Network
    ev: Evidence
    map_vars: list
    rng: np.random.Generator


def map_prepare(seed: int, rounds: int):
    """grid(4x4), leaf evidence, 5 random non-leaf MAP variables per instance."""
    out = []
    for i in range(rounds):
        rng = np.random.default_rng([seed, i])
        net = harness.grid_network(4, 4, 2, rng)
        ev = harness.sample_evidence(net, "leaves-from-joint", rng)
        leaves = set(net.leaves())
        non_leaf = [v.name for v in net.variables if v.name not in ev and v.name not in leaves]
        picks = rng.choice(len(non_leaf), size=MAP_VARS, replace=False)
        out.append(MapInstance(i, net, ev, [non_leaf[int(j)] for j in picks], rng))
    return out


def map_round(inst: MapInstance, ctx: Context) -> list[Solve]:
    """Two solves: guided and random ranking, each ranking -> ed-kl -> MAP quality."""
    solves = []
    for sel in ("guided", "rand"):
        solve = Solve(f"i{inst.index}/{sel}")
        solves.append(solve)

        def chain():
            ranked, _ = harness.rank_edges(inst.net, inst.ev, sel, inst.rng)
            aug, nprime, plan = deletion.approximate_network(inst.net, ranked[:MAP_K])
            evp = deletion.augmented_evidence(nprime, inst.ev)
            cfg = parametrize.IterationConfig(method="ed-kl")
            plan, report, trace = parametrize.run(nprime, plan, evp, cfg, reference=(aug, inst.ev))
            result = mapapprox.approximate_map_quality(
                aug, nprime, plan, inst.ev, evp, inst.map_vars
            )
            return nprime, evp, plan, report, trace, result

        out = ctx.call(solve, solve.key, chain)
        if out is None:
            continue
        nprime, evp, plan, report, trace, result = out
        solve.converged = report.converged
        solve.kl_bound = _final_kl(trace)
        solve.map_ratio = result.ratio
        solve.quality = [result.ratio, result.value, result.best_value, solve.kl_bound]
        with ctx.checking(solve):
            require(
                result.ratio is not None and 0.0 < result.ratio <= 1.0,
                f"p/q ratio {result.ratio!r} outside (0, 1]",
            )
            require(
                solve.kl_bound is not None and solve.kl_bound >= -KL_SLACK,
                f"kl bound {solve.kl_bound!r}",
            )
            check_marginals(nprime, plan, evp)
    return solves


# --- ladder: scoring and both schedules on growing grids --------------------

LADDER_RUNGS = ((5, 6), (6, 8), (7, 10))


@dataclass
class LadderRung:
    pass_index: int
    size: int
    k: int
    net: Network
    ev: Evidence


def ladder_prepare(seed: int, rounds: int):
    """Round r is one rung; every three rounds make a pass up the ladder:
    grid(5x5), grid(6x6), grid(7x7)."""
    out = []
    for r in range(rounds):
        p, i = divmod(r, len(LADDER_RUNGS))
        size, k = LADDER_RUNGS[i]
        rng = np.random.default_rng([seed, p, size])
        net = harness.grid_network(size, size, 2, rng)
        ev = harness.sample_evidence(net, "leaves-from-joint", rng)
        out.append(LadderRung(p, size, k, net, ev))
    return out


def ladder_round(rung: LadderRung, ctx: Context) -> list[Solve]:
    """score_edges, then ed-kl sequential warm-started from the scores, then
    ed-bp simultaneous from uniform.  A run solve includes building N' for it."""
    solves = []
    prefix = f"p{rung.pass_index}/grid{rung.size}"
    score = Solve(f"{prefix}/score")
    runs = [Solve(f"{prefix}/ed-kl"), Solve(f"{prefix}/ed-bp")]
    solves.append(score)
    solves.extend(runs)
    scores = ctx.call(score, score.key, lambda: divergence.score_edges(rung.net, rung.ev))
    if scores is None:
        for s in runs:
            s.error = "not run: scoring failed"
        return solves
    score.quality = [s.score for s in scores[: rung.k]]
    with ctx.checking(score):
        require(len(scores) == len(rung.net.edges()), "not every edge was scored")
        values = [s.score for s in scores]
        require(values == sorted(values), "scores are not in ascending order")
    edges = [(s.parent, s.child) for s in scores[: rung.k]]
    warm = [s.params for s in scores[: rung.k]]
    configs = (
        (warm, parametrize.IterationConfig(method="ed-kl", initialization="plan")),
        (None, parametrize.IterationConfig(method="ed-bp", schedule="simultaneous")),
    )
    for solve, (params, cfg) in zip(runs, configs):

        def fit():
            aug, nprime, plan = deletion.approximate_network(rung.net, edges, params)
            evp = deletion.augmented_evidence(nprime, rung.ev)
            reference = (aug, rung.ev) if cfg.method == "ed-kl" else None
            plan, report, trace = parametrize.run(nprime, plan, evp, cfg, reference=reference)
            return aug, nprime, evp, plan, report, trace

        out = ctx.call(solve, solve.key, fit)
        if out is None:
            continue
        aug, nprime, evp, plan, report, trace = out
        solve.converged = report.converged
        with ctx.checking(solve):
            kl = _final_kl(trace)
            if kl is None:
                kl = divergence.kl_bound(aug, nprime, plan, rung.ev, evp).total
            solve.kl_bound = kl
            solve.quality = [kl]
            require(math.isfinite(kl) and kl >= -KL_SLACK, f"kl bound {kl!r}")
            check_marginals(nprime, plan, evp)
    return solves


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    run_round: object
    # rounds made in set-up; a run that uses them all ends early
    pool: int
    # rounds of the traced run, which runs them untraced and traced
    trace_rounds: int
    # a timed run stops only between groups of this many rounds
    group: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("matrix", matrix_prepare, matrix_round, pool=40, trace_rounds=2),
        Workload("map", map_prepare, map_round, pool=60, trace_rounds=4),
        Workload(
            "ladder", ladder_prepare, ladder_round, pool=24, trace_rounds=2,
            group=len(LADDER_RUNGS),
        ),
    )
}
