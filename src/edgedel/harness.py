"""Experiment machinery: synthetic networks, evidence sampling, and the
protocol runner that produces report rows.

Synthetic CPT rows are drawn independently from the uniform simplex
(symmetric Dirichlet).  Every sampled quantity is driven by a seeded
generator, so a spec plus a seed fully determines the output.

A spec's lists and the CLI's ``--map-vars`` have one reader
(``_spec_list``), which refuses an empty list and a repeated entry.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from . import divergence, parametrize
from .deletion import DeletionPlan, _source_marginals, apply_params, approximate_network
from .deletion import augmented_evidence
from .engine import WIDTH_CAP_DEFAULT, constrained_order, min_fill_order
from .mapapprox import MapResult, approximate_map_quality
from .model import Cpt, Evidence, ModelError, Network, Variable
from .netio import SELECTION_TAGS, FormatError, ReportRow, _at, _logical_lines

EVIDENCE_MODES = ("leaves-from-joint", "random")


def _random_cpt(child: Variable, parents: tuple[Variable, ...], rng) -> Cpt:
    rows = 1
    for p in parents:
        rows *= p.card
    table = rng.dirichlet(np.ones(child.card), size=rows).reshape(-1)
    return Cpt(child, parents, table)


def chain_network(n: int, states: int = 2, rng=None) -> Network:
    """X1 -> X2 -> ... -> Xn with random CPT rows."""
    if n < 1:
        raise ModelError("chain needs at least one variable")
    rng = np.random.default_rng(0) if rng is None else rng
    labels = tuple(f"s{i}" for i in range(states))
    variables = [Variable(f"X{i + 1}", labels) for i in range(n)]
    cpts = []
    for i, v in enumerate(variables):
        parents = (variables[i - 1],) if i > 0 else ()
        cpts.append(_random_cpt(v, parents, rng))
    return Network(variables, cpts)


def grid_network(rows: int, cols: int, states: int = 2, rng=None) -> Network:
    """Grid DAG: node (i, j) has parents (i-1, j) and (i, j-1)."""
    if rows < 1 or cols < 1:
        raise ModelError("grid needs positive dimensions")
    rng = np.random.default_rng(0) if rng is None else rng
    labels = tuple(f"s{i}" for i in range(states))
    grid = [[Variable(f"N{i}_{j}", labels) for j in range(cols)] for i in range(rows)]
    variables = [grid[i][j] for i in range(rows) for j in range(cols)]
    cpts = []
    for i in range(rows):
        for j in range(cols):
            parents = []
            if i > 0:
                parents.append(grid[i - 1][j])
            if j > 0:
                parents.append(grid[i][j - 1])
            cpts.append(_random_cpt(grid[i][j], tuple(parents), rng))
    return Network(variables, cpts)


# generator name -> (what its argument is, how many 'x'-separated sizes it has)
_GENERATORS = {"chain": ("chain size", 1), "grid": ("grid shape", 2)}


def parse_synthetic(token: str):
    """Recognize 'chain(N)' and 'grid(RxC)' network tokens; None for a token
    not shaped 'name(...)', which names a file.  A bad size or shape, or a
    name that is neither generator, raises ``FormatError``."""
    shaped = re.fullmatch(r"(\w+)\((.*)\)", token.strip().lower())
    if shaped is None:
        return None
    name, inner = shaped.groups()
    if name not in _GENERATORS:
        raise FormatError(f"unknown generator {name!r}")
    what, count = _GENERATORS[name]
    sizes = inner.split("x")
    try:
        if len(sizes) == count:
            return (name, *map(int, sizes))
    except ValueError:
        pass
    raise FormatError(f"bad {what} {inner!r}")


def make_synthetic(token: str, states: int, rng) -> Network:
    parsed = parse_synthetic(token)
    if parsed is None:
        raise FormatError(f"unknown synthetic network {token!r}")
    if parsed[0] == "chain":
        return chain_network(parsed[1], states, rng)
    return grid_network(parsed[1], parsed[2], states, rng)


def forward_sample(net: Network, rng) -> dict[str, str]:
    """One ancestral sample through the DAG; returns a full assignment."""
    sample: dict[str, int] = {}
    for name in net.topo_order():
        cpt = net.cpt(name)
        idx = tuple(sample[p.name] for p in cpt.parents)
        row = cpt.shaped[idx]
        total = row.sum()
        if not (total > 0):
            raise ModelError(f"cpt row for {name!r} sums to zero; cannot sample")
        sample[name] = int(rng.choice(len(row), p=row / total))
    return {name: net.var(name).states[i] for name, i in sample.items()}


def sample_evidence(net: Network, mode: str, rng) -> Evidence:
    """Evidence over all leaf variables, drawn per ``mode``.

    "leaves-from-joint" keeps the leaf assignments of one forward sample;
    "random" draws a uniform independent state per leaf.
    """
    if mode not in EVIDENCE_MODES:
        raise ModelError(f"unknown evidence mode {mode!r}")
    leaves = net.leaves()
    if mode == "leaves-from-joint":
        full = forward_sample(net, rng)
        return Evidence({name: full[name] for name in leaves})
    assignments = {}
    for name in leaves:
        var = net.var(name)
        assignments[name] = var.states[int(rng.integers(var.card))]
    return Evidence(assignments)


@dataclass(frozen=True)
class ExperimentSpec:
    network: str
    instances: int = 50
    evidence: str = "leaves-from-joint"
    ks: tuple[int, ...] = (0, 1, 2)
    methods: tuple[str, ...] = ("ed-kl",)
    selections: tuple[str, ...] = ("guided",)
    seed: int = 0
    states: int = 2
    max_iterations: int = 200
    tolerance: float = 1e-8
    damping: float = 0.0
    real_timings: bool = False

    def __post_init__(self):
        for name in _CHECKED_FIELDS:
            _check_field(name, getattr(self, name))


# the ExperimentSpec fields that ``_check_field`` checks, in checking order
_CHECKED_FIELDS = (
    "instances", "evidence", "ks", "states", "seed", "methods", "max_iterations",
    "tolerance", "damping", "selections",
)


def _check_field(name: str, value) -> None:
    """Refuse a bad value of the ExperimentSpec field ``name`` with
    ``ModelError``; the fit settings are checked by ``IterationConfig``."""
    if name == "instances" and value < 1:
        raise ModelError("instances must be >= 1")
    if name == "evidence" and value not in EVIDENCE_MODES:
        raise ModelError(f"unknown evidence mode {value!r}")
    if name == "ks" and any(k < 0 for k in value):
        raise ModelError("k values must be >= 0")
    if name == "states" and value < 2:
        raise ModelError("states must be >= 2")
    if name == "seed" and value < 0:
        raise ModelError("seed must be >= 0")
    if name == "methods":
        for m in value:
            parametrize.IterationConfig(method=m)
    if name in ("max_iterations", "tolerance", "damping"):
        parametrize.IterationConfig(**{name: value})
    if name == "selections":
        for s in value:
            if s not in SELECTION_TAGS:
                raise ModelError(f"unknown selection {s!r}")


def _spec_list(text: str, what: str, convert=str) -> tuple:
    """The comma-separated entries of ``text``, stripped, blanks skipped,
    each converted; an empty list or an entry given twice raises
    ``ModelError`` naming ``what``, the spec key or command-line flag."""
    entries = tuple(convert(t.strip()) for t in text.split(",") if t.strip())
    if not entries:
        raise ModelError(f"{what} needs at least one entry")
    for i, entry in enumerate(entries):
        if entry in entries[:i]:
            raise ModelError(f"{what} lists {entry!r} twice")
    return entries


# spec key -> (ExperimentSpec field, converter), converted in this order
_SPEC_KEYS = {
    "instances": ("instances", int),
    "evidence": ("evidence", str),
    "k": ("ks", lambda text: _spec_list(text, "k", int)),
    "methods": ("methods", lambda text: _spec_list(text, "methods")),
    "selections": ("selections", lambda text: _spec_list(text, "selections")),
    "seed": ("seed", int),
    "states": ("states", int),
    "max_iters": ("max_iterations", int),
    "tol": ("tolerance", float),
    "damping": ("damping", float),
}


def parse_experiment_spec(text: str) -> ExperimentSpec:
    """Key = value lines mirroring the ExperimentSpec fields.

    ``k``, ``methods`` and ``selections`` are comma-separated lists
    (``_spec_list``): an empty list or a repeated entry is a ``FormatError``
    at the key's line, as is a value that does not convert, a ``network``
    generator token that ``parse_synthetic`` refuses, an unknown key (at
    the first one's line) and a value that ``ExperimentSpec`` refuses.
    """
    values: dict[str, tuple[int, str]] = {}
    for i, content in _logical_lines(text):
        if "=" not in content:
            raise FormatError("spec line needs 'key = value'", i)
        key, _, val = content.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key in values:
            raise FormatError(f"spec key {key!r} given twice", i)
        values[key] = i, val.strip()
    if "network" not in values:
        raise FormatError("experiment spec needs a network")
    ln, timings = values.pop("timings", (None, "none"))
    if timings not in ("none", "real"):
        raise FormatError(f"timings must be none or real (got {timings!r})", ln)
    ln, network = values.pop("network")
    _at(ln, parse_synthetic, network)
    kwargs: dict = {"network": network, "real_timings": timings == "real"}
    lines = {}
    for key, (name, convert) in _SPEC_KEYS.items():
        if key not in values:
            continue
        lines[name], val = values.pop(key)
        try:
            kwargs[name] = convert(val)
        except ModelError as exc:
            raise FormatError(str(exc), lines[name]) from None
        except ValueError as exc:
            raise FormatError(f"bad spec value: {exc}", lines[name]) from None
    if values:
        first = min(ln for ln, _ in values.values())
        raise FormatError(f"unknown spec keys: {sorted(values)}", first)
    # ExperimentSpec's own checks, in its order, each at its key's line
    for name in _CHECKED_FIELDS:
        if name in lines:
            _at(lines[name], _check_field, name, kwargs[name])
    return ExperimentSpec(**kwargs)


@dataclass
class InstanceOutcome:
    """Everything one deletion run produced, beyond the report row."""

    row: ReportRow
    plan: DeletionPlan | None = None
    marginals: dict[str, np.ndarray] = field(default_factory=dict)
    trace: list = field(default_factory=list)
    map_result: MapResult | None = None


def run_deletion_instance(
    net: Network,
    ev: Evidence,
    edges,
    method: str,
    *,
    network_id: str = "net",
    instance_id: int = 0,
    selection_tag: str = "guided",
    warm_params=None,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
    damping: float = 0.0,
    schedule: str = "sequential",
    width_cap: int = WIDTH_CAP_DEFAULT,
    compute_marginals: bool = False,
    real_timings: bool = False,
    map_vars=None,
) -> InstanceOutcome:
    """Delete ``edges`` from ``net``, parametrize with ``method``, measure.

    ``warm_params`` (one EdgeParams per edge) switches initialization from
    uniform to the given values.  With ``map_vars`` set, the fitted network
    also answers MAP over them: the row carries the p/q ratio, with p and
    q read in ``net`` itself (``approximate_map_quality``), and the
    constrained width instead of the min-fill width.

    The fit's reference is ``divergence.source_pass(net, ev, width_cap)``,
    the one pass on the source network that ``score_edges`` and every other
    cell of the same ``net`` and ``ev`` objects read, so a cell needs the
    source network's width as well as N''s; a refusal raises
    ``CapacityError``.
    The KL bound (before clamping, the trace's last bit for bit) and exact
    KL read that pass and the fit's own Pr'(e') (``FixedPointReport``'s
    ``source``, ``pr_ep``), and nothing is eliminated on N' but the
    marginals' one derivative pass.  A row with no edge deleted
    reads exactly 0: ``run``'s Pr'(e') is then that pass's Pr(e).
    ``compute_marginals`` reads the fitted N''s source marginals by
    ``recover_marginals``' route (``deletion._source_marginals``).
    """
    start = time.perf_counter()
    _, nprime, plan = approximate_network(net, edges, warm_params)
    evp = augmented_evidence(nprime, ev)
    cfg = parametrize.IterationConfig(
        method=method,
        max_iterations=max_iterations,
        tolerance=tolerance,
        damping=damping,
        schedule=schedule,
        initialization="plan",
    )
    source = divergence.source_pass(net, ev, width_cap)
    plan, report, trace = parametrize.run(
        nprime, plan, evp, cfg, reference=source, width_cap=width_cap
    )
    kl_total = divergence.read_kl_bound(report.source, report.pr_ep, plan).total
    exact = divergence.read_exact_kl(report.source, report.pr_ep, nprime, plan)
    kl_total, exact = (0.0 if -1e-9 <= v < 0.0 else v for v in (kl_total, exact))
    map_result = None
    if map_vars is None:
        width = min_fill_order(nprime).width
    else:
        map_result = approximate_map_quality(
            net, nprime, plan, ev, evp, map_vars, width_cap=width_cap
        )
        width = constrained_order(nprime, map_vars).width
    elapsed_ms = int(round((time.perf_counter() - start) * 1000)) if real_timings else 0
    row = ReportRow(
        network=network_id,
        instance=instance_id,
        method=method,
        selection=selection_tag,
        edges_deleted=len(edges),
        iterations=report.iterations,
        converged=report.converged,
        kl_bound=kl_total,
        exact_kl=exact,
        map_ratio=None if map_result is None else map_result.ratio,
        constrained_treewidth=width,
        wall_time_ms=elapsed_ms,
    )
    outcome = InstanceOutcome(row=row, plan=plan, trace=trace, map_result=map_result)
    if compute_marginals:
        outcome.marginals = _source_marginals(apply_params(nprime, plan), evp, width_cap)
    return outcome


def rank_edges(net: Network, ev: Evidence, selection: str, rng,
               width_cap: int = WIDTH_CAP_DEFAULT):
    """Ordered edge list (and per-edge warm-start params for 'guided')."""
    if selection == "rand":
        edges = net.edges()
        perm = rng.permutation(len(edges))
        return [edges[i] for i in perm], None
    if selection == "guided":
        scores = divergence.score_edges(net, ev, width_cap=width_cap)
        return [(s.parent, s.child) for s in scores], [s.params for s in scores]
    if selection == "mi":
        scores = divergence.mutual_information_scores(net, ev, width_cap=width_cap)
        return [(u, x) for u, x, _ in scores], None
    raise ModelError(f"unknown selection {selection!r}")


def run_experiment(spec: ExperimentSpec, load_network=None) -> list[ReportRow]:
    """Execute the spec's (instance, method, selection, k) matrix.

    Synthetic networks are redrawn per instance (an instance is one sampled
    problem); file networks are loaded once and only the evidence varies.
    An instance makes one pass on its source network
    (``divergence.source_pass``), which its guided ranking and every cell
    read; the all-edges augmentation is built only for a guided ranking's
    tie refit.
    Failures of individual runs are recorded in-row and the run continues.
    Rows are ordered by (instance, method, selection, k).
    """
    synthetic = parse_synthetic(spec.network) is not None
    base_net = None
    if not synthetic:
        if load_network is None:
            raise ModelError("file networks need a loader")
        base_net = load_network(spec.network)
    rows: list[ReportRow] = []
    for instance in range(spec.instances):
        rng = np.random.default_rng([spec.seed, instance])
        net = (
            make_synthetic(spec.network, spec.states, rng) if synthetic else base_net
        )
        ev = sample_evidence(net, spec.evidence, rng)
        rankings = {}
        for sel in spec.selections:
            rankings[sel] = rank_edges(net, ev, sel, rng)
        for method in spec.methods:
            for sel in spec.selections:
                ranked, guided_params = rankings[sel]
                for k in spec.ks:
                    if k > len(ranked):
                        continue
                    warm = None
                    if method == "ed-kl" and guided_params is not None:
                        warm = guided_params[:k]
                    try:
                        outcome = run_deletion_instance(
                            net,
                            ev,
                            ranked[:k],
                            method,
                            network_id=spec.network,
                            instance_id=instance,
                            selection_tag=sel,
                            warm_params=warm if warm else None,
                            max_iterations=spec.max_iterations,
                            tolerance=spec.tolerance,
                            damping=spec.damping,
                            real_timings=spec.real_timings,
                        )
                        rows.append(outcome.row)
                    except ModelError:
                        rows.append(
                            ReportRow(
                                network=spec.network,
                                instance=instance,
                                method=method,
                                selection=sel,
                                edges_deleted=k,
                                iterations=0,
                                converged=False,
                                kl_bound=math.inf,
                                exact_kl=None,
                                map_ratio=None,
                                constrained_treewidth=-1,
                                wall_time_ms=0,
                            )
                        )
    return rows
