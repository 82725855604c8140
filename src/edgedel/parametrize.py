"""Fixed-point search for edge parameters.

Sweeps apply one of two update rules, both implemented by
``divergence.edge_update``.  The belief-propagation rule ("ed-bp") sets
each clone prior from the derivative of the approximate evidence probability
with respect to the soft-evidence row, and vice versa; its fixed points make
the parent and clone posteriors agree.  The divergence rule ("ed-kl") scales
the true parent posterior by the approximate evidence probability over the
matching derivative; its fixed points make both posteriors agree with the
true one, which is exactly stationarity of the true-weighted KL divergence
between the source network and its approximation.

``run`` is the one entry point: the method, the schedule, the number of
sweeps and whether to start from the plan's parameters all come from its
``IterationConfig``, so a single sweep is ``run`` with ``max_iterations=1``.
What its sweeps read is built once, before the first sweep: one jointree
of N' and its evidence (``engine.Jointree``) in both schedules.  A
sequential run reads each edge's table over (parent, clone) off it, and a
simultaneous run each edge's derivatives with respect to its clone prior
and soft-evidence row; either reads Pr'(e') off it.  Each update is data
in, data out: ``edge_update`` takes the edge's reads (Pr'(e') and both
derivative vectors) and, in a sequential run, its table, and returns the
new vectors.  An edge's new (pm, se) reach the tree through one write
method (``Jointree.set_input``) as the inputs that ``apply_params`` would
install, sliced by the evidence as the tree sliced the tables it read off
N': the clone prior, and of the soft-evidence CPT (``deletion.se_table``)
only its observed column, ``se`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine
from .deletion import SE_OBSERVED, DeletionPlan, EdgeParams, apply_params
from .deletion import _checked_vectors, deleted_records
from .divergence import edge_update, forward_backward, kl_breakdown, reference_pass
from .divergence import single_edge_evaluate, true_edge_marginals
from .engine import WIDTH_CAP_DEFAULT
from .model import Evidence, ModelError, Network

METHODS = ("ed-bp", "ed-kl")
SCHEDULES = ("sequential", "simultaneous")
INITS = ("uniform", "plan")


@dataclass(frozen=True)
class IterationConfig:
    method: str = "ed-kl"
    max_iterations: int = 200
    tolerance: float = 1e-8
    damping: float = 0.0
    schedule: str = "sequential"
    initialization: str = "uniform"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ModelError(f"unknown method {self.method!r}")
        if self.schedule not in SCHEDULES:
            raise ModelError(f"unknown schedule {self.schedule!r}")
        if self.initialization not in INITS:
            raise ModelError(f"unknown initialization {self.initialization!r}")
        if self.max_iterations < 0:
            raise ModelError("max_iterations must be >= 0")
        if not (self.tolerance > 0):
            raise ModelError("tolerance must be positive")
        if not (0.0 <= self.damping < 1.0):
            raise ModelError("damping must lie in [0, 1)")


@dataclass(frozen=True)
class SweepRecord:
    sweep: int
    residual: float
    kl_bound: float | None


@dataclass(frozen=True)
class FixedPointReport:
    """How a ``run`` ended: the last sweep's per-edge residuals, the sweep
    count, whether the largest residual fell below tolerance, and, None
    without a reference, the source pass and Pr'(e') at the returned plan."""

    residuals: tuple[float, ...]
    iterations: int
    converged: bool
    source: engine.Adjoints | None = field(repr=False, compare=False)
    pr_ep: float | None


@dataclass(frozen=True)
class ConditionGaps:
    """Per-edge fixed-point condition gaps from ``check_conditions``:
    parent/clone posterior agreement (``eq_match_gaps``) and agreement with
    the true posterior (``eq_exact_gaps``)."""

    eq_match_gaps: tuple[float, ...]
    eq_exact_gaps: tuple[float, ...]


def _chained(expected, got, label) -> float:
    """Pr'(e') from one edge table, checked against the value carried so far."""
    if expected is None:
        return got
    if abs(got - expected) > engine.EULER_RTOL * max(abs(expected), abs(got), 1e-300):
        raise ModelError(f"edge table for {label} gives Pr'(e') = {got}, expected {expected}")
    return expected


class _Fit:
    """One ``run``'s current edge vectors and the one jointree of N' its
    sweeps read (``engine.Jointree``), built from N' and its evidence.

    In sequential mode query i is edge i's table g over (parent, clone):
    N' without the edge's clone prior and soft-evidence CPT, whose chain
    gives Pr'(e').  In simultaneous mode queries 2i and 2i + 1 are edge i's
    dPr'/dpm, N' without the clone prior over the clone, and dPr'/dse, N'
    without the soft-evidence CPT over the parent; each lies inside an
    existing family, so the tree keeps N''s width.  In both modes the last
    query, which keeps nothing and so moves no other query, gives Pr'(e').

    Setting an edge's vectors writes its clone prior and its soft-evidence
    input into the tree (``Jointree.set_input``), which forgets the
    messages leaving the edge's clique; no other input is read again.  The
    unobserved clone's input is ``pm`` itself.  The soft-evidence variable
    is observed at ``SE_OBSERVED`` (``run`` checks it), whose column of
    ``deletion.se_table(se)`` is ``se``, so the tree reads only ``se``,
    sliced by the parent's evidence: an observed parent's state, taken as
    a 0-d view.  Every start vector is written, also one that the tree
    already read off N': a write before the first read sets an input and
    forgets only messages that were never sent, which costs less than
    checking whether it is needed.  An empty plan's tree holds only the
    Pr'(e') query, so a too-wide N' is refused there too.
    """

    def __init__(self, nprime, evp, records, vectors, sequential, width_cap):
        self.records = records
        self.labels = [f"edge {rec.parent} -> {rec.child}" for rec in records]
        self.vectors = list(vectors)
        if sequential:
            queries = [((rec.clone, rec.sevid), (rec.parent, rec.clone)) for rec in records]
        else:
            queries = [q for rec in records
                       for q in (((rec.clone,), (rec.clone,)), ((rec.sevid,), (rec.parent,)))]
        self.tree = engine.Jointree(nprime, evp, queries + [((), ())], width_cap)
        self._se_at = [
            (nprime.var(rec.parent).index_of(evp[rec.parent]), ...) if rec.parent in evp else ...
            for rec in records
        ]
        for j, (pm, se) in enumerate(self.vectors):
            self.set(j, pm, se)

    def pr_ep(self):
        """Pr'(e') at the current vectors: the last query's table."""
        return float(self.tree.table(-1))

    def set(self, j, pm, se):
        """Make (pm, se) edge j's vectors."""
        rec = self.records[j]
        self.vectors[j] = (pm, se)
        self.tree.set_input(rec.clone, pm)
        self.tree.set_input(rec.sevid, se[self._se_at[j]])


def _sweep(fit, method, true_marginals, damping, sequential, pr_ep=None):
    """One full pass over the plan's edges; returns (per-edge residuals,
    Pr'(e') at the new vectors, or None in simultaneous mode, which does
    not compute it).

    A sweep reads N' only through ``fit``'s jointree, and writes only the
    edges' new tables into it (``_Fit.set``); it records nothing.
    Only the messages that earlier writes made stale are sent again.

    Sequential mode reads one table per edge: g over (parent, clone) of N'
    with that edge's clone prior and soft-evidence CPT left out, at the
    other edges' current vectors, so that Pr'(e') = se g pm.  One
    ``single_edge_evaluate`` reads Pr'(e') and both derivative vectors off
    g, and ``divergence.edge_update`` fits the edge from them and g.  Each
    write forgets only the messages on the path from its clique to the
    next edge's.

    Simultaneous mode reads every edge's dPr'/dpm and dPr'/dse at the
    sweep-start vectors before it writes any, and ``edge_update`` moves
    both of the edge's vectors from them.

    Each edge's Pr'(e') must reproduce the value carried so far
    (``_chained``), starting from ``pr_ep``, or the first edge's where that
    is None: in sequential mode se g pm, carried on from each update's end;
    in simultaneous mode both d_pm pm and d_se se, all at the sweep-start
    vectors.  The update rule takes the edge's own value.
    """
    residuals = []
    tree = fit.tree
    if not sequential:
        # each edge's dPr'/dpm and dPr'/dse, at the sweep-start vectors
        derivatives = [tree.table(j) for j in range(2 * len(fit.labels))]
    for i, label in enumerate(fit.labels):
        true_marg = true_marginals[i] if true_marginals is not None else None
        pm, se = fit.vectors[i]
        g = None
        if sequential:
            g = tree.table(i)
            reads = single_edge_evaluate(g, pm, se)
            _chained(pr_ep, reads[0], label)
        else:
            d_pm, d_se = derivatives[2 * i : 2 * i + 2]
            reads = (float(d_pm @ pm), d_pm, d_se)
            pr_ep = _chained(pr_ep, reads[0], label)
            _chained(pr_ep, float(d_se @ se), label)
        pm, se, residual = edge_update(reads, pm, se, method, true_marg, label, damping, g)
        if sequential:
            # single_edge_evaluate's product order, so Pr'(e') keeps its bits
            pr_ep = float((se @ g) @ pm)
        fit.set(i, pm, se)
        residuals.append(residual)
    return residuals, pr_ep if sequential or not fit.records else None


def run(
    nprime: Network,
    plan: DeletionPlan,
    evp: Evidence,
    cfg: IterationConfig,
    *,
    reference: engine.Adjoints | tuple[Network, Evidence] | None = None,
    width_cap: int = WIDTH_CAP_DEFAULT,
):
    """Iterate sweeps until the parameter residual drops below tolerance.

    This is the one way to fit edge parameters: ``cfg`` picks the update
    rule (``method``), the ``schedule``, the sweep budget and the starting
    point, and ``max_iterations=1`` with ``initialization="plan"`` is one
    sweep from the plan's current parameters.  Each plan vector must have
    its clone's (``pm``) or parent's (``se``) cardinality; a wrong length
    raises ``ModelError`` before any sweep.

    Each edge's soft-evidence variable must be observed in
    ``deletion.SE_OBSERVED``, and its clone must not be observed, or
    ``ModelError`` names the variable before any sweep.

    N' is ordered and bound once, when the run starts, as one jointree (see
    ``_Fit``), so a too-wide N' raises ``CapacityError`` there even with
    ``max_iterations=0``.  A sweep writes only the edges' new clone-prior
    and soft-evidence tables into the tree (``_sweep``).  The vectors stay
    plain arrays inside the loop; the returned plan holds one
    ``EdgeParams`` per edge, built at the end.
    With a reference, the KL bound after a simultaneous sweep reads Pr'(e')
    off the tree, and the next sweep's reads reuse the messages that read
    sent; a sequential sweep carries it.  The report hands back the
    reference's pass and Pr'(e') at the returned parameters (``source``,
    ``pr_ep``): the value the last KL bound used, or, with no sweep, one
    read off the tree.  An empty plan's N' is the source network, so its
    Pr'(e') is the reference's Pr(e), which the bound reads.

    ``reference`` gives the source network's derivative pass, from which
    the true parent posteriors are read (``true_edge_marginals``): either
    the pass itself (``engine.Adjoints``), made on the source network
    (``divergence.source_pass`` keeps one per (network, evidence)) or on
    any augmentation of it, or an (original or augmented network,
    evidence) pair, which resolves to the kept pass on the original network
    under ``width_cap`` (``divergence.reference_pass``).  It is required
    for "ed-kl" (the updates need the true parent posteriors) and optional
    for "ed-bp", where it only enables the KL-bound column of the trace.
    Non-convergence is reported, not raised; Pr'(e') = 0 raises
    ``InconsistentEvidenceError`` under either method.  The KL-bound trace need not
    decrease monotonically: fixed points are stationary points of the
    divergence, and the iteration is not a descent method.

    Returns (final plan, FixedPointReport, list of SweepRecord).
    """
    if cfg.method == "ed-kl" and len(plan) and reference is None:
        raise ModelError("ed-kl requires the source network (reference=...)")
    if cfg.initialization == "uniform":
        plan = DeletionPlan.uniform(nprime, plan.edges) if len(plan) else plan
    records = deleted_records(nprime, plan)
    for rec in records:
        if rec.clone in evp:
            raise ModelError(f"clone {rec.clone} must not be observed")
        if evp.get(rec.sevid) != SE_OBSERVED:
            raise ModelError(
                f"soft-evidence variable {rec.sevid} must be observed as {SE_OBSERVED!r}"
            )
    sequential = cfg.schedule == "sequential"
    vectors = [_checked_vectors(nprime, rec, params) for rec, params in zip(records, plan.params)]
    fit = _Fit(nprime, evp, records, vectors, sequential, width_cap)
    source = reference
    if reference is not None and not isinstance(reference, engine.Adjoints):
        source = reference_pass(*reference, width_cap)
    true_marginals = None if source is None else true_edge_marginals(source, plan)
    bounded = source is not None and source.pr_e > 0

    trace: list[SweepRecord] = []
    residuals: tuple[float, ...] = ()
    converged = False
    iterations = 0
    pr_ep = source.pr_e if source is not None and not records else None
    for sweep in range(1, cfg.max_iterations + 1):
        res, pr_ep = _sweep(fit, cfg.method, true_marginals, cfg.damping, sequential, pr_ep)
        iterations = sweep
        residuals = tuple(res)
        worst = max(res) if res else 0.0
        kl = None
        if bounded:
            if pr_ep is None:
                pr_ep = fit.pr_ep()
            if pr_ep > 0:
                kl = kl_breakdown(true_marginals, fit.vectors, source.pr_e, pr_ep).total
        trace.append(SweepRecord(sweep, worst, kl))
        if worst < cfg.tolerance:
            converged = True
            break
    if reference is None:
        pr_ep = None
    elif pr_ep is None:
        pr_ep = fit.pr_ep()
    if iterations:
        plan = plan.with_all_params(EdgeParams(pm, se) for pm, se in fit.vectors)
    return plan, FixedPointReport(residuals, iterations, converged, source, pr_ep), trace


def check_conditions(
    aug: Network,
    nprime: Network,
    plan: DeletionPlan,
    ev: Evidence,
    evp: Evidence,
    *,
    width_cap: int = WIDTH_CAP_DEFAULT,
) -> ConditionGaps:
    """Measure both fixed-point conditions for every plan edge.

    Per edge the "match" gap is the larger of
      max_u |Pr'(u|e') - Pr'(u'|e')|   and
      max_u |Pr'(u|e' minus this edge's s') - pm(u)|,
    i.e. how far the parent/clone posteriors are from agreeing.  The "exact"
    gap additionally compares both posteriors against the true Pr(u|e) from
    the source network.

    Every posterior comes from one derivative pass on each network: on N'
    (``forward_backward``) and on the source (``reference_pass`` of
    ``aug``).  Since Pr'(e') = sum_u se_u Pr'(u, e' minus s'), the
    soft-evidence adjoint d_se is Pr'(u, e' minus s'), so
    Pr'(u | e' minus s') = d_se / sum(d_se).
    """
    records = deleted_records(nprime, plan)
    current = apply_params(nprime, plan)
    grads = forward_backward(current, evp, width_cap)
    true_marginals = true_edge_marginals(reference_pass(aug, ev, width_cap), plan)
    match_gaps = []
    exact_gaps = []
    for rec, params, true in zip(records, plan.params, true_marginals):
        pu = grads.posterior(rec.parent)
        puc = grads.posterior(rec.clone)
        gap_a = float(np.max(np.abs(pu - puc)))
        d_se = grads.cpt(rec.sevid)[:, 0]
        gap_b = float(np.max(np.abs(d_se / d_se.sum() - params.pm)))
        match_gaps.append(max(gap_a, gap_b))
        exact_gaps.append(float(max(np.max(np.abs(pu - true)), np.max(np.abs(puc - true)))))
    return ConditionGaps(tuple(match_gaps), tuple(exact_gaps))
