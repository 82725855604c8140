"""KL divergence between a network and its edge-deleted approximation.

``kl_bound`` evaluates the divergence over all augmented-network variables in
closed form: one term per deleted edge built from the true parent posterior
and the edge parameters, plus a log-ratio of evidence probabilities.  This
quantity upper-bounds ``exact_kl``, the divergence between the posteriors
restricted to the source variables, which is local too: only the families
of the deleted edges' children and one soft-evidence term per edge differ.
Both read (``read_kl_bound``, ``read_exact_kl``) Pr'(e') and a derivative
pass on the source network (``forward_backward``: Pr(e) and every CPT's
derivative table, off one jointree by ``engine.derivatives``), which a fit
with a reference hands back (``parametrize.run``); ``kl_bound`` and
``exact_kl`` make both themselves.  A reference is the source network:
``source_pass`` is the one resolver of a (network, evidence) reference,
refuses a network of another kind than original before any pass, and
keeps the most recent pair's pass, which ``score_edges``, the harness's
fits and every reference of the same pair share.  ``edge_update`` is the
one fixed-point update of a single deleted edge (ed-bp or ed-kl), read off
Pr'(e') and its derivatives with respect to the edge's parameters, and in
a sequential update off the edge's table too; the parametrization sweeps
call it once per edge.
``score_edges`` ranks every edge of a source network by the divergence
achievable when it alone is deleted with ed-kl parameters: every clone
CPT's derivative table in the all-edges augmentation is one contraction of
its child's CPT with the child's table in the source pass
(``_clone_tables``), and the scorer then takes the sweep's ed-kl edge
update on all tables of one shape and layout at once, bitwise each edge's
own fit.  Only edges whose scores tie within TIE_TOL are refitted, all in
one refit per call, on the tables of one derivative elimination each on the
all-edges augmentation, which fixes their order to that route's.  The
refit's eliminations are recorded once per (source layout, observed
variables, tied edges) and kept by the engine
(``engine.derived_derivatives``), so only a call that records them builds
the augmentation (``_augmentation``), and a call replays each bucket they
share once.  ``score_edges`` and
``mutual_information_scores`` score original networks only; an augmented
or approximate input is refused before any pass.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import engine
from .deletion import DeletionPlan, EdgeParams, apply_params, augment
from .engine import WIDTH_CAP_DEFAULT
from .model import (
    DegenerateUpdateError,
    Evidence,
    InconsistentEvidenceError,
    ModelError,
    Network,
    enumerate_joint,  # noqa: F401 (unused here; perfbench/test_perfbench.py checks it)
)

INNER_MAX_ITERATIONS = 50
INNER_TOLERANCE = 1e-10

# relative gap below which two edges' scores count as a tie (see score_edges)
TIE_TOL = 1e-12

DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class KlBreakdown:
    """Per-edge divergence terms, the log evidence-ratio correction, and the total."""

    edge_terms: tuple[float, ...]
    correction: float
    total: float

    @property
    def infinite(self) -> bool:
        return math.isinf(self.total)


def _edge_term(diag: np.ndarray, pm: np.ndarray, se: np.ndarray) -> float:
    term = 0.0
    prod = pm * se
    # as Python floats, so the terms and the total are plain floats
    for t, pq in zip(diag.tolist(), prod.tolist()):
        if t <= 0.0:
            continue
        if pq <= 0.0:
            return math.inf
        term -= t * math.log(pq)
    return term


def kl_breakdown(marginals, vectors, pr_e: float, pr_ep: float) -> KlBreakdown:
    """The bound from per-edge parent posteriors and (pm, se) vectors, and
    Pr(e), Pr'(e')."""
    terms = tuple(_edge_term(m, pm, se) for m, (pm, se) in zip(marginals, vectors))
    correction = math.log(pr_ep / pr_e)
    total = sum(terms) + correction if all(map(math.isfinite, terms)) else math.inf
    return KlBreakdown(terms, correction, total)


def forward_backward(net: Network, ev: Evidence, width_cap=WIDTH_CAP_DEFAULT) -> engine.Adjoints:
    """Pr(e) and every CPT's derivative table, off one jointree
    (``engine.derivatives``)."""
    return engine.derivatives(net, ev, [layout[0] for layout in net.layout()], width_cap)


def true_edge_marginals(source: engine.Adjoints, plan: DeletionPlan):
    """Exact parent posteriors per plan edge, read off ``source``, a
    derivative pass (``engine.derivatives``, such as ``source_pass``) on the
    source network.

    ``Adjoints.posterior`` reads each parent's posterior off its own CPT's
    derivative table (each checked by the Euler identity).  A non-empty plan
    under evidence of probability zero raises ``InconsistentEvidenceError``.
    """
    if len(plan) and source.pr_e <= 0.0:
        raise InconsistentEvidenceError("source network: evidence has zero probability")
    parents = dict.fromkeys(rec.parent for rec in plan.edges)
    posteriors = {u: source.posterior(u) for u in parents}
    return [posteriors[rec.parent] for rec in plan.edges]


# the most recent source pass: (net, ev, width_cap, pass)
_kept_pass = None


def source_pass(net: Network, ev: Evidence, width_cap=WIDTH_CAP_DEFAULT) -> engine.Adjoints:
    """The derivative pass (``forward_backward``) on the original network
    ``net`` under ``ev``: the one resolver of a (network, evidence)
    reference.  A network of another kind is refused, as ``ModelError``
    naming its kind, before any pass.

    Pr(e), every source variable's posterior and every family table are
    fixed by (``net``, ``ev``), and every clone table of the all-edges
    augmentation follows from them (``_clone_tables``).  So the pass of
    the most recent call is kept, and a call with the same ``net`` and
    ``ev`` objects and the same ``width_cap`` returns it: ``score_edges``
    and every ``harness.run_deletion_instance`` cell of one instance share
    one pass.  The key is identity, not content (``Network`` and
    ``Evidence`` are not hashable): an equal but distinct object makes a
    new pass.  The entry holds both objects, so their ids are not reused
    while it is kept.  A refused pass (``CapacityError``) is not kept.
    """
    global _kept_pass
    kept = _kept_pass
    if kept is not None and kept[0] is net and kept[1] is ev and kept[2] == width_cap:
        return kept[3]
    if net.kind != "original":
        raise ModelError(f"a reference must be an original network, got kind {net.kind!r}")
    grads = forward_backward(net, ev, width_cap)
    _kept_pass = (net, ev, width_cap, grads)
    return grads


def _clone_tables(source: engine.Adjoints, edges) -> list[np.ndarray]:
    """Each edge U -> X's clone-CPT derivative table in the all-edges
    augmentation, over (parent, clone), from ``source``, a pass on the
    source network.

    Pr(e) is multilinear in the CPT entries, and in the augmentation X's
    CPT reads the clone U' where every other table reads U.  So with U = u
    and U' = u', Pr(e) with the equivalence CPT left out is X's CPT at u'
    times X's derivative table d_X at u: g[u, u'] = sum_{x, z}
    theta_X(x | u', z) d_X(u, z, x), one C einsum (``engine._einsum``) per
    edge.  Each child's d_X is read, and Euler-checked, once, and each g is
    checked by its trace, sum(equivalence CPT * g), which is Pr(e) too.
    """
    net, pr_e, letters = source.net, source.pr_e, engine._LETTERS
    families = {}
    tables = []
    for u, x in edges:
        if x not in families:
            families[x] = net.cpt(x).shaped, source.cpt(x), net.parent_names(x)
        theta, d, parents = families[x]
        i, n = parents.index(u), d.ndim
        axes = letters[:n]
        primed = axes[:i] + letters[n] + axes[i + 1:]
        g = engine._einsum(f"{axes},{primed}->{axes[i]}{letters[n]}", d, theta)
        engine._check_identity(
            float(g.trace()), pr_e, f"clone table of edge {u} -> {x} violates the trace(g)"
        )
        tables.append(g)
    return tables


def _check_evidence(source: engine.Adjoints, pr_ep: float) -> None:
    for pr, what in ((source.pr_e, "source network: evidence"),
                     (pr_ep, "approximate network: augmented evidence")):
        if pr <= 0.0:
            raise InconsistentEvidenceError(f"{what} has zero probability")


def read_kl_bound(source: engine.Adjoints, pr_ep: float, plan: DeletionPlan) -> KlBreakdown:
    """``kl_bound`` from the source pass and Pr'(e') at the plan's parameters."""
    _check_evidence(source, pr_ep)
    marginals = [source.posterior(rec.parent) for rec in plan.edges]
    vectors = [(p.pm, p.se) for p in plan.params]
    return kl_breakdown(marginals, vectors, source.pr_e, pr_ep)


def kl_bound(
    net: Network,
    nprime: Network,
    plan: DeletionPlan,
    ev: Evidence,
    evp: Evidence,
    *,
    width_cap: int = WIDTH_CAP_DEFAULT,
) -> KlBreakdown:
    """Closed-form divergence over all augmented-network variables, read
    (``read_kl_bound``) off the source pass (``source_pass`` of the source
    network ``net``) and a Pr'(e')-only jointree of N' at the plan's
    parameters."""
    source = source_pass(net, ev, width_cap)
    pr_ep = engine.derivatives(apply_params(nprime, plan), evp, (), width_cap).pr_e
    return read_kl_bound(source, pr_ep, plan)


def _log_ratio_mass(p, num, den) -> float:
    """sum(p * log(num / den)) where p > 0; inf if den = 0 at such an entry."""
    mass = p > 0.0
    if np.any(den[mass] <= 0.0):
        return math.inf
    return float(np.sum(p[mass] * np.log(num[mass] / den[mass])))


def read_exact_kl(source: engine.Adjoints, pr_ep: float, nprime: Network, plan) -> float:
    """``exact_kl`` from the source pass, Pr'(e') and N''s CPTs.

    Summing the deleted clones out of N' leaves the source structure with a
    factor se(u) per deleted edge, and, for a child X of deleted edges, X's
    N' CPT theta_X with each clone axis contracted against the clone's prior
    ``pm`` (theta'_X).  So KL = sum_X sum_fam Pr(fam | e)
    log(theta_X / theta'_X) - sum_edges sum_u Pr(u | e) log se(u) +
    log(Pr'(e') / Pr(e)), adding nothing where the true mass is zero and
    inf where it meets theta'_X = 0 or se(u) = 0.
    """
    _check_evidence(source, pr_ep)
    clones = {}
    for rec, params in zip(plan.edges, plan.params):
        clones.setdefault(rec.child, []).append((rec.clone, params.pm))
    total = math.log(pr_ep / source.pr_e)
    for child, pms in clones.items():
        theta = theta_p = nprime.cpt(child).shaped
        for clone, pm in pms:
            axis = nprime.parent_names(child).index(clone)
            along = [-1 if i == axis else 1 for i in range(theta.ndim)]
            theta_p = (theta_p * pm.reshape(along)).sum(axis=axis, keepdims=True)
        fam = source.family(child) / source.pr_e
        total += _log_ratio_mass(fam, theta, np.broadcast_to(theta_p, theta.shape))
    for rec, params in zip(plan.edges, plan.params):
        ones = np.ones_like(params.se)
        total += _log_ratio_mass(source.posterior(rec.parent), ones, params.se)
    return total


def exact_kl(
    net: Network,
    nprime: Network,
    plan: DeletionPlan,
    ev: Evidence,
    evp: Evidence,
    *,
    width_cap: int = WIDTH_CAP_DEFAULT,
) -> float:
    """Divergence between the two posteriors restricted to source variables,
    read (``read_exact_kl``) off the source pass (``source_pass`` of the
    source network ``net``) and a Pr'(e')-only jointree of N' at the plan's
    parameters."""
    grads = source_pass(net, ev, width_cap)
    pr_ep = engine.derivatives(apply_params(nprime, plan), evp, (), width_cap).pr_e
    return read_exact_kl(grads, pr_ep, nprime, plan)


def single_edge_evaluate(derivs: np.ndarray, pm: np.ndarray, se: np.ndarray):
    """Evidence probability and its derivatives with respect to the clone
    prior ``pm`` and the soft-evidence row ``se`` of one deleted edge.

    ``derivs`` is the evidence probability with the edge's own CPTs left out,
    over (rows: parent state, columns: clone state): the derivative table with
    respect to the equivalence CPT in the source network, or, in an
    approximate one, the edge's jointree table, N' without the clone prior
    and soft-evidence CPT summed down to (parent, clone)
    (``engine.Jointree``).  Returns (pr', d pr'/d pm, d pr'/d se), each a
    plain sum over the table -- no inference happens here.
    """
    if derivs.shape != (se.size, pm.size):
        raise ModelError("derivative table shape does not match the edge parameters")
    d_pm = se @ derivs
    d_se = derivs @ pm
    pr_ep = float(d_pm @ pm)
    return pr_ep, d_pm, d_se


@dataclass(frozen=True)
class EdgeScore:
    parent: str
    child: str
    score: float
    params: EdgeParams
    iterations: int
    converged: bool


def edkl_vector(true_marg, pr_ep, deriv, label) -> np.ndarray:
    """The ed-kl rule before normalization: true posterior times Pr'(e') over
    the derivative, entry by entry.

    A zero derivative against positive true mass is clamped to DENOM_FLOOR,
    with a warning; against zero true mass the entry is 0.  A 2-D stack of
    rows takes a label per row, and each clamping row warns with its own.
    With every derivative positive, the quotient is taken as it stands.
    """
    if np.minimum.reduce(deriv, None) > 0.0:
        return true_marg * pr_ep / deriv
    floored = deriv <= 0.0
    clamped = floored & (true_marg > 0.0)
    if clamped.any():
        for lab in [label] if deriv.ndim == 1 else compress(label, clamped.any(axis=1)):
            warnings.warn(
                f"zero derivative against positive true mass for {lab}; clamping denominator",
                RuntimeWarning,
            )
    return true_marg * pr_ep / np.where(floored, DENOM_FLOOR, deriv)


def _normalize(vec: np.ndarray, what: str) -> np.ndarray:
    # update vectors are nonnegative, so a non-finite entry shows in the sum
    s = float(np.add.reduce(vec))
    if not math.isfinite(s):
        raise DegenerateUpdateError(f"update for {what} overflowed (sum {s})")
    if not s > 0:
        raise DegenerateUpdateError(f"update for {what} is degenerate (sum {s})")
    return vec / s


def _damp(new: np.ndarray, old: np.ndarray, damping: float, what: str) -> np.ndarray:
    if damping == 0.0:
        return new
    mixed = new ** (1.0 - damping) * old**damping
    return _normalize(mixed, what)


def _update_rule(method, true_marg, pr_ep, own, cross, label) -> np.ndarray:
    """New "pm" or "se" vector from Pr'(e') and the derivatives of Pr'(e')
    with respect to that vector (``own``) and to its partner (``cross``)."""
    if pr_ep <= 0.0:
        raise InconsistentEvidenceError(
            "approximate network assigns zero probability to the augmented evidence"
        )
    if method == "ed-bp":
        # cross-pairing: the prior comes from the soft-evidence derivative
        # and the soft evidence from the prior derivative
        return _normalize(cross, label)
    return _normalize(edkl_vector(true_marg, pr_ep, own, label), label)


def edge_update(reads, pm, se, method, true_marg, label, damping=0.0, g=None):
    """One fixed-point update of one deleted edge from its clone prior
    ``pm`` and soft-evidence row ``se``; returns (new pm, new se, residual).

    ``reads`` is (Pr'(e'), d/dpm, d/dse) at (``pm``, ``se``), from which
    the prior is updated first.  With ``g``, the edge's table over (parent,
    clone) (``single_edge_evaluate``), the row is then updated at the new
    prior, from ``g @ new_pm`` and ``d_pm @ new_pm`` (the sequential sweep;
    ``score_edges`` on stacks); without it, from ``reads`` too (the
    simultaneous sweep).  ``true_marg`` is the true parent posterior (ed-kl
    only).  The residual is the largest parameter change, in Python floats.
    An all-zero or non-finite update raises ``DegenerateUpdateError``, and
    Pr'(e') <= 0, under either method, ``InconsistentEvidenceError``.
    Neither can happen when scoring: from a uniform start, Pr'(e') >=
    se_u g_uu pm_u > 0 for every parent state u with true mass, since g_uu =
    Pr(u, e).

    The vectors stay plain arrays; ``EdgeParams``, which keeps ``pm`` as
    given and clips ``se``, is built only where a fit hands its result back.
    Each sum is ``np.add.reduce``, the reduction ``ndarray.sum`` runs.  The
    prior is divided by its sum after its own update and again after the
    row's.  Fitted values depend on these steps bit for bit
    (``tests/data/fit_golden.json``), and so do the tie orders that
    ``perfbench/reference.json`` records: without the second division,
    benchmark seed 2 reorders a tie in two matrix solves
    (``i4/grid(4x4)/ed-{kl,bp}/guided/k1``).  The row needs no clipping: it
    is a nonnegative vector divided by its own sum, which is at least every
    entry, and rounding is monotone, so every entry already lies in [0, 1].
    """
    pr, d_pm, d_se = reads
    new_pm = _damp(
        _update_rule(method, true_marg, pr, d_pm, d_se, label), pm, damping, label
    )
    new_pm = new_pm / np.add.reduce(new_pm)
    if g is not None:
        d_se = g @ new_pm
        pr = float(d_pm @ new_pm)
    new_se = _damp(
        _update_rule(method, true_marg, pr, d_se, d_pm, label), se, damping, label
    )
    new_pm = new_pm / np.add.reduce(new_pm)
    # as Python floats (each vector is finite, so there is no NaN to propagate)
    new, old = new_pm.tolist() + new_se.tolist(), pm.tolist() + se.tolist()
    residual = max(map(abs, map(operator.sub, new, old)))
    return new_pm, new_se, residual


def _edkl_rows(true, pr_ep, deriv, labels) -> np.ndarray:
    """``_update_rule``'s ed-kl step on each row of a stack; the first
    failing row raises as the one-edge step would."""
    if (pr_ep <= 0.0).any():
        raise InconsistentEvidenceError(
            "approximate network assigns zero probability to the augmented evidence"
        )
    vecs = edkl_vector(true, pr_ep, deriv, labels)
    sums = vecs.sum(axis=1, keepdims=True)
    # a NaN sum fails both comparisons
    if not (np.minimum.reduce(sums, None) > 0.0 and np.maximum.reduce(sums, None) < math.inf):
        for i in np.flatnonzero(~(np.isfinite(sums[:, 0]) & (sums[:, 0] > 0))):
            _normalize(vecs[i], labels[i])
    return vecs / sums


def _fit_stack(edges, g: np.ndarray, true: np.ndarray, pr_e: float) -> list[tuple]:
    """Fit deleted edges ``edges``, (parent, child) pairs, from a stack g
    of their clone CPTs' derivative tables over (parent, clone), with true
    parent posteriors ``true`` (g[u, u] = Pr(u, e)); one (score, pm, se,
    iterations, converged) row per edge.  Each edge's parameters are the
    ``parametrize.run`` fit of its one-edge plan: ``edge_update`` ("ed-kl",
    sequential, undamped) on ``single_edge_evaluate`` from uniform, until
    the residual drops below INNER_TOLERANCE or INNER_MAX_ITERATIONS times.
    Each row takes those steps in the same order until its own convergence,
    and stacked ``np.matmul`` calls BLAS once per item, as the one-edge
    product does, so every row is bitwise its own one-edge fit.  The live
    rows are copied out of the stack only when a row converges.  The score
    is bitwise ``kl_breakdown``'s one-edge total.
    """
    labels = np.array([f"edge {u} -> {x}" for u, x in edges], dtype=object)
    start, n = EdgeParams.uniform(g.shape[-1]), len(g)
    pm, se = np.tile(start.pm, (n, 1)), np.tile(start.se, (n, 1))
    iterations, converged = np.full(n, INNER_MAX_ITERATIONS), np.zeros(n, dtype=bool)
    live = np.arange(n)
    gl, tl, lab, old_pm, old_se = g, true, labels, pm, se
    for it in range(1, INNER_MAX_ITERATIONS + 1):
        d_pm = old_se[:, None] @ gl
        new_pm = _edkl_rows(tl, (d_pm @ old_pm[:, :, None])[:, 0], d_pm[:, 0], lab)
        new_pm = new_pm / new_pm.sum(axis=1, keepdims=True)
        d_se = (gl @ new_pm[:, :, None])[:, :, 0]
        new_se = _edkl_rows(tl, (d_pm @ new_pm[:, :, None])[:, 0], d_se, lab)
        new_pm = new_pm / new_pm.sum(axis=1, keepdims=True)
        residual = np.maximum(abs(new_pm - old_pm).max(axis=1), abs(new_se - old_se).max(axis=1))
        done = residual < INNER_TOLERANCE
        old_pm, old_se = new_pm, new_se
        if done.any():
            pm[live], se[live] = new_pm, new_se
            iterations[live[done]], converged[live[done]] = it, True
            keep = ~done
            live = live[keep]
            if not live.size:
                break
            gl, tl, lab, old_pm, old_se = gl[keep], tl[keep], lab[keep], new_pm[keep], new_se[keep]
    if live.size:
        pm[live], se[live] = old_pm, old_se
    pr_ep = ((se[:, None] @ g) @ pm[:, :, None])[:, 0, 0]
    return [
        (_edge_term(t, p, s) + math.log(pr / pr_e), p, s, k, c)
        for t, p, s, pr, k, c in zip(
            true, pm, se, pr_ep.tolist(), iterations.tolist(), converged.tolist()
        )
    ]


def _scoring_pass(net: Network, ev: Evidence, width_cap, scorer: str):
    """``source_pass`` and the edges of ``net`` for ``scorer``; a network
    of another kind than original is refused before any pass."""
    if net.kind != "original":
        raise ModelError(f"{scorer} expects an original network, got kind {net.kind!r}")
    grads, edges = source_pass(net, ev, width_cap), net.edges()
    if edges and grads.pr_e <= 0.0:
        raise InconsistentEvidenceError("evidence has zero probability")
    return grads, edges


def score_edges(
    net: Network,
    ev: Evidence,
    *,
    width_cap: int = WIDTH_CAP_DEFAULT,
) -> list[EdgeScore]:
    """Score every edge of the original network ``net`` in isolation;
    smaller is better to delete.  Any other kind raises ``ModelError``.

    The pass is ``source_pass``'s, which the harness's cells of the same
    (network, evidence) read too, and each edge's clone table over
    (parent, clone) is derived from it (``_clone_tables``, checked by its
    trace).  Tables of one shape and memory layout are stacked, and
    ``_fit_stack`` fits their edges in one ed-kl loop, bitwise the per-edge
    ``edge_update`` fit.  Ranking is ascending by (score, declaration
    index), and infinite scores sort last.  Each ``EdgeScore`` is built
    once, in its final place.

    Edges that tie mathematically, such as the two out-edges of a root with
    two children, differ only in the last bits, and which bits depends on
    the route that computed their tables.  The ranking is pinned to the
    route of one derivative elimination per edge on the all-edges
    augmentation (what ``engine.cpt_derivatives`` gives): adjacent scores
    within TIE_TOL (relative, floored at 1 absolute) form a run, and each
    run of two or more edges is refitted on that route's tables, then
    ordered and reported by the refitted (score, declaration index).  Every
    run of a call shares one refit, ``engine.derived_derivatives`` over the
    tied edges, which gives that route's Pr(e) (``engine.compile``'s) once
    and each tied edge's table, bit for bit.  It keeps one structure per
    (source layout, observed variables, tied edges): the augmentation
    (``_augmentation``) is built, and the eliminations recorded, only on
    its first use, and every call reads the source CPTs off ``net`` and
    replays each bucket that the eliminations share once.  A refitted score
    keeps that route's bits whatever the pass's Pr(e) (the jointree's
    differs from ``compile``'s in the last bit on some networks), and only
    a tie run needs the refit's width.  Measured on the benchmark's
    seeded instances (the whole pools of its three workloads at seeds
    1-10: grid(5x5)-grid(7x7) rungs, grid(4x4) MAP instances,
    chain(8)/grid(4x4) matrix cells; 1640 calls), the derived tables' and
    the eliminations' scores differ by at most 2.2e-15 absolute (4.3e-14
    relative), mathematical ties by at most 1.0e-15, and the smallest
    genuine gap is 5.6e-11, so TIE_TOL = 1e-12 separates them.  Sorting
    the derived tables' scores alone would have reordered a tie in 499 of
    the 1640.  With many ties, as under empty evidence, where a parent's
    out-edges all tie, the cost is the one pass plus one refit: Pr(e) once
    and each distinct bucket of the tied edges' eliminations once; the
    refits are stacked too.
    """
    grads, edges = _scoring_pass(net, ev, width_cap, "score_edges")
    tables = _clone_tables(grads, edges)

    def ranked(idxs, table, pr_e):
        """(fit row, edge index) pairs of ``idxs``, sorted by (score, index)."""
        groups: dict[tuple, list] = {}
        for i in idxs:
            t = table(i)
            groups.setdefault((t.shape, t.flags.c_contiguous), []).append((i, t))
        fits = []
        for group in groups.values():
            # np.stack keeps the group's layout, and with it np.matmul's BLAS route
            g = np.stack([t for _, t in group])
            true = g.diagonal(axis1=1, axis2=2) / pr_e
            fits += zip(_fit_stack([edges[i] for i, _ in group], g, true, pr_e),
                        (i for i, _ in group))
        return sorted(fits, key=lambda t: (t[0][0], t[1]))

    scored = ranked(range(len(edges)), tables.__getitem__, grads.pr_e)
    runs, start = [], 0
    for end in range(1, len(scored) + 1):
        if end < len(scored):
            a, b = scored[end - 1][0][0], scored[end][0][0]
            if abs(a - b) <= TIE_TOL * max(1.0, abs(a), abs(b)):
                continue
        runs.append(scored[start:end])
        start = end
    tied = [i for run in runs if len(run) > 1 for _, i in run]
    if tied:
        pr_e, refit = engine.derived_derivatives(net, ev, _augmentation, tied, width_cap)
        refit = dict(zip(tied, refit))
    out: list[EdgeScore] = []
    for run in runs:
        if len(run) > 1:
            run = ranked([i for _, i in run], refit.__getitem__, pr_e)
        out.extend(EdgeScore(*edges[i], score, EdgeParams(pm, se), k, c)
                   for (score, pm, se, k, c), i in run)
    return out


def _augmentation(net: Network):
    """The all-edges augmentation of ``net`` and each edge's clone CPT name,
    by edge index: the network and the CPTs of ``score_edges``' tie refit
    (``engine.derived_derivatives``)."""
    aug = augment(net, net.edges())
    return aug, [rec.clone for rec in aug.clone_edges]


def mutual_information_scores(
    net: Network,
    ev: Evidence,
    *,
    width_cap: int = WIDTH_CAP_DEFAULT,
) -> list[tuple[str, str, float]]:
    """Edges of the original network ``net`` ranked ascending by
    conditional mutual information given evidence; any other kind raises
    ``ModelError``.

    Weak dependencies rank first (best to delete).  One derivative pass,
    ``source_pass``'s, which every harness cell of the same (network,
    evidence) reads too, gives every child's family table, and
    Pr(u, x | e) is that table summed over the child's other parents.  An
    edge with an observed endpoint scores exactly 0.0, its conditional
    mutual information.  Ties break toward declaration order.
    """
    grads, edges = _scoring_pass(net, ev, width_cap, "mutual_information_scores")
    out = []
    for idx, (u, x) in enumerate(edges):
        mi = 0.0
        if u not in ev and x not in ev:
            parents = net.parent_names(x)
            others = tuple(i for i, p in enumerate(parents) if p != u)
            joint = grads.family(x).sum(axis=others) / grads.pr_e
            indep = np.outer(joint.sum(axis=1), joint.sum(axis=0))
            mi = max(_log_ratio_mass(joint, joint, indep), 0.0)
        out.append((mi, idx, u, x))
    out.sort(key=lambda t: (t[0], t[1]))
    return [(u, x, mi) for mi, _, u, x in out]
