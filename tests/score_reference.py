"""Per-edge reference route for ``divergence.score_edges``.

Fits one edge at a time with ``divergence.edge_update`` on the reads of
``single_edge_evaluate`` and the edge's table g, the sequential sweep's own
one-edge update, and ranks with the tie rule written out again here, so
the tests compare the package's stacked fit against a route that shares
only the update rule and the first-pass tables with it: the clone tables
``divergence._clone_tables`` derives from the jointree pass on the source
network.  A tie run's tables come from one ``cpt_derivatives`` elimination
per edge on the all-edges augmentation.
"""

import numpy as np

import edgedel.engine as engine
from edgedel.deletion import EdgeParams, augment
from edgedel.divergence import (
    INNER_MAX_ITERATIONS,
    INNER_TOLERANCE,
    TIE_TOL,
    EdgeScore,
    _clone_tables,
    edge_update,
    forward_backward,
    kl_breakdown,
    single_edge_evaluate,
)


def fit_edge(rec, derivs, pr_e, max_iterations=None):
    """Score one deleted edge from its clone CPT's derivative table: the
    ed-kl, sequential, undamped fit from uniform, at most ``max_iterations``
    (default ``INNER_MAX_ITERATIONS``) updates."""
    if max_iterations is None:
        max_iterations = INNER_MAX_ITERATIONS
    true_marg = np.diag(derivs) / pr_e
    label = f"edge {rec.parent} -> {rec.child}"
    start = EdgeParams.uniform(derivs.shape[1])
    pm, se = start.pm, start.se
    converged = False
    for iterations in range(1, max_iterations + 1):
        reads = single_edge_evaluate(derivs, pm, se)
        pm, se, residual = edge_update(reads, pm, se, "ed-kl", true_marg, label, g=derivs)
        if residual < INNER_TOLERANCE:
            converged = True
            break
    pr_ep = single_edge_evaluate(derivs, pm, se)[0]
    score = kl_breakdown([true_marg], [(pm, se)], pr_e, pr_ep).total
    return EdgeScore(rec.parent, rec.child, score, EdgeParams(pm, se), iterations, converged)


def scored_records(net):
    """The augmented network of ``net`` and its edge records, in declaration order."""
    aug = augment(net, net.edges())
    return aug, [r for r in aug.clone_edges if r.sevid is None]


def routed_scores(net, ev, one_pass):
    """Every edge fitted on its clone table, sorted by (score, declaration
    index): tables derived from the one jointree pass on ``net`` that
    ``score_edges`` reads (``forward_backward``), or from one
    ``cpt_derivatives`` elimination per edge on the augmentation."""
    aug, records = scored_records(net)
    if one_pass:
        grads = forward_backward(net, ev)
        tables, pr_e = _clone_tables(grads, net.edges()), grads.pr_e
    else:
        st = engine.compile(aug, ev)
        tables = [engine.cpt_derivatives(st, aug.cpt(r.clone)) for r in records]
        pr_e = st.pr_e
    fits = [(fit_edge(r, t, pr_e), i) for i, (r, t) in enumerate(zip(records, tables))]
    return [s for s, _ in sorted(fits, key=lambda t: (t[0].score, t[1]))]


def reference_scores(net, ev, max_iterations=None):
    """``score_edges`` on the per-edge route: one ``fit_edge`` per edge on
    the tables derived from the pass on ``net``, then each run of scores
    tied within TIE_TOL refitted on the augmentation's ``cpt_derivatives``
    tables, with its ``compile``'s Pr(e), and reordered."""
    aug, records = scored_records(net)
    grads = forward_backward(net, ev)
    tables = _clone_tables(grads, net.edges())
    scored = sorted(
        ((fit_edge(r, t, grads.pr_e, max_iterations), i)
         for i, (r, t) in enumerate(zip(records, tables))),
        key=lambda t: (t[0].score, t[1]),
    )
    st = engine.compile(aug, ev)
    out, run = [], [scored[0]] if scored else []
    for prev, cur in zip(scored, scored[1:] + [None]):
        if cur is not None:
            a, b = prev[0].score, cur[0].score
            if abs(a - b) <= TIE_TOL * max(1.0, abs(a), abs(b)):
                run.append(cur)
                continue
        if len(run) > 1:
            refits = [
                (fit_edge(records[i], engine.cpt_derivatives(st, aug.cpt(records[i].clone)),
                          st.pr_e, max_iterations), i)
                for _, i in run
            ]
            run = sorted(refits, key=lambda t: (t[0].score, t[1]))
        out.extend(s for s, _ in run)
        run = [cur]
    return out
