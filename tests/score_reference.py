"""Per-edge reference route for ``divergence.score_edges``.

Fits one edge at a time with ``divergence.edge_update`` on the reads of
``single_edge_evaluate`` and the edge's table g, the sequential sweep's own
one-edge update, and ranks with the tie rule written out again here, so
the tests compare the package's stacked fit against a route that shares
only the update rule with it.  Its tables come from the bucket route, one
``cpt_derivatives`` elimination per edge, never from the jointree pass
that ``score_edges`` reads; ``bucket_pass`` builds that pass from the same
eliminations, so a test can hand both the same tables.
"""

import numpy as np

import edgedel.engine as engine
from edgedel.deletion import EdgeParams, augment
from edgedel.divergence import forward_backward
from edgedel.divergence import (
    INNER_MAX_ITERATIONS,
    INNER_TOLERANCE,
    TIE_TOL,
    EdgeScore,
    edge_update,
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


def bucket_pass(net, ev, names, width_cap=None):
    """``engine.derivatives`` on the bucket route: Pr(e) from ``compile``
    and each named CPT's table from its own ``cpt_derivatives``
    elimination."""
    st = engine.compile(net, ev, width_cap)
    tables = {x: engine.cpt_derivatives(st, net.cpt(x)) for x in names}
    return engine.Adjoints(net, st.program.ev_index, st.pr_e, tables)


def routed_scores(net, ev, one_pass):
    """Every edge fitted on its clone table, sorted by (score, declaration
    index): tables from the one jointree pass ``score_edges`` reads
    (``forward_backward``), or from one ``cpt_derivatives`` elimination per
    edge."""
    aug, records = scored_records(net)
    if one_pass:
        grads = forward_backward(aug, ev)
        table, pr_e = grads.cpt, grads.pr_e
    else:
        st = engine.compile(aug, ev)
        table, pr_e = (lambda name: engine.cpt_derivatives(st, aug.cpt(name))), st.pr_e
    fits = [(fit_edge(r, table(r.clone), pr_e), i) for i, r in enumerate(records)]
    return [s for s, _ in sorted(fits, key=lambda t: (t[0].score, t[1]))]


def reference_scores(net, ev, max_iterations=None):
    """``score_edges`` on the per-edge route, reading ``bucket_pass``'s
    tables: one ``fit_edge`` per edge, then each run of scores tied within
    TIE_TOL refitted on ``cpt_derivatives`` tables and reordered."""
    aug, records = scored_records(net)
    st = engine.compile(aug, ev)
    grads = bucket_pass(aug, ev, [r.clone for r in records])
    scored = sorted(
        ((fit_edge(r, grads.cpt(r.clone), grads.pr_e, max_iterations), i)
         for i, r in enumerate(records)),
        key=lambda t: (t[0].score, t[1]),
    )
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
                          grads.pr_e, max_iterations), i)
                for _, i in run
            ]
            run = sorted(refits, key=lambda t: (t[0].score, t[1]))
        out.extend(s for s, _ in run)
        run = [cur]
    return out
