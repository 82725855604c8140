"""Test-only reference: variable elimination on ``Factor`` objects.

This is the bucket loop the engine ran before it recorded programs: the
CPTs become ``Factor`` objects sliced by the evidence, and each bucket is
multiplied, summed or maximized with ``Factor``'s own algebra.  Kept apart
from the engine's record + replay on purpose, the way ``full_rescan_order``
is kept apart from ``_order``: on the same order both must give the same
bytes.
"""

import numpy as np

import edgedel.engine as engine_module
from edgedel import Factor


def factor_inputs(net, ev_index, without=(), keep=()):
    """The CPTs outside ``without`` as factors reduced by the evidence, the
    variables in ``keep`` unreduced; a kept observed variable gets an
    indicator factor and a kept variable no factor mentions a ones factor."""
    factors = []
    for cpt in net.cpts():
        if cpt.child.name in without:
            continue
        f = Factor(cpt.scope(), cpt.shaped, _trusted=True)
        for name in f.names():
            if name in ev_index and name not in keep:
                f = f.reduce(name, ev_index[name])
        factors.append(f)
    covered = set()
    for f in factors:
        covered.update(f.names())
    for name in keep:
        var = net.var(name)
        if name in ev_index:
            ind = np.zeros(var.card)
            ind[ev_index[name]] = 1.0
            factors.append(Factor((var,), ind, _trusted=True))
        elif name not in covered:
            factors.append(Factor((var,), np.ones(var.card), _trusted=True))
    return factors


def factor_eliminate(factors, order, maximize=()):
    """Eliminate ``order`` one bucket at a time; returns the product of what
    remains and the argmax traceback of the variables in ``maximize``."""
    work = dict(enumerate(factors))
    holding = {}
    for i, f in work.items():
        for n in f.names():
            holding.setdefault(n, []).append(i)
    created = len(work)
    traceback = []
    for name in order:
        bucket = [work.pop(i) for i in holding.pop(name, ()) if i in work]
        if not bucket:
            continue
        prod = bucket[0]
        for f in bucket[1:]:
            prod = prod.multiply(f)
        rest = set(prod.names()) - {name}
        if name in maximize:
            ax = prod.axis_of(name)
            argmax = np.argmax(prod.values, axis=ax)
            traceback.append((name, prod.scope[:ax] + prod.scope[ax + 1 :], argmax))
            work[created] = prod.maximize_to(rest)
        else:
            work[created] = prod.marginalize_to(rest)
        for n in rest:
            holding[n].append(created)
        created += 1
    result = Factor.unit()
    for f in work.values():
        result = result.multiply(f)
    return result, traceback


def ev_index_of(net, ev):
    return {name: net.var(name).index_of(state) for name, state in ev.items()}


def reference_table(net, ev, without=(), keep=(), last=(), maximize=(), width_cap=None):
    """(table over ``keep`` in that order, traceback) on the engine's order."""
    keep = tuple(keep)
    factors = factor_inputs(net, ev_index_of(net, ev), without, keep)
    order = engine_module._order(
        factors, net.decl_index, keep=set(keep), last=last, width_cap=width_cap
    ).order
    result, traceback = factor_eliminate(factors, order, maximize)
    if keep:
        return result.reorder(keep).values, traceback
    return result.values.reshape(()), traceback


def reference_pr_e(net, ev):
    return float(reference_table(net, ev)[0])


def reference_marginal(net, ev, name):
    """Unnormalized Pr(name, e): the product left once every other variable
    is eliminated, on the reduced CPTs with nothing kept unreduced."""
    factors = factor_inputs(net, ev_index_of(net, ev))
    order = engine_module._order(factors, net.decl_index, keep={name}).order
    return np.asarray(factor_eliminate(factors, order)[0].values, dtype=float)


def reference_map(net, ev, map_vars):
    """(assignment, value) of exact MAP over unobserved ``map_vars``."""
    hidden = [n for n in dict.fromkeys(map_vars) if n not in ev]
    table, traceback = reference_table(net, ev, last=hidden, maximize=hidden)
    chosen = {}
    for name, rest, argmax in reversed(traceback):
        idx = tuple(chosen[v.name] for v in rest)
        chosen[name] = int(argmax[idx] if rest else argmax)
    assignment = {n: ev[n] for n in map_vars if n in ev}
    for name in hidden:
        assignment[name] = net.var(name).states[chosen.get(name, 0)]
    return assignment, float(table)
