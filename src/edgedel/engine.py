"""Exact inference by variable elimination.

Answers evidence probability, posterior and pairwise marginals, CPT-entry
derivatives (valid at zero parameters), tables of Pr(e) over kept variables
with chosen CPTs left out, and exact MAP, plus greedy min-fill elimination
orders with an optional eliminate-these-last constraint.

Every query takes the same three steps: reduce (``_factors``: the CPTs as
factors sliced by the evidence), order (``_order``: one greedy min-fill
order, checked against the width cap before any table is built), and
eliminate (``_eliminate``: one bucket loop that sums out each variable in
turn, or maximizes it out with an argmax traceback for MAP).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    CapacityError,
    Cpt,
    Evidence,
    Factor,
    InconsistentEvidenceError,
    ModelError,
    Network,
)

WIDTH_CAP_DEFAULT = 25

EULER_RTOL = 1e-9


@dataclass(frozen=True)
class EliminationOrder:
    order: tuple[str, ...]
    width: int


def _moral_adjacency(scopes) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {}
    for scope in scopes:
        for n in scope:
            adj.setdefault(n, set())
        for i, a in enumerate(scope):
            for b in scope[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
    return adj


def _fill_cost(adj, n) -> int:
    """Number of missing edges among the neighbours of ``n``."""
    nbrs = adj[n]
    # each neighbour m misses len(nbrs - adj[m]) - 1 of the others (m itself
    # is in the difference); every missing pair is counted from both ends
    return (sum([len(nbrs - adj[m]) for m in nbrs]) - len(nbrs)) // 2


def _factors(net: Network, ev_index, without=(), keep=()) -> list[Factor]:
    """The CPTs of the variables outside ``without`` as factors reduced by
    the evidence, except that the variables in ``keep`` stay unreduced.

    A kept observed variable gets an indicator factor instead, and a kept
    variable that no remaining factor mentions gets a ones factor.
    """
    factors: list[Factor] = []
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
            # e.g. an unobserved leaf child: the table is flat across its states
            factors.append(Factor((var,), np.ones(var.card), _trusted=True))
    return factors


def _order(factors, decl_index, keep=(), last=(), width_cap=None) -> EliminationOrder:
    """Greedy min-fill order of every scope variable outside ``keep``, with
    the variables in ``last`` eliminated after all the others.

    Width is the largest elimination-time neighborhood (clique size - 1).
    Ties break toward the lowest declaration index, so runs are deterministic.
    With ``width_cap`` set, a wider order raises CapacityError before any
    table is built.

    Each phase keeps a table of (fill cost, declaration index) keys.
    Eliminating a node changes only its neighbours' neighbourhoods and adds
    edges only among them, so only the keys of those neighbours and of their
    neighbours are recomputed.
    """
    adj = _moral_adjacency([f.names() for f in factors])
    phases = (
        [n for n in adj if n not in keep and n not in last],
        [n for n in adj if n in last],
    )
    order: list[str] = []
    width = 0
    for phase in phases:
        key = {n: (_fill_cost(adj, n), decl_index(n)) for n in phase}
        while key:
            best = min(key, key=key.__getitem__)
            del key[best]
            nbrs = adj.pop(best)
            width = max(width, len(nbrs))
            for n in nbrs:
                adj[n] |= nbrs
                adj[n] -= {n, best}
            stale = set(nbrs)
            for n in nbrs:
                stale |= adj[n]
            for n in stale:
                # outside nbrs, a node's cost moves only if a new edge joins
                # two of its neighbours, so it must touch two of nbrs
                if n in key and (n in nbrs or len(adj[n] & nbrs) > 1):
                    key[n] = (_fill_cost(adj, n), key[n][1])
            order.append(best)
    if width_cap is not None and width > width_cap:
        what = "constrained induced width" if last else "induced width"
        raise CapacityError(f"{what} {width} exceeds the cap of {width_cap}")
    return EliminationOrder(tuple(order), width)


def _eliminate(factors, order, maximize=()) -> tuple[Factor, list]:
    """Eliminate ``order`` one bucket at a time; returns the product of what
    remains and the argmax traceback of the variables in ``maximize``.

    Each variable is summed out, or maximized out if it is in ``maximize``,
    in which case (variable, rest of the bucket's scope, argmax table) is
    recorded.

    Live factors are keyed by creation number (inputs first, then each
    bucket's result), and ``holding`` lists the factors that mention each
    variable, so a bucket is found without rescanning every scope and is
    multiplied in creation order.
    """
    work = dict(enumerate(factors))
    holding: dict[str, list[int]] = {}
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


def min_fill_order(net: Network, query=()) -> EliminationOrder:
    """Greedy min-fill order over all variables outside ``query``."""
    query = set(query)
    for q in query:
        net.var(q)
    return _order(_factors(net, {}), net.decl_index, keep=query)


def constrained_order(net: Network, map_vars=()) -> EliminationOrder:
    """Full elimination order with ``map_vars`` forced last.

    The reported width is the constrained-treewidth estimate.
    """
    map_vars = set(map_vars)
    for q in map_vars:
        net.var(q)
    return _order(_factors(net, {}), net.decl_index, last=map_vars)


def induced_width(net: Network, order) -> int:
    """Recompute the width obtained by eliminating ``order`` in sequence."""
    adj = _moral_adjacency([tuple(v.name for v in c.scope()) for c in net.cpts()])
    width = 0
    for n in order:
        nbrs = list(adj[n])
        width = max(width, len(nbrs))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        for m in nbrs:
            adj[m].discard(n)
        del adj[n]
    return width


class EngineState:
    """Compiled (network, evidence) pair: evidence-reduced factors plus Pr(e).

    Immutable after compile; queries are read-only.
    """

    __slots__ = ("net", "evidence", "width", "width_cap", "pr_e", "_reduced", "_ev_index")

    def __init__(self, net, evidence, width, width_cap, pr_e, reduced, ev_index):
        self.net = net
        self.evidence = evidence
        self.width = width
        self.width_cap = width_cap
        self.pr_e = pr_e
        self._reduced = reduced
        self._ev_index = ev_index


def compile(net: Network, ev: Evidence, width_cap: int = WIDTH_CAP_DEFAULT) -> EngineState:
    """Reduce the network's factors by evidence and cache Pr(e)."""
    ev.validate(net)
    ev_index = {name: net.var(name).index_of(state) for name, state in ev.items()}
    reduced = _factors(net, ev_index)
    elim = _order(reduced, net.decl_index, width_cap=width_cap)
    pr_e = float(_eliminate(reduced, elim.order)[0].values.reshape(()))
    return EngineState(net, ev, elim.width, width_cap, pr_e, tuple(reduced), ev_index)


def posterior_marginal(st: EngineState, name: str) -> np.ndarray:
    """Normalized posterior over the states of one variable."""
    var = st.net.var(name)
    if st.pr_e <= 0.0:
        raise InconsistentEvidenceError("evidence has zero probability")
    if name in st._ev_index:
        out = np.zeros(var.card)
        out[st._ev_index[name]] = 1.0
        return out
    order = _order(st._reduced, st.net.decl_index, keep={name}).order
    f, _ = _eliminate(st._reduced, order)
    return np.asarray(f.values, dtype=float) / st.pr_e


def pairwise_marginal(st: EngineState, a: str, b: str) -> np.ndarray:
    """Normalized joint over the states of (a, b); diagonal posterior if a == b."""
    va, vb = st.net.var(a), st.net.var(b)
    if st.pr_e <= 0.0:
        raise InconsistentEvidenceError("evidence has zero probability")
    if a == b:
        return np.diag(posterior_marginal(st, a))
    a_obs = a in st._ev_index
    b_obs = b in st._ev_index
    out = np.zeros((va.card, vb.card))
    if a_obs and b_obs:
        out[st._ev_index[a], st._ev_index[b]] = 1.0
    elif a_obs:
        out[st._ev_index[a], :] = posterior_marginal(st, b)
    elif b_obs:
        out[:, st._ev_index[b]] = posterior_marginal(st, a)
    else:
        order = _order(st._reduced, st.net.decl_index, keep={a, b}).order
        f = _eliminate(st._reduced, order)[0].reorder((a, b))
        out = np.asarray(f.values, dtype=float) / st.pr_e
    return out


def kept_table(
    net: Network, ev: Evidence, without, keep, width_cap: int = WIDTH_CAP_DEFAULT
) -> np.ndarray:
    """Pr(e) with the CPTs of the variables in ``without`` left out, summed
    down to the variables in ``keep`` (axes in ``keep`` order).

    Kept variables stay unreduced (see ``_factors``).  Leaving out one CPT and
    keeping its family gives that CPT's derivative table; leaving out a
    deleted edge's clone prior and soft-evidence CPT and keeping (parent,
    clone) gives the table ``g`` with Pr'(e') = se g pm.
    """
    ev_index = {name: net.var(name).index_of(state) for name, state in ev.items()}
    keep = tuple(keep)
    factors = _factors(net, ev_index, without, keep)
    order = _order(factors, net.decl_index, keep=set(keep), width_cap=width_cap).order
    return _eliminate(factors, order)[0].reorder(keep).values


def cpt_derivatives(st: EngineState, cpt: Cpt) -> np.ndarray:
    """Partial derivatives of Pr(e) with respect to every entry of one CPT.

    The derivative for entry (parents=p, child=x) is Pr(e) recomputed with the
    CPT replaced by the indicator of (p, x), which stays exact where the entry
    itself is zero.  Shape and index convention match the CPT table.
    """
    net = st.net
    if net.cpt(cpt.child.name) is not cpt and net.cpt(cpt.child.name) != cpt:
        raise ModelError(f"cpt for {cpt.child.name!r} does not belong to this network")
    family = [p.name for p in cpt.parents] + [cpt.child.name]
    d = kept_table(net, st.evidence, (cpt.child.name,), family, st.width_cap)
    euler = float((cpt.shaped * d).sum())
    scale = max(abs(st.pr_e), abs(euler), 1e-300)
    if abs(euler - st.pr_e) > EULER_RTOL * scale:
        raise ModelError(
            f"derivative table for {cpt.child.name!r} violates the "
            f"sum(theta * d) = Pr(e) identity: {euler} vs {st.pr_e}"
        )
    return d


def exact_map(st: EngineState, map_vars) -> tuple[dict[str, str], float]:
    """Most probable instantiation of ``map_vars`` and its value Pr(m, e).

    Sums out all other unobserved variables first, then max-eliminates the
    MAP variables with argmax traceback.  Ties break toward the lowest state
    index at each traceback step.
    """
    net = st.net
    map_list = []
    seen = set()
    for name in map_vars:
        net.var(name)
        if name not in seen:
            seen.add(name)
            map_list.append(name)
    assignment: dict[str, str] = {}
    hidden_map = []
    for name in map_list:
        if name in st._ev_index:
            assignment[name] = st.evidence[name]
        else:
            hidden_map.append(name)

    elim = _order(st._reduced, net.decl_index, last=hidden_map, width_cap=st.width_cap)
    value, traceback = _eliminate(st._reduced, elim.order, maximize=hidden_map)
    q = float(value.values.reshape(()))

    chosen: dict[str, int] = {}
    for name, rest, argmax in reversed(traceback):
        idx = tuple(chosen[v.name] for v in rest)
        chosen[name] = int(argmax[idx] if rest else argmax)
    for name in hidden_map:
        var = net.var(name)
        assignment[name] = var.states[chosen.get(name, 0)]
    if q <= 0.0:
        warnings.warn(
            "MAP value is zero; the instantiation is arbitrary", RuntimeWarning
        )
    return assignment, q
