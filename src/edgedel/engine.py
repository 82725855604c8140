"""Exact inference by variable elimination.

Answers evidence probability, posterior and pairwise marginals, CPT-entry
derivatives (valid at zero parameters), tables of Pr(e) over kept variables
with chosen CPTs left out, and exact MAP, plus greedy min-fill elimination
orders with an optional eliminate-these-last constraint.
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
    nbrs = list(adj[n])
    cost = 0
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            if nbrs[j] not in adj[nbrs[i]]:
                cost += 1
    return cost


def _greedy_phases(adj: dict[str, set[str]], phases, decl_index) -> tuple[list[str], int]:
    """Eliminate each phase's variables greedily by min fill; returns order and width.

    Width is the largest elimination-time neighborhood (clique size - 1).
    Ties break toward the lowest declaration index, so runs are deterministic.
    """
    adj = {n: set(nb) for n, nb in adj.items()}
    order: list[str] = []
    width = 0
    for phase in phases:
        remaining = set(phase)
        while remaining:
            best = None
            best_key = None
            for n in remaining:
                key = (_fill_cost(adj, n), decl_index(n))
                if best_key is None or key < best_key:
                    best, best_key = n, key
            nbrs = list(adj[best])
            width = max(width, len(nbrs))
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    adj[nbrs[i]].add(nbrs[j])
                    adj[nbrs[j]].add(nbrs[i])
            for n in nbrs:
                adj[n].discard(best)
            del adj[best]
            remaining.discard(best)
            order.append(best)
    return order, width


def min_fill_order(net: Network, query=()) -> EliminationOrder:
    """Greedy min-fill order over all variables outside ``query``."""
    query = set(query)
    for q in query:
        net.var(q)
    adj = _moral_adjacency([tuple(v.name for v in c.scope()) for c in net.cpts()])
    target = [v.name for v in net.variables if v.name not in query]
    order, width = _greedy_phases(adj, [target], net.decl_index)
    return EliminationOrder(tuple(order), width)


def constrained_order(net: Network, map_vars=()) -> EliminationOrder:
    """Full elimination order with ``map_vars`` forced last.

    The reported width is the constrained-treewidth estimate.
    """
    map_vars = set(map_vars)
    for q in map_vars:
        net.var(q)
    adj = _moral_adjacency([tuple(v.name for v in c.scope()) for c in net.cpts()])
    first = [v.name for v in net.variables if v.name not in map_vars]
    last = [v.name for v in net.variables if v.name in map_vars]
    order, width = _greedy_phases(adj, [first, last], net.decl_index)
    return EliminationOrder(tuple(order), width)


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


def _eliminate_sum(
    factors: list[Factor], keep: set[str], decl_index, width_cap=None
) -> Factor:
    """Sum out every scope variable not in ``keep``; product of what remains.

    With ``width_cap`` set, an order wider than the cap raises CapacityError
    before any table is built.
    """
    scopes = [f.names() for f in factors]
    adj = _moral_adjacency(scopes)
    target = [n for n in adj if n not in keep]
    order, width = _greedy_phases(adj, [target], decl_index)
    if width_cap is not None and width > width_cap:
        raise CapacityError(f"induced width {width} exceeds the cap of {width_cap}")
    work = list(factors)
    for name in order:
        bucket = [f for f in work if name in f.names()]
        if not bucket:
            continue
        work = [f for f in work if name not in f.names()]
        prod = bucket[0]
        for f in bucket[1:]:
            prod = prod.multiply(f)
        work.append(prod.marginalize_to(set(prod.names()) - {name}))
    result = Factor.unit()
    for f in work:
        result = result.multiply(f)
    return result


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

    def _keep(self, names) -> Factor:
        return _eliminate_sum(self._reduced, set(names), self.net.decl_index)

    def posterior_marginal(self, name: str) -> np.ndarray:
        return posterior_marginal(self, name)

    def pairwise_marginal(self, a: str, b: str) -> np.ndarray:
        return pairwise_marginal(self, a, b)


def compile(net: Network, ev: Evidence, width_cap: int = WIDTH_CAP_DEFAULT) -> EngineState:
    """Reduce the network's factors by evidence and cache Pr(e)."""
    ev.validate(net)
    ev_index = {name: net.var(name).index_of(state) for name, state in ev.items()}
    reduced = []
    for cpt in net.cpts():
        f = Factor(cpt.scope(), cpt.shaped, _trusted=True)
        for name in f.names():
            if name in ev_index:
                f = f.reduce(name, ev_index[name])
        reduced.append(f)
    adj = _moral_adjacency([f.names() for f in reduced])
    _, width = _greedy_phases(adj, [list(adj)], net.decl_index)
    if width > width_cap:
        raise CapacityError(
            f"induced width {width} exceeds the cap of {width_cap}"
        )
    pr_e = float(
        _eliminate_sum(reduced, set(), net.decl_index).values.reshape(())
    )
    return EngineState(net, ev, width, width_cap, pr_e, tuple(reduced), ev_index)


def posterior_marginal(st: EngineState, name: str) -> np.ndarray:
    """Normalized posterior over the states of one variable."""
    var = st.net.var(name)
    if st.pr_e <= 0.0:
        raise InconsistentEvidenceError("evidence has zero probability")
    if name in st._ev_index:
        out = np.zeros(var.card)
        out[st._ev_index[name]] = 1.0
        return out
    f = st._keep({name})
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
        f = st._keep({a, b}).reorder((a, b))
        out = np.asarray(f.values, dtype=float) / st.pr_e
    return out


def kept_table(
    net: Network, ev: Evidence, without, keep, width_cap: int = WIDTH_CAP_DEFAULT
) -> np.ndarray:
    """Pr(e) with the CPTs of the variables in ``without`` left out, summed
    down to the variables in ``keep`` (axes in ``keep`` order).

    Kept variables stay unreduced: an observed one gets an indicator factor
    instead, and one that no remaining factor mentions gets a ones factor.
    Leaving out one CPT and keeping its family gives that CPT's derivative
    table; leaving out a deleted edge's clone prior and soft-evidence CPT and
    keeping (parent, clone) gives the table ``g`` with Pr'(e') = se g pm.
    """
    ev_index = {name: net.var(name).index_of(state) for name, state in ev.items()}
    keep = tuple(keep)
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
    result = _eliminate_sum(factors, set(keep), net.decl_index, width_cap)
    return result.reorder(keep).values


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

    scopes = [f.names() for f in st._reduced]
    adj = _moral_adjacency(scopes)
    sum_phase = [n for n in adj if n not in hidden_map]
    order, width = _greedy_phases(adj, [sum_phase, [n for n in hidden_map if n in adj]], net.decl_index)
    if width > st.width_cap:
        raise CapacityError(
            f"constrained induced width {width} exceeds the cap of {st.width_cap}"
        )

    work = list(st._reduced)
    for name in order[: len(sum_phase)]:
        bucket = [f for f in work if name in f.names()]
        if not bucket:
            continue
        work = [f for f in work if name not in f.names()]
        prod = bucket[0]
        for f in bucket[1:]:
            prod = prod.multiply(f)
        work.append(prod.marginalize_to(set(prod.names()) - {name}))

    traceback = []
    for name in order[len(sum_phase) :]:
        bucket = [f for f in work if name in f.names()]
        if not bucket:
            continue
        work = [f for f in work if name not in f.names()]
        prod = bucket[0]
        for f in bucket[1:]:
            prod = prod.multiply(f)
        ax = prod.axis_of(name)
        rest = tuple(v for i, v in enumerate(prod.scope) if i != ax)
        argmax = np.argmax(prod.values, axis=ax)
        traceback.append((name, rest, argmax))
        work.append(prod.maximize_to(set(prod.names()) - {name}))

    value = Factor.unit()
    for f in work:
        value = value.multiply(f)
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
