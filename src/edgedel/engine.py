"""Exact inference by variable elimination.

Answers evidence probability, posterior and pairwise marginals, CPT-entry
derivatives (valid at zero parameters), tables of Pr(e) over kept variables
with chosen CPTs left out, and exact MAP, plus greedy min-fill elimination
orders with an optional eliminate-these-last constraint.

Every query takes the same steps, all inside ``record``, the one recording
entry: check and index the evidence, reduce (``_factors``: which CPTs enter
and which evidence slices they take), order (``_order``: one greedy min-fill
order, checked against the width cap before any table is built), and
record a ``Program`` naming, bucket by bucket, the operands, each operand's
transpose and broadcast shape, and the summed or maximized axis.  Then
``bind`` reads the program's input tables off a network once, each CPT
through ``write``, which checks its shape and applies the evidence slice,
and ``replay`` runs exactly the recorded numpy operations on that list,
with an argmax traceback for the maximized variables.  A program depends
on the structure, the evidence and the query, not on the CPT entries, and
``replay`` never writes into the bound list, so a caller that only changes
some CPTs (the sweeps of ``parametrize.run``) records and binds once, then
writes just those CPTs' new tables through ``write`` before each replay.

A program that keeps no variable computes Pr(e), which is multilinear in
the CPT entries.  ``adjoints`` runs such a program forward on its bound
tables and then walks the same buckets and alignments in reverse
(Darwiche, "A differential approach to inference in Bayesian networks",
JACM 2003): one pass gives dPr(e)/d(entry) for every entry of every CPT,
each a sum of products of the other operands, so it stays exact at zero
parameters.
``Adjoints.cpt`` reads one CPT's table, checked by the Euler identity
sum(theta * d) = Pr(e), as ``cpt_derivatives`` checks its own.  The CPT
times its table is the family's joint with the evidence
(``Adjoints.family``), so ``Adjoints.posterior`` reads Pr(X | e) for every
X off the same pass: the only bulk-marginal route.  ``posterior_marginal``
and ``pairwise_marginal`` answer one query each with their own elimination.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    CapacityError,
    Cpt,
    Evidence,
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


@dataclass(frozen=True)
class _Input:
    """One input table of an elimination, named rather than held.

    A CPT input is ``net.cpt(cpt).shaped``, which must have ``shape``, with
    the evidence index ``take`` applied if it is set; a fixed input (``cpt``
    None) is ``table``.  ``scope`` names the axes and ``reduced`` gives
    their sizes.
    """

    scope: tuple[str, ...]
    reduced: tuple[int, ...]
    cpt: str | None = None
    shape: tuple[int, ...] = ()
    take: tuple | None = None
    table: np.ndarray | None = None

    def names(self) -> tuple[str, ...]:
        return self.scope


def _factors(net: Network, ev_index, without=(), keep=()) -> list[_Input]:
    """The CPTs of the variables outside ``without``, each sliced by the
    evidence on its scope, except that the variables in ``keep`` stay
    unsliced.

    A kept observed variable gets an indicator input instead, and a kept
    variable that no remaining input mentions gets a ones input.
    """
    inputs: list[_Input] = []
    covered = set()
    for cpt in net.cpts():
        if cpt.child.name in without:
            continue
        vars_ = cpt.scope()
        sliced = [v.name in ev_index and v.name not in keep for v in vars_]
        take = None
        if any(sliced):
            take = tuple(
                ev_index[v.name] if s else slice(None) for v, s in zip(vars_, sliced)
            )
        kept = [v for v, s in zip(vars_, sliced) if not s]
        scope = tuple(v.name for v in kept)
        inputs.append(
            _Input(scope, tuple(v.card for v in kept), cpt.child.name, cpt.shape, take)
        )
        covered.update(scope)
    for name in keep:
        var = net.var(name)
        if name in ev_index:
            ind = np.zeros(var.card)
            ind[ev_index[name]] = 1.0
        elif name not in covered:
            # e.g. an unobserved leaf child: the table is flat across its states
            ind = np.ones(var.card)
        else:
            continue
        ind.setflags(write=False)
        inputs.append(_Input((name,), (var.card,), table=ind))
    return inputs


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


@dataclass(frozen=True)
class _Bucket:
    """One recorded elimination step.

    The operands (ids in creation order: inputs first, then bucket results)
    are multiplied left to right; ``steps`` holds, per product, the views
    that align the running product and the next operand (see ``_view``).
    ``axis`` of the product is summed out, or maximized out if ``rest`` (the
    product's other axes, for the traceback) is set; the result has
    ``shape``.
    """

    var: str
    operands: tuple[int, ...]
    steps: tuple
    axis: int
    shape: tuple[int, ...]
    rest: tuple[str, ...] | None


@dataclass(frozen=True)
class Program:
    """A recorded elimination: inputs by name, then buckets, then the
    product of what remains (``final`` ids, aligned by ``final_steps``
    starting from a scalar one), permuted by ``perm`` into the kept
    variables' order and reshaped to ``shape``.

    ``width`` is the order's induced width.  Binding a program to a
    network reads only CPT entries, so any network with the recorded
    structure will do (``bind`` checks each CPT's shape).
    ``cpt_inputs`` maps each CPT name to its input's position, and
    ``ev_index`` is the evidence (variable name to state index) it was
    recorded under.
    """

    inputs: tuple[_Input, ...]
    buckets: tuple[_Bucket, ...]
    final: tuple[int, ...]
    final_steps: tuple
    perm: tuple[int, ...]
    shape: tuple[int, ...]
    width: int
    cpt_inputs: dict[str, int]
    ev_index: dict[str, int]


def _view(src, scope, card):
    """(transpose, reshape) that broadcast a table over ``src`` against
    ``scope``, as ``Factor.multiply`` aligns its operands; either part is
    None where it would be the identity."""
    pos = {n: i for i, n in enumerate(scope)}
    order = tuple(sorted(range(len(src)), key=lambda i: pos[src[i]]))
    have = set(src)
    shape = tuple(card[n] if n in have else 1 for n in scope)
    transposed = tuple(card[src[i]] for i in order)
    return (
        None if order == tuple(range(len(src))) else order,
        None if shape == transposed else shape,
    )


def _product_steps(scopes, card):
    """Scope and alignment steps of multiplying tables over ``scopes`` left
    to right; each product appends the next table's new variables."""
    scope = scopes[0]
    steps = []
    for other in scopes[1:]:
        mine = set(scope)
        joint = scope + tuple(n for n in other if n not in mine)
        steps.append((_view(scope, joint, card), _view(other, joint, card)))
        scope = joint
    return scope, tuple(steps)


def record(
    net: Network, ev: Evidence, without=(), keep=(), maximize=(), width_cap=None
) -> Program:
    """Check the evidence against the network, then reduce, order and
    record one elimination without building a table.

    This is the one way to record: every query and every fit program starts
    here.  ``without``/``keep`` are as in ``_factors`` and ``width_cap`` as
    in ``_order``; the variables in ``maximize`` are eliminated after all
    the others (``_order``'s ``last``), and maximized out with an argmax
    traceback instead of summed out.  With nothing kept the program
    computes Pr(e); bind it and run it with ``replay`` or ``adjoints``.
    """
    ev_index = {name: net.var(name).index_of(state) for name, state in ev.items()}
    keep = tuple(keep)
    inputs = _factors(net, ev_index, without, keep)
    elim = _order(inputs, net.decl_index, keep=set(keep), last=maximize, width_cap=width_cap)
    card = {}
    scopes = []
    holding: dict[str, list[int]] = {}
    for i, inp in enumerate(inputs):
        card.update(zip(inp.scope, inp.reduced))
        scopes.append(inp.scope)
        for n in inp.scope:
            holding.setdefault(n, []).append(i)
    live = set(range(len(scopes)))
    buckets = []
    for name in elim.order:
        ids = tuple(i for i in holding.pop(name, ()) if i in live)
        if not ids:
            continue
        live.difference_update(ids)
        scope, steps = _product_steps([scopes[i] for i in ids], card)
        axis = scope.index(name)
        rest = scope[:axis] + scope[axis + 1 :]
        buckets.append(
            _Bucket(
                name, ids, steps, axis, tuple(card[n] for n in rest),
                rest if name in maximize else None,
            )
        )
        for n in rest:
            holding[n].append(len(scopes))
        live.add(len(scopes))
        scopes.append(rest)
    final = tuple(sorted(live))
    scope, final_steps = _product_steps([()] + [scopes[i] for i in final], card)
    if sorted(scope) != sorted(keep):
        raise ModelError("reorder must name the full scope")
    return Program(
        tuple(inputs), tuple(buckets), final, final_steps,
        tuple(scope.index(n) for n in keep), tuple(card[n] for n in keep), elim.width,
        {inp.cpt: i for i, inp in enumerate(inputs) if inp.cpt is not None},
        ev_index,
    )


def _aligned(arr, view):
    transpose, shape = view
    if transpose is not None:
        arr = arr.transpose(transpose)
    if shape is not None:
        arr = arr.reshape(shape)
    return arr


def _unaligned(grad, view, shape):
    """The adjoint of ``_aligned``: ``grad``, over the whole aligned scope,
    summed over the axes the view broadcast and transposed back to a table
    of ``shape``.  (Summing an axis of size one also drops the axes of
    one-state variables; the final reshape restores them.)"""
    transpose, aligned = view
    if aligned is not None:
        grad = grad.sum(axis=tuple(i for i, n in enumerate(aligned) if n == 1))
    if transpose is not None:
        grad = grad.reshape(tuple(shape[i] for i in transpose)).transpose(
            sorted(range(len(transpose)), key=transpose.__getitem__)
        )
    return grad.reshape(shape)


def _multiply(tables, prod, operands, steps, prefixes=None):
    """Multiply ``prod`` by each operand in turn.  The operands are
    released, unless ``prefixes`` collects the running product before each
    step for ``_multiply_back``."""
    for j, (mine, theirs) in zip(operands, steps):
        other = tables[j]
        if prefixes is None:
            tables[j] = None
        else:
            prefixes.append(prod)
        prod = _aligned(prod, mine) * _aligned(other, theirs)
        if not np.isfinite(prod).all():
            raise ModelError("numerical overflow in factor product")
    return prod


def _multiply_back(grad, prefixes, tables, operands, steps, adj):
    """The reverse of ``_multiply``: given the adjoint of the product, set
    each operand's adjoint in ``adj`` and return the starting product's."""
    for j, (mine, theirs), prev in reversed(tuple(zip(operands, steps, prefixes))):
        other = tables[j]
        adj[j] = _unaligned(grad * _aligned(prev, mine), theirs, other.shape)
        grad = _unaligned(grad * _aligned(other, theirs), mine, prev.shape)
    return grad


def write(program: Program, bound: list, name: str, table: np.ndarray) -> None:
    """Set the input of the CPT of ``name`` in a bound list (``bind``) to
    ``table``, which must have the shape the program was recorded for, as
    the program reads it: sliced by its evidence.  A program that does not
    read that CPT is left as it was.

    ``bind`` reads every CPT through here, and a caller that changes some
    CPTs (the fit's edge tables) writes just those and replays again.
    """
    i = program.cpt_inputs.get(name)
    if i is None:
        return
    inp = program.inputs[i]
    if table.shape != inp.shape:
        raise ModelError(
            f"cpt for {name!r} has shape {table.shape}; "
            f"the program was recorded for {inp.shape}"
        )
    if inp.take is not None:
        # ascontiguousarray makes a 0-d slice 1-d; reshape restores it
        table = np.ascontiguousarray(table[inp.take]).reshape(inp.reduced)
    bound[i] = table


def bind(program: Program, net: Network) -> list[np.ndarray]:
    """The program's input tables, read off ``net`` once: each CPT through
    ``write``.

    ``replay`` and ``adjoints`` take this list and never write into it.
    """
    bound = [inp.table for inp in program.inputs]
    for name in program.cpt_inputs:
        write(program, bound, name, net.cpt(name).shaped)
    return bound


def replay(program: Program, bound: list) -> tuple[np.ndarray, list]:
    """Run a recorded elimination on its bound input tables (``bind``).

    Returns the table over the kept variables (axes in the order given to
    ``record``; a 0-d array for Pr(e)) and the argmax traceback: one
    (variable, names of the other axes, argmax table) per maximized
    variable, in elimination order.  ``bound`` is left as it was.
    """
    tables = list(bound)
    traceback = []
    for b in program.buckets:
        first = b.operands[0]
        prod = _multiply(tables, tables[first], b.operands[1:], b.steps)
        tables[first] = None
        if b.rest is None:
            out = prod.sum(axis=(b.axis,))
        else:
            traceback.append((b.var, b.rest, np.argmax(prod, axis=b.axis)))
            out = prod.max(axis=(b.axis,))
        tables.append(np.ascontiguousarray(out).reshape(b.shape))
    prod = _multiply(tables, np.array(1.0), program.final, program.final_steps)
    table = np.ascontiguousarray(prod.transpose(program.perm)).reshape(program.shape)
    return table, traceback


def _check_euler(theta, d, pr_e, what):
    euler = float((theta * d).sum())
    scale = max(abs(pr_e), abs(euler), 1e-300)
    if not (math.isfinite(euler) and abs(euler - pr_e) <= EULER_RTOL * scale):
        raise ModelError(
            f"{what} violates the sum(theta * d) = Pr(e) identity: {euler} vs {pr_e}"
        )


def _scattered(inp: _Input, table: np.ndarray) -> np.ndarray:
    """A table over an input's evidence slice, shaped like its CPT table:
    zero off the slice."""
    if inp.take is None:
        return table
    full = np.zeros(inp.shape)
    full[inp.take] = table
    return full


@dataclass(frozen=True)
class Adjoints:
    """Pr(e) and its adjoints from one forward/backward pass of a Pr(e)
    program on its bound input tables ``bound``: ``tables[i]`` is
    dPr(e)/d(input i) in that input's evidence-reduced shape."""

    program: Program
    bound: tuple[np.ndarray, ...]
    pr_e: float
    tables: tuple[np.ndarray, ...]

    def _position(self, name: str) -> int:
        i = self.program.cpt_inputs.get(name)
        if i is None:
            raise ModelError(f"unknown variable {name!r}")
        return i

    def _checked(self, name: str) -> tuple[_Input, np.ndarray, np.ndarray]:
        """The CPT's input, its bound table and its adjoint, checked by the
        Euler identity sum(theta * d) = Pr(e) over the evidence slice (the
        entries off it do not enter Pr(e))."""
        i = self._position(name)
        theta, d = self.bound[i], self.tables[i]
        _check_euler(theta, d, self.pr_e, f"adjoint of {name!r}")
        return self.program.inputs[i], theta, d

    def cpt(self, name: str) -> np.ndarray:
        """Partial derivatives of Pr(e) with respect to every entry of the
        CPT of ``name``, shaped like the CPT table: the input's adjoint in
        its evidence slice and zero elsewhere (entries that disagree with
        the evidence do not enter Pr(e)).  Checked by the Euler identity.
        """
        inp, _, d = self._checked(name)
        return _scattered(inp, d)

    def family(self, name: str) -> np.ndarray:
        """Pr(family of ``name``, e), shaped like its CPT table: the CPT
        times ``cpt(name)``, zero where the family disagrees with the
        evidence."""
        inp, theta, d = self._checked(name)
        return _scattered(inp, theta * d)

    def posterior(self, name: str) -> np.ndarray:
        """Pr(``name`` | e): ``family(name)`` summed down to ``name``, over
        Pr(e), or the indicator of the observed state.  Evidence of
        probability zero raises ``InconsistentEvidenceError``."""
        card = self.program.inputs[self._position(name)].shape[-1]
        if self.pr_e <= 0.0:
            raise InconsistentEvidenceError("evidence has zero probability")
        if name in self.program.ev_index:
            return np.eye(card)[self.program.ev_index[name]]
        return self.family(name).reshape(-1, card).sum(axis=0) / self.pr_e


def adjoints(program: Program, bound: list) -> Adjoints:
    """Run a Pr(e) program (one recorded with nothing kept) forward on its
    bound input tables (``bind``), then backward over the same buckets and
    alignments.

    The forward pass keeps every table and running product, with
    ``replay``'s overflow check; the backward pass gives each operand of a
    product the product of the others times the result's adjoint, summed
    down to the operand's scope, so no adjoint is ever a quotient.  The
    result keeps the input tables it was given; ``bound`` itself is left as
    it was.
    """
    if program.shape != ():
        raise ModelError("adjoints need a program that keeps no variable")
    if any(b.rest is not None for b in program.buckets):
        raise ModelError("adjoints need a summing program, not a maximizing one")
    bound = tuple(bound)
    tables = list(bound)
    saved = []
    for b in program.buckets:
        prefixes = []
        prod = _multiply(tables, tables[b.operands[0]], b.operands[1:], b.steps, prefixes)
        # the result's adjoint, over the product's axes, is flat along b.axis
        flat = prod.shape[: b.axis] + (1,) + prod.shape[b.axis + 1 :]
        saved.append((prefixes, flat, prod.shape[b.axis]))
        tables.append(np.ascontiguousarray(prod.sum(axis=(b.axis,))).reshape(b.shape))
    final = []
    pr_e = float(_multiply(tables, np.array(1.0), program.final, program.final_steps, final))
    adj = [None] * len(tables)
    _multiply_back(np.array(1.0), final, tables, program.final, program.final_steps, adj)
    n = len(program.inputs)
    for k in reversed(range(len(program.buckets))):
        b = program.buckets[k]
        prefixes, flat, card = saved[k]
        grad = adj[n + k].reshape(flat).repeat(card, axis=b.axis)
        adj[b.operands[0]] = _multiply_back(grad, prefixes, tables, b.operands[1:], b.steps, adj)
    return Adjoints(program, bound, pr_e, tuple(adj[:n]))


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


@dataclass(frozen=True, eq=False)
class EngineState:
    """Compiled (network, evidence) pair: the recorded Pr(e) program, its
    input tables bound to ``net`` (``bind``), and Pr(e) from them.

    A caller that wants more than Pr(e) from the same elimination runs
    ``adjoints(st.program, st.bound)`` (``deletion.recover_marginals``), so
    nothing is recorded or bound twice.  Every query made through the state
    is recorded under ``width_cap``.  Queries are read-only.
    """

    net: Network
    evidence: Evidence
    width_cap: int | None
    program: Program
    bound: tuple[np.ndarray, ...]
    pr_e: float

    @property
    def width(self) -> int:
        return self.program.width


def compile(net: Network, ev: Evidence, width_cap: int = WIDTH_CAP_DEFAULT) -> EngineState:
    """Check the evidence against the network and compute Pr(e)."""
    program = record(net, ev, width_cap=width_cap)
    bound = tuple(bind(program, net))
    return EngineState(net, ev, width_cap, program, bound, float(replay(program, bound)[0]))


def posterior_marginal(st: EngineState, name: str) -> np.ndarray:
    """Normalized posterior over the states of one variable."""
    var = st.net.var(name)
    if st.pr_e <= 0.0:
        raise InconsistentEvidenceError("evidence has zero probability")
    if name in st.program.ev_index:
        return np.eye(var.card)[st.program.ev_index[name]]
    program = record(st.net, st.evidence, keep=(name,), width_cap=st.width_cap)
    table, _ = replay(program, bind(program, st.net))
    return table / st.pr_e


def pairwise_marginal(st: EngineState, a: str, b: str) -> np.ndarray:
    """Normalized joint over the states of (a, b); diagonal posterior if a == b."""
    va, vb = st.net.var(a), st.net.var(b)
    if st.pr_e <= 0.0:
        raise InconsistentEvidenceError("evidence has zero probability")
    if a == b:
        return np.diag(posterior_marginal(st, a))
    ev_index = st.program.ev_index
    a_obs = a in ev_index
    b_obs = b in ev_index
    out = np.zeros((va.card, vb.card))
    if a_obs and b_obs:
        out[ev_index[a], ev_index[b]] = 1.0
    elif a_obs:
        out[ev_index[a], :] = posterior_marginal(st, b)
    elif b_obs:
        out[:, ev_index[b]] = posterior_marginal(st, a)
    else:
        program = record(st.net, st.evidence, keep=(a, b), width_cap=st.width_cap)
        table, _ = replay(program, bind(program, st.net))
        out = table / st.pr_e
    return out


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
    program = record(net, st.evidence, (cpt.child.name,), family, width_cap=st.width_cap)
    d = replay(program, bind(program, net))[0]
    _check_euler(cpt.shaped, d, st.pr_e, f"derivative table for {cpt.child.name!r}")
    return d


def exact_map(
    net: Network, ev: Evidence, map_vars, *, width_cap: int = WIDTH_CAP_DEFAULT
) -> tuple[dict[str, str], float]:
    """Most probable instantiation of ``map_vars`` and its value Pr(m, e).

    Checks the evidence against the network, sums out all other unobserved
    variables first, then max-eliminates the MAP variables with argmax
    traceback.  Ties break toward the lowest state index at each traceback
    step.
    """
    map_list = list(dict.fromkeys(map_vars))
    for name in map_list:
        net.var(name)
    assignment = {name: ev[name] for name in map_list if name in ev}
    hidden_map = [name for name in map_list if name not in ev]
    program = record(net, ev, maximize=hidden_map, width_cap=width_cap)
    value, traceback = replay(program, bind(program, net))
    q = float(value)

    chosen: dict[str, int] = {}
    for name, rest, argmax in reversed(traceback):
        idx = tuple(chosen[n] for n in rest)
        chosen[name] = int(argmax[idx] if rest else argmax)
    for name in hidden_map:
        var = net.var(name)
        assignment[name] = var.states[chosen.get(name, 0)]
    if q <= 0.0:
        warnings.warn(
            "MAP value is zero; the instantiation is arbitrary", RuntimeWarning
        )
    return assignment, q
