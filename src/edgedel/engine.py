"""Exact inference by variable elimination and on a jointree.

Answers evidence probability, posterior and pairwise marginals, CPT-entry
derivatives (valid at zero parameters), tables of Pr(e) over kept variables
with chosen CPTs left out, and exact MAP, plus greedy min-fill elimination
orders with an optional eliminate-these-last constraint.

Every query takes the same steps: check and index the evidence and slice
every CPT by it (``reduce``, whose result programs recorded under the same
evidence can share), then, inside ``record``, the one recording entry, pick
the inputs (``_factors``: which CPTs enter, and which keep a kept variable's
axis), order (``_order``: one greedy min-fill order, popped off a heap of
(fill cost, declaration index) keys over bitmask adjacency, and checked
against the width cap before any table is built), and record a ``Program``
naming, bucket by bucket, the operands, each step's transpose and
broadcast shapes, and the summed or maximized axis.  Then ``bind`` reads
the program's input tables off a network once, each CPT through ``write``,
which checks its shape and applies the evidence slice, and ``replay`` runs
exactly the recorded numpy operations on that list, with an argmax
traceback for the maximized variables.  It checks the program's result,
not each product, for overflow: the inputs are finite and nonnegative, and
an inf or NaN entry survives every later product, sum and maximum.  A
program depends on the structure, the evidence and the query, not on the
CPT entries, and ``replay`` never writes into the bound list.

A ``Jointree`` answers a fixed list of such queries, each a table of Pr(e)
with chosen CPTs left out over kept variables, from one min-fill order of
the whole reduction: Shenoy–Shafer messages between the cliques of that
order, each one ``np.einsum``, kept until a written CPT (``set_cpt``,
through ``write``) makes them stale.  ``parametrize.run`` reads every
deleted edge's tables and Pr'(e') off one tree in either schedule, so a
sweep's writes re-send only the messages that depend on them.

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

import heapq
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
    """Number of missing edges among the neighbours of node ``n``, where
    ``adj[m]`` is the bitmask of node ``m``'s neighbours."""
    nbrs = adj[n]
    # each neighbour m misses the bits of nbrs & ~adj[m] but itself (its own
    # bit is set there); every missing pair is counted from both ends
    missing = -nbrs.bit_count()
    rest = nbrs
    while rest:
        low = rest & -rest
        missing += (nbrs & ~adj[low.bit_length() - 1]).bit_count()
        rest ^= low
    return missing // 2


class _Input(NamedTuple):
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


def _sliced(child, names, cards, ev_index, keep=()) -> _Input:
    """The input of the CPT of ``child`` over ``names`` (of ``cards``),
    sliced by the evidence on its scope outside ``keep``."""
    sliced = [n in ev_index and n not in keep for n in names]
    if True not in sliced:
        return _Input(names, cards, child, cards)
    return _Input(
        tuple(n for n, s in zip(names, sliced) if not s),
        tuple(c for c, s in zip(cards, sliced) if not s),
        child, cards,
        tuple(ev_index[n] if s else slice(None) for n, s in zip(names, sliced)),
    )


@dataclass(frozen=True, eq=False)
class Reduction:
    """A network's evidence, checked and indexed (variable name to state
    index), and every CPT's input sliced by it, in declaration order: what
    ``record`` starts from.  Programs recorded under the same evidence
    share one (``reduce``)."""

    net: Network
    ev_index: dict[str, int]
    inputs: tuple[_Input, ...]


def reduce(net: Network, ev: Evidence) -> Reduction:
    """Check the evidence against the network, index it, and slice every
    CPT by it."""
    ev_index = {name: net.var(name).index_of(state) for name, state in ev.items()}
    inputs = tuple(_sliced(*layout, ev_index) for layout in net.layout())
    return Reduction(net, ev_index, inputs)


def _factors(reduced: Reduction, without=(), keep=()) -> list[_Input]:
    """The CPTs of the variables outside ``without``, each sliced by the
    evidence on its scope, except that the variables in ``keep`` stay
    unsliced.

    A kept observed variable gets an indicator input instead, and a kept
    variable that no remaining input mentions gets a ones input.
    """
    net, ev_index = reduced.net, reduced.ev_index
    kept = set(keep)
    inputs: list[_Input] = []
    covered = set()
    for layout, inp in zip(net.layout(), reduced.inputs):
        if inp.cpt in without:
            continue
        if inp.take is not None and not kept.isdisjoint(layout[1]):
            # the evidence slice may cut a kept variable's axis
            inp = _sliced(*layout, ev_index, kept)
        inputs.append(inp)
        covered.update(inp.scope)
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


def _order(
    factors, decl_index, keep=(), last=(), width_cap=None, cliques=None
) -> EliminationOrder:
    """Greedy min-fill order of every scope variable outside ``keep``, with
    the variables in ``last`` eliminated after all the others.

    Width is the largest elimination-time neighborhood (clique size - 1).
    Ties break toward the lowest declaration index, so runs are deterministic.
    With ``width_cap`` set, a wider order raises CapacityError before any
    table is built.  A ``cliques`` list gets each eliminated variable's
    neighbours at its elimination, in order of first appearance.

    The variables are numbered in order of first appearance, and each one's
    neighbours are held as a bitmask.  Each phase pops the least (fill
    cost, declaration index) key off a heap, skipping keys that have changed
    since they were pushed.  Eliminating a node changes only its
    neighbours' neighbourhoods and adds edges only among them, so only the
    keys of those neighbours and of their neighbours are recomputed.
    """
    ids: dict[str, int] = {}
    adj: list[int] = []
    for f in factors:
        mask = 0
        for n in f.names():
            i = ids.get(n)
            if i is None:
                i = ids[n] = len(adj)
                adj.append(0)
            mask |= 1 << i
        rest = mask
        while rest:
            low = rest & -rest
            adj[low.bit_length() - 1] |= mask ^ low
            rest ^= low
    names = list(ids)
    phases = (
        [i for n, i in ids.items() if n not in keep and n not in last],
        [i for n, i in ids.items() if n in last],
    )
    order: list[str] = []
    width = 0
    for phase in phases:
        cost = {i: _fill_cost(adj, i) for i in phase}
        rank = {i: decl_index(names[i]) for i in phase}
        heap = [(c, rank[i], i) for i, c in cost.items()]
        heapq.heapify(heap)
        while heap:
            c, _, best = heapq.heappop(heap)
            if cost.get(best) != c:
                continue
            del cost[best]
            nbrs = adj[best]
            adj[best] = 0
            width = max(width, nbrs.bit_count())
            if cliques is not None:
                clique = []
                rest = nbrs
                while rest:
                    low = rest & -rest
                    clique.append(names[low.bit_length() - 1])
                    rest ^= low
                cliques.append(tuple(clique))
            gone = 1 << best
            stale = rest = nbrs
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                adj[i] = (adj[i] | nbrs) & ~(low | gone)
                stale |= adj[i]
                rest ^= low
            while stale:
                low = stale & -stale
                i = low.bit_length() - 1
                stale ^= low
                # outside nbrs, a node's cost moves only if a new edge joins
                # two of its neighbours, so it must touch two of nbrs
                if i in cost and (low & nbrs or (adj[i] & nbrs).bit_count() > 1):
                    c = _fill_cost(adj, i)
                    if c != cost[i]:
                        cost[i] = c
                        heapq.heappush(heap, (c, rank[i], i))
            order.append(names[best])
    if width_cap is not None and width > width_cap:
        what = "constrained induced width" if last else "induced width"
        raise CapacityError(f"{what} {width} exceeds the cap of {width_cap}")
    return EliminationOrder(tuple(order), width)


class _Bucket(NamedTuple):
    """One recorded elimination step.

    Table ``first`` is multiplied by the table of each of ``steps`` in turn
    (``_product_steps``; ``back`` is the reverse pass's part, None in a
    program that keeps or maximizes a variable, which never runs
    backward).  ``axis`` of the product, of length ``size``, is summed out,
    or maximized out if ``rest`` (the product's other axes, for the
    traceback) is set; the result has ``shape``, and ``flat`` is the
    product's shape with ``axis`` cut to length one.  Tables are ids in
    creation order: inputs first, then bucket results.
    """

    var: str
    first: int
    steps: tuple
    back: tuple | None
    axis: int
    size: int
    flat: tuple[int, ...]
    shape: tuple[int, ...]
    rest: tuple[str, ...] | None


@dataclass(frozen=True)
class Program:
    """A recorded elimination: inputs by name, then buckets, then the
    product of what remains (``final`` ids, multiplied by ``final_steps``
    starting from a scalar one; ``final_back`` as a bucket's ``back``),
    permuted by ``perm`` into the kept variables' order and reshaped to
    ``shape``.

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
    final_back: tuple | None
    perm: tuple[int, ...]
    shape: tuple[int, ...]
    width: int
    cpt_inputs: dict[str, int]
    ev_index: dict[str, int]


def _product_steps(scope, shape, ids, scopes, shapes, backward):
    """How to multiply a table over ``scope``, of ``shape``, by the tables
    ``ids`` (over ``scopes[j]``, of ``shapes[j]``) left to right, each
    product appending the next table's new variables, as
    ``Factor.multiply`` aligns its operands.

    Returns the product's scope and shape, the forward steps and, if
    ``backward``, their reverse-pass parts (``_reverse``; else None).  Step
    (j, grow, turn, fit) reshapes the running product to ``grow`` (its own
    axes, then a broadcast axis per new variable), and transposes table j
    by ``turn`` and reshapes it to ``fit`` to broadcast against it; each
    part is None where it would be the identity.
    """
    pos = {n: i for i, n in enumerate(scope)}
    scope, shape = list(scope), list(shape)
    steps = []
    back = []
    for j in ids:
        theirs = shapes[j]
        mine = tuple(shape)
        where = []
        for n, c in zip(scopes[j], theirs):
            i = pos.get(n)
            if i is None:
                i = pos[n] = len(scope)
                scope.append(n)
                shape.append(c)
            where.append(i)
        grow = None
        if len(scope) > len(mine):
            grow = mine + (1,) * (len(scope) - len(mine))
        fit = None
        if len(where) < len(scope):
            aligned = [1] * len(scope)
            for i, c in zip(where, theirs):
                aligned[i] = c
            fit = tuple(aligned)
        turn = None
        if where != sorted(where):
            turn = tuple(sorted(range(len(where)), key=where.__getitem__))
        steps.append((j, grow, turn, fit))
        if backward:
            back.append(_reverse(mine, theirs, grow, turn, fit))
    return tuple(scope), tuple(shape), tuple(steps), tuple(back) if backward else None


def _reverse(mine, theirs, grow, turn, fit):
    """The reverse-pass part of the step (j, grow, turn, fit) that
    multiplies a running product of shape ``mine`` by a table of shape
    ``theirs`` (see ``_product_steps``).

    The part (grow_ones, mine, fit_ones, turned, unturn, theirs) undoes the
    step on an adjoint over the product (``_multiply_back``): the axes to
    sum where a side was broadcast, and the reshapes and the transpose back
    to the side's own shape, each None where it would do nothing.  (Summing
    an axis of length one also drops the axes of one-state variables; only
    then are the reshapes needed.)
    """
    grow_ones = fit_ones = mine_back = turned = unturn = theirs_back = None
    if grow is not None:
        grow_ones = tuple(i for i, c in enumerate(grow) if c == 1)
        mine_back = mine if 1 in mine else None
    if fit is not None:
        fit_ones = tuple(i for i, c in enumerate(fit) if c == 1)
    cut = fit is not None and 1 in theirs
    if turn is None:
        theirs_back = theirs if cut else None
    else:
        unturn = tuple(sorted(range(len(turn)), key=turn.__getitem__))
        turned = tuple(theirs[i] for i in turn) if cut else None
    return grow_ones, mine_back, fit_ones, turned, unturn, theirs_back


def _distinct(keep) -> tuple[str, ...]:
    """The kept variables as a tuple; one kept twice raises ``ModelError``."""
    keep = tuple(keep)
    for i, name in enumerate(keep):
        if name in keep[:i]:
            raise ModelError(f"variable {name!r} is kept more than once")
    return keep


def record(reduced: Reduction, without=(), keep=(), maximize=(), width_cap=None) -> Program:
    """Order and record one elimination on a network reduced by its
    evidence (``reduce``) without building a table.

    This is the one way to record: every query and every fit program starts
    here, and programs recorded under the same evidence can share one
    reduction.  ``without``/``keep`` are as in
    ``_factors`` and ``width_cap`` as in ``_order``; the variables in
    ``maximize`` are eliminated after all the others (``_order``'s
    ``last``), and maximized out with an argmax traceback instead of summed
    out.  With nothing kept the program computes Pr(e); bind it and run it
    with ``replay`` or ``adjoints``.
    """
    net = reduced.net
    keep = _distinct(keep)
    inputs = _factors(reduced, without, keep)
    elim = _order(inputs, net.decl_index, keep=set(keep), last=maximize, width_cap=width_cap)
    # only a Pr(e) program (nothing kept or maximized) can run backward
    backward = not keep and not maximize
    scopes = [inp.scope for inp in inputs]
    shapes = [inp.reduced for inp in inputs]
    holding: dict[str, list[int]] = {}
    for i, scope in enumerate(scopes):
        for n in scope:
            holding.setdefault(n, []).append(i)
    live = set(range(len(scopes)))
    buckets = []
    for name in elim.order:
        ids = [i for i in holding.pop(name, ()) if i in live]
        if not ids:
            continue
        live.difference_update(ids)
        first = ids[0]
        scope, shape, steps, back = _product_steps(
            scopes[first], shapes[first], ids[1:], scopes, shapes, backward
        )
        axis = scope.index(name)
        rest = scope[:axis] + scope[axis + 1 :]
        out = shape[:axis] + shape[axis + 1 :]
        buckets.append(
            _Bucket(
                name, first, steps, back, axis, shape[axis],
                shape[:axis] + (1,) + shape[axis + 1 :], out,
                rest if name in maximize else None,
            )
        )
        for n in rest:
            holding[n].append(len(scopes))
        live.add(len(scopes))
        scopes.append(rest)
        shapes.append(out)
    final = tuple(sorted(live))
    scope, shape, final_steps, final_back = _product_steps(
        (), (), final, scopes, shapes, backward
    )
    if sorted(scope) != sorted(keep):
        raise ModelError("reorder must name the full scope")
    perm = tuple(scope.index(n) for n in keep)
    return Program(
        tuple(inputs), tuple(buckets), final, final_steps, final_back,
        perm, tuple(shape[i] for i in perm), elim.width,
        {inp.cpt: i for i, inp in enumerate(inputs) if inp.cpt is not None},
        reduced.ev_index,
    )


# the reductions ``ndarray.sum`` and ``ndarray.max`` run, without their wrappers
_sum = np.add.reduce
_max = np.maximum.reduce


def _multiply(tables, prod, steps, prefixes=None):
    """Multiply ``prod`` by the table of each step in turn (see
    ``_product_steps``).  The tables are released, unless ``prefixes``
    collects the running product before each step for ``_multiply_back``."""
    for j, grow, turn, fit in steps:
        other = tables[j]
        if prefixes is None:
            tables[j] = None
        else:
            prefixes.append(prod)
        if grow is not None:
            prod = prod.reshape(grow)
        if turn is not None:
            other = other.transpose(turn)
        if fit is not None:
            other = other.reshape(fit)
        prod = prod * other
    return prod


def _multiply_back(grad, prefixes, tables, steps, back, adj):
    """The reverse of ``_multiply``: given the adjoint of the product, set
    each table's adjoint in ``adj`` and return the starting product's."""
    for (j, grow, turn, fit), (grow_ones, mine, fit_ones, turned, unturn, theirs), prev in zip(
        reversed(steps), reversed(back), reversed(prefixes)
    ):
        other = tables[j]
        if grow is not None:
            prev = prev.reshape(grow)
        if turn is not None:
            other = other.transpose(turn)
        if fit is not None:
            other = other.reshape(fit)
        d = grad * prev
        if fit_ones is not None:
            d = _sum(d, fit_ones)
        if turned is not None:
            d = d.reshape(turned)
        if unturn is not None:
            d = d.transpose(unturn)
        if theirs is not None:
            d = d.reshape(theirs)
        adj[j] = d
        grad = grad * other
        if grow_ones is not None:
            grad = _sum(grad, grow_ones)
        if mine is not None:
            grad = grad.reshape(mine)
    return grad


def _stored(out, shape):
    """A bucket's result as it is stored: in C order, so that the layout of
    every later product, which sets numpy's summation order, is the one
    recorded; a 1-d product sums to a scalar, which comes back 0-d."""
    out = np.ascontiguousarray(out)
    return out if shape else out.reshape(())


def write(program: Program, bound: list, name: str, table: np.ndarray) -> None:
    """Set the input of the CPT of ``name`` to ``table`` in ``bound``, the
    program's input tables (``bind``).  ``table`` must have the shape the
    program was recorded for, and the program reads it as it was recorded:
    sliced by its evidence.  A program that does not read that CPT is left
    as it was.

    ``bind`` reads every CPT through here, and ``Jointree.set_cpt`` writes
    the fit's edge tables through here, the tree taking the program's
    place.
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

    ``replay`` and ``adjoints`` take this list and never write
    into it.
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

    A result with an infinite or NaN entry raises "numerical overflow in
    factor product".  One check on the result catches an overflow in any
    product: the inputs are finite and nonnegative, and an inf or NaN entry
    survives every later product, sum and maximum.
    """
    tables = list(bound)
    traceback = []
    for b in program.buckets:
        prod = _multiply(tables, tables[b.first], b.steps)
        tables[b.first] = None
        if b.rest is None:
            out = _sum(prod, b.axis)
        else:
            traceback.append((b.var, b.rest, prod.argmax(axis=b.axis)))
            out = _max(prod, b.axis)
        tables.append(_stored(out, b.shape))
    prod = _multiply(tables, np.array(1.0), program.final_steps)
    table = np.ascontiguousarray(prod.transpose(program.perm)).reshape(program.shape)
    if not np.isfinite(table).all():
        raise ModelError("numerical overflow in factor product")
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
    """Run a Pr(e) program (one recorded with nothing kept and nothing
    maximized) forward on its bound input tables (``bind``), then backward
    over the same buckets and alignments.

    The forward pass runs ``replay``'s operations, so Pr(e) is bitwise
    ``replay``'s, with the same overflow check, and keeps every table and
    running product; the backward pass gives each operand of a product the
    product of the others times the result's adjoint, summed down to the
    operand's scope, so no adjoint is ever a quotient.  The result keeps
    the input tables it was given; ``bound`` itself is left as it was.
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
        prod = _multiply(tables, tables[b.first], b.steps, prefixes)
        saved.append(prefixes)
        tables.append(_stored(_sum(prod, b.axis), b.shape))
    final = []
    pr_e = float(_multiply(tables, np.array(1.0), program.final_steps, final))
    if not math.isfinite(pr_e):
        raise ModelError("numerical overflow in factor product")
    adj = [None] * len(tables)
    _multiply_back(np.array(1.0), final, tables, program.final_steps, program.final_back, adj)
    n = len(program.inputs)
    for k in reversed(range(len(program.buckets))):
        b = program.buckets[k]
        grad = adj[n + k].reshape(b.flat).repeat(b.size, axis=b.axis)
        adj[b.first] = _multiply_back(grad, saved[k], tables, b.steps, b.back, adj)
    return Adjoints(program, bound, pr_e, tuple(adj[:n]))


# np.einsum names each axis by a letter, and before numpy 2 takes at most 32
# operands
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_MAX_OPERANDS = 32


class _Contraction(NamedTuple):
    """How one jointree message or query table is computed: ``np.einsum``
    of ``subscripts`` over the tables ``ids``.  Each of ``folds``
    (subscripts, n) first replaces the first n operands by their product
    summed down to the axes still needed; there is a fold only past
    ``_MAX_OPERANDS`` operands."""

    ids: tuple[int, ...]
    folds: tuple[tuple[str, int], ...]
    subscripts: str


def _subscripts(scopes, out) -> str:
    letters: dict[str, str] = {}
    for scope in scopes:
        for n in scope:
            if n not in letters:
                if len(letters) == len(_LETTERS):
                    raise CapacityError(
                        f"a jointree contraction over more than {len(_LETTERS)} variables"
                    )
                letters[n] = _LETTERS[len(letters)]
    spelled = ",".join("".join(letters[n] for n in scope) for scope in scopes)
    return spelled + "->" + "".join(letters[n] for n in out)


def _contraction(ids, scopes, out) -> _Contraction:
    """The contraction of the tables ``ids``, over ``scopes``, down to the
    variables ``out``."""
    scopes = list(scopes)
    folds = []
    while len(scopes) > _MAX_OPERANDS:
        head, scopes = scopes[:_MAX_OPERANDS], scopes[_MAX_OPERANDS:]
        later = set(out).union(*scopes)
        kept = tuple(dict.fromkeys(n for scope in head for n in scope if n in later))
        folds.append((_subscripts(head, kept), len(head)))
        scopes.insert(0, kept)
    return _Contraction(tuple(ids), tuple(folds), _subscripts(scopes, out))


def _contract(c: _Contraction, tables) -> np.ndarray:
    ops = [tables[i] for i in c.ids]
    for subscripts, n in c.folds:
        ops[:n] = [np.einsum(subscripts, *ops[:n])]
    return np.einsum(c.subscripts, *ops)


class _Query(NamedTuple):
    """One jointree query: the messages into its home clique, each a (table
    id, contraction) pair after the messages it is computed from; the
    contraction of the home's inputs (but the query's left-out ones) with
    those messages; and, where a kept variable is observed, the full
    ``shape`` and the index ``take`` that places the result in a table of
    zeros."""

    toward: tuple[tuple[int, _Contraction], ...]
    table: _Contraction
    shape: tuple[int, ...]
    take: tuple | None


class Jointree:
    """A Shenoy–Shafer jointree over a network reduced by its evidence
    (``reduce``), answering a fixed list of queries (Shenoy & Shafer 1990;
    Darwiche, *Modeling and Reasoning with Bayesian Networks*, 2009, ch. 7).

    Query j, a pair (without, keep), asks for the table that ``record(
    reduced, without, keep)`` computes: Pr(e) with the CPTs of ``without``
    left out, summed down to the variables ``keep``, whose axes come in
    that order with their full cardinalities (zero off an observed one's
    state).  Each CPT may be left out of one query at most.

    The tree comes from one min-fill ``_order`` over the inputs plus one
    pseudo-scope per query (its unobserved kept variables and its left-out
    inputs' variables), checked against the width cap before any table is
    built: a clique per eliminated variable, holding the variable and its
    neighbours at its elimination, joined to the clique of the first of
    those neighbours to go; the trees of a forest are joined in a chain
    over empty separators.  Each input sits in the clique of its first
    eliminated variable, except that a query's left-out inputs sit in its
    home, the clique of its pseudo-scope's first variable, which holds the
    whole pseudo-scope.

    Every directed message is the product of its clique's inputs and of
    the messages into that clique from its other neighbours, summed down to
    the separator: one ``np.einsum`` whose subscripts are fixed when the
    tree is built.  A message is kept until ``set_cpt`` changes an input
    that it depends on: writing a CPT forgets the messages leaving that
    input's clique.  ``table(j)`` sends the forgotten messages into query
    j's home and contracts the home's other inputs with every message into
    it.  No step divides, so the tables stay exact at zero parameters.
    ``sent`` counts the messages computed.

    ``inputs`` and ``cpt_inputs`` are as in a ``Program``, so ``bind`` and
    ``write`` take the tree in its place.  ``bound`` starts with the input
    tables, read off the reduced network when the tree is built, and goes
    on with the messages (None where forgotten) and the constant tables.
    """

    def __init__(self, reduced: Reduction, queries, width_cap=None):
        net, ev_index = reduced.net, reduced.ev_index
        self.inputs = inputs = reduced.inputs
        self.cpt_inputs = {inp.cpt: i for i, inp in enumerate(inputs)}
        # per query: its left-out input ids, kept variables, unobserved kept
        # variables and pseudo-scope
        left, kept, free, pseudo = [], [], [], []
        for without, keep in queries:
            ids = tuple(self.cpt_inputs[net.var(name).name] for name in without)
            keep = _distinct(net.var(name).name for name in keep)
            left.append(ids)
            kept.append(keep)
            free.append(tuple(v for v in keep if v not in ev_index))
            pseudo.append(tuple(dict.fromkeys(free[-1] + sum((inputs[i].scope for i in ids), ()))))
        taken = sum(left, ())
        if len(set(taken)) != len(taken):
            raise ModelError("a CPT is left out of more than one jointree query")
        nbrs: list[tuple[str, ...]] = []
        scopes = [_Input(p, tuple(net.var(n).card for n in p)) for p in pseudo]
        elim = _order(list(inputs) + scopes, net.decl_index, width_cap=width_cap, cliques=nbrs)
        self.width = elim.width
        pos = {n: i for i, n in enumerate(elim.order)}
        members = [(n,) + m for n, m in zip(elim.order, nbrs)] or [()]
        member_sets = [frozenset(m) for m in members]
        parent = [min((pos[n] for n in m), default=None) for m in nbrs] or [None]
        roots = [i for i, p in enumerate(parent) if p is None]
        for a, b in zip(roots, roots[1:]):
            parent[a] = b

        def first(scope):
            return min((pos[n] for n in scope), default=roots[-1])

        holder = [first(inp.scope) for inp in inputs]
        homes = [first(p) for p in pseudo]
        for ids, home in zip(left, homes):
            for i in ids:
                holder[i] = home
        self._holder = holder
        local: list[list[int]] = [[] for _ in members]
        for i, c in enumerate(holder):
            local[c].append(i)

        # message m is table len(inputs) + m; message 2e goes up tree edge e
        # (child to parent) and 2e + 1 down it; each clique's neighbours are
        # (neighbour, message out, message in)
        n = len(inputs)
        edges = [(i, p) for i, p in enumerate(parent) if p is not None]
        adjacent: list[list[tuple[int, int, int]]] = [[] for _ in members]
        for e, (i, p) in enumerate(edges):
            adjacent[i].append((p, 2 * e, 2 * e + 1))
            adjacent[p].append((i, 2 * e + 1, 2 * e))
        self._adjacent = adjacent
        self._stale: dict[int, tuple[int, ...]] = {}
        # each table's scope; a message's is None where its side of the
        # tree holds no input or no query reads it, and then it is never sent
        table_scopes = [inp.scope for inp in inputs] + [None] * (2 * len(edges))
        sends: list[_Contraction | None] = [None] * (2 * len(edges))

        def operands(c, exclude=(), skip=None):
            ids = [i for i in local[c] if i not in exclude]
            ids += [n + m for other, _, m in adjacent[c] if other != skip]
            return [i for i in ids if table_scopes[i] is not None]

        def plan(src, dst, m):
            ids = operands(src, skip=dst)
            if ids:
                present = set().union(*(table_scopes[i] for i in ids))
                out = tuple(v for v in members[src] if v in member_sets[dst] and v in present)
                table_scopes[n + m] = out
                sends[m] = _contraction(ids, [table_scopes[i] for i in ids], out)

        # the messages into some query's home, toward the root from the
        # leaves, then away from it: each after the messages it is computed
        # from
        leaving = {home: self._leaving(home) for home in homes}
        needed = {m ^ 1 for away in leaving.values() for m in away}
        away = self._leaving(roots[-1])
        for m in reversed(away):
            if m ^ 1 in needed:
                plan(*edges[m // 2], m ^ 1)
        for m in away:
            if m in needed:
                plan(edges[m // 2][1], edges[m // 2][0], m)

        fixed: list[np.ndarray] = []
        self._queries = []
        for ids, keep, unobserved, home in zip(left, kept, free, homes):
            ops = operands(home, exclude=ids)
            present = set().union(*(table_scopes[i] for i in ops))
            # a kept variable that no operand mentions: g is flat across it
            for v in unobserved:
                if v not in present:
                    ops.append(len(table_scopes) + len(fixed))
                    table_scopes.append((v,))
                    fixed.append(np.ones(net.var(v).card))
            if not ops:
                ops.append(len(table_scopes) + len(fixed))
                table_scopes.append(())
                fixed.append(np.ones(()))
            take = None
            if len(unobserved) < len(keep):
                take = tuple(ev_index[v] if v in ev_index else slice(None) for v in keep)
            toward = tuple(
                (n + (m ^ 1), sends[m ^ 1])
                for m in reversed(leaving[home])
                if sends[m ^ 1] is not None
            )
            table = _contraction(ops, [table_scopes[i] for i in ops], unobserved)
            shape = tuple(net.var(v).card for v in keep)
            self._queries.append(_Query(toward, table, shape, take))
        self.sent = 0
        self.bound = bind(self, net) + [None] * (2 * len(edges)) + fixed

    def _leaving(self, c: int) -> list[int]:
        """The messages that point away from clique ``c``, nearest first."""
        out, frontier, seen = [], [c], {c}
        for a in frontier:
            for b, m, _ in self._adjacent[a]:
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
                    out.append(m)
        return out

    def set_cpt(self, name: str, table: np.ndarray) -> None:
        """Make ``table`` the CPT of ``name`` (``write``), and forget the
        messages that depend on it: those leaving its input's clique."""
        write(self, self.bound, name, table)
        c = self._holder[self.cpt_inputs[name]]
        stale = self._stale.get(c)
        if stale is None:
            n = len(self.inputs)
            stale = self._stale[c] = tuple(n + m for m in self._leaving(c))
        bound = self.bound
        for t in stale:
            bound[t] = None

    def table(self, j: int) -> np.ndarray:
        """Query j's table at the current inputs.  A result with an
        infinite or NaN entry raises "numerical overflow in factor
        product", as ``replay``'s does."""
        q = self._queries[j]
        bound = self.bound
        for t, send in q.toward:
            if bound[t] is None:
                bound[t] = _contract(send, bound)
                self.sent += 1
        g = _contract(q.table, bound)
        if q.take is not None:
            full = np.zeros(q.shape)
            full[q.take] = g
            g = full
        if not np.isfinite(g).all():
            raise ModelError("numerical overflow in factor product")
        return g


def min_fill_order(net: Network, query=()) -> EliminationOrder:
    """Greedy min-fill order over all variables outside ``query``."""
    query = set(query)
    for q in query:
        net.var(q)
    return _order(_factors(reduce(net, {})), net.decl_index, keep=query)


def constrained_order(net: Network, map_vars=()) -> EliminationOrder:
    """Full elimination order with ``map_vars`` forced last.

    The reported width is the constrained-treewidth estimate.
    """
    map_vars = set(map_vars)
    for q in map_vars:
        net.var(q)
    return _order(_factors(reduce(net, {})), net.decl_index, last=map_vars)


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
    program = record(reduce(net, ev), width_cap=width_cap)
    bound = tuple(bind(program, net))
    return EngineState(net, ev, width_cap, program, bound, float(replay(program, bound)[0]))


def posterior_marginal(st: EngineState, name: str) -> np.ndarray:
    """Normalized posterior over the states of one variable."""
    var = st.net.var(name)
    if st.pr_e <= 0.0:
        raise InconsistentEvidenceError("evidence has zero probability")
    if name in st.program.ev_index:
        return np.eye(var.card)[st.program.ev_index[name]]
    program = record(reduce(st.net, st.evidence), keep=(name,), width_cap=st.width_cap)
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
        program = record(reduce(st.net, st.evidence), keep=(a, b), width_cap=st.width_cap)
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
    program = record(
        reduce(net, st.evidence), (cpt.child.name,), family, width_cap=st.width_cap
    )
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
    program = record(reduce(net, ev), maximize=hidden_map, width_cap=width_cap)
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
