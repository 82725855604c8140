"""Exact inference by variable elimination and on a jointree.

Answers evidence probability, posterior and pairwise marginals, CPT-entry
derivatives (valid at zero parameters), tables of Pr(e) over kept variables
with chosen CPTs left out, and exact MAP, plus greedy min-fill elimination
orders with an optional eliminate-these-last constraint.

Every query takes two steps.  ``record``, the one entry, checks and indexes
the evidence, picks the inputs (``_factors``: which CPTs enter, each sliced
by the evidence outside the kept variables), orders them (``_order``: one
greedy min-fill order, popped off a heap of (fill cost, declaration index)
keys over bitmask adjacency, and checked against the width cap before any
table is read), records a ``Program`` naming, bucket by bucket, the
operands, each step's transpose and broadcast shapes, and the summed or
maximized axis, and last reads the program's input tables off the network
(``_bind``, which applies each CPT's evidence slice).  Then ``replay`` runs
exactly the recorded numpy operations on those tables, with an argmax
traceback for the maximized variables.  It checks the program's result,
not each product, for overflow: the inputs are finite and nonnegative, and
an inf or NaN entry survives every later product, sum and maximum.

A ``Jointree`` answers a fixed list of such queries, each a table of Pr(e)
with chosen CPTs left out over kept variables, from one min-fill order of
all the network's inputs: Shenoy–Shafer messages between the cliques of
that order, each one call of numpy's C einsum (``np.einsum`` without its
Python wrapper), kept until a written input (``set_input``, already
sliced by the evidence) makes them stale.  Which messages a write into a
clique makes stale is found at the first such write, so a tree that is
only read, as a derivative pass's is, keeps no write bookkeeping.
``parametrize.run`` reads every deleted edge's tables and Pr'(e') off one
tree in either schedule, so a sweep's writes re-send only the messages
that depend on them.

Orders, buckets and tree plans depend on the structure, the observed set
and the query, not on the CPT entries or the observed states.  So one
cache (``_structure``) keeps those of the most recent keys for ``record``,
``Jointree``, ``derived_derivatives`` and ``_full_order``
(``min_fill_order`` is ``constrained_order`` with no variable forced
last), least recently used evicted first, and
checks a kept width against each call's cap.  It
holds structure only: every call builds its own inputs and reads its own
tables, so its program or tree is a fresh one's, bit for bit.

Pr(e) is multilinear in the CPT entries, so Pr(e) with one CPT left out,
over that CPT's family, is dPr(e)/d(entry) for every entry of it (Darwiche,
"A differential approach to inference in Bayesian networks", JACM 2003):
a sum of products of the other tables, exact at zero parameters.  This is
the one derivative route: ``derivatives`` asks one ``Jointree`` for Pr(e)
and for such a table per named CPT, and keeps the tables (``Adjoints``),
not the tree.  ``Adjoints.cpt`` reads one CPT's table, checked by the Euler
identity sum(theta * d) = Pr(e), as ``cpt_derivatives`` checks its own.
The CPT times its table is the family's joint with the evidence
(``Adjoints.family``), so ``Adjoints.posterior`` reads Pr(X | e) for every
X off the same pass: the only bulk-marginal route.  Every Pr(e) outside
this module is a tree query too (``derivatives(net, ev, ())``).  Bucket
programs run forward only, and only here: ``exact_map``'s max-product
traceback; ``divergence.score_edges``'s tie refit
(``derived_derivatives``: Pr(e) and the tied clones' derivative tables on
the all-edges augmentation, recorded once per structure with each shared
bucket kept once, every input read per call off the source network, each
distinct bucket replayed once); and the per-query references
``compile``, ``cpt_derivatives``, ``posterior_marginal`` and
``pairwise_marginal``, which answer one query each with their own
elimination (``replay``).
"""
from __future__ import annotations

import heapq
import math
import sys
import warnings
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

# the C routine that ``np.einsum`` forwards to when it is not asked to
# optimize, bit for bit its result, without the Python wrapper's cost
if int(np.__version__.split(".")[0]) >= 2:
    from numpy._core.multiarray import c_einsum as _einsum
else:  # numpy 1.x keeps it in numpy.core
    from numpy.core.multiarray import c_einsum as _einsum

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

    A CPT input is ``net.cpt(cpt).shaped`` with the evidence index ``take``
    applied if it is set; a fixed input (``cpt`` None) is ``table``.
    ``scope`` names the axes and ``reduced`` gives their sizes.
    """

    scope: tuple[str, ...]
    reduced: tuple[int, ...]
    cpt: str | None = None
    take: tuple | None = None
    table: np.ndarray | None = None

    def names(self) -> tuple[str, ...]:
        return self.scope


def _sliced(child, names, cards, ev_index, keep=()) -> _Input:
    """The input of the CPT of ``child`` over ``names`` (of ``cards``),
    sliced by the evidence on its scope outside ``keep``."""
    if ev_index.keys().isdisjoint(names):
        return _Input(names, cards, child)
    sliced = [n in ev_index and n not in keep for n in names]
    if True not in sliced:
        return _Input(names, cards, child)
    return _Input(
        tuple(n for n, s in zip(names, sliced) if not s),
        tuple(c for c, s in zip(cards, sliced) if not s),
        child,
        tuple(ev_index[n] if s else slice(None) for n, s in zip(names, sliced)),
    )


def _indexed(net: Network, ev: Evidence) -> dict[str, int]:
    """The evidence checked against the network: variable name to state index."""
    return {name: net.var(name).index_of(state) for name, state in ev.items()}


def _factors(net: Network, ev_index, without=(), keep=()) -> list[_Input]:
    """The CPTs of the variables outside ``without``, in declaration order,
    each sliced by the evidence ``ev_index`` on its scope, except that the
    variables in ``keep`` stay unsliced.

    A kept observed variable gets an indicator input instead, and a kept
    variable that no remaining input mentions gets a ones input.
    """
    inputs = [_sliced(*layout, ev_index, keep) for layout in net.layout()
              if layout[0] not in without]
    covered = set().union(*(inp.scope for inp in inputs)) if keep else ()
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
    since they were pushed.  Each cost is counted once, then moved by each
    elimination: a neighbour of the eliminated node loses the pairs that
    node made with its neighbours outside the clique and gains the pairs its
    new neighbours do not make, and each fill edge lowers by one the cost of
    every node next to both its ends.
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
            nbrs, adj[best] = adj[best], 0
            width = max(width, nbrs.bit_count())
            gone = 1 << best
            # a fill edge lowers the cost of each node that was next to both its ends
            moved = {}
            rest = nbrs if c else 0
            while rest:
                bit = rest & -rest
                rest ^= bit
                i = bit.bit_length() - 1
                new = rest & ~adj[i]
                while new:
                    low = new & -new
                    new ^= low
                    both = adj[i] & adj[low.bit_length() - 1] & ~gone
                    while both:
                        low = both & -both
                        both ^= low
                        k = low.bit_length() - 1
                        if k in cost:
                            moved[k] = moved.get(k, cost[k]) - 1
            # a neighbour loses the pairs best made with its neighbours outside
            # nbrs, and gains those its new neighbours do not make
            clique = []
            rest = nbrs
            while rest:
                bit = rest & -rest
                rest ^= bit
                i = bit.bit_length() - 1
                clique.append(i)
                mine = adj[i]
                if i in cost:
                    out = mine & ~nbrs & ~gone
                    c = moved.get(i, cost[i]) - out.bit_count()
                    joined = nbrs & ~mine & ~bit
                    while joined:
                        low = joined & -joined
                        joined ^= low
                        c += (out & ~adj[low.bit_length() - 1]).bit_count()
                    moved[i] = c
                adj[i] = (mine | nbrs) & ~(bit | gone)
            for i, c in moved.items():
                if c != cost[i]:
                    cost[i] = c
                    heapq.heappush(heap, (c, rank[i], i))
            order.append(names[best])
            if cliques is not None:
                cliques.append(tuple(map(names.__getitem__, clique)))
    _check_width(width, last, width_cap)
    return EliminationOrder(tuple(order), width)


def _check_width(width, last, width_cap) -> None:
    if width_cap is not None and width > width_cap:
        what = "constrained induced width" if last else "induced width"
        raise CapacityError(f"{what} {width} exceeds the cap of {width_cap}")


class _Bucket(NamedTuple):
    """One recorded elimination step.

    Table ``first`` is multiplied by the table of each of ``steps`` in turn
    (``_product_steps``).  ``axis`` of the product is summed out, or
    maximized out if ``rest`` (the product's other axes, for the traceback)
    is set; the result has ``shape``.  Tables are ids in creation order:
    inputs first, then bucket results.
    """

    var: str
    first: int
    steps: tuple
    axis: int
    shape: tuple[int, ...]
    rest: tuple[str, ...] | None


@dataclass(frozen=True, eq=False)
class Program:
    """A recorded elimination on one network: inputs by name, then
    buckets, then the product of what remains (``final`` ids, multiplied by
    ``final_steps`` starting from a scalar one), permuted by ``perm`` into
    the kept variables' order and reshaped to ``shape``.

    ``width`` is the order's induced width, ``ev_index`` is the evidence
    (variable name to state index) it was recorded under, and ``bound``
    holds the input tables, read off the network when it was recorded
    (``_bind``).  ``replay`` never writes into them.
    """

    inputs: tuple[_Input, ...]
    buckets: tuple[_Bucket, ...]
    final: tuple[int, ...]
    final_steps: tuple
    perm: tuple[int, ...]
    shape: tuple[int, ...]
    width: int
    ev_index: dict[str, int]
    bound: tuple[np.ndarray, ...]


def _product_steps(scope, shape, ids, scopes, shapes, same):
    """How to multiply a table over ``scope``, of ``shape``, by the tables
    ``ids`` (over ``scopes[j]``, of ``shapes[j]``) left to right, each
    product appending the next table's new variables, as
    ``Factor.multiply`` aligns its operands.

    Returns the product's scope and shape and the steps.  Step (j, grow,
    turn, fit) reshapes the running product to ``grow`` (its own axes, then
    a broadcast axis per new variable), and transposes table j by ``turn``
    and reshapes it to ``fit`` to broadcast against it; each part is None
    where it would be the identity, and goes through ``same`` (one copy of
    equals).
    """
    pos = {n: i for i, n in enumerate(scope)}
    scope, shape = list(scope), list(shape)
    steps = []
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
        steps.append((j, same(grow), same(turn), same(fit)))
    return tuple(scope), tuple(shape), tuple(steps)


def _distinct(names, fault) -> tuple[str, ...]:
    """``names`` as a tuple; a name given twice raises ``ModelError``:
    "variable 'X' is ``fault``", such as "kept more than once"."""
    names = tuple(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ModelError(f"variable {name!r} is {fault}")
    return names


# the structure kept per key, least recently used first: ``record``'s
# orders and buckets, ``Jointree``'s plans, ``derived_derivatives``'
# recordings, and the full orders.  96
# entries hold about one round of the benchmark's matrix workload (two
# instances' programs, trees and orders), so the next instance of a
# structure still finds it
_STRUCTURES_MAX = 96
_structures: OrderedDict = OrderedDict()


def _structure(key, build, last=(), width_cap=None):
    """The structure kept under ``key``, else ``build()``'s, which orders
    under ``width_cap``, so a refused structure is never kept.  The
    ``_STRUCTURES_MAX`` most recently used keys are kept.  A kept ``width``
    is checked against each call's ``width_cap`` as ``_order`` checks it
    (``last`` as there), before the caller reads any table.  Each cache
    step is one dict operation, so threads that share the cache never see
    a key vanish between two steps."""
    shared = _structures.pop(key, None)
    if shared is None:
        shared = build()
    _structures[key] = shared
    while len(_structures) > _STRUCTURES_MAX:
        _structures.popitem(last=False)
    _check_width(shared.width, last, width_cap)
    return shared


def record(
    net: Network, ev: Evidence, without=(), keep=(), maximize=(), width_cap=None
) -> Program:
    """Check the evidence against ``net``, order and record one
    elimination, and read its input tables off ``net``.

    This is the one way to record: every query and every fit program starts
    here.  ``without``/``keep`` are as in ``_factors`` and ``width_cap`` as
    in ``_order``; the variables in ``maximize`` are eliminated after all
    the others (``_order``'s ``last``), and maximized out with an argmax
    traceback instead of summed out.  With nothing kept the program
    computes Pr(e).  Run it with ``replay``.  A name that ``net`` does not
    declare, or one given twice in ``without``, ``keep`` or ``maximize``,
    raises ``ModelError``.

    The order and buckets depend only on the key (``net.layout()``, the
    observed variables, ``without``, ``keep``, ``maximize``), so they are
    kept (``_structure``).  The cache holds structure only: each call takes
    its own inputs (``_factors``: evidence slices and indicator tables) and
    reads its own tables, so its program gives a fresh recording's bits.
    """
    ev_index = _indexed(net, ev)
    keep = _distinct(keep, "kept more than once")
    without = _distinct((net.var(name).name for name in without), "left out more than once")
    maximize = _distinct((net.var(name).name for name in maximize), "maximized more than once")
    for name in maximize:
        if name in keep:
            raise ModelError(f"variable {name!r} is both kept and maximized")
    inputs = _factors(net, ev_index, without, keep)
    key = ("program", net.layout(), frozenset(ev_index), without, keep, maximize)
    shared = _structure(
        key, lambda: _record(net, inputs, keep, maximize, width_cap), maximize, width_cap
    )
    return Program(tuple(inputs), *shared, ev_index, tuple(_bind(inputs, net)))


# ``record``'s structure for one key: the ``Program`` fields from ``buckets``
# to ``width``
_Recorded = namedtuple("_Recorded", "buckets final final_steps perm shape width")


def _record(net, inputs, keep, maximize, width_cap) -> _Recorded:
    """``record``'s miss path: order ``inputs`` and record the buckets.
    Equal shapes and steps share one tuple, since the recording is kept."""
    pool: dict = {}

    def same(t):
        return pool.setdefault(t, t)

    elim = _order(inputs, net.decl_index, keep=set(keep), last=maximize, width_cap=width_cap)
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
        scope, shape, steps = _product_steps(
            scopes[first], shapes[first], ids[1:], scopes, shapes, same
        )
        axis = scope.index(name)
        rest = scope[:axis] + scope[axis + 1 :]
        out = shape[:axis] + shape[axis + 1 :]
        buckets.append(
            _Bucket(name, first, steps, axis, same(out), rest if name in maximize else None)
        )
        for n in rest:
            holding[n].append(len(scopes))
        live.add(len(scopes))
        scopes.append(rest)
        shapes.append(out)
    final = tuple(sorted(live))
    scope, shape, final_steps = _product_steps((), (), final, scopes, shapes, same)
    perm = tuple(scope.index(n) for n in keep)
    return _Recorded(
        tuple(buckets), final, final_steps, perm, tuple(shape[i] for i in perm), elim.width
    )


# the reductions ``ndarray.sum`` and ``ndarray.max`` run, without their wrappers
_sum = np.add.reduce
_max = np.maximum.reduce


def _multiply(tables, prod, steps, release=True):
    """Multiply ``prod`` by the table of each step in turn (see
    ``_product_steps``), releasing the tables unless ``release`` is
    false."""
    for j, grow, turn, fit in steps:
        other = tables[j]
        if release:
            tables[j] = None
        if grow is not None:
            prod = prod.reshape(grow)
        if turn is not None:
            other = other.transpose(turn)
        if fit is not None:
            other = other.reshape(fit)
        prod = prod * other
    return prod


def _stored(out, shape):
    """A bucket's result as it is stored: in C order, so that the layout of
    every later product, which sets numpy's summation order, is the one
    recorded; a 1-d product sums to a scalar, which comes back 0-d."""
    out = np.ascontiguousarray(out)
    return out if shape else out.reshape(())


def _bind(inputs, net: Network) -> list[np.ndarray]:
    """The tables of ``inputs`` read off ``net``: each CPT's table sliced
    by its evidence (``_Input.take``), each fixed input's own table."""
    bound = []
    for inp in inputs:
        table = inp.table
        if inp.cpt is not None:
            table = net.cpt(inp.cpt).shaped
            if inp.take is not None:
                # ascontiguousarray makes a 0-d slice 1-d; reshape restores it
                table = np.ascontiguousarray(table[inp.take]).reshape(inp.reduced)
        bound.append(table)
    return bound


def replay(program: Program) -> tuple[np.ndarray, list]:
    """Run a recorded elimination on its input tables (``program.bound``).

    Returns the table over the kept variables (axes in the order given to
    ``record``; a 0-d array for Pr(e)) and the argmax traceback: one
    (variable, names of the other axes, argmax table) per maximized
    variable, in elimination order.

    A result with an infinite or NaN entry raises "numerical overflow in
    factor product".  One check on the result catches an overflow in any
    product: the inputs are finite and nonnegative, and an inf or NaN entry
    survives every later product, sum and maximum.
    """
    tables = list(program.bound)
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
    return _result(tables, program.final_steps, program.perm, program.shape), traceback


def _result(tables, final_steps, perm, shape, release=True) -> np.ndarray:
    """The product of what remains (``final_steps``, from a scalar one),
    permuted by ``perm`` and reshaped to ``shape``; an infinite or NaN
    entry raises "numerical overflow in factor product"."""
    prod = _multiply(tables, np.array(1.0), final_steps, release)
    table = np.ascontiguousarray(prod.transpose(perm)).reshape(shape)
    if not np.isfinite(table).all():
        raise ModelError("numerical overflow in factor product")
    return table


def _check_euler(theta, d, pr_e, what):
    _check_identity(float((theta * d).sum()), pr_e, f"{what} violates the sum(theta * d)")


def _check_identity(value, pr_e, fault):
    """Raise ``ModelError`` unless ``value`` equals Pr(e) within EULER_RTOL;
    ``fault`` names the table and the sum that gave ``value``."""
    scale = max(abs(pr_e), abs(value), 1e-300)
    if not (math.isfinite(value) and abs(value - pr_e) <= EULER_RTOL * scale):
        raise ModelError(f"{fault} = Pr(e) identity: {value} vs {pr_e}")


# einsum names each axis by a letter, and before numpy 2 takes at most 32
# operands
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_MAX_OPERANDS = 32


class _Contraction(NamedTuple):
    """How one jointree message or query table is computed: one einsum
    (numpy's C routine, ``_einsum``) of ``subscripts`` over the tables
    ``ids``.  Each of ``folds`` (subscripts, n) first replaces the first n
    operands by their product summed down to the axes still needed; there
    is a fold only past ``_MAX_OPERANDS`` operands."""

    ids: tuple[int, ...]
    folds: tuple[tuple[str, int], ...]
    subscripts: str


def _subscripts(scopes, out) -> str:
    """The einsum subscripts of tables over ``scopes`` down to ``out``, each
    variable lettered in order of first appearance."""
    names = dict.fromkeys(chain.from_iterable(scopes))
    if len(names) > len(_LETTERS):
        raise CapacityError(f"a jointree contraction over more than {len(_LETTERS)} variables")
    letter = dict(zip(names, _LETTERS)).__getitem__
    spelled = ",".join(["".join(map(letter, scope)) for scope in scopes])
    # trees that are kept repeat the same few spellings
    return sys.intern(spelled + "->" + "".join(map(letter, out)))


def _contraction(ids, scopes, out) -> _Contraction:
    """The contraction of the tables ``ids``, over ``scopes``, down to the
    variables ``out``."""
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
        ops[:n] = [_einsum(subscripts, *ops[:n])]
    return _einsum(c.subscripts, *ops)


class _TreeQuery(NamedTuple):
    """One jointree query: the contraction of its home clique's inputs (but
    its left-out ones) with every message into the home, and its kept
    variables, of cardinalities ``shape``."""

    table: _Contraction
    keep: tuple[str, ...]
    shape: tuple[int, ...]


class _TreePlan(NamedTuple):
    """A jointree's structure.  Tables are ids: the inputs, then message m
    (2i goes up from clique i to ``parent[i]``, 2i + 1 down it), then the
    constant ones tables of the ``fixed`` shapes.  ``holder`` gives each
    input's clique, ``sends`` each message's contraction by table id (None
    where it is never sent), and ``stale`` the sent messages that leave each
    clique written so far (``_leaving``): empty when planned, filled by
    ``Jointree.set_input`` at a clique's first write."""

    width: int
    holder: tuple[int, ...]
    parent: tuple[int | None, ...]
    sends: tuple[_Contraction | None, ...]
    stale: dict[int, tuple[int, ...]]
    queries: tuple[_TreeQuery, ...]
    fixed: tuple[tuple[int, ...], ...]


def _below(parent, c) -> set[int]:
    """The cliques from ``c`` up to, but not including, the root: those
    whose edge to their parent lies between ``c`` and the root."""
    path = set()
    while parent[c] is not None:
        path.add(c)
        c = parent[c]
    return path


def _leaving(sends, messages, path) -> tuple[int, ...]:
    """The ids of the sent messages (``sends``; message m is table
    ``messages[m]``) that point away from the clique whose path to the root
    is ``path`` (``_below``): up the edges on the path, and down every other
    edge."""
    ids = [messages[2 * i + (i not in path)] for i in range(len(messages) // 2)]
    return tuple([t for t in ids if sends[t] is not None])


def _plan_tree(net, inputs, ev_index, queries, cpt_inputs, width_cap) -> _TreePlan:
    """``Jointree``'s miss path: order the inputs and the queries'
    pseudo-scopes, and plan every message and query table."""
    # per query: its left-out input ids, kept variables, unobserved kept
    # variables and pseudo-scope
    left, kept, free, pseudo = [], [], [], []
    for without, keep in queries:
        without = _distinct((net.var(name).name for name in without), "left out more than once")
        ids = tuple(cpt_inputs[name] for name in without)
        keep = _distinct((net.var(name).name for name in keep), "kept more than once")
        left.append(ids)
        kept.append(keep)
        free.append(tuple(v for v in keep if v not in ev_index))
        pseudo.append(tuple(dict.fromkeys(free[-1] + sum((inputs[i].scope for i in ids), ()))))
    _distinct(sum((without for without, _ in queries), ()), "left out of more than one query")
    nbrs: list[tuple[str, ...]] = []
    scopes = [_Input(p, tuple(net.var(n).card for n in p)) for p in pseudo]
    elim = _order(list(inputs) + scopes, net.decl_index, width_cap=width_cap, cliques=nbrs)
    at = {n: i for i, n in enumerate(elim.order)}.__getitem__
    members = [(n,) + m for n, m in zip(elim.order, nbrs)] or [()]
    # a clique's parent is eliminated later, so it comes later; the roots
    # of a forest are chained, and only the last clique has no parent
    parent = [min(map(at, m), default=None) for m in nbrs] or [None]
    roots = [i for i, p in enumerate(parent) if p is None]
    for a, b in zip(roots, roots[1:]):
        parent[a] = b
    root = roots[-1]

    holder = [min(map(at, inp.scope), default=root) for inp in inputs]
    homes = [min(map(at, p), default=root) for p in pseudo]
    for ids, home in zip(left, homes):
        for i in ids:
            holder[i] = home
    n = len(inputs)
    # each clique's operands as they are planned: its inputs, the messages
    # from its children, then from its parent.  Each table's scope; a
    # message's is None where its side of the tree holds no input or no
    # query reads it, and then it is never sent
    into: list[list[int]] = [[] for _ in members]
    for i, c in enumerate(holder):
        into[c].append(i)
    table_scopes = [inp.scope for inp in inputs] + [None] * (2 * root)
    sends: list[_Contraction | None] = [None] * len(table_scopes)

    def plan(ids, src, dst, t):
        # the separator, a clique's neighbours (``nbrs``) shared with its
        # parent, in src's order, cut to the variables the operands mention
        if ids:
            scopes = list(map(table_scopes.__getitem__, ids))
            present = set().union(*scopes)
            if src < dst:
                out = tuple([v for v in nbrs[src] if v in present])
            else:
                present.intersection_update(nbrs[dst])
                out = tuple([v for v in members[src] if v in present])
            table_scopes[t] = out
            sends[t] = _contraction(ids, scopes, out)
            into[dst].append(t)

    # the messages into some query's home, up the tree from the leaves,
    # then down it: each after the messages it is computed from.  A home
    # gets messages down the edges between it and the root, up the others
    below = [_below(parent, home) for home in dict.fromkeys(homes)]
    everywhere = set.intersection(*below) if below else set()
    anywhere = set().union(*below)
    for i in range(root):
        if i not in everywhere:
            plan(into[i], i, parent[i], n + 2 * i)
    for i in reversed(range(root)):
        if i in anywhere:
            up = n + 2 * i
            plan([t for t in into[parent[i]] if t != up], parent[i], i, up + 1)

    fixed: list[tuple[int, ...]] = []
    planned = []
    for ids, keep, unobserved, home in zip(left, kept, free, homes):
        ops = [t for t in into[home] if t not in ids]
        present = set().union(*map(table_scopes.__getitem__, ops))
        # a kept variable that no operand mentions: g is flat across it
        for v in unobserved:
            if v not in present:
                ops.append(len(table_scopes))
                table_scopes.append((v,))
                fixed.append((net.var(v).card,))
        if not ops:
            ops.append(len(table_scopes))
            table_scopes.append(())
            fixed.append(())
        table = _contraction(ops, [table_scopes[i] for i in ops], unobserved)
        shape = tuple(net.var(v).card for v in keep)
        planned.append(_TreeQuery(table, keep, shape))
    return _TreePlan(
        elim.width, tuple(holder), tuple(parent), tuple(sends), {}, tuple(planned),
        tuple(fixed),
    )


class Jointree:
    """A Shenoy–Shafer jointree over a network and its evidence, answering
    a fixed list of queries (Shenoy & Shafer 1990; Darwiche, *Modeling and
    Reasoning with Bayesian Networks*, 2009, ch. 7).

    Query j, a pair (without, keep), asks for the table that ``record(net,
    ev, without, keep)`` computes: Pr(e) with the CPTs of ``without`` left
    out, summed down to the variables ``keep``, whose axes come in
    that order with their full cardinalities (zero off an observed one's
    state).  Each CPT may be left out once at most, over all the queries.

    The tree's structure (``_TreePlan``) depends on ``net.layout()``, the
    observed variables and the queries, so it is kept as ``record``'s is
    (``_structure``).  It comes from one min-fill ``_order`` over the inputs
    plus one pseudo-scope per query (its unobserved kept variables and its
    left-out inputs' variables), checked against the width cap before any
    table is read: a clique per eliminated variable, holding the variable
    and its neighbours at its elimination, joined to the clique of the
    first of those neighbours to go; the trees of a forest are joined in a
    chain over empty separators.  Each input sits in the clique of its
    first eliminated variable, except that a query's left-out inputs sit in
    its home, the clique of its pseudo-scope's first variable.

    Every directed message is the product of its clique's inputs and of
    the messages into that clique from its other neighbours, summed down to
    the separator: one einsum (``_Contraction``) whose subscripts are fixed
    with the structure.  A message is kept until ``set_input`` changes an
    input that it depends on: writing an input forgets the messages leaving
    its clique, once for any number of writes into one clique between two
    reads.  ``table(j)`` sends the forgotten messages
    into query j's home and contracts the home's other inputs with every
    message into it.  No step divides, so the tables stay exact at zero
    parameters.  ``sent`` counts the messages computed.

    Each tree builds its own ``inputs`` (``_factors``) and ``cpt_inputs``,
    as a ``Program`` does.  ``bound`` holds the input tables, read off
    ``net`` (``_bind``) once the width is checked, then the messages (None
    where forgotten), then the constant tables.
    """

    def __init__(self, net: Network, ev: Evidence, queries, width_cap=None):
        ev_index = _indexed(net, ev)
        self.inputs = inputs = tuple(_factors(net, ev_index))
        self.cpt_inputs = cpt_inputs = {inp.cpt: i for i, inp in enumerate(inputs)}
        # a kept structure's queries were checked when it was planned
        queries = tuple((tuple(without), tuple(keep)) for without, keep in queries)
        key = ("tree", net.layout(), frozenset(ev_index), queries)
        self._plan = plan = _structure(
            key,
            lambda: _plan_tree(net, inputs, ev_index, queries, cpt_inputs, width_cap),
            width_cap=width_cap,
        )
        self.width = plan.width
        # where a kept variable is observed, the index that places a
        # query's result in a table of zeros
        self._takes = [
            tuple(ev_index.get(v, slice(None)) for v in q.keep)
            if not ev_index.keys().isdisjoint(q.keep) else None
            for q in plan.queries
        ]
        self.sent = 0
        # the clique the last write forgot the leaving messages of, until a read
        self._forgot = None
        messages = [None] * (len(plan.sends) - len(inputs))
        self.bound = _bind(inputs, net) + messages + [np.ones(s) for s in plan.fixed]

    def set_input(self, name: str, table: np.ndarray) -> None:
        """Make ``table`` the input of the CPT of ``name``, as the tree
        reads it: the CPT's table sliced by the evidence, in the input's
        ``reduced`` shape (an observed child's is its observed state's
        column sliced by its observed parents).  Forgets the messages that
        depend on it: those leaving its input's clique, unless the last
        write, with no read since, forgot them.  The plan's first write
        into a clique finds them (``_leaving``) and keeps them for every
        later one, by any tree of the plan."""
        i = self.cpt_inputs[name]
        if table.shape != self.inputs[i].reduced:
            raise ModelError(
                f"input for {name!r} has shape {table.shape}; "
                f"the tree reads {self.inputs[i].reduced}"
            )
        plan, bound = self._plan, self.bound
        bound[i] = table
        c = plan.holder[i]
        if c == self._forgot:
            return
        self._forgot = c
        stale = plan.stale.get(c)
        if stale is None:
            messages = range(len(self.inputs), len(plan.sends))
            stale = plan.stale[c] = _leaving(plan.sends, messages, _below(plan.parent, c))
        for t in stale:
            bound[t] = None

    def table(self, j: int) -> np.ndarray:
        """Query j's table at the current inputs.  A result with an
        infinite or NaN entry raises "numerical overflow in factor
        product", as ``replay``'s does."""
        q = self._plan.queries[j]
        bound, sends = self.bound, self._plan.sends
        self._forgot = None
        # the forgotten messages the table reads, and those they are
        # computed from (a kept message's are all kept), each listed after
        # the message that reads it, so sent in reverse
        todo = [t for t in q.table.ids if bound[t] is None]
        for t in todo:
            for i in sends[t].ids:
                if bound[i] is None:
                    todo.append(i)
        for t in reversed(todo):
            bound[t] = _contract(sends[t], bound)
        self.sent += len(todo)
        g = _contract(q.table, bound)
        take = self._takes[j]
        if take is not None:
            full = np.zeros(q.shape)
            full[take] = g
            g = full
        # g is nonnegative, so its maximum is finite unless an entry is not
        if not math.isfinite(_max(g, None)):
            raise ModelError("numerical overflow in factor product")
        return g


@dataclass(frozen=True, eq=False)
class Adjoints:
    """Pr(e) on ``net`` under the evidence ``ev_index`` (variable name to
    state index), and the derivative tables of one pass (``derivatives``):
    ``tables[X]`` holds dPr(e)/d(entry) for every entry of the CPT of X,
    shaped like the CPT table and zero off the evidence (entries that
    disagree with it do not enter Pr(e)), for each X the pass answers."""

    net: Network
    ev_index: dict[str, int]
    pr_e: float
    tables: dict[str, np.ndarray]

    def cpt(self, name: str) -> np.ndarray:
        """The derivative table of the CPT of ``name``, checked by the Euler
        identity sum(theta * d) = Pr(e), as ``cpt_derivatives`` checks its
        own."""
        d = self.tables.get(name)
        if d is None:
            self.net.var(name)  # an unknown name raises "unknown variable"
            raise ModelError(f"this pass has no derivative table for {name!r}")
        _check_euler(self.net.cpt(name).shaped, d, self.pr_e, f"adjoint of {name!r}")
        return d

    def family(self, name: str) -> np.ndarray:
        """Pr(family of ``name``, e), shaped like its CPT table: the CPT
        times ``cpt(name)``, zero where the family disagrees with the
        evidence."""
        return self.net.cpt(name).shaped * self.cpt(name)

    def posterior(self, name: str) -> np.ndarray:
        """Pr(``name`` | e): ``family(name)`` summed down to ``name``, over
        Pr(e), or the indicator of the observed state.  Evidence of
        probability zero raises ``InconsistentEvidenceError``."""
        card = self.net.var(name).card
        if self.pr_e <= 0.0:
            raise InconsistentEvidenceError("evidence has zero probability")
        if name in self.ev_index:
            return np.eye(card)[self.ev_index[name]]
        return self.family(name).reshape(-1, card).sum(axis=0) / self.pr_e


def derivatives(net: Network, ev: Evidence, names, width_cap=None) -> Adjoints:
    """Pr(e) and the derivative table of the CPT of each of ``names``, all
    read off one ``Jointree`` of (``net``, ``ev``) and kept without it.

    The tree's queries are Pr(e), ``((), ())``, and per name X ``((X,),
    family of X)``: Pr(e) with X's CPT left out, over X's family, which is
    dPr(e)/d(entry) for every entry of that CPT (Pr(e) is multilinear in
    the CPT entries; Darwiche, "A differential approach to inference in
    Bayesian networks", JACM 2003).  No step divides, so the tables stay
    exact at zero parameters.  A family is already the scope of its CPT, so
    the queries add nothing to the tree's order: its width is
    ``record(net, ev)``'s, checked against ``width_cap`` before any table
    is read.
    """
    names = _distinct(names, "named more than once")
    family = {child: scope for child, scope, _ in net.layout()}
    for x in names:
        if x not in family:
            raise ModelError(f"unknown variable {x!r}")
    queries = [((), ())] + [((x,), family[x]) for x in names]
    tree = Jointree(net, ev, queries, width_cap)
    pr_e = float(tree.table(0))
    tables = {x: tree.table(j) for j, x in enumerate(names, 1)}
    return Adjoints(net, _indexed(net, ev), pr_e, tables)


def _full_order(net: Network, last) -> EliminationOrder:
    """Greedy min-fill order of every variable of ``net``, those in ``last``
    after all the others, kept per (layout, ``last``) (``_structure``)."""
    last = frozenset(net.var(q).name for q in last)
    key = ("order", net.layout(), last)
    return _structure(key, lambda: _order(_factors(net, {}), net.decl_index, last=last))


def min_fill_order(net: Network) -> EliminationOrder:
    """Greedy min-fill order of every variable of ``net``."""
    return _full_order(net, ())


def constrained_order(net: Network, map_vars=()) -> EliminationOrder:
    """Full elimination order with ``map_vars`` forced last; its width is the
    constrained-treewidth estimate."""
    return _full_order(net, map_vars)


@dataclass(frozen=True, eq=False)
class EngineState:
    """Compiled (network, evidence) pair: the recorded Pr(e) program, which
    holds its input tables read off ``net``, and Pr(e) from them.

    Every query made through the state is recorded under ``width_cap``;
    ``deletion.recover_marginals`` makes its one derivative pass
    (``derivatives``) on the state's pair under it too.  Queries are
    read-only.
    """

    net: Network
    evidence: Evidence
    width_cap: int | None
    program: Program
    pr_e: float

    @property
    def width(self) -> int:
        return self.program.width


def compile(net: Network, ev: Evidence, width_cap: int = WIDTH_CAP_DEFAULT) -> EngineState:
    """Check the evidence against the network and compute Pr(e)."""
    program = record(net, ev, width_cap=width_cap)
    return EngineState(net, ev, width_cap, program, float(replay(program)[0]))


def posterior_marginal(st: EngineState, name: str) -> np.ndarray:
    """Normalized posterior over the states of one variable."""
    var = st.net.var(name)
    if st.pr_e <= 0.0:
        raise InconsistentEvidenceError("evidence has zero probability")
    if name in st.program.ev_index:
        return np.eye(var.card)[st.program.ev_index[name]]
    program = record(st.net, st.evidence, keep=(name,), width_cap=st.width_cap)
    table, _ = replay(program)
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
        table, _ = replay(program)
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
    d = replay(program)[0]
    _check_euler(cpt.shaped, d, st.pr_e, f"derivative table for {cpt.child.name!r}")
    return d


class _Refit(NamedTuple):
    """``derived_derivatives``' kept structure: the eliminations of Pr(e)
    and of each label's derivative table on a derived network, as
    ``record`` orders and buckets each, with a bucket they share kept once.

    Tables are ids: the inputs, then the distinct bucket results, each
    released after bucket ``drops[k]`` last reads it.  Input i is read per
    call from ``inputs[i]``: a CPT's table, the source network's if it
    declares the CPT, else the derived one's fixed table (``fixed``), with
    each axis that ``take`` names taken at that variable's observed state;
    or, with ``cpt`` None, ``table``, or the indicator of the observed
    state of its one variable if ``table`` is None.  ``pr_e`` and each of
    ``tables`` (label to left-out CPT, then the fields) give an output's
    final product, as a ``Program``'s do, and ``widths`` each elimination's
    induced width (Pr(e)'s under None)."""

    inputs: tuple[_Input, ...]
    fixed: dict[str, np.ndarray]
    buckets: tuple[_Bucket, ...]
    drops: tuple[tuple[int, ...], ...]
    pr_e: tuple
    tables: dict
    widths: dict
    width: int


def _record_refit(net, derive, ev_index, wrt, width_cap) -> _Refit:
    """``derived_derivatives``' miss path: derive the network, record its
    eliminations in call order, each ordered under ``width_cap``, and keep
    each distinct input and bucket once."""
    derived, names = derive(net)
    source = {child for child, _, _ in net.layout()}
    fixed = {}
    for cpt in derived.cpts():
        name = cpt.child.name
        if name not in source:
            fixed[name] = cpt.shaped
        elif cpt.shape != net.cpt(name).shape or not np.array_equal(
            cpt.table, net.cpt(name).table
        ):
            raise ModelError(f"derived CPT of {name!r} is not the source network's")
    labels = (None, *wrt)
    recordings = []
    for label in labels:
        without = () if label is None else (names[label],)
        keep = () if label is None else derived.cpt(names[label]).layout[1]
        inputs = _factors(derived, ev_index, without, keep)
        recordings.append((inputs, _record(derived, inputs, keep, (), width_cap)))
    ids: dict = {}  # an input's or a bucket's key -> its id
    kept_inputs, input_ids = [], []
    for inputs, _ in recordings:
        input_ids.append([])
        for inp in inputs:
            # the observed set is the key's, so the scope left after the
            # evidence slice tells a CPT's inputs apart
            key = (inp.cpt, inp.scope)
            if key not in ids:
                ids[key] = len(kept_inputs)
                if inp.take is not None:
                    scope = derived.cpt(inp.cpt).layout[1]
                    take = tuple(None if type(t) is slice else n for n, t in zip(scope, inp.take))
                    inp = inp._replace(take=take)
                elif inp.cpt is None and inp.scope[0] in ev_index:
                    inp = inp._replace(table=None)
                kept_inputs.append(inp)
            input_ids[-1].append(ids[key])
    buckets, last = [], {}
    finals, widths = [], {}
    for label, (_, recorded), local in zip(labels, recordings, input_ids):
        for b in recorded.buckets:
            steps = tuple((local[j], *fit) for j, *fit in b.steps)
            key = (local[b.first], steps, b.axis, b.shape)
            if key not in ids:
                ids[key] = len(kept_inputs) + len(buckets)
                for j in (local[b.first], *(j for j, *_ in steps)):
                    last[j] = len(buckets)
                buckets.append(b._replace(first=local[b.first], steps=steps))
            local.append(ids[key])
        finals.append((tuple((local[j], *fit) for j, *fit in recorded.final_steps),
                       recorded.perm, recorded.shape))
        widths[label] = recorded.width
    held = {j for steps, _, _ in finals for j, *_ in steps}
    drops = [[] for _ in buckets]
    for j, k in last.items():
        if j not in held:
            drops[k].append(j)
    return _Refit(
        tuple(kept_inputs), fixed, tuple(buckets), tuple(map(tuple, drops)), finals[0],
        {label: (names[label], *final) for label, final in zip(wrt, finals[1:])},
        widths, max(widths.values()),
    )


def derived_derivatives(net: Network, ev: Evidence, derive, wrt, width_cap=None):
    """Pr(e) and the derivative table of each of ``wrt``'s CPTs on a
    network derived from ``net``, as ``compile`` and ``cpt_derivatives`` on
    it give them, bit for bit, without deriving it on every call.

    ``derive(net)`` returns the derived network and a map from each label
    in ``wrt`` to the name of a CPT in it.  It must depend on ``net`` only
    through ``net.layout()``, give every variable of ``net`` its source CPT
    table (refused otherwise) and every variable it adds a fixed table.
    ``divergence.score_edges``' tie refit derives the all-edges
    augmentation, and its labels are edge indices.

    The eliminations (Pr(e), then one per label, each ordered and bucketed
    as ``record`` does) are recorded once per key (``derive``,
    ``net.layout()``, the observed variables, the set of labels) and kept
    (``_structure``), a bucket that two of them share once; only a miss
    calls ``derive``.  Each call checks every width against ``width_cap``,
    Pr(e)'s first and then ``wrt``'s in order, before any table is read,
    with ``record``'s message; reads each input once, a source CPT off
    ``net`` by name, so a kept structure never reads the tables of the
    network it was recorded on; and replays each distinct bucket once.
    Each output is checked for overflow as ``replay`` checks its result,
    and each derivative table by the Euler identity against this Pr(e), as
    ``cpt_derivatives`` checks its own.  Returns (Pr(e), the tables in
    ``wrt``'s order).
    """
    ev_index = _indexed(net, ev)
    wrt = tuple(wrt)
    key = ("refit", derive, net.layout(), frozenset(ev_index), frozenset(wrt))
    refit = _structure(key, lambda: _record_refit(net, derive, ev_index, wrt, width_cap))
    for label in (None, *wrt):
        _check_width(refit.widths[label], (), width_cap)

    def cpt_table(name):
        table = refit.fixed.get(name)
        return net.cpt(name).shaped if table is None else table

    tables = []
    for inp in refit.inputs:
        if inp.cpt is not None:
            table = cpt_table(inp.cpt)
            if inp.take is not None:
                take = tuple(slice(None) if n is None else ev_index[n] for n in inp.take)
                table = np.ascontiguousarray(table[take]).reshape(inp.reduced)
        elif inp.table is None:
            table = np.zeros(inp.reduced)
            table[ev_index[inp.scope[0]]] = 1.0
        else:
            table = inp.table
        tables.append(table)
    for b, drop in zip(refit.buckets, refit.drops):
        prod = _multiply(tables, tables[b.first], b.steps, release=False)
        for j in drop:
            tables[j] = None
        tables.append(_stored(_sum(prod, b.axis), b.shape))
    pr_e = float(_result(tables, *refit.pr_e, release=False))
    out = []
    for label in wrt:
        name, *final = refit.tables[label]
        d = _result(tables, *final, release=False)
        _check_euler(cpt_table(name), d, pr_e, f"derivative table for {name!r}")
        out.append(d)
    return pr_e, out


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
    value, traceback = replay(program)
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
