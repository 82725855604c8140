"""Discrete Bayesian networks, dense factor tables, and a brute-force joint oracle.

Index conventions (fixed so serialized tables are unambiguous):
  * CPT tables are flat, indexed lexicographically over (parent states, child
    state) with the child index varying fastest and the first listed parent
    most significant.
  * Factor tables are indexed lexicographically over their scope with the
    last scope variable varying fastest.
Both conventions coincide with C-order numpy arrays of shape
(card_1, ..., card_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ENUM_CAP_DEFAULT = 1 << 24

NETWORK_KINDS = ("original", "augmented", "approximate")


class ModelError(ValueError):
    """Invalid model construction or use."""


class CapacityError(ModelError):
    """A size guard (joint state space or induced width) was exceeded."""


class InconsistentEvidenceError(ModelError):
    """Query conditioned on evidence that has zero probability."""


class DegenerateUpdateError(ModelError):
    """An edge update produced an all-zero or non-finite parameter vector."""


@dataclass(frozen=True)
class Variable:
    """A finite discrete variable: a name plus an ordered tuple of state labels."""

    name: str
    states: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.name or any(c.isspace() for c in self.name):
            raise ModelError(f"bad variable name {self.name!r}")
        # duplicate labels are reported by validate_network, but an empty
        # state list cannot even be indexed
        if len(self.states) == 0:
            raise ModelError(f"variable {self.name!r} has no states")

    @property
    def card(self) -> int:
        return len(self.states)

    def index_of(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise ModelError(
                f"variable {self.name!r} has no state {state!r}"
            ) from None


class Cpt:
    """Conditional probability table for one child given an ordered parent list.

    The table is stored flat in the module-level index convention, read-only.
    Set with it are ``shape`` (the parents' cardinalities, then the
    child's), ``shaped``, the table viewed in that shape, and ``layout``,
    the CPT's entry in ``Network.layout()``, which networks that share the
    CPT share.
    """

    __slots__ = ("child", "parents", "table", "shape", "shaped", "layout")

    def __init__(self, child: Variable, parents: tuple[Variable, ...], table):
        parents = tuple(parents)
        arr = np.array(table, dtype=float).reshape(-1)
        shape = tuple(p.card for p in parents) + (child.card,)
        expected = math.prod(shape)
        if arr.size != expected:
            raise ModelError(
                f"cpt for {child.name!r}: table has {arr.size} entries, "
                f"expected {expected}"
            )
        names = [p.name for p in parents] + [child.name]
        if len(set(names)) != len(names):
            raise ModelError(f"cpt for {child.name!r}: repeated variable in scope")
        arr.setflags(write=False)
        self.child = child
        self.parents = parents
        self.table = arr
        self.shape = shape
        self.shaped = arr.reshape(shape)
        self.layout = (child.name, tuple(names), shape)

    def scope(self) -> tuple[Variable, ...]:
        return self.parents + (self.child,)

    def __eq__(self, other):
        return (
            isinstance(other, Cpt)
            and self.child == other.child
            and self.parents == other.parents
            and np.array_equal(self.table, other.table)
        )

    def __repr__(self):
        ps = " ".join(p.name for p in self.parents)
        return f"Cpt({self.child.name} | {ps})"


def equivalence_table(card: int) -> np.ndarray:
    """Exact 0/1 identity CPT table linking a clone to its source variable."""
    return np.eye(card).reshape(-1)


@dataclass(frozen=True)
class EdgeRecord:
    """Registry entry for one clone chain: parent -> clone -> child.

    ``sevid`` is the name of the observed soft-evidence child of ``parent``;
    it is None while the equivalence edge parent -> clone is still intact.
    """

    parent: str
    clone: str
    child: str
    sevid: str | None = None

    def key(self) -> tuple[str, str, str]:
        return (self.parent, self.clone, self.child)


class Evidence:
    """Immutable mapping from variable name to a single observed state label."""

    __slots__ = ("_assignments",)

    def __init__(self, assignments=None):
        items = dict(assignments or {})
        object.__setattr__(self, "_assignments", items)

    def __setattr__(self, name, value):
        raise AttributeError("Evidence is immutable")

    def __getitem__(self, name: str) -> str:
        return self._assignments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._assignments

    def __iter__(self):
        return iter(self._assignments)

    def __len__(self) -> int:
        return len(self._assignments)

    def __eq__(self, other):
        return isinstance(other, Evidence) and self._assignments == other._assignments

    def items(self):
        return self._assignments.items()

    def get(self, name, default=None):
        return self._assignments.get(name, default)

    def with_added(self, more) -> "Evidence":
        merged = dict(self._assignments)
        merged.update(dict(more))
        return Evidence(merged)

    def without(self, name: str) -> "Evidence":
        rest = {k: v for k, v in self._assignments.items() if k != name}
        return Evidence(rest)

    def validate(self, net: "Network") -> None:
        for name, state in self._assignments.items():
            var = net.var(name)
            var.index_of(state)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self._assignments.items())
        return f"Evidence({inner})"


class Layout(tuple):
    """``Network.layout()``: a tuple that computes its hash once, when it is
    built, since it keys every lookup of a network's kept structure."""

    def __new__(cls, entries):
        self = super().__new__(cls, entries)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


class Network:
    """A DAG of discrete variables with one CPT per variable.

    Immutable after construction.  ``kind`` tags the network's role in the
    approximation pipeline: "original", "augmented" (clone chains inserted),
    or "approximate" (equivalence edges cut, soft-evidence children added).
    ``clone_edges`` is the registry of clone chains; entries with a ``sevid``
    name correspond to deleted edges.  ``origin`` is, on an augmentation,
    the original network it augments (``deletion.augment``), and None on
    any other network; equality and serialization ignore it.
    """

    __slots__ = (
        "variables", "kind", "clone_edges", "origin", "_vars_by_name", "_cpts", "_index",
        "_layout",
    )

    def __init__(self, variables, cpts, kind: str = "original", clone_edges=(), origin=None):
        variables = tuple(variables)
        if kind not in NETWORK_KINDS:
            raise ModelError(f"unknown network kind {kind!r}")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ModelError("duplicate variable names in network")
        by_name = {v.name: v for v in variables}
        cpt_map: dict[str, Cpt] = {}
        for cpt in cpts:
            if cpt.child.name not in by_name:
                raise ModelError(f"cpt for unknown variable {cpt.child.name!r}")
            if by_name[cpt.child.name] != cpt.child:
                raise ModelError(
                    f"cpt child {cpt.child.name!r} disagrees with network variable"
                )
            for p in cpt.parents:
                if p.name not in by_name or by_name[p.name] != p:
                    raise ModelError(
                        f"cpt for {cpt.child.name!r}: unknown parent {p.name!r}"
                    )
            if cpt.child.name in cpt_map:
                raise ModelError(f"two cpts for variable {cpt.child.name!r}")
            cpt_map[cpt.child.name] = cpt
        missing = [n for n in names if n not in cpt_map]
        if missing:
            raise ModelError(f"variables without a cpt: {missing}")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "clone_edges", tuple(clone_edges))
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "_vars_by_name", by_name)
        object.__setattr__(self, "_cpts", cpt_map)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_layout", None)
        for rec in self.clone_edges:
            for n in (rec.parent, rec.clone, rec.child):
                if n not in by_name:
                    raise ModelError(f"registry names unknown variable {n!r}")
            if rec.sevid is not None and rec.sevid not in by_name:
                raise ModelError(f"registry names unknown variable {rec.sevid!r}")

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    def var(self, name: str) -> Variable:
        try:
            return self._vars_by_name[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def cpt(self, name: str) -> Cpt:
        self.var(name)
        return self._cpts[name]

    def cpts(self):
        return [self._cpts[v.name] for v in self.variables]

    def layout(self) -> Layout:
        """Per CPT, in declaration order: (child name, scope names, scope
        cardinalities), the scope being the parents and then the child, so
        the cardinalities are the CPT table's shape.  Built, and hashed, on
        first use."""
        if self._layout is None:
            object.__setattr__(self, "_layout", Layout(c.layout for c in self.cpts()))
        return self._layout

    def decl_index(self, name: str) -> int:
        return self._index[name]

    def parent_names(self, name: str) -> tuple[str, ...]:
        return tuple(p.name for p in self.cpt(name).parents)

    def edges(self) -> list[tuple[str, str]]:
        """All (parent, child) edges, children in declaration order."""
        out = []
        for v in self.variables:
            for p in self.cpt(v.name).parents:
                out.append((p.name, v.name))
        return out

    def children_map(self) -> dict[str, list[str]]:
        kids: dict[str, list[str]] = {v.name: [] for v in self.variables}
        for p, c in self.edges():
            kids[p].append(c)
        return kids

    def leaves(self) -> list[str]:
        kids = self.children_map()
        return [v.name for v in self.variables if not kids[v.name]]

    def roots(self) -> list[str]:
        return [v.name for v in self.variables if not self.cpt(v.name).parents]

    def _kahn(self) -> tuple[list[str], list[str]]:
        """Kahn's algorithm: the topological order of every variable it can
        place, and the rest (each on or downstream of a cycle) in
        declaration order."""
        indeg = {v.name: len(self.cpt(v.name).parents) for v in self.variables}
        kids = self.children_map()
        ready = [v.name for v in self.variables if indeg[v.name] == 0]
        out: list[str] = []
        while ready:
            n = ready.pop(0)
            out.append(n)
            for c in kids[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return out, [v.name for v in self.variables if indeg[v.name] > 0]

    def topo_order(self) -> list[str]:
        """Topological order of variable names; raises on a cycle."""
        out, rest = self._kahn()
        if rest:
            raise ModelError("network graph has a cycle")
        return out

    def joint_size(self) -> int:
        size = 1
        for v in self.variables:
            size *= v.card
        return size

    def auxiliary_names(self) -> set[str]:
        """Names of clone and soft-evidence variables from the registry."""
        aux: set[str] = set()
        for rec in self.clone_edges:
            aux.add(rec.clone)
            if rec.sevid is not None:
                aux.add(rec.sevid)
        return aux

    def original_names(self) -> list[str]:
        aux = self.auxiliary_names()
        return [v.name for v in self.variables if v.name not in aux]

    def replace_cpts(self, replacements: dict[str, Cpt]) -> "Network":
        """Functional update: a new network with some CPTs swapped out.  It
        records no ``origin``, which the new tables need not augment."""
        for name in replacements:
            self.var(name)
        new_cpts = [replacements.get(v.name, self._cpts[v.name]) for v in self.variables]
        return Network(self.variables, new_cpts, kind=self.kind, clone_edges=self.clone_edges)

    def __eq__(self, other):
        return (
            isinstance(other, Network)
            and self.variables == other.variables
            and self.kind == other.kind
            and self.clone_edges == other.clone_edges
            and all(self._cpts[v.name] == other._cpts[v.name] for v in self.variables)
        )

    def __repr__(self):
        return f"Network({len(self.variables)} vars, kind={self.kind})"


@dataclass(frozen=True)
class Violation:
    variable: str
    rule: str
    message: str


def validate_network(net: Network) -> list[Violation]:
    """Check all network and CPT invariants; violations are data, not failures."""
    out: list[Violation] = []
    sevids = {rec.sevid for rec in net.clone_edges if rec.sevid is not None}
    for v in net.variables:
        if len(set(v.states)) != len(v.states):
            out.append(Violation(v.name, "state-labels", "state labels not unique"))
        if v.name in sevids:
            if v.card != 2:
                out.append(Violation(v.name, "cardinality", "soft-evidence variable must be binary"))
        elif v.card < 2:
            out.append(Violation(v.name, "cardinality", f"cardinality {v.card} < 2"))
    for cpt in net.cpts():
        t = cpt.table
        if not np.all(np.isfinite(t)):
            out.append(Violation(cpt.child.name, "range", "non-finite cpt entry"))
            continue
        if np.any(t < 0.0) or np.any(t > 1.0):
            out.append(Violation(cpt.child.name, "range", "cpt entry outside [0, 1]"))
        rows = cpt.shaped.reshape(-1, cpt.child.card)
        sums = rows.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > 1e-9)[0]
        for i in bad[:4]:
            out.append(
                Violation(
                    cpt.child.name,
                    "normalization",
                    f"row {int(i)} sums to {sums[i]!r}",
                )
            )
    cyclic = net._kahn()[1]
    if cyclic:
        out.append(Violation(cyclic[0], "acyclicity", "graph of child<-parents edges has a cycle"))
    for rec in net.clone_edges:
        if rec.sevid is None:
            cpt = net.cpt(rec.clone)
            ok = (
                len(cpt.parents) == 1
                and cpt.parents[0].name == rec.parent
                and np.array_equal(cpt.table, equivalence_table(cpt.child.card))
            )
            if not ok:
                out.append(
                    Violation(rec.clone, "equivalence-cpt", "clone cpt is not the exact 0/1 identity of its parent")
                )
    if net.kind == "original" and net.clone_edges:
        out.append(Violation("", "registry", "original network carries a clone registry"))
    return out


class Factor:
    """Dense nonnegative real table over an ordered variable scope."""

    __slots__ = ("scope", "values")

    def __init__(self, scope, values, _trusted: bool = False):
        scope = tuple(scope)
        names = [v.name for v in scope]
        if len(set(names)) != len(names):
            raise ModelError("factor scope repeats a variable")
        shape = tuple(v.card for v in scope)
        if _trusted:
            arr = np.asarray(values, dtype=float).reshape(shape)
        else:
            arr = np.array(values, dtype=float).reshape(shape)
            if not np.all(np.isfinite(arr)):
                raise ModelError("factor values must be finite")
            if np.any(arr < 0):
                raise ModelError("factor values must be nonnegative")
        arr.setflags(write=False)
        self.scope = scope
        self.values = arr

    @staticmethod
    def unit() -> "Factor":
        return Factor((), np.float64(1.0).reshape(()))

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.scope)

    def axis_of(self, name: str) -> int:
        for i, v in enumerate(self.scope):
            if v.name == name:
                return i
        raise ModelError(f"{name!r} not in factor scope")

    def total(self) -> float:
        return float(self.values.sum())

    def multiply(self, other: "Factor") -> "Factor":
        mine = {v.name: v for v in self.scope}
        for v in other.scope:
            if v.name in mine and mine[v.name] != v:
                raise ModelError(f"inconsistent definitions of variable {v.name!r}")
        scope = self.scope + tuple(v for v in other.scope if v.name not in mine)
        vals = _aligned(self, scope) * _aligned(other, scope)
        if not np.all(np.isfinite(vals)):
            raise ModelError("numerical overflow in factor product")
        return Factor(scope, vals, _trusted=True)

    def marginalize_to(self, keep) -> "Factor":
        """Sum out every scope variable not named in ``keep``."""
        keep = set(keep)
        unknown = keep - set(self.names())
        if unknown:
            raise ModelError(f"cannot keep variables outside scope: {sorted(unknown)}")
        axes = tuple(i for i, v in enumerate(self.scope) if v.name not in keep)
        vals = self.values.sum(axis=axes) if axes else self.values.copy()
        scope = tuple(v for v in self.scope if v.name in keep)
        return Factor(scope, np.ascontiguousarray(vals), _trusted=True)

    def maximize_to(self, keep) -> "Factor":
        keep = set(keep)
        axes = tuple(i for i, v in enumerate(self.scope) if v.name not in keep)
        vals = self.values.max(axis=axes) if axes else self.values.copy()
        scope = tuple(v for v in self.scope if v.name in keep)
        return Factor(scope, np.ascontiguousarray(vals), _trusted=True)

    def reduce(self, name: str, state_index: int) -> "Factor":
        """Slice one variable at a fixed state; the variable leaves the scope."""
        ax = self.axis_of(name)
        vals = np.ascontiguousarray(np.take(self.values, state_index, axis=ax))
        scope = self.scope[:ax] + self.scope[ax + 1 :]
        return Factor(scope, vals, _trusted=True)

    def reorder(self, names_in_order) -> "Factor":
        order = [self.axis_of(n) for n in names_in_order]
        if sorted(order) != list(range(len(self.scope))):
            raise ModelError("reorder must name the full scope")
        vals = np.ascontiguousarray(self.values.transpose(order))
        scope = tuple(self.scope[i] for i in order)
        return Factor(scope, vals, _trusted=True)

    def normalize(self) -> "Factor":
        z = self.values.sum()
        if z <= 0:
            raise InconsistentEvidenceError("cannot normalize a zero factor")
        vals = self.values / z
        return Factor(self.scope, vals, _trusted=True)

    def value_at(self, assignment: dict[str, int]) -> float:
        idx = tuple(assignment[v.name] for v in self.scope)
        return float(self.values[idx])

    def __eq__(self, other):
        return (
            isinstance(other, Factor)
            and self.scope == other.scope
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self):
        return f"Factor({', '.join(self.names())})"


def _aligned(f: Factor, scope: tuple[Variable, ...]) -> np.ndarray:
    """View of f.values transposed/expanded to broadcast over ``scope``."""
    names = [v.name for v in scope]
    src = list(f.names())
    order = sorted(range(len(src)), key=lambda i: names.index(src[i]))
    arr = f.values.transpose(order)
    have = set(src)
    shape = tuple(v.card if v.name in have else 1 for v in scope)
    return arr.reshape(shape)


def enumerate_joint(net: Network, ev: Evidence, cap: int = ENUM_CAP_DEFAULT) -> Factor:
    """Materialize the unnormalized joint over all unobserved variables.

    The entry for a world w is the product of the CPT entries compatible with
    (w, ev); summing all entries gives Pr(ev).  This is the oracle every
    engine query is tested against: it never eliminates variables early and
    uses no factor algebra.  A joint of more than ``cap`` entries (the
    product of the unobserved cardinalities) is refused before anything is
    allocated.
    """
    ev.validate(net)
    hidden = [v for v in net.variables if v.name not in ev]
    shape = tuple(v.card for v in hidden)
    size = math.prod(shape)
    if size > cap:
        raise CapacityError(
            f"joint state space has {size} entries, exceeding the cap of {cap}"
        )
    axis = {v.name: i for i, v in enumerate(hidden)}
    fixed = {name: net.var(name).index_of(state) for name, state in ev.items()}
    grids = np.indices(shape, sparse=True) if shape else ()
    joint = np.ones(shape, dtype=float)
    for cpt in net.cpts():
        idx = []
        for v in cpt.scope():
            if v.name in fixed:
                idx.append(fixed[v.name])
            else:
                idx.append(grids[axis[v.name]])
        gathered = cpt.shaped[tuple(idx)]
        joint = joint * gathered
    return Factor(tuple(hidden), np.broadcast_to(joint, shape).copy(), _trusted=True)
