"""Network transformations for edge deletion.

An edge U -> X is never removed outright.  It is first replaced by a chain
U -> U' -> X through a clone U' carrying an exact 0/1 equivalence CPT
(augmentation; the distribution over the source variables is unchanged).
Cutting the equivalence edge U -> U' then turns U' into a root with a prior
``pm`` and hangs an observed binary soft-evidence child S' off U whose
positive row is ``se`` (deletion).  Conditioning is always on the augmented
evidence: the source evidence plus every S' observed positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .model import (
    Cpt,
    EdgeRecord,
    Evidence,
    ModelError,
    Network,
    Variable,
    equivalence_table,
)

SE_STATES = ("yes", "no")
SE_OBSERVED = "yes"


@dataclass(frozen=True)
class EdgeParams:
    """Per-deleted-edge parameters: clone prior ``pm``, soft-evidence row ``se``.

    ``pm`` is a distribution over the clone's states, kept as given: it must
    be nonnegative and sum to 1 within 1e-9.  ``se`` holds the probability
    of the observed soft-evidence state for each parent state.  Only the
    ratios of ``se`` matter once the soft evidence is conditioned on, so
    ``se`` is clamped into [0, 1] to stay a valid CPT row, and must keep a
    positive entry.  Both are frozen flat float copies.
    """

    pm: np.ndarray
    se: np.ndarray

    def __post_init__(self):
        pm = np.array(self.pm, dtype=float).reshape(-1)
        se = np.array(self.se, dtype=float).reshape(-1)
        if pm.size == 0 or se.size == 0:
            raise ModelError("edge parameters must be non-empty")
        # the entries are checked as Python floats, which is cheaper than
        # numpy on vectors of a few entries
        pms, ses = pm.tolist(), se.tolist()
        if not all(map(math.isfinite, pms + ses)):
            raise ModelError("edge parameters must be finite")
        if min(pms) < 0:
            raise ModelError("pm entries must be nonnegative")
        s = pm.sum()
        if abs(s - 1.0) > 1e-9:
            raise ModelError(f"pm must sum to 1 (got {float(s)!r})")
        # clipping leaves entries in (0, 1] as they are, bit for bit
        if not all(0.0 < x <= 1.0 for x in ses):
            se = np.clip(se, 0.0, 1.0)
            if not np.any(se > 0):
                raise ModelError("se must not be all zero")
        pm.setflags(write=False)
        se.setflags(write=False)
        object.__setattr__(self, "pm", pm)
        object.__setattr__(self, "se", se)

    @staticmethod
    def uniform(card: int) -> "EdgeParams":
        return EdgeParams(np.full(card, 1.0 / card), np.full(card, 0.5))

    def __eq__(self, other):
        return (
            isinstance(other, EdgeParams)
            and np.array_equal(self.pm, other.pm)
            and np.array_equal(self.se, other.se)
        )


@dataclass(frozen=True)
class DeletionPlan:
    """An ordered set of equivalence edges to cut, with their parameters."""

    edges: tuple[EdgeRecord, ...]
    params: tuple[EdgeParams, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.params):
            raise ModelError("plan edges and params are misaligned")
        keys = [e.key() for e in self.edges]
        if len(set(keys)) != len(keys):
            raise ModelError("plan repeats a deleted edge")

    def __len__(self) -> int:
        return len(self.edges)

    def with_params(self, index: int, params: EdgeParams) -> "DeletionPlan":
        new = list(self.params)
        new[index] = params
        return DeletionPlan(self.edges, tuple(new))

    def with_all_params(self, params_list) -> "DeletionPlan":
        return DeletionPlan(self.edges, tuple(params_list))

    @staticmethod
    def uniform(aug: Network, records=None) -> "DeletionPlan":
        """Plan covering ``records`` (default: every equivalence edge) with
        uniform parameters."""
        if records is None:
            records = [r for r in aug.clone_edges if r.sevid is None]
        params = tuple(EdgeParams.uniform(aug.var(r.clone).card) for r in records)
        return DeletionPlan(tuple(records), params)


def augment(net: Network, edges) -> Network:
    """Replace each edge U -> X in ``edges`` with a chain U -> U' -> X.

    The result is distribution-equivalent to ``net`` over the source
    variables.  With no edges the input network is returned unchanged.
    """
    edges = [tuple(e) for e in edges]
    if not edges:
        return net
    if net.kind != "original":
        raise ModelError("augment expects an original network")
    if len(set(edges)) != len(edges):
        raise ModelError("duplicate edge in augmentation request")
    present = set(net.edges())
    for e in edges:
        if e not in present:
            raise ModelError(f"edge {e[0]} -> {e[1]} is not in the network")

    variables = list(net.variables)
    cpt_map = {v.name: net.cpt(v.name) for v in net.variables}
    records = []
    taken = {v.name for v in net.variables}
    equivalence: dict[int, np.ndarray] = {}
    # per child, its parents with each deleted one's clone in its place
    rewired: dict[str, list[Variable]] = {}
    for k, (u, x) in enumerate(edges):
        clone_name = f"{u}__clone{k}"
        if clone_name in taken:
            raise ModelError(f"clone name {clone_name!r} collides with a variable")
        taken.add(clone_name)
        uvar = net.var(u)
        clone = Variable(clone_name, uvar.states)
        variables.append(clone)
        if uvar.card not in equivalence:
            equivalence[uvar.card] = equivalence_table(uvar.card)
        cpt_map[clone_name] = Cpt(clone, (uvar,), equivalence[uvar.card])
        parents = rewired.setdefault(x, list(cpt_map[x].parents))
        parents[[p.name for p in parents].index(u)] = clone
        records.append(EdgeRecord(parent=u, clone=clone_name, child=x))
    for x, parents in rewired.items():
        cpt_map[x] = Cpt(cpt_map[x].child, tuple(parents), cpt_map[x].table)
    return Network(
        variables,
        [cpt_map[v.name] for v in variables],
        kind="augmented",
        clone_edges=tuple(records),
    )


def se_table(se) -> np.ndarray:
    """The soft-evidence CPT table with positive row ``se``, shaped (parent
    state, S' state): the observed state's column is ``se``."""
    return np.column_stack([se, 1.0 - se])


def _edge_cpts(clone: Variable, parent: Variable, sevid: Variable, params: EdgeParams):
    """The clone prior and the soft-evidence CPT that encode ``params``."""
    return Cpt(clone, (), params.pm), Cpt(sevid, (parent,), se_table(params.se))


def delete_edges(net: Network, plan: DeletionPlan) -> Network:
    """Cut the plan's equivalence edges, installing the plan's parameters.

    Each clone becomes a root with prior ``pm`` and the parent gains an
    observed binary soft-evidence child with positive row ``se``.  With an
    empty plan the input network is returned unchanged.
    """
    if len(plan) == 0:
        return net
    equivalence = {r.key(): r for r in net.clone_edges if r.sevid is None}
    for rec in plan.edges:
        if rec.key() not in equivalence:
            raise ModelError(
                f"{rec.parent} -> {rec.clone} is not an equivalence edge of this network"
            )

    variables = list(net.variables)
    cpt_map = {v.name: net.cpt(v.name) for v in net.variables}
    taken = {v.name for v in net.variables}
    new_records: dict[tuple[str, str, str], EdgeRecord] = {}
    for k, (rec, params) in enumerate(zip(plan.edges, plan.params)):
        clone = net.var(rec.clone)
        parent = net.var(rec.parent)
        if params.pm.size != clone.card or params.se.size != parent.card:
            raise ModelError(
                f"parameters for {rec.parent} -> {rec.clone} have the wrong length"
            )
        sevid_name = f"{rec.parent}__se{k}"
        if sevid_name in taken:
            raise ModelError(f"soft-evidence name {sevid_name!r} collides with a variable")
        taken.add(sevid_name)
        sevid = Variable(sevid_name, SE_STATES)
        variables.append(sevid)
        cpt_map[rec.clone], cpt_map[sevid_name] = _edge_cpts(clone, parent, sevid, params)
        new_records[rec.key()] = EdgeRecord(
            parent=rec.parent, clone=rec.clone, child=rec.child, sevid=sevid_name
        )
    registry = tuple(new_records.get(r.key(), r) for r in net.clone_edges)
    return Network(
        variables,
        [cpt_map[v.name] for v in variables],
        kind="approximate",
        clone_edges=registry,
    )


def deleted_records(nprime: Network, plan: DeletionPlan) -> list[EdgeRecord]:
    """The plan's edges as they appear in N' (with soft-evidence names bound)."""
    by_key = {r.key(): r for r in nprime.clone_edges}
    out = []
    for rec in plan.edges:
        bound = by_key.get(rec.key())
        if bound is None or bound.sevid is None:
            raise ModelError(
                f"plan edge {rec.parent} -> {rec.clone} was not deleted in this network"
            )
        out.append(bound)
    return out


def augmented_evidence(nprime: Network, ev: Evidence) -> Evidence:
    """The source evidence plus every soft-evidence variable observed positive."""
    extra = {
        rec.sevid: SE_OBSERVED for rec in nprime.clone_edges if rec.sevid is not None
    }
    clash = [n for n in extra if n in ev]
    if clash:
        raise ModelError(f"evidence already assigns soft-evidence variables: {clash}")
    return ev.with_added(extra)


def apply_params(nprime: Network, plan: DeletionPlan) -> Network:
    """New network with the plan's current pm/se written into the CPTs."""
    replacements: dict[str, Cpt] = {}
    for rec, params in zip(deleted_records(nprime, plan), plan.params):
        replacements[rec.clone], replacements[rec.sevid] = _edge_cpts(
            nprime.var(rec.clone), nprime.var(rec.parent), nprime.var(rec.sevid), params
        )
    return nprime.replace_cpts(replacements)


def approximate_network(net: Network, edges, params=None):
    """Augment ``net`` along ``edges`` and cut every introduced equivalence edge.

    Returns (augmented, approximate, plan).  ``params`` defaults to uniform.
    """
    aug = augment(net, edges)
    records = [r for r in aug.clone_edges if r.sevid is None]
    if params is None:
        plan = DeletionPlan.uniform(aug, records)
    else:
        plan = DeletionPlan(tuple(records), tuple(params))
    nprime = delete_edges(aug, plan)
    return aug, nprime, plan


def recover_marginals(nprime: Network, plan: DeletionPlan, st) -> dict[str, np.ndarray]:
    """Posterior marginals for every source variable of N' (clones and
    soft-evidence variables excluded), all read off one derivative pass
    (``engine.derivatives``) on the network and evidence ``st`` was compiled
    on, under its width cap, that answers those variables' CPTs.

    ``st`` must be compiled (``engine.compile``) on this network, possibly
    with different edge parameters applied (structure and registry must
    match); the marginals are those of the state's parameters.  Neither
    ``plan`` nor the state's Pr(e) is read, only its network, evidence and
    width cap.
    """
    structurally_same = st.net is nprime or (
        st.net.variables == nprime.variables
        and st.net.clone_edges == nprime.clone_edges
    )
    if not structurally_same:
        raise ModelError("engine state was not compiled on this network")
    names = nprime.original_names()
    grads = engine.derivatives(st.net, st.evidence, names, st.width_cap)
    return {name: grads.posterior(name) for name in names}
