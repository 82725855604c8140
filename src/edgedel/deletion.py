"""Network transformations for edge deletion.

Deleting an edge U -> X gives X a clone parent U' in U's place, a root with
a prior ``pm``, and hangs an observed binary soft-evidence child S' off U
whose positive row is ``se``.  ``approximate_network`` builds N', the source
network with its edges so deleted, in one ``Network``, and returns the
source network itself in its first slot: the source is every reference
(``divergence.source_pass``).  Conditioning is always on the augmented
evidence: the source evidence plus every S' observed positive.

``augment`` replaces an edge with a chain U -> U' -> X through a clone
carrying an exact 0/1 equivalence CPT (the distribution over the source
variables is unchanged); only ``score_edges``' tie refit builds one.  It
shares its rewiring with ``approximate_network`` (``_clone_chains``), and
``netio.parse_plan`` its rule for the edges a request may delete
(``check_deletable``).  A plan's vectors reach N' (and ``parametrize.run``)
through one length check, ``_checked_vectors``, and N''s source marginals
through one derivative pass, ``_source_marginals``.
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
    def uniform(net: Network, records) -> "DeletionPlan":
        """Plan covering ``records``, clone chains of ``net``, with uniform
        parameters."""
        params = tuple(EdgeParams.uniform(net.var(r.clone).card) for r in records)
        return DeletionPlan(tuple(records), params)


def augment(net: Network, edges) -> Network:
    """Replace each edge U -> X in ``edges`` with a chain U -> U' -> X, the
    clone U' reading U through the exact 0/1 equivalence CPT.

    The result is distribution-equivalent to ``net`` over the source
    variables.  With no edges the input network is returned unchanged; a
    network of another kind than original, an edge ``net`` lacks, or one
    given twice is refused (``_clone_chains``).
    """
    clones, records, cpts = _clone_chains(net, edges)
    if not clones:
        return net
    for clone, rec in zip(clones, records):
        cpts[clone.name] = Cpt(clone, (net.var(rec.parent),), equivalence_table(clone.card))
    return _derive(net, "augmented", clones, cpts, records)


def check_deletable(net: Network, edges) -> None:
    """Refuse, as a ``ModelError`` whose ``at`` is ("edge", its position),
    the first of the (parent, child) ``edges`` that ``net`` lacks or that
    an earlier position already gives."""
    present, seen = set(net.edges()), set()
    for i, e in enumerate(edges):
        if e not in present:
            raise ModelError(f"edge {e[0]} -> {e[1]} is not in the network", ("edge", i))
        if e in seen:
            raise ModelError(f"edge {e[0]} -> {e[1]} is listed twice", ("edge", i))
        seen.add(e)


def _clone_chains(net: Network, edges):
    """The rewiring that ``augment`` and ``approximate_network`` share: for
    each edge U -> X of ``edges`` at position k, the clone ``U__clone{k}``
    (U's states) and its registry record, and, by child name, each child's
    CPT reading its deleted parents' clones in their places.

    ``net`` must be an original network, and ``check_deletable`` must pass.
    """
    if net.kind != "original":
        raise ModelError(f"expected an original network, got kind {net.kind!r}")
    edges = [tuple(e) for e in edges]
    check_deletable(net, edges)
    clones, records = [], []
    # per child, its parents with each deleted one's clone in its place
    rewired: dict[str, list[Variable]] = {}
    for k, (u, x) in enumerate(edges):
        clone = Variable(f"{u}__clone{k}", net.var(u).states)
        clones.append(clone)
        parents = rewired.setdefault(x, list(net.cpt(x).parents))
        parents[[p.name for p in parents].index(u)] = clone
        records.append(EdgeRecord(parent=u, clone=clone.name, child=x))
    cpts = {x: Cpt(net.cpt(x).child, tuple(ps), net.cpt(x).table) for x, ps in rewired.items()}
    return clones, records, cpts


def _derive(net: Network, kind: str, added, cpts, registry) -> Network:
    """``net``'s variables, then the variables ``added``, each with its CPT
    in ``cpts`` if it is there, as one ``Network`` of ``kind`` with
    clone-edge registry ``registry``."""
    variables = [*net.variables, *added]
    tables = [cpts[v.name] if v.name in cpts else net.cpt(v.name) for v in variables]
    return Network(variables, tables, kind=kind, clone_edges=registry)


def se_table(se) -> np.ndarray:
    """The soft-evidence CPT table with positive row ``se``, shaped (parent
    state, S' state): the observed state's column is ``se``."""
    return np.column_stack([se, 1.0 - se])


def _checked_vectors(var, rec: EdgeRecord, params: EdgeParams):
    """``params``' (pm, se), whose lengths must be the cardinalities of
    ``rec``'s clone and parent, each the ``Variable`` that ``var`` gives for
    its name (``Network.var``); a wrong length raises ``ModelError`` naming
    the plan edge (parent -> child), not the clone."""
    if params.pm.size != var(rec.clone).card or params.se.size != var(rec.parent).card:
        raise ModelError(f"parameters for {rec.parent} -> {rec.child} have the wrong length")
    return params.pm, params.se


def _edge_cpts(var, rec: EdgeRecord, sevid: Variable, params: EdgeParams):
    """The clone prior and the soft-evidence CPT that encode ``params`` on
    ``rec``'s edge, its variables looked up by ``var`` (``_checked_vectors``)."""
    pm, se = _checked_vectors(var, rec, params)
    return Cpt(var(rec.clone), (), pm), Cpt(sevid, (var(rec.parent),), se_table(se))


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
    """New network with the plan's current pm/se written into the CPTs; a
    vector of the wrong length names the plan edge (``_checked_vectors``)."""
    replacements: dict[str, Cpt] = {}
    for rec, params in zip(deleted_records(nprime, plan), plan.params):
        replacements[rec.clone], replacements[rec.sevid] = _edge_cpts(
            nprime.var, rec, nprime.var(rec.sevid), params
        )
    return nprime.replace_cpts(replacements)


def approximate_network(net: Network, edges, params=None):
    """N', the original network ``net`` with ``edges`` deleted, built in one
    ``Network``.

    Each edge U -> X at position k is cut: X reads the clone root
    ``U__clone{k}`` with prior ``pm`` in U's place (``_clone_chains``), and
    U gains the observed binary soft-evidence child ``U__se{k}`` with
    positive row ``se``.  ``params``, one ``EdgeParams`` per edge, defaults
    to uniform; a vector of the wrong length names its edge
    (``_checked_vectors``).

    Returns (``net``, N', plan).  The first slot is the source network
    itself, the one reference of every fit and divergence
    (``divergence.source_pass``).  The plan's records name each clone chain
    with no soft-evidence variable (N''s registry binds them,
    ``deleted_records``).  With no edges N' is ``net``.
    """
    clones, records, cpts = _clone_chains(net, edges)
    if params is None:
        params = [EdgeParams.uniform(clone.card) for clone in clones]
    plan = DeletionPlan(tuple(records), tuple(params))
    if not clones:
        return net, net, plan
    var = {v.name: v for v in (*net.variables, *clones)}.__getitem__
    sevids, registry = [], []
    for k, (rec, p) in enumerate(zip(records, plan.params)):
        sevid = Variable(f"{rec.parent}__se{k}", SE_STATES)
        sevids.append(sevid)
        cpts[rec.clone], cpts[sevid.name] = _edge_cpts(var, rec, sevid, p)
        registry.append(EdgeRecord(rec.parent, rec.clone, rec.child, sevid.name))
    return net, _derive(net, "approximate", [*clones, *sevids], cpts, registry), plan


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
    return _source_marginals(st.net, st.evidence, st.width_cap)


def _source_marginals(net: Network, ev: Evidence, width_cap) -> dict[str, np.ndarray]:
    """Pr(X | ``ev``) for every source variable X of ``net``, each read off
    the CPT derivative tables of one ``engine.derivatives`` pass that answers
    the source variables only."""
    names = net.original_names()
    grads = engine.derivatives(net, ev, names, width_cap)
    return {name: grads.posterior(name) for name in names}
