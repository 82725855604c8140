"""The fit's jointree against the programs and passes it replaced.

Each edge's table g over (parent, clone), read off ``engine.Jointree``, must
be the table that the edge's own program computes (``engine.record`` on the
same reduction with the edge's clone prior and soft-evidence CPT left out,
keeping (parent, clone), then ``replay``), at rel 1e-12, also after other
edges' vectors change; whole sequential fits must follow the path those
programs take, and whole simultaneous fits the path of one forward/backward
pass of Pr'(e') per sweep (``engine.adjoints``).
"""

import numpy as np
import pytest

import edgedel.parametrize as parametrize_module
from edgedel import (
    CapacityError,
    DeletionPlan,
    EdgeParams,
    Evidence,
    IterationConfig,
    ModelError,
    Network,
    Variable,
    approximate_network,
    augmented_evidence,
    deleted_records,
    engine,
    run,
)
from edgedel.deletion import apply_params, se_table
from edgedel.harness import grid_network, rank_edges
from edgedel.parametrize import _Fit

from conftest import random_cpt

REL = 1e-12


def mixed_network(rng, cards, n_vars=7, prefix="V"):
    """A random DAG whose variables draw their state counts from ``cards``."""
    variables, cpts = [], []
    for i in range(n_vars):
        card = int(rng.choice(cards))
        var = Variable(f"{prefix}{i}", tuple(f"s{j}" for j in range(card)))
        n_par = int(rng.integers(min(i, 1), min(i, 3) + 1))
        chosen = sorted(rng.choice(i, size=n_par, replace=False)) if n_par else []
        parents = tuple(variables[int(j)] for j in chosen)
        variables.append(var)
        cpts.append(random_cpt(var, parents, rng))
    return variables, cpts


def edge_case(seed, cards, k, observe_parent=False, hide_se=False, disconnected=False):
    """(augmented network, evidence, N', plan, evidence on N') for k random
    deleted edges of a random network, with random edge vectors installed in
    N'.  ``observe_parent`` observes the first edge's parent; ``hide_se``
    drops the last edge's soft evidence; ``disconnected`` makes the source
    network two unconnected parts."""
    rng = np.random.default_rng(seed)
    variables, cpts = mixed_network(rng, cards)
    if disconnected:
        more_vars, more_cpts = mixed_network(rng, cards, n_vars=4, prefix="W")
        variables, cpts = variables + more_vars, cpts + more_cpts
    net = Network(variables, cpts)
    edges = net.edges()
    take = [edges[int(i)] for i in rng.choice(len(edges), size=k, replace=False)]
    leaves = net.leaves()
    ev = {n: net.var(n).states[int(rng.integers(net.var(n).card))] for n in leaves[:2]}
    if observe_parent:
        parent = net.var(take[0][0])
        ev[parent.name] = parent.states[-1]
    aug, nprime, plan = approximate_network(net, take)
    plan = plan.with_all_params(random_params(nprime, plan, rng))
    ev = Evidence(ev)
    evp = augmented_evidence(nprime, ev)
    if hide_se:
        evp = evp.without(deleted_records(nprime, plan)[-1].sevid)
    return aug, ev, apply_params(nprime, plan), plan, evp


def random_params(nprime, plan, rng):
    out = []
    for rec in plan.edges:
        card = nprime.var(rec.clone).card
        out.append(EdgeParams(rng.dirichlet(np.ones(card)), rng.uniform(0.1, 0.9, card)))
    return out


def reference_table(nprime, evp, rec):
    """g from the edge's own program, bound to ``nprime``."""
    program = engine.record(
        engine.reduce(nprime, evp), (rec.clone, rec.sevid), (rec.parent, rec.clone)
    )
    return engine.replay(program, engine.bind(program, nprime))[0]


def assert_tables_match(tree, nprime, plan, evp):
    current = apply_params(nprime, plan)
    for j, rec in enumerate(deleted_records(nprime, plan)):
        want = reference_table(current, evp, rec)
        got = tree.table(j)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=REL, atol=0)
        # zero exactly where the program's table is zero (an observed parent)
        assert np.array_equal(got == 0, want == 0)


CASES = {
    "binary": dict(cards=(2,), k=3),
    "one-state": dict(cards=(1, 2), k=3),
    "three-state": dict(cards=(3,), k=3),
    "eight-state": dict(cards=(2, 8), k=2),
    "mixed": dict(cards=(1, 2, 3, 8), k=4),
    "observed-parent": dict(cards=(2, 3), k=3, observe_parent=True),
    "hidden-soft-evidence": dict(cards=(2, 3), k=3, hide_se=True),
    "disconnected": dict(cards=(2, 3), k=3, disconnected=True),
    "one-edge": dict(cards=(2, 3), k=1),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(CASES))
def test_tables_match_the_per_edge_programs(case, seed):
    _, _, nprime, plan, evp = edge_case(seed, **CASES[case])
    records = deleted_records(nprime, plan)
    queries = [((rec.clone, rec.sevid), (rec.parent, rec.clone)) for rec in records]
    tree = engine.Jointree(engine.reduce(nprime, evp), queries)
    assert_tables_match(tree, nprime, plan, evp)
    # new vectors for every other edge, one at a time: each write forgets
    # only the messages leaving its clique, and the tables still match
    rng = np.random.default_rng(seed + 100)
    for j, params in enumerate(random_params(nprime, plan, rng)):
        if j % 2:
            continue
        plan = plan.with_params(j, params)
        tree.set_cpt(records[j].clone, params.pm)
        tree.set_cpt(records[j].sevid, se_table(params.se))
        assert_tables_match(tree, nprime, plan, evp)


def test_observed_clone_keeps_its_state():
    _, _, nprime, plan, evp = edge_case(1, cards=(2, 3), k=2)
    rec = deleted_records(nprime, plan)[0]
    evp = evp.with_added({rec.clone: nprime.var(rec.clone).states[0]})
    query = ((rec.clone, rec.sevid), (rec.parent, rec.clone))
    tree = engine.Jointree(engine.reduce(nprime, evp), [query])
    want = reference_table(nprime, evp, rec)
    np.testing.assert_allclose(tree.table(0), want, rtol=REL, atol=0)
    assert not tree.table(0)[:, 1:].any()


def test_a_clique_past_the_einsum_operand_limit():
    # a root with 40 observed-or-not binary children: the root's clique
    # takes a message from each child, more operands than one np.einsum
    # call accepts, so its contractions fold
    rng = np.random.default_rng(3)
    root = Variable("R", ("s0", "s1"))
    children = [Variable(f"C{i}", ("s0", "s1")) for i in range(40)]
    cpts = [random_cpt(root, (), rng)] + [random_cpt(c, (root,), rng) for c in children]
    net = Network([root] + children, cpts)
    ev = Evidence({c.name: "s1" for c in children[::3]})
    _, nprime, plan = approximate_network(net, [("R", "C1"), ("R", "C3")])
    plan = plan.with_all_params(random_params(nprime, plan, rng))
    nprime = apply_params(nprime, plan)
    evp = augmented_evidence(nprime, ev)
    records = deleted_records(nprime, plan)
    queries = [((rec.clone, rec.sevid), (rec.parent, rec.clone)) for rec in records]
    tree = engine.Jointree(engine.reduce(nprime, evp), queries)
    contractions = [q.table for q in tree._queries]
    contractions += [send for q in tree._queries for _, send in q.toward]
    assert any(c.folds for c in contractions)
    assert_tables_match(tree, nprime, plan, evp)


def test_width_cap_is_checked_on_the_tree_before_any_sweep():
    _, _, nprime, plan, evp = edge_case(0, cards=(2,), k=3)
    records = deleted_records(nprime, plan)
    queries = [((rec.clone, rec.sevid), (rec.parent, rec.clone)) for rec in records]
    width = engine.Jointree(engine.reduce(nprime, evp), queries).width
    assert width >= 1
    with pytest.raises(CapacityError):
        engine.Jointree(engine.reduce(nprime, evp), queries, width_cap=width - 1)
    cfg = IterationConfig(method="ed-bp", max_iterations=0)
    with pytest.raises(CapacityError):
        run(nprime, plan, evp, cfg, width_cap=width - 1)
    run(nprime, plan, evp, cfg, width_cap=width)


@pytest.mark.parametrize("observed", [False, True])
def test_a_kept_variable_only_its_own_cpt_mentions(observed):
    # keep a leaf and leave its CPT out: no other input has its axis, so
    # the table is flat across it, or, observed, the leaf's indicator (and
    # in a one-variable network then no input is left at all)
    rng = np.random.default_rng(4)
    a, b = Variable("A", ("s0", "s1", "s2")), Variable("B", ("s0", "s1"))
    nets = [
        Network([a, b], [random_cpt(a, (), rng), random_cpt(b, (a,), rng)]),
        Network([b], [random_cpt(b, (), rng)]),
    ]
    ev = Evidence({"B": "s1"} if observed else {})
    for net in nets:
        reduced = engine.reduce(net, ev)
        tree = engine.Jointree(reduced, [(("B",), ("B",))])
        program = engine.record(reduced, ("B",), ("B",))
        want = engine.replay(program, engine.bind(program, net))[0]
        np.testing.assert_allclose(tree.table(0), want, rtol=REL, atol=0)


def test_a_cpt_left_out_of_two_queries_is_refused():
    _, _, nprime, plan, evp = edge_case(0, cards=(2,), k=2)
    rec = deleted_records(nprime, plan)[0]
    query = ((rec.clone, rec.sevid), (rec.parent, rec.clone))
    with pytest.raises(ModelError, match="more than one"):
        engine.Jointree(engine.reduce(nprime, evp), [query, query])


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize(
    "route",
    [
        lambda reduced, keep: engine.Jointree(reduced, [((), keep)]),
        lambda reduced, keep: engine.record(reduced, keep=keep),
    ],
    ids=["jointree", "record"],
)
def test_a_variable_kept_twice_is_refused_by_name(route, observed):
    rng = np.random.default_rng(5)
    a, b = Variable("A", ("s0", "s1")), Variable("B", ("s0", "s1"))
    net = Network([a, b], [random_cpt(a, (), rng), random_cpt(b, (a,), rng)])
    reduced = engine.reduce(net, Evidence({"A": "s1"} if observed else {}))
    with pytest.raises(ModelError, match="^variable 'A' is kept more than once$"):
        route(reduced, ("A", "B", "A"))


@pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
@pytest.mark.parametrize("state", ["unobserved", "no"])
def test_unusable_soft_evidence_is_refused_before_any_sweep(monkeypatch, schedule, state):
    # Pr'(e') = se g pm holds only with every soft-evidence variable
    # observed in its positive state
    aug, ev, nprime, plan, evp = edge_case(7, cards=(2, 3), k=3, hide_se=True)
    sevid = deleted_records(nprime, plan)[-1].sevid
    if state != "unobserved":
        evp = evp.with_added({sevid: state})
    built = []
    monkeypatch.setattr(engine, "Jointree", lambda *args: built.append(args))
    cfg = IterationConfig(method="ed-bp", schedule=schedule, initialization="plan")
    with pytest.raises(ModelError, match=f"soft-evidence variable {sevid} must be observed"):
        run(nprime, plan, evp, cfg, reference=(aug, ev))
    assert built == []


class RebuiltFit(_Fit):
    """A fit that also rebuilds N' at its current vectors."""

    def __init__(self, nprime, evp, records, vectors, sequential, width_cap):
        super().__init__(nprime, evp, records, vectors, sequential, width_cap)
        self.nprime, self.evp = nprime, evp

    def current(self):
        params = (EdgeParams(pm, se) for pm, se in self.vectors)
        return apply_params(self.nprime, DeletionPlan(tuple(self.records), tuple(params)))


class ProgramFit(RebuiltFit):
    """The sequential fit as it was before the jointree: each edge's table
    from its own program, bound to N' rebuilt at the current vectors."""

    def table(self, i):
        return reference_table(self.current(), self.evp, self.records[i])


class AdjointsFit(RebuiltFit):
    """The simultaneous fit as it was before the jointree: every derivative
    and Pr'(e') from one forward/backward pass of the Pr'(e') program,
    bound to N' rebuilt at the current vectors."""

    def grads(self):
        current = self.current()
        program = engine.record(engine.reduce(current, self.evp))
        return engine.adjoints(program, engine.bind(program, current))

    def derivatives(self, i):
        rec, grads = self.records[i], self.grads()
        return grads.cpt(rec.clone), grads.cpt(rec.sevid)[:, 0]

    def pr_ep(self):
        return self.grads().pr_e


FIT_CASES = ["mixed", "observed-parent", "disconnected", "one-edge"]


def assert_fits_match(monkeypatch, case, method, schedule, reference_fit):
    aug, ev, nprime, plan, evp = edge_case(7, **CASES[case])
    cfg = IterationConfig(
        method=method, schedule=schedule, max_iterations=10, initialization="plan"
    )
    got, report, trace = run(nprime, plan, evp, cfg, reference=(aug, ev))
    monkeypatch.setattr(parametrize_module, "_Fit", reference_fit)
    want, want_report, want_trace = run(nprime, plan, evp, cfg, reference=(aug, ev))
    assert report.iterations == want_report.iterations
    assert len(trace) == len(want_trace)
    for a, b in zip(got.params, want.params):
        np.testing.assert_allclose(a.pm, b.pm, rtol=1e-10, atol=0)
        np.testing.assert_allclose(a.se, b.se, rtol=1e-10, atol=0)
    for a, b in zip(trace, want_trace):
        assert a.kl_bound == pytest.approx(b.kl_bound, rel=1e-10)


@pytest.mark.parametrize("method", ["ed-kl", "ed-bp"])
@pytest.mark.parametrize("case", FIT_CASES)
def test_sequential_fits_follow_the_per_edge_programs(monkeypatch, method, case):
    # a fit needs its soft evidence observed (Pr'(e') = se g pm), so the
    # hidden-soft-evidence case is checked table by table only
    assert_fits_match(monkeypatch, case, method, "sequential", ProgramFit)


@pytest.mark.parametrize("method", ["ed-kl", "ed-bp"])
@pytest.mark.parametrize("case", FIT_CASES)
def test_simultaneous_fits_follow_the_adjoint_passes(monkeypatch, method, case):
    assert_fits_match(monkeypatch, case, method, "simultaneous", AdjointsFit)


@pytest.mark.parametrize("seed", range(10))
def test_simultaneous_tree_keeps_the_width_of_n_prime(seed):
    # each simultaneous query lies inside an existing family, so the tree
    # has the Pr'(e') program's width, and a run capped at it succeeds
    net = grid_network(7, 7, rng=np.random.default_rng(seed))
    ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
    edges, _ = rank_edges(net, ev, "rand", np.random.default_rng(seed))
    _, nprime, plan = approximate_network(net, edges[:10])
    evp = augmented_evidence(nprime, ev)
    width = engine.record(engine.reduce(nprime, evp)).width
    records = deleted_records(nprime, plan)
    vectors = [(p.pm, p.se) for p in plan.params]
    fit = _Fit(nprime, evp, records, vectors, False, None)
    assert fit.tree.width == width
    cfg = IterationConfig(method="ed-bp", schedule="simultaneous", max_iterations=1)
    _, report, _ = run(nprime, plan, evp, cfg, width_cap=width)
    assert report.iterations == 1
