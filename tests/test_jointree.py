"""The fit's jointree against the programs and passes it replaced.

Each edge's table g over (parent, clone), read off ``engine.Jointree``, must
be the table that the edge's own program computes (``engine.record`` on the
same reduction with the edge's clone prior and soft-evidence CPT left out,
keeping (parent, clone), then ``replay``), at rel 1e-12, also after other
edges' vectors change; whole sequential fits must follow the path those
programs take, and whole simultaneous fits the path of each derivative's
own elimination (``engine.cpt_derivatives``) and of Pr'(e')'s
(``engine.compile``) per read.
"""

import hashlib
import re

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

from conftest import random_cpt, tree_input

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
    """g from the edge's own program, recorded on ``nprime``."""
    program = engine.record(nprime, evp, (rec.clone, rec.sevid), (rec.parent, rec.clone))
    return engine.replay(program)[0]


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
    tree = engine.Jointree(nprime, evp, queries)
    assert_tables_match(tree, nprime, plan, evp)
    # new vectors for every other edge, one at a time: each write forgets
    # only the messages leaving its clique, and the tables still match
    rng = np.random.default_rng(seed + 100)
    for j, params in enumerate(random_params(nprime, plan, rng)):
        if j % 2:
            continue
        plan = plan.with_params(j, params)
        tree.set_input(records[j].clone, params.pm)
        se_cpt = tree_input(tree, records[j].sevid, se_table(params.se))
        tree.set_input(records[j].sevid, se_cpt)
        assert_tables_match(tree, nprime, plan, evp)


def test_an_observed_soft_evidence_input_is_written_as_its_column():
    # the tree reads an observed S''s CPT as its observed column, se,
    # sliced by an observed parent's state: a 0-d table for the first edge
    _, _, nprime, plan, evp = edge_case(1, **CASES["observed-parent"])
    records = deleted_records(nprime, plan)
    queries = [((rec.clone, rec.sevid), (rec.parent, rec.clone)) for rec in records]
    tree = engine.Jointree(nprime, evp, queries)
    new = random_params(nprime, plan, np.random.default_rng(7))
    for rec, params in zip(records, new):
        at = nprime.var(rec.parent).index_of(evp[rec.parent]) if rec.parent in evp else None
        # as ``_Fit.set`` writes an edge
        tree.set_input(rec.clone, params.pm)
        tree.set_input(rec.sevid, params.se if at is None else params.se[at, ...])
    assert_tables_match(tree, nprime, plan.with_all_params(new), evp)
    card = nprime.var(records[0].parent).card
    with pytest.raises(ModelError, match=rf"has shape \({card},\); the tree reads \(\)"):
        tree.set_input(records[0].sevid, new[0].se)


def test_observed_clone_keeps_its_state():
    _, _, nprime, plan, evp = edge_case(1, cards=(2, 3), k=2)
    rec = deleted_records(nprime, plan)[0]
    evp = evp.with_added({rec.clone: nprime.var(rec.clone).states[0]})
    query = ((rec.clone, rec.sevid), (rec.parent, rec.clone))
    tree = engine.Jointree(nprime, evp, [query])
    want = reference_table(nprime, evp, rec)
    np.testing.assert_allclose(tree.table(0), want, rtol=REL, atol=0)
    assert not tree.table(0)[:, 1:].any()


def star_case(rng):
    """A root with 40 binary children, every third observed, and two of
    its edges deleted at random parameters: (N', plan, evidence on N')."""
    root = Variable("R", ("s0", "s1"))
    children = [Variable(f"C{i}", ("s0", "s1")) for i in range(40)]
    cpts = [random_cpt(root, (), rng)] + [random_cpt(c, (root,), rng) for c in children]
    net = Network([root] + children, cpts)
    ev = Evidence({c.name: "s1" for c in children[::3]})
    _, nprime, plan = approximate_network(net, [("R", "C1"), ("R", "C3")])
    plan = plan.with_all_params(random_params(nprime, plan, rng))
    nprime = apply_params(nprime, plan)
    return nprime, plan, augmented_evidence(nprime, ev)


def test_a_clique_past_the_einsum_operand_limit():
    # the root's clique takes a message from each child, more operands
    # than one einsum call accepts, so its contractions fold
    nprime, plan, evp = star_case(np.random.default_rng(3))
    records = deleted_records(nprime, plan)
    queries = [((rec.clone, rec.sevid), (rec.parent, rec.clone)) for rec in records]
    tree = engine.Jointree(nprime, evp, queries)
    contractions = [q.table for q in tree._plan.queries]
    contractions += [send for send in tree._plan.sends if send is not None]
    assert any(c.folds for c in contractions)
    assert_tables_match(tree, nprime, plan, evp)


@pytest.mark.parametrize("operands", [1, 2, 5, 12, 32, 33, 40, 70])
def test_a_contraction_is_np_einsum_bit_for_bit(operands):
    # a jointree contraction calls numpy's C einsum without np.einsum's
    # wrapper: the same bits, also through the folds past 32 operands
    rng = np.random.default_rng(operands)
    names = [f"V{i}" for i in range(12)]
    cards = dict(zip(names, rng.integers(1, 4, size=len(names)).tolist()))
    scopes = [tuple(rng.choice(names, size=int(rng.integers(0, 4)), replace=False))
              for _ in range(operands)]
    seen = list(dict.fromkeys(n for scope in scopes for n in scope))
    out = tuple(rng.permutation(seen)[: len(seen) // 2])
    tables = [rng.random(tuple(cards[n] for n in scope)) for scope in scopes]
    c = engine._contraction(list(range(operands)), list(scopes), out)
    assert bool(c.folds) == (operands > 32)
    want = list(tables)
    for subscripts, n in c.folds:
        want[:n] = [np.einsum(subscripts, *want[:n])]
    want = np.einsum(c.subscripts, *want)
    got = engine._contract(c, tables)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_width_cap_is_checked_on_the_tree_before_any_sweep():
    _, _, nprime, plan, evp = edge_case(0, cards=(2,), k=3)
    records = deleted_records(nprime, plan)
    queries = [((rec.clone, rec.sevid), (rec.parent, rec.clone)) for rec in records]
    width = engine.Jointree(nprime, evp, queries).width
    assert width >= 1
    with pytest.raises(CapacityError):
        engine.Jointree(nprime, evp, queries, width_cap=width - 1)
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
        tree = engine.Jointree(net, ev, [(("B",), ("B",))])
        want = engine.replay(engine.record(net, ev, ("B",), ("B",)))[0]
        np.testing.assert_allclose(tree.table(0), want, rtol=REL, atol=0)


def test_a_cpt_left_out_of_two_queries_is_refused():
    _, _, nprime, plan, evp = edge_case(0, cards=(2,), k=2)
    rec = deleted_records(nprime, plan)[0]
    query = ((rec.clone, rec.sevid), (rec.parent, rec.clone))
    with pytest.raises(ModelError, match="more than one"):
        engine.Jointree(nprime, evp, [query, query])


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize(
    "route",
    [
        lambda net, ev, keep: engine.Jointree(net, ev, [((), keep)]),
        lambda net, ev, keep: engine.record(net, ev, keep=keep),
    ],
    ids=["jointree", "record"],
)
def test_a_variable_kept_twice_is_refused_by_name(route, observed):
    rng = np.random.default_rng(5)
    a, b = Variable("A", ("s0", "s1")), Variable("B", ("s0", "s1"))
    net = Network([a, b], [random_cpt(a, (), rng), random_cpt(b, (a,), rng)])
    ev = Evidence({"A": "s1"} if observed else {})
    with pytest.raises(ModelError, match="^variable 'A' is kept more than once$"):
        route(net, ev, ("A", "B", "A"))


# per route: how it is called with a list of names, and how it refuses a
# name given twice
NAME_ROUTES = {
    "record-without": (lambda net, ev, names: engine.record(net, ev, without=names), "left out"),
    "record-maximize": (lambda net, ev, names: engine.record(net, ev, maximize=names), "maximized"),
    "jointree": (lambda net, ev, names: engine.Jointree(net, ev, [(names, ())]), "left out"),
    "derivatives": (lambda net, ev, names: engine.derivatives(net, ev, names), "named"),
}


@pytest.mark.parametrize(
    "names, message",
    [(("A", "Z"), "unknown variable 'Z'"), (("A", "B", "A"), "variable 'A' is {} more than once")],
    ids=["unknown", "repeated"],
)
@pytest.mark.parametrize("route", list(NAME_ROUTES))
def test_an_unknown_or_repeated_name_is_refused_by_name(route, names, message):
    # a refused call keeps no structure
    call, role = NAME_ROUTES[route]
    rng = np.random.default_rng(5)
    a, b = Variable("A", ("s0", "s1")), Variable("B", ("s0", "s1"))
    net = Network([a, b], [random_cpt(a, (), rng), random_cpt(b, (a,), rng)])
    with pytest.raises(ModelError, match=f"^{re.escape(message.format(role))}$"):
        call(net, Evidence({}), names)
    assert not engine._structures


@pytest.mark.parametrize("observed", [False, True])
def test_a_variable_kept_and_maximized_is_refused_by_name(observed):
    # refused before record looks for a kept program, so nothing is kept
    rng = np.random.default_rng(5)
    a, b = Variable("A", ("s0", "s1")), Variable("B", ("s0", "s1"))
    net = Network([a, b], [random_cpt(a, (), rng), random_cpt(b, (a,), rng)])
    ev = Evidence({"A": "s1"} if observed else {})
    with pytest.raises(ModelError, match="^variable 'A' is both kept and maximized$"):
        engine.record(net, ev, keep=("B", "A"), maximize=("A",))
    assert not engine._structures


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


@pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
def test_an_observed_clone_is_refused_before_any_sweep(monkeypatch, schedule):
    # a fit writes each clone prior as the clone's whole input, which an
    # observed clone's 0-d input cannot take
    aug, ev, nprime, plan, evp = edge_case(7, cards=(2, 3), k=3)
    clone = deleted_records(nprime, plan)[1].clone
    evp = evp.with_added({clone: nprime.var(clone).states[0]})
    built = []
    monkeypatch.setattr(engine, "Jointree", lambda *args: built.append(args))
    for method in ("ed-bp", "ed-kl"):
        cfg = IterationConfig(method=method, schedule=schedule, initialization="plan")
        with pytest.raises(ModelError, match=f"clone {clone} must not be observed"):
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
    from its own program, recorded on N' rebuilt at the current vectors."""

    def table(self, i):
        return reference_table(self.current(), self.evp, self.records[i])


class EliminationFit(RebuiltFit):
    """The simultaneous fit on the bucket route: each derivative from its
    own elimination (``engine.cpt_derivatives``) and Pr'(e') from
    ``engine.compile``, on N' rebuilt at the current vectors."""

    def state(self):
        return engine.compile(self.current(), self.evp)

    def derivatives(self, i):
        rec, st = self.records[i], self.state()
        d_pm = engine.cpt_derivatives(st, st.net.cpt(rec.clone))
        return d_pm, engine.cpt_derivatives(st, st.net.cpt(rec.sevid))[:, 0]

    def pr_ep(self):
        return self.state().pr_e


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
def test_simultaneous_fits_follow_the_derivative_eliminations(monkeypatch, method, case):
    assert_fits_match(monkeypatch, case, method, "simultaneous", EliminationFit)


@pytest.mark.parametrize("seed", range(10))
def test_simultaneous_tree_keeps_the_width_of_n_prime(seed):
    # each simultaneous query lies inside an existing family, so the tree
    # has the Pr'(e') program's width, and a run capped at it succeeds
    net = grid_network(7, 7, rng=np.random.default_rng(seed))
    ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
    edges, _ = rank_edges(net, ev, "rand", np.random.default_rng(seed))
    _, nprime, plan = approximate_network(net, edges[:10])
    evp = augmented_evidence(nprime, ev)
    width = engine.record(nprime, evp).width
    records = deleted_records(nprime, plan)
    vectors = [(p.pm, p.se) for p in plan.params]
    fit = _Fit(nprime, evp, records, vectors, False, None)
    assert fit.tree.width == width
    cfg = IterationConfig(method="ed-bp", schedule="simultaneous", max_iterations=1)
    _, report, _ = run(nprime, plan, evp, cfg, width_cap=width)
    assert report.iterations == 1


def test_writing_a_cpt_outside_every_query_home():
    # a written CPT whose clique is no query's home: the messages leaving
    # that clique are found from its path to the root at its first write,
    # and the kept plan holds them for every later tree
    rng = np.random.default_rng(8)
    net = grid_network(4, 4, rng=rng)
    ev = Evidence({n: net.var(n).states[1] for n in net.leaves()})
    queries = [(("N1_1",), ("N1_1", "N0_1")), (("N2_0",), ("N2_0",)), ((), ())]
    tree = engine.Jointree(net, ev, queries)
    plan = tree._plan
    assert plan.stale == {}
    # a query's left-out inputs sit in its home; Pr(e)'s home is the root
    holder = plan.holder.__getitem__
    homes = {holder(tree.cpt_inputs[n]) for without, _ in queries for n in without}
    homes.add(plan.parent.index(None))
    outside = [v.name for v in net.variables if holder(tree.cpt_inputs[v.name]) not in homes]
    assert len(outside) >= 3
    messages = range(len(tree.inputs), len(plan.sends))
    for name in outside:
        for j in range(len(queries)):
            tree.table(j)
        cpt = net.cpt(name)
        new = random_cpt(cpt.child, cpt.parents, rng)
        c = holder(tree.cpt_inputs[name])
        known = c in plan.stale
        tree.set_input(name, tree_input(tree, name, new.shaped))
        if not known:
            want = engine._leaving(plan.sends, messages, engine._below(plan.parent, c))
            assert plan.stale[c] == want
        net = net.replace_cpts({name: new})
        for j, (without, keep) in enumerate(queries):
            want = engine.replay(engine.record(net, ev, without, keep))[0]
            np.testing.assert_allclose(tree.table(j), want, rtol=REL, atol=0)
    assert set(plan.stale) == {holder(tree.cpt_inputs[n]) for n in outside}
    # a second tree of the same structure reuses the lists the first made
    kept = dict(plan.stale)
    second = engine.Jointree(net, ev, queries)
    assert second._plan is plan
    second.table(0)
    name = outside[0]
    second.set_input(name, tree_input(second, name, net.cpt(name).shaped))
    assert plan.stale.keys() == kept.keys()
    assert all(plan.stale[c] is kept[c] for c in kept)
    assert all(second.bound[t] is None for t in kept[holder(second.cpt_inputs[name])])


def test_a_derivative_pass_keeps_no_write_bookkeeping():
    # a pass only reads its tree, so the plan it keeps holds no stale list
    net = grid_network(4, 4, rng=np.random.default_rng(8))
    ev = Evidence({n: net.var(n).states[1] for n in net.leaves()})
    engine._structures.clear()
    engine.derivatives(net, ev, [v.name for v in net.variables])
    plans = [s for s in engine._structures.values() if isinstance(s, engine._TreePlan)]
    assert len(plans) == 1
    assert plans[0].stale == {}


def test_queries_that_each_need_a_constant_table():
    # each query keeps a leaf whose own CPT it leaves out, so each
    # contraction takes a table of ones over its leaf: the second constant
    # table sits right after the first
    rng = np.random.default_rng(9)
    a, b, c = (Variable(n, ("s0", "s1", "s2")[:k]) for n, k in (("A", 3), ("B", 2), ("C", 3)))
    net = Network([a, b, c], [random_cpt(a, (), rng), random_cpt(b, (a,), rng),
                              random_cpt(c, (a,), rng)])
    queries = [(("B",), ("B",)), (("C",), ("C",))]
    tree = engine.Jointree(net, Evidence({}), queries)
    assert [t.shape for t in tree.bound[-2:]] == [(2,), (3,)]
    for j, (without, keep) in enumerate(queries):
        want = engine.replay(engine.record(net, Evidence({}), without, keep))[0]
        np.testing.assert_allclose(tree.table(j), want, rtol=REL, atol=0)


def _plain(obj):
    """``obj`` with every list and named tuple as a plain tuple and every
    dict as its sorted items, so its repr names structure only."""
    if isinstance(obj, dict):
        return sorted((k, _plain(v)) for k, v in obj.items())
    if isinstance(obj, (tuple, list)):
        return tuple(_plain(x) for x in obj)
    return obj


def structure_digest(nprime, evp, records):
    """A digest of every structure a fit on N' plans: the jointree plans of
    both schedules' query lists, every field but the ``stale`` memo that
    writes fill, and ``record``'s programs (order, buckets, steps) for
    Pr'(e'), one edge's table and a MAP query."""
    sequential = [((r.clone, r.sevid), (r.parent, r.clone)) for r in records]
    simultaneous = [q for r in records
                    for q in (((r.clone,), (r.clone,)), ((r.sevid,), (r.parent,)))]
    plans = [engine.Jointree(nprime, evp, q + [((), ())])._plan._asdict()
             for q in (sequential, simultaneous)]
    for plan in plans:
        del plan["stale"]
    hidden = [v.name for v in nprime.variables if v.name not in evp][:3]
    programs = [
        engine.record(nprime, evp),
        engine.record(nprime, evp, sequential[0][0], sequential[0][1]),
        engine.record(nprime, evp, maximize=hidden),
    ]
    recorded = [(p.buckets, p.final, p.final_steps, p.perm, p.shape, p.width) for p in programs]
    text = repr(_plain((plans, recorded)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid_fit_case():
    net = grid_network(4, 4, rng=np.random.default_rng(3))
    ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
    _, nprime, plan = approximate_network(net, net.edges()[:6])
    return nprime, plan, augmented_evidence(nprime, ev)


DIGEST_CASES = {
    "grid(4x4) k=6": grid_fit_case,
    "mixed cards, observed parent": lambda: edge_case(2, **CASES["observed-parent"])[2:],
    "star past the operand limit": lambda: star_case(np.random.default_rng(3)),
}


@pytest.mark.parametrize(
    "case, digest",
    [
        ("grid(4x4) k=6", "b1af5f1ddd281cb4"),
        ("mixed cards, observed parent", "6d25ba6529400411"),
        ("star past the operand limit", "ec21fefcfb7066c8"),
    ],
)
def test_the_planner_plans_the_pinned_structures(case, digest):
    # pinned when the planner's miss paths were rewritten: a leaner
    # planner must plan the same trees and record the same programs.
    # Re-pinned over the fields that outlived the bucket programs' reverse
    # pass, computed with the code from before it went; re-pinned again
    # without the stale lists, which the planner no longer plans, computed
    # with the code that still planned them
    nprime, plan, evp = DIGEST_CASES[case]()
    assert structure_digest(nprime, evp, deleted_records(nprime, plan)) == digest
