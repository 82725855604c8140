import dataclasses
import itertools
import warnings
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgedel.engine as engine_module
from edgedel import (
    CapacityError,
    Cpt,
    DeletionPlan,
    EdgeParams,
    Evidence,
    InconsistentEvidenceError,
    ModelError,
    Network,
    Variable,
    apply_params,
    approximate_network,
    augmented_evidence,
    compile,
    constrained_order,
    cpt_derivatives,
    deleted_records,
    enumerate_joint,
    exact_map,
    min_fill_order,
    pairwise_marginal,
    posterior_marginal,
    single_edge_evaluate,
)
from edgedel.deletion import augment
from edgedel.harness import chain_network, grid_network, run_deletion_instance
from edgedel.divergence import forward_backward, score_edges, true_edge_marginals

import elimination_reference as ref
from conftest import (
    brute_posterior, count_engine_calls, positive_evidence, random_network, tree_input,
)


def kept(net, ev, without, keep, width_cap=engine_module.WIDTH_CAP_DEFAULT):
    """Pr(e) without the CPTs of ``without``, over ``keep``: one recorded
    program, replayed."""
    program = engine_module.record(net, ev, without, keep, width_cap=width_cap)
    return engine_module.replay(program)[0]


def chain3():
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1"))
    c = Variable("C", ("c0", "c1"))
    return Network(
        [a, b, c],
        [
            Cpt(a, (), [0.2, 0.8]),
            Cpt(b, (a,), [0.3, 0.7, 0.6, 0.4]),
            Cpt(c, (b,), [0.9, 0.1, 0.25, 0.75]),
        ],
    )


def grid3x3(rng):
    grid = [[Variable(f"G{i}{j}", ("0", "1")) for j in range(3)] for i in range(3)]
    cpts = []
    for i in range(3):
        for j in range(3):
            parents = []
            if i > 0:
                parents.append(grid[i - 1][j])
            if j > 0:
                parents.append(grid[i][j - 1])
            rows = 2 ** len(parents)
            cpts.append(
                Cpt(grid[i][j], tuple(parents), rng.dirichlet([1, 1], size=rows).reshape(-1))
            )
    return Network([grid[i][j] for i in range(3) for j in range(3)], cpts)


class TestOrders:
    def test_chain_width_one(self):
        order = min_fill_order(chain3())
        assert set(order.order) == {"A", "B", "C"}
        assert order.width == 1
        order = constrained_order(chain3(), {"C"})
        assert set(order.order[:2]) == {"A", "B"} and order.order[2] == "C"
        assert order.width == 1

    def test_grid_width_reasonable_and_recomputable(self):
        net = grid3x3(np.random.default_rng(0))
        order = min_fill_order(net)
        assert order.width <= 3
        assert ref.induced_width(net, order.order) == order.width

    def test_disconnected_nodes_width_zero(self):
        variables = [Variable(f"N{i}", ("0", "1")) for i in range(5)]
        net = Network(variables, [Cpt(v, (), [0.5, 0.5]) for v in variables])
        assert min_fill_order(net).width == 0

    def test_constrained_empty_equals_min_fill(self, monkeypatch):
        # one kept order serves both: the second call orders nothing
        net = grid3x3(np.random.default_rng(1))
        engine_module._structures.clear()
        calls = count_engine_calls(monkeypatch, ["_order"])
        assert constrained_order(net, ()) is min_fill_order(net)
        assert calls == {"_order": 1}

    def test_constrained_puts_map_vars_last(self):
        net = chain3()
        order = constrained_order(net, {"A", "C"})
        assert order.order[0] == "B"
        assert set(order.order[1:]) == {"A", "C"}
        assert ref.induced_width(net, order.order) == order.width

    def test_constrained_all_vars(self):
        net = chain3()
        order = constrained_order(net, {"A", "B", "C"})
        assert set(order.order) == {"A", "B", "C"}
        assert ref.induced_width(net, order.order) == order.width

    def test_constrained_width_never_below_free_width(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            net = random_network(rng, n_vars=7)
            names = [v.name for v in net.variables]
            chosen = rng.choice(names, size=3, replace=False)
            assert constrained_order(net, set(chosen)).width >= min_fill_order(net).width


def reduced_factors(net, ev):
    return engine_module._factors(net, engine_module._indexed(net, ev))


def tie_heavy_network(rng):
    """Two disjoint 3x3 grids, a chain and isolated roots, declared in a
    shuffled order: many nodes share each fill cost at every step, so the
    declaration index decides most choices."""
    parts = [
        grid_network(3, 3, rng=rng),
        grid_network(3, 3, states=3, rng=rng),
        chain_network(5, rng=rng),
    ]
    variables, cpts = [], []
    for i, part in enumerate(parts):
        rename = {v.name: Variable(f"P{i}{v.name}", v.states) for v in part.variables}
        for v in part.variables:
            c = part.cpt(v.name)
            variables.append(rename[v.name])
            cpts.append(
                Cpt(rename[v.name], tuple(rename[p.name] for p in c.parents), c.table)
            )
    for i in range(4):
        v = Variable(f"R{i}", ("0", "1"))
        variables.append(v)
        cpts.append(Cpt(v, (), [0.5, 0.5]))
    perm = rng.permutation(len(variables))
    return Network([variables[i] for i in perm], cpts)


def order_cases():
    rng = np.random.default_rng(11)
    cases = [("chain", chain_network(9, rng=rng)), ("chain3", chain_network(7, 3, rng=rng))]
    for shape in [(3, 3), (4, 4), (5, 5), (6, 6), (3, 7)]:
        cases.append((f"grid{shape}", grid_network(*shape, rng=rng)))
    cases.append(("grid3-state", grid_network(4, 4, states=3, rng=rng)))
    for i in range(8):
        cases.append((f"dag{i}", random_network(rng, n_vars=8 + 2 * i, max_card=3, max_parents=4)))
    for i in range(3):
        cases.append((f"ties{i}", tie_heavy_network(rng)))
    return cases


class TestIncrementalOrder:
    """The engine's incremental min-fill gives exactly the full-rescan order."""

    @pytest.mark.parametrize("name,net", order_cases(), ids=lambda v: v if isinstance(v, str) else "")
    def test_same_order_and_width(self, name, net):
        rng = np.random.default_rng(len(net.variables))
        names = [v.name for v in net.variables]
        leaves = net.leaves()
        evidences = [
            Evidence({}),
            Evidence({n: net.var(n).states[0] for n in leaves}),
            Evidence({n: net.var(n).states[-1] for n in rng.choice(names, size=3, replace=False)}),
        ]
        picks = [tuple(rng.choice(names, size=k, replace=False)) for k in (1, 2, 4)]
        for ev in evidences:
            factors = reduced_factors(net, ev)
            queries = [{}] + [{"keep": set(p)} for p in picks] + [{"last": set(p)} for p in picks]
            for kwargs in queries:
                got = engine_module._order(factors, net.decl_index, **kwargs)
                want = ref.full_rescan_order(factors, net.decl_index, **kwargs)
                assert (got.order, got.width) == want, (name, dict(ev.items()), kwargs)

    def test_fill_cost_counts_missing_pairs(self):
        rng = np.random.default_rng(12)
        for density in (0.2, 0.5, 0.8):
            adj = {n: set() for n in range(14)}
            for a in range(14):
                for b in range(a + 1, 14):
                    if rng.random() < density:
                        adj[a].add(b)
                        adj[b].add(a)
            # the engine holds each node's neighbours as a bitmask
            masks = [sum(1 << m for m in adj[n]) for n in range(14)]
            for n in adj:
                assert engine_module._fill_cost(masks, n) == ref.pairwise_fill_cost(adj, n)

    @pytest.mark.parametrize("last", [False, True])
    def test_width_cap_raises_at_the_same_width(self, last):
        net = grid_network(5, 5, rng=np.random.default_rng(3))
        factors = reduced_factors(net, Evidence({}))
        kwargs = {"last": {"N0_0", "N4_4", "N2_2"}} if last else {}
        width = ref.full_rescan_order(factors, net.decl_index, **kwargs)[1]
        for cap in range(width):
            with pytest.raises(CapacityError, match=f"width {width} exceeds the cap of {cap}"):
                engine_module._order(factors, net.decl_index, width_cap=cap, **kwargs)
            with pytest.raises(CapacityError):
                ref.full_rescan_order(factors, net.decl_index, width_cap=cap, **kwargs)
        assert engine_module._order(factors, net.decl_index, width_cap=width, **kwargs).width == width


class TestCompileAndMarginals:
    def test_equality_witness_evidence_probability(self, coins_fixture):
        net, ev = coins_fixture
        st = compile(net, ev)
        assert st.pr_e == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(posterior_marginal(st, "U1"), [0.5, 0.5], atol=1e-15)

    def test_empty_evidence_is_normalized(self):
        st = compile(chain3(), Evidence({}))
        assert st.pr_e == pytest.approx(1.0, abs=1e-12)

    def test_contradictory_evidence(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        net = Network(
            [a, b], [Cpt(a, (), [1.0, 0.0]), Cpt(b, (a,), [1.0, 0.0, 0.0, 1.0])]
        )
        st = compile(net, Evidence({"A": "a1"}))
        assert st.pr_e == 0.0
        with pytest.raises(InconsistentEvidenceError):
            posterior_marginal(st, "B")

    def test_observed_variable_is_point_mass(self):
        st = compile(chain3(), Evidence({"B": "b1"}))
        assert posterior_marginal(st, "B").tolist() == [0.0, 1.0]

    def test_marginals_match_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            net = random_network(rng, n_vars=10)
            ev = positive_evidence(net, rng)
            st = compile(net, ev)
            joint = enumerate_joint(net, ev)
            assert st.pr_e == pytest.approx(joint.total(), abs=1e-12)
            for v in net.variables:
                want = brute_posterior(net, ev, v.name)
                got = posterior_marginal(st, v.name)
                assert np.allclose(got, want, atol=1e-10)

    def test_pairwise_matches_enumeration_and_is_consistent(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, n_vars=8)
        ev = positive_evidence(net, rng)
        st = compile(net, ev)
        joint = enumerate_joint(net, ev)
        total = joint.total()
        names = [v.name for v in net.variables]
        for a, b in [(names[0], names[5]), (names[2], names[7]), (names[1], names[3])]:
            got = pairwise_marginal(st, a, b)
            if a not in ev and b not in ev:
                want = joint.marginalize_to({a, b}).reorder((a, b)).values / total
                assert np.allclose(got, want, atol=1e-10)
            assert np.allclose(got.sum(axis=1), posterior_marginal(st, a), atol=1e-10)
            assert np.allclose(got.sum(axis=0), posterior_marginal(st, b), atol=1e-10)

    def test_pairwise_same_variable_is_diagonal(self):
        st = compile(chain3(), Evidence({}))
        got = pairwise_marginal(st, "B", "B")
        assert np.allclose(got, np.diag(posterior_marginal(st, "B")))

    def test_pairwise_across_equivalence_edge_has_no_off_diagonal_mass(self):
        from edgedel import augment

        rng = np.random.default_rng(11)
        net = random_network(rng, n_vars=5)
        edges = net.edges()
        if not edges:
            pytest.skip("edgeless draw")
        aug = augment(net, edges[:1])
        rec = aug.clone_edges[0]
        st = compile(aug, Evidence({}))
        joint = pairwise_marginal(st, rec.parent, rec.clone)
        off = joint - np.diag(np.diag(joint))
        assert np.all(off == 0.0)

    def test_width_cap_refusal(self):
        rng = np.random.default_rng(5)
        net = grid3x3(rng)
        with pytest.raises(CapacityError, match="width"):
            compile(net, Evidence({}), width_cap=1)

    def test_single_queries_are_recorded_under_the_state_width_cap(self):
        # Pr(e) on the chain has width 1; keeping both ends joins them in
        # every clique of the elimination
        st = compile(chain_network(8), Evidence({}), width_cap=1)
        assert st.width == 1
        with pytest.raises(CapacityError, match="induced width 2 exceeds the cap of 1"):
            pairwise_marginal(st, "X1", "X8")
        capped = dataclasses.replace(st, width_cap=0)
        with pytest.raises(CapacityError, match="induced width 1 exceeds the cap of 0"):
            posterior_marginal(capped, "X4")

    def test_order_invariance_of_pr_e(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, n_vars=7)
        ev = positive_evidence(net, rng)
        reference = compile(net, ev).pr_e
        # different declaration order changes greedy tie-breaks
        perm = list(rng.permutation(len(net.variables)))
        variables = [net.variables[i] for i in perm]
        net2 = Network(variables, [net.cpt(v.name) for v in variables])
        assert compile(net2, ev).pr_e == pytest.approx(reference, abs=1e-12)


class TestDerivatives:
    def test_single_prior_derivative_is_one(self):
        a = Variable("A", ("a0", "a1"))
        net = Network([a], [Cpt(a, (), [0.3, 0.7])])
        st = compile(net, Evidence({}))
        assert cpt_derivatives(st, net.cpt("A")).tolist() == [1.0, 1.0]

    def test_matches_finite_differences_and_indicator_replacement(self):
        rng = np.random.default_rng(7)
        net = random_network(rng, n_vars=8)
        ev = positive_evidence(net, rng)
        st = compile(net, ev)
        for name in ("V2", "V5", "V7"):
            cpt = net.cpt(name)
            d = cpt_derivatives(st, cpt).reshape(-1)
            h = 1e-6
            flat = cpt.table
            for k in range(flat.size):
                up = flat.copy()
                dn = flat.copy()
                up[k] += h
                dn[k] -= h
                pr_up = enumerate_joint(
                    net.replace_cpts({name: Cpt(cpt.child, cpt.parents, up)}), ev
                ).total()
                pr_dn = enumerate_joint(
                    net.replace_cpts({name: Cpt(cpt.child, cpt.parents, dn)}), ev
                ).total()
                fd = (pr_up - pr_dn) / (2 * h)
                assert d[k] == pytest.approx(fd, rel=1e-4, abs=1e-9)
                # indicator replacement, exact even at zero entries
                ind = np.zeros_like(flat)
                ind[k] = 1.0
                pr_ind = enumerate_joint(
                    net.replace_cpts({name: Cpt(cpt.child, cpt.parents, ind)}), ev
                ).total()
                assert d[k] == pytest.approx(pr_ind, rel=1e-10, abs=1e-14)

    def test_exact_at_zero_parameters(self, coins_fixture):
        net, ev = coins_fixture
        st = compile(net, ev)
        d = cpt_derivatives(st, net.cpt("X1"))
        # the entry (h, t, on) has parameter 0; its derivative is the
        # indicator-replaced evidence probability
        ind = np.zeros(8)
        ind[2] = 1.0  # (u1=h, u2=t, x1=on)
        pr_ind = enumerate_joint(
            net.replace_cpts({"X1": Cpt(net.var("X1"), net.cpt("X1").parents, ind)}), ev
        ).total()
        assert d[0, 1, 0] == pytest.approx(pr_ind, abs=1e-15)

    def test_euler_identity_enforced(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        st = compile(net, ev)
        for v in net.variables:
            d = cpt_derivatives(st, net.cpt(v.name))
            total = float((net.cpt(v.name).shaped * d).sum())
            assert total == pytest.approx(st.pr_e, rel=1e-9)

    def test_foreign_cpt_rejected(self):
        st = compile(chain3(), Evidence({}))
        other = Cpt(Variable("Z", ("0", "1")), (), [0.5, 0.5])
        with pytest.raises(ModelError):
            cpt_derivatives(st, other)

    def test_another_table_for_a_variable_of_the_network_is_rejected(self):
        net = chain3()
        st = compile(net, Evidence({}))
        other = Cpt(net.var("A"), (), [0.5, 0.5])
        assert other != net.cpt("A")
        with pytest.raises(ModelError, match="^cpt for 'A' does not belong to this network$"):
            cpt_derivatives(st, other)


def deleted(net, ev, edges, rng):
    """N' with random edge parameters written in, its augmented evidence, plan."""
    cards = [net.var(u).card for u, _ in edges]
    params = [EdgeParams(rng.dirichlet(np.ones(c)), rng.uniform(0.05, 0.95, c)) for c in cards]
    _, nprime, plan = approximate_network(net, edges, params)
    return apply_params(nprime, plan), augmented_evidence(nprime, ev), plan


def zero_entry_net():
    """U has a zero CPT entry and is observed; both of its out-edges get deleted."""
    a = Variable("A", ("a0", "a1"))
    u = Variable("U", ("u0", "u1", "u2"))
    x = Variable("X", ("x0", "x1"))
    y = Variable("Y", ("y0", "y1"))
    net = Network(
        [a, u, x, y],
        [
            Cpt(a, (), [0.4, 0.6]),
            Cpt(u, (a,), [0.0, 0.3, 0.7, 0.5, 0.25, 0.25]),
            Cpt(x, (u,), [0.9, 0.1, 0.2, 0.8, 0.6, 0.4]),
            Cpt(y, (u, x), [0.3, 0.7, 0.0, 1.0, 0.5, 0.5, 0.1, 0.9, 0.8, 0.2, 0.4, 0.6]),
        ],
    )
    return net, Evidence({"U": "u1", "Y": "y0"}), [("U", "Y"), ("U", "X")]


class TestKeptTable:
    @pytest.mark.parametrize("case", ["grid4x4-k5", "chain3state", "zero-entry-observed-parent"])
    def test_edge_table_matches_compile_and_derivatives(self, case):
        rng = np.random.default_rng(21)
        if case == "grid4x4-k5":
            net = grid_network(4, 4, rng=rng)
            ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
            edges = net.edges()[:5]
        elif case == "chain3state":
            net = chain_network(6, states=3, rng=rng)
            ev, edges = Evidence({"X6": "s2", "X3": "s0"}), [("X2", "X3"), ("X4", "X5")]
        else:
            net, ev, edges = zero_entry_net()
        current, evp, plan = deleted(net, ev, edges, rng)
        st = compile(current, evp)
        for rec, params in zip(deleted_records(current, plan), plan.params):
            g = kept(current, evp, (rec.clone, rec.sevid), (rec.parent, rec.clone))
            pr, d_pm, d_se = single_edge_evaluate(g, params.pm, params.se)
            want_pm = cpt_derivatives(st, current.cpt(rec.clone))
            want_se = cpt_derivatives(st, current.cpt(rec.sevid))[:, 0]
            assert pr == pytest.approx(st.pr_e, rel=1e-12)
            assert np.allclose(d_pm, want_pm, rtol=1e-12, atol=0)
            assert np.allclose(d_se, want_se, rtol=1e-12, atol=0)

    def test_width_cap_refusal(self):
        net = grid3x3(np.random.default_rng(5))
        with pytest.raises(CapacityError, match="width"):
            kept(net, Evidence({}), ("G22",), ("G00",), width_cap=1)


class TestExactMap:
    def test_single_variable_reduces_to_argmax(self):
        net = chain3()
        ev = Evidence({"C": "c0"})
        m, q = exact_map(net, ev, ["A"])
        joint = enumerate_joint(net, ev)
        vals = joint.marginalize_to({"A"}).values
        assert m["A"] == net.var("A").states[int(np.argmax(vals))]
        assert q == pytest.approx(vals.max(), rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(6):
            net = random_network(rng, n_vars=8)
            ev = positive_evidence(net, rng)
            names = [v.name for v in net.variables if v.name not in ev]
            chosen = [names[0], names[2], names[4]]
            m, q = exact_map(net, ev, chosen)
            joint = enumerate_joint(net, ev)
            table = joint.marginalize_to(set(chosen)).reorder(chosen)
            assert q == pytest.approx(table.values.max(), rel=1e-10)
            got = table.value_at(
                {n: net.var(n).index_of(m[n]) for n in chosen}
            )
            assert got == pytest.approx(q, rel=1e-10)

    def test_zero_probability_map_flagged(self):
        a = Variable("A", ("a0", "a1"))
        net = Network([a], [Cpt(a, (), [1.0, 0.0])])
        with pytest.warns(RuntimeWarning):
            m, q = exact_map(net, Evidence({"A": "a1"}), ["A"])
        assert q == 0.0

    def test_observed_map_variable_forced(self):
        net = chain3()
        m, q = exact_map(net, Evidence({"A": "a1"}), ["A", "C"])
        assert m["A"] == "a1"

    def test_ties_break_toward_first_states(self):
        a = Variable("A", ("first", "second"))
        b = Variable("B", ("first", "second"))
        net = Network(
            [a, b],
            [Cpt(a, (), [0.5, 0.5]), Cpt(b, (a,), [0.5, 0.5, 0.5, 0.5])],
        )
        m, q = exact_map(net, Evidence({}), ["A", "B"])
        assert m == {"A": "first", "B": "first"}
        assert q == pytest.approx(0.25)


class TestOneOrderPerQuery:
    """Each query computes exactly one elimination order."""

    def _count_orders(self, monkeypatch):
        calls = []
        original = engine_module._order

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine_module, "_order", counting)
        return calls

    @pytest.mark.parametrize("shape", [(4, 4), (6, 6)])
    def test_compile_orders_once(self, monkeypatch, shape):
        net = grid_network(*shape, rng=np.random.default_rng(0))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        calls = self._count_orders(monkeypatch)
        compile(net, ev)
        assert len(calls) == 1

    def test_kept_table_orders_once(self, monkeypatch):
        net = grid_network(4, 4, rng=np.random.default_rng(1))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        calls = self._count_orders(monkeypatch)
        kept(net, ev, ("N1_1",), ("N0_1", "N1_0", "N1_1"))
        assert len(calls) == 1

    def test_compile_fill_cost_evaluations(self, monkeypatch):
        # each node's cost is counted once, when its phase starts; each
        # elimination then moves the costs it changes without a recount.
        # Recounting the eliminated node's neighbours, and their neighbours
        # touching two of them, made 270, and a full rescan makes 630
        net = grid_network(6, 6, rng=np.random.default_rng(0))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        calls = []
        original = engine_module._fill_cost

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(engine_module, "_fill_cost", counting)
        compile(net, ev)
        assert len(calls) == 35

    def test_exact_map_orders_once(self, monkeypatch):
        net = grid_network(4, 4, rng=np.random.default_rng(2))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        calls = self._count_orders(monkeypatch)
        exact_map(net, ev, ["N0_0", "N1_1", "N2_2"])
        assert len(calls) == 1


class TestProgramReuse:
    """``record`` orders and records each structure once: another instance
    of it (other CPT entries, other observed states) reuses the kept order
    and buckets, and gets the program a cold recording gives."""

    @staticmethod
    def instance(seed, state):
        net = grid_network(4, 4, rng=np.random.default_rng(seed))
        return net, Evidence({n: net.var(n).states[state] for n in net.leaves()})

    @staticmethod
    def outputs(net, ev):
        """Every table the programs of three queries give on one instance."""
        out = []
        program = engine_module.record(net, ev)
        out.append(engine_module.replay(program)[0])
        grads = forward_backward(net, ev)
        out.append(grads.pr_e)
        out.extend(grads.tables.values())
        out.extend(grads.posterior(v.name) for v in net.variables)
        program = engine_module.record(net, ev, ("N1_1",), ("N1_1", "N0_1", "N1_0"))
        out.append(engine_module.replay(program)[0])
        program = engine_module.record(net, ev, maximize=("N0_0", "N1_1", "N2_2"))
        value, traceback = engine_module.replay(program)
        out.append(value)
        for var, rest, argmax in traceback:
            out.extend((var, rest, argmax))
        out.append(exact_map(net, ev, ["N0_0", "N1_2", "N2_1"]))
        return out

    def test_a_warm_recording_gives_the_cold_one_bitwise(self, monkeypatch):
        net, ev = self.instance(1, 1)
        cold = self.outputs(net, ev)
        engine_module._structures.clear()
        self.outputs(*self.instance(2, 0))
        calls = count_engine_calls(monkeypatch, ["_order"])
        warm = self.outputs(net, ev)
        assert calls == {"_order": 0}
        assert len(warm) == len(cold)
        for a, b in zip(warm, cold):
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            else:
                assert a == b

    @pytest.mark.parametrize(
        "variant, orders",
        [
            ("same key", 0),
            ("observed set", 1),
            ("without", 1),
            ("keep order", 1),
            ("maximize", 1),
            ("declaration order", 1),
        ],
    )
    def test_each_part_of_the_key_forces_a_miss(self, monkeypatch, variant, orders):
        net, ev = self.instance(1, 0)
        engine_module.record(net, ev, keep=("N1_1", "N2_2"))
        other, other_ev = self.instance(2, 1)
        without, keep, maximize = (), ("N1_1", "N2_2"), ()
        if variant == "observed set":
            other_ev = other_ev.with_added({"N0_0": "s0"})
        elif variant == "without":
            without = ("N1_1",)
        elif variant == "keep order":
            keep = ("N2_2", "N1_1")
        elif variant == "maximize":
            maximize = ("N0_0",)
        elif variant == "declaration order":
            other = Network(list(reversed(other.variables)), other.cpts())
        calls = count_engine_calls(monkeypatch, ["_order"])
        engine_module.record(other, other_ev, without, keep, maximize)
        assert calls == {"_order": orders}

    @pytest.mark.parametrize("maximize", [(), ("N0_0", "N1_1", "N2_2", "N3_3")])
    def test_a_hit_checks_its_own_width_cap(self, monkeypatch, maximize):
        net, ev = self.instance(1, 0)
        calls = count_engine_calls(monkeypatch, ["_bind"])
        with pytest.raises(CapacityError) as miss:
            engine_module.record(net, ev, maximize=maximize, width_cap=2)
        # a refused order is not kept
        assert not engine_module._structures
        width = engine_module.record(net, ev, maximize=maximize).width
        assert width > 2
        with pytest.raises(CapacityError) as hit:
            engine_module.record(net, ev, maximize=maximize, width_cap=2)
        what = "constrained induced width" if maximize else "induced width"
        assert str(hit.value) == str(miss.value) == f"{what} {width} exceeds the cap of 2"
        # a refused program reads no table, on a miss or a hit
        assert calls == {"_bind": 1}
        assert engine_module.record(net, ev, maximize=maximize, width_cap=width).width == width

    @staticmethod
    def keeps(net, count):
        """``count`` distinct kept-variable tuples of ``net``."""
        names = [v.name for v in net.variables]
        keeps = [k for r in (1, 2, 3) for k in itertools.permutations(names, r)]
        assert len(keeps) >= count
        return keeps[:count]

    def test_the_least_recently_used_program_goes_first(self, monkeypatch):
        cap = engine_module._STRUCTURES_MAX
        net = chain_network(8, rng=np.random.default_rng(3))
        keeps = self.keeps(net, 2 * cap - 1)
        calls = count_engine_calls(monkeypatch, ["_order"])
        sizes = []

        def record(keep):
            before = calls["_order"]
            engine_module.record(net, Evidence({}), keep=keep)
            sizes.append(len(engine_module._structures))
            return calls["_order"] - before

        assert record(keeps[0]) == 1
        assert [record(k) for k in keeps[1:cap]] == [1] * (cap - 1)
        assert record(keeps[0]) == 0
        assert [record(k) for k in keeps[cap:]] == [1] * (cap - 1)
        # keeps[0], used after keeps[1:cap], outlives them
        assert record(keeps[0]) == 0
        assert record(keeps[1]) == 1
        assert max(sizes) == sizes[-1] == cap

    def test_a_key_evicted_between_lookup_and_reuse(self, monkeypatch):
        # another thread may record as many other keys as the cache keeps
        # between record's lookup of its key and its reuse of the entry:
        # the call still gives a cold recording's bits, and the cache keeps
        # its bound
        cap = engine_module._STRUCTURES_MAX
        net = chain_network(8, rng=np.random.default_rng(3))
        others = self.keeps(net, cap + 8)[8:]
        ev = Evidence({"X8": "s1"})
        cold = engine_module.replay(engine_module.record(net, ev, keep=("X1",)))[0]

        class Interleaved(OrderedDict):
            """A cache whose first lookup finds its entry, then lets the
            other keys be recorded before it returns."""

            pending = True

            def _found(self, entry):
                if self.pending:
                    self.pending = False
                    for keep in others:
                        engine_module.record(net, ev, keep=keep)
                return entry

            def get(self, key, default=None):
                return self._found(super().get(key, default))

            def pop(self, key, default=None):
                return self._found(super().pop(key, default))

        cache = Interleaved(engine_module._structures)
        monkeypatch.setattr(engine_module, "_structures", cache)
        warm = engine_module.replay(engine_module.record(net, ev, keep=("X1",)))[0]
        assert not cache.pending
        assert warm.tobytes() == cold.tobytes()
        assert len(cache) == cap

    def test_a_second_score_on_the_same_structure_orders_nothing(self, monkeypatch):
        score_edges(*self.instance(1, 0))
        net, ev = self.instance(2, 1)
        calls = count_engine_calls(monkeypatch, ["_order"])
        warm = score_edges(net, ev)
        assert calls == {"_order": 0}
        engine_module._structures.clear()
        cold = score_edges(net, ev)
        assert [(s.parent, s.child, s.score) for s in warm] == [
            (s.parent, s.child, s.score) for s in cold
        ]
        for a, b in zip(warm, cold):
            assert a.params.pm.tobytes() == b.params.pm.tobytes()
            assert a.params.se.tobytes() == b.params.se.tobytes()



class TestTreeReuse:
    """``Jointree`` keeps each structure in ``record``'s cache: another tree
    of it (other CPT entries, other observed states) reuses the kept plan
    and gives a cold tree's tables."""

    @staticmethod
    def instance(seed, state, k=3):
        """grid(4x4) with leaf evidence in ``state`` and its first k edges
        deleted at random parameters: N', its evidence and its records."""
        rng = np.random.default_rng(seed)
        net = grid_network(4, 4, rng=rng)
        ev = Evidence({n: net.var(n).states[state] for n in net.leaves()})
        _, nprime, plan = approximate_network(net, net.edges()[:k])
        params = []
        for rec in plan.edges:
            card = nprime.var(rec.clone).card
            params.append(EdgeParams(rng.dirichlet(np.ones(card)), rng.uniform(0.1, 1.0, card)))
        nprime = apply_params(nprime, plan.with_all_params(params))
        return nprime, augmented_evidence(nprime, ev), deleted_records(nprime, plan)

    @staticmethod
    def queries(records, sequential):
        """``parametrize``'s query list in either schedule."""
        if sequential:
            queries = [((rec.clone, rec.sevid), (rec.parent, rec.clone)) for rec in records]
        else:
            queries = [q for rec in records
                       for q in (((rec.clone,), (rec.clone,)), ((rec.sevid,), (rec.parent,)))]
        return queries + [((), ())]

    def outputs(self, nprime, evp, records, sequential):
        """Every table of one tree, before and after writing new vectors
        into each edge, and the messages it sent."""
        queries = self.queries(records, sequential)
        tree = engine_module.Jointree(nprime, evp, queries)
        out = [tree.table(j) for j in range(len(queries))]
        rng = np.random.default_rng(7)
        for rec in records:
            card = nprime.var(rec.clone).card
            tree.set_input(rec.clone, rng.dirichlet(np.ones(card)))
            se = rng.uniform(0.1, 1.0, nprime.var(rec.parent).card)
            se_cpt = np.stack([se, 1.0 - se], axis=1)
            tree.set_input(rec.sevid, tree_input(tree, rec.sevid, se_cpt))
            out.extend(tree.table(j) for j in range(len(queries)))
        return out, tree.sent

    @pytest.mark.parametrize("sequential", [True, False])
    def test_a_warm_tree_gives_the_cold_one_bitwise(self, monkeypatch, sequential):
        cold, cold_sent = self.outputs(*self.instance(1, 1), sequential)
        engine_module._structures.clear()
        self.outputs(*self.instance(2, 0), sequential)
        calls = count_engine_calls(monkeypatch, ["_order"])
        warm, warm_sent = self.outputs(*self.instance(1, 1), sequential)
        assert calls == {"_order": 0}
        assert warm_sent == cold_sent
        assert len(warm) == len(cold)
        for a, b in zip(warm, cold):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "variant, orders",
        [("same key", 0), ("observed set", 1), ("queries", 1), ("declaration order", 1)],
    )
    def test_each_part_of_the_key_forces_a_miss(self, monkeypatch, variant, orders):
        nprime, evp, records = self.instance(1, 0)
        engine_module.Jointree(nprime, evp, self.queries(records, True))
        other, other_ev, records = self.instance(2, 1)
        queries = self.queries(records, True)
        if variant == "observed set":
            other_ev = other_ev.with_added({"N0_0": "s0"})
        elif variant == "queries":
            queries = queries[:-1]
        elif variant == "declaration order":
            other = Network(
                list(reversed(other.variables)), other.cpts(), kind=other.kind,
                clone_edges=other.clone_edges,
            )
        calls = count_engine_calls(monkeypatch, ["_order"])
        engine_module.Jointree(other, other_ev, queries)
        assert calls == {"_order": orders}

    def test_a_hit_checks_its_own_width_cap(self, monkeypatch):
        nprime, evp, records = self.instance(1, 0)
        queries = self.queries(records, False)
        width = engine_module.Jointree(nprime, evp, queries).width
        engine_module._structures.clear()
        calls = count_engine_calls(monkeypatch, ["_bind"])
        with pytest.raises(CapacityError) as miss:
            engine_module.Jointree(nprime, evp, queries, width_cap=width - 1)
        # a refused structure is not kept
        assert not engine_module._structures
        engine_module.Jointree(nprime, evp, queries)
        with pytest.raises(CapacityError) as hit:
            engine_module.Jointree(nprime, evp, queries, width_cap=width - 1)
        assert str(hit.value) == str(miss.value)
        assert str(hit.value) == f"induced width {width} exceeds the cap of {width - 1}"
        # a refused tree reads no table, on a miss or a hit
        assert calls == {"_bind": 1}

    def test_the_cache_holds_no_table(self):
        def walk(obj):
            assert not isinstance(obj, np.ndarray)
            if isinstance(obj, dict):
                for key, value in obj.items():
                    walk(key)
                    walk(value)
            elif isinstance(obj, (tuple, list, set, frozenset)):
                for item in obj:
                    walk(item)
            elif hasattr(obj, "__dict__"):
                walk(vars(obj))

        net = grid_network(4, 4, rng=np.random.default_rng(3))
        ev = leaf_evidence(net)
        for method in ("ed-kl", "ed-bp"):
            run_deletion_instance(net, ev, net.edges()[:3], method)
        run_deletion_instance(net, ev, net.edges()[:3], "ed-kl", map_vars=["N1_1", "N2_2"])
        self.outputs(*self.instance(1, 0), False)
        exact_map(net, ev, ["N0_0", "N1_1"])
        kinds = {key[0] for key in engine_module._structures}
        assert kinds == {"program", "tree", "order"}
        walk(engine_module._structures)

    def test_the_least_recently_used_of_mixed_entries_goes_first(self, monkeypatch):
        cap = engine_module._STRUCTURES_MAX
        net = chain_network(8, rng=np.random.default_rng(3))
        names = [v.name for v in net.variables]
        kept = [k for r in (1, 2, 3) for k in itertools.permutations(names, r)]
        sets = [k for r in (1, 2, 3, 4) for k in itertools.combinations(names, r)]
        ev = Evidence({})
        makers = [
            lambda i: engine_module.record(net, ev, keep=kept[i]),
            lambda i: engine_module.Jointree(net, ev, [((), kept[i])]),
            lambda i: constrained_order(net, sets[i]),
        ]
        # entry i is a program, a tree or an order in turn
        entries = [(makers[i % 3], i // 3) for i in range(2 * cap - 1)]
        calls = count_engine_calls(monkeypatch, ["_order"])
        sizes = []

        def touch(entry):
            before = calls["_order"]
            entry[0](entry[1])
            sizes.append(len(engine_module._structures))
            return calls["_order"] - before

        assert touch(entries[0]) == 1
        assert [touch(e) for e in entries[1:cap]] == [1] * (cap - 1)
        assert touch(entries[0]) == 0
        assert [touch(e) for e in entries[cap:]] == [1] * (cap - 1)
        # entries[0], used after entries[1:cap], outlives them
        assert touch(entries[0]) == 0
        assert touch(entries[1]) == 1
        assert max(sizes) == sizes[-1] == cap

def leaf_evidence(net):
    return Evidence({n: net.var(n).states[0] for n in net.leaves()})


def replay_cases():
    rng = np.random.default_rng(31)
    cases = []
    for rows, cols in [(3, 3), (4, 4), (5, 5)]:
        net = grid_network(rows, cols, rng=rng)
        cases.append(pytest.param(net, leaf_evidence(net), id=f"grid{rows}x{cols}"))
    net = grid_network(3, 3, states=3, rng=rng)
    cases.append(pytest.param(net, leaf_evidence(net), id="grid3x3-3state"))
    net = chain_network(8, rng=rng)
    cases.append(pytest.param(net, Evidence({"X8": "s1", "X3": "s0"}), id="chain8"))
    net = chain_network(6, states=3, rng=rng)
    cases.append(pytest.param(net, Evidence({"X6": "s2", "X2": "s1"}), id="chain6-3state"))
    net, ev, _ = zero_entry_net()
    cases.append(pytest.param(net, ev, id="zero-entries"))
    # every bucket of X1's side sums a table over X1 alone down to a scalar
    net = chain_network(8, rng=rng)
    ev = Evidence({f"X{i}": "s1" for i in range(2, 9, 2)})
    cases.append(pytest.param(net, ev, id="scalar-buckets"))
    return cases


class TestReplayMatchesFactorLoop:
    """Record + replay gives the bytes of the Factor-based bucket loop
    (``elimination_reference``) on every query, on the same order."""

    @pytest.mark.parametrize("net,ev", replay_cases())
    def test_every_query_byte_identical(self, net, ev):
        st = compile(net, ev)
        assert np.float64(st.pr_e).tobytes() == np.float64(ref.reference_pr_e(net, ev)).tobytes()
        hidden = [v.name for v in net.variables if v.name not in ev]
        for n in hidden:
            want = ref.reference_marginal(net, ev, n) / st.pr_e
            assert posterior_marginal(st, n).tobytes() == want.tobytes(), n
        for a, b in zip(hidden, hidden[2:]):
            want = ref.reference_table(net, ev, keep=(a, b))[0] / st.pr_e
            assert pairwise_marginal(st, a, b).tobytes() == want.tobytes(), (a, b)
        for cpt in net.cpts():
            family = [p.name for p in cpt.parents] + [cpt.child.name]
            want = ref.reference_table(net, ev, (cpt.child.name,), family)[0]
            assert cpt_derivatives(st, cpt).tobytes() == want.tobytes(), cpt
        map_vars = hidden[::2] + [v.name for v in net.variables if v.name in ev][:1]
        m, q = exact_map(net, ev, map_vars)
        want_m, want_q = ref.reference_map(net, ev, map_vars)
        assert m == want_m
        assert np.float64(q).tobytes() == np.float64(want_q).tobytes()

    @pytest.mark.parametrize("case", ["grid4x4-k5", "chain3state", "zero-entry-observed-parent"])
    def test_edge_tables_byte_identical(self, case):
        rng = np.random.default_rng(22)
        if case == "grid4x4-k5":
            net = grid_network(4, 4, rng=rng)
            ev = leaf_evidence(net)
            edges = net.edges()[:5]
        elif case == "chain3state":
            net = chain_network(6, states=3, rng=rng)
            ev, edges = Evidence({"X6": "s2", "X3": "s0"}), [("X2", "X3"), ("X4", "X5")]
        else:
            net, ev, edges = zero_entry_net()
        current, evp, plan = deleted(net, ev, edges, rng)
        for rec in deleted_records(current, plan):
            without, keep = (rec.clone, rec.sevid), (rec.parent, rec.clone)
            want = ref.reference_table(current, evp, without, keep)[0]
            assert kept(current, evp, without, keep).tobytes() == want.tobytes()

    def test_kept_observed_variable_is_an_indicator_input(self):
        net = chain_network(8, rng=np.random.default_rng(23))
        ev = Evidence({"X4": "s1", "X8": "s0"})
        without, keep = ("X5",), ("X4", "X5")
        program = engine_module.record(net, ev, without, keep)
        fixed = [inp for inp in program.inputs if inp.cpt is None]
        assert [(inp.scope, inp.table.tolist()) for inp in fixed] == [(("X4",), [0.0, 1.0])]
        want = ref.reference_table(net, ev, without, keep)[0]
        assert kept(net, ev, without, keep).tobytes() == want.tobytes()

    def test_kept_unmentioned_leaf_is_a_ones_input(self):
        net = chain_network(8, states=3, rng=np.random.default_rng(24))
        ev = Evidence({"X3": "s2"})
        without, keep = ("X8",), ("X7", "X8")
        program = engine_module.record(net, ev, without, keep)
        fixed = [inp for inp in program.inputs if inp.cpt is None]
        assert [(inp.scope, inp.table.tolist()) for inp in fixed] == [(("X8",), [1.0, 1.0, 1.0])]
        want = ref.reference_table(net, ev, without, keep)[0]
        assert kept(net, ev, without, keep).tobytes() == want.tobytes()

    def test_scalar_intermediates(self):
        net = chain_network(8, rng=np.random.default_rng(25))
        ev = Evidence({f"X{i}": "s0" for i in range(2, 9)})
        program = engine_module.record(net, ev)
        assert [b.shape for b in program.buckets] == [()]
        assert all(inp.reduced == () for inp in program.inputs[2:])
        st = compile(net, ev)
        assert np.float64(st.pr_e).tobytes() == np.float64(ref.reference_pr_e(net, ev)).tobytes()
        m, q = exact_map(net, ev, ["X1"])
        want_m, want_q = ref.reference_map(net, ev, ["X1"])
        assert m == want_m
        assert np.float64(q).tobytes() == np.float64(want_q).tobytes()

    def test_fully_observed_network_has_no_buckets(self):
        net = grid_network(3, 3, states=3, rng=np.random.default_rng(26))
        ev = Evidence({v.name: v.states[1] for v in net.variables})
        program = engine_module.record(net, ev)
        assert program.buckets == () and len(program.final) == len(net.variables)
        assert np.float64(compile(net, ev).pr_e).tobytes() == np.float64(
            ref.reference_pr_e(net, ev)
        ).tobytes()


def overflowing_network():
    """A -> B with entries near the float limit: the first bucket product is inf."""
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1"))
    return Network([a, b], [Cpt(a, (), [1e200, 1e200]), Cpt(b, (a,), [1e200] * 4)])


def late_overflowing_network():
    """grid(3x3) with its opposite corners' CPTs scaled by 1e160: each
    product stays finite until the two meet, in the seventh of nine
    buckets, where it overflows."""
    net = grid_network(3, 3, rng=np.random.default_rng(0))
    big = {
        n: Cpt(net.var(n), net.cpt(n).parents, net.cpt(n).table * 1e160)
        for n in ("N0_0", "N2_2")
    }
    return net.replace_cpts(big)


class TestReplayGuards:
    def test_a_contraction_over_more_variables_than_letters_is_refused(self):
        # a tree reaches it only through a cluster of 53 variables, far past
        # any width cap: direct, then at the 52 letters there are
        scopes = [(f"V{i}",) for i in range(53)]
        with pytest.raises(CapacityError, match="^a jointree contraction over more than 52 "):
            engine_module._subscripts(scopes, ())
        assert engine_module._subscripts(scopes[:52], ("V0",)).endswith("->a")

    def test_overflow_in_a_later_bucket_raises_from_every_pass(self):
        net = late_overflowing_network()
        program = engine_module.record(net, Evidence({}))
        # the first bucket's product is finite: the overflow comes later
        first = program.buckets[0]
        tables = list(program.bound)
        assert np.isfinite(engine_module._multiply(tables, tables[first.first], first.steps)).all()
        message = "numerical overflow in factor product"
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ModelError, match=message):
                engine_module.replay(program)
            with pytest.raises(ModelError, match=message):
                forward_backward(net, Evidence({}))
            with pytest.raises(ModelError, match=message):
                kept(net, Evidence({}), (), ("N1_1",))
            # a maximizing program
            with pytest.raises(ModelError, match=message):
                exact_map(net, Evidence({}), ["N1_1", "N0_2"])

    def test_finite_passes_raise_no_numpy_warning(self):
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = leaf_evidence(net)
        program = engine_module.record(net, ev)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine_module.replay(program)
            forward_backward(net, ev)
            kept(net, ev, (), ("N1_1", "N2_2"))
            exact_map(net, ev, ["N1_1", "N0_2"])

    def test_replayed_program_raises_the_overflow_error(self):
        net = overflowing_network()
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ModelError, match="numerical overflow in factor product") as want:
                kept(net, Evidence({}), (), ("B",))
            with pytest.raises(ModelError, match="numerical overflow in factor product") as got:
                ref.reference_table(net, Evidence({}), (), ("B",))
            program = engine_module.record(net, Evidence({}), (), ("B",))
            with pytest.raises(ModelError) as replayed:
                engine_module.replay(program)
        assert str(replayed.value) == str(want.value) == str(got.value)

    def test_replay_leaves_the_bound_tables_alone(self):
        net = chain3()
        program = engine_module.record(net, Evidence({"C": "c1"}), ("B",), ("A", "B"))
        before = list(program.bound)
        first = engine_module.replay(program)[0]
        bound = program.bound
        assert len(bound) == len(before) and all(a is b for a, b in zip(bound, before))
        assert engine_module.replay(program)[0].tobytes() == first.tobytes()

    def test_writing_an_input_of_the_wrong_shape_raises(self):
        # a jointree's set_input checks each table against the shape its
        # input was recorded for: the CPT's, sliced by the evidence
        tree = engine_module.Jointree(chain3(), Evidence({"C": "c1"}), [(("B",), ("A", "B"))])
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1", "b2"))
        c = Variable("C", ("c0", "c1"))
        other = Network(
            [a, b, c],
            [
                Cpt(a, (), [0.2, 0.8]),
                Cpt(b, (a,), [0.3, 0.3, 0.4, 0.6, 0.2, 0.2]),
                Cpt(c, (b,), [0.9, 0.1, 0.25, 0.75, 0.5, 0.5]),
            ],
        )
        table = tree_input(tree, "C", other.cpt("C").shaped)
        shapes = r"input for 'C' has shape \(3,\); the tree reads \(2,\)"
        with pytest.raises(ModelError, match=shapes):
            tree.set_input("C", table)


def adjoint_cases():
    rng = np.random.default_rng(41)
    cases = []
    for rows, cols in [(3, 3), (4, 4), (5, 5)]:
        net = grid_network(rows, cols, rng=rng)
        cases.append(pytest.param(net, leaf_evidence(net), id=f"grid{rows}x{cols}"))
    net = grid_network(3, 3, states=3, rng=rng)
    cases.append(pytest.param(net, leaf_evidence(net), id="grid3x3-3state"))
    net = chain_network(8, rng=rng)
    cases.append(pytest.param(net, Evidence({"X8": "s1", "X3": "s0"}), id="chain8"))
    # U has a zero CPT entry and is an observed parent of X and Y
    net, ev, _ = zero_entry_net()
    cases.append(pytest.param(net, ev, id="zero-entries-observed-parent"))
    net = grid_network(3, 3, states=3, rng=rng)
    cases.append(
        pytest.param(net, Evidence({v.name: v.states[1] for v in net.variables}), id="all-observed")
    )
    return cases


class TestAdjoints:
    """One derivative pass gives every CPT's derivative table."""

    @pytest.mark.parametrize("net,ev", adjoint_cases())
    def test_match_cpt_derivatives_and_posteriors(self, net, ev):
        st = compile(net, ev)
        grads = forward_backward(net, ev)
        assert grads.pr_e == pytest.approx(st.pr_e, rel=1e-12, abs=0)
        assert list(grads.tables) == [v.name for v in net.variables]
        for v in net.variables:
            # shaped like the CPT, and zero off the evidence wherever the
            # bucket route's table is (atol 0)
            want = cpt_derivatives(st, net.cpt(v.name))
            got = grads.cpt(v.name)
            assert got.shape == net.cpt(v.name).shape
            assert np.allclose(got, want, rtol=1e-12, atol=0), v.name
        for v in net.variables:
            want = posterior_marginal(st, v.name)
            assert np.allclose(grads.posterior(v.name), want, rtol=1e-12, atol=0)
            # the family table is the CPT times its derivative table, bit for bit
            family = net.cpt(v.name).shaped * grads.cpt(v.name)
            assert grads.family(v.name).tobytes() == family.tobytes(), v.name

    @pytest.mark.parametrize(
        "net,ev",
        [c for c in adjoint_cases() if c.id not in ("grid4x4", "grid5x5")],
    )
    def test_posterior_and_family_match_enumeration(self, net, ev):
        grads = forward_backward(net, ev)
        joint = enumerate_joint(net, ev)
        hidden = set(joint.names())
        for v in net.variables:
            if v.name in ev:
                want = np.zeros(v.card)
                want[v.index_of(ev[v.name])] = 1.0
            else:
                want = joint.marginalize_to({v.name}).values / joint.total()
            assert np.allclose(grads.posterior(v.name), want, rtol=0, atol=1e-12), v.name
            # Pr(family, e) is the enumerated table in the evidence slice
            cpt = net.cpt(v.name)
            family = [p.name for p in cpt.parents] + [v.name]
            free = [n for n in family if n in hidden]
            want = np.zeros(cpt.shape)
            at = tuple(net.var(n).index_of(ev[n]) if n in ev else slice(None) for n in family)
            want[at] = joint.marginalize_to(set(free)).reorder(free).values
            assert np.allclose(grads.family(v.name), want, rtol=0, atol=1e-12), v.name

    def test_posterior_under_zero_probability_evidence_raises(self):
        a = Variable("A", ("a0", "a1"))
        net = Network([a], [Cpt(a, (), [1.0, 0.0])])
        ev = Evidence({"A": "a1"})
        grads = forward_backward(net, ev)
        with pytest.raises(InconsistentEvidenceError):
            grads.posterior("A")

    def test_a_pass_of_some_cpts_under_zero_probability_evidence(self):
        # a pass that answers only B still reads Pr(e) = 0, and every
        # posterior raises, the observed variable's too
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        net = Network([a, b], [Cpt(a, (), [1.0, 0.0]), Cpt(b, (a,), [0.9, 0.1, 0.2, 0.8])])
        grads = engine_module.derivatives(net, Evidence({"A": "a1"}), ["B"])
        assert grads.pr_e == 0.0 and list(grads.tables) == ["B"]
        for name in ("A", "B"):
            with pytest.raises(InconsistentEvidenceError, match="zero probability"):
                grads.posterior(name)

    @pytest.mark.parametrize("n, seed", [(4, 0), (4, 1), (5, 2), (6, 3)])
    def test_a_table_is_the_same_whatever_else_the_pass_answers(self, n, seed):
        # so a pass that answers some CPTs only, such as the source
        # marginals' pass on N', reads the full pass's tables bit for bit
        rng = np.random.default_rng(seed)
        net = grid_network(n, n, rng=rng)
        aug = augment(net, net.edges())
        ev = leaf_evidence(net)
        names = [v.name for v in aug.variables]
        full = engine_module.derivatives(aug, ev, names)
        parents = list(dict.fromkeys(p for p, _ in net.edges()))
        some = [x for x in names if rng.random() < 0.3]
        for asked in (parents, some, names[::-1], names[-1:]):
            part = engine_module.derivatives(aug, ev, asked)
            assert part.pr_e == full.pr_e
            for x in asked:
                assert part.tables[x].tobytes() == full.tables[x].tobytes(), x

    def test_a_pass_reads_only_the_tables_it_was_asked_for(self):
        net = chain3()
        ev = Evidence({"C": "c1"})
        grads = engine_module.derivatives(net, ev, ["B"])
        st = compile(net, ev)
        assert np.allclose(grads.cpt("B"), cpt_derivatives(st, net.cpt("B")), rtol=1e-12, atol=0)
        # the observed variable's posterior needs no table
        assert grads.posterior("C").tolist() == [0.0, 1.0]
        with pytest.raises(ModelError, match="no derivative table for 'A'"):
            grads.posterior("A")
        with pytest.raises(ModelError, match="unknown variable 'Z'"):
            grads.cpt("Z")
        with pytest.raises(ModelError, match="unknown variable 'Z'"):
            engine_module.derivatives(net, ev, ["B", "Z"])

    def test_exact_at_zero_parameters(self):
        # theta(b0 | a0) = 0, yet dPr(c0)/dtheta(b0 | a0) = Pr(a0) Pr(c0 | b0)
        net = chain3()
        net = net.replace_cpts({"B": Cpt(net.var("B"), (net.var("A"),), [0.0, 1.0, 0.6, 0.4])})
        ev = Evidence({"C": "c0"})
        grads = forward_backward(net, ev)
        assert grads.cpt("B")[0, 0] == pytest.approx(0.2 * 0.9, rel=1e-15)

    @pytest.mark.parametrize("observed", [False, True])
    def test_true_edge_marginals_match_posterior_marginal(self, observed):
        net = grid_network(4, 4, rng=np.random.default_rng(42))
        ev = leaf_evidence(net)
        edges = net.edges()[:6]
        if observed:
            # the first deleted edge's parent is observed
            ev = ev.with_added({edges[0][0]: net.var(edges[0][0]).states[1]})
        _, _, plan = approximate_network(net, edges)
        source = forward_backward(net, ev)
        marginals = true_edge_marginals(source, plan)
        st = compile(net, ev)
        assert source.pr_e == pytest.approx(st.pr_e, rel=1e-12, abs=0)
        for rec, got in zip(plan.edges, marginals):
            want = posterior_marginal(st, rec.parent)
            assert np.allclose(got, want, rtol=1e-12, atol=0), rec.parent
        if observed:
            assert marginals[0].tolist() == [0.0, 1.0]

    def test_zero_probability_evidence(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        net = Network([a, b], [Cpt(a, (), [1.0, 0.0]), Cpt(b, (a,), [0.9, 0.1, 0.2, 0.8])])
        _, _, plan = approximate_network(net, [("A", "B")])
        with pytest.raises(InconsistentEvidenceError, match="source network"):
            true_edge_marginals(forward_backward(net, Evidence({"B": "b1", "A": "a1"})), plan)
        # with nothing to read, Pr(e) = 0 is an answer
        empty = DeletionPlan((), ())
        source = forward_backward(net, Evidence({"A": "a1"}))
        assert true_edge_marginals(source, empty) == [] and source.pr_e == 0.0


class TestAdjointGuards:
    def test_corrupted_adjoint_fails_the_euler_check(self, monkeypatch):
        net = grid_network(4, 4, rng=np.random.default_rng(43))
        ev = leaf_evidence(net)
        _, _, plan = approximate_network(net, net.edges()[:3])
        real = engine_module.derivatives

        def corrupted(*args):
            grads = real(*args)
            tables = {name: t * (1 + 1e-6) for name, t in grads.tables.items()}
            return dataclasses.replace(grads, tables=tables)

        monkeypatch.setattr(engine_module, "derivatives", corrupted)
        with pytest.raises(ModelError, match="violates the sum"):
            true_edge_marginals(forward_backward(net, ev), plan)

    def test_non_finite_adjoint_fails_the_euler_check(self):
        net = chain3()
        grads = forward_backward(net, Evidence({}))
        tables = dict(grads.tables)
        tables["B"] = tables["B"] * np.nan
        with pytest.raises(ModelError, match="adjoint of 'B' violates"):
            dataclasses.replace(grads, tables=tables).cpt("B")

    def test_overflow_raises_the_replay_error(self):
        net = overflowing_network()
        with pytest.raises(ModelError, match="numerical overflow in factor product"):
            forward_backward(net, Evidence({}))

    @pytest.mark.parametrize("augmented", [False, True])
    def test_a_pass_past_the_cap_raises_record_s_capacity_error(self, augmented):
        net = grid_network(4, 4, rng=np.random.default_rng(44))
        ev = leaf_evidence(net)
        if augmented:
            net, _, _ = approximate_network(net, net.edges())
        width = engine_module.record(net, ev).width
        with pytest.raises(CapacityError) as want:
            engine_module.record(net, ev, width_cap=width - 1)
        with pytest.raises(CapacityError) as got:
            forward_backward(net, ev, width - 1)
        assert str(got.value) == str(want.value)
        assert forward_backward(net, ev, width).pr_e > 0


def degenerate_instance(net, rng, share, impossible):
    """``net`` with about ``share`` of its CPT rows made deterministic
    (one-hot) and as many given one zero entry, plus evidence on up to three
    variables.  With ``impossible`` set, the first observed variable's rows
    all put their mass on state 0 while it is observed in its last state,
    so Pr(e) = 0."""
    names = [v.name for v in net.variables]
    observed = [names[int(i)] for i in rng.permutation(len(names))[: int(rng.integers(0, 4))]]
    if impossible and not observed:
        observed = [names[int(rng.integers(len(names)))]]
    cpts = {}
    for cpt in net.cpts():
        rows = cpt.shaped.reshape(-1, cpt.child.card).copy()
        for row in rows:
            u = rng.random()
            if u < share:
                row[:] = 0.0
                row[rng.integers(row.size)] = 1.0
            elif u < 2 * share:
                row[rng.integers(row.size)] = 0.0
                row /= row.sum()
        if impossible and cpt.child.name == observed[0]:
            rows[:] = 0.0
            rows[:, 0] = 1.0
        cpts[cpt.child.name] = Cpt(cpt.child, cpt.parents, rows)
    ev = {}
    for i, name in enumerate(observed):
        var = net.var(name)
        ev[name] = var.states[-1] if impossible and i == 0 else var.states[int(rng.integers(var.card))]
    return net.replace_cpts(cpts), Evidence(ev)


class TestAgainstEnumeration:
    """Differential tests against the enumeration oracle on random DAGs of
    2- to 4-state variables, with zero and deterministic CPT rows and
    evidence that may have probability zero."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(1, 6),
        share=st.sampled_from([0.0, 0.2, 0.5]),
        impossible=st.booleans(),
    )
    def test_replay_adjoints_and_map(self, seed, n_vars, share, impossible):
        rng = np.random.default_rng(seed)
        net, ev = degenerate_instance(random_network(rng, n_vars, max_card=4), rng, share, impossible)
        joint = enumerate_joint(net, ev)
        total = joint.total()
        if impossible:
            assert total == 0.0
        tol = dict(rtol=1e-12, atol=1e-15 * total)

        program = engine_module.record(net, ev)
        pr_e = float(engine_module.replay(program)[0])
        assert np.isclose(pr_e, total, **tol)
        assert (pr_e == 0.0) == (total == 0.0)

        grads = forward_backward(net, ev)
        assert np.isclose(grads.pr_e, total, **tol)
        assert (grads.pr_e == 0.0) == (total == 0.0)
        hidden = set(joint.names())
        for v in net.variables:
            cpt = net.cpt(v.name)
            family = [p.name for p in cpt.parents] + [v.name]
            free = [n for n in family if n in hidden]
            want = np.zeros(cpt.shape)
            at = tuple(net.var(n).index_of(ev[n]) if n in ev else slice(None) for n in family)
            want[at] = joint.marginalize_to(set(free)).reorder(free).values
            assert np.allclose(grads.family(v.name), want, **tol), v.name
            if total == 0.0:
                with pytest.raises(InconsistentEvidenceError):
                    grads.posterior(v.name)
            else:
                want = brute_posterior(net, ev, v.name)
                assert np.allclose(grads.posterior(v.name), want, rtol=1e-9, atol=1e-12)

        map_vars = [v.name for v in net.variables if rng.random() < 0.5]
        map_hidden = [n for n in map_vars if n in hidden]
        if total == 0.0:
            with pytest.warns(RuntimeWarning, match="MAP value is zero"):
                m, q = exact_map(net, ev, map_vars)
            assert q == 0.0
        else:
            m, q = exact_map(net, ev, map_vars)
            table = joint.marginalize_to(set(map_hidden)).reorder(map_hidden)
            assert np.isclose(q, table.values.max(), **tol)
            chosen = {n: net.var(n).index_of(m[n]) for n in map_hidden}
            assert np.isclose(table.value_at(chosen), q, **tol)
        assert sorted(m) == sorted(set(map_vars))
        assert all(m[n] == ev[n] for n in map_vars if n in ev)
