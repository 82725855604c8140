import dataclasses

import numpy as np
import pytest

import edgedel.deletion as deletion_module
import edgedel.divergence as divergence_module
import edgedel.engine as engine_module
import edgedel.parametrize as parametrize_module
from edgedel import (
    CapacityError,
    ConditionGaps,
    EdgeParams,
    Evidence,
    FixedPointReport,
    IterationConfig,
    ModelError,
    approximate_network,
    augmented_evidence,
    check_conditions,
    compile,
    cpt_derivatives,
    deleted_records,
    enumerate_joint,
    kl_bound,
    min_fill_order,
    mutual_information_scores,
    posterior_marginal,
    recover_marginals,
    run,
    score_edges,
)
from edgedel.deletion import apply_params
from edgedel.harness import grid_network, run_deletion_instance
from edgedel.divergence import forward_backward
from edgedel.parametrize import _Fit, _sweep, true_edge_marginals

import record_fit_golden as fit_cases
from bp_reference import FactorGraphBP
from conftest import (
    bridged_net,
    count_engine_calls,
    loopy_polytree_net,
    positive_evidence,
    random_network,
    record_refits,
)


def build(net, ev, edges, params=None):
    _, nprime, plan = approximate_network(net, edges, params)
    return nprime, plan, augmented_evidence(nprime, ev)


class TestConfig:
    def test_defaults(self):
        cfg = IterationConfig()
        assert cfg.method == "ed-kl"
        assert cfg.max_iterations == 200
        assert cfg.tolerance == 1e-8
        assert cfg.damping == 0.0
        assert cfg.schedule == "sequential"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "bp"},
            {"schedule": "chaotic"},
            {"damping": 1.0},
            {"tolerance": 0.0},
            {"max_iterations": -1},
            {"initialization": "warm"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ModelError):
            IterationConfig(**kwargs)


class TestFixturePoints:
    def test_uniform_start_is_edkl_fixed_point(self, coins_fixture):
        net, ev = coins_fixture
        nprime, plan, evp = build(net, ev, [("U1", "X1")])
        plan2, report, trace = run(
            nprime, plan, evp, IterationConfig(method="ed-kl"), reference=(net, ev)
        )
        assert report.converged and report.iterations == 1
        assert np.allclose(plan2.params[0].pm, [0.5, 0.5], atol=1e-12)
        assert kl_bound(net, nprime, plan2, ev, evp).total == pytest.approx(0.0, abs=1e-12)

    def test_any_start_is_edbp_fixed_point(self, coins_fixture):
        net, ev = coins_fixture
        nprime, plan, evp = build(net, ev, [("U1", "X1")])
        for theta in (0.3, 0.6, 0.9):
            start = plan.with_params(0, EdgeParams([theta, 1 - theta], [0.5, 0.5]))
            plan2, report, _ = run(
                nprime, start, evp,
                IterationConfig(method="ed-bp", initialization="plan"),
            )
            assert report.converged and report.iterations == 1
            assert np.allclose(plan2.params[0].pm, [theta, 1 - theta], atol=1e-12)

    def test_match_conditions_hold_for_family_but_exact_only_at_uniform(self, coins_fixture):
        net, ev = coins_fixture
        nprime, plan, evp = build(net, ev, [("U1", "X1")])
        for theta in (0.3, 0.5, 0.7, 0.9):
            p = plan.with_params(0, EdgeParams([theta, 1 - theta], [0.5, 0.5]))
            rep = check_conditions(net, nprime, p, ev, evp)
            assert rep.eq_match_gaps[0] <= 1e-12
            if theta == 0.5:
                assert rep.eq_exact_gaps[0] <= 1e-12
            else:
                assert rep.eq_exact_gaps[0] == pytest.approx(abs(theta - 0.5), abs=1e-12)

    def test_edkl_recovers_from_nonuniform_start(self, coins_fixture):
        net, ev = coins_fixture
        nprime, plan, evp = build(net, ev, [("U1", "X1")])
        start = plan.with_params(0, EdgeParams([0.7, 0.3], [0.5, 0.5]))
        plan2, report, _ = run(
            nprime, start, evp,
            IterationConfig(method="ed-kl", initialization="plan"),
            reference=(net, ev),
        )
        assert report.converged
        assert kl_bound(net, nprime, plan2, ev, evp).total == pytest.approx(0.0, abs=1e-10)


class TestRunControl:
    def test_zero_iterations_returns_initial_plan(self, coins_fixture):
        net, ev = coins_fixture
        nprime, plan, evp = build(net, ev, [("U1", "X1")])
        plan2, report, trace = run(
            nprime, plan, evp,
            IterationConfig(method="ed-kl", max_iterations=0),
            reference=(net, ev),
        )
        assert not report.converged
        assert report.iterations == 0
        assert trace == []
        assert plan2.params[0] == plan.params[0]

    def test_empty_plan_is_noop(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, n_vars=5)
        nprime, plan, evp = build(net, Evidence({}), [])
        plan2, report, _ = run(
            nprime, plan, evp, IterationConfig(method="ed-kl"), reference=(net, Evidence({}))
        )
        assert report.converged and report.iterations == 1

    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    @pytest.mark.parametrize("vector", ["pm", "se"])
    def test_wrong_length_vector_raises_before_any_sweep(self, monkeypatch, schedule, vector):
        net, ev, nprime, plan, evp = grid_case(k=2)
        good = plan.params[1]
        bad = EdgeParams(np.full(3, 1 / 3), good.se) if vector == "pm" else (
            EdgeParams(good.pm, np.full(3, 0.5))
        )
        plan = plan.with_params(1, bad)
        calls = count_engine_calls(monkeypatch, ["_bind", "replay", "derivatives"])
        cfg = IterationConfig(method="ed-kl", schedule=schedule, initialization="plan")
        with pytest.raises(ModelError, match="^parameters for N0_1 -> N0_2 have the wrong length$"):
            run(nprime, plan, evp, cfg, reference=(net, ev))
        assert calls == {"_bind": 0, "replay": 0, "derivatives": 0}

    def test_edkl_without_reference_rejected(self):
        rng = np.random.default_rng(1)
        net = random_network(rng, n_vars=5)
        edges = net.edges()[:1]
        nprime, plan, evp = build(net, Evidence({}), edges)
        with pytest.raises(ModelError):
            run(nprime, plan, evp, IterationConfig(method="ed-kl"))

    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    def test_edbp_refuses_zero_probability_evidence_as_edkl_does(self, schedule):
        # X2 is never s1, so Pr'(e') is 0 at every parameter: with no
        # reference, ed-bp raises ed-kl's error, not a degenerate update's
        from edgedel import Cpt, InconsistentEvidenceError
        from edgedel.harness import chain_network

        net = chain_network(3, rng=np.random.default_rng(0))
        x2 = net.cpt("X2")
        net = net.replace_cpts({"X2": Cpt(x2.child, x2.parents, [1, 0, 1, 0])})
        nprime, plan, evp = build(net, Evidence({"X2": "s1"}), [("X1", "X2")])
        cfg = IterationConfig(method="ed-bp", schedule=schedule)
        fault = "^approximate network assigns zero probability to the augmented evidence$"
        with pytest.raises(InconsistentEvidenceError, match=fault):
            run(nprime, plan, evp, cfg)

    def test_trace_records_residual_and_bound(self):
        rng = np.random.default_rng(2)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        edges = net.edges()[:2]
        nprime, plan, evp = build(net, ev, edges)
        _, report, trace = run(
            nprime, plan, evp, IterationConfig(method="ed-kl"), reference=(net, ev)
        )
        assert len(trace) == report.iterations
        assert all(t.kl_bound is not None for t in trace)
        assert trace[-1].residual < 1e-8

    def test_damping_still_converges(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        edges = net.edges()[:1]
        nprime, plan, evp = build(net, ev, edges)
        _, report, _ = run(
            nprime, plan, evp,
            IterationConfig(method="ed-kl", damping=0.3, max_iterations=400),
            reference=(net, ev),
        )
        assert report.converged

    def test_single_steps_match_run_sweeps(self):
        # two chained one-sweep runs are one two-sweep run; the tolerance
        # keeps the longer run from stopping after its first sweep
        rng = np.random.default_rng(4)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        edges = net.edges()[:2]
        nprime, plan, evp = build(net, ev, edges)
        for method in ("ed-kl", "ed-bp"):
            for schedule in ("sequential", "simultaneous"):
                cfg = IterationConfig(
                    method=method, schedule=schedule, tolerance=1e-300,
                    max_iterations=1, initialization="plan",
                )
                stepped = plan
                for _ in range(2):
                    stepped, _, _ = run(nprime, stepped, evp, cfg, reference=(net, ev))
                ran, report, _ = run(
                    nprime, plan, evp, dataclasses.replace(cfg, max_iterations=2),
                    reference=(net, ev),
                )
                assert report.iterations == 2
                assert stepped.params == ran.params


class TestFixedPointGuarantees:
    def test_converged_edkl_matches_true_marginals(self):
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(12):
            net = random_network(rng, n_vars=7)
            ev = positive_evidence(net, rng)
            edges = net.edges()
            if len(edges) < 2:
                continue
            take = [edges[int(i)] for i in rng.choice(len(edges), size=2, replace=False)]
            nprime, plan, evp = build(net, ev, take)
            plan2, report, _ = run(
                nprime, plan, evp,
                IterationConfig(method="ed-kl", tolerance=1e-8, max_iterations=300),
                reference=(net, ev),
            )
            if not report.converged:
                continue
            hits += 1
            rep = check_conditions(net, nprime, plan2, ev, evp)
            assert max(rep.eq_exact_gaps) <= 100 * 1e-8
        assert hits >= 8

    def test_stationarity_probe_where_exact_gaps_vanish(self):
        rng = np.random.default_rng(6)
        probes = 0
        for _ in range(6):
            net = random_network(rng, n_vars=6)
            ev = positive_evidence(net, rng)
            edges = net.edges()
            if not edges:
                continue
            nprime, plan, evp = build(net, ev, edges[:1])
            plan2, report, _ = run(
                nprime, plan, evp,
                IterationConfig(method="ed-kl", tolerance=1e-13, max_iterations=500),
                reference=(net, ev),
            )
            rep = check_conditions(net, nprime, plan2, ev, evp)
            if max(rep.eq_exact_gaps) > 1e-9:
                continue
            probes += 1
            base = kl_bound(net, nprime, plan2, ev, evp).total
            h = 1e-8
            params = plan2.params[0]
            for j in range(params.pm.size):
                direction = -params.pm.copy()
                direction[j] += 1.0
                moved = plan2.with_params(
                    0, EdgeParams(params.pm + h * direction, params.se)
                )
                shifted = kl_bound(net, nprime, moved, ev, evp).total
                assert abs(shifted - base) <= 1e-6 * h + 5e-15
        assert probes >= 3

    def test_edbp_matches_independent_bp_messages(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(6):
            net, extras = loopy_polytree_net(rng, n_vars=6, extra_edges=1)
            if not extras:
                continue
            leaves = net.leaves()
            ev = Evidence({leaves[0]: net.var(leaves[0]).states[0]}) if leaves else Evidence({})
            nprime, plan, evp = build(net, ev, extras)
            oracle = FactorGraphBP(net, ev, extras)
            one_sweep = IterationConfig(
                method="ed-bp", schedule="simultaneous", max_iterations=1,
                initialization="plan",
            )
            for _sweep in range(8):
                plan, _, _ = run(nprime, plan, evp, one_sweep)
                oracle.outer_iteration()
                pm_msg, se_msg = oracle.cross_messages(*extras[0])
                assert np.allclose(plan.params[0].pm, pm_msg, atol=1e-9)
                assert np.allclose(plan.params[0].se, se_msg, atol=1e-9)
            checked += 1
        assert checked >= 4

    def test_disconnecting_edge_gives_exact_marginals(self):
        rng = np.random.default_rng(8)
        net, bridge = bridged_net(rng)
        ev = Evidence({"A0": "1", "B2": "0"})
        nprime, plan, evp = build(net, ev, [bridge])
        plan2, report, _ = run(nprime, plan, evp, IterationConfig(method="ed-bp"))
        assert report.converged
        exact = compile(net, ev)
        st = compile(apply_params(nprime, plan2), evp)
        for v in net.variables:
            assert np.allclose(
                posterior_marginal(st, v.name),
                posterior_marginal(exact, v.name),
                atol=1e-9,
            )


def grid_case(k=4, seed=0):
    """grid(4x4) with leaf evidence and its first k edges deleted."""
    net = grid_network(4, 4, rng=np.random.default_rng(seed))
    ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
    return (net, ev) + build(net, ev, net.edges()[:k])


def oracle_sweep(nprime, plan, evp, method, true_marginals, sequential):
    """One sweep with every derivative from compile + cpt_derivatives."""
    start = plan

    def evaluate(p, rec):
        st = compile(apply_params(nprime, p), evp)
        d_pm = cpt_derivatives(st, st.net.cpt(rec.clone))
        d_se = cpt_derivatives(st, st.net.cpt(rec.sevid))[:, 0]
        return st.pr_e, d_pm, d_se

    def rule(pr, own, cross, tm):
        new = cross if method == "ed-bp" else tm * pr / own
        return new / new.sum()

    for i, rec in enumerate(deleted_records(nprime, plan)):
        tm = true_marginals[i] if true_marginals is not None else None
        old = plan.params[i]
        pr, d_pm, d_se = evaluate(plan if sequential else start, rec)
        pm = rule(pr, d_pm, d_se, tm)
        if sequential:
            pr, d_pm, d_se = evaluate(plan.with_params(i, EdgeParams(pm, old.se)), rec)
        plan = plan.with_params(i, EdgeParams(pm, rule(pr, d_se, d_pm, tm)))
    return plan


class TestEdgeTableSweep:
    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    @pytest.mark.parametrize("method", ["ed-kl", "ed-bp"])
    def test_step_matches_oracle_sweep(self, method, schedule):
        net, ev, nprime, plan, evp = grid_case(k=5, seed=1)
        rng = np.random.default_rng(2)
        plan = plan.with_all_params(
            EdgeParams(rng.dirichlet([1.0, 1.0]), rng.uniform(0.1, 0.9, 2)) for _ in plan.edges
        )
        tm = true_edge_marginals(forward_backward(net, ev), plan)
        got, _, _ = run(
            nprime, plan, evp,
            IterationConfig(
                method=method, schedule=schedule, max_iterations=1, initialization="plan"
            ),
            reference=(net, ev),
        )
        want = oracle_sweep(
            nprime, plan, evp, method, tm if method == "ed-kl" else None,
            schedule == "sequential",
        )
        for a, b in zip(got.params, want.params):
            assert np.allclose(a.pm, b.pm, rtol=0, atol=1e-12)
            assert np.allclose(a.se, b.se, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    def test_trace_bound_matches_kl_bound(self, schedule):
        net, ev, nprime, plan, evp = grid_case(k=4, seed=3)
        for max_iterations in (1, 3):
            cfg = IterationConfig(method="ed-kl", schedule=schedule, max_iterations=max_iterations)
            plan2, _, trace = run(nprime, plan, evp, cfg, reference=(net, ev))
            want = kl_bound(net, nprime, plan2, ev, evp).total
            assert trace[-1].kl_bound == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_corrupted_edge_table_fails_chain_check(self, monkeypatch, schedule, k):
        # sequential: the second edge table read off the jointree is
        # corrupted, and with k = 1 the mismatch shows only against the
        # previous sweep; simultaneous: the last edge's second dPr'/dpm
        # read, then, in a second run, its second dPr'/dse read, each checked
        # against the Pr'(e') read off the tree after the first sweep
        net, ev, nprime, plan, evp = grid_case(k=k, seed=4)
        # the source pass reads its own tree, so it is made before the
        # corruption
        source = forward_backward(net, ev)
        real_table = engine_module.Jointree.table
        targets = [None] if schedule == "sequential" else [2 * k - 2, 2 * k - 1]
        cfg = IterationConfig(method="ed-kl", schedule=schedule)
        for target in targets:
            reads = []

            def corrupted(tree, j, target=target, reads=reads):
                g = real_table(tree, j)
                if target in (None, j):
                    reads.append(j)
                    if len(reads) == 2:
                        g = g * (1 + 1e-6)
                return g

            monkeypatch.setattr(engine_module.Jointree, "table", corrupted)
            with pytest.raises(ModelError, match="edge table"):
                run(nprime, plan, evp, cfg, reference=source)
            assert len(reads) == 2


class TestBoundSlots:
    """Writing new edge vectors into the fit's jointree (``_Fit.set``, at
    construction or later) gives the very input tables ``record`` reads off
    N' rebuilt with them (``apply_params``), in either schedule's tree."""

    @pytest.mark.parametrize("evidence", ["augmented", "observed-parent"])
    def test_written_tables_are_the_rebuilt_network_s(self, evidence):
        net, ev, nprime, plan, evp = grid_case(k=3, seed=5)
        records = deleted_records(nprime, plan)
        if evidence == "observed-parent":
            evp = evp.with_added({records[1].parent: "s1"})
        rng = np.random.default_rng(6)
        new = plan.with_all_params(
            EdgeParams(rng.dirichlet([1.0, 1.0]), rng.uniform(0.1, 0.9, 2)) for _ in plan.edges
        )
        # edge 0 starts at its new vectors, so construction writes them; the
        # other edges are set afterwards
        start = [(p.pm, p.se) for p in (new.params[0],) + plan.params[1:]]
        for sequential in (True, False):
            fit = _Fit(
                nprime, evp, records, start, sequential, engine_module.WIDTH_CAP_DEFAULT
            )
            for j, params in enumerate(new.params[1:], start=1):
                fit.set(j, params.pm, params.se)
            tables = fit.tree.bound[: len(fit.tree.inputs)]
            want = engine_module.record(apply_params(nprime, new), evp).bound
            assert [t.shape for t in tables] == [w.shape for w in want]
            assert [t.tobytes() for t in tables] == [w.tobytes() for w in want]


def count_tree_writes(monkeypatch):
    """Record every ``Jointree`` write (``set_input``) as (variable, input
    shape); returns the live list."""
    writes = []
    real = engine_module.Jointree.set_input

    def writing(tree, name, table):
        writes.append((name, table.shape))
        return real(tree, name, table)

    monkeypatch.setattr(engine_module.Jointree, "set_input", writing)
    return writes


class TestStartWrites:
    """A fit writes every start vector into its tree, and each sweep every
    edge's new vectors: each clone prior as ``pm`` and each soft-evidence
    input as ``se`` alone."""

    @pytest.mark.parametrize("method", ["ed-kl", "ed-bp"])
    @pytest.mark.parametrize("selection", ["rand", "guided"])
    def test_a_harness_cell_writes_each_edge_as_pm_and_se(self, monkeypatch, method, selection):
        # a cell's N' is built from the plan it fits from: uniform, or the
        # guided scores' parameters
        net, ev = grid_case()[:2]
        scores = score_edges(net, ev)[:4]
        edges = [(s.parent, s.child) for s in scores] if selection == "guided" else net.edges()[:4]
        warm = [s.params for s in scores] if selection == "guided" else None
        writes = count_tree_writes(monkeypatch)
        outcome = run_deletion_instance(net, ev, edges, method, warm_params=warm)
        assert outcome.row.iterations > 1
        # the start, then each sweep, writes each edge's two inputs: the
        # prior as pm, the soft evidence as se
        nprime = approximate_network(net, edges, warm)[1]
        per_edge = [w for rec in deleted_records(nprime, outcome.plan)
                    for w in ((rec.clone, (2,)), (rec.sevid, (2,)))]
        assert writes == per_edge * (outcome.row.iterations + 1)

    def test_a_fit_writes_every_start_vector(self, monkeypatch):
        net, ev, nprime, plan, evp = grid_case(k=3, seed=5)
        records = deleted_records(nprime, plan)
        vectors = [(p.pm, p.se) for p in plan.params]
        per_edge = [w for rec in records for w in ((rec.clone, (2,)), (rec.sevid, (2,)))]
        writes = count_tree_writes(monkeypatch)
        cap = engine_module.WIDTH_CAP_DEFAULT
        # N''s own vectors, then a new prior or a new row alone
        _Fit(nprime, evp, records, vectors, True, cap)
        vectors[0] = (np.array([0.3, 0.7]), vectors[0][1])
        vectors[2] = (vectors[2][0], np.array([0.25, 0.75]))
        _Fit(nprime, evp, records, vectors, True, cap)
        assert writes == per_edge * 2

    @pytest.mark.parametrize("method", ["ed-kl", "ed-bp"])
    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    def test_a_fit_is_the_same_whatever_vectors_nprime_was_built_with(self, method, schedule):
        # why a start vector is written unchecked: a run from one plan gives
        # the same bits on an N' built with that plan's vectors as on one
        # built with others
        net, ev = grid_case()[:2]
        scores = score_edges(net, ev)[:4]
        edges = [(s.parent, s.child) for s in scores]
        _, guided, warm = approximate_network(net, edges, [s.params for s in scores])
        _, uniform, cold = approximate_network(net, edges)
        evp = augmented_evidence(uniform, ev)
        cfg = IterationConfig(
            method=method, schedule=schedule, max_iterations=5, initialization="plan"
        )

        def bits(nprime, plan):
            fitted, report, trace = run(nprime, plan, evp, cfg, reference=(net, ev))
            vectors = [(p.pm.tobytes(), p.se.tobytes()) for p in fitted.params]
            return vectors, report.residuals, report.pr_ep.hex(), trace

        for plan in (cold, warm):
            assert bits(uniform, plan) == bits(guided, plan)
        assert bits(uniform, cold) != bits(uniform, warm)


class TestWorkCounts:
    """Eliminations per unit of work on grid(4x4), k = 4.

    These pin the engine work; a change that alters them should mean to.
    """

    @pytest.mark.parametrize("sequential", [True, False])
    def test_one_elimination_per_edge_per_sweep(self, monkeypatch, sequential):
        # one jointree, ordered and bound once, in either schedule;
        # sequential: one table read off it per edge; simultaneous: each
        # edge's dPr'/dpm and dPr'/dse, all read before any write
        net, ev, nprime, plan, evp = grid_case(k=4)
        tm = true_edge_marginals(forward_backward(net, ev), plan)
        names = [
            "compile", "cpt_derivatives", "record", "_order", "replay", "derivatives", "_bind",
        ]
        calls = count_engine_calls(monkeypatch, names)
        reads = []
        real_table = engine_module.Jointree.table

        def table(tree, j):
            reads.append(j)
            return real_table(tree, j)

        monkeypatch.setattr(engine_module.Jointree, "table", table)
        vectors = [(p.pm, p.se) for p in plan.params]
        fit = _Fit(
            nprime, evp, deleted_records(nprime, plan), vectors, sequential,
            engine_module.WIDTH_CAP_DEFAULT,
        )
        _sweep(fit, "ed-kl", tm, 0.0, sequential)
        assert reads == (list(range(4)) if sequential else list(range(8)))
        assert calls == {**dict.fromkeys(names, 0), "_order": 1, "_bind": 1}

    @pytest.mark.parametrize("method", ["ed-kl", "ed-bp"])
    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    def test_one_edge_evaluation_per_sequential_update(self, monkeypatch, method, schedule):
        # a sequential update reads Pr'(e') and both derivative vectors off
        # its edge table once, and edge_update takes those reads; a
        # simultaneous one reads them off the tree and evaluates nothing
        net, ev, nprime, plan, evp = grid_case(k=4)
        evaluations, updates = [], []
        for name, log in (("single_edge_evaluate", evaluations), ("edge_update", updates)):
            real = getattr(parametrize_module, name)

            def counting(*args, _real=real, _log=log, **kwargs):
                _log.append(args)
                return _real(*args, **kwargs)

            monkeypatch.setattr(parametrize_module, name, counting)
        cfg = IterationConfig(method=method, schedule=schedule, max_iterations=3)
        _, report, _ = run(nprime, plan, evp, cfg, reference=(net, ev))
        assert len(updates) == report.iterations * len(plan) > 0
        assert len(evaluations) == (len(updates) if schedule == "sequential" else 0)

    @pytest.mark.parametrize("sequential", [True, False])
    def test_a_second_tree_of_one_structure_orders_nothing(self, monkeypatch, sequential):
        # the second fit's tree reuses the first's kept structure: no
        # order, and its own inputs bound once
        net, ev, nprime, plan, evp = grid_case(k=4)
        records = deleted_records(nprime, plan)
        vectors = [(p.pm, p.se) for p in plan.params]
        cap = engine_module.WIDTH_CAP_DEFAULT
        _Fit(nprime, evp, records, vectors, sequential, cap)
        calls = count_engine_calls(monkeypatch, ["_order", "_bind"])
        other, other_plan, other_evp = build(*grid_case(k=4, seed=1)[:2], net.edges()[:4])
        fit = _Fit(
            other, other_evp, deleted_records(other, other_plan),
            [(p.pm, p.se) for p in other_plan.params], sequential, cap,
        )
        assert calls == {"_order": 0, "_bind": 1}
        assert fit.tree.sent == 0

    def test_a_second_cell_on_the_same_nprime_orders_nothing(self, monkeypatch):
        # the ed-kl and ed-bp cells of one selection and k build the same
        # N': the second reuses its tree, its source pass's recording and
        # the row's min-fill width
        net, ev = grid_case(k=4)[:2]
        first = run_deletion_instance(net, ev, net.edges()[:4], "ed-kl")
        calls = count_engine_calls(monkeypatch, ["_order"])
        second = run_deletion_instance(net, ev, net.edges()[:4], "ed-bp")
        assert calls == {"_order": 0}
        width = first.row.constrained_treewidth
        assert second.row.constrained_treewidth == width
        engine_module._structures.clear()
        assert min_fill_order(approximate_network(net, net.edges()[:4])[1]).width == width

    @staticmethod
    def messages_per_sweep(sequential):
        """Messages sent by each of four sweeps on grid(4x4), k = 4, and by
        the Pr'(e') read after each where the sweep leaves it unknown (as a
        run with a KL bound reads it)."""
        net, ev, nprime, plan, evp = grid_case(k=4)
        tm = true_edge_marginals(forward_backward(net, ev), plan)
        vectors = [(p.pm, p.se) for p in plan.params]
        fit = _Fit(
            nprime, evp, deleted_records(nprime, plan), vectors, sequential,
            engine_module.WIDTH_CAP_DEFAULT,
        )
        assert fit.tree.sent == 0
        sent, pr_ep = [], None
        for _ in range(4):
            before = fit.tree.sent
            _, pr_ep = _sweep(fit, "ed-kl", tm, 0.0, sequential, pr_ep)
            swept = fit.tree.sent
            if pr_ep is None:
                pr_ep = fit.pr_ep()
            sent.append((swept - before, fit.tree.sent - swept))
        return sent

    def test_sequential_sweeps_resend_only_stale_messages(self):
        # the tree has 19 cliques and 36 messages; the first sweep sends 33,
        # and every later one only those on the paths from each edge's home
        # clique to the next edge's: 18, against the 4 x 17 buckets of the
        # four per-edge eliminations it replaces; the chain gives Pr'(e')
        assert self.messages_per_sweep(True) == [(33, 0)] + [(18, 0)] * 3

    def test_simultaneous_sweeps_resend_only_stale_messages(self):
        # 19 cliques and 36 messages here too: the first sweep's reads send
        # all 36; the Pr'(e') read after each sweep sends the 18 toward the
        # root, and the next sweep's reads only the other 18
        assert self.messages_per_sweep(False) == [(36, 18)] + [(18, 18)] * 3

    @pytest.mark.parametrize("sequential", [True, False])
    def test_sweeps_never_call_np_einsum(self, monkeypatch, sequential):
        # every message and query table is numpy's C einsum, called without
        # the np.einsum wrapper; the tree still sends the pinned messages
        net, ev, nprime, plan, evp = grid_case(k=4)
        tm = true_edge_marginals(forward_backward(net, ev), plan)

        def refused(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(np, "einsum", refused)
        fit = _Fit(
            nprime, evp, deleted_records(nprime, plan), [(p.pm, p.se) for p in plan.params],
            sequential, engine_module.WIDTH_CAP_DEFAULT,
        )
        pr_ep = None
        for _ in range(4):
            _, pr_ep = _sweep(fit, "ed-kl", tm, 0.0, sequential, pr_ep)
            if pr_ep is None:
                pr_ep = fit.pr_ep()
        # the counts of messages_per_sweep, summed
        assert fit.tree.sent == (33 + 3 * 18 if sequential else 36 + 7 * 18)

    @pytest.mark.parametrize("sequential", [True, False])
    def test_each_edge_write_forgets_its_home_s_messages_once(self, sequential):
        # an edge's clone prior and soft-evidence inputs sit in their
        # queries' homes, one clique in sequential mode; writing both
        # forgets the messages leaving each home once (a second stale loop
        # into one home would forget each of them again)
        net, ev, nprime, plan, evp = grid_case(k=4)
        records = deleted_records(nprime, plan)
        fit = _Fit(
            nprime, evp, records, [(p.pm, p.se) for p in plan.params], sequential,
            engine_module.WIDTH_CAP_DEFAULT,
        )
        tree = fit.tree

        class Forgetting(list):
            forgot = 0

            def __setitem__(self, i, value):
                self.forgot += value is None
                super().__setitem__(i, value)

        tree.bound = Forgetting(tree.bound)
        new = EdgeParams.uniform(2)
        for j, rec in enumerate(records):
            for q in range(len(tree._plan.queries)):
                tree.table(q)
            homes = {tree._plan.holder[tree.cpt_inputs[name]] for name in (rec.clone, rec.sevid)}
            assert len(homes) == (1 if sequential else 2)
            before = tree.bound.forgot
            fit.set(j, new.pm, new.se)
            forgot = sum(len(tree._plan.stale[home]) for home in homes)
            assert tree.bound.forgot - before == forgot > 0

    def test_an_empty_plan_builds_a_pr_ep_only_tree(self, monkeypatch):
        # a k = 0 cell builds the source pass's tree and N''s Pr'(e')-only
        # tree, and records no program; its row reads exactly 0 off the
        # source pass's Pr(e); a too-wide N' is refused by that tree, at the
        # cap and with its message
        net, ev = grid_case()[:2]
        nprime, plan, evp = build(net, ev, [])
        width = engine_module.Jointree(nprime, evp, [((), ())]).width
        with pytest.raises(CapacityError) as tree_refused:
            engine_module.Jointree(nprime, evp, [((), ())], width - 1)
        builds = []
        real = engine_module.Jointree.__init__

        def building(tree, *args, **kwargs):
            builds.append(args)
            return real(tree, *args, **kwargs)

        monkeypatch.setattr(engine_module.Jointree, "__init__", building)
        calls = count_engine_calls(monkeypatch, ["record"])
        outcome = run_deletion_instance(net, ev, [], "ed-kl")
        assert outcome.row.kl_bound == outcome.row.exact_kl == 0.0
        assert [args[0].kind for args in builds] == ["original", "original"]
        assert builds[0][0] is net and builds[1][0] is nprime is net
        assert list(builds[1][2]) == [((), ())]
        assert calls == {"record": 0}
        builds.clear()
        cfg = IterationConfig(method="ed-bp", max_iterations=0)
        with pytest.raises(CapacityError) as refused:
            run(nprime, plan, evp, cfg, width_cap=width - 1)
        assert str(refused.value) == str(tree_refused.value)
        assert str(refused.value) == f"induced width {width} exceeds the cap of {width - 1}"
        run(nprime, plan, evp, cfg, width_cap=width)
        assert [(args[0], list(args[2])) for args in builds] == [(nprime, [((), ())])] * 2
        assert calls == {"record": 0}

    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    def test_run_records_each_edge_program_once(self, monkeypatch, schedule):
        net, ev, nprime, plan, evp = grid_case(k=4)
        names = [
            "compile", "posterior_marginal", "record", "_order", "replay", "derivatives",
            "_bind",
        ]
        calls = count_engine_calls(monkeypatch, names)
        source = divergence_module.source_pass(net, ev)
        own = dict(calls)
        # the source pass: one tree, ordered and bound once, and no recording
        assert own == {
            **dict.fromkeys(names, 0),
            "_order": 1, "derivatives": 1, "_bind": 1,
        }
        # scoring reads the kept pass and makes none of its own
        score_edges(net, ev)
        assert calls["derivatives"] == own["derivatives"]
        builds = []
        real = engine_module.Jointree.__init__

        def building(tree, *args, **kwargs):
            builds.append(args[0])
            return real(tree, *args, **kwargs)

        monkeypatch.setattr(engine_module.Jointree, "__init__", building)
        cfg = IterationConfig(method="ed-kl", schedule=schedule, max_iterations=3)
        before = dict(calls)
        _, report, _ = run(nprime, plan, evp, cfg, reference=(net, ev))
        assert report.iterations == 3 and report.source is source
        got = {name: calls[name] - before[name] for name in calls}
        # given (net, ev) after scoring, run reads the pass scoring kept
        # and builds no tree but its own: in either schedule, one jointree
        # of N', one order and one binding, and no recording, replay or
        # pass
        assert builds == [nprime]
        assert got == {**dict.fromkeys(names, 0), "_order": 1, "_bind": 1}
        # given the pass itself, run makes none either, and its tree's
        # structure is kept too
        before = dict(calls)
        _, given, _ = run(nprime, plan, evp, cfg, reference=source)
        assert given.source is source and given.pr_ep == report.pr_ep
        got = {name: calls[name] - before[name] for name in calls}
        assert got == {**dict.fromkeys(names, 0), "_bind": 1}
        assert builds == [nprime, nprime]

    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    def test_run_records_nothing(self, monkeypatch, schedule):
        # no run compiles or records: the source pass and N' are read
        # through jointrees only
        net, ev, nprime, plan, evp = grid_case(k=4)
        calls = count_engine_calls(monkeypatch, ["compile"])
        real_record = engine_module.record
        recorded = []

        def recording(net, *args, **kwargs):
            program = real_record(net, *args, **kwargs)
            recorded.append((net.kind, program.shape))
            return program

        monkeypatch.setattr(engine_module, "record", recording)
        cfg = IterationConfig(method="ed-kl", schedule=schedule, max_iterations=3)
        _, report, _ = run(nprime, plan, evp, cfg, reference=(net, ev))
        assert report.iterations == 3
        assert calls == {"compile": 0}
        assert recorded == []

    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    def test_sweeps_after_the_first_bind_nothing(self, monkeypatch, schedule):
        # building the fit orders and binds the one jointree its sweeps
        # read, recording nothing; a sweep only writes edge vectors into
        # the tree, so no sweep orders, records, binds, replays, runs a
        # pass or builds N' (apply_params)
        net, ev, nprime, plan, evp = grid_case(k=4)
        names = ["_bind", "record", "_order", "replay", "derivatives"]
        calls = count_engine_calls(monkeypatch, names)
        applied = []
        for module in (parametrize_module, deletion_module, divergence_module):
            real = module.apply_params

            def counting(*args, _real=real, **kwargs):
                applied.append(1)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "apply_params", counting)

        def mark():
            return {**calls, "apply_params": len(applied)}

        built, starts = [], []
        real_fit, real_sweep = parametrize_module._Fit, parametrize_module._sweep

        def fit(*args, **kwargs):
            before = mark()
            out = real_fit(*args, **kwargs)
            built.append({n: v - before[n] for n, v in mark().items()})
            return out

        def sweep(*args, **kwargs):
            starts.append(mark())
            return real_sweep(*args, **kwargs)

        monkeypatch.setattr(parametrize_module, "_Fit", fit)
        monkeypatch.setattr(parametrize_module, "_sweep", sweep)
        cfg = IterationConfig(method="ed-kl", schedule=schedule, max_iterations=3)
        _, report, _ = run(nprime, plan, evp, cfg, reference=(net, ev))
        assert report.iterations == 3
        marks = starts + [mark()]
        per_sweep = [{n: b[n] - a[n] for n in a} for a, b in zip(marks, marks[1:])]
        none = dict.fromkeys(names + ["apply_params"], 0)
        assert built == [{**none, "_bind": 1, "_order": 1}]
        assert per_sweep == [none] * 3

    def test_simultaneous_sweeps_without_a_reference_run_one_pass_each(self, monkeypatch):
        # with no reference there is no KL bound, so no sweep reads the
        # tree's Pr'(e') query: each reads its eight derivative vectors,
        # sending every message once, one pass over the tree
        net, ev, nprime, plan, evp = grid_case(k=4)
        reads, trees = [], []
        real_table = engine_module.Jointree.table

        def table(tree, j):
            reads.append(j)
            trees.append(tree)
            return real_table(tree, j)

        monkeypatch.setattr(engine_module.Jointree, "table", table)
        cfg = IterationConfig(method="ed-bp", schedule="simultaneous", max_iterations=3)
        _, report, trace = run(nprime, plan, evp, cfg)
        assert report.iterations == 3 and [t.kl_bound for t in trace] == [None] * 3
        assert reads == list(range(8)) * 3
        assert trees[0].sent == 3 * 36

    def test_check_conditions_reads_posteriors_off_two_passes(self, monkeypatch):
        net, ev, nprime, plan, evp = grid_case(k=4)
        calls = count_engine_calls(monkeypatch, ["compile", "posterior_marginal", "derivatives"])
        check_conditions(net, nprime, plan, ev, evp)
        # one pass on the source network, one on N'
        assert calls == {"compile": 0, "posterior_marginal": 0, "derivatives": 2}

    def test_recover_marginals_reads_one_pass(self, monkeypatch):
        net, ev, nprime, plan, evp = grid_case(k=4)
        st = engine_module.compile(nprime, evp)
        names = ["compile", "record", "_bind", "posterior_marginal", "derivatives"]
        calls = count_engine_calls(monkeypatch, names)
        recover_marginals(nprime, plan, st)
        # one pass on the state's network and evidence: one tree, which
        # reads N''s tables once, and nothing recorded
        want = {"compile": 0, "record": 0, "_bind": 1, "posterior_marginal": 0, "derivatives": 1}
        assert calls == want

    def test_mutual_information_scores_read_one_pass(self, monkeypatch):
        net, ev, *_ = grid_case(k=4)
        calls = count_engine_calls(monkeypatch, ["compile", "pairwise_marginal", "derivatives"])
        mutual_information_scores(net, ev)
        assert calls == {"compile": 0, "pairwise_marginal": 0, "derivatives": 1}

    def test_score_edges_reads_posteriors_from_derivative_tables(self, monkeypatch):
        net, ev, *_ = grid_case(k=4)
        names = ["compile", "derivatives", "cpt_derivatives", "posterior_marginal"]
        refits = record_refits(monkeypatch)
        calls = count_engine_calls(monkeypatch, names)
        score_edges(net, ev)
        # one pass gives every clone table; only the root's two
        # mathematically tied out-edges take their own derivative table,
        # in one refit
        want = {"compile": 0, "derivatives": 1, "cpt_derivatives": 0, "posterior_marginal": 0}
        assert calls == want
        assert [len(wrt) for wrt, _, _ in refits] == [2]


def enumerated_posterior(net, ev, name):
    if name in ev:
        out = np.zeros(net.var(name).card)
        out[net.var(name).index_of(ev[name])] = 1.0
        return out
    joint = enumerate_joint(net, ev)
    return joint.marginalize_to({name}).values / joint.total()


def compiled_posterior(net, ev, name):
    return posterior_marginal(compile(net, ev), name)


class TestCheckConditionsAgreement:
    """The gaps read off two adjoint passes match the gaps from one query
    per posterior, on the same definitions."""

    @staticmethod
    def reference_gaps(net, nprime, plan, ev, evp, posterior):
        current = apply_params(nprime, plan)
        match, exact = [], []
        for rec, params in zip(deleted_records(nprime, plan), plan.params):
            pu = posterior(current, evp, rec.parent)
            puc = posterior(current, evp, rec.clone)
            pu_r = posterior(current, evp.without(rec.sevid), rec.parent)
            true = posterior(net, ev, rec.parent)
            match.append(max(np.max(np.abs(pu - puc)), np.max(np.abs(pu_r - params.pm))))
            exact.append(max(np.max(np.abs(pu - true)), np.max(np.abs(puc - true))))
        return match, exact

    @pytest.mark.parametrize("observed", [False, True])
    @pytest.mark.parametrize("posterior", [compiled_posterior, enumerated_posterior])
    def test_gaps_match_single_queries(self, observed, posterior):
        net = grid_network(3, 3, rng=np.random.default_rng(5))
        ev = Evidence({"N2_2": "s0"})
        edges = net.edges()[:4]
        if observed:
            # the parent of the first deleted edge is observed
            ev = ev.with_added({edges[0][0]: "s1"})
        nprime, plan, evp = build(net, ev, edges)
        cfg = IterationConfig(method="ed-kl", max_iterations=2)
        plan, _, _ = run(nprime, plan, evp, cfg, reference=(net, ev))
        gaps = check_conditions(net, nprime, plan, ev, evp)
        match, exact = self.reference_gaps(net, nprime, plan, ev, evp, posterior)
        assert np.allclose(gaps.eq_match_gaps, match, rtol=0, atol=1e-12)
        assert np.allclose(gaps.eq_exact_gaps, exact, rtol=0, atol=1e-12)
        assert max(gaps.eq_match_gaps) > 1e-6


class TestReportTypes:
    def test_run_and_check_conditions_each_fill_their_own_type(self):
        net, ev, nprime, plan, evp = grid_case(k=2)
        cfg = IterationConfig(method="ed-kl", max_iterations=2)
        plan2, report, _ = run(nprime, plan, evp, cfg, reference=(net, ev))
        gaps = check_conditions(net, nprime, plan2, ev, evp)
        assert isinstance(report, FixedPointReport)
        fields = [f.name for f in dataclasses.fields(report)]
        assert fields == ["residuals", "iterations", "converged", "source", "pr_ep"]
        assert len(report.residuals) == 2 and report.iterations == 2
        # the source pass the fit read its true posteriors off, handed back:
        # the pass on the source network
        assert report.source.pr_e == divergence_module.source_pass(net, ev).pr_e
        assert report.source.net is net
        cfg = IterationConfig(method="ed-bp", max_iterations=2)
        _, unreferenced, _ = run(nprime, plan, evp, cfg)
        assert unreferenced.source is None and unreferenced.pr_ep is None
        assert isinstance(gaps, ConditionGaps)
        assert [f.name for f in dataclasses.fields(gaps)] == ["eq_match_gaps", "eq_exact_gaps"]
        assert len(gaps.eq_match_gaps) == len(gaps.eq_exact_gaps) == 2


class TestFitPrEp:
    """``FixedPointReport.pr_ep`` is Pr'(e') at the returned plan's
    parameters, and the value the last KL bound used."""

    @staticmethod
    def replayed(nprime, plan, evp):
        return compile(apply_params(nprime, plan), evp).pr_e

    @pytest.mark.parametrize("sweeps", [0, 1, 200])
    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    @pytest.mark.parametrize("method", ["ed-kl", "ed-bp"])
    @pytest.mark.parametrize("case", ["grid4x4-leaves", "grid3x3-observed-parent"])
    def test_matches_a_fresh_replay(self, case, method, schedule, sweeps):
        net, ev, nprime, plan, evp = fit_cases.build(case)
        # damped, every combination converges within 200 sweeps here
        cfg = IterationConfig(
            method=method, schedule=schedule, max_iterations=sweeps,
            damping=0.3 if sweeps > 1 else 0.0,
        )
        plan, report, trace = run(nprime, plan, evp, cfg, reference=(net, ev))
        assert report.converged if sweeps > 1 else report.iterations == sweeps
        assert report.pr_ep == pytest.approx(self.replayed(nprime, plan, evp), rel=1e-12)
        if trace:
            bound = divergence_module.read_kl_bound(report.source, report.pr_ep, plan).total
            assert bound.hex() == trace[-1].kl_bound.hex()

    @pytest.mark.parametrize("sweeps", [0, 1])
    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    def test_empty_plan(self, schedule, sweeps):
        net, ev, _ = fit_cases.NETWORKS["grid4x4-leaves"]()
        nprime, plan, evp = build(net, ev, [])
        cfg = IterationConfig(schedule=schedule, max_iterations=sweeps)
        plan, report, trace = run(nprime, plan, evp, cfg, reference=(net, ev))
        assert report.pr_ep == pytest.approx(self.replayed(nprime, plan, evp), rel=1e-12)
        # N' is the source network: Pr'(e') is read as the pass's Pr(e)
        assert report.pr_ep == report.source.pr_e
        assert all(s.kl_bound == 0.0 for s in trace)

    @pytest.mark.parametrize("sweeps", [0, 1])
    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    def test_none_without_a_reference(self, schedule, sweeps):
        _, _, nprime, plan, evp = fit_cases.build("grid4x4-leaves")
        cfg = IterationConfig(method="ed-bp", schedule=schedule, max_iterations=sweeps)
        _, report, _ = run(nprime, plan, evp, cfg)
        assert report.pr_ep is None and report.source is None
