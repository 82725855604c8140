import re

import numpy as np
import pytest

from edgedel import (
    Cpt,
    DeletionPlan,
    EdgeParams,
    Evidence,
    ModelError,
    Network,
    Variable,
    apply_params,
    approximate_network,
    augment,
    augmented_evidence,
    compile,
    delete_edges,
    enumerate_joint,
    min_fill_order,
    posterior_marginal,
    recover_marginals,
    validate_network,
)
from edgedel.deletion import deleted_records
from edgedel.harness import grid_network

from conftest import positive_evidence, random_evidence, random_network


def two_node():
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1"))
    return Network(
        [a, b], [Cpt(a, (), [0.3, 0.7]), Cpt(b, (a,), [0.9, 0.1, 0.2, 0.8])]
    )


class TestEdgeParams:
    def test_pm_must_sum_to_one(self):
        with pytest.raises(ModelError):
            EdgeParams([0.5, 0.6], [0.5, 0.5])

    def test_pm_sum_error_prints_a_plain_float(self):
        with pytest.raises(ModelError) as info:
            EdgeParams(np.array([0.5, 0.6]), [0.5, 0.5])
        assert str(info.value) == "pm must sum to 1 (got 1.1)"
        assert "np.float64" not in str(info.value)

    def test_pm_kept_as_given_within_tolerance(self):
        pm = np.array([0.5, 0.5 - 5e-10])
        assert EdgeParams(pm, [0.5, 0.5]).pm.tobytes() == pm.tobytes()
        with pytest.raises(ModelError, match="sum to 1"):
            EdgeParams([0.5, 0.5 - 2e-9], [0.5, 0.5])

    def test_se_clamped_into_unit_interval(self):
        p = EdgeParams([0.5, 0.5], [2.0, -1.0])
        assert p.se.tolist() == [1.0, 0.0]

    def test_se_all_zero_rejected(self):
        with pytest.raises(ModelError):
            EdgeParams([0.5, 0.5], [0.0, 0.0])

    @staticmethod
    def numpy_checks(pm, se):
        """The checks as whole-array numpy operations: (pm, se) or the
        ModelError message."""
        pm = np.array(pm, dtype=float).reshape(-1)
        se = np.array(se, dtype=float).reshape(-1)
        if pm.size == 0 or se.size == 0:
            return "edge parameters must be non-empty"
        if not (np.all(np.isfinite(pm)) and np.all(np.isfinite(se))):
            return "edge parameters must be finite"
        if np.any(pm < 0):
            return "pm entries must be nonnegative"
        s = pm.sum()
        if abs(s - 1.0) > 1e-9:
            return f"pm must sum to 1 (got {float(s)!r})"
        se = np.clip(se, 0.0, 1.0)
        if not np.any(se > 0):
            return "se must not be all zero"
        return pm, se

    def test_checks_match_whole_array_numpy_checks(self):
        # the same errors with the same messages, and the same bits kept
        entries = [0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 1.5, -0.5, np.nan, np.inf, -np.inf]
        rng = np.random.default_rng(11)
        cases = [([], [0.5]), ([1.0], []), ([0.5, 0.5 + 2e-10], [0.3, 0.7])]
        for _ in range(400):
            n = int(rng.integers(1, 4))
            pm = rng.dirichlet(np.ones(n)) if rng.random() < 0.6 else rng.choice(entries, n)
            cases.append((pm, rng.choice(entries, n)))
        for pm, se in cases:
            want = self.numpy_checks(pm, se)
            if isinstance(want, str):
                with pytest.raises(ModelError) as info:
                    EdgeParams(pm, se)
                assert str(info.value) == want
            else:
                got = EdgeParams(pm, se)
                assert got.pm.tobytes() == want[0].tobytes()
                assert got.se.tobytes() == want[1].tobytes()
                assert not got.pm.flags.writeable and not got.se.flags.writeable


class TestAugment:
    def test_no_edges_is_identity(self):
        net = two_node()
        assert augment(net, []) is net

    def test_clone_chain_structure(self):
        net = two_node()
        aug = augment(net, [("A", "B")])
        assert aug.kind == "augmented"
        assert [v.name for v in aug.variables] == ["A", "B", "A__clone0"]
        clone_cpt = aug.cpt("A__clone0")
        assert clone_cpt.parents[0].name == "A"
        assert clone_cpt.table.tolist() == [1.0, 0.0, 0.0, 1.0]
        assert aug.parent_names("B") == ("A__clone0",)
        assert validate_network(aug) == []
        # it records the network it augments, which equality ignores
        assert aug.origin is net and net.origin is None
        assert aug == Network(aug.variables, aug.cpts(), "augmented", aug.clone_edges)

    @pytest.mark.parametrize("kind", ["augmented", "approximate"])
    def test_a_network_other_than_original_is_refused(self, kind):
        net = two_node()
        aug, nprime, _ = approximate_network(net, [("A", "B")])
        other = aug if kind == "augmented" else nprime
        fault = "^augment expects an original network$"
        with pytest.raises(ModelError, match=fault):
            augment(other, [("A", "A__clone0")])

    def test_distribution_unchanged_over_source_variables(self):
        rng = np.random.default_rng(0)
        for _ in range(6):
            net = random_network(rng, n_vars=6)
            edges = net.edges()
            if not edges:
                continue
            take = [edges[i] for i in rng.choice(len(edges), size=min(2, len(edges)), replace=False)]
            aug = augment(net, take)
            ev = random_evidence(net, rng)
            before = enumerate_joint(net, ev)
            after = enumerate_joint(aug, ev).marginalize_to(set(before.names()))
            after = after.reorder(before.names())
            assert np.allclose(before.values, after.values, atol=1e-12)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ModelError):
            augment(two_node(), [("A", "B"), ("A", "B")])

    def test_missing_edge_rejected(self):
        with pytest.raises(ModelError):
            augment(two_node(), [("B", "A")])

    def test_clone_name_collision_detected(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        shadow = Variable("A__clone0", ("x", "y"))
        net = Network(
            [a, b, shadow],
            [
                Cpt(a, (), [0.3, 0.7]),
                Cpt(b, (a,), [0.9, 0.1, 0.2, 0.8]),
                Cpt(shadow, (), [0.5, 0.5]),
            ],
        )
        with pytest.raises(ModelError, match="^clone name 'A__clone0' collides with a variable$"):
            augment(net, [("A", "B")])


class TestDeleteEdges:
    def test_empty_plan_is_identity(self):
        net = augment(two_node(), [("A", "B")])
        plan = DeletionPlan((), ())
        assert delete_edges(net, plan) is net

    def test_structure_after_deletion(self):
        aug = augment(two_node(), [("A", "B")])
        plan = DeletionPlan.uniform(aug)
        nprime = delete_edges(aug, plan)
        assert nprime.kind == "approximate"
        assert nprime.cpt("A__clone0").parents == ()
        se_cpt = nprime.cpt("A__se0")
        assert se_cpt.parents[0].name == "A"
        assert se_cpt.shaped[:, 0].tolist() == [0.5, 0.5]
        evp = augmented_evidence(nprime, Evidence({}))
        assert dict(evp.items()) == {"A__se0": "yes"}

    def test_plan_edge_must_be_equivalence_edge(self):
        aug = augment(two_node(), [("A", "B")])
        plan = DeletionPlan.uniform(aug)
        nprime = delete_edges(aug, plan)
        with pytest.raises(ModelError):
            delete_edges(nprime, plan)

    def test_soft_evidence_name_collision_detected(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        shadow = Variable("A__se0", ("x", "y"))
        net = Network(
            [a, b, shadow],
            [
                Cpt(a, (), [0.3, 0.7]),
                Cpt(b, (a,), [0.9, 0.1, 0.2, 0.8]),
                Cpt(shadow, (), [0.5, 0.5]),
            ],
        )
        aug = augment(net, [("A", "B")])
        fault = "^soft-evidence name 'A__se0' collides with a variable$"
        with pytest.raises(ModelError, match=fault):
            delete_edges(aug, DeletionPlan.uniform(aug))

    @pytest.mark.parametrize("vector", ["pm", "se"])
    def test_wrong_length_vector_names_the_source_edge(self, vector):
        aug = augment(two_node(), [("A", "B")])
        (rec,) = aug.clone_edges
        bad = EdgeParams([0.2, 0.3, 0.5], [0.5, 0.5]) if vector == "pm" else (
            EdgeParams([0.5, 0.5], [0.5, 0.5, 0.5])
        )
        with pytest.raises(ModelError, match="^parameters for A -> B have the wrong length$"):
            delete_edges(aug, DeletionPlan((rec,), (bad,)))

    @pytest.mark.parametrize("vector", ["pm", "se"])
    def test_apply_params_names_the_plan_edge_of_a_wrong_length_vector(self, vector):
        # the check is delete_edges' own, not Cpt's, which would name the clone
        _, nprime, plan = approximate_network(grid_network(2, 2), [("N0_0", "N0_1")])
        bad = EdgeParams([0.2, 0.3, 0.5], [0.5, 0.5]) if vector == "pm" else (
            EdgeParams([0.5, 0.5], [0.5, 0.5, 0.5])
        )
        fault = "^parameters for N0_0 -> N0_1 have the wrong length$"
        with pytest.raises(ModelError, match=fault):
            apply_params(nprime, plan.with_params(0, bad))

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda rec, aug, nprime: DeletionPlan((rec,), ()),
                         "plan edges and params are misaligned", id="misaligned-plan"),
            pytest.param(lambda rec, aug, nprime: DeletionPlan((rec, rec), (None, None)),
                         "plan repeats a deleted edge", id="repeated-plan-edge"),
            pytest.param(lambda rec, aug, nprime: deleted_records(aug, DeletionPlan.uniform(aug)),
                         "plan edge A -> A__clone0 was not deleted in this network",
                         id="undeleted-edge"),
            pytest.param(lambda rec, aug, nprime: augmented_evidence(
                             nprime, Evidence({"A__se0": "yes"})),
                         "evidence already assigns soft-evidence variables: ['A__se0']",
                         id="soft-evidence-clash"),
        ],
    )
    def test_each_plan_fault_is_refused(self, call, message):
        aug, nprime, _ = approximate_network(two_node(), [("A", "B")])
        (rec,) = aug.clone_edges
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            call(rec, aug, nprime)

    def test_disconnecting_equality_fixture_marginals(self, coins_fixture):
        net, ev = coins_fixture
        aug, nprime, plan = approximate_network(net, [("U1", "X1")])
        evp = augmented_evidence(nprime, ev)
        st = compile(nprime, evp)
        assert posterior_marginal(st, "U1").tolist() == pytest.approx([0.5, 0.5])
        assert posterior_marginal(st, "U1__clone0").tolist() == pytest.approx([0.5, 0.5])

    def test_soft_evidence_scale_invariance(self):
        rng = np.random.default_rng(1)
        net = random_network(rng, n_vars=6)
        edges = net.edges()
        aug, nprime, plan = approximate_network(net, edges[:2])
        ev = positive_evidence(net, rng)
        evp = augmented_evidence(nprime, ev)
        scaled = [
            EdgeParams(p.pm, p.se * c)
            for p, c in zip(plan.params, (0.25, 0.8))
        ]
        plan2 = plan.with_all_params(scaled)
        st1 = compile(apply_params(nprime, plan), evp)
        st2 = compile(apply_params(nprime, plan2), evp)
        for v in net.variables:
            a = posterior_marginal(st1, v.name)
            b = posterior_marginal(st2, v.name)
            assert np.allclose(a, b, atol=1e-12)

    def test_two_deletions_from_one_parent_get_separate_soft_evidence(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        c = Variable("C", ("c0", "c1"))
        net = Network(
            [a, b, c],
            [
                Cpt(a, (), [0.3, 0.7]),
                Cpt(b, (a,), [0.9, 0.1, 0.2, 0.8]),
                Cpt(c, (a,), [0.6, 0.4, 0.1, 0.9]),
            ],
        )
        aug, nprime, plan = approximate_network(net, [("A", "B"), ("A", "C")])
        sevids = sorted(r.sevid for r in nprime.clone_edges)
        assert sevids == ["A__se0", "A__se1"]
        evp = augmented_evidence(nprime, Evidence({}))
        assert set(evp) == {"A__se0", "A__se1"}
        assert validate_network(nprime) == []

    def test_width_estimate_never_grows(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            net = random_network(rng, n_vars=8)
            edges = net.edges()
            if not edges:
                continue
            k = int(rng.integers(1, min(3, len(edges)) + 1))
            take = [edges[int(i)] for i in rng.choice(len(edges), size=k, replace=False)]
            aug, nprime, plan = approximate_network(net, take)
            assert min_fill_order(nprime).width <= min_fill_order(aug).width


class TestRecoverMarginals:
    def test_no_deletion_recovers_exact(self):
        net = two_node()
        aug, nprime, plan = approximate_network(net, [])
        ev = Evidence({"B": "b0"})
        evp = augmented_evidence(nprime, ev)
        st = compile(nprime, evp)
        recovered = recover_marginals(nprime, plan, st)
        exact = compile(net, ev)
        assert set(recovered) == {"A", "B"}
        for name, dist in recovered.items():
            assert np.allclose(dist, posterior_marginal(exact, name), atol=1e-12)

    def test_accepts_state_compiled_with_applied_params(self):
        net = two_node()
        aug, nprime, plan = approximate_network(net, [("A", "B")])
        updated = plan.with_params(0, EdgeParams([0.2, 0.8], [0.9, 0.4]))
        evp = augmented_evidence(nprime, Evidence({}))
        st = compile(apply_params(nprime, updated), evp)
        recovered = recover_marginals(nprime, updated, st)
        assert set(recovered) == {"A", "B"}
        other = approximate_network(two_node(), [])[1]
        with pytest.raises(ModelError):
            recover_marginals(other, updated, st)

    def test_clones_and_soft_evidence_excluded(self):
        net = two_node()
        aug, nprime, plan = approximate_network(net, [("A", "B")])
        evp = augmented_evidence(nprime, Evidence({}))
        st = compile(nprime, evp)
        recovered = recover_marginals(nprime, plan, st)
        assert set(recovered) == {"A", "B"}

    def test_recovered_values_match_enumeration_on_nprime(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, n_vars=6)
        edges = net.edges()
        aug, nprime, plan = approximate_network(
            net, edges[:1], [EdgeParams([0.35, 0.65], [0.2, 0.9])]
            if net.var(edges[0][0]).card == 2
            else None,
        )
        ev = positive_evidence(net, rng)
        evp = augmented_evidence(nprime, ev)
        current = apply_params(nprime, plan)
        st = compile(current, evp)
        recovered = recover_marginals(current, plan, st)
        joint = enumerate_joint(current, evp)
        total = joint.total()
        for name, dist in recovered.items():
            if name in evp:
                continue
            want = joint.marginalize_to({name}).values / total
            assert np.allclose(dist, want, atol=1e-10)

    def test_observed_parent_matches_single_queries_and_enumeration(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, n_vars=6, max_card=2)
        edges = net.edges()[:3]
        # the parent of the first deleted edge is observed
        ev = Evidence({edges[0][0]: net.var(edges[0][0]).states[1]})
        aug, nprime, plan = approximate_network(net, edges)
        plan = plan.with_params(0, EdgeParams([0.35, 0.65], [0.2, 0.9]))
        evp = augmented_evidence(nprime, ev)
        current = apply_params(nprime, plan)
        st = compile(current, evp)
        recovered = recover_marginals(current, plan, st)
        joint = enumerate_joint(current, evp)
        assert list(recovered) == [v.name for v in net.variables]
        for name, dist in recovered.items():
            assert np.allclose(dist, posterior_marginal(st, name), rtol=0, atol=1e-12), name
            if name in evp:
                continue
            want = joint.marginalize_to({name}).values / joint.total()
            assert np.allclose(dist, want, rtol=0, atol=1e-12), name
