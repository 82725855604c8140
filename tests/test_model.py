import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgedel import (
    CapacityError,
    Cpt,
    Evidence,
    Factor,
    ModelError,
    Network,
    Variable,
    enumerate_joint,
    validate_network,
)
from edgedel.model import EdgeRecord, equivalence_table

from conftest import random_evidence, random_network


def chain_ab():
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1"))
    return Network(
        [a, b],
        [Cpt(a, (), [0.4, 0.6]), Cpt(b, (a,), [0.1, 0.9, 0.7, 0.3])],
    )


def one_variable(states, table):
    a = Variable("A", states)
    return Network([a], [Cpt(a, (), table)])


def clone_chain(soft_evidence_states=None):
    """A -> C -> B with C the clone of A, its registry on an original network;
    or, given S's states, the approximation that cuts A -> C and gives A the
    soft-evidence child S."""
    a, c, b = (Variable(n, ("s0", "s1")) for n in "ACB")
    b_cpt = Cpt(b, (c,), [0.1, 0.9, 0.7, 0.3])
    if soft_evidence_states is None:
        cpts = [Cpt(a, (), [0.5, 0.5]), Cpt(c, (a,), equivalence_table(2)), b_cpt]
        return Network([a, c, b], cpts, clone_edges=[EdgeRecord("A", "C", "B")])
    s = Variable("S", soft_evidence_states)
    s_cpt = Cpt(s, (a,), [1 / s.card] * 2 * s.card)
    cpts = [Cpt(a, (), [0.5, 0.5]), Cpt(c, (), [0.5, 0.5]), b_cpt, s_cpt]
    return Network(
        [a, c, b, s], cpts, kind="approximate", clone_edges=[EdgeRecord("A", "C", "B", "S")]
    )


def broken_clone():
    """``clone_chain()`` as an augmentation whose clone C does not copy A."""
    net = clone_chain()
    c = net.var("C")
    bent = Cpt(c, (net.var("A"),), [0.9, 0.1, 0.0, 1.0])
    cpts = [bent if cpt.child == c else cpt for cpt in net.cpts()]
    return Network(net.variables, cpts, kind="augmented", clone_edges=net.clone_edges)


class TestLayout:
    def test_a_layout_is_built_and_hashed_once(self):
        net = chain_ab()
        layout = net.layout()
        assert net.layout() is layout
        assert layout == tuple(layout) and hash(layout) == hash(tuple(layout))
        # the kept hash is returned, not the entries hashed again
        layout._hash = 7
        assert hash(layout) == 7


class TestValidation:
    def test_well_formed_chain_has_no_violations(self):
        assert validate_network(chain_ab()) == []

    def test_row_sum_violation(self):
        a = Variable("A", ("a0", "a1"))
        net = Network([a], [Cpt(a, (), [0.4, 0.5])])
        rules = [v.rule for v in validate_network(net)]
        assert rules == ["normalization"]
        assert validate_network(net)[0].variable == "A"

    def test_cycle_violation(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        net = Network(
            [a, b],
            [Cpt(a, (b,), [0.1, 0.9, 0.7, 0.3]), Cpt(b, (a,), [0.5, 0.5, 0.5, 0.5])],
        )
        rules = [v.rule for v in validate_network(net)]
        assert rules == ["acyclicity"]

    def test_single_state_variable_flagged(self):
        a = Variable("A", ("only",))
        net = Network([a], [Cpt(a, (), [1.0])])
        assert any(v.rule == "cardinality" for v in validate_network(net))

    def test_wrong_table_length_rejected(self):
        a = Variable("A", ("a0", "a1"))
        with pytest.raises(ModelError):
            Cpt(a, (), [0.2, 0.3, 0.5])

    @pytest.mark.parametrize(
        "build, violation",
        [
            (
                lambda: one_variable(("x", "x"), [0.5, 0.5]),
                ("A", "state-labels", "state labels not unique"),
            ),
            (
                lambda: clone_chain(("s0", "s1", "s2")),
                ("S", "cardinality", "soft-evidence variable must be binary"),
            ),
            (
                lambda: one_variable(("a0", "a1"), [np.nan, 1.0]),
                ("A", "range", "non-finite cpt entry"),
            ),
            (
                lambda: one_variable(("a0", "a1"), [-0.2, 1.2]),
                ("A", "range", "cpt entry outside [0, 1]"),
            ),
            (lambda: clone_chain(), ("", "registry", "original network carries a clone registry")),
            (
                broken_clone,
                ("C", "equivalence-cpt", "clone cpt is not the exact 0/1 identity of its parent"),
            ),
        ],
        ids=["state-labels", "soft-evidence-card", "non-finite", "out-of-range", "original-registry",
             "equivalence-cpt"],
    )
    def test_each_rule_reports_its_message(self, build, violation):
        assert [(v.variable, v.rule, v.message) for v in validate_network(build())] == [violation]

    @pytest.mark.parametrize(
        "build, message, at",
        [
            pytest.param(
                lambda a, b: Network([a], [Cpt(a, (), [0.5, 0.5])], kind="bogus"),
                "unknown network kind 'bogus'", ("kind", 0), id="kind",
            ),
            pytest.param(
                lambda a, b: Network([a, Variable("A", ("x", "y"))], [Cpt(a, (), [0.5, 0.5])]),
                "duplicate variable 'A'", ("variable", 1), id="duplicate-names",
            ),
            pytest.param(
                lambda a, b: Network([a], [Cpt(a, (), [0.5, 0.5]), Cpt(b, (), [0.5, 0.5])]),
                "cpt for unknown variable 'B'", ("cpt", 1), id="unknown-child",
            ),
            pytest.param(
                lambda a, b: Network(
                    [a, b], [Cpt(a, (), [0.5, 0.5]), Cpt(Variable("B", ("x",)), (), [1.0])]
                ),
                "cpt for unknown variable 'B'", ("cpt", 1), id="mismatched-child",
            ),
            pytest.param(
                lambda a, b: Network([b], [Cpt(b, (a,), [0.5] * 4)]),
                "cpt for 'B': unknown parent 'A'", ("cpt", 0), id="unknown-parent",
            ),
            pytest.param(
                lambda a, b: Network(
                    [a, b], [Cpt(a, (), [0.5, 0.5]), Cpt(b, (Variable("A", ("x",)),), [0.5] * 2)]
                ),
                "cpt for 'B': unknown parent 'A'", ("cpt", 1), id="mismatched-parent",
            ),
            pytest.param(
                lambda a, b: Network(
                    [a, b],
                    [Cpt(a, (), [0.5, 0.5]), Cpt(b, (a,), [0.5] * 4), Cpt(a, (), [0.2, 0.8])],
                ),
                "two cpts for variable 'A'", ("cpt", 2), id="second-cpt",
            ),
            pytest.param(
                lambda a, b: Network([a, b], [Cpt(a, (), [0.5, 0.5])]),
                "variable 'B' has no cpt", ("variable", 1), id="missing-cpt",
            ),
            *(
                pytest.param(
                    lambda a, b, rec=rec: Network(
                        [a, b], [Cpt(a, (), [0.5, 0.5]), Cpt(b, (a,), [0.5] * 4)],
                        clone_edges=[EdgeRecord("A", "A", "B"), rec],
                    ),
                    "registry names unknown variable 'Q'", ("record", 1), id=f"registry-{field}",
                )
                for field, rec in [
                    ("parent", EdgeRecord("Q", "A", "B")),
                    ("clone", EdgeRecord("A", "Q", "B")),
                    ("child", EdgeRecord("A", "A", "Q")),
                    ("sevid", EdgeRecord("A", "A", "B", "Q")),
                ]
            ),
            pytest.param(
                lambda a, b: Network(
                    [a, b], [Cpt(a, (b,), [0.1, 0.9, 0.7, 0.3]), Cpt(b, (a,), [0.5] * 4)]
                ).topo_order(),
                "network graph has a cycle", None, id="cycle",
            ),
        ],
    )
    def test_each_structural_fault_is_refused(self, build, message, at):
        a, b = Variable("A", ("a0", "a1")), Variable("B", ("b0", "b1"))
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$") as fault:
            build(a, b)
        assert fault.value.at == at

    @pytest.mark.parametrize("name", ["", "A B", "A\tB"])
    def test_a_variable_name_must_be_one_nonblank_word(self, name):
        with pytest.raises(ModelError, match=f"^bad variable name {re.escape(repr(name))}$"):
            Variable(name, ("s0", "s1"))

    def test_a_network_is_immutable(self):
        with pytest.raises(AttributeError, match="^Network is immutable$"):
            chain_ab().kind = "augmented"

    def test_reprs_name_the_scope_and_the_size(self):
        net = chain_ab()
        assert repr(net.cpt("B")) == "Cpt(B | A)"
        assert repr(net) == "Network(2 vars, kind=original)"

    def test_equivalence_table_is_exact(self):
        assert equivalence_table(3).tolist() == [1, 0, 0, 0, 1, 0, 0, 0, 1]


class TestFactorOps:
    def test_multiply_same_scope(self):
        a = Variable("A", ("a0", "a1"))
        f = Factor((a,), [0.5, 0.5])
        g = Factor((a,), [1.0, 0.0])
        assert f.multiply(g).values.tolist() == [0.5, 0.0]

    def test_multiply_disjoint_is_outer_product(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        f = Factor((a,), [0.5, 0.5])
        g = Factor((b,), [0.5, 0.5])
        prod = f.multiply(g)
        assert prod.names() == ("A", "B")
        assert np.allclose(prod.values, 0.25)

    def test_multiply_matches_per_world_products(self):
        rng = np.random.default_rng(0)
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        c = Variable("C", ("c0", "c1"))
        f = Factor((a, b), rng.random((2, 2)))
        g = Factor((b, c), rng.random((2, 2)))
        prod = f.multiply(g)
        for i, j, k in itertools.product(range(2), repeat=3):
            want = f.values[i, j] * g.values[j, k]
            assert prod.value_at({"A": i, "B": j, "C": k}) == pytest.approx(want, abs=1e-12)

    def test_marginalize_uniform(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        f = Factor((a, b), np.full((2, 2), 0.25))
        assert f.marginalize_to({"A"}).values.tolist() == [0.5, 0.5]

    def test_marginalize_keep_all_is_identity(self):
        a = Variable("A", ("a0", "a1"))
        f = Factor((a,), [0.3, 0.7])
        assert f.marginalize_to({"A"}) == f

    def test_marginalize_matches_explicit_sums(self):
        rng = np.random.default_rng(1)
        scope = tuple(Variable(n, ("x", "y", "z")[: 2 + i % 2]) for i, n in enumerate("ABC"))
        f = Factor(scope, rng.random(tuple(v.card for v in scope)))
        kept = f.marginalize_to({"B"})
        for j in range(scope[1].card):
            want = sum(
                f.values[i, j, k]
                for i in range(scope[0].card)
                for k in range(scope[2].card)
            )
            assert kept.values[j] == pytest.approx(want, rel=1e-12)

    def test_marginalize_preserves_total(self):
        rng = np.random.default_rng(2)
        a = Variable("A", ("a0", "a1", "a2"))
        b = Variable("B", ("b0", "b1"))
        f = Factor((a, b), rng.random((3, 2)))
        assert f.marginalize_to({"B"}).total() == pytest.approx(f.total(), rel=1e-12)

    def test_negative_values_rejected(self):
        a = Variable("A", ("a0", "a1"))
        with pytest.raises(ModelError):
            Factor((a,), [-0.1, 1.1])

    def test_inconsistent_variable_definitions_rejected(self):
        a1 = Variable("A", ("a0", "a1"))
        a2 = Variable("A", ("other", "labels"))
        with pytest.raises(ModelError):
            Factor((a1,), [1, 1]).multiply(Factor((a2,), [1, 1]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_multiplication_commutes_and_associates(self, seed):
        rng = np.random.default_rng(seed)
        names = ["A", "B", "C", "D"]
        variables = {n: Variable(n, tuple(f"s{i}" for i in range(int(rng.integers(2, 4))))) for n in names}
        factors = []
        for _ in range(3):
            k = int(rng.integers(1, 4))
            chosen = rng.choice(names, size=k, replace=False)
            scope = tuple(variables[n] for n in sorted(chosen))
            factors.append(Factor(scope, rng.random(tuple(v.card for v in scope))))
        f, g, h = factors
        fg = f.multiply(g)
        gf = g.multiply(f)
        assert np.allclose(
            fg.reorder(sorted(fg.names())).values,
            gf.reorder(sorted(gf.names())).values,
            rtol=1e-12,
        )
        left = fg.multiply(h)
        right = f.multiply(g.multiply(h))
        assert np.allclose(
            left.reorder(sorted(left.names())).values,
            right.reorder(sorted(right.names())).values,
            rtol=1e-12,
        )


class TestEnumerateJoint:
    def test_single_variable_prior(self):
        a = Variable("A", ("a0", "a1"))
        net = Network([a], [Cpt(a, (), [0.3, 0.7])])
        joint = enumerate_joint(net, Evidence({}))
        assert joint.values.tolist() == [0.3, 0.7]

    def test_equality_witness_evidence_probability(self, coins_fixture):
        net, ev = coins_fixture
        joint = enumerate_joint(net, ev)
        assert joint.total() == pytest.approx(0.5, abs=1e-15)
        u1 = joint.marginalize_to({"U1"}).values / joint.total()
        assert np.allclose(u1, [0.5, 0.5], atol=1e-15)

    def test_matches_pure_python_world_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            net = random_network(rng, n_vars=4, max_card=3)
            ev = random_evidence(net, rng)
            joint = enumerate_joint(net, ev)
            hidden = [v for v in net.variables if v.name not in ev]
            obs_idx = {n: net.var(n).index_of(s) for n, s in ev.items()}
            for world in itertools.product(*[range(v.card) for v in hidden]):
                full = dict(obs_idx)
                full.update({v.name: w for v, w in zip(hidden, world)})
                want = 1.0
                for cpt in net.cpts():
                    idx = tuple(full[p.name] for p in cpt.parents) + (full[cpt.child.name],)
                    want *= cpt.shaped[idx]
                assert joint.values[world] == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_cap_refusal_names_required_size(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, n_vars=6, max_card=2)
        with pytest.raises(CapacityError, match="64"):
            enumerate_joint(net, Evidence({}), cap=63)

    def test_cap_counts_unobserved_states_and_refuses_before_allocating(self, monkeypatch):
        rng = np.random.default_rng(4)
        net = random_network(rng, n_vars=6, max_card=2)
        ev = Evidence({v.name: v.states[0] for v in net.variables[:2]})
        hidden = 1
        for v in net.variables[2:]:
            hidden *= v.card
        assert hidden < net.joint_size()
        assert enumerate_joint(net, ev, cap=hidden).values.size == hidden

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before refusing")

        monkeypatch.setattr(np, "ones", no_allocation)
        monkeypatch.setattr(np, "indices", no_allocation)
        with pytest.raises(CapacityError, match=f"has {hidden} entries"):
            enumerate_joint(net, ev, cap=hidden - 1)

    def test_tables_are_write_locked(self):
        net = chain_ab()
        with pytest.raises(ValueError):
            net.cpt("A").table[0] = 0.9
        f = enumerate_joint(net, Evidence({}))
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0


class TestEvidence:
    def test_validate_unknown_state(self):
        net = chain_ab()
        with pytest.raises(ModelError):
            Evidence({"A": "zzz"}).validate(net)

    def test_immutable(self):
        ev = Evidence({"A": "a0"})
        with pytest.raises(AttributeError):
            ev.anything = 1

    def test_len_and_repr_follow_the_assignments(self):
        ev = Evidence({"A": "a0", "B": "b1"})
        assert len(ev) == 2 and len(Evidence()) == 0
        assert repr(ev) == "Evidence(A=a0, B=b1)"

    def test_with_added_and_without(self):
        ev = Evidence({"A": "a0"})
        ev2 = ev.with_added({"B": "b1"})
        assert dict(ev2.items()) == {"A": "a0", "B": "b1"}
        assert dict(ev2.without("A").items()) == {"B": "b1"}
        assert dict(ev.items()) == {"A": "a0"}
