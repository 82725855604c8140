import math
import warnings
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgedel
import edgedel.divergence as divergence_module
import edgedel.engine as engine_module
from edgedel import (
    CapacityError,
    Cpt,
    DeletionPlan,
    EdgeParams,
    Evidence,
    InconsistentEvidenceError,
    IterationConfig,
    ModelError,
    approximate_network,
    augment,
    augmented_evidence,
    check_conditions,
    compile,
    cpt_derivatives,
    enumerate_joint,
    exact_kl,
    kl_bound,
    mutual_information_scores,
    pairwise_marginal,
    parse_network,
    posterior_marginal,
    run,
    score_edges,
    serialize_network,
    single_edge_evaluate,
)
from edgedel.deletion import apply_params
from edgedel.divergence import (
    DENOM_FLOOR,
    INNER_MAX_ITERATIONS,
    INNER_TOLERANCE,
    edge_update,
    edkl_vector,
)
from edgedel.harness import chain_network, forward_sample, grid_network, sample_evidence

from conftest import (
    bridged_net,
    count_engine_calls,
    positive_evidence,
    random_network,
    record_refits,
    tied_edges,
)
from score_reference import reference_scores, routed_scores
import record_fit_golden as fit_cases


def build(net, ev, edges, params=None):
    aug, nprime, plan = approximate_network(net, edges, params)
    evp = augmented_evidence(nprime, ev)
    return aug, nprime, plan, evp


def random_params(net, edges, rng):
    out = []
    for u, _ in edges:
        card = net.var(u).card
        pm = rng.dirichlet(np.ones(card))
        se = rng.uniform(0.05, 0.95, size=card)
        out.append(EdgeParams(pm, se))
    return out


def enumeration_kl_over_all_vars(aug, nprime, plan, ev, evp):
    """Brute-force divergence over every augmented-network variable."""
    p = enumerate_joint(aug, ev).normalize()
    current = apply_params(nprime, plan)
    q = enumerate_joint(current, evp)
    q = q.marginalize_to(set(p.names())).normalize().reorder(p.names())
    total = 0.0
    for pi, qi in zip(p.values.reshape(-1), q.values.reshape(-1)):
        if pi <= 0:
            continue
        if qi <= 0:
            return math.inf
        total += pi * math.log(pi / qi)
    return total


def enumeration_exact_kl(source, nprime, plan, ev, evp):
    """Brute-force divergence between the two posteriors restricted to the
    source variables: both joints enumerated, clone variables summed out."""
    originals = set(source.original_names())
    joint = enumerate_joint(source, ev)
    p = joint.marginalize_to(originals & set(joint.names())).normalize()
    joint_p = enumerate_joint(apply_params(nprime, plan), evp)
    q = joint_p.marginalize_to(originals & set(joint_p.names())).normalize()
    if set(p.names()) != set(q.names()):
        raise ModelError("posteriors cover different source variables")
    q = q.reorder(p.names())
    mass = p.values > 0.0
    p_mass, q_mass = p.values[mass], q.values[mass]
    if np.any(q_mass <= 0.0):
        return math.inf
    # an elementwise sum: a BLAS dot over a large joint starts threads that
    # keep spinning after it returns
    return float(np.sum(p_mass * np.log(p_mass / q_mass)))


class TestKlBound:
    def test_empty_plan_is_zero(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, n_vars=5)
        ev = positive_evidence(net, rng)
        aug, nprime, plan, evp = build(net, ev, [])
        assert kl_bound(aug, nprime, plan, ev, evp).total == pytest.approx(0.0, abs=1e-12)

    def test_equality_fixture_uniform_params_zero(self, coins_fixture):
        net, ev = coins_fixture
        aug, nprime, plan, evp = build(net, ev, [("U1", "X1")])
        assert kl_bound(aug, nprime, plan, ev, evp).total == pytest.approx(0.0, abs=1e-12)

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(1)
        done = 0
        while done < 10:
            net = random_network(rng, n_vars=6)
            edges = net.edges()
            if len(edges) < 2:
                continue
            take = [edges[int(i)] for i in rng.choice(len(edges), size=2, replace=False)]
            ev = positive_evidence(net, rng)
            aug, nprime, plan, evp = build(net, ev, take, random_params(net, take, rng))
            got = kl_bound(aug, nprime, plan, ev, evp)
            want = enumeration_kl_over_all_vars(aug, nprime, plan, ev, evp)
            assert got.total == pytest.approx(want, abs=1e-9)
            assert got.total >= -1e-9
            assert got.total == pytest.approx(sum(got.edge_terms) + got.correction, abs=1e-12)
            assert type(got.total) is float
            assert all(type(t) is float for t in got.edge_terms)
            done += 1

    def test_zero_evidence_error_names_the_network(self, coins_fixture):
        from edgedel import Cpt, InconsistentEvidenceError, Network, Variable

        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        net = Network(
            [a, b], [Cpt(a, (), [1.0, 0.0]), Cpt(b, (a,), [0.9, 0.1, 0.2, 0.8])]
        )
        ev = Evidence({"A": "a1"})
        aug, nprime, plan, evp = build(net, ev, [("A", "B")])
        with pytest.raises(InconsistentEvidenceError, match="source network"):
            kl_bound(aug, nprime, plan, ev, evp)

    def test_zero_parameter_against_positive_mass_is_infinite(self, coins_fixture):
        net, ev = coins_fixture
        aug, nprime, plan, evp = build(net, ev, [("U1", "X1")])
        p = plan.with_params(0, EdgeParams([1.0, 0.0], [0.5, 0.5]))
        breakdown = kl_bound(aug, nprime, p, ev, evp)
        assert breakdown.infinite
        assert math.isinf(breakdown.total)


class TestExactKl:
    def test_empty_plan_zero(self):
        rng = np.random.default_rng(2)
        net = random_network(rng, n_vars=5)
        ev = positive_evidence(net, rng)
        aug, nprime, plan, evp = build(net, ev, [])
        assert exact_kl(aug, nprime, plan, ev, evp) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_by_kl_bound(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 10:
            net = random_network(rng, n_vars=6)
            edges = net.edges()
            if not edges:
                continue
            k = int(rng.integers(1, min(2, len(edges)) + 1))
            take = [edges[int(i)] for i in rng.choice(len(edges), size=k, replace=False)]
            ev = positive_evidence(net, rng)
            aug, nprime, plan, evp = build(net, ev, take, random_params(net, take, rng))
            bound = kl_bound(aug, nprime, plan, ev, evp).total
            exact = exact_kl(aug, nprime, plan, ev, evp)
            assert exact <= bound + 1e-9
            assert exact >= -1e-12
            done += 1

    def test_nonuniform_fixture_value_frozen_by_enumeration(self, coins_fixture):
        # for pm = (0.7, 0.3), se uniform on the equality fixture the source
        # posterior over (U1, U2) is (0.5, 0.5) on the diagonal and the
        # approximate one is (0.7, 0.3):
        # KL = 0.5 log(0.5/0.7) + 0.5 log(0.5/0.3)
        net, ev = coins_fixture
        aug, nprime, plan, evp = build(net, ev, [("U1", "X1")])
        p = plan.with_params(0, EdgeParams([0.7, 0.3], [0.5, 0.5]))
        want = 0.5 * math.log(0.5 / 0.7) + 0.5 * math.log(0.5 / 0.3)
        assert exact_kl(aug, nprime, p, ev, evp) == pytest.approx(want, abs=1e-12)
        assert exact_kl(aug, nprime, p, ev, evp) > 0

    def test_positive_mass_against_zero_approximate_mass_is_infinite(self, coins_fixture):
        # pm = (1, 0) leaves the approximate posterior no mass on (t, t),
        # where the source posterior has 0.5
        net, ev = coins_fixture
        aug, nprime, plan, evp = build(net, ev, [("U1", "X1")])
        p = plan.with_params(0, EdgeParams([1.0, 0.0], [0.5, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_kl(aug, nprime, p, ev, evp) == math.inf

    def test_zero_true_mass_contributes_nothing(self, coins_fixture):
        # the source posterior is zero off the diagonal of (U1, U2); those
        # worlds add nothing, with or without approximate mass there
        net, ev = coins_fixture
        aug, nprime, plan, evp = build(net, ev, [("U1", "X1")])
        for se in ([0.5, 0.5], [0.2, 0.9]):
            p = plan.with_params(0, EdgeParams([0.7, 0.3], se))
            source = enumerate_joint(aug, ev).marginalize_to({"U1", "U2"}).normalize()
            approx = enumerate_joint(apply_params(nprime, p), evp)
            approx = approx.marginalize_to({"U1", "U2"}).normalize().reorder(source.names())
            assert np.count_nonzero(source.values == 0.0) == 2
            want = 0.0
            for pi, qi in zip(source.values.reshape(-1), approx.values.reshape(-1)):
                if pi > 0.0:
                    want += pi * math.log(pi / qi)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = exact_kl(aug, nprime, p, ev, evp)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert got <= kl_bound(aug, nprime, p, ev, evp).total + 1e-9

    def test_zero_evidence_raises_on_either_side(self, coins_fixture):
        net, ev = coins_fixture
        aug, nprime, plan, evp = build(net, ev, [("U1", "X1")])
        with pytest.raises(InconsistentEvidenceError, match="source network"):
            exact_kl(aug, nprime, plan, Evidence({"X1": "on", "X2": "off"}), evp)
        # pm puts all mass on U1' = t and se all on U1 = h, so no world of N'
        # satisfies both witnesses
        p = plan.with_params(0, EdgeParams([0.0, 1.0], [1.0, 0.0]))
        with pytest.raises(InconsistentEvidenceError, match="approximate network"):
            exact_kl(aug, nprime, p, ev, evp)


def closed_form_case(seed, n_vars, k, zero, zero_rows, observed_parent, fit):
    """A random instance for the closed-form ``exact_kl``: a DAG of 2- and
    3-state variables with a child of two parents, whose two in-edges are
    deleted along with up to ``k`` - 2 others, and evidence drawn from one
    forward sample (so Pr(e) > 0).  ``zero_rows`` gives about a third of
    the CPT rows a zero entry (never the sampled world's); ``observed_parent``
    observes a deleted edge's parent.  ``zero`` = "pm" or "se" makes the
    divergence infinite through the last edge: its clone prior all on a
    state c whose child rows are zero at the sampled child state, while the
    sampled parent state is not c, or its soft evidence zero at the sampled
    parent state.  That edge's parent and child then stay unobserved, so
    that without zero rows Pr'(e') > 0.  Otherwise the edges get random
    parameters, fitted by ``run`` if ``fit`` is set.

    Returns (net, aug, nprime, plan, ev, evp).
    """
    rng = np.random.default_rng(seed)
    while True:
        net = random_network(rng, n_vars, max_card=3)
        shared = [v.name for v in net.variables if len(net.parent_names(v.name)) >= 2]
        if shared:
            break
    child = shared[int(rng.integers(len(shared)))]
    edges = [(u, child) for u in net.parent_names(child)[:2]]
    others = [e for e in net.edges() if e not in edges]
    for i in rng.permutation(len(others))[: max(k - 2, 0)]:
        edges.append(others[int(i)])
    last_u, last_x = edges[-1]
    world = forward_sample(net, rng)
    u_at = net.var(last_u).index_of(world[last_u])
    c = (u_at + 1) % net.var(last_u).card
    cpts = {}
    for cpt in net.cpts():
        rows = cpt.shaped.copy()
        on_world = np.zeros(rows.shape, dtype=bool)
        on_world[tuple(v.index_of(world[v.name]) for v in cpt.scope())] = True
        card = cpt.child.card
        if zero_rows:
            for row, keep in zip(rows.reshape(-1, card), on_world.reshape(-1, card)):
                j = int(rng.integers(row.size))
                if rng.random() < 1 / 3 and not keep[j]:
                    row[j] = 0.0
        if zero == "pm" and cpt.child.name == last_x:
            axis = [p.name for p in cpt.parents].index(last_u)
            np.moveaxis(rows, axis, 0)[c, ..., cpt.child.index_of(world[last_x])] = 0.0
        cpts[cpt.child.name] = Cpt(cpt.child, cpt.parents, rows / rows.sum(axis=-1, keepdims=True))
    net = net.replace_cpts(cpts)
    names = [v.name for v in net.variables if rng.random() < 0.3]
    if observed_parent:
        names.append(edges[0][0])
    if zero is not None:
        names = [n for n in names if n not in (last_u, last_x)]
    ev = Evidence({n: world[n] for n in dict.fromkeys(names)})
    params = random_params(net, edges, rng)
    if zero == "pm":
        params[-1] = EdgeParams(np.eye(net.var(last_u).card)[c], params[-1].se)
    elif zero == "se":
        se = params[-1].se.copy()
        se[u_at] = 0.0
        params[-1] = EdgeParams(params[-1].pm, se)
    aug, nprime, plan, evp = build(net, ev, edges, params)
    if fit:
        cfg = IterationConfig(initialization="plan", max_iterations=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                plan, _, _ = run(nprime, plan, evp, cfg, reference=(aug, ev))
            except ModelError:
                pass  # keep the random parameters
    return net, aug, nprime, plan, ev, evp


class TestClosedFormExactKl:
    """``exact_kl`` in closed form against the enumeration oracle, called
    with the augmented network and with the source network."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vars=st.integers(3, 6),
        k=st.integers(2, 4),
        zero=st.sampled_from([None, None, "pm", "se"]),
        zero_rows=st.booleans(),
        observed_parent=st.booleans(),
        fit=st.booleans(),
    )
    def test_matches_enumeration_and_respects_the_bound(
        self, seed, n_vars, k, zero, zero_rows, observed_parent, fit
    ):
        # with zero rows, a zeroed parameter can leave Pr'(e') = 0
        fit, zero_rows = (fit, zero_rows) if zero is None else (False, False)
        net, aug, nprime, plan, ev, evp = closed_form_case(
            seed, n_vars, k, zero, zero_rows, observed_parent, fit
        )
        try:
            want = enumeration_exact_kl(net, nprime, plan, ev, evp)
        except InconsistentEvidenceError:
            assert zero is None
            for source in (aug, net):
                with pytest.raises(InconsistentEvidenceError):
                    exact_kl(source, nprime, plan, ev, evp)
            return
        if zero is not None:
            assert want == math.inf
        bound = kl_bound(aug, nprime, plan, ev, evp).total
        for source in (aug, net):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = exact_kl(source, nprime, plan, ev, evp)
            if math.isinf(want):
                assert got == math.inf
            else:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
            assert got <= bound + 1e-9

    def test_read_exact_kl_reads_an_aug_ev_run_as_the_harness_route(self):
        # run's pass from an (aug, ev) reference is the kept pass on the
        # original network, which answers every deleted edge's child's
        # family table too: the reads equal the harness route's, which
        # hands run source_pass's pass, bit for bit
        net = grid_network(3, 3)
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(1))
        edges = [(s.parent, s.child) for s in score_edges(net, ev)[:2]]
        aug, nprime, plan, evp = build(net, ev, edges)
        cfg = IterationConfig(method="ed-kl")
        fitted, report, _ = run(nprime, plan, evp, cfg, reference=(aug, ev))
        read = divergence_module.read_exact_kl(report.source, report.pr_ep, nprime, fitted)
        full = divergence_module.source_pass(net, ev)
        assert report.source is full
        harness_fit, harness_report, _ = run(nprime, plan, evp, cfg, reference=full)
        assert harness_fit == fitted and harness_report.pr_ep == report.pr_ep
        harness_read = divergence_module.read_exact_kl(
            harness_report.source, harness_report.pr_ep, nprime, harness_fit
        )
        assert read.hex() == harness_read.hex()
        want = exact_kl(aug, nprime, fitted, ev, evp)
        assert read == pytest.approx(want, rel=1e-9)


class TestSingleEdgeEvaluate:
    def test_agrees_with_direct_compilation(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 8:
            net = random_network(rng, n_vars=6)
            edges = net.edges()
            if not edges:
                continue
            edge = edges[int(rng.integers(len(edges)))]
            ev = positive_evidence(net, rng)
            aug = augment(net, [edge])
            st = compile(aug, ev)
            rec = aug.clone_edges[0]
            derivs = cpt_derivatives(st, aug.cpt(rec.clone))
            for _ in range(3):
                params = random_params(net, [edge], rng)[0]
                pr_ep, d_pm, d_se = single_edge_evaluate(derivs, params.pm, params.se)
                plan = DeletionPlan((rec,), (params,))
                from edgedel import delete_edges

                nprime = delete_edges(aug, plan)
                evp = augmented_evidence(nprime, ev)
                st_direct = compile(nprime, evp)
                assert pr_ep == pytest.approx(st_direct.pr_e, rel=1e-10, abs=1e-14)
                d_pm_direct = cpt_derivatives(st_direct, nprime.cpt(rec.clone))
                bound_rec = [r for r in nprime.clone_edges if r.sevid is not None][0]
                d_se_direct = cpt_derivatives(st_direct, nprime.cpt(bound_rec.sevid))[:, 0]
                assert np.allclose(d_pm, d_pm_direct, rtol=1e-10, atol=1e-14)
                assert np.allclose(d_se, d_se_direct, rtol=1e-10, atol=1e-14)
            done += 1

    def test_multilinearity_identity(self):
        rng = np.random.default_rng(5)
        net = random_network(rng, n_vars=5)
        edges = net.edges()
        if not edges:
            pytest.skip("random net came out edgeless")
        edge = edges[0]
        ev = positive_evidence(net, rng)
        aug = augment(net, [edge])
        st = compile(aug, ev)
        derivs = cpt_derivatives(st, aug.cpt(aug.clone_edges[0].clone))
        params = random_params(net, [edge], rng)[0]
        pr_ep, d_pm, d_se = single_edge_evaluate(derivs, params.pm, params.se)
        assert float(params.pm @ d_pm) == pytest.approx(pr_ep, rel=1e-12)
        assert float(params.se @ d_se) == pytest.approx(pr_ep, rel=1e-12)

    def test_a_table_of_another_shape_is_refused(self):
        # rows are the parent's (se) states, columns the clone's (pm)
        fault = "^derivative table shape does not match the edge parameters$"
        with pytest.raises(ModelError, match=fault):
            single_edge_evaluate(np.ones((2, 3)), np.full(2, 0.5), np.full(2, 0.5))


def test_update_sums_are_the_array_method_s_bit_for_bit():
    # np.add.reduce is the reduction ndarray.sum runs; cards 8 and 9 take
    # numpy's unrolled pairwise sum, the smaller ones its plain loop
    rng = np.random.default_rng(9)
    for card in range(2, 10):
        for _ in range(50):
            v = rng.random(card) * 10.0 ** rng.integers(-300, 300)
            assert np.add.reduce(v).tobytes() == v.sum().tobytes()
            assert divergence_module._normalize(v, "v").tobytes() == (v / v.sum()).tobytes()


class TestEdklVector:
    def test_zero_derivative_against_positive_mass_clamps_and_warns(self):
        t = np.array([0.25, 0.75])
        d = np.array([0.5, 0.0])
        with pytest.warns(RuntimeWarning, match="edge U -> X"):
            out = edkl_vector(t, 0.3, d, "edge U -> X")
        assert out[0] == 0.25 * 0.3 / 0.5
        assert out[1] == 0.75 * 0.3 / DENOM_FLOOR

    def test_positive_derivatives_take_the_entrywise_operations(self):
        # the array operation does, entry by entry, what the scalar rule does
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 9):
            t = rng.dirichlet(np.ones(n))
            d = rng.random(n) + 1e-3
            pr = float(rng.random())
            want = np.array([ti * pr / di for ti, di in zip(t, d)])
            assert edkl_vector(t, pr, d, "edge U -> X").tobytes() == want.tobytes()

    def test_positive_derivatives_skip_the_floor_bit_for_bit(self):
        # with no derivative at or below zero the floor changes nothing, so
        # the quotient taken as it stands is the floored one, on single
        # rows and on stacks, and warns of nothing
        rng = np.random.default_rng(8)
        for shape in [(n,) for n in range(2, 10)] + [(3, 2), (5, 4), (2, 9)]:
            t = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
            d = rng.random(shape) + 1e-3
            pr = rng.random(shape[:-1] + (1,)) if len(shape) == 2 else float(rng.random())
            labels = "edge U -> X" if len(shape) == 1 else np.array(["e"] * shape[0], dtype=object)
            floored = t * pr / np.where(d <= 0.0, DENOM_FLOOR, d)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert edkl_vector(t, pr, d, labels).tobytes() == floored.tobytes()
        # one zero derivative takes the floor again, and warns for its row
        d[1, 3] = 0.0
        with pytest.warns(RuntimeWarning, match="edge V -> Y"):
            out = edkl_vector(t, pr, d, np.array(["edge U -> X", "edge V -> Y"], dtype=object))
        assert out.tobytes() == (t * pr / np.where(d <= 0.0, DENOM_FLOOR, d)).tobytes()

    def test_zero_derivative_against_zero_mass_gives_zero(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = edkl_vector(np.array([0.0, 1.0]), 0.3, np.array([0.0, 0.5]), "edge U -> X")
        assert out.tolist() == [0.0, 1.0 * 0.3 / 0.5]

    def test_score_edges_never_clamps(self, coins_fixture):
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score_edges(net, ev)
            score_edges(*coins_fixture)


def uniform_vectors(card):
    params = EdgeParams.uniform(card)
    return params.pm, params.se


class TestEdgeUpdate:
    def test_overflow_is_reported_as_overflow(self):
        g = np.array([[1.0, 1e-310], [0.0, 1e-310]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(edgedel.DegenerateUpdateError) as info:
                edge_update(
                    single_edge_evaluate(g, *uniform_vectors(2)), *uniform_vectors(2), "ed-kl",
                    np.array([0.5, 0.5]), "edge U -> X", g=g,
                )
        message = str(info.value)
        assert message == "update for edge U -> X overflowed (sum inf)"
        assert "np.float64" not in message

    def test_zero_sum_is_reported_as_degenerate(self):
        g = np.array([[0.5, 0.1], [0.2, 0.4]])
        with pytest.raises(edgedel.DegenerateUpdateError) as info:
            edge_update(
                single_edge_evaluate(g, *uniform_vectors(2)), *uniform_vectors(2), "ed-kl",
                np.zeros(2), "edge U -> X", g=g,
            )
        assert str(info.value) == "update for edge U -> X is degenerate (sum 0.0)"


class TestRowsNeedNoClip:
    """``edge_update`` and the stacked fit divide each new row by its own
    nonnegative sum, so every entry already lies in [0, 1]."""

    @pytest.mark.parametrize(
        "method, damping, schedule",
        [("ed-bp", 0.0, "sequential"), ("ed-kl", 0.0, "sequential"),
         ("ed-bp", 0.3, "simultaneous"), ("ed-kl", 0.3, "simultaneous")],
    )
    def test_every_fitted_row_lies_in_the_unit_interval(self, monkeypatch, method, damping,
                                                        schedule):
        # every sweep's raw vectors, before ``EdgeParams`` (which clips) sees them
        import edgedel.parametrize as parametrize_module

        real, rows = parametrize_module.edge_update, []

        def checking(*args, **kwargs):
            out = real(*args, **kwargs)
            rows.append(out[1])
            return out

        monkeypatch.setattr(parametrize_module, "edge_update", checking)
        for seed in range(3):
            net = chain_network(6, 2, rng=np.random.default_rng(seed))
            ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(seed + 10))
            aug, nprime, plan, evp = build(net, ev, net.edges()[:3])
            cfg = IterationConfig(method=method, damping=damping, schedule=schedule,
                                  max_iterations=20)
            run(nprime, plan, evp, cfg, reference=(aug, ev))
        assert len(rows) > 9
        assert all(((0.0 <= se) & (se <= 1.0)).all() for se in rows)
        # each row is divided by its own sum, which is why it needs no clip
        assert all(abs(se.sum() - 1.0) <= 1e-12 for se in rows)

    def test_every_scored_row_lies_in_the_unit_interval(self, monkeypatch):
        rows = []

        class Checking(EdgeParams):
            def __post_init__(self):
                rows.append(self.se)
                super().__post_init__()

        monkeypatch.setattr(divergence_module, "EdgeParams", Checking)
        net = grid_network(4, 4, 2, rng=np.random.default_rng(5))
        score_edges(net, sample_evidence(net, "leaves-from-joint", np.random.default_rng(6)))
        # one per edge, and one per refitted tie
        assert len(rows) >= len(net.edges())
        assert all(((0.0 <= se) & (se <= 1.0)).all() for se in rows)
        assert all(abs(se.sum() - 1.0) <= 1e-12 for se in rows)


class TestSourcePass:
    """``source_pass`` keeps the most recent (network, evidence) pair's
    pass on the source network, by identity."""

    @staticmethod
    def case():
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        return net, sample_evidence(net, "leaves-from-joint", np.random.default_rng(1))

    def test_a_repeated_pair_reads_the_kept_pass(self, monkeypatch):
        net, ev = self.case()
        calls = count_engine_calls(monkeypatch, ["derivatives"])
        grads = divergence_module.source_pass(net, ev)
        assert grads.net is net and list(grads.tables) == [v.name for v in net.variables]
        assert divergence_module.source_pass(net, ev) is grads
        assert calls == {"derivatives": 1}

    def test_the_key_is_identity_and_width_cap(self, monkeypatch):
        net, ev = self.case()
        calls = count_engine_calls(monkeypatch, ["derivatives"])
        grads = divergence_module.source_pass(net, ev)
        # an equal but distinct evidence, then network, makes a new pass,
        # and so does another width cap
        equal_ev = Evidence(dict(ev.items()))
        assert equal_ev == ev
        other = divergence_module.source_pass(net, equal_ev)
        assert other is not grads
        same_net = grid_network(4, 4, rng=np.random.default_rng(0))
        assert same_net == net
        assert divergence_module.source_pass(same_net, equal_ev) is not other
        wider = divergence_module.source_pass(same_net, equal_ev, width_cap=24)
        assert calls == {"derivatives": 4}
        # each pass is bitwise the same
        for got in (other, wider):
            assert got.pr_e == grads.pr_e
            assert list(got.tables) == list(grads.tables)
            assert all(got.tables[x].tobytes() == t.tobytes() for x, t in grads.tables.items())

    def test_a_refused_pass_is_not_kept(self, monkeypatch):
        net, ev = self.case()
        kept = divergence_module.source_pass(net, ev)
        with pytest.raises(CapacityError):
            divergence_module.source_pass(net, ev, width_cap=1)
        assert divergence_module._kept_pass[3] is kept
        with pytest.raises(CapacityError):
            divergence_module.source_pass(net, ev, width_cap=1)
        assert divergence_module.source_pass(net, ev) is kept

    @pytest.mark.parametrize("case", ["chain(8)x3", "grid(4x4)"])
    def test_score_edges_builds_the_augmentation_only_for_a_tie_refit(self, monkeypatch, case):
        # the chain's scores hold no tie run; the grid's do, and their
        # refit builds the all-edges augmentation on its kept structure's
        # first use only: the second call refits on the kept structure
        net, ev = stack_case(case) if case == "chain(8)x3" else self.case()
        real, built = divergence_module.augment, []

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(divergence_module, "augment", counting)
        refits = record_refits(monkeypatch)
        calls = count_engine_calls(monkeypatch, ["derivatives", "compile", "cpt_derivatives"])
        first, second = score_edges(net, ev), score_edges(net, ev)
        ties = tied_edges(first) > 0
        assert ties == (case == "grid(4x4)")
        assert len(built) == ties and len(refits) == 2 * ties
        assert calls == {"derivatives": 1, "compile": 0, "cpt_derivatives": 0}
        assert all(args == (net, net.edges()) for args in built)
        assert all(same_fit(a, b) for a, b in zip(first, second))


class TestCloneTables:
    """Every clone table ``score_edges`` derives from the source pass is
    the all-edges augmentation's own pass's."""

    @pytest.mark.parametrize("evidence", ["leaves", "none"])
    @pytest.mark.parametrize("case", ["chain(8)x3", "grid(4x4)", "grid(5x5)", "grid(4x4)x3"])
    def test_each_derived_table_is_the_augmentation_s(self, case, evidence):
        net, ev = stack_case(case)
        self.check(net, ev if evidence == "leaves" else Evidence({}))

    def test_an_observed_parent_gives_zero_rows(self):
        net = grid_network(4, 4, rng=np.random.default_rng(21))
        ev = Evidence({"N1_1": net.var("N1_1").states[1], "N3_3": net.var("N3_3").states[0]})
        tables = self.check(net, ev)
        out_of_observed = [t for (u, _), t in zip(net.edges(), tables) if u == "N1_1"]
        assert len(out_of_observed) == 2
        for t in out_of_observed:
            assert not t[0].any() and t[1].all()

    @staticmethod
    def check(net, ev):
        tables = divergence_module._clone_tables(
            divergence_module.forward_backward(net, ev), net.edges()
        )
        aug = augment(net, net.edges())
        want = divergence_module.forward_backward(aug, ev)
        assert len(tables) == len(aug.clone_edges) == len(net.edges())
        for got, rec in zip(tables, aug.clone_edges):
            np.testing.assert_allclose(got, want.cpt(rec.clone), rtol=1e-12, atol=0)
        return tables

    def test_a_table_off_its_trace_is_refused(self, monkeypatch):
        net, ev = stack_case("grid(4x4)")
        grads = divergence_module.forward_backward(net, ev)
        real = engine_module._einsum
        monkeypatch.setattr(engine_module, "_einsum", lambda *a: 2.0 * real(*a))
        fault = r"^clone table of edge \S+ -> \S+ violates the trace\(g\) = Pr\(e\) identity: "
        with pytest.raises(ModelError, match=fault):
            divergence_module._clone_tables(grads, net.edges())


class TestScoreIsOneEdgeRun:
    """Scoring an edge is the ed-kl ``run`` of its one-edge plan."""

    @pytest.mark.parametrize(
        "net",
        [
            grid_network(4, 4, 2, rng=np.random.default_rng(11)),
            chain_network(8, 3, rng=np.random.default_rng(12)),
        ],
        ids=["grid(4x4)", "chain(8)x3"],
    )
    def test_every_edge_matches_run(self, net):
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(13))
        cfg = IterationConfig(
            method="ed-kl",
            schedule="sequential",
            initialization="uniform",
            max_iterations=INNER_MAX_ITERATIONS,
            tolerance=INNER_TOLERANCE,
        )
        scores = score_edges(net, ev)
        assert len(scores) == len(net.edges())
        for s in scores:
            aug, nprime, plan, evp = build(net, ev, [(s.parent, s.child)])
            fitted, report, trace = run(nprime, plan, evp, cfg, reference=(aug, ev))
            (params,) = fitted.params
            np.testing.assert_allclose(params.pm, s.params.pm, rtol=0, atol=1e-12)
            np.testing.assert_allclose(params.se, s.params.se, rtol=0, atol=1e-12)
            assert (report.iterations, report.converged) == (s.iterations, s.converged)
            assert trace[-1].kl_bound == pytest.approx(s.score, rel=1e-12, abs=0)


class TestScoreEdges:
    def test_equality_fixture_edges_score_zero(self, coins_fixture):
        net, ev = coins_fixture
        scores = score_edges(net, ev)
        assert len(scores) == 4
        for s in scores:
            assert s.score == pytest.approx(0.0, abs=1e-10)
            assert np.allclose(s.params.pm, [0.5, 0.5], atol=1e-9)

    def test_edge_out_of_observed_parent_scores_near_zero(self):
        # with the parent pinned by evidence the correlation term vanishes, so
        # deleting its outgoing edge costs nothing
        from edgedel import Cpt, Network, Variable

        rng = np.random.default_rng(6)
        a = Variable("A", ("0", "1"))
        b = Variable("B", ("0", "1"))
        c = Variable("C", ("0", "1"))
        net = Network(
            [a, b, c],
            [
                Cpt(a, (), [0.3, 0.7]),
                Cpt(b, (a,), rng.dirichlet([1, 1], size=2).reshape(-1)),
                Cpt(c, (b,), rng.dirichlet([1, 1], size=2).reshape(-1)),
            ],
        )
        ev = Evidence({"A": "1"})
        scores = {(s.parent, s.child): s.score for s in score_edges(net, ev)}
        assert scores[("A", "B")] <= 1e-8

    def test_bridge_edge_score_matches_enumeration(self):
        # deleting a disconnecting edge recovers exact marginals, but the
        # divergence over all variables keeps the cross-component
        # correlation term; the score must equal the enumerated divergence
        # at the optimized parameters
        rng = np.random.default_rng(6)
        net, bridge = bridged_net(rng)
        ev = Evidence({"B2": "0"})
        by_edge = {(s.parent, s.child): s for s in score_edges(net, ev)}
        s = by_edge[bridge]
        aug, nprime, plan, evp = build(net, ev, [bridge], [s.params])
        want = enumeration_kl_over_all_vars(aug, nprime, plan, ev, evp)
        assert s.score == pytest.approx(want, abs=1e-9)
        assert s.score > 0.0
        assert type(s.score) is float

    def test_one_adjoint_pass_for_all_edges(self, monkeypatch):
        # Pr(e) and every clone table come from one derivative pass; only
        # edges in a tie run take their own derivative table, all of them
        # in one refit, and every fit runs in the stacked loop, not edge by
        # edge
        rng = np.random.default_rng(7)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        refits = record_refits(monkeypatch)
        calls = count_engine_calls(monkeypatch, ["compile", "derivatives", "cpt_derivatives"])
        updates = []

        def counting(*args, **kwargs):
            updates.append(args)
            return edge_update(*args, **kwargs)

        monkeypatch.setattr(divergence_module, "edge_update", counting)
        scores = score_edges(net, ev)
        tied = tied_edges(scores)
        assert calls == {"compile": 0, "derivatives": 1, "cpt_derivatives": 0}
        assert [len(wrt) for wrt, _, _ in refits] == ([tied] if tied else [])
        assert len(updates) == 0

    def test_ranking_ascending_with_declaration_tiebreak(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        scores = score_edges(net, ev)
        values = [s.score for s in scores]
        assert values == sorted(values)

    def test_root_edges_tie_up_to_roundoff(self):
        # the two out-edges of a grid's root score the same mathematically;
        # only roundoff tells them apart (TestTieRule pins their order)
        net = grid_network(4, 4, rng=np.random.default_rng(4))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        by_edge = {(s.parent, s.child): s.score for s in score_edges(net, ev)}
        right, down = by_edge[("N0_0", "N0_1")], by_edge[("N0_0", "N1_0")]
        assert right == pytest.approx(down, rel=1e-12, abs=0)

    def test_width_cap_below_compile_width_refuses_before_any_table(self, monkeypatch):
        net = grid_network(4, 4, rng=np.random.default_rng(5))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        width = compile(augment(net, net.edges()), ev).width
        calls = count_engine_calls(monkeypatch, ["_bind", "replay", "derivatives"])
        with pytest.raises(CapacityError, match=f"induced width {width} exceeds the cap of {width - 1}"):
            score_edges(net, ev, width_cap=width - 1)
        # the pass is refused when its tree is planned, before it reads a table
        assert calls == {"_bind": 0, "replay": 0, "derivatives": 1}

    def test_converged_scores_satisfy_exactness_on_their_edge(self):
        rng = np.random.default_rng(9)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        aug_all = augment(net, net.edges())
        st = compile(aug_all, ev)
        for s in score_edges(net, ev):
            if not s.converged:
                continue
            rec = next(
                r for r in aug_all.clone_edges
                if r.parent == s.parent and r.child == s.child
            )
            derivs = cpt_derivatives(st, aug_all.cpt(rec.clone))
            true_marg = posterior_marginal(st, s.parent)
            pr_ep, d_pm, _ = single_edge_evaluate(derivs, s.params.pm, s.params.se)
            clone_posterior = s.params.pm * d_pm / pr_ep
            assert np.allclose(clone_posterior, true_marg, atol=1e-8)


class TestTieRule:
    @pytest.mark.parametrize("size,seed", [(4, 2), (4, 4), (5, 1), (5, 6)])
    def test_ranking_follows_the_per_edge_route(self, monkeypatch, size, seed):
        net = grid_network(size, size, rng=np.random.default_rng(seed))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        want = routed_scores(net, ev, one_pass=False)
        edges = lambda scores: [(s.parent, s.child) for s in scores]
        # the fixture is one where sorting the one-pass scores swaps the root's edges
        assert edges(routed_scores(net, ev, one_pass=True)) != edges(want)
        refits = record_refits(monkeypatch)
        calls = count_engine_calls(monkeypatch, ["compile", "cpt_derivatives"])
        got = score_edges(net, ev)
        # one refit takes the derivative tables of the two tied edges, the root's
        assert calls == {"compile": 0, "cpt_derivatives": 0} and tied_edges(got) == 2
        assert [sorted(net.edges()[i] for i in wrt) for wrt, _, _ in refits] == [
            [("N0_0", "N0_1"), ("N0_0", "N1_0")]
        ]
        assert edges(got) == edges(want)
        values = [s.score for s in got]
        assert values == sorted(values)
        root = [(s, w) for s, w in zip(got, want) if s.parent == "N0_0"]
        assert len(root) == 2
        for s, w in root:
            assert s == w
        for s, w in zip(got, want):
            assert s.score == pytest.approx(w.score, rel=1e-12, abs=1e-14)


# seeded networks for the stacked fit: 2- and 3-state tables, C- and
# F-ordered clone tables, and (with no evidence) many tie runs
STACK_CASES = {
    "grid(4x4)": (lambda: grid_network(4, 4, rng=np.random.default_rng(21)), True),
    "grid(5x5)": (lambda: grid_network(5, 5, rng=np.random.default_rng(22)), True),
    "grid(7x7)": (lambda: grid_network(7, 7, rng=np.random.default_rng(23)), True),
    "grid(4x4)x3": (lambda: grid_network(4, 4, 3, rng=np.random.default_rng(24)), True),
    "chain(8)x3": (lambda: chain_network(8, 3, rng=np.random.default_rng(25)), True),
    "grid(5x5) no evidence": (lambda: grid_network(5, 5, rng=np.random.default_rng(26)), False),
}


def stack_case(name):
    make, leaf_evidence = STACK_CASES[name]
    net = make()
    if leaf_evidence:
        return net, sample_evidence(net, "leaves-from-joint", np.random.default_rng(27))
    return net, Evidence({})


def same_fit(got, want):
    """Every field equal, the vectors byte for byte."""
    return (
        got == want
        and got.params.pm.tobytes() == want.params.pm.tobytes()
        and got.params.se.tobytes() == want.params.se.tobytes()
    )


class TestStackedFit:
    """The stacked fit is bitwise the per-edge ``edge_update`` route on the
    same tables: those derived from the source pass (``_clone_tables``),
    and, for a tie run, the refit's tables, which ``reference_scores``
    takes from ``cpt_derivatives``."""

    @pytest.mark.parametrize("case", list(STACK_CASES))
    def test_score_edges_is_the_per_edge_route(self, case):
        net, ev = stack_case(case)
        got, want = score_edges(net, ev), reference_scores(net, ev)
        assert [(s.parent, s.child) for s in got] == [(s.parent, s.child) for s in want]
        assert all(same_fit(g, w) for g, w in zip(got, want))
        if case == "grid(5x5) no evidence":
            assert tied_edges(got) > 10

    def test_fixtures_hold_both_table_layouts(self, monkeypatch):
        # both routes' tables, for the test above: the derived tables hold C-
        # and F-ordered 2x2 tables, so the (shape, layout) grouping sees
        # both, and the tie refits read 2x2 and 3x3 tables
        layout = lambda t: (t.shape, t.flags.c_contiguous, t.flags.f_contiguous)
        derived = set()
        refits = record_refits(monkeypatch)
        for case in STACK_CASES:
            net, ev = stack_case(case)
            source = divergence_module.forward_backward(net, ev)
            derived.update(map(layout, divergence_module._clone_tables(source, net.edges())))
            score_edges(net, ev)
        refit = {layout(t) for _, _, tables in refits for t in tables}
        for card in (2, 3):
            assert ((card, card), True, False) in derived
            assert ((card, card), True, False) in refit
        assert ((2, 2), False, True) in derived

    @pytest.mark.parametrize("case", ["grid(5x5)", "grid(4x4)x3"])
    def test_rows_freeze_at_their_own_iteration(self, monkeypatch, case):
        # seeded edges need 2-6 updates, so a budget of 3 leaves one stack
        # with converged and unconverged rows
        monkeypatch.setattr(divergence_module, "INNER_MAX_ITERATIONS", 3)
        net, ev = stack_case(case)
        got, want = score_edges(net, ev), reference_scores(net, ev, max_iterations=3)
        assert {s.converged for s in got} == {True, False}
        assert all(same_fit(g, w) for g, w in zip(got, want))

    def test_rows_out_of_budget_keep_their_last_update(self, monkeypatch):
        # with a budget of one update no row converges, so no row leaves
        # its stack, and each row's vectors are that update's
        monkeypatch.setattr(divergence_module, "INNER_MAX_ITERATIONS", 1)
        net, ev = stack_case("grid(5x5)")
        got, want = score_edges(net, ev), reference_scores(net, ev, max_iterations=1)
        assert not any(s.converged for s in got)
        assert all(same_fit(g, w) for g, w in zip(got, want))

    def test_each_clamping_row_warns_with_its_own_label(self, monkeypatch):
        # a zero column against positive true mass clamps the prior update
        # once per iteration; the third row never clamps
        monkeypatch.setattr(divergence_module, "INNER_MAX_ITERATIONS", 1)
        g = np.stack([
            np.array([[0.5, 0.0], [0.2, 0.0]]),
            np.array([[0.0, 0.5], [0.0, 0.2]]),
            np.array([[0.5, 0.1], [0.2, 0.4]]),
        ])
        true = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.4]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            divergence_module._fit_stack([(u, "X") for u in "ABC"], g, true, 1.0)
        assert [str(w.message) for w in caught] == [
            f"zero derivative against positive true mass for edge {u} -> X; clamping denominator"
            for u in "AB"
        ]
        assert all(w.category is RuntimeWarning for w in caught)

    def test_a_zero_mass_row_raises_as_its_own_update_does(self):
        # the middle row's true parent posterior is all zero, so its prior
        # update sums to 0; the stack raises the one-edge update's error
        g = np.stack([np.array([[0.5, 0.1], [0.2, 0.4]])] * 3)
        true = np.array([[0.5, 0.5], [0.0, 0.0], [0.3, 0.7]])
        with pytest.raises(edgedel.DegenerateUpdateError) as alone:
            edge_update(
                single_edge_evaluate(g[1], *uniform_vectors(2)), *uniform_vectors(2), "ed-kl",
                true[1], "edge B -> X", g=g[1],
            )
        with pytest.raises(edgedel.DegenerateUpdateError) as stacked:
            divergence_module._fit_stack([(u, "X") for u in "ABC"], g, true, 1.0)
        assert str(stacked.value) == str(alone.value)
        assert str(alone.value) == "update for edge B -> X is degenerate (sum 0.0)"


def tie_case(size, seed):
    """TestTieRule's fixtures: a seeded grid with every leaf in its first state."""
    net = grid_network(size, size, rng=np.random.default_rng(seed))
    return net, Evidence({n: net.var(n).states[0] for n in net.leaves()})


class TestKeptRefit:
    """The tie refit reads one kept structure per (source layout, observed
    variables, tied edges) (``engine.derived_derivatives``): its Pr(e) and
    each tied edge's clone table are, byte for byte, those of ``compile``
    and ``cpt_derivatives`` on the all-edges augmentation."""

    @staticmethod
    def compiled(net, ev, wrt, width_cap=engine_module.WIDTH_CAP_DEFAULT):
        aug = augment(net, net.edges())
        st = compile(aug, ev, width_cap)
        tables = [cpt_derivatives(st, aug.cpt(aug.clone_edges[i].clone)) for i in wrt]
        return st.pr_e, tables

    def check(self, net, ev, refit):
        """``refit``, a (labels, Pr(e), tables) of ``record_refits``, is the
        compiled route's, and the scores are the per-edge route's."""
        wrt, pr_e, tables = refit
        want_pr_e, want = self.compiled(net, ev, wrt)
        assert pr_e.hex() == want_pr_e.hex() and len(tables) == len(want)
        for got, w in zip(tables, want):
            assert got.shape == w.shape and got.flags.c_contiguous
            assert got.tobytes() == w.tobytes()
        got, want = score_edges(net, ev), reference_scores(net, ev)
        assert [(s.parent, s.child) for s in got] == [(s.parent, s.child) for s in want]
        assert all(same_fit(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("size,first,second", [(4, 2, 4), (5, 1, 6)])
    def test_a_structure_recorded_on_one_instance_serves_another(
        self, monkeypatch, size, first, second
    ):
        score_edges(*tie_case(size, first))
        net, ev = tie_case(size, second)
        kept = set(engine_module._structures)
        built, real = [], divergence_module.augment
        monkeypatch.setattr(divergence_module, "augment", lambda *a: built.append(a) or real(*a))
        refits = record_refits(monkeypatch)
        calls = count_engine_calls(monkeypatch, ["compile", "cpt_derivatives", "_record_refit"])
        score_edges(net, ev)
        # a hit: no augmentation, no compile, no structure miss
        assert set(engine_module._structures) == kept and not built
        assert calls == {"compile": 0, "cpt_derivatives": 0, "_record_refit": 0}
        monkeypatch.undo()
        (refit,) = refits
        assert len(refit[0]) == 2
        self.check(net, ev, refit)

    def test_a_tied_parent_that_is_observed(self, monkeypatch):
        # the out-edges of an observed parent score 0 and tie; their tables
        # keep the parent unsliced, with its indicator as an input
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = Evidence({"N0_0": "s1", "N1_1": "s0", "N3_3": "s0"})
        refits = record_refits(monkeypatch)
        score_edges(net, ev)
        monkeypatch.undo()
        (refit,) = refits
        assert {net.edges()[i][0] for i in refit[0]} >= {"N0_0", "N1_1"}
        self.check(net, ev, refit)

    @pytest.mark.parametrize("case,tied,edges", [("random(6)", 6, 7), ("grid(5x5)", 32, 40)])
    def test_empty_evidence_refits_most_edges_with_one_pr_e(self, monkeypatch, case, tied, edges):
        if case == "random(6)":
            net = random_network(np.random.default_rng(7), n_vars=6)
        else:
            net = grid_network(5, 5, rng=np.random.default_rng(26))
        ev = Evidence({})
        refits = record_refits(monkeypatch)
        calls = count_engine_calls(monkeypatch, ["compile", "_result", "_check_euler"])
        scores = score_edges(net, ev)
        # one refit for every tie run: Pr(e) once, then one table per tied
        # edge, each Euler-checked, as is each child's table in the pass
        assert len(net.edges()) == edges and tied_edges(scores) == tied
        assert [len(wrt) for wrt, _, _ in refits] == [tied]
        children = len({x for _, x in net.edges()})
        assert calls == {"compile": 0, "_result": 1 + tied, "_check_euler": children + tied}
        monkeypatch.undo()
        self.check(net, ev, refits[0])

    @pytest.mark.parametrize("size,seed,replayed,compiled", [(4, 2, 55, 113), (5, 1, 84, 188)])
    def test_each_shared_bucket_is_replayed_once(
        self, monkeypatch, size, seed, replayed, compiled
    ):
        net, ev = tie_case(size, seed)
        refits = record_refits(monkeypatch)
        calls = count_engine_calls(monkeypatch, ["_stored", "_record_refit", "compile"])
        built = []
        real = divergence_module.augment
        monkeypatch.setattr(divergence_module, "augment", lambda *a: built.append(a) or real(*a))
        # the source pass replays no bucket: every stored bucket is the refit's
        score_edges(net, ev)
        assert calls == {"_stored": replayed, "_record_refit": 1, "compile": 0}
        assert len(built) == 1
        calls.update(dict.fromkeys(calls, 0))
        score_edges(net, ev)
        assert calls == {"_stored": replayed, "_record_refit": 0, "compile": 0}
        assert len(built) == 1
        # the compiled route's programs replay every bucket of each
        calls.update(dict.fromkeys(calls, 0))
        self.compiled(net, ev, refits[0][0])
        assert calls["_stored"] == compiled

    @pytest.mark.parametrize("seed", [3, 20])
    @pytest.mark.parametrize("warm", [False, True])
    def test_a_cap_below_the_refit_s_width_raises_the_compiled_route_s_error(
        self, monkeypatch, seed, warm
    ):
        # the source pass fits the cap and the refit does not: at seed 3
        # Pr(e)'s elimination is too wide, at seed 20 a tied edge's table's
        rng = np.random.default_rng(seed)
        net = random_network(rng, n_vars=int(rng.integers(5, 10)))
        ev = positive_evidence(net, rng) if seed % 2 else Evidence({})
        cap = engine_module.Jointree(net, ev, [((), ())]).width
        pr_e_width = engine_module.record(augment(net, net.edges()), ev).width
        assert (pr_e_width > cap) == (seed == 3)
        refits = record_refits(monkeypatch)
        score_edges(net, ev)
        monkeypatch.undo()
        with pytest.raises(CapacityError) as want:
            self.compiled(net, ev, refits[0][0], width_cap=cap)
        if not warm:
            engine_module._structures.clear()
        calls = count_engine_calls(monkeypatch, ["_multiply", "_result"])
        with pytest.raises(CapacityError) as got:
            score_edges(net, ev, width_cap=cap)
        assert str(got.value) == str(want.value)
        # refused before any table is read; a refused structure is not kept
        assert calls == {"_multiply": 0, "_result": 0}
        assert sum(key[0] == "refit" for key in engine_module._structures) == warm


class TestOriginalNetworksOnly:
    """Both scorers refuse an augmented or approximate input by its kind,
    before any pass."""

    @pytest.mark.parametrize("scorer", [score_edges, mutual_information_scores],
                             ids=["score_edges", "mutual_information_scores"])
    @pytest.mark.parametrize("kind", ["augmented", "approximate"])
    def test_a_non_original_network_is_refused(self, monkeypatch, scorer, kind):
        net, ev = stack_case("grid(4x4)")
        aug, nprime, _ = approximate_network(net, net.edges()[:2])
        other = aug if kind == "augmented" else nprime
        assert other.kind == kind
        kept = divergence_module._kept_pass
        calls = count_engine_calls(monkeypatch, ["derivatives", "compile", "record"])
        fault = rf"^{scorer.__name__} expects an original network, got kind '{kind}'$"
        with pytest.raises(ModelError, match=fault):
            scorer(other, ev)
        assert calls == {"derivatives": 0, "compile": 0, "record": 0}
        assert divergence_module._kept_pass is kept

    @pytest.mark.parametrize("scorer", [score_edges, mutual_information_scores],
                             ids=["score_edges", "mutual_information_scores"])
    def test_zero_probability_evidence_is_refused(self, scorer):
        # X2 is never s1
        net = chain_network(3, rng=np.random.default_rng(0))
        x2 = net.cpt("X2")
        net = net.replace_cpts({"X2": Cpt(x2.child, x2.parents, [1, 0, 1, 0])})
        with pytest.raises(InconsistentEvidenceError, match="^evidence has zero probability$"):
            scorer(net, Evidence({"X2": "s1"}))


class TestMutualInformation:
    def test_independent_pair_ranks_first(self):
        from edgedel import Cpt, Network, Variable

        a = Variable("A", ("0", "1"))
        b = Variable("B", ("0", "1"))
        c = Variable("C", ("0", "1"))
        net = Network(
            [a, b, c],
            [
                Cpt(a, (), [0.5, 0.5]),
                Cpt(b, (a,), [0.5, 0.5, 0.5, 0.5]),   # independent of A
                Cpt(c, (b,), [1.0, 0.0, 0.0, 1.0]),   # copies B
            ],
        )
        ranked = mutual_information_scores(net, Evidence({}))
        assert (ranked[0][0], ranked[0][1]) == ("A", "B")
        assert ranked[0][2] == pytest.approx(0.0, abs=1e-12)
        assert (ranked[-1][0], ranked[-1][1]) == ("B", "C")
        assert ranked[-1][2] == pytest.approx(math.log(2), abs=1e-12)

    def test_observed_endpoint_ties_break_by_declaration_order(self):
        # N3_3 is observed; its in-edges tie at exactly zero, so they rank
        # first and in declaration order, not in roundoff order
        rng = np.random.default_rng(0)
        net = grid_network(4, 4, 2, rng)
        ev = sample_evidence(net, "leaves-from-joint", rng)
        assert set(ev) == {"N3_3"}
        ranked = mutual_information_scores(net, ev)
        assert ranked[:2] == [("N2_3", "N3_3", 0.0), ("N3_2", "N3_3", 0.0)]
        assert all(mi > 0.0 for _, _, mi in ranked[2:])

    def test_values_match_single_queries_and_enumeration(self):
        # N1_1 is an observed parent of N1_2 and N2_1, and a child of N0_1
        # and N1_0
        net = grid_network(3, 3, rng=np.random.default_rng(11))
        ev = Evidence({"N2_2": "s0", "N1_1": "s1"})
        st = compile(net, ev)
        joint = enumerate_joint(net, ev)
        ranked = mutual_information_scores(net, ev)
        assert len(ranked) == len(net.edges())
        for u, x, mi in ranked:
            pair = pairwise_marginal(st, u, x)
            pu, px = pair.sum(axis=1), pair.sum(axis=0)
            want = sum(
                pair[i, j] * math.log(pair[i, j] / (pu[i] * px[j]))
                for i in range(pair.shape[0])
                for j in range(pair.shape[1])
                if pair[i, j] > 0
            )
            assert mi == pytest.approx(want, abs=1e-12), (u, x)
            if u in ev or x in ev:
                assert mi == 0.0
                continue
            pair = joint.marginalize_to({u, x}).reorder((u, x)).values / joint.total()
            assert np.allclose(pairwise_marginal(st, u, x), pair, rtol=0, atol=1e-12)

    def test_values_match_enumeration(self):
        rng = np.random.default_rng(10)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        joint = enumerate_joint(net, ev)
        total = joint.total()
        for u, x, mi in mutual_information_scores(net, ev):
            if u in ev or x in ev:
                assert mi == pytest.approx(0.0, abs=1e-12)
                continue
            pair = joint.marginalize_to({u, x}).reorder((u, x)).values / total
            pu = pair.sum(axis=1)
            px = pair.sum(axis=0)
            want = 0.0
            for i in range(pair.shape[0]):
                for j in range(pair.shape[1]):
                    if pair[i, j] > 0:
                        want += pair[i, j] * math.log(pair[i, j] / (pu[i] * px[j]))
            assert mi == pytest.approx(want, abs=1e-9)


class TestReferencePass:
    """A reference given as (network, evidence) resolves to the kept pass on
    the original network (``reference_pass``): an augmentation to the one
    it augments, so no pass is made on an augmentation, and the answers are
    those read off ``source_pass(net, ev)``, bit for bit, whether the kept
    pass is a hit or a miss."""

    CASES = ("grid4x4-leaves", "grid3x3-observed-parent", "chain8x3")

    @staticmethod
    def passes_by_kind(monkeypatch):
        kinds = []
        real = engine_module.derivatives

        def recording(net, *args, **kwargs):
            kinds.append(net.kind)
            return real(net, *args, **kwargs)

        monkeypatch.setattr(engine_module, "derivatives", recording)
        return kinds

    @pytest.mark.parametrize("schedule", ["sequential", "simultaneous"])
    @pytest.mark.parametrize("method", ["ed-kl", "ed-bp"])
    @pytest.mark.parametrize("case", CASES)
    def test_a_fit_on_aug_ev_is_the_fit_on_the_source_pass(
        self, monkeypatch, case, method, schedule
    ):
        net, ev, aug, nprime, plan, evp = fit_cases.build(case)
        assert aug.origin is net
        cfg = IterationConfig(method=method, schedule=schedule, max_iterations=30)
        kinds = self.passes_by_kind(monkeypatch)
        fitted, report, trace = run(nprime, plan, evp, cfg, reference=(aug, ev))
        assert kinds == ["original"]
        # a new pass on the original, not the one kept above
        divergence_module._kept_pass = None
        source = divergence_module.source_pass(net, ev)
        assert source is not report.source
        want = run(nprime, plan, evp, cfg, reference=source)
        assert fit_cases.encode(fitted, report, trace) == fit_cases.encode(*want)
        assert report.pr_ep.hex() == want[1].pr_ep.hex()
        assert report.source.pr_e.hex() == source.pr_e.hex()

    @pytest.mark.parametrize("case", CASES)
    def test_kl_bound_exact_kl_and_check_conditions_read_the_source_pass(
        self, monkeypatch, case
    ):
        net, ev, aug, nprime, plan, evp = fit_cases.build(case)
        plan, _, _ = run(nprime, plan, evp, IterationConfig(max_iterations=2),
                         reference=(aug, ev))
        kinds = self.passes_by_kind(monkeypatch)
        bound = kl_bound(aug, nprime, plan, ev, evp)
        exact = exact_kl(aug, nprime, plan, ev, evp)
        gaps = check_conditions(aug, nprime, plan, ev, evp)
        assert "augmented" not in kinds
        divergence_module._kept_pass = None
        source = divergence_module.source_pass(net, ev)
        current = apply_params(nprime, plan)
        pr_ep = engine_module.derivatives(current, evp, ()).pr_e
        assert bound == divergence_module.read_kl_bound(source, pr_ep, plan)
        assert exact.hex() == divergence_module.read_exact_kl(source, pr_ep, nprime, plan).hex()
        grads = divergence_module.forward_backward(current, evp)
        want = [
            max(np.max(np.abs(grads.posterior(rec.parent) - true)),
                np.max(np.abs(grads.posterior(rec.clone) - true)))
            for rec, true in zip(plan.edges, divergence_module.true_edge_marginals(source, plan))
        ]
        assert gaps.eq_exact_gaps == tuple(map(float, want))

    def test_a_parsed_augmentation_resolves_as_the_built_one(self):
        net, ev, aug, nprime, plan, evp = fit_cases.build("grid3x3-observed-parent")
        parsed = parse_network(serialize_network(aug))
        assert parsed == aug and parsed.origin == net and parsed.origin is not net
        cfg = IterationConfig(method="ed-kl", max_iterations=30)
        built = run(nprime, plan, evp, cfg, reference=(aug, ev))
        divergence_module._kept_pass = None
        read = run(nprime, plan, evp, cfg, reference=(parsed, ev))
        assert read[1].source.net is parsed.origin
        assert fit_cases.encode(*read) == fit_cases.encode(*built)
        fitted = built[0]
        assert (kl_bound(parsed, nprime, fitted, ev, evp)
                == kl_bound(aug, nprime, fitted, ev, evp))
        assert (exact_kl(parsed, nprime, fitted, ev, evp).hex()
                == exact_kl(aug, nprime, fitted, ev, evp).hex())

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(("  N1_1__clone0 | N1_1 : 1.0 0.0 0.0 1.0",
                          "  N1_1__clone0 | N1_1 : 0.9 0.1 0.0 1.0"), id="clone-cpt"),
            pytest.param(("N1_1 N1_1__clone0 N1_2 -", "N1_1 N1_1__clone0 N1_2 N2_2"),
                         id="cut-edge"),
        ],
    )
    def test_an_augmentation_without_its_original_is_refused(self, edit):
        # a document whose registry is not an intact equivalence edge is not
        # distribution-equivalent to any original, so it records none
        net, ev, aug, nprime, plan, evp = fit_cases.build("grid3x3-observed-parent")
        text = serialize_network(aug)
        assert edit[0] in text
        parsed = parse_network(text.replace(*edit))
        assert parsed.kind == "augmented" and parsed.origin is None
        fault = "^a network of kind 'augmented' records no original network$"
        with pytest.raises(ModelError, match=fault):
            run(nprime, plan, evp, IterationConfig(), reference=(parsed, ev))
        with pytest.raises(ModelError, match=fault):
            kl_bound(parsed, nprime, plan, ev, evp)
        with pytest.raises(ModelError, match="^a network of kind 'approximate' records no"):
            exact_kl(nprime, nprime, plan, ev, evp)

    def test_the_reference_is_checked_at_the_original_s_width(self):
        # augmenting can widen the network; the reference pass is the
        # original's, so a cap that refuses the augmentation's pass but
        # admits the original's and N''s no longer refuses the reads
        rng = np.random.default_rng(4)
        net = random_network(rng, n_vars=10, max_card=3, max_parents=3)
        edges = net.edges()
        k = int(rng.integers(1, len(edges) + 1))
        edges = [edges[i] for i in sorted(rng.choice(len(edges), size=k, replace=False))]
        ev = Evidence({})
        aug, nprime, plan, evp = build(net, ev, edges)
        width = engine_module.Jointree(net, ev, [((), ())]).width
        assert engine_module.Jointree(aug, ev, [((), ())]).width == width + 1
        with pytest.raises(CapacityError):
            divergence_module.forward_backward(aug, ev, width)
        got = exact_kl(aug, nprime, plan, ev, evp, width_cap=width)
        assert got == exact_kl(aug, nprime, plan, ev, evp)
        assert kl_bound(aug, nprime, plan, ev, evp, width_cap=width).total >= got
