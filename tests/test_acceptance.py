"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Statistical criteria (10, 11) are fully seeded and print the
recorded counts alongside the asserted floors.
"""

import collections
import math
import time

import numpy as np
import pytest

from edgedel import (
    Cpt,
    DeletionPlan,
    EdgeParams,
    Evidence,
    IterationConfig,
    approximate_network,
    augment,
    augmented_evidence,
    check_conditions,
    compile,
    cpt_derivatives,
    delete_edges,
    enumerate_joint,
    exact_kl,
    kl_bound,
    min_fill_order,
    pairwise_marginal,
    posterior_marginal,
    run,
    score_edges,
    single_edge_evaluate,
)
from edgedel import harness
from edgedel.deletion import apply_params
from edgedel.mapapprox import approximate_map_quality

from bp_reference import FactorGraphBP
from conftest import (
    bridged_net,
    count_engine_calls,
    equality_witness_net,
    loopy_polytree_net,
    positive_evidence,
    random_network,
    record_refits,
    tied_edges,
)


def _ok(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: PASS{suffix}")


def _random_params(net, edges, rng):
    out = []
    for u, _ in edges:
        card = net.var(u).card
        out.append(EdgeParams(rng.dirichlet(np.ones(card)), rng.uniform(0.05, 0.95, card)))
    return out


def test_criterion_01_oracle_equivalence():
    """Engine Pr(e), marginals, pairwise marginals match enumeration at 1e-10
    on 100 seeded random networks, within 60 s."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng([101, seed])
        n_vars = int(rng.integers(6, 13))
        net = random_network(rng, n_vars=n_vars, max_card=3)
        ev = positive_evidence(net, rng)
        joint = enumerate_joint(net, ev)
        total = joint.total()
        st = compile(net, ev)
        worst = max(worst, abs(st.pr_e - total))
        assert st.pr_e == pytest.approx(total, abs=1e-10)
        names = [v.name for v in net.variables]
        for name in names:
            got = posterior_marginal(st, name)
            if name in ev:
                want = np.zeros(net.var(name).card)
                want[net.var(name).index_of(ev[name])] = 1.0
            else:
                want = joint.marginalize_to({name}).values / total
            err = float(np.max(np.abs(got - want)))
            worst = max(worst, err)
            assert err <= 1e-10
        pairs = [(names[int(a)], names[int(b)])
                 for a, b in rng.integers(0, n_vars, size=(5, 2)) if a != b]
        for a, b in pairs:
            got = pairwise_marginal(st, a, b)
            if a in ev or b in ev:
                continue
            want = joint.marginalize_to({a, b}).reorder((a, b)).values / total
            err = float(np.max(np.abs(got - want)))
            worst = max(worst, err)
            assert err <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _ok("criterion 1 oracle equivalence", f"100 networks, worst |err| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_derivative_correctness():
    """Central finite differences (relative 1e-4), exact indicator replacement
    at zero parameters, and the Euler identity at 1e-9, on 50 probes."""
    worst_fd = 0.0
    worst_euler = 0.0
    for seed in range(50):
        rng = np.random.default_rng([102, seed])
        net = random_network(rng, n_vars=int(rng.integers(5, 9)))
        ev = positive_evidence(net, rng)
        st = compile(net, ev)
        name = net.variables[int(rng.integers(len(net.variables)))].name
        cpt = net.cpt(name)
        d = cpt_derivatives(st, cpt)
        euler = float((cpt.shaped * d).sum())
        rel = abs(euler - st.pr_e) / max(st.pr_e, 1e-300)
        worst_euler = max(worst_euler, rel)
        assert rel <= 1e-9
        flat = cpt.table
        k = int(rng.integers(flat.size))
        h = 1e-6
        up, dn = flat.copy(), flat.copy()
        up[k] += h
        dn[k] -= h
        pr_up = enumerate_joint(net.replace_cpts({name: Cpt(cpt.child, cpt.parents, up)}), ev).total()
        pr_dn = enumerate_joint(net.replace_cpts({name: Cpt(cpt.child, cpt.parents, dn)}), ev).total()
        fd = (pr_up - pr_dn) / (2 * h)
        dk = float(d.reshape(-1)[k])
        err = abs(fd - dk) / max(abs(dk), 1e-9)
        worst_fd = max(worst_fd, err)
        assert err <= 1e-4
        # exactness at a genuinely zero parameter: augment one edge, probe the
        # off-diagonal entries of the clone's 0/1 equivalence table
        edges = net.edges()
        if edges:
            edge = edges[int(rng.integers(len(edges)))]
            aug = augment(net, [edge])
            st_aug = compile(aug, ev)
            clone = aug.clone_edges[0].clone
            ccpt = aug.cpt(clone)
            dz = cpt_derivatives(st_aug, ccpt)
            card = aug.var(clone).card
            i, j = 0, card - 1  # off-diagonal: parameter is exactly zero
            ind = np.zeros(ccpt.table.size)
            ind[i * card + j] = 1.0
            pr_ind = enumerate_joint(
                aug.replace_cpts({clone: Cpt(ccpt.child, ccpt.parents, ind)}), ev
            ).total()
            assert dz[i, j] == pytest.approx(pr_ind, rel=1e-10, abs=1e-13)
    _ok("criterion 2 derivatives", f"50 probes, worst FD rel {worst_fd:.2e}, worst Euler rel {worst_euler:.2e}")


def _divergence_instances(n):
    """Seeded (network, evidence, plan-with-random-params) triples."""
    out = []
    seed = 0
    while len(out) < n:
        rng = np.random.default_rng([103, seed])
        seed += 1
        net = random_network(rng, n_vars=int(rng.integers(5, 9)))
        edges = net.edges()
        if len(edges) < 2:
            continue
        take_n = int(rng.integers(1, 3))
        take = [edges[int(i)] for i in rng.choice(len(edges), size=take_n, replace=False)]
        ev = positive_evidence(net, rng)
        params = _random_params(net, take, rng)
        out.append((net, ev, take, params))
    return out


def _enumeration_kl_all_vars(aug, nprime, plan, ev, evp):
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


def test_criterion_03_and_04_divergence_identity_and_inequality():
    """kl_bound equals the enumerated divergence over all augmented variables
    (1e-9) and exact_kl never exceeds it (1e-9), on 50 random triples."""
    worst_id = 0.0
    worst_gap = -math.inf
    for net, ev, take, params in _divergence_instances(50):
        aug, nprime, plan = approximate_network(net, take, params)
        evp = augmented_evidence(nprime, ev)
        got = kl_bound(aug, nprime, plan, ev, evp).total
        want = _enumeration_kl_all_vars(aug, nprime, plan, ev, evp)
        assert got == pytest.approx(want, abs=1e-9)
        worst_id = max(worst_id, abs(got - want))
        exact = exact_kl(aug, nprime, plan, ev, evp)
        assert exact <= got + 1e-9
        worst_gap = max(worst_gap, exact - got)
    _ok("criterion 3 divergence identity", f"50 triples, worst |diff| {worst_id:.2e}")
    _ok("criterion 4 divergence inequality", f"worst exact-bound gap {worst_gap:.2e} <= 1e-9")


def test_criterion_05_converged_edkl_matches_true_marginals():
    """On 50 converged runs (tol 1e-8) every parent and clone posterior is
    within 1e-6 of the true posterior."""
    converged = 0
    attempts = 0
    worst = 0.0
    seed = 0
    while converged < 50 and seed < 120:
        rng = np.random.default_rng([105, seed])
        seed += 1
        net = random_network(rng, n_vars=int(rng.integers(5, 9)))
        edges = net.edges()
        if not edges:
            continue
        take_n = int(rng.integers(1, min(2, len(edges)) + 1))
        take = [edges[int(i)] for i in rng.choice(len(edges), size=take_n, replace=False)]
        ev = positive_evidence(net, rng)
        aug, nprime, plan = approximate_network(net, take)
        evp = augmented_evidence(nprime, ev)
        attempts += 1
        plan, report, _ = run(
            nprime, plan, evp,
            IterationConfig(method="ed-kl", tolerance=1e-8, max_iterations=300),
            reference=(aug, ev),
        )
        if not report.converged:
            continue
        converged += 1
        rep = check_conditions(aug, nprime, plan, ev, evp)
        gap = max(rep.eq_exact_gaps)
        worst = max(worst, gap)
        assert gap <= 1e-6
    assert converged == 50
    _ok("criterion 5 stationarity necessity",
        f"50 converged of {attempts} runs, worst gap {worst:.2e}")


def test_criterion_06_single_edge_closed_form(monkeypatch):
    """Closed-form single-edge quantities agree with direct compilation at
    1e-10 relative on 50 instances, and the scorer's inner loop never touches
    the engine after its one adjoint pass (and its one tie refit)."""
    worst = 0.0
    done = 0
    seed = 0
    while done < 50:
        rng = np.random.default_rng([106, seed])
        seed += 1
        net = random_network(rng, n_vars=int(rng.integers(5, 8)))
        edges = net.edges()
        if not edges:
            continue
        edge = edges[int(rng.integers(len(edges)))]
        ev = positive_evidence(net, rng)
        aug = augment(net, [edge])
        st = compile(aug, ev)
        rec = aug.clone_edges[0]
        derivs = cpt_derivatives(st, aug.cpt(rec.clone))
        params = _random_params(net, [edge], rng)[0]
        pr_ep, d_pm, d_se = single_edge_evaluate(derivs, params.pm, params.se)
        plan = DeletionPlan((rec,), (params,))
        nprime = delete_edges(aug, plan)
        evp = augmented_evidence(nprime, ev)
        st_direct = compile(nprime, evp)
        rel = abs(pr_ep - st_direct.pr_e) / max(st_direct.pr_e, 1e-300)
        assert rel <= 1e-10
        d_pm_direct = cpt_derivatives(st_direct, nprime.cpt(rec.clone))
        bound = [r for r in nprime.clone_edges if r.sevid is not None][0]
        d_se_direct = cpt_derivatives(st_direct, nprime.cpt(bound.sevid))[:, 0]
        for a, b in ((d_pm, d_pm_direct), (d_se, d_se_direct)):
            scale = np.maximum(np.abs(b), 1e-300)
            rel = float(np.max(np.abs(a - b) / scale))
            worst = max(worst, rel)
            assert rel <= 1e-10
        done += 1
    # structural half: one derivative pass serves the whole scoring pass,
    # and only the edges of a tie run take their own derivative table, all
    # in one refit made only if such a run exists
    rng = np.random.default_rng([106, 999])
    net = random_network(rng, n_vars=7)
    ev = positive_evidence(net, rng)
    refits = record_refits(monkeypatch)
    calls = count_engine_calls(monkeypatch, ["compile", "derivatives", "cpt_derivatives"])
    scores = score_edges(net, ev)
    monkeypatch.undo()
    tied = tied_edges(scores)
    assert calls == {"compile": 0, "derivatives": 1, "cpt_derivatives": 0}
    assert [len(wrt) for wrt, _, _ in refits] == ([tied] if tied else [])
    _ok("criterion 6 single-edge closed form",
        f"50 instances, worst rel {worst:.2e}; scorer used {calls['derivatives']} derivative pass, "
        f"{tied} tie refits")


def test_criterion_07_equality_fixture():
    """(a) uniform parameters are exact; (b) a biased clone prior still
    satisfies the match conditions but not the exactness ones; (c) the
    divergence iteration recovers from the biased start."""
    net, ev = equality_witness_net()
    aug, nprime, plan = approximate_network(net, [("U1", "X1")])
    evp = augmented_evidence(nprime, ev)
    # (a)
    assert kl_bound(aug, nprime, plan, ev, evp).total == pytest.approx(0.0, abs=1e-12)
    rep = check_conditions(aug, nprime, plan, ev, evp)
    assert max(rep.eq_match_gaps) <= 1e-12
    assert max(rep.eq_exact_gaps) <= 1e-12
    # (b) frozen by enumeration: the biased prior shifts both posteriors to
    # 0.7 while the true posterior stays 0.5, so the exactness gap is 0.2
    biased = plan.with_params(0, EdgeParams([0.7, 0.3], [0.5, 0.5]))
    rep_b = check_conditions(aug, nprime, biased, ev, evp)
    assert max(rep_b.eq_match_gaps) <= 1e-12
    assert rep_b.eq_exact_gaps[0] > 1e-3
    assert rep_b.eq_exact_gaps[0] == pytest.approx(0.2, abs=1e-12)
    # (c)
    plan_c, report, _ = run(
        nprime, biased, evp,
        IterationConfig(method="ed-kl", initialization="plan"),
        reference=(aug, ev),
    )
    assert report.converged
    final = kl_bound(aug, nprime, plan_c, ev, evp).total
    assert final <= 1e-10
    _ok("criterion 7 equality fixture",
        f"match gap {max(rep_b.eq_match_gaps):.1e}, exact gap {rep_b.eq_exact_gaps[0]:.3f}, "
        f"recovered bound {final:.1e}")


def test_criterion_08_bp_equivalence():
    """Per-sweep parameters match an independent message-passing oracle at
    1e-9 on 20 fixtures whose deletion yields a polytree."""
    checked = 0
    worst = 0.0
    seed = 0
    while checked < 20 and seed < 60:
        rng = np.random.default_rng([108, seed])
        seed += 1
        n_extra = 1 + (seed % 2)
        net, extras = loopy_polytree_net(
            rng, n_vars=int(rng.integers(5, 8)), extra_edges=n_extra, max_card=3
        )
        if len(extras) < n_extra:
            continue
        leaves = net.leaves()
        ev_map = {}
        for leaf in leaves[:2]:
            ev_map[leaf] = net.var(leaf).states[int(rng.integers(net.var(leaf).card))]
        ev = Evidence(ev_map)
        if enumerate_joint(net, ev).total() <= 0:
            continue
        aug, nprime, plan = approximate_network(net, extras)
        evp = augmented_evidence(nprime, ev)
        oracle = FactorGraphBP(net, ev, extras)
        one_sweep = IterationConfig(
            method="ed-bp", schedule="simultaneous", max_iterations=1, initialization="plan"
        )

        ok = True
        for _sweep in range(8):
            plan, _, _ = run(nprime, plan, evp, one_sweep)
            oracle.outer_iteration()
            for i, e in enumerate(extras):
                pm_msg, se_msg = oracle.cross_messages(*e)
                diff = max(
                    float(np.max(np.abs(plan.params[i].pm - pm_msg))),
                    float(np.max(np.abs(plan.params[i].se - se_msg))),
                )
                worst = max(worst, diff)
                assert diff <= 1e-9
        if ok:
            checked += 1
    assert checked == 20
    _ok("criterion 8 message-passing equivalence", f"20 fixtures, worst diff {worst:.2e}")


def test_criterion_09_disconnection_exactness():
    """A converged run on a single disconnecting edge reproduces every exact
    marginal in both components, on 10 fixtures."""
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng([109, seed])
        net, bridge = bridged_net(rng, left=int(rng.integers(2, 5)), right=int(rng.integers(2, 5)))
        ev_map = {}
        for name in (net.variables[0].name, net.variables[-1].name):
            ev_map[name] = net.var(name).states[int(rng.integers(2))]
        ev = Evidence(ev_map)
        if enumerate_joint(net, ev).total() <= 0:
            ev = Evidence({})
        aug, nprime, plan = approximate_network(net, [bridge])
        evp = augmented_evidence(nprime, ev)
        plan, report, _ = run(nprime, plan, evp, IterationConfig(method="ed-bp"))
        assert report.converged
        exact = compile(net, ev)
        st = compile(apply_params(nprime, plan), evp)
        for v in net.variables:
            err = float(np.max(np.abs(
                posterior_marginal(st, v.name) - posterior_marginal(exact, v.name)
            )))
            worst = max(worst, err)
            assert err <= 1e-9
    _ok("criterion 9 disconnection exactness", f"10 fixtures, worst marginal err {worst:.2e}")


def _ordering_run(network, states, seed, ks):
    spec = harness.ExperimentSpec(
        network=network, instances=50, ks=ks,
        methods=("ed-kl", "ed-bp"), selections=("rand", "guided"),
        seed=seed, states=states,
    )
    rows = harness.run_experiment(spec)
    by = collections.defaultdict(dict)
    for r in rows:
        assert r.exact_kl is not None
        by[(r.method, r.selection, r.edges_deleted)][r.instance] = r
    return by


def test_criterion_10_qualitative_ordering():
    """Deletion-quality ordering on chain(8) and grid(4x4), 50 instances
    each, leaf evidence from the joint: guided divergence-fit never loses on the
    mean to random belief-propagation-fit, and beats its own random-selection
    variant on >= 70% of instances at the mid-range deletion count."""
    configs = [
        ("chain(8)", 3, 7, (1, 2, 3), 2),
        ("grid(4x4)", 2, 2026, (1, 2, 4), 2),
    ]
    for network, states, seed, ks, mid_k in configs:
        by = _ordering_run(network, states, seed, ks)
        for k in ks:
            guided = by[("ed-kl", "guided", k)]
            bp_rand = by[("ed-bp", "rand", k)]
            mean_guided = float(np.mean([guided[i].exact_kl for i in guided]))
            mean_bp = float(np.mean([bp_rand[i].exact_kl for i in bp_rand]))
            assert mean_guided <= mean_bp + 1e-12, (network, k)
        guided = by[("ed-kl", "guided", mid_k)]
        kl_rand = by[("ed-kl", "rand", mid_k)]
        wins = sum(1 for i in guided if guided[i].exact_kl < kl_rand[i].exact_kl - 1e-15)
        rate = wins / len(guided)
        _ok("criterion 10 qualitative ordering",
            f"{network}: guided beat random selection on {wins}/50 instances at k={mid_k}; "
            f"means guided<=bp-rand at every k")
        assert rate >= 0.70, (network, wins)


def test_criterion_11_map_quality():
    """MAP quality: ratio 1 with nothing deleted, ratio always in (0, 1],
    and guided deletion at least as good as random on the mean over 50
    seeded grid instances."""
    ratios = {"guided": [], "rand": []}
    k = 6
    for inst in range(50):
        rng = np.random.default_rng([111, inst])
        net = harness.grid_network(4, 4, 2, rng)
        ev = harness.sample_evidence(net, "leaves-from-joint", rng)
        hidden = [v.name for v in net.variables if v.name not in ev]
        non_leaf = [n for n in hidden if n not in net.leaves()]
        map_vars = [non_leaf[int(i)] for i in rng.choice(len(non_leaf), size=5, replace=False)]
        rank_rand = harness.rank_edges(net, ev, "rand", rng)[0]
        rank_guided, _ = harness.rank_edges(net, ev, "guided", rng)
        if inst < 5:
            aug, nprime, plan = approximate_network(net, [])
            evp = augmented_evidence(nprime, ev)
            res0 = approximate_map_quality(aug, nprime, plan, ev, evp, map_vars)
            assert res0.ratio == pytest.approx(1.0, abs=1e-9)
        for sel, ranking in (("guided", rank_guided), ("rand", rank_rand)):
            edges = ranking[:k]
            aug, nprime, plan = approximate_network(net, edges)
            evp = augmented_evidence(nprime, ev)
            plan, _, _ = run(
                nprime, plan, evp, IterationConfig(method="ed-kl"), reference=(aug, ev)
            )
            res = approximate_map_quality(aug, nprime, plan, ev, evp, map_vars)
            assert res.ratio is not None
            assert 0.0 < res.ratio <= 1.0
            ratios[sel].append(res.ratio)
    mean_guided = float(np.mean(ratios["guided"]))
    mean_rand = float(np.mean(ratios["rand"]))
    assert mean_guided >= mean_rand
    _ok("criterion 11 MAP quality",
        f"50 instances at k={k}: mean ratio guided {mean_guided:.4f} >= random {mean_rand:.4f}; "
        f"ratio=1 at k=0 on 5 fixtures")


def test_criterion_12_treewidth_reduction():
    """Deleting ranked edges reaches every feasible width target, down to the
    fully factorized floor set by the largest CPT."""
    rng = np.random.default_rng([112, 0])
    nets = [
        harness.grid_network(4, 4, 2, rng),
        random_network(np.random.default_rng([112, 1]), n_vars=9, max_card=2, max_parents=3),
    ]
    for net in nets:
        ev = harness.sample_evidence(net, "leaves-from-joint", np.random.default_rng([112, 2]))
        ranked = [(s.parent, s.child) for s in score_edges(net, ev)]
        full = approximate_network(net, ranked)[1]
        floor = min_fill_order(full).width
        largest_cpt_width = max(len(c.scope()) for c in net.cpts()) - 1
        assert floor == largest_cpt_width
        start_width = min_fill_order(net).width
        for target in range(floor, start_width + 1):
            reached = None
            for k in range(len(ranked) + 1):
                nprime = approximate_network(net, ranked[:k])[1]
                width = min_fill_order(nprime).width
                if width <= target:
                    reached = width
                    break
            assert reached is not None and reached <= target
        _ok("criterion 12 treewidth reduction",
            f"{len(net.variables)}-variable net: all targets {floor}..{start_width} reachable")
