import numpy as np
import pytest

from edgedel import (
    EdgeParams,
    Evidence,
    IterationConfig,
    ModelError,
    approximate_map,
    approximate_map_quality,
    approximate_network,
    augmented_evidence,
    compile,
    enumerate_joint,
    exact_map,
    run,
)
from edgedel.harness import grid_network, sample_evidence
from edgedel.mapapprox import default_map_vars, map_quality

from conftest import positive_evidence, random_network


def fitted(net, ev, edges, method="ed-kl"):
    _, nprime, plan = approximate_network(net, edges)
    evp = augmented_evidence(nprime, ev)
    plan, report, _ = run(
        nprime, plan, evp, IterationConfig(method=method), reference=(net, ev)
    )
    return nprime, plan, evp


class TestApproximateMap:
    def test_no_deletion_matches_exact(self):
        rng = np.random.default_rng(0)
        net = random_network(rng, n_vars=7)
        ev = positive_evidence(net, rng)
        nprime, plan, evp = fitted(net, ev, [])
        map_vars = [v.name for v in net.variables if v.name not in ev][:3]
        got, value = approximate_map(nprime, plan, evp, map_vars)
        want, q = exact_map(net, ev, map_vars)
        assert value == pytest.approx(q, rel=1e-10)
        assert {k: want[k] for k in map_vars} == got

    def test_full_deletion_is_per_variable_argmax(self):
        rng = np.random.default_rng(1)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        nprime, plan, evp = fitted(net, ev, net.edges())
        map_vars = [v.name for v in net.variables if v.name not in ev]
        got, _ = approximate_map(nprime, plan, evp, map_vars)
        # with every edge deleted the MAP problem factorizes: joint argmax ==
        # per-variable argmax of the approximate marginals
        from edgedel import apply_params, posterior_marginal

        st = compile(apply_params(nprime, plan), evp)
        for name in map_vars:
            dist = posterior_marginal(st, name)
            assert got[name] == net.var(name).states[int(np.argmax(dist))]

    def test_p_never_exceeds_q(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            net = random_network(rng, n_vars=8)
            ev = positive_evidence(net, rng)
            edges = net.edges()
            if len(edges) < 2:
                continue
            take = [edges[int(i)] for i in rng.choice(len(edges), size=2, replace=False)]
            nprime, plan, evp = fitted(net, ev, take)
            hidden = [v.name for v in net.variables if v.name not in ev]
            map_vars = hidden[:3]
            result = approximate_map_quality(net, nprime, plan, ev, evp, map_vars)
            assert result.value <= result.best_value + 1e-12
            assert result.ratio is None or 0.0 < result.ratio <= 1.0 + 1e-12
            # cross-check p against enumeration
            joint = enumerate_joint(net, ev)
            idx = {n: net.var(n).index_of(result.assignment[n]) for n in map_vars}
            want = joint.marginalize_to(set(map_vars)).reorder(map_vars).value_at(idx)
            assert result.value == pytest.approx(want, rel=1e-10)

    def test_clone_as_map_var_rejected(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, n_vars=5)
        edges = net.edges()[:1]
        if not edges:
            pytest.skip("edgeless draw")
        nprime, plan, evp = fitted(net, Evidence({}), edges)
        clone = nprime.clone_edges[0].clone
        with pytest.raises(ModelError):
            approximate_map(nprime, plan, evp, [clone])


class TestMapQuality:
    def test_exact_solution_has_ratio_one(self):
        rng = np.random.default_rng(4)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        map_vars = [v.name for v in net.variables if v.name not in ev][:2]
        m, q = exact_map(net, ev, map_vars)
        result = map_quality(net, ev, m, map_vars)
        assert result.ratio == 1.0

    @pytest.mark.parametrize("seed", [0, 2, 7])
    def test_exact_solution_reads_exactly_one(self, seed):
        # p and q sum in different orders; on these grids p/q rounds below 1
        rng = np.random.default_rng(seed)
        net = grid_network(4, 4, 2, rng)
        ev = sample_evidence(net, "leaves-from-joint", rng)
        map_vars = [v.name for v in net.variables if v.name not in ev][:4]
        m, _ = exact_map(net, ev, map_vars)
        assert map_quality(net, ev, m, map_vars).ratio == 1.0

    def test_end_to_end_ratio_one_without_deletion(self):
        rng = np.random.default_rng(5)
        net = random_network(rng, n_vars=6)
        ev = positive_evidence(net, rng)
        nprime, plan, evp = fitted(net, ev, [])
        map_vars = [v.name for v in net.variables if v.name not in ev][:3]
        result = approximate_map_quality(net, nprime, plan, ev, evp, map_vars)
        assert result.ratio == pytest.approx(1.0, abs=1e-12)

    def test_a_refused_optimum_leaves_best_value_and_ratio_out(self):
        # p's jointree has width 2; q's order, MAP variables last, has width 6
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(1))
        map_vars = ["N0_0", "N1_1", "N2_2", "N0_3", "N3_0"]
        m = {v: net.var(v).states[0] for v in map_vars}
        capped = map_quality(net, ev, m, map_vars, width_cap=2)
        full = map_quality(net, ev, m, map_vars)
        assert capped.best_value is None and capped.ratio is None
        assert capped.value == full.value > 0
        assert full.best_value is not None and full.ratio is not None

    def test_missing_assignment_rejected(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, n_vars=4)
        with pytest.raises(ModelError):
            map_quality(net, Evidence({}), {}, ["V1"])

    def test_argmax_invariant_under_se_scaling(self):
        rng = np.random.default_rng(7)
        net = random_network(rng, n_vars=7)
        ev = positive_evidence(net, rng)
        edges = net.edges()[:2]
        if len(edges) < 2:
            pytest.skip("not enough edges")
        nprime, plan, evp = fitted(net, ev, edges)
        map_vars = [v.name for v in net.variables if v.name not in ev][:3]
        base, _ = approximate_map(nprime, plan, evp, map_vars)
        scaled = plan.with_all_params(
            [EdgeParams(p.pm, p.se * c) for p, c in zip(plan.params, (0.2, 0.7))]
        )
        rescaled, _ = approximate_map(nprime, scaled, evp, map_vars)
        assert base == rescaled


class TestDefaults:
    def test_default_map_vars_are_unobserved_roots(self):
        rng = np.random.default_rng(8)
        net = random_network(rng, n_vars=6)
        roots = net.roots()
        ev = Evidence({roots[0]: net.var(roots[0]).states[0]})
        assert default_map_vars(net, ev) == [r for r in roots if r != roots[0]]
