import re
import sys
from collections import Counter

import numpy as np
import pytest

from edgedel import (
    Cpt,
    Evidence,
    ModelError,
    Network,
    Variable,
    apply_params,
    approximate_map_quality,
    approximate_network,
    augmented_evidence,
    compile,
    constrained_order,
    exact_kl,
    kl_bound,
    posterior_marginal,
)
from edgedel.harness import (
    ExperimentSpec,
    chain_network,
    forward_sample,
    grid_network,
    make_synthetic,
    parse_experiment_spec,
    parse_synthetic,
    run_deletion_instance,
    run_experiment,
    sample_evidence,
)
from edgedel import divergence
from edgedel.netio import FormatError, render_report

from conftest import count_engine_calls

import record_report_golden


def count_passes_by_network(monkeypatch):
    """Count ``engine`` records, table reads (``_bind``), replays and
    derivative passes by the kind of network they run on ("original" for
    the source network, "approximate" for N'), and compiles; returns the
    live Counter."""
    import edgedel.engine as engine_module

    calls = Counter()
    kinds = {}  # id(program) -> (program, kind); keeps programs alive
    names = ("record", "_bind", "replay", "derivatives", "compile")
    real = {name: getattr(engine_module, name) for name in names}

    def record(net, *args, **kwargs):
        program = real["record"](net, *args, **kwargs)
        kinds[id(program)] = (program, net.kind)
        calls["record", net.kind] += 1
        return program

    def bind(inputs, net):
        calls["_bind", net.kind] += 1
        return real["_bind"](inputs, net)

    def replay(program):
        calls["replay", kinds[id(program)][1]] += 1
        return real["replay"](program)

    def derivatives(net, *args):
        calls["derivatives", net.kind] += 1
        return real["derivatives"](net, *args)

    def compile(*args, **kwargs):
        calls["compile"] += 1
        return real["compile"](*args, **kwargs)

    for name, fn in [("record", record), ("_bind", bind), ("replay", replay),
                     ("derivatives", derivatives), ("compile", compile)]:
        monkeypatch.setattr(engine_module, name, fn)
    return calls


def clamped(value):
    return 0.0 if -1e-9 <= value < 0.0 else value


class TestGenerators:
    def test_chain_shape(self):
        net = chain_network(5, states=3, rng=np.random.default_rng(0))
        assert [v.name for v in net.variables] == ["X1", "X2", "X3", "X4", "X5"]
        assert net.parent_names("X3") == ("X2",)
        assert net.leaves() == ["X5"]
        assert net.var("X1").card == 3

    def test_grid_parent_convention(self):
        net = grid_network(3, 4, rng=np.random.default_rng(1))
        assert net.parent_names("N0_0") == ()
        assert net.parent_names("N2_3") == ("N1_3", "N2_2")
        assert net.leaves() == ["N2_3"]

    def test_rows_are_normalized(self):
        from edgedel import validate_network

        net = grid_network(3, 3, rng=np.random.default_rng(2))
        assert validate_network(net) == []

    def test_parse_synthetic_tokens(self):
        assert parse_synthetic("chain(8)") == ("chain", 8)
        assert parse_synthetic("grid(4x4)") == ("grid", 4, 4)
        assert parse_synthetic("alarm.net") is None
        with pytest.raises(FormatError):
            parse_synthetic("grid(4by4)")

    @pytest.mark.parametrize(
        "token, message",
        [
            ("chain(x)", "bad chain size 'x'"),
            ("grid(4by4)", "bad grid shape '4by4'"),
            ("grid(4x)", "bad grid shape '4x'"),
            ("grod(4x4)", "unknown generator 'grod'"),
            ("alarm.net", "unknown synthetic network 'alarm.net'"),
        ],
        ids=["chain-size", "grid-separator", "grid-size", "generator", "not-synthetic"],
    )
    def test_each_synthetic_token_fault_is_refused(self, token, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$") as fault:
            make_synthetic(token, 2, np.random.default_rng(0))
        assert fault.value.line is None


def _zero_row_network():
    # B's row under a0, the only state A takes, is all zero: Cpt accepts it
    a = Variable("A", ("a0", "a1"))
    b = Variable("B", ("b0", "b1"))
    return Network([a, b], [Cpt(a, (), [1.0, 0.0]), Cpt(b, (a,), [0.0, 0.0, 0.5, 0.5])])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: chain_network(0), "chain needs at least one variable"),
        (lambda: grid_network(0, 3), "grid needs positive dimensions"),
        (
            lambda: forward_sample(_zero_row_network(), np.random.default_rng(0)),
            "cpt row for 'B' sums to zero; cannot sample",
        ),
        (lambda: run_experiment(ExperimentSpec("grid.bn")), "file networks need a loader"),
    ],
    ids=["empty-chain", "empty-grid", "all-zero-row", "file-network-without-loader"],
)
def test_each_refusal_names_its_fault(call, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        call()


class TestSampling:
    def test_deterministic_network_forces_unique_sample(self):
        a = Variable("A", ("a0", "a1"))
        b = Variable("B", ("b0", "b1"))
        net = Network(
            [a, b],
            [Cpt(a, (), [0.0, 1.0]), Cpt(b, (a,), [1.0, 0.0, 0.0, 1.0])],
        )
        for seed in range(5):
            full = forward_sample(net, np.random.default_rng(seed))
            assert full == {"A": "a1", "B": "b1"}

    def test_reproducible_given_seed(self):
        net = chain_network(3, rng=np.random.default_rng(3))
        ev1 = sample_evidence(net, "leaves-from-joint", np.random.default_rng(9))
        ev2 = sample_evidence(net, "leaves-from-joint", np.random.default_rng(9))
        assert ev1 == ev2
        assert set(ev1) == {"X3"}

    def test_leaf_frequencies_match_exact_marginals(self):
        net = chain_network(4, rng=np.random.default_rng(4))
        st = compile(net, Evidence({}))
        exact = posterior_marginal(st, "X4")
        rng = np.random.default_rng(5)
        counts = np.zeros(2)
        n = 4000
        for _ in range(n):
            ev = sample_evidence(net, "leaves-from-joint", rng)
            counts[net.var("X4").index_of(ev["X4"])] += 1
        assert np.allclose(counts / n, exact, atol=0.02)

    def test_random_mode_is_uniform_over_leaf_states(self):
        net = chain_network(3, rng=np.random.default_rng(6))
        rng = np.random.default_rng(7)
        counts = np.zeros(2)
        for _ in range(2000):
            ev = sample_evidence(net, "random", rng)
            counts[net.var("X3").index_of(ev["X3"])] += 1
        assert np.allclose(counts / 2000, [0.5, 0.5], atol=0.05)


class TestExperimentSpec:
    def test_parse_full_spec(self):
        spec = parse_experiment_spec(
            """
            # comment
            network = grid(3x3)
            instances = 4
            evidence = random
            k = 0, 1, 2
            methods = ed-bp, ed-kl
            selections = rand, mi
            seed = 99
            states = 3
            max_iters = 50
            tol = 1e-6
            """
        )
        assert spec.network == "grid(3x3)"
        assert spec.instances == 4
        assert spec.ks == (0, 1, 2)
        assert spec.methods == ("ed-bp", "ed-kl")
        assert spec.states == 3
        assert spec.tolerance == 1e-6

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError, match="unknown spec keys"):
            parse_experiment_spec("network = chain(3)\ncolor = red\n")

    def test_repeated_key_rejected_at_its_second_line(self):
        text = "network = chain(3)\n# later\nnetwork = grid(3x3)\n"
        with pytest.raises(FormatError, match=r"^line 3: spec key 'network' given twice$"):
            parse_experiment_spec(text)

    def test_missing_network_rejected(self):
        with pytest.raises(FormatError):
            parse_experiment_spec("instances = 3\n")

    def test_bad_method_rejected(self):
        with pytest.raises(ModelError):
            parse_experiment_spec("network = chain(3)\nmethods = gibbs\n")

    @pytest.mark.parametrize(
        "line",
        [
            "tol = -1", "tol = 0", "max_iters = -1", "damping = 1", "damping = -0.1",
            "k = -1,1", "states = 1", "seed = -1",
        ],
    )
    def test_bad_fit_values_rejected(self, line):
        with pytest.raises(ModelError):
            parse_experiment_spec(f"network = chain(3)\nmethods = ed-kl,ed-bp\n{line}\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param("k 1", "spec line needs 'key = value'", id="no-equals"),
            pytest.param("seed = x", "bad spec value: invalid literal for int() with base 10: 'x'",
                         id="bad-value"),
            pytest.param("k = 1, x", "bad spec value: invalid literal for int() with base 10: 'x'",
                         id="bad-k"),
            pytest.param("k =", "k needs at least one entry", id="empty-k"),
            pytest.param("methods =", "methods needs at least one entry", id="empty-methods"),
            pytest.param("selections = ,", "selections needs at least one entry",
                         id="blank-selections"),
            pytest.param("k = 1,1", "k lists 1 twice", id="repeated-k"),
            pytest.param("k = 1, 01", "k lists 1 twice", id="repeated-k-value"),
            pytest.param("methods = ed-kl, ed-kl", "methods lists 'ed-kl' twice",
                         id="repeated-method"),
            pytest.param("selections = rand,mi,rand", "selections lists 'rand' twice",
                         id="repeated-selection"),
            pytest.param("timings = rael", "timings must be none or real (got 'rael')",
                         id="timings"),
        ],
    )
    def test_each_spec_fault_is_refused_at_its_line(self, line, message):
        text = f"network = chain(3)\n# the faulty line\n{line}\n"
        with pytest.raises(FormatError, match=f"^line 3: {re.escape(message)}$") as fault:
            parse_experiment_spec(text)
        assert fault.value.line == 3

    def test_no_instance_is_refused(self):
        # a spec names the key's line; a direct construction has none
        with pytest.raises(FormatError, match="^line 2: instances must be >= 1$"):
            parse_experiment_spec("network = chain(3)\ninstances = 0\n")
        with pytest.raises(ModelError, match="^instances must be >= 1$"):
            ExperimentSpec(network="chain(3)", instances=0)


class TestRunExperiment:
    def test_row_arity(self):
        spec = ExperimentSpec(
            network="chain(4)", instances=2, ks=(0, 1), methods=("ed-kl",),
            selections=("guided",), seed=1,
        )
        rows = run_experiment(spec)
        assert len(rows) == 4
        keys = [(r.instance, r.method, r.selection, r.edges_deleted) for r in rows]
        assert keys == sorted(keys, key=lambda t: (t[0], t[1], t[2], t[3]))

    def test_a_k_above_the_edge_count_writes_no_row(self):
        # chain(3) has two edges: k = 3 is skipped, not failed in-row
        spec = ExperimentSpec(
            network="chain(3)", instances=2, ks=(1, 3, 2), methods=("ed-kl", "ed-bp"),
            selections=("rand", "guided"), seed=1,
        )
        rows = run_experiment(spec)
        assert len(rows) == 2 * 2 * 2 * 2
        assert {r.edges_deleted for r in rows} == {1, 2}
        assert all(r.converged for r in rows)

    def test_same_seed_is_byte_identical(self):
        spec = ExperimentSpec(
            network="chain(5)", instances=2, ks=(0, 2), methods=("ed-kl", "ed-bp"),
            selections=("rand",), seed=42,
        )
        a = render_report(run_experiment(spec))
        b = render_report(run_experiment(spec))
        assert a == b

    def test_zero_deletion_rows_are_exact(self):
        spec = ExperimentSpec(
            network="chain(4)", instances=2, ks=(0,), methods=("ed-kl",),
            selections=("rand",), seed=3,
        )
        for row in run_experiment(spec):
            assert row.converged
            assert row.kl_bound == pytest.approx(0.0, abs=1e-12)
            assert row.exact_kl == pytest.approx(0.0, abs=1e-12)

    def test_failed_run_recorded_in_row_and_run_continues(self, monkeypatch):
        import math

        from edgedel import ModelError
        from edgedel import harness as hmod

        original = hmod.run_deletion_instance

        def flaky(net, ev, edges, method, **kwargs):
            if kwargs.get("instance_id") == 0 and len(edges) == 1:
                raise ModelError("synthetic failure")
            return original(net, ev, edges, method, **kwargs)

        monkeypatch.setattr(hmod, "run_deletion_instance", flaky)
        spec = ExperimentSpec(
            network="chain(4)", instances=2, ks=(0, 1), methods=("ed-kl",),
            selections=("rand",), seed=5,
        )
        rows = run_experiment(spec)
        assert len(rows) == 4
        failed = [r for r in rows if math.isinf(r.kl_bound)]
        assert len(failed) == 1
        assert failed[0].instance == 0 and failed[0].edges_deleted == 1
        assert not failed[0].converged

    @pytest.mark.parametrize("instances", [1, 2])
    def test_one_source_pass_per_instance(self, monkeypatch, instances):
        # the guided ranking's pass on the source network serves all eight
        # cells of its instance
        spec = ExperimentSpec(
            network="grid(4x4)", instances=instances, ks=(1, 2), methods=("ed-kl", "ed-bp"),
            selections=("rand", "guided"), seed=3,
        )
        calls = count_passes_by_network(monkeypatch)
        rows = run_experiment(spec)
        assert len(rows) == 8 * instances
        assert calls[("derivatives", "original")] == instances
        assert sum(n for (name, *_), n in calls.items() if name == "derivatives") == instances

    def test_an_mi_ranking_reads_the_instance_s_source_pass(self, monkeypatch):
        # the report golden's grid spec: mi's family tables come off the
        # pass the guided ranking and every cell read, one per instance
        spec = parse_experiment_spec(record_report_golden.SPECS["grid"])
        calls = count_passes_by_network(monkeypatch)
        rows = run_experiment(spec)
        assert len(rows) == 3 * 3 * 2 * 3
        assert sum(n for (name, *_), n in calls.items() if name == "derivatives") == 3

    def test_rows_with_no_edge_deleted_read_exactly_zero(self):
        # N' is then the source network, so Pr'(e') is read as Pr(e) off
        # the source pass; on this spec N''s own tree read it a bit away
        # in instance 2, a KL of 2.2e-16
        spec = ExperimentSpec(
            network="grid(4x4)", instances=3, ks=(0, 1), methods=("ed-kl", "ed-bp"),
            selections=("rand", "guided"), seed=2,
        )
        rows = run_experiment(spec)
        unreduced = [r for r in rows if r.edges_deleted == 0]
        assert len(unreduced) == 12
        assert all(r.kl_bound == 0.0 and r.exact_kl == 0.0 for r in unreduced)
        assert all(r.kl_bound > 0.0 for r in rows if r.edges_deleted == 1)

    def test_a_warm_row_is_bitwise_a_cold_one(self):
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(1))
        edges = net.edges()[:4]
        for method in ("ed-kl", "ed-bp"):
            divergence._kept_pass = None
            cold = run_deletion_instance(net, ev, edges, method)
            assert divergence._kept_pass[0] is net
            warm = run_deletion_instance(net, ev, edges, method)
            assert warm.row == cold.row
            assert (warm.row.kl_bound.hex(), warm.row.exact_kl.hex()) == (
                cold.row.kl_bound.hex(), cold.row.exact_kl.hex())
            for a, b in zip(warm.plan.params, cold.plan.params):
                assert (a.pm.tobytes(), a.se.tobytes()) == (b.pm.tobytes(), b.se.tobytes())

    def test_a_too_wide_source_pass_fails_the_row(self, monkeypatch):
        # the cell's source pass needs the source network's width: refused,
        # it is a failed row, and nothing is kept
        import math

        from edgedel import harness as hmod

        real = hmod.run_deletion_instance
        monkeypatch.setattr(
            hmod, "run_deletion_instance", lambda *a, **kw: real(*a, **kw, width_cap=1)
        )
        spec = ExperimentSpec(
            network="grid(3x3)", instances=1, ks=(1,), methods=("ed-bp",),
            selections=("rand",), seed=2,
        )
        (row,) = run_experiment(spec)
        assert math.isinf(row.kl_bound) and row.constrained_treewidth == -1
        assert divergence._kept_pass is None

    def test_rows_satisfy_divergence_inequality(self):
        spec = ExperimentSpec(
            network="grid(3x3)", instances=2, ks=(1, 3), methods=("ed-kl", "ed-bp"),
            selections=("rand", "guided", "mi"), seed=4,
        )
        rows = run_experiment(spec)
        assert len(rows) == 2 * 2 * 3 * 2
        for row in rows:
            assert row.kl_bound >= 0
            if row.exact_kl is not None:
                assert row.exact_kl <= row.kl_bound + 1e-9

    def test_bucket_programs_run_only_inside_engine(self, monkeypatch):
        # every Pr(e) outside the engine is a jointree query: record and
        # replay serve exact_map, the tie refit and the per-query references
        import math

        from edgedel import check_conditions
        from edgedel import engine as engine_module

        callers = []
        for name in ("record", "replay"):

            def called(*args, _real=getattr(engine_module, name), **kwargs):
                callers.append(sys._getframe(1).f_globals["__name__"])
                return _real(*args, **kwargs)

            monkeypatch.setattr(engine_module, name, called)
        spec = ExperimentSpec(
            network="grid(3x3)", instances=1, ks=(0, 1, 2), methods=("ed-kl", "ed-bp"),
            selections=("rand", "guided"), seed=4,
        )
        rows = run_experiment(spec)
        assert len(rows) == 12 and all(math.isfinite(r.kl_bound) for r in rows)
        net = grid_network(3, 3, rng=np.random.default_rng(0))
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(1))
        aug, nprime, plan = approximate_network(net, net.edges()[:2])
        evp = augmented_evidence(nprime, ev)
        approximate_map_quality(aug, nprime, plan, ev, evp, net.roots())
        kl_bound(aug, nprime, plan, ev, evp)
        exact_kl(aug, nprime, plan, ev, evp)
        check_conditions(aug, nprime, plan, ev, evp)
        assert callers and set(callers) == {"edgedel.engine"}

class TestRunDeletionInstance:
    def test_enumerates_nothing_and_compiles_nothing(self, monkeypatch):
        from edgedel import model

        compiles = count_engine_calls(monkeypatch, ["compile"])
        original = model.enumerate_joint
        enumerations = []

        def counting(*args, **kwargs):
            enumerations.append(args)
            return original(*args, **kwargs)

        # every binding of enumerate_joint in the package
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "edgedel" and getattr(module, "enumerate_joint", None) is original:
                monkeypatch.setattr(module, "enumerate_joint", counting)
        net = grid_network(3, 3, rng=np.random.default_rng(4))
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(5))
        for method in ("ed-kl", "ed-bp"):
            outcome = run_deletion_instance(net, ev, net.edges()[:3], method)
            assert outcome.row.exact_kl is not None
        assert enumerations == [] and compiles == {"compile": 0}

    @pytest.mark.parametrize("compute_marginals", [False, True])
    def test_one_source_pass_and_no_pr_ep_replay(self, monkeypatch, compute_marginals):
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(1))
        calls = count_passes_by_network(monkeypatch)
        run_deletion_instance(
            net, ev, net.edges()[:4], "ed-kl", compute_marginals=compute_marginals
        )
        # the fit's source pass and its own Pr'(e') serve the row's KL bound
        # and exact KL, so the row records and replays nothing on N'; the one
        # read of N''s tables is the fit's jointree's, and the marginals take
        # one derivative pass on the fitted N' (reading them again).  No
        # pass records anything
        marginals = {("_bind", "approximate"): 2, ("derivatives", "approximate"): 1}
        assert calls == {
            ("_bind", "original"): 1, ("derivatives", "original"): 1,
            **(marginals if compute_marginals else {("_bind", "approximate"): 1}),
        }

    def test_marginals_are_the_fitted_networks_posteriors(self):
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(1))
        outcome = run_deletion_instance(net, ev, net.edges()[:4], "ed-kl", compute_marginals=True)
        _, nprime, _ = approximate_network(net, net.edges()[:4])
        st = compile(apply_params(nprime, outcome.plan), augmented_evidence(nprime, ev))
        assert sorted(outcome.marginals) == sorted(nprime.original_names())
        for name, dist in outcome.marginals.items():
            want = posterior_marginal(st, name)
            assert np.allclose(dist, want, rtol=1e-12, atol=1e-15), name

    def test_row_reads_match_the_standalone_kl_functions(self, monkeypatch):
        from edgedel import harness as hmod

        real = hmod.run_deletion_instance
        checked = []

        def checking(net, ev, edges, method, **kwargs):
            outcome = real(net, ev, edges, method, **kwargs)
            aug, nprime, _ = approximate_network(net, edges, kwargs.get("warm_params"))
            evp = augmented_evidence(nprime, ev)
            want = (
                clamped(kl_bound(aug, nprime, outcome.plan, ev, evp).total),
                clamped(exact_kl(aug, nprime, outcome.plan, ev, evp)),
            )
            got = (outcome.row.kl_bound, outcome.row.exact_kl)
            # the same source pass; the fit's Pr'(e') against a replay of N'
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (edges, method)
            checked.append(len(edges))
            return outcome

        monkeypatch.setattr(hmod, "run_deletion_instance", checking)
        spec = parse_experiment_spec(record_report_golden.SPECS["grid"])
        rows = run_experiment(spec)
        assert len(checked) == len(rows) == 54
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(1))
        # no edge deleted: N' is the source network
        assert checking(net, ev, [], "ed-kl").row.exact_kl == 0.0
        # no sweep: the row reads the source pass ``run`` makes before any sweep
        unswept = checking(net, ev, net.edges()[:4], "ed-kl", max_iterations=0)
        assert unswept.row.iterations == 0 and unswept.row.kl_bound > 0.0

    @pytest.mark.parametrize("case", ["grid", "chain3"])
    def test_row_kl_bound_is_the_traces_last_bit_for_bit(self, monkeypatch, case):
        from edgedel import divergence
        from edgedel import harness as hmod

        real_read, real_run = divergence.read_kl_bound, hmod.run_deletion_instance
        read, checked = [], []

        def reading(*args):
            bound = real_read(*args)
            read.append(bound.total)
            return bound

        def checking(*args, **kwargs):
            outcome = real_run(*args, **kwargs)
            # before clamping: the value the row's read returned
            assert read[-1].hex() == outcome.trace[-1].kl_bound.hex()
            checked.append(outcome.row)
            return outcome

        monkeypatch.setattr(divergence, "read_kl_bound", reading)
        monkeypatch.setattr(hmod, "run_deletion_instance", checking)
        rows = run_experiment(parse_experiment_spec(record_report_golden.SPECS[case]))
        assert len(checked) == len(rows) == {"grid": 54, "chain3": 24}[case]

    def test_ladder_size_grid_fills_exact_kl(self):
        # 24 hidden source variables and 6 clones: too many worlds to
        # enumerate, one pass each in closed form
        net = grid_network(5, 5, rng=np.random.default_rng(7))
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(8))
        outcome = run_deletion_instance(net, ev, net.edges()[:6], "ed-kl")
        assert outcome.row.exact_kl is not None
        assert 0.0 <= outcome.row.exact_kl <= outcome.row.kl_bound
        assert type(outcome.row.kl_bound) is float and type(outcome.row.exact_kl) is float
        assert type(outcome.trace[-1].kl_bound) is float

    def test_exact_kl_caps_only_unobserved_states(self):
        # N' has 26 variables, 5 of them observed soft-evidence nodes
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = sample_evidence(net, "leaves-from-joint", np.random.default_rng(1))
        outcome = run_deletion_instance(net, ev, net.edges()[:5], "ed-kl")
        assert outcome.row.exact_kl is not None
        assert 0.0 <= outcome.row.exact_kl <= outcome.row.kl_bound

    def test_map_vars_add_map_quality_and_constrained_width(self):
        rng = np.random.default_rng(2)
        net = grid_network(3, 3, rng=rng)
        ev = sample_evidence(net, "leaves-from-joint", rng)
        edges = net.edges()[:3]
        map_vars = ["N0_0", "N1_1"]
        got = run_deletion_instance(net, ev, edges, "ed-kl", map_vars=map_vars)
        aug, nprime, _ = approximate_network(net, edges)
        evp = augmented_evidence(nprime, ev)
        want = approximate_map_quality(aug, nprime, got.plan, ev, evp, map_vars)
        assert got.map_result == want
        assert got.row.map_ratio == want.ratio
        current = apply_params(nprime, got.plan)
        assert got.row.constrained_treewidth == constrained_order(current, map_vars).width
        plain = run_deletion_instance(net, ev, edges, "ed-kl")
        assert plain.map_result is None and plain.row.map_ratio is None
        assert plain.row.kl_bound == got.row.kl_bound
        assert got.row.exact_kl is not None
        assert plain.row.exact_kl == got.row.exact_kl
