import numpy as np
import pytest

import edgedel.cli as cli_module
from edgedel import (
    Evidence,
    approximate_network,
    augment,
    compile,
    min_fill_order,
    score_edges,
    serialize_evidence,
    serialize_network,
)
from edgedel.cli import main
from edgedel.harness import grid_network, rank_edges

EQUALITY_DOC = """
variables:
  U1 h t
  U2 h t
  X1 on off
  X2 on off
cpts:
  U1 : 0.5 0.5
  U2 : 0.5 0.5
  X1 | U1 U2 : 1 0 0 1 0 1 1 0
  X2 | U1 U2 : 1 0 0 1 0 1 1 0
"""

EQUALITY_EVIDENCE = "X1 = on\nX2 = on\n"


@pytest.fixture
def fixture_files(tmp_path):
    net_file = tmp_path / "coins.bn"
    net_file.write_text(EQUALITY_DOC)
    ev_file = tmp_path / "coins.ev"
    ev_file.write_text(EQUALITY_EVIDENCE)
    return str(net_file), str(ev_file)


class TestScoreCommand:
    def test_fixture_edges_score_zero(self, fixture_files, capsys):
        net_file, ev_file = fixture_files
        assert main(["score", net_file, ev_file]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4
        first = out[0].split("\t")
        assert "->" in first[0]
        assert float(first[1]) == pytest.approx(0.0, abs=1e-9)

    def test_malformed_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.bn"
        bad.write_text("variables:\n  A a0 a1\ncpts:\n  A 0.1\n")
        assert main(["score", str(bad)]) == 3
        assert "line" in capsys.readouterr().err

    def test_unnormalized_network_rejected_at_load(self, tmp_path, capsys):
        bad = tmp_path / "denorm.bn"
        bad.write_text("variables:\n  A a0 a1\ncpts:\n  A : 0.4 0.5\n")
        assert main(["score", str(bad)]) == 3
        assert "invalid network" in capsys.readouterr().err


class TestApproxCommand:
    def test_zero_deletion_marginals_exact(self, fixture_files, capsys):
        net_file, ev_file = fixture_files
        code = main(["approx", net_file, ev_file, "--method", "ed-kl", "--delete", "0"])
        assert code == 0
        out = capsys.readouterr().out
        lines = {l.split("\t")[0]: l for l in out.strip().splitlines() if "\t" in l}
        assert "U1" in lines and "h=0.5" in lines["U1"]
        assert ",true," in out        # report row converged
        assert ",0,0," in out or ",0,0\n" in out or ",0," in out

    def test_fixture_single_deletion_converges_to_zero_kl(self, fixture_files, capsys):
        net_file, ev_file = fixture_files
        code = main(
            ["approx", net_file, ev_file, "--method", "ed-kl", "--select", "guided",
             "--delete", "1", "--report", net_file + ".csv"]
        )
        assert code == 0
        report = open(net_file + ".csv").read().strip().splitlines()
        assert len(report) == 2
        fields = report[1].split(",")
        assert fields[6] == "true"
        assert float(fields[7]) <= 1e-10

    def test_exit_code_two_on_non_convergence(self, fixture_files, capsys):
        net_file, ev_file = fixture_files
        code = main(
            ["approx", net_file, ev_file, "--method", "ed-kl", "--select", "guided",
             "--delete", "1", "--max-iters", "0"]
        )
        assert code == 2

    def test_mi_selection(self, fixture_files, capsys):
        net_file, ev_file = fixture_files
        code = main(
            ["approx", net_file, ev_file, "--method", "ed-bp", "--select", "mi",
             "--delete", "1"]
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["approx", "map"])
    def test_negative_seed_exits_3_without_output(self, fixture_files, capsys, command):
        net_file, ev_file = fixture_files
        code = main([command, net_file, ev_file, "--select", "rand", "--delete", "1",
                     "--seed", "-3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "seed must be >= 0" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["score", "--width-cap", "-1"], id="score --width-cap"),
            pytest.param(["approx", "--delete", "1", "--width-cap", "-1"], id="approx --width-cap"),
            pytest.param(["approx", "--target-width", "-1"], id="approx --target-width"),
            pytest.param(["map", "--target-width", "-1"], id="map --target-width"),
        ],
    )
    def test_negative_limit_exits_3_without_output(self, fixture_files, capsys, argv):
        net_file, ev_file = fixture_files
        code = main([argv[0], net_file, ev_file] + argv[1:])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert f"error: {argv[-2][2:]} must be >= 0" in captured.err

    def test_width_cap_below_width_exits_4_without_output(self, tmp_path, capsys):
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        width = compile(augment(net, net.edges()), ev).width
        net_file = tmp_path / "grid.bn"
        net_file.write_text(serialize_network(net))
        ev_file = tmp_path / "grid.ev"
        ev_file.write_text(serialize_evidence(ev))
        code = main(["score", str(net_file), str(ev_file), "--width-cap", str(width - 1)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("capacity:")

    def test_score_out_file(self, fixture_files, tmp_path):
        net_file, ev_file = fixture_files
        out = tmp_path / "scores.tsv"
        assert main(["score", net_file, ev_file, "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_plan_file_deletion(self, fixture_files, tmp_path, capsys):
        net_file, ev_file = fixture_files
        plan_file = tmp_path / "cut.plan"
        plan_file.write_text("U1 -> X1 | pm: 0.5 0.5 | se: 0.5 0.5\n")
        code = main(
            ["approx", net_file, ev_file, "--method", "ed-bp", "--edges", str(plan_file)]
        )
        assert code == 0

    def test_plan_file_with_a_bad_prior_exits_3_printing_a_plain_float(
        self, fixture_files, tmp_path, capsys
    ):
        # the bad vector is reported at its line
        net_file, ev_file = fixture_files
        plan_file = tmp_path / "bad.plan"
        plan_file.write_text(
            "U1 -> X1 | pm: 0.5 0.5 | se: 0.5 0.5\nU2 -> X2 | pm: 0.5 0.6 | se: 0.5 0.5\n"
        )
        code = main(["approx", net_file, ev_file, "--edges", str(plan_file)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: line 2: pm must sum to 1 (got 1.1)\n"

    def test_plan_vector_of_the_wrong_length_names_the_plan_edge(self, tmp_path, capsys):
        net = grid_network(3, 3, rng=np.random.default_rng(0))
        net_file = tmp_path / "grid.bn"
        net_file.write_text(serialize_network(net))
        plan_file = tmp_path / "long.plan"
        plan_file.write_text("N0_0 -> N0_1 | pm: 0.2 0.3 0.5 | se: 0.5 0.5\n")
        code = main(["approx", str(net_file), "--edges", str(plan_file)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: parameters for N0_0 -> N0_1 have the wrong length\n"

    def test_plan_file_with_vectors_on_some_lines_exits_3(self, fixture_files, tmp_path, capsys):
        net_file, ev_file = fixture_files
        plan_file = tmp_path / "mixed.plan"
        plan_file.write_text("U1 -> X1 | pm: 0.5 0.5 | se: 0.5 0.5\nU2 -> X2\n")
        code = main(["approx", net_file, ev_file, "--edges", str(plan_file)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "line 2: plan line gives no pm/se vectors" in captured.err

    @pytest.mark.parametrize(
        "plan, message",
        [
            pytest.param("N0_0 -> N1_0\nN0_0 -> N1_0\n", "line 2: edge N0_0 -> N1_0 is listed twice",
                         id="repeated-edge"),
            pytest.param("N0_0 -> N1_0\n# far corner\nN0_0 -> N2_2\n",
                         "line 3: edge N0_0 -> N2_2 is not in the network", id="unknown-edge"),
        ],
    )
    def test_a_plan_edge_the_network_cannot_delete_exits_3_at_its_line(
        self, tmp_path, capsys, plan, message
    ):
        net_file = tmp_path / "grid.bn"
        net_file.write_text(serialize_network(grid_network(3, 3, rng=np.random.default_rng(0))))
        plan_file = tmp_path / "bad.plan"
        plan_file.write_text(plan)
        code = main(["approx", str(net_file), "--edges", str(plan_file)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["approx", "map"])
    def test_deleting_more_edges_than_the_network_has_exits_3(
        self, fixture_files, capsys, command
    ):
        net_file, ev_file = fixture_files
        map_vars = ["--map-vars", "U1,U2"] if command == "map" else []
        code = main([command, net_file, ev_file, *map_vars, "--delete", "5"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: cannot delete 5 of 4 edges\n"

    @pytest.mark.parametrize("select", ["rand", "mi"])
    def test_warm_start_rescores_a_ranking_that_gives_no_vectors(self, select):
        # rand and mi rankings carry no fits, so --warm-start reads each
        # chosen edge's single-edge fit off score_edges
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        argv = ["approx", "grid.bn", "--select", select, "--delete", "3", "--warm-start"]
        args = cli_module.build_parser().parse_args(argv)
        edges, warm = cli_module._resolve_edges(net, ev, args, None)
        ranking, _ = rank_edges(net, ev, select, np.random.default_rng(0))
        by_edge = {(s.parent, s.child): s.params for s in score_edges(net, ev)}
        assert edges == ranking[:3]
        assert warm == [by_edge[e] for e in edges]
        args = cli_module.build_parser().parse_args(argv[:-1])
        assert cli_module._resolve_edges(net, ev, args, None) == (edges, None)

    def test_warm_start_takes_a_guided_rankings_own_vectors(self, monkeypatch):
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        ev = Evidence({n: net.var(n).states[0] for n in net.leaves()})
        scored = []
        real = cli_module.divergence.score_edges
        monkeypatch.setattr(cli_module.divergence, "score_edges",
                            lambda *a, **k: scored.append(a) or real(*a, **k))
        args = cli_module.build_parser().parse_args(
            ["approx", "grid.bn", "--delete", "3", "--warm-start"]
        )
        edges, warm = cli_module._resolve_edges(net, ev, args, None)
        scores = real(net, ev)[:3]
        assert edges == [(s.parent, s.child) for s in scores]
        assert warm == [s.params for s in scores]
        # the ranking's one scoring pass; nothing is scored again for the vectors
        assert len(scored) == 1

    def test_target_width_search_measures_each_candidate_as_built(self, monkeypatch):
        built, measured = [], []
        real = cli_module.approximate_network

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            built.append(out[1])
            return out

        def width(nprime):
            measured.append(nprime)
            return min_fill_order(nprime).width

        monkeypatch.setattr(cli_module, "approximate_network", spy)
        net = grid_network(4, 4, rng=np.random.default_rng(0))
        args = cli_module.build_parser().parse_args(["approx", "grid.bn", "--target-width", "2"])
        edges, _ = cli_module._resolve_edges(net, Evidence({}), args, width)
        assert len(measured) == len(edges) + 1
        assert all(m is b for m, b in zip(measured, built, strict=True))
        assert min_fill_order(real(net, edges)[1]).width <= 2

    def test_target_width_reaches_requested_width(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        net = grid_network(4, 4, rng=rng)
        net_file = tmp_path / "grid.bn"
        net_file.write_text(serialize_network(net))
        code = main(
            ["approx", str(net_file), "--method", "ed-kl", "--select", "guided",
             "--target-width", "2", "--report", str(tmp_path / "r.csv")]
        )
        assert code in (0, 2)
        fields = open(tmp_path / "r.csv").read().strip().splitlines()[1].split(",")
        assert int(fields[10]) <= 2

    def test_infeasible_target_width_exits_4(self, fixture_files, capsys):
        net_file, ev_file = fixture_files
        code = main(
            ["approx", net_file, ev_file, "--method", "ed-kl", "--target-width", "0"]
        )
        assert code == 4


class TestMapCommand:
    def test_zero_deletion_ratio_one(self, fixture_files, capsys):
        net_file, ev_file = fixture_files
        code = main(
            ["map", net_file, ev_file, "--map-vars", "U1,U2", "--method", "ed-kl",
             "--delete", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio 1" in out

    @pytest.mark.parametrize(
        "map_vars, message",
        [
            pytest.param(",", "--map-vars needs at least one entry", id="blank"),
            pytest.param("", "--map-vars needs at least one entry", id="empty"),
            pytest.param("U1, U1", "--map-vars lists 'U1' twice", id="repeated"),
        ],
    )
    def test_an_empty_or_repeating_map_variable_list_exits_3(
        self, fixture_files, capsys, map_vars, message
    ):
        net_file, ev_file = fixture_files
        code = main(["map", net_file, ev_file, "--map-vars", map_vars, "--delete", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_default_map_vars_recorded(self, fixture_files, capsys):
        net_file, ev_file = fixture_files
        code = main(["map", net_file, ev_file, "--method", "ed-kl", "--delete", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "map-vars defaulted to unobserved roots: U1,U2" in out

    def test_full_deletion_ratio_in_unit_interval(self, fixture_files, capsys):
        net_file, ev_file = fixture_files
        code = main(
            ["map", net_file, ev_file, "--map-vars", "U1,U2", "--method", "ed-kl",
             "--delete", "4", "--report", net_file + ".map.csv"]
        )
        assert code == 0
        fields = open(net_file + ".map.csv").read().strip().splitlines()[1].split(",")
        ratio = float(fields[9])
        assert 0.0 < ratio <= 1.0


class TestExperimentCommand:
    SPEC = """
network = chain(5)
instances = 2
k = 0,1
methods = ed-kl
selections = guided
seed = 17
"""

    def test_report_shape_and_determinism(self, tmp_path, capsys):
        spec_file = tmp_path / "exp.spec"
        spec_file.write_text(self.SPEC)
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert main(["experiment", str(spec_file), "--out", str(out1)]) == 0
        assert main(["experiment", str(spec_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_report_to_stdout_counts_its_bytes(self, tmp_path, capsys):
        spec_file = tmp_path / "exp.spec"
        spec_file.write_text(self.SPEC)
        assert main(["experiment", str(spec_file)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1 + 2 * 2
        assert captured.err == f"wrote 4 rows ({len(captured.out.encode())} bytes)\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param("k =", "k needs at least one entry", id="empty-k"),
            pytest.param("methods = ,", "methods needs at least one entry", id="blank-methods"),
            pytest.param("k = 1,1", "k lists 1 twice", id="repeated-k"),
            pytest.param("methods = ed-kl,ed-kl", "methods lists 'ed-kl' twice",
                         id="repeated-method"),
        ],
    )
    def test_an_empty_or_repeating_spec_list_exits_3_at_its_line(
        self, tmp_path, capsys, line, message
    ):
        key = line.split("=")[0].strip()
        spec = [ln for ln in self.SPEC.strip().splitlines() if not ln.startswith(key)]
        spec_file = tmp_path / "bad.spec"
        spec_file.write_text("\n".join(spec[:2] + [line] + spec[2:]) + "\n")
        out = tmp_path / "bad.csv"
        assert main(["experiment", str(spec_file), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: line 3: {message}\n"
        assert not out.exists()

    def test_missing_spec_file_exits_3(self, capsys):
        assert main(["experiment", "/nonexistent.spec"]) == 3

    @pytest.mark.parametrize(
        "line,message",
        [
            pytest.param("tol = -1", "tolerance must be positive", id="tol = -1"),
            # ranked[:-1] would delete all edges but one
            pytest.param("k = -1,1", "k values must be >= 0", id="k = -1,1"),
            pytest.param("states = 1", "states must be >= 2", id="states = 1"),
            pytest.param("seed = -1", "seed must be >= 0", id="seed = -1"),
            pytest.param("timings = rael", "timings must be none or real", id="timings = rael"),
        ],
    )
    def test_bad_fit_value_exits_3_without_rows(self, tmp_path, capsys, line, message):
        key = line.split("=")[0]
        spec = [ln for ln in self.SPEC.splitlines() if not ln.startswith(key)]
        spec_file = tmp_path / "bad.spec"
        spec_file.write_text("\n".join(spec + [line]) + "\n")
        out = tmp_path / "bad.csv"
        assert main(["experiment", str(spec_file), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("methods = gibbs", "unknown method 'gibbs'"),
            ("k = -1,1", "k values must be >= 0"),
            ("states = 1", "states must be >= 2"),
            ("instances = 0", "instances must be >= 1"),
            ("evidence = bogus", "unknown evidence mode 'bogus'"),
            ("selections = best", "unknown selection 'best'"),
            ("seed = -1", "seed must be >= 0"),
            ("max_iters = -2", "max_iterations must be >= 0"),
            ("tol = 0", "tolerance must be positive"),
            ("damping = 1", "damping must lie in [0, 1)"),
            ("colour = red", "unknown spec keys: ['colour']"),
            ("network = grid(4x)", "bad grid shape '4x'"),
            ("network = chain(x)", "bad chain size 'x'"),
            ("network = grod(4x4)", "unknown generator 'grod'"),
        ],
    )
    def test_each_spec_value_fault_exits_3_at_its_key_s_line(
        self, tmp_path, capsys, line, message
    ):
        key = line.split("=")[0].strip()
        spec = [ln for ln in self.SPEC.strip().splitlines() if not ln.startswith(key)]
        spec_file = tmp_path / "bad.spec"
        spec_file.write_text("\n".join(spec[:1] + [line] + spec[1:]) + "\n")
        out = tmp_path / "bad.csv"
        assert main(["experiment", str(spec_file), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: line 2: {message}\n"
        assert not out.exists()

    def test_repeated_spec_key_exits_3_without_rows(self, tmp_path, capsys):
        spec_file = tmp_path / "twice.spec"
        spec_file.write_text(self.SPEC + "network = grid(3x3)\n")
        out = tmp_path / "twice.csv"
        assert main(["experiment", str(spec_file), "--out", str(out)]) == 3
        assert "spec key 'network' given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_file_network_source(self, tmp_path, fixture_files, capsys):
        net_file, _ = fixture_files
        spec_file = tmp_path / "file.spec"
        spec_file.write_text(
            f"network = {net_file}\ninstances = 2\nk = 0,1\n"
            "methods = ed-bp\nselections = mi\nseed = 3\n"
        )
        out = tmp_path / "file.csv"
        assert main(["experiment", str(spec_file), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 5
        assert ",ed-bp,mi," in lines[1]


class TestNonOriginalDocuments:
    """Every command reads original networks only: a serialized augmented or
    approximate network is refused at load, by its kind, before any output."""

    @pytest.fixture(params=["augmented", "approximate"])
    def documents(self, request, tmp_path):
        net = grid_network(3, 3, rng=np.random.default_rng(0))
        aug, nprime, _ = approximate_network(net, net.edges()[:2])
        other = aug if request.param == "augmented" else nprime
        net_file, ev_file = tmp_path / "other.bn", tmp_path / "grid.ev"
        net_file.write_text(serialize_network(other))
        ev_file.write_text(serialize_evidence(Evidence({"N2_2": "s0"})))
        return str(net_file), str(ev_file), request.param

    @pytest.mark.parametrize(
        "argv",
        [["score"], ["approx", "--delete", "1"], ["map", "--delete", "1"]],
        ids=["score", "approx", "map"],
    )
    def test_a_command_refuses_the_document(self, documents, capsys, argv):
        net_file, ev_file, kind = documents
        assert main([argv[0], net_file, ev_file, *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {net_file}: expected an original network, got kind '{kind}'\n"
        )

    def test_experiment_refuses_the_document(self, documents, tmp_path, capsys):
        net_file, _, kind = documents
        spec_file = tmp_path / "file.spec"
        spec_file.write_text(f"network = {net_file}\ninstances = 1\nk = 1\n")
        out = tmp_path / "file.csv"
        assert main(["experiment", str(spec_file), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {net_file}: expected an original network, got kind '{kind}'\n"
        )
        assert not out.exists()


class TestHuginLoading:
    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param('node A { states = ' + "(" * 3000, "unexpected end of input",
                         id="deep-nesting"),
            pytest.param('node A { states = ("a0"); states = ("a0" "a1"); }',
                         "key 'states' given twice", id="repeated-key"),
        ],
    )
    def test_a_malformed_net_file_exits_3(self, tmp_path, capsys, text, message):
        f = tmp_path / "bad.net"
        f.write_text(text)
        assert main(["score", str(f)]) == 3
        assert capsys.readouterr().err == f"error: line 1: {message}\n"

    def test_net_extension_uses_hugin_reader(self, tmp_path, capsys):
        text = """
net { }
node A { states = ( "a0" "a1" ); }
node B { states = ( "b0" "b1" ); }
potential ( A ) { data = ( 0.4 0.6 ); }
potential ( B | A ) { data = (( 0.9 0.1 )( 0.2 0.8 )); }
"""
        f = tmp_path / "tiny.net"
        f.write_text(text)
        assert main(["score", str(f)]) == 0
        out = capsys.readouterr().out
        assert "A -> B" in out
