import io
import re

import numpy as np
import pytest

from edgedel import (
    EdgeParams,
    FormatError,
    ModelError,
    ReportRow,
    approximate_network,
    enumerate_joint,
    parse_evidence,
    parse_hugin_subset,
    parse_network,
    parse_plan,
    serialize_evidence,
    serialize_network,
    serialize_plan,
    validate_network,
    write_report,
)
from edgedel.netio import render_report

from conftest import equality_witness_net, random_network

MINIMAL = """
variables:
  A a0 a1
cpts:
  A : 0.3 0.7
"""

TWO_NODE = """
# tiny test network
variables:
  A a0 a1
  B b0 b1 b2
cpts:
  A : 0.3 0.7
  B | A : 0.1 0.6 0.3 0.2 0.2 0.6
"""

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


# three separate edges A -> B, C -> D, E -> F
PAIRS_DOC = "variables:\n" + "".join(f"  {v} {v.lower()}0 {v.lower()}1\n" for v in "ABCDEF") + (
    "cpts:\n" + "".join(f"  {u} : 0.5 0.5\n  {x} | {u} : 0.9 0.1 0.2 0.8\n" for u, x in
                        ("AB", "CD", "EF"))
)


class TestCanonicalFormat:
    def test_minimal_document(self):
        net = parse_network(MINIMAL)
        assert [v.name for v in net.variables] == ["A"]
        assert net.cpt("A").table.tolist() == [0.3, 0.7]
        assert validate_network(net) == []

    def test_two_node_parent_order(self):
        net = parse_network(TWO_NODE)
        assert net.parent_names("B") == ("A",)
        assert net.var("B").states == ("b0", "b1", "b2")

    def test_equality_document_semantics(self):
        net = parse_network(EQUALITY_DOC)
        ev = parse_evidence("X1 = on\nX2 = on\n", net)
        joint = enumerate_joint(net, ev)
        total = joint.total()
        u1 = joint.marginalize_to({"U1"}).values / total
        assert np.allclose(u1, [0.5, 0.5], atol=1e-15)

    def test_round_trip_structural_equality(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            net = random_network(rng, n_vars=10)
            assert parse_network(serialize_network(net)) == net

    def test_round_trip_preserves_kind_and_registry(self):
        net, _ = equality_witness_net()
        aug, nprime, plan = approximate_network(net, [("U1", "X1")])
        assert parse_network(serialize_network(aug)) == aug
        assert parse_network(serialize_network(nprime)) == nprime
        # an augmented document records the original it augments, rebuilt
        assert parse_network(serialize_network(aug)).origin == net
        assert parse_network(serialize_network(nprime)).origin is None

    def test_an_augmentation_of_no_original_records_none(self):
        # B would read A twice once the clone C is folded back into A
        doc = (
            "kind: augmented\nvariables:\n  A a0 a1\n  B b0 b1\n  C a0 a1\ncpts:\n"
            "  A : 0.5 0.5\n  C | A : 1 0 0 1\n  B | A C : 0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5\n"
            "edges:\n  A C B -\n"
        )
        net = parse_network(doc)
        assert validate_network(net) == [] and net.origin is None

    def test_syntax_error_is_positioned(self):
        bad = "variables:\n  A a0 a1\ncpts:\n  A 0.3 0.7\n"
        with pytest.raises(FormatError, match="line 4"):
            parse_network(bad)

    def test_unknown_parent_names_cpt(self):
        bad = "variables:\n  A a0 a1\ncpts:\n  A | Q : 0.3 0.7\n"
        with pytest.raises(FormatError, match="'Q'"):
            parse_network(bad)

    def test_bad_table_length_names_cpt(self):
        bad = "variables:\n  A a0 a1\ncpts:\n  A : 0.3 0.3 0.4\n"
        with pytest.raises(FormatError, match="'A'"):
            parse_network(bad)

    def test_content_outside_sections_rejected(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_network("A a0 a1\n")

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            pytest.param(("cpts:", "kind: original\ncpts:"), 3,
                         "kind must appear once, before any section", id="kind-after-section"),
            pytest.param(("variables:", "kind: original\nkind: original\nvariables:"), 2,
                         "kind must appear once, before any section", id="second-kind"),
            pytest.param(("variables:\n  A a0 a1\n", "variables:\n"), None,
                         "document declares no variables", id="no-variables"),
            pytest.param(("  A : 0.3", "  A B : 0.3"), 4, "cpt line needs exactly one child name",
                         id="two-children"),
            pytest.param(("0.3 0.7", "0.3 x"), 4, "cpt for 'A': bad number 'x'", id="bad-number"),
            pytest.param(("0.3 0.7", "0.3 0.7\nedges:\n  A A__clone0 B"), 6,
                         "edge line needs: parent clone child sevid-or-dash", id="short-edge-line"),
        ],
    )
    def test_each_syntax_fault_is_raised_at_its_line(self, edit, line, message):
        doc = "variables:\n  A a0 a1\ncpts:\n  A : 0.3 0.7\n"
        assert parse_network(doc) is not None
        prefix = "" if line is None else f"line {line}: "
        with pytest.raises(FormatError, match=f"^{re.escape(prefix + message)}$") as fault:
            parse_network(doc.replace(*edit))
        assert fault.value.line == line

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                ("  B b0 b1", "  B b0 b1\n  B b0 b1"), "line 4: duplicate variable 'B'",
                id="duplicate-variable",
            ),
            pytest.param(
                ("  B b0 b1", "  B"), "line 3: variable 'B' has no states", id="no-states"
            ),
            pytest.param(
                ("0.9 0.1", "0.9 0.1\n  C : 0.5 0.5"), "line 7: cpt for unknown variable 'C'",
                id="unknown-child",
            ),
            pytest.param(
                ("0.9 0.1", "0.9 0.1\n  A : 0.5 0.5"), "line 7: two cpts for variable 'A'",
                id="second-cpt",
            ),
            pytest.param(
                ("B | A", "B | Q"), "line 6: cpt for 'B': unknown parent 'Q'", id="unknown-parent"
            ),
            pytest.param(
                ("0.3 0.7", "0.3 0.3 0.4"), "line 5: cpt for 'A': table has 3 entries, expected 2",
                id="table-size",
            ),
            pytest.param(
                ("B | A :", "B | A B : 0.5 0.5 0.5 0.5"),
                "line 6: cpt for 'B': repeated variable in scope",
                id="repeated-scope",
            ),
            pytest.param(
                ("\n  B | A : 0.2 0.8 0.9 0.1", ""), "line 3: variable 'B' has no cpt",
                id="missing-cpt",
            ),
        ],
    )
    def test_each_structural_fault_is_raised_at_its_line(self, edit, message):
        doc = "variables:\n  A a0 a1\n  B b0 b1\ncpts:\n  A : 0.3 0.7\n  B | A : 0.2 0.8 0.9 0.1"
        assert parse_network(doc) is not None
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_network(doc.replace(*edit))

    def test_a_variable_or_cpt_fault_comes_before_the_network_s_own(self):
        # each variable and CPT is built at its line before Network checks
        # the kind or the duplicates
        doc = "kind: bogus\nvariables:\n  A a0 a1\n  A\ncpts:\n  A : 0.3 0.7\n"
        with pytest.raises(FormatError, match="^line 4: variable 'A' has no states$"):
            parse_network(doc)
        with pytest.raises(FormatError, match="^line 1: unknown network kind 'bogus'$"):
            parse_network(doc.replace("  A\n", "  A a0\n"))

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            pytest.param(("kind: approximate", "kind: bogus"), 1, "unknown network kind 'bogus'",
                         id="kind"),
            pytest.param(("A C B S", "Q C B S"), 13, "registry names unknown variable 'Q'",
                         id="parent"),
            pytest.param(("A C B S", "A Q A -"), 13, "registry names unknown variable 'Q'",
                         id="clone"),
            pytest.param(("A C B S", "A C Q S"), 13, "registry names unknown variable 'Q'",
                         id="child"),
            pytest.param(("A C B S", "A C B Q"), 13, "registry names unknown variable 'Q'",
                         id="sevid"),
        ],
    )
    def test_kind_and_registry_faults_are_raised_at_their_line(self, edit, line, message):
        doc = (
            "kind: approximate\nvariables:\n  A a0 a1\n  C a0 a1\n  B b0 b1\n  S s0 s1\n"
            "cpts:\n  A : 0.3 0.7\n  C : 0.5 0.5\n  B | C : 0.2 0.8 0.9 0.1\n"
            "  S | A : 1 0 1 0\nedges:\n  A C B S"
        )
        assert parse_network(doc).clone_edges[0].sevid == "S"
        with pytest.raises(FormatError, match=f"^line {line}: {re.escape(message)}$") as fault:
            parse_network(doc.replace(*edit))
        assert fault.value.line == line


class TestEvidenceAndPlanFormats:
    def test_evidence_round_trip(self):
        net = parse_network(TWO_NODE)
        ev = parse_evidence("# witnessed\nA = a1\nB = b2\n", net)
        assert dict(ev.items()) == {"A": "a1", "B": "b2"}
        assert parse_evidence(serialize_evidence(ev), net) == ev

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A = a1\n\nQ = q0\n", "line 3: unknown variable 'Q'"),
            ("A = a1\nB = nope\n", "line 2: variable 'B' has no state 'nope'"),
            ("A = a1\n# again\nA = a0\n", "line 3: variable 'A' assigned twice"),
            ("A = a1\nB b1\n", "line 2: evidence line needs 'variable = state'"),
            ("A =\n", "line 1: evidence line needs 'variable = state'"),
            ("A = a1\n = b1\n", "line 2: evidence line needs 'variable = state'"),
        ],
        ids=["unknown-variable", "unknown-state", "assigned-twice", "no-equals", "no-state",
             "no-variable"],
    )
    def test_evidence_fault_is_raised_at_its_line(self, text, message):
        net = parse_network(TWO_NODE)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_evidence(text, net)

    def test_plan_round_trip_with_params(self):
        net, _ = equality_witness_net()
        aug, nprime, plan = approximate_network(
            net, [("U1", "X1")], [EdgeParams([0.25, 0.75], [0.5, 1.0])]
        )
        text = serialize_plan(plan)
        edges, vectors = parse_plan(text, net)
        assert edges == [("U1", "X1")]
        assert vectors == [EdgeParams([0.25, 0.75], [0.5, 1.0])]
        assert vectors == list(plan.params)

    def test_plan_edges_only(self):
        edges, vectors = parse_plan("# plan\nA -> B\nC -> D\n", parse_network(PAIRS_DOC))
        assert edges == [("A", "B"), ("C", "D")]
        assert vectors is None

    def test_plan_requires_both_vectors(self):
        with pytest.raises(FormatError):
            parse_plan("A -> B | pm: 0.5 0.5\n", parse_network(PAIRS_DOC))

    def test_plan_with_vectors_on_some_lines_names_the_first_bare_line(self):
        text = "A -> B | pm: 0.5 0.5 | se: 1.0 0.5\n# bare lines\nC -> D\nE -> F\n"
        with pytest.raises(FormatError, match="line 3: plan line gives no pm/se"):
            parse_plan(text, parse_network(PAIRS_DOC))

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("A -> B\nA B\n", "line 2: plan line needs 'parent -> child'",
                         id="no-arrow"),
            pytest.param("A -> B\n -> D\n", "line 2: plan line needs 'parent -> child'",
                         id="no-parent"),
            pytest.param("A ->\n", "line 1: plan line needs 'parent -> child'", id="no-child"),
            pytest.param("A -> B | pm: 0.5 x | se: 1 1\n", "line 1: bad number in 'pm' vector",
                         id="bad-number"),
            pytest.param("A -> B | pm: 0.5 0.5 | se: 1 1 | xx: 1\n",
                         "line 1: unknown plan field 'xx'", id="unknown-field"),
            pytest.param("A -> B\n# again\nA -> B\n", "line 3: edge A -> B is listed twice",
                         id="repeated-edge"),
            pytest.param("A -> B\nA -> D\n", "line 2: edge A -> D is not in the network",
                         id="unknown-edge"),
            pytest.param("B -> A\n", "line 1: edge B -> A is not in the network",
                         id="reversed-edge"),
        ],
    )
    def test_each_plan_fault_is_raised_at_its_line(self, text, message):
        net = parse_network(PAIRS_DOC)
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_plan(text, net)

    def test_edges_are_checked_once_every_line_is_read(self):
        # the edge rule is augment's (check_deletable), run on the whole plan
        text = "A -> Q\nA -> B | pm: 0.5 x | se: 1 1\n"
        with pytest.raises(FormatError, match="^line 2: bad number in 'pm' vector$"):
            parse_plan(text, parse_network(PAIRS_DOC))


def make_row(**overrides):
    base = dict(
        network="chain(8)",
        instance=3,
        method="ed-kl",
        selection="guided",
        edges_deleted=2,
        iterations=14,
        converged=True,
        kl_bound=0.125,
        exact_kl=0.0625,
        map_ratio=None,
        constrained_treewidth=3,
        wall_time_ms=0,
    )
    base.update(overrides)
    return ReportRow(**base)


class TestReports:
    def test_empty_report_is_header_only(self):
        sink = io.BytesIO()
        n = write_report([], sink)
        text = sink.getvalue().decode()
        assert text == (
            "network,instance,method,selection,edges_deleted,iterations,converged,"
            "kl_bound,exact_kl,map_ratio,constrained_treewidth,wall_time_ms\n"
        )
        assert n == len(sink.getvalue())

    def test_cells_render_by_declared_type(self):
        row = make_row(converged=False, kl_bound=float("inf"), exact_kl=None, map_ratio=0.5)
        cells = render_report([row]).split("\n")[1]
        assert cells == "chain(8),3,ed-kl,guided,2,14,false,inf,,0.5,3,0"

    def test_single_row_has_twelve_fields(self):
        text = render_report([make_row()])
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 12

    def test_absent_optionals_render_empty(self):
        text = render_report([make_row(exact_kl=None, map_ratio=None)])
        row = text.strip().split("\n")[1].split(",")
        assert row[8] == "" and row[9] == ""
        assert "nan" not in text

    def test_floats_use_twelve_significant_digits(self):
        text = render_report([make_row(kl_bound=1.0 / 3.0, exact_kl=None)])
        assert "0.333333333333" in text

    def test_kl_bound_must_be_nonnegative(self):
        with pytest.raises(Exception):
            render_report([make_row(kl_bound=-0.5, exact_kl=None)])

    def test_exact_kl_must_respect_bound(self):
        with pytest.raises(Exception):
            render_report([make_row(kl_bound=0.1, exact_kl=0.2)])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(kl_bound=np.float64(-0.5), exact_kl=None), "kl_bound must be >= 0 (got -0.5)"),
            (
                dict(kl_bound=np.float64(0.1), exact_kl=np.float64(0.2)),
                "exact_kl 0.2 exceeds kl_bound 0.1",
            ),
            (dict(map_ratio=np.float64(1.5)), "map_ratio must be in (0, 1] (got 1.5)"),
            (dict(method="gibbs"), "unknown method tag 'gibbs'"),
            (dict(selection="best"), "unknown selection tag 'best'"),
        ],
    )
    def test_validation_errors_print_plain_floats(self, overrides, message):
        with pytest.raises(ModelError) as info:
            make_row(**overrides).validate()
        assert str(info.value) == message
        assert "np.float64" not in str(info.value)

    def test_write_to_text_sink(self):
        sink = io.StringIO()
        n = write_report([make_row()], sink)
        assert n == len(sink.getvalue().encode())


HUGIN_TWO_NODE = """
net { node_size = (80 40); }
node A {
  states = ( "a0" "a1" );
  label = "first";
}
node B {
  states = ( "b0" "b1" "b2" );
}
potential ( A ) { data = ( 0.3 0.7 ); }
potential ( B | A ) {
  data = (( 0.1 0.6 0.3 )
          ( 0.2 0.2 0.6 ));
}
"""


class TestHuginSubset:
    def test_matches_canonical_twin(self):
        got = parse_hugin_subset(HUGIN_TWO_NODE)
        want = parse_network(TWO_NODE)
        assert got == want

    def test_percent_comments_ignored(self):
        text = "% header comment\n" + HUGIN_TWO_NODE
        assert parse_hugin_subset(text) == parse_network(TWO_NODE)

    def test_continuous_node_unsupported(self):
        text = HUGIN_TWO_NODE + "\ncontinuous node X { }\n"
        with pytest.raises(FormatError, match="unsupported feature"):
            parse_hugin_subset(text)

    def test_data_length_mismatch_is_semantic_error(self):
        text = HUGIN_TWO_NODE.replace("( 0.3 0.7 )", "( 0.3 0.3 0.4 )")
        with pytest.raises(FormatError, match="'A'"):
            parse_hugin_subset(text)

    def test_missing_potential_rejected(self):
        text = """
node A { states = ( "a0" "a1" ); }
"""
        with pytest.raises(FormatError, match="^line 2: variable 'A' has no cpt$"):
            parse_hugin_subset(text)

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                ("(0.9 0.1)); }", '(0.9 0.1)); }\nnode B { states = ("b0"); }'),
                "line 5: duplicate variable 'B'",
                id="duplicate-node",
            ),
            pytest.param(
                ('states = ("b0" "b1");', "states = ();"), "line 2: variable 'B' has no states",
                id="empty-states",
            ),
            pytest.param(
                ('states = ("b0" "b1");', 'label = "b";'), "line 2: variable 'B' has no states",
                id="no-states",
            ),
            pytest.param(
                ("(0.9 0.1)); }", "(0.9 0.1)); }\npotential (C) { data = (0.5 0.5); }"),
                "line 5: cpt for unknown variable 'C'",
                id="unknown-node",
            ),
            pytest.param(
                ("(0.9 0.1)); }", "(0.9 0.1)); }\npotential (A) { data = (0.5 0.5); }"),
                "line 5: two cpts for variable 'A'",
                id="second-potential",
            ),
            pytest.param(
                ("(B | A)", "(B | Q)"), "line 4: cpt for 'B': unknown parent 'Q'",
                id="unknown-parent",
            ),
            pytest.param(
                ("(0.3 0.7)", "(0.3 0.3 0.4)"),
                "line 3: cpt for 'A': table has 3 entries, expected 2",
                id="table-size",
            ),
            pytest.param(
                ("data = (0.3 0.7);", ""), "line 3: cpt for 'A': table has 0 entries, expected 2",
                id="no-data",
            ),
            pytest.param(
                ("\npotential (B | A) { data = ((0.2 0.8) (0.9 0.1)); }", ""),
                "line 2: variable 'B' has no cpt",
                id="missing-potential",
            ),
        ],
    )
    def test_each_structural_fault_is_raised_at_its_line(self, edit, message):
        doc = (
            'node A { states = ("a0" "a1"); }\nnode B { states = ("b0" "b1"); }\n'
            "potential (A) { data = (0.3 0.7); }\n"
            "potential (B | A) { data = ((0.2 0.8) (0.9 0.1)); }"
        )
        assert parse_hugin_subset(doc) is not None
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_hugin_subset(doc.replace(*edit))

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param('node A {\n  states = ("a" "b"\n', "unexpected end of input", id="states"),
            pytest.param(
                'node A {\n  states = ("a" "b");\n}\npotential (A) {\n  data = (0.5 0.5',
                "unexpected end of input",
                id="data",
            ),
            pytest.param(
                'node A {\n  states = ("a" "b");\n}\npotential (A) {\n  data = (0.5 0.5);\n\n',
                "unterminated block",
                id="potential-block",
            ),
        ],
    )
    def test_truncated_input_reports_the_last_line(self, text, message):
        last = len(text.rstrip().split("\n"))
        with pytest.raises(FormatError, match=f"^line {last}: {message}$"):
            parse_hugin_subset(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # refused at the line of its opening quote
            pytest.param(
                'node A {\n  states = ("a0" "a1);\n}\n\n', "line 2: unterminated string",
                id="unterminated-string",
            ),
            pytest.param(
                'node A\n  states = ("a0" "a1");\n', "line 2: expected '{', found 'states'",
                id="expected-brace",
            ),
            pytest.param(
                'node A { states = ("a0" "a1"); }\npotential (A { data = (0.5 0.5); }',
                "line 2: expected ')', found '{'",
                id="expected-paren",
            ),
            pytest.param(
                'node A { states = ("a0" "a1") }', "line 1: expected ';', found '}'",
                id="expected-semicolon",
            ),
            pytest.param(
                'node "A" { states = ("a0" "a1"); }', "line 1: expected 'word', found 'A'",
                id="quoted-node-name",
            ),
            pytest.param(
                'node A { states = ("a0" "a1"); }\n;', "line 2: unexpected token ';'",
                id="top-level-symbol",
            ),
            pytest.param(
                'node A {\n  states = ("a0" = "a1");\n}', "line 2: unexpected token '='",
                id="symbol-in-value",
            ),
            pytest.param(
                'node A {\n  states = );\n}', "line 2: unexpected token ')'",
                id="closing-paren-as-value",
            ),
            pytest.param(
                'node A { states = ("a0" "a1"); }\npotential (A)\n{ data = (0.5 x); }',
                "line 2: potential for 'A': non-numeric data",
                id="non-numeric-data",
            ),
            pytest.param(
                'node A {\n  { states = ("a0" "a1"); }\n}',
                "line 2: expected 'word', found '{'",
                id="block-in-node",
            ),
            pytest.param(
                'node A {\n  sub { states = ("a0" "a1"); }\n}',
                "line 2: expected '=', found '{'",
                id="named-block-in-node",
            ),
            pytest.param(
                'node A { states = ("a0" "a1"); }\npotential (A) {\n  { data = (0.5 0.5); }\n}',
                "line 3: expected 'word', found '{'",
                id="block-in-potential",
            ),
            pytest.param(
                'net {\n  a { b = 1; }\n', "line 2: unterminated block", id="unbalanced-net",
            ),
        ],
    )
    def test_each_syntax_fault_is_raised_at_its_line(self, text, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_hugin_subset(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                'node A {\n  states = ("a0" "a1");\n  states = ("b0" "b1");\n}',
                "line 3: key 'states' given twice",
                id="states",
            ),
            pytest.param(
                'node A { states = ("a0" "a1"); }\npotential (A) {\n  data = (0.5 0.5);\n'
                "  data = (0.2 0.8);\n}",
                "line 4: key 'data' given twice",
                id="data",
            ),
            pytest.param(
                'node A {\n  label = "a";\n  states = ("a0" "a1");\n  label = "b";\n}',
                "line 4: key 'label' given twice",
                id="unread-key",
            ),
        ],
    )
    def test_a_repeated_key_is_refused_at_its_second_line(self, text, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_hugin_subset(text)

    def test_lists_nest_to_any_depth(self):
        # the value reader counts open lists; it does not recurse
        deep = 3000
        text = HUGIN_TWO_NODE.replace('( "a0" "a1" )', "(" * deep + '"a0" "a1"' + ")" * deep)
        assert parse_hugin_subset(text) == parse_network(TWO_NODE)
        unclosed = 'node A {\n  states = ' + "(" * deep + "\n"
        with pytest.raises(FormatError, match="^line 2: unexpected end of input$"):
            parse_hugin_subset(unclosed)

    def test_net_block_is_skipped_with_only_its_braces_balanced(self):
        text = 'net {\n  layout { x = (1 2); } ;\n  free text "}" = ( ;\n  { { } }\n}\n'
        assert parse_hugin_subset(text + HUGIN_TWO_NODE) == parse_network(TWO_NODE)

    def test_data_order_matches_convention(self):
        net = parse_hugin_subset(HUGIN_TWO_NODE)
        # row for A=a0 is (0.1, 0.6, 0.3)
        assert net.cpt("B").shaped[0].tolist() == [0.1, 0.6, 0.3]
