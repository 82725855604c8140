"""Parsing and serialization: networks, evidence, deletion plans, reports.

The canonical network document is a line-oriented text format the toolkit
fully controls:

    kind: original                # optional; default original
    variables:
      A a0 a1
      B b0 b1
    cpts:
      A : 0.3 0.7
      B | A : 0.2 0.8 0.9 0.1
    edges:                        # registry; only for non-original kinds
      A A__clone0 B -
      C C__clone1 D C__se1

CPT tables are flat in the model index convention (child fastest, first
parent most significant).  '#' starts a comment anywhere; blank lines are
ignored.  Serialization uses repr() floats so a parse of a serialize is
structurally identical to the source network.

A restricted reader for the Hugin ``.net`` format is also provided.  One
regular expression splits the text into strings, symbols and words ('%'
starts a comment), and one block reader reads ``node`` and ``potential``
blocks as ``key = value;`` pairs, each key at most once, keeping only
``states`` and dense ``data``.  A value is a string, a word or a list of
values nested to any depth, read with a count of the open lists, not by
recursion.  A ``net`` block is skipped with only its braces balanced; a
nested block anywhere else is refused.

Both readers check only their own syntax and hand each declared variable
and CPT (and the canonical format's kind and registry records), with its
line, to one assembler (``_assemble``), which makes every structural check
and raises each fault as a ``FormatError`` at the line that declares it.
Value checks (duplicate state labels, ranges, row sums, cycles) are
``model.validate_network``'s.

``parse_plan(text, net)`` reads a deletion plan against the network it
cuts: an edge ``net`` lacks, an edge listed twice and a start vector that
``EdgeParams`` refuses are each a ``FormatError`` at their line.
"""

from __future__ import annotations

import math
import re
import typing
from dataclasses import dataclass, fields

from .deletion import DeletionPlan, EdgeParams, _collapsed
from .model import NETWORK_KINDS, Cpt, EdgeRecord, Evidence, ModelError, Network, Variable
from .parametrize import METHODS

SELECTION_TAGS = ("rand", "guided", "mi")


class FormatError(ModelError):
    """Positioned syntax or semantic error in a text document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _logical_lines(text: str):
    """(line_number, stripped_content) for non-blank, non-comment lines."""
    for i, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield i, content


def _assemble(variables, cpts, kind=(None, "original"), clone_edges=()) -> Network:
    """The ``Network`` a document declares, from its variables as (line,
    name, states), its CPTs as (line, child, parent names, table), its kind
    as (line, kind) and its clone-edge registry as (line, ``EdgeRecord``).

    Every structural fault raises ``FormatError`` at the line that declares
    it: an unknown kind, a duplicate variable, a ``Variable`` that cannot be
    built, a CPT for an unknown variable, a second CPT for one variable, an
    unknown parent, a table ``Cpt`` rejects, (at the variable's line) a
    variable with no CPT, and a registry record naming an unknown variable.
    ``Network`` makes the same checks, at no line, for networks that
    programs build directly.  An augmented document's network records, as
    ``augment``'s do, the original it augments (``Network.origin``),
    rebuilt by ``deletion._collapsed``.
    """
    ln, kind = kind
    if kind not in NETWORK_KINDS:
        raise FormatError(f"unknown network kind {kind!r}", ln)
    declared: dict[str, tuple[int, Variable]] = {}
    for ln, name, states in variables:
        if name in declared:
            raise FormatError(f"duplicate variable {name!r}", ln)
        try:
            declared[name] = ln, Variable(name, states)
        except ModelError as exc:
            raise FormatError(str(exc), ln) from None
    built: dict[str, Cpt] = {}
    for ln, child, parents, table in cpts:
        if child not in declared:
            raise FormatError(f"cpt for unknown variable {child!r}", ln)
        if child in built:
            raise FormatError(f"two cpts for variable {child!r}", ln)
        for p in parents:
            if p not in declared:
                raise FormatError(f"cpt for {child!r}: unknown parent {p!r}", ln)
        try:
            built[child] = Cpt(declared[child][1], [declared[p][1] for p in parents], table)
        except ModelError as exc:
            raise FormatError(str(exc), ln) from None
    for name, (ln, _) in declared.items():
        if name not in built:
            raise FormatError(f"variable {name!r} has no cpt", ln)
    for ln, rec in clone_edges:
        for n in (rec.parent, rec.clone, rec.child, rec.sevid):
            if n is not None and n not in declared:
                raise FormatError(f"registry names unknown variable {n!r}", ln)
    records = [rec for _, rec in clone_edges]
    net = Network([var for _, var in declared.values()], built.values(), kind, records)
    if kind != "augmented":
        return net
    return Network(net.variables, net.cpts(), kind, records, origin=_collapsed(net))


def parse_network(text: str) -> Network:
    """Parse the canonical document format into a validated-shape Network."""
    kind = (None, "original")
    section = None
    # (line number, content) per line of each section
    sections: dict[str, list[tuple[int, str]]] = {"variables": [], "cpts": [], "edges": []}
    for ln, content in _logical_lines(text):
        low = content.lower()
        if low.startswith("kind:"):
            if section is not None or kind[0] is not None:
                raise FormatError("kind must appear once, before any section", ln)
            kind = ln, content.split(":", 1)[1].strip()
        elif low.endswith(":") and low[:-1] in sections:
            section = low[:-1]
        elif section is not None:
            sections[section].append((ln, content))
        else:
            raise FormatError(f"unexpected content outside any section: {content!r}", ln)
    if not sections["variables"]:
        raise FormatError("document declares no variables")

    variables = []
    for ln, content in sections["variables"]:
        name, *states = content.split()
        variables.append((ln, name, states))

    cpts = []
    for ln, content in sections["cpts"]:
        if ":" not in content:
            raise FormatError("cpt line needs a ':' before the table", ln)
        head, _, tail = content.partition(":")
        child, _, parents = head.partition("|")
        if len(child.split()) != 1:
            raise FormatError("cpt line needs exactly one child name", ln)
        child = child.strip()
        table = []
        for tok in tail.split():
            try:
                table.append(float(tok))
            except ValueError:
                raise FormatError(f"cpt for {child!r}: bad number {tok!r}", ln) from None
        cpts.append((ln, child, parents.split(), table))

    records = []
    for ln, content in sections["edges"]:
        tokens = content.split()
        if len(tokens) != 4:
            raise FormatError("edge line needs: parent clone child sevid-or-dash", ln)
        parent, clone, child, sevid = tokens
        records.append((ln, EdgeRecord(parent, clone, child, None if sevid == "-" else sevid)))

    return _assemble(variables, cpts, kind, records)


def serialize_network(net: Network) -> str:
    lines = []
    if net.kind != "original":
        lines.append(f"kind: {net.kind}")
    lines.append("variables:")
    for v in net.variables:
        lines.append(f"  {v.name} " + " ".join(v.states))
    lines.append("cpts:")
    for v in net.variables:
        cpt = net.cpt(v.name)
        table = " ".join(repr(float(x)) for x in cpt.table)
        if cpt.parents:
            parents = " ".join(p.name for p in cpt.parents)
            lines.append(f"  {v.name} | {parents} : {table}")
        else:
            lines.append(f"  {v.name} : {table}")
    if net.clone_edges:
        lines.append("edges:")
        for r in net.clone_edges:
            sevid = r.sevid if r.sevid is not None else "-"
            lines.append(f"  {r.parent} {r.clone} {r.child} {sevid}")
    return "\n".join(lines) + "\n"


def parse_evidence(text: str, net: Network) -> Evidence:
    """One 'variable = state' pair per line; '#' comments."""
    assignments: dict[str, str] = {}
    for ln, content in _logical_lines(text):
        if "=" not in content:
            raise FormatError("evidence line needs 'variable = state'", ln)
        name, _, state = content.partition("=")
        name, state = name.strip(), state.strip()
        if not name or not state:
            raise FormatError("evidence line needs 'variable = state'", ln)
        if name in assignments:
            raise FormatError(f"variable {name!r} assigned twice", ln)
        try:
            net.var(name).index_of(state)
        except ModelError as exc:
            raise FormatError(str(exc), ln) from None
        assignments[name] = state
    return Evidence(assignments)


def serialize_evidence(ev: Evidence) -> str:
    return "".join(f"{k} = {v}\n" for k, v in ev.items())


def parse_plan(text: str, net: Network) -> tuple[list[tuple[str, str]], list[EdgeParams] | None]:
    """One deleted edge of ``net`` per line: 'parent -> child [| pm: ... |
    se: ...]'.

    Returns the (parent, child) edges and their start vectors, one
    ``EdgeParams`` per line, or None for the vectors when no line gives
    them.  Either every line gives its vectors or none does.  An edge that
    ``net`` does not have, an edge listed twice and a vector that
    ``EdgeParams`` refuses are each a ``FormatError`` at their line.
    """
    present = set(net.edges())
    edges, vectors, bare = [], [], []
    for ln, content in _logical_lines(text):
        head, *rest = [part.strip() for part in content.split("|")]
        if "->" not in head:
            raise FormatError("plan line needs 'parent -> child'", ln)
        parent, _, child = head.partition("->")
        parent, child = parent.strip(), child.strip()
        if not parent or not child or len(parent.split()) != 1 or len(child.split()) != 1:
            raise FormatError("plan line needs 'parent -> child'", ln)
        if (parent, child) not in present:
            raise FormatError(f"edge {parent} -> {child} is not in the network", ln)
        if (parent, child) in edges:
            raise FormatError(f"edge {parent} -> {child} is listed twice", ln)
        pm = se = None
        for part in rest:
            key, _, vals = part.partition(":")
            key = key.strip().lower()
            try:
                numbers = tuple(float(tok) for tok in vals.split())
            except ValueError:
                raise FormatError(f"bad number in {key!r} vector", ln) from None
            if key == "pm":
                pm = numbers
            elif key == "se":
                se = numbers
            else:
                raise FormatError(f"unknown plan field {key!r}", ln)
        if (pm is None) != (se is None):
            raise FormatError("plan line must give both pm and se or neither", ln)
        edges.append((parent, child))
        if pm is None:
            bare.append(ln)
            continue
        try:
            vectors.append(EdgeParams(pm, se))
        except ModelError as exc:
            raise FormatError(str(exc), ln) from None
    if bare and vectors:
        raise FormatError("plan line gives no pm/se vectors, but other lines do", bare[0])
    return edges, vectors or None


def serialize_plan(plan: DeletionPlan) -> str:
    lines = []
    for rec, params in zip(plan.edges, plan.params):
        pm = " ".join(repr(float(x)) for x in params.pm)
        se = " ".join(repr(float(x)) for x in params.se)
        lines.append(f"{rec.parent} -> {rec.child} | pm: {pm} | se: {se}")
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class ReportRow:
    network: str
    instance: int
    method: str
    selection: str
    edges_deleted: int
    iterations: int
    converged: bool
    kl_bound: float
    exact_kl: float | None
    map_ratio: float | None
    constrained_treewidth: int
    wall_time_ms: int

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ModelError(f"unknown method tag {self.method!r}")
        if self.selection not in SELECTION_TAGS:
            raise ModelError(f"unknown selection tag {self.selection!r}")
        if not (self.kl_bound >= 0.0):
            raise ModelError(f"kl_bound must be >= 0 (got {float(self.kl_bound)!r})")
        if self.exact_kl is not None and not (self.exact_kl <= self.kl_bound + 1e-9):
            raise ModelError(
                f"exact_kl {float(self.exact_kl)!r} exceeds kl_bound {float(self.kl_bound)!r}"
            )
        if self.map_ratio is not None and not (0.0 < self.map_ratio <= 1.0):
            raise ModelError(f"map_ratio must be in (0, 1] (got {float(self.map_ratio)!r})")


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))
_COLUMN_TYPES = tuple(typing.get_type_hints(ReportRow)[name] for name in REPORT_COLUMNS)


def _render_cell(kind, value) -> str:
    """One report cell, rendered by its column's declared type: ``bool`` as
    true/false; ``float`` and ``float | None`` with 12 significant digits,
    as inf, or empty for None; anything else with ``str``."""
    if kind is bool:
        return "true" if value else "false"
    if kind in (float, float | None):
        if value is None:
            return ""
        return "inf" if math.isinf(value) else format(float(value), ".12g")
    return str(value)


def render_report(rows) -> str:
    """The CSV report: a header of ``ReportRow``'s field names in declaration
    order, then one validated row per line, each cell rendered by its
    field's declared type (``_render_cell``).  Adding a field to
    ``ReportRow`` adds a column."""
    lines = [",".join(REPORT_COLUMNS)]
    for row in rows:
        row.validate()
        cells = (getattr(row, name) for name in REPORT_COLUMNS)
        lines.append(",".join(map(_render_cell, _COLUMN_TYPES, cells)))
    return "\n".join(lines) + "\n"


def write_report(rows, sink) -> int:
    """Write CSV rows to a binary or text sink; returns the byte count."""
    payload = render_report(rows)
    data = payload.encode("utf-8")
    if hasattr(sink, "buffer"):
        sink = sink.buffer
    try:
        written = sink.write(data)
    except TypeError:
        written = sink.write(payload)
        return len(data)
    return written if written is not None else len(data)


# --- Hugin .net subset -----------------------------------------------------

# Every character starts exactly one match: blanks and % comments are
# skipped, a quote with no closing quote is an unterminated string.
_HUGIN_TOKEN = re.compile(
    r'(?P<skip>\s+|%[^\n]*)|"(?P<str>[^"]*)"|(?P<open>")|(?P<sym>[{}()=;|])'
    r'|(?P<word>[^\s{}()=;|%"]+)'
)


def _hugin_tokens(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, line) per 'str', 'sym' or 'word' token, then an 'eof'
    token on the last non-blank line.  A string's line is that of its
    closing quote; an unterminated string is refused at its opening one."""
    tokens, line = [], 1
    for m in _HUGIN_TOKEN.finditer(text):
        if m.lastgroup == "open":
            raise FormatError("unterminated string", line)
        line += m.group().count("\n")
        if m.lastgroup != "skip":
            tokens.append((m.lastgroup, m.group(m.lastgroup), line))
    return tokens + [("eof", "", text.rstrip().count("\n") + 1)]


def parse_hugin_subset(text: str) -> Network:
    """Read the supported Hugin subset: discrete nodes plus dense potentials.

    Data is flattened in the Hugin order, which matches the model convention
    (first parent most significant, child fastest).  Any construct outside
    the subset raises an unsupported-feature error naming it.
    """
    toks = _hugin_tokens(text)
    pos = 0

    def at(sym):
        return toks[pos][:2] == ("sym", sym)

    def take(kind=None, value=None):
        """The next token, which must be of ``kind`` (and ``value``) if given."""
        nonlocal pos
        tok = toks[pos]
        if kind is not None and (tok[0] != kind or value is not None and tok[1] != value):
            raise FormatError(f"expected {value or kind!r}, found {tok[1]!r}", tok[2])
        pos += 1
        return tok

    def value() -> list:
        """A string, a word or a parenthesized list of values, as a flat
        list.  Lists nest to any depth: the reader counts the open ones."""
        items, depth = [], 0
        while True:
            kind, val, line = take()
            if (kind, val) == ("sym", "("):
                depth += 1
            elif kind in ("str", "word"):
                items.append(val)
            elif kind == "eof":
                raise FormatError("unexpected end of input", line)
            else:
                raise FormatError(f"unexpected token {val!r}", line)
            while depth and at(")"):
                take()
                depth -= 1
            if not depth:
                return items

    def block(keyed=True) -> dict:
        """Read '{ key = value; ... }' into a dict, keeping unknown keys; with
        ``keyed`` false, skip the block with only its braces balanced."""
        take("sym", "{")
        fields, depth = {}, 1
        while depth:
            if toks[pos][0] == "eof":
                raise FormatError("unterminated block", toks[pos][2])
            if at("}"):
                depth -= 1
                take()
            elif not keyed:
                depth += at("{")
                take()
            else:
                _, key, line = take("word")
                if key in fields:
                    raise FormatError(f"key {key!r} given twice", line)
                take("sym", "=")
                fields[key] = value()
                take("sym", ";")
        return fields

    variables, cpts = [], []
    while toks[pos][0] != "eof":
        kind, word, line = take()
        if kind != "word":
            raise FormatError(f"unexpected token {word!r}", line)
        if word == "net":
            block(keyed=False)
        elif word == "node":
            name = take("word")[1]
            variables.append((line, name, block().get("states", [])))
        elif word == "potential":
            take("sym", "(")
            child = take("word")[1]
            parents = []
            if at("|"):
                take()
                while not at(")"):
                    parents.append(take("word")[1])
            take("sym", ")")
            data = block().get("data", [])
            try:
                cpts.append((line, child, parents, [float(x) for x in data]))
            except ValueError:
                raise FormatError(f"potential for {child!r}: non-numeric data", line) from None
        else:
            raise FormatError(f"unsupported feature: {word!r}", line)
    return _assemble(variables, cpts)
