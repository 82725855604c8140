"""No loop over a set in ``src/edgedel``: a set of strings is ordered by the
string hash, which ``PYTHONHASHSEED`` moves, so a loop over one could make
a seed's output differ between processes.

The check reads each module's syntax tree.  It refuses a set-valued
expression where it is iterated: as the iterable of a ``for`` or of a
comprehension, or as the argument of ``list()``, ``tuple()`` or
``str.join``.  Set-valued means a set literal, a set comprehension, a
``set(...)`` or ``frozenset(...)`` call, or a set operator (``|``, ``&``,
``-``, ``^``) with such an expression or a ``.keys()`` call on one side.
``sorted(...)`` of a set is allowed: it fixes the order.

A name bound to a set, an attribute holding one and a call that returns
one are beyond its reach: it sees only what the expression itself spells.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "edgedel"

SET_OPERATORS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def is_keys(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
    )


def is_set(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, SET_OPERATORS):
        return any(is_set(side) or is_keys(side) for side in (node.left, node.right))
    return False


def iterated(node: ast.AST) -> list[ast.AST]:
    """The expressions that ``node`` iterates over."""
    if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        return [node.iter]
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("list", "tuple"):
            return node.args[:1]
        if isinstance(func, ast.Attribute) and func.attr == "join":
            return node.args[:1]
    return []


def set_loops(source: str) -> list[int]:
    """The line of each iteration over a set-valued expression in ``source``."""
    return [
        expr.lineno
        for node in ast.walk(ast.parse(source))
        for expr in iterated(node)
        if is_set(expr)
    ]


@pytest.mark.parametrize(
    "source",
    [
        "for x in set(a): pass",
        "for x in {1, 2}: pass",
        "y = [x for x in frozenset(a)]",
        "y = {x: 1 for x in {x for x in a}}",
        "y = list(set(a))",
        "y = tuple(d.keys() - b)",
        "y = ','.join(b | set(a))",
        "y = (x for x in a.keys() & b)",
    ],
)
def test_each_iteration_over_a_set_is_found(source):
    assert set_loops(source) == [1]


@pytest.mark.parametrize(
    "source",
    [
        "for x in sorted(set(a)): pass",
        "y = [x for x in dict.fromkeys(a)]",
        "y = x in set(a)",
        "y = list(a - b)",
        "s = set(a)\nfor x in s: pass",
    ],
    ids=["sorted", "dict", "membership", "no-set-operand", "bound-name"],
)
def test_what_fixes_the_order_or_is_out_of_reach_is_not_found(source):
    assert set_loops(source) == []


def test_no_module_of_src_iterates_over_a_set():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in set_loops(path.read_text())
    ]
    assert found == []
