"""A ratchet on the package's size: the line count of ``src/edgedel`` may
not rise above the bound checked in at ``tests/data/src_lines.txt``.

A change that must grow the package raises the bound in the same diff and
says why in ``CHANGES.md``; a change that shrinks the package lowers it."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUND = Path(__file__).resolve().parent / "data" / "src_lines.txt"


def src_lines() -> int:
    """Lines of every module of ``src/edgedel``, counted as ``wc -l`` does."""
    return sum(p.read_text().count("\n") for p in (ROOT / "src" / "edgedel").glob("*.py"))


def test_src_stays_within_its_line_bound():
    bound = int(BOUND.read_text())
    lines = src_lines()
    assert lines <= bound, (
        f"src/edgedel has {lines} lines, above its bound of {bound}: shrink it, or raise "
        f"{BOUND.relative_to(ROOT)} and say why in CHANGES.md"
    )
