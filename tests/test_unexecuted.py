"""The checked-in list of ``src`` statements that tier-1 leaves unexecuted
(``tests/data/unexecuted.txt``) names statements that exist, each with a
reason.  Whether tier-1 executes them is checked outside tier-1, by the
``unexecuted_trace`` plugin."""

from collections import Counter

import unexecuted_trace as trace


def test_every_listed_statement_is_in_src_with_a_reason():
    found = Counter(
        (function, text)
        for path in sorted(trace.SRC.glob("*.py"))
        for function, text, _, _ in trace.statements(path)
    )
    listed = trace.read_listed()
    assert listed
    for key, reasons in listed.items():
        assert found[key] >= len(reasons), f"{key} is not a statement of src/edgedel"
        assert all(reason.strip() for reason in reasons), f"{key} is listed with no reason"
