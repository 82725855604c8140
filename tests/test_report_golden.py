"""Reports are pinned byte for byte across commits: ``tests/data/report_*``
holds what ``record_report_golden.py`` produces (see there for the cases and
for how to re-record)."""

import pytest

import record_report_golden as golden


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_output_is_the_recorded_bytes(case, tmp_path):
    want = (golden.DATA / golden.CASES[case]).read_bytes()
    assert golden.produce(case, tmp_path) == want
