"""Fits are pinned bit for bit: ``tests/data/fit_golden.json`` holds the
``float.hex`` of every plan, residual and KL-bound trace that
``record_fit_golden.py`` produces (see there for the cases and for how to
re-record)."""

import json
import math

import pytest

from edgedel import apply_params, enumerate_joint
from edgedel.divergence import kl_breakdown, true_edge_marginals

import record_fit_golden as golden

WANT = json.loads(golden.GOLDEN.read_text())


def test_fixture_covers_every_case():
    assert sorted(WANT) == sorted(golden.case_ids())


@pytest.mark.parametrize("case", golden.case_ids())
def test_fit_is_bitwise_the_recorded_one(case):
    assert golden.encode(*golden.fit(*case.split("/"))) == WANT[case]


@pytest.mark.parametrize("schedule", golden.SCHEDULES)
@pytest.mark.parametrize("method", golden.METHODS)
def test_observed_parent_trace_matches_enumeration(method, schedule):
    # the first deleted edge's parent is observed, so its soft-evidence input
    # is one entry of se; the trace's Pr'(e') must still be N''s at the plan
    name = "grid3x3-observed-parent"
    net, ev, aug, nprime, plan, evp = golden.build(name)
    assert plan.edges[0].parent in ev
    fitted, _, trace = golden.fit(name, method, schedule, "cold")
    marginals, source = true_edge_marginals(aug, ev, fitted)
    pr_e = source.pr_e
    vectors = [(p.pm, p.se) for p in fitted.params]
    terms = kl_breakdown(marginals, vectors, pr_e, pr_e).edge_terms
    traced = pr_e * math.exp(trace[-1].kl_bound - sum(terms))
    want = enumerate_joint(apply_params(nprime, fitted), evp).total()
    assert traced == pytest.approx(want, rel=1e-12)
