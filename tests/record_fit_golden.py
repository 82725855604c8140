"""Record ``tests/data/fit_golden.json``: the bits of a set of fits.

Each case fits one approximate network with ``parametrize.run`` for every
(method, schedule, start) combination and stores the final plan, the last
sweep's residuals and the per-sweep residual and KL-bound trace as
``float.hex`` strings, so ``test_fit_golden.py`` can demand bitwise equality.

Run from the repository root to re-record (only when a change means to move
the fitted values):

    PYTHONPATH=src python tests/record_fit_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from edgedel import (
    Cpt,
    EdgeParams,
    Evidence,
    IterationConfig,
    Network,
    approximate_network,
    augmented_evidence,
    run,
)
from edgedel.harness import chain_network, grid_network

from conftest import random_network

GOLDEN = Path(__file__).parent / "data" / "fit_golden.json"

METHODS = ("ed-kl", "ed-bp")
SCHEDULES = ("sequential", "simultaneous")
STARTS = ("cold", "warm")
MAX_ITERATIONS = 30


def _leaf_evidence(net):
    return Evidence({n: net.var(n).states[0] for n in net.leaves()})


def _grid_leaf_evidence():
    net = grid_network(4, 4, rng=np.random.default_rng(21))
    return net, _leaf_evidence(net), net.edges()[:4]


def _chain3():
    net = chain_network(8, 3, rng=np.random.default_rng(22))
    ev = Evidence({"X8": "s2", "X3": "s0"})
    return net, ev, [("X4", "X5"), ("X6", "X7")]


def _grid_observed_parent():
    # N1_1 is observed and is the parent of the first deleted edge, so that
    # edge's soft-evidence input is sliced down to one entry
    net = grid_network(3, 3, rng=np.random.default_rng(23))
    ev = Evidence({"N1_1": "s1", "N2_2": "s0"})
    return net, ev, [("N1_1", "N1_2"), ("N0_1", "N1_1"), ("N1_0", "N2_0")]


def _random_two_into_one():
    # two deleted edges into one child, and a zero entry in that child's CPT
    net = random_network(np.random.default_rng(24), n_vars=8, max_card=3)
    child = next(v.name for v in net.variables if len(net.parent_names(v.name)) >= 2)
    cpt = net.cpt(child)
    table = cpt.shaped.copy()
    table[(0,) * (table.ndim - 1)] = 0.0
    table[(0,) * (table.ndim - 1)][-1] = 1.0
    cpts = [Cpt(cpt.child, cpt.parents, table) if c.child.name == child else c for c in net.cpts()]
    net = Network(net.variables, cpts)
    ev = _leaf_evidence(net)
    parents = net.parent_names(child)
    return net, ev, [(parents[0], child), (parents[1], child)]


NETWORKS = {
    "grid4x4-leaves": _grid_leaf_evidence,
    "chain8x3": _chain3,
    "grid3x3-observed-parent": _grid_observed_parent,
    "random-two-into-one": _random_two_into_one,
}


def build(name):
    """(source net, evidence, N', plan, augmented evidence) of a case."""
    net, ev, edges = NETWORKS[name]()
    _, nprime, plan = approximate_network(net, edges)
    return net, ev, nprime, plan, augmented_evidence(nprime, ev)


def warm_params(nprime, plan, seed):
    rng = np.random.default_rng(seed)
    out = []
    for rec in plan.edges:
        card = nprime.var(rec.clone).card
        out.append(EdgeParams(rng.dirichlet(np.ones(card)), rng.uniform(0.1, 0.9, card)))
    return plan.with_all_params(out)


def fit(name, method, schedule, start):
    net, ev, nprime, plan, evp = build(name)
    if start == "warm":
        plan = warm_params(nprime, plan, 31)
    cfg = IterationConfig(
        method=method, schedule=schedule, max_iterations=MAX_ITERATIONS,
        initialization="plan" if start == "warm" else "uniform",
    )
    return run(nprime, plan, evp, cfg, reference=(net, ev))


def _hex(x):
    return None if x is None else float(x).hex()


def encode(plan, report, trace):
    return {
        "plan": [[[_hex(v) for v in p.pm], [_hex(v) for v in p.se]] for p in plan.params],
        "residuals": [_hex(r) for r in report.residuals],
        "iterations": report.iterations,
        "converged": report.converged,
        "trace": [[s.sweep, _hex(s.residual), _hex(s.kl_bound)] for s in trace],
    }


def case_ids():
    return [
        f"{name}/{method}/{schedule}/{start}"
        for name in NETWORKS
        for method in METHODS
        for schedule in SCHEDULES
        for start in STARTS
    ]


def record():
    return {case: encode(*fit(*case.split("/"))) for case in case_ids()}


def dump(cases) -> str:
    """The fixture's text: one case per line."""
    lines = [f"{json.dumps(case)}: {json.dumps(bits)}" for case, bits in cases.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(record()))
    print(f"wrote {GOLDEN}")
