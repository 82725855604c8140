"""MAP on an edge-deleted network, and quality against the exact optimum.

The approximate instantiation is found by exact MAP on the approximate
network under the augmented evidence.  Quality is always measured in the
source network: p = Pr(m, e) for the approximate solution m, against the
true optimum q, so p/q = 1 exactly when m is an exact MAP solution.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine
from .deletion import DeletionPlan, apply_params
from .engine import WIDTH_CAP_DEFAULT
from .model import CapacityError, Evidence, ModelError, Network


@dataclass(frozen=True)
class MapResult:
    assignment: dict[str, str]
    value: float
    best_value: float | None
    ratio: float | None


def approximate_map(
    nprime: Network,
    plan: DeletionPlan,
    evp: Evidence,
    map_vars,
    *,
    width_cap: int = WIDTH_CAP_DEFAULT,
) -> tuple[dict[str, str], float]:
    """MAP instantiation of source variables in the approximate network.

    Returns (assignment over map_vars, Pr'(m, e')).  Raises CapacityError if
    even the approximate network's constrained width exceeds the cap, which
    signals that more edges should be deleted.
    """
    aux = nprime.auxiliary_names()
    map_vars = list(map_vars)
    for name in map_vars:
        nprime.var(name)
        if name in aux:
            raise ModelError(f"{name!r} is an auxiliary variable, not a source variable")
    assignment, value = engine.exact_map(
        apply_params(nprime, plan), evp, map_vars, width_cap=width_cap
    )
    return {k: assignment[k] for k in map_vars}, value


def map_quality(
    net: Network,
    ev: Evidence,
    assignment: dict[str, str],
    map_vars,
    *,
    width_cap: int = WIDTH_CAP_DEFAULT,
) -> MapResult:
    """Score an instantiation against the exact MAP optimum of ``net``.

    p = Pr(assignment, ev) is always evaluated in ``net``, read off a
    jointree with the assignment added to the evidence.  When the exact
    optimum q is not computable within the width cap, it (and the ratio) is
    omitted; a zero q leaves the ratio undefined.
    """
    map_vars = list(map_vars)
    missing = [v for v in map_vars if v not in assignment]
    if missing:
        raise ModelError(f"assignment misses MAP variables: {missing}")
    joint_ev = ev.with_added({v: assignment[v] for v in map_vars})
    p = engine.derivatives(net, joint_ev, (), width_cap).pr_e
    best = None
    ratio = None
    try:
        _, best = engine.exact_map(net, ev, map_vars, width_cap=width_cap)
    except CapacityError:
        best = None
    if best is not None and best > 0:
        ratio = p / best
        if 1.0 < ratio <= 1.0 + 1e-9:
            # p <= q is guaranteed; shave pure roundoff overshoot
            ratio = 1.0
    return MapResult(assignment=dict(assignment), value=p, best_value=best, ratio=ratio)


def approximate_map_quality(
    aug: Network,
    nprime: Network,
    plan: DeletionPlan,
    ev: Evidence,
    evp: Evidence,
    map_vars,
    *,
    width_cap: int = WIDTH_CAP_DEFAULT,
) -> MapResult:
    """End to end: approximate MAP on N', scored in the source network."""
    assignment, _ = approximate_map(nprime, plan, evp, map_vars, width_cap=width_cap)
    return map_quality(aug, ev, assignment, map_vars, width_cap=width_cap)


def default_map_vars(net: Network, ev: Evidence) -> list[str]:
    """Unobserved root variables: the fallback MAP query set."""
    return [n for n in net.roots() if n not in ev]
