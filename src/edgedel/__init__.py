"""Approximate inference in discrete Bayesian networks by edge deletion.

Deleting an edge U -> X removes a dependency; the loss is compensated by a
clone parent U' with prior ``pm`` and an observed soft-evidence child S' of U
with likelihood row ``se``.  This package provides the exact engine, the
deletion transforms, two fixed-point parametrization rules (ed-bp / ed-kl),
divergence measurement, an edge-scoring heuristic, MAP approximation, and a
command-line experiment harness.
"""

from .deletion import (
    DeletionPlan,
    EdgeParams,
    apply_params,
    approximate_network,
    augment,
    augmented_evidence,
    deleted_records,
    recover_marginals,
)
from .divergence import (
    EdgeScore,
    KlBreakdown,
    exact_kl,
    kl_bound,
    mutual_information_scores,
    score_edges,
    single_edge_evaluate,
)
from .engine import (
    EliminationOrder,
    EngineState,
    compile,
    constrained_order,
    cpt_derivatives,
    exact_map,
    min_fill_order,
    pairwise_marginal,
    posterior_marginal,
)
from .mapapprox import MapResult, approximate_map, approximate_map_quality, map_quality
from .model import (
    CapacityError,
    Cpt,
    DegenerateUpdateError,
    EdgeRecord,
    Evidence,
    Factor,
    InconsistentEvidenceError,
    ModelError,
    Network,
    Variable,
    Violation,
    enumerate_joint,
    validate_network,
)
from .netio import (
    FormatError,
    ReportRow,
    parse_evidence,
    parse_hugin_subset,
    parse_network,
    parse_plan,
    serialize_evidence,
    serialize_network,
    serialize_plan,
    write_report,
)
from .parametrize import (
    ConditionGaps,
    FixedPointReport,
    IterationConfig,
    check_conditions,
    run,
)

__version__ = "0.1.0"
