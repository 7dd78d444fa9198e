"""Entropic uncertainty bounds for chains of projective measurements."""

from .bounds import (
    BoundName,
    BoundReport,
    berta_two_bound,
    build_reports,
    chain_coefficients,
    deutsch_multi_bound,
    deutsch_multi_bound_best_order,
    memory_multi_bound,
    memory_pure_bound,
    mu_multi_bound,
    mu_multi_bound_best_order,
    mu_multi_bound_with_state,
    mu_two_bound,
    scb_max_bound,
    state_dependent_bound,
    weighted_bound,
)
from .core import (
    BipartiteState,
    DensityMatrix,
    MeasurementBasis,
    MeasurementChain,
    PureState,
    bipartite_measurement_channel,
    max_overlap,
    measurement_channel,
    outcome_distribution,
    overlap_table,
    partial_trace,
)
from .entropy import (
    INFINITY,
    conditional_entropy,
    holevo_conditional_entropy,
    measured_conditional_entropy,
    relative_entropy,
    renyi_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .generators import (
    computational_basis,
    maximally_entangled,
    mub_set,
    parametric_d3_chain,
    random_basis,
    random_density_matrix,
)
from .verifier import (
    MinimizationConfig,
    VerificationResult,
    entropy_sum,
    minimize_conditional_entropy_sum,
    minimize_entropy_sum,
    spot_check_inequalities,
)

__version__ = "0.1.0"
