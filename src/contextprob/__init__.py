"""Contextual probability toolkit.

Concepts are modeled as states over exemplar bases that change under
context; two concepts can be entangled along a compatibility relation.
Correlation tables from such scenarios are scored against the Bell
functional, tested for classical realizability, and classified by how far
they sit above the classical and tensor-model ceilings. A small latent
semantic space module rounds out the text-side demos.
"""

__version__ = "0.1.0"

from ._tolerance import DEFAULT_TOL
from .hilbert import (
    Observable,
    Projector,
    StateVector,
    basis_state,
    born_prob,
    collapse,
    expectation,
    identity_projector,
    inner,
    normalize,
    sign_projectors,
    tensor,
)
from .concepts import (
    ContextDistribution,
    RatingTable,
    context_distribution,
    context_state,
    load_ratings,
    parse_ratings,
    rank_exemplars,
    typicality,
)
from .entangle import (
    CompatibilityRelation,
    EntangledState,
    combine,
    conditional_collapse,
    full_relation,
    guppy_gap,
    joint_expectation,
    load_relation,
    marginal,
    parse_relation,
)
from .bell import (
    CHSH_FORMS,
    CorrelationTable,
    PetFoodScenario,
    ProductEqualityResult,
    SweepPoint,
    bell_value,
    bell_value_all_forms,
    is_violated,
    load_scenario,
    pet_food_table,
    product_equality_check,
    sweep_mixing,
)
from .polytope import (
    CLASSICAL,
    QUANTUM_ACHIEVABLE,
    SUPRA_QUANTUM,
    TSIRELSON_BOUND,
    DeterministicStrategy,
    RealizabilityResult,
    Witness,
    classify,
    enumerate_strategies,
    is_kolmogorovian,
    primary_violated,
    realizable,
)
from .semspace import (
    SemanticSpace,
    TermDocMatrix,
    bow_vector,
    build_matrix,
    load_corpus,
    order_representation,
    parse_corpus,
    similarity,
    svd_truncate,
)
from .fixtures import fixture_names, fixture_path

__all__ = [
    "__version__",
    # tolerances
    "DEFAULT_TOL",
    # hilbert
    "StateVector",
    "Observable",
    "Projector",
    "basis_state",
    "born_prob",
    "collapse",
    "expectation",
    "identity_projector",
    "inner",
    "normalize",
    "sign_projectors",
    "tensor",
    # concepts
    "RatingTable",
    "ContextDistribution",
    "parse_ratings",
    "load_ratings",
    "context_distribution",
    "context_state",
    "typicality",
    "rank_exemplars",
    # entangle
    "CompatibilityRelation",
    "EntangledState",
    "combine",
    "conditional_collapse",
    "full_relation",
    "guppy_gap",
    "joint_expectation",
    "load_relation",
    "marginal",
    "parse_relation",
    # bell
    "CHSH_FORMS",
    "CorrelationTable",
    "PetFoodScenario",
    "ProductEqualityResult",
    "SweepPoint",
    "bell_value",
    "bell_value_all_forms",
    "is_violated",
    "load_scenario",
    "pet_food_table",
    "product_equality_check",
    "sweep_mixing",
    # polytope
    "CLASSICAL",
    "QUANTUM_ACHIEVABLE",
    "SUPRA_QUANTUM",
    "TSIRELSON_BOUND",
    "DeterministicStrategy",
    "RealizabilityResult",
    "Witness",
    "classify",
    "enumerate_strategies",
    "is_kolmogorovian",
    "primary_violated",
    "realizable",
    # semspace
    "TermDocMatrix",
    "SemanticSpace",
    "build_matrix",
    "svd_truncate",
    "similarity",
    "bow_vector",
    "order_representation",
    "parse_corpus",
    "load_corpus",
    # fixtures
    "fixture_names",
    "fixture_path",
]
