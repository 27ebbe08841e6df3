"""Contextual probability toolkit.

Concepts are modeled as states over exemplar bases that change under
context; two concepts can be entangled along a compatibility relation.
Correlation tables from such scenarios are scored against the Bell
functional, tested for classical realizability, and classified by how far
they sit above the classical and tensor-model ceilings. A small latent
semantic space module rounds out the text-side demos.

Every name in ``__all__`` is imported, with its submodule, on first use
(PEP 562), so ``import contextprob`` loads no submodule and no numpy.
"""

__version__ = "0.1.0"

import sys

#: Each submodule and the names it exports, in the order of ``__all__``.
_EXPORTS = {
    "_tolerance": ("DEFAULT_TOL",),
    "hilbert": (
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
    ),
    "concepts": (
        "RatingTable",
        "ContextDistribution",
        "parse_ratings",
        "load_ratings",
        "context_distribution",
        "context_state",
        "typicality",
        "rank_exemplars",
    ),
    "entangle": (
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
    ),
    "bell": (
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
    ),
    "polytope": (
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
    ),
    "semspace": (
        "TermDocMatrix",
        "SemanticSpace",
        "build_matrix",
        "svd_truncate",
        "similarity",
        "bow_vector",
        "order_representation",
        "parse_corpus",
        "load_corpus",
    ),
    "fixtures": ("fixture_names", "fixture_path"),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
#: Public submodules, which ``contextprob.<name>`` also imports on first use.
_SUBMODULES = ("hilbert", "concepts", "entangle", "bell", "polytope", "semspace", "cli", "fixtures")


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def _submodule(name: str):
    # __import__ rather than importlib.import_module, so that
    # ``python -X importtime`` lists the submodule too.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
