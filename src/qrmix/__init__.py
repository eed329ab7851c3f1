"""Exact and Monte Carlo verification of mixing and triple-recurrence bounds
on concrete finite quasirandom groups."""

import importlib

from .groups import (
    GroupTable,
    ConjugacyData,
    GroupConstructionError,
    build_group,
    parse_descriptor,
    conjugacy_classes,
)
from .characters import (
    ClassConstants,
    DegreeMultiset,
    CharacterError,
    class_constants,
    character_degrees,
    group_exponent,
    quasirandom_degree,
)
from .actions import (
    ProbabilitySpace,
    Observable,
    ActionTable,
    ActionValidationError,
    SpaceMismatchError,
    build_action,
    cached_action,
    inner,
    invariant_projection,
    koopman_apply,
    random_observable,
)
from .mixing import (
    MixingReport,
    mixing_error,
    mixing_bound_check,
    monte_carlo_mixing_error,
    reduction_identity_check,
)
from .recurrence import (
    RecurrenceReport,
    VectorFamily,
    GramCheck,
    VdcResult,
    PreconditionError,
    triple_product_average,
    triple_recurrence_error,
    case_decomposition,
    correlation_family,
    gram_identity_check,
    vdc_check,
)
from .seeding import derive_seed

__all__ = [
    "GroupTable",
    "ConjugacyData",
    "GroupConstructionError",
    "build_group",
    "parse_descriptor",
    "conjugacy_classes",
    "ClassConstants",
    "DegreeMultiset",
    "CharacterError",
    "class_constants",
    "character_degrees",
    "group_exponent",
    "quasirandom_degree",
    "ProbabilitySpace",
    "Observable",
    "ActionTable",
    "ActionValidationError",
    "SpaceMismatchError",
    "build_action",
    "cached_action",
    "inner",
    "invariant_projection",
    "koopman_apply",
    "random_observable",
    "MixingReport",
    "mixing_error",
    "mixing_bound_check",
    "monte_carlo_mixing_error",
    "reduction_identity_check",
    "RecurrenceReport",
    "VectorFamily",
    "GramCheck",
    "VdcResult",
    "PreconditionError",
    "triple_product_average",
    "triple_recurrence_error",
    "case_decomposition",
    "correlation_family",
    "gram_identity_check",
    "vdc_check",
    "derive_seed",
    "ExperimentConfig",
    "ConfigError",
    "run_sweep",
    "emit_plot_data",
    "run_verify",
]

# sweep and verify (and with them csv, json and hashlib) load on first use:
# the checks above need neither
_LAZY = {
    "ExperimentConfig": "sweep",
    "ConfigError": "sweep",
    "run_sweep": "sweep",
    "emit_plot_data": "sweep",
    "run_verify": "verify",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value
