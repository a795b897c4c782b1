"""Conditional Chisini means and certainty equivalents on finite
probability spaces, with state-dependent utilities, preference-axiom
audits and constructive utility extraction/repair.

Each public name is listed once, in ``_EXPORTS``, with the submodule that
defines it.  ``import chisini`` loads no submodule: a name is imported on
first access (PEP 562), so code that never touches the audits, the forge
or the certainty-equivalent audit never imports numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "AuditReport": "reports",
    "CheckResult": "reports",
    "errors": "errors",
    "Curve": "curves",
    "ExponentialCurve": "curves",
    "LinearCurve": "curves",
    "MixtureCurve": "curves",
    "PiecewiseLinearCurve": "curves",
    "PowerCurve": "curves",
    "Act": "spaces",
    "EventSet": "spaces",
    "FiniteSpace": "spaces",
    "PartitionAlgebra": "spaces",
    "conditional_expectation": "spaces",
    "equal_up_to_null": "spaces",
    "is_null_event": "spaces",
    "paste": "spaces",
    "refine": "spaces",
    "AdditiveRepresentation": "utility",
    "PreferenceFunctional": "utility",
    "ProjectedUtility": "utility",
    "StateUtility": "utility",
    "ValidationReport": "utility",
    "ensure_regular": "utility",
    "generalized_inverse": "utility",
    "image_interval": "utility",
    "project_utility": "utility",
    "validate_regular": "utility",
    "ChisiniSolution": "conditional",
    "ConditionabilityResult": "conditional",
    "chisini_mean": "conditional",
    "taking_out": "conditional",
    "uniqueness_check": "conditional",
    "verify_conditionable": "conditional",
    "ExpectationFamily": "family",
    "audit_certainty_equivalent": "family",
    "check_fixpoint_on_measurable": "family",
    "check_locality": "family",
    "check_tower": "family",
    "Witness": "audit",
    "check_conditionable_all_events": "audit",
    "check_conditionable_on_event": "audit",
    "check_strict_monotonicity": "audit",
    "check_sure_thing": "audit",
    "choquet_functional": "audit",
    "equivalence_harness": "audit",
    "expected_utility_functional": "audit",
    "grid_table_functional": "audit",
    "DyadicGrid": "forge",
    "DyadicGridUtility": "forge",
    "JumpReport": "forge",
    "SetFunctionalOracle": "forge",
    "build_u_plus": "forge",
    "detect_jumps": "forge",
    "evaluate_envelope": "forge",
    "extract_utility": "forge",
    "repair_continuous": "forge",
    "validate_grid_regularity": "forge",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import a public name, or one of its submodules, on first access."""
    if name in _EXPORTS.values():
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _EXPORTS:
        module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
