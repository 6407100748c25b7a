"""Exact combinatorial depth calculus for terminal threefold singularities.

The package tracks how the depth invariant (minimal length of a chain of
depth-one extractions down to a Gorenstein model) behaves under weighted
blow-ups, divisorial contractions, and flips: baskets and their aw /
sigma / Xi invariants, the cA/r germ depth formula with an independent
exhaustive search, chi-difference thresholds for contraction cases,
extremal-neighborhood intersection numbers, alternating half-weight
blow-up chains, and rule-checked factorization traces.

``import wresolve`` loads no layer: each public name below, and each layer
module, is imported on first access (PEP 562), so a one-shot command pays
only for the layers it calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the layer module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "baskets": (
            "Basket", "BasketEntry", "CyclicQuotient", "TerminalClass", "aw",
            "basket_of", "normalize_cyclic", "sigma", "xi",
        ),
        "chains": (
            "O3CaseA", "O3CaseB", "beta_k", "beta_k_b", "chain_simulate",
            "chain_stages_b", "chain_weights", "check_constraints", "delta_k",
            "depth_identity", "gamma_k", "gamma_k_b", "nonnegativity_check",
        ),
        "errors": (
            "ConstraintViolation", "InvalidCaseData", "InvalidParameter",
            "InvalidSplit", "NotTerminalForm", "RuleViolation", "SchemaError",
            "SearchLimitExceeded", "WresolveError",
        ),
        "germs": (
            "CARGerm", "DepthBound", "admissible_splits", "axial_weight",
            "blowup_step", "cyclic_depth_search", "depth_bound", "depth_formula",
            "depth_search", "nu", "resolution_tree", "tvalue",
        ),
        "neighborhoods": (
            "ENPoint", "ExceptionalIAIACase", "IACase", "IAIAIIICase", "ICCase",
            "IIBCase", "KeyVerdict", "SemistableIAIACase", "canonical_degree",
            "cf_intersection", "key_check", "minimal_r1",
        ),
        "rationals": ("format_rat", "parse_rat"),
        "riemannroch": (
            "ContractionCase", "aw_upper_bound", "case_depth_check", "cd2_basket",
            "delta_chi", "rr_correction",
        ),
        "traces": (
            "FactorizationTrace", "TraceStep", "TraceVerdict",
            "induction_certificate", "validate_trace",
        ),
    }.items()
    for name in names
}
_LAYERS = frozenset(_EXPORTS.values())

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _LAYERS:
        # importing a submodule binds it in this module's globals
        return import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
