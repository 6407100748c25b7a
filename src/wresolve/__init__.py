"""Exact combinatorial depth calculus for terminal threefold singularities.

The package tracks how the depth invariant (minimal length of a chain of
depth-one extractions down to a Gorenstein model) behaves under weighted
blow-ups, divisorial contractions, and flips: baskets and their aw /
sigma / Xi invariants, the cA/r germ depth formula with an independent
exhaustive search, chi-difference thresholds for contraction cases,
extremal-neighborhood intersection numbers, alternating half-weight
blow-up chains, and rule-checked factorization traces.
"""

from .baskets import (
    Basket,
    BasketEntry,
    CyclicQuotient,
    TerminalClass,
    aw,
    basket_of,
    normalize_cyclic,
    sigma,
    xi,
)
from .chains import (
    O3CaseA,
    O3CaseB,
    beta_k,
    beta_k_b,
    chain_simulate,
    chain_stages_b,
    chain_weights,
    check_constraints,
    delta_k,
    depth_identity,
    gamma_k,
    gamma_k_b,
    nonnegativity_check,
)
from .errors import (
    CaseViolation,
    ConstraintViolation,
    InvalidCaseData,
    InvalidParameter,
    InvalidSplit,
    NotTerminalForm,
    RuleViolation,
    SchemaError,
    SearchLimitExceeded,
    WeightMismatch,
    WresolveError,
)
from .germs import (
    CARGerm,
    DepthBound,
    admissible_splits,
    axial_weight,
    blowup_step,
    cyclic_depth_search,
    depth_bound,
    depth_formula,
    depth_search,
    nu,
    resolution_tree,
    tvalue,
)
from .neighborhoods import (
    ENPoint,
    ExceptionalIAIACase,
    IACase,
    IAIAIIICase,
    ICCase,
    IIBCase,
    KeyVerdict,
    SemistableIAIACase,
    canonical_degree,
    cf_intersection,
    key_check,
    minimal_r1,
)
from .rationals import format_rat, parse_rat
from .riemannroch import (
    ContractionCase,
    aw_upper_bound,
    case_depth_check,
    cd2_basket,
    delta_chi,
    rr_correction,
)
from .traces import (
    FactorizationTrace,
    TraceStep,
    TraceVerdict,
    induction_certificate,
    validate_trace,
)

__version__ = "0.1.0"
