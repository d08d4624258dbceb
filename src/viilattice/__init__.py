"""Exact intersection-lattice invariants of curve configurations on
minimal class-VII surfaces with positive second Betti number.

The package computes, over exact rational arithmetic throughout:

* anticanonical divisor coefficients and the surface index,
* the trichotomy by the total opposite self-intersection sigma,
* admissible homology classes of the curves in an orthogonal basis,
* validity of contracting-germ parameters and the surfaces they produce.
"""

from .curves import (
    CURVE_KINDS,
    DEFINITE,
    ELLIPTIC,
    ENOKI_CLASS,
    INOUE_HIRZEBRUCH,
    INTERMEDIATE,
    NEITHER,
    NODAL_RATIONAL,
    OUT_OF_RANGE,
    SEMIDEFINITE,
    SMOOTH_RATIONAL,
    Branch,
    Curve,
    CurveConfig,
    CycleRecord,
    SigmaClassification,
    ValidationIssue,
    ValidationReport,
    adjunction_degree,
    find_cycles,
    intersection_matrix,
    is_negative_definite,
    require_valid,
    sigma_classify,
    validate,
)
from .configio import (
    config_from_doc,
    config_from_text,
    config_to_doc,
    config_to_text,
    load_config,
)
from .errors import (
    ConfigParseError,
    DimensionMismatch,
    DomainError,
    EnumerationCapError,
    InvalidConfigError,
    StructureError,
)
from .germs import (
    Condition,
    EnokiGerm,
    EnokiRealization,
    ExactComplex,
    GermVerdict,
    HopfGermPrimary,
    HopfGermStrong,
    is_contracting,
    is_parabolic,
    realize_enoki,
    validate_primary,
    validate_strong,
)
from .homology import (
    DEFAULT_CAP,
    ConstraintResult,
    Representation,
    VerificationReport,
    canonical_form,
    enumerate_representations,
    verify_representation,
)
from .lattice import (
    FullCycle,
    LatticeClass,
    NormalForm,
    Other,
    TypeA,
    TypeB,
    add,
    canonical_class,
    classify_normal_form,
    full_cycle_class,
    intersect,
    type_a_class,
    type_b_class,
)
from .linalg import determinant, leading_principal_minors, solve_exact
from .nac import (
    CycleStructure,
    NacSolution,
    NacStructureReport,
    NoSolution,
    SingratClosedForm,
    StarCheck,
    StarRecurrenceReport,
    index_of,
    nac_structure_report,
    singrat_closed_form,
    solve_nac,
    verify_star_recurrence,
)

__version__ = "0.1.0"

# these modules and these names of them load on first use (PEP 562): only
# the selftest command, germ enoki and library callers need them
_LAZY = {
    "families": ("enoki_cycle_config", "gss_config", "singrat_config"),
    "selftest": ("SuiteResult", "run_all", "run_suite"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}
__all__ = sorted([*(n for n in dir() if not n.startswith("_")), *_LAZY, *_LAZY_NAMES])


def __getattr__(name: str):
    module_name = name if name in _LAZY else _LAZY_NAMES.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # not "from . import selftest", whose fromlist probe calls back here
    module = importlib.import_module("." + module_name, __name__)
    # bound here, so that later lookups cost what an eager import's do
    value = globals()[name] = module if name == module_name else getattr(module, name)
    return value
