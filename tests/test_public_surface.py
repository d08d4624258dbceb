"""The names ``viilattice`` exports, pinned: adding or removing one is a
library contract change and edits this set on purpose."""

import inspect
import types

import viilattice
from viilattice import curves, lattice, nac

PUBLIC_NAMES = {
    # curves
    "CURVE_KINDS", "DEFINITE", "ELLIPTIC", "ENOKI_CLASS", "INOUE_HIRZEBRUCH",
    "INTERMEDIATE", "NEITHER", "NODAL_RATIONAL", "OUT_OF_RANGE", "SEMIDEFINITE",
    "SMOOTH_RATIONAL", "Branch", "Curve", "CurveConfig", "CycleRecord",
    "SigmaClassification", "ValidationIssue", "ValidationReport",
    "adjunction_degree", "find_cycles", "intersection_matrix",
    "is_negative_definite", "require_valid", "sigma_classify", "validate",
    # configio
    "config_from_doc", "config_from_text", "config_to_doc", "config_to_text",
    "load_config",
    # errors
    "ConfigParseError", "DimensionMismatch", "DomainError", "EnumerationCapError",
    "InvalidConfigError", "StructureError",
    # families
    "enoki_cycle_config", "singrat_config",
    # germs
    "Condition", "EnokiGerm", "EnokiRealization", "ExactComplex", "GermVerdict",
    "HopfGermPrimary", "HopfGermStrong", "is_contracting", "is_parabolic",
    "realize_enoki", "validate_primary", "validate_strong",
    # homology
    "DEFAULT_CAP", "ConstraintResult", "Representation", "VerificationReport",
    "canonical_form", "enumerate_representations", "verify_representation",
    # lattice
    "FullCycle", "LatticeClass", "NormalForm", "Other", "TypeA", "TypeB", "add",
    "canonical_class", "classify_normal_form", "full_cycle_class", "intersect",
    "type_a_class", "type_b_class",
    # linalg
    "determinant", "leading_principal_minors", "solve_exact",
    # nac
    "CycleStructure", "NacSolution", "NacStructureReport", "NoSolution",
    "SingratClosedForm", "StarCheck", "StarRecurrenceReport", "index_of",
    "nac_structure_report", "singrat_closed_form", "solve_nac",
    "verify_star_recurrence",
    # selftest
    "SuiteResult", "run_all", "run_suite",
}

# lattice helpers no module used; CHANGES.md gives each one's replacement
REMOVED_NAMES = (
    "basis_class",
    "zero_class",
    "negate",
    "realize_normal_form",
    "class_geometry",
    "ClassGeometry",
)

# the integer solution type and its entry points, folded into NacSolution and
# solve_nac; CHANGES.md gives each one's replacement
REMOVED_NAC_NAMES = ("ScaledNac", "solve_scaled", "cycle_structures")

# surface no caller used: a curves helper, and a parameter nothing passed;
# CHANGES.md gives each one's replacement
REMOVED_CURVES_NAMES = ("partition_curves",)


def test_exported_names_are_pinned():
    exported = {
        name
        for name in viilattice.__all__
        if not isinstance(getattr(viilattice, name), types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_removed_lattice_helpers_stay_gone():
    for name in REMOVED_NAMES:
        assert not hasattr(viilattice, name), name
        assert not hasattr(lattice, name), name


def test_removed_nac_names_stay_gone():
    for name in REMOVED_NAC_NAMES:
        assert not hasattr(viilattice, name), name
        assert not hasattr(nac, name), name


def test_removed_curves_surface_stays_gone():
    for name in REMOVED_CURVES_NAMES:
        assert not hasattr(viilattice, name), name
        assert not hasattr(curves, name), name
    assert list(inspect.signature(lattice.type_a_class).parameters) == ["n", "base", "blowups"]
