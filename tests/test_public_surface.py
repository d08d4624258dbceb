"""The names ``viilattice`` exports, pinned: adding or removing one is a
library contract change and edits this set on purpose.  Also the modules
``import viilattice.cli`` loads: every one the benchmark's tracer wraps,
and neither ``selftest``, ``families`` nor ``argparse``."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import viilattice
from viilattice import curves, lattice, nac

ROOT = Path(__file__).resolve().parents[1]

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
    # families; gss_config added with the blow-up-word corpus
    "enoki_cycle_config", "gss_config", "singrat_config",
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

# what "from viilattice import *" binds: the public names and the submodules
STAR_NAMES = PUBLIC_NAMES | {
    "configio", "curves", "errors", "families", "germs", "homology", "lattice",
    "linalg", "nac", "selftest",
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


def _traced_modules() -> set[str]:
    """The modules named in perfbench/tracer.py's TARGETS, which it looks up
    in sys.modules right after importing viilattice.cli."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {module for module, _ in tracer.TARGETS}


def test_cli_import_loads_the_traced_modules_and_not_selftest():
    # the modules the import adds, so that one a site hook preloads is not counted
    probe = (
        "import json, sys; before = set(sys.modules); import viilattice.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "viilattice.selftest" not in loaded
    # the immutable classes generate no code at start-up
    assert not {"dataclasses", "inspect"} & loaded
    # a plain command line reads its grammar from the command table, and only
    # germ enoki and library callers build a family
    assert not {"argparse", "gettext", "viilattice.families"} & loaded
    traced = _traced_modules()
    assert {"configio", "curves", "linalg", "nac", "homology", "lattice", "germs", "cli"} <= traced
    assert {f"viilattice.{module}" for module in traced} <= loaded


def test_selftest_names_are_the_selftest_objects():
    from viilattice import selftest

    assert viilattice.selftest is selftest
    for name in ("SuiteResult", "run_all", "run_suite"):
        assert getattr(viilattice, name) is getattr(selftest, name)


def test_an_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        viilattice.no_such_name  # noqa: B018
    assert not hasattr(viilattice, "no_such_name")


def test_star_import_binds_the_same_names():
    namespace: dict = {}
    exec("from viilattice import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(viilattice.__all__) == STAR_NAMES
