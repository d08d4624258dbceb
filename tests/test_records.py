"""The result records are ``typing.NamedTuple`` classes.  Each keeps the field
names, field order, defaults and repr text of the frozen dataclass it was,
and stays immutable and hashable.  The inputs, the normal forms,
``NacSolution`` and ``cli._Records`` are plain classes on one immutable base,
``curves._Frozen``: each keeps the same of its dataclass, never equals a
tuple, and pickles, copies and replaces through its constructor."""

import copy
import dataclasses
import pickle
import sys
from fractions import Fraction

import pytest

from viilattice import cli, curves, germs, homology, lattice, nac, selftest
from viilattice.curves import Curve, CurveConfig
from viilattice.germs import EnokiGerm, ExactComplex, realize_enoki
from viilattice.lattice import LatticeClass, TypeA, TypeB

# type, field names, defaults, a sample, and the sample's repr; the names,
# defaults and repr text are those the dataclasses had
RECORDS = [
    (
        curves.ValidationIssue,
        ("message", "curve_id"),
        {"curve_id": None},
        lambda: curves.ValidationIssue("b2 must be at least 1"),
        "ValidationIssue(message='b2 must be at least 1', curve_id=None)",
    ),
    (
        curves.ValidationReport,
        ("issues",),
        {},
        lambda: curves.ValidationReport((curves.ValidationIssue("too negative", 3),)),
        "ValidationReport(issues=(ValidationIssue(message='too negative', curve_id=3),))",
    ),
    (
        curves.Branch,
        ("root_id", "member_ids"),
        {},
        lambda: curves.Branch(2, (2, 3)),
        "Branch(root_id=2, member_ids=(2, 3))",
    ),
    (
        curves.CycleRecord,
        ("member_ids", "length", "branches"),
        {"branches": ()},
        lambda: curves.CycleRecord((0, 1), 2, (curves.Branch(1, (4,)),)),
        "CycleRecord(member_ids=(0, 1), length=2, branches=(Branch(root_id=1, member_ids=(4,)),))",
    ),
    (
        curves.SigmaClassification,
        ("sigma", "verdict", "ih_parity", "torsion_crosscheck", "notes"),
        {"ih_parity": None, "torsion_crosscheck": None, "notes": ()},
        lambda: curves.SigmaClassification(4, curves.ENOKI_CLASS),
        "SigmaClassification(sigma=4, verdict='enoki_class', ih_parity=None,"
        " torsion_crosscheck=None, notes=())",
    ),
    (
        germs.Condition,
        ("name", "ok", "detail", "gating"),
        {"gating": True},
        lambda: germs.Condition("contracting", True, "|a|^2 = 1/4 < 1"),
        "Condition(name='contracting', ok=True, detail='|a|^2 = 1/4 < 1', gating=True)",
    ),
    (
        germs.GermVerdict,
        ("valid", "conditions", "invariants"),
        {"invariants": ()},
        lambda: germs.GermVerdict(
            False, (germs.Condition("resonance", False, "s != 0", False),), (("m", "2"),)
        ),
        "GermVerdict(valid=False, conditions=(Condition(name='resonance', ok=False,"
        " detail='s != 0', gating=False),), invariants=(('m', '2'),))",
    ),
    (
        germs.EnokiRealization,
        ("config", "parabolic", "has_nac", "trace_modulus_squared"),
        {},
        lambda: realize_enoki(EnokiGerm(Fraction(1, 2), 1)),
        "EnokiRealization(config=CurveConfig(b2=1, curves=(Curve(id=0, kind='nodal_rational',"
        " self_int=0), Curve(id=1, kind='elliptic', self_int=-1)), intersections=()),"
        " parabolic=True, has_nac=True, trace_modulus_squared=Fraction(1, 4))",
    ),
    (
        homology.Representation,
        ("classes", "odd_ih"),
        {"odd_ih": False},
        lambda: homology.Representation(
            (LatticeClass((1, -1)), LatticeClass((0, 1), True)), True
        ),
        "Representation(classes=(LatticeClass(coeffs=(1, -1), torsion2=False),"
        " LatticeClass(coeffs=(0, 1), torsion2=True)), odd_ih=True)",
    ),
    (
        homology.ConstraintResult,
        ("name", "ok", "detail"),
        {},
        lambda: homology.ConstraintResult("self-intersection", True, ""),
        "ConstraintResult(name='self-intersection', ok=True, detail='')",
    ),
    (
        homology.VerificationReport,
        ("results",),
        {},
        lambda: homology.VerificationReport((homology.ConstraintResult("pairing", False, "0,1"),)),
        "VerificationReport(results=(ConstraintResult(name='pairing', ok=False, detail='0,1'),))",
    ),
    (
        nac.NoSolution,
        ("reason",),
        {},
        lambda: nac.NoSolution("singular"),
        "NoSolution(reason='singular')",
    ),
    (
        nac.SingratClosedForm,
        ("coeffs", "det", "consistent", "detail"),
        {},
        lambda: nac.SingratClosedForm((Fraction(1, 2), Fraction(1)), -3, True, "ok"),
        "SingratClosedForm(coeffs=(Fraction(1, 2), Fraction(1, 1)), det=-3, consistent=True,"
        " detail='ok')",
    ),
    (
        nac.StarCheck,
        ("curve_id", "lhs", "rhs", "ok"),
        {},
        lambda: nac.StarCheck(0, Fraction(3, 2), Fraction(3, 2), True),
        "StarCheck(curve_id=0, lhs=Fraction(3, 2), rhs=Fraction(3, 2), ok=True)",
    ),
    (
        nac.StarRecurrenceReport,
        ("checks",),
        {},
        lambda: nac.StarRecurrenceReport(()),
        "StarRecurrenceReport(checks=())",
    ),
    (
        nac.CycleStructure,
        ("member_ids", "min_coeff", "max_coeff", "unit_cycle", "max_at_branch_root", "violations"),
        {},
        lambda: nac.CycleStructure((0, 1), Fraction(1, 2), Fraction(1), False, None, ("min",)),
        "CycleStructure(member_ids=(0, 1), min_coeff=Fraction(1, 2), max_coeff=Fraction(1, 1),"
        " unit_cycle=False, max_at_branch_root=None, violations=('min',))",
    ),
    (
        nac.NacStructureReport,
        ("cycles",),
        {},
        lambda: nac.NacStructureReport(()),
        "NacStructureReport(cycles=())",
    ),
    (
        selftest.SuiteResult,
        ("name", "passed", "checks", "detail"),
        {},
        lambda: selftest.SuiteResult("singrat-determinant-grid", True, 12, ""),
        "SuiteResult(name='singrat-determinant-grid', passed=True, checks=12, detail='')",
    ),
]

# type, field names, defaults, a sample, and the sample's repr; the names
# (of the constructor's parameters), defaults and repr text are those the
# frozen dataclass had, each kept for the reason given where it is declared
FROZEN = [
    (
        Curve,
        ("id", "kind", "self_int"),
        {},
        lambda: Curve(1, "smooth_rational", -2),
        "Curve(id=1, kind='smooth_rational', self_int=-2)",
    ),
    (
        CurveConfig,
        ("b2", "curves", "intersections"),
        {"intersections": ()},
        lambda: CurveConfig(
            2, (Curve(0, "smooth_rational", -3), Curve(1, "smooth_rational", -3)), ((1, 0, 2),)
        ),
        "CurveConfig(b2=2, curves=(Curve(id=0, kind='smooth_rational', self_int=-3),"
        " Curve(id=1, kind='smooth_rational', self_int=-3)), intersections=((0, 1, 2),))",
    ),
    (
        nac.NacSolution,
        ("m", "scaled", "index", "effective", "square", "parabolic"),
        {"parabolic": False},
        lambda: nac.NacSolution(2, (3, 2, 1), 2, True, -3),
        "NacSolution(m=2, scaled=(3, 2, 1), index=2, effective=True, square=-3, parabolic=False)",
    ),
    (
        LatticeClass,
        ("coeffs", "torsion2"),
        {"torsion2": False},
        lambda: LatticeClass((1, -1), torsion2=True),
        "LatticeClass(coeffs=(1, -1), torsion2=True)",
    ),
    (
        ExactComplex,
        ("re", "im"),
        {"im": Fraction(0)},
        lambda: ExactComplex(Fraction(1, 2), 3),
        "ExactComplex(re=Fraction(1, 2), im=Fraction(3, 1))",
    ),
    (
        germs.HopfGermStrong,
        ("alpha", "a", "s", "m"),
        {},
        lambda: germs.HopfGermStrong(Fraction(1, 2), Fraction(1, 8), 0, 1),
        "HopfGermStrong(alpha=Fraction(1, 2), a=Fraction(1, 8), s=0, m=1)",
    ),
    (
        germs.HopfGermPrimary,
        ("alpha1", "alpha2", "s", "m"),
        {},
        lambda: germs.HopfGermPrimary(Fraction(1, 3), ExactComplex(0, Fraction(1, 2)), 1, 2),
        "HopfGermPrimary(alpha1=Fraction(1, 3), alpha2=ExactComplex(re=Fraction(0, 1),"
        " im=Fraction(1, 2)), s=1, m=2)",
    ),
    (
        EnokiGerm,
        ("t", "n", "a_coeffs"),
        {"a_coeffs": ()},
        lambda: EnokiGerm(Fraction(1, 2), 3, [0, Fraction(1, 3)]),
        "EnokiGerm(t=Fraction(1, 2), n=3, a_coeffs=(0, Fraction(1, 3)))",
    ),
    (
        TypeA,
        ("base", "blowups"),
        {},
        lambda: TypeA(0, frozenset({1, 2})),
        "TypeA(base=0, blowups=frozenset({1, 2}))",
    ),
    (
        TypeB,
        ("base", "blowups"),
        {},
        lambda: TypeB(1, frozenset()),
        "TypeB(base=1, blowups=frozenset())",
    ),
    (lattice.FullCycle, ("start",), {}, lambda: lattice.FullCycle(2), "FullCycle(start=2)"),
    (lattice.Other, (), {}, lattice.Other, "Other()"),
    (
        cli._Records,
        ("keys", "rows"),
        {},
        lambda: cli._Records(("curve", "ok"), ((0, True),)),
        "_Records(keys=('curve', 'ok'), rows=((0, True),))",
    ),
]


@pytest.mark.parametrize(
    "record_type, fields, defaults, build, text",
    RECORDS,
    ids=[record[0].__name__ for record in RECORDS],
)
def test_record_keeps_the_dataclass_fields_and_repr(record_type, fields, defaults, build, text):
    assert issubclass(record_type, tuple) and not dataclasses.is_dataclass(record_type)
    assert record_type._fields == fields
    assert record_type._field_defaults == defaults
    record = build()
    assert type(record) is record_type
    assert repr(record) == text
    first = getattr(record, fields[0])
    with pytest.raises(AttributeError):
        setattr(record, fields[0], first)
    assert record._replace(**{fields[0]: first}) == record
    again = build()
    assert again == record and hash(again) == hash(record)
    # the labelled contract: a record is the tuple of its values
    assert record == tuple(record) and len(record) == len(fields)


@pytest.mark.parametrize(
    "frozen_type, fields, defaults, build, text", FROZEN, ids=[row[0].__name__ for row in FROZEN]
)
def test_frozen_class_keeps_the_dataclass_contract(frozen_type, fields, defaults, build, text):
    assert not issubclass(frozen_type, tuple) and not dataclasses.is_dataclass(frozen_type)
    assert frozen_type._fields == fields
    sample = build()
    assert type(sample) is frozen_type
    assert repr(sample) == text
    values = {name: getattr(sample, name) for name in fields}
    assert frozen_type(**values) == sample
    bare = frozen_type(**{k: v for k, v in values.items() if k not in defaults})
    assert {name: getattr(bare, name) for name in defaults} == defaults
    again = build()
    assert again == sample and hash(again) == hash(sample)
    assert sample != tuple(values.values())
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(sample, name, values[name])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(sample, name)
    # a CurveConfig's caches are filled first: a copy computes its own
    cached = (sample.elimination, sample.cycles) if frozen_type is CurveConfig else None
    for twin in (pickle.loads(pickle.dumps(sample)), copy.deepcopy(sample)):
        assert type(twin) is frozen_type and twin == sample
        if cached:
            assert (twin.elimination, twin.cycles) == cached
    if fields:
        assert sample._replace(**{fields[0]: values[fields[0]]}) == sample
        if sys.version_info >= (3, 13):
            assert copy.replace(sample, **{fields[-1]: values[fields[-1]]}) == sample


def test_normal_forms_of_two_types_never_compare_equal():
    # the reason TypeA and TypeB are not tuples: as tuples these would be equal
    assert TypeA(0, frozenset()) != TypeB(0, frozenset())
