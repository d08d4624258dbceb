import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viilattice import (
    ELLIPTIC,
    NODAL_RATIONAL,
    SMOOTH_RATIONAL,
    Branch,
    Condition,
    ConfigParseError,
    ConstraintResult,
    Curve,
    CurveConfig,
    CycleRecord,
    CycleStructure,
    DomainError,
    NacSolution,
    NoSolution,
    SigmaClassification,
    StructureError,
    TypeA,
    ValidationIssue,
    VerificationReport,
    classify_normal_form,
    config_from_text,
    config_to_doc,
    config_to_text,
    enoki_cycle_config,
    enumerate_representations,
    find_cycles,
    gss_config,
    intersection_matrix,
    load_config,
    nac_structure_report,
    sigma_classify,
    singrat_config,
    solve_nac,
    validate,
    verify_representation,
    verify_star_recurrence,
)
from viilattice import cli, curves, linalg, selftest
from viilattice.cli import main

from test_curves import meeting_configs
from test_gss import corpus


@pytest.fixture
def singrat3_file(tmp_path):
    path = tmp_path / "singrat3.json"
    path.write_text(config_to_text(singrat_config(3, 2)))
    return str(path)


@pytest.fixture
def enoki3_file(tmp_path):
    path = tmp_path / "enoki3.json"
    path.write_text(config_to_text(enoki_cycle_config(3)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


# --- configuration files --------------------------------------------------


def test_config_round_trip():
    config = singrat_config(4, 3)
    assert config_from_text(config_to_text(config)) == config


def test_config_parse_error_locates_problem():
    with pytest.raises(ConfigParseError, match=r"line 1 column"):
        config_from_text("{nope}")


def test_config_rejects_unknown_keys():
    doc = {"b2": 1, "curves": [], "intersections": [], "extra": 1}
    with pytest.raises(ConfigParseError, match="extra"):
        config_from_text(json.dumps(doc))


def test_config_rejects_boolean_integers():
    doc = {
        "b2": True,
        "curves": [{"id": 0, "kind": "nodal_rational", "self_int": -1}],
        "intersections": [],
    }
    with pytest.raises(ConfigParseError):
        config_from_text(json.dumps(doc))


def test_config_rejects_unknown_kind():
    doc = {
        "b2": 1,
        "curves": [{"id": 0, "kind": "cuspidal", "self_int": -1}],
        "intersections": [],
    }
    with pytest.raises(ConfigParseError, match="kind"):
        config_from_text(json.dumps(doc))


def test_config_rejects_malformed_intersection_rows():
    doc = {
        "b2": 2,
        "curves": [
            {"id": 0, "kind": "nodal_rational", "self_int": -1},
            {"id": 1, "kind": "nodal_rational", "self_int": -1},
        ],
        "intersections": [[0, 1]],
    }
    with pytest.raises(ConfigParseError):
        config_from_text(json.dumps(doc))


# --- classify ---------------------------------------------------------------


def test_classify_worked_instance(capsys, singrat3_file):
    code, doc, _ = run(capsys, ["classify", singrat3_file])
    assert code == 0
    assert doc["definiteness"] == "definite"
    assert doc["sigma_classification"]["sigma"] == 8
    assert doc["sigma_classification"]["verdict"] == "intermediate"
    assert doc["nac"]["coeffs"] == ["3/2", "1", "1/2"]
    assert doc["nac"]["index"] == 2
    assert doc["nac_at_index"]["m"] == 2
    assert doc["nac_at_index"]["coeffs"] == ["3", "2", "1"]
    assert doc["structure"]["cycles"][0]["max_at_branch_root"] is True
    assert doc["star_recurrence"]["ok"] is True


def test_classify_never_renders_decimals(capsys, singrat3_file):
    code, doc, _ = run(capsys, ["classify", singrat3_file])
    blob = json.dumps(doc)
    for coeff in doc["nac"]["coeffs"]:
        assert "." not in coeff
    assert "0.5" not in blob and "1.5" not in blob


def test_classify_is_deterministic(capsys, singrat3_file):
    main(["classify", singrat3_file])
    first = capsys.readouterr().out
    main(["classify", singrat3_file])
    second = capsys.readouterr().out
    assert first == second


def test_classify_invalid_config_reports_and_fails(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "b2": 1,
                "curves": [{"id": 0, "kind": "smooth_rational", "self_int": -1}],
                "intersections": [],
            }
        )
    )
    code, doc, _ = run(capsys, ["classify", str(path)])
    assert code == 1
    assert doc["validation"]["valid"] is False
    assert doc["validation"]["issues"]


def test_classify_missing_file(capsys):
    code, doc, err = run(capsys, ["classify", "/nonexistent/x.json"])
    assert code == 1
    assert doc is None
    assert "No such file" in err


# corruptions of the solver's answer: the first coefficient +1, the last
# coefficient +1/3, and the square of D_m / m (self_int_check at m = 1) -1
CORRUPTIONS = [
    lambda s: s._replace(scaled=(s.scaled[0] + s.index,) + s.scaled[1:]),
    lambda s: s._replace(
        scaled=tuple(3 * v for v in s.scaled[:-1]) + (3 * s.scaled[-1] + s.index,),
        index=3 * s.index,
    ),
    lambda s: s._replace(square=s.square - 1),
]
CORRUPTION_IDS = ["corrupt0", "corrupt1", "corrupt2"]


@pytest.mark.parametrize("command", ["classify", "nac"])
@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=CORRUPTION_IDS)
def test_corrupted_solution_exits_internal(capsys, monkeypatch, singrat3_file, command, corrupt):
    # the report recomputes the square from the matrix, so a solver answer
    # that disagrees with it is an internal inconsistency
    solve = cli.solve_nac

    def corrupted(config, m):
        return corrupt(solve(config, m))

    monkeypatch.setattr(cli, "solve_nac", corrupted)
    code, doc, err = run(capsys, [command, singrat3_file])
    assert code == 2
    assert doc is None
    assert "solver self-intersection check failed" in err


def _count_sections_and_checks(monkeypatch):
    """The levels of the NAC sections classify builds, and the solutions whose
    square it checks, in call order."""
    section, checked = cli._nac_section, cli._checked
    levels, solutions = [], []

    def counted_section(sol, m):
        levels.append(m)
        return section(sol, m)

    def counted_check(config, sol):
        solutions.append(sol)
        return checked(config, sol)

    monkeypatch.setattr(cli, "_nac_section", counted_section)
    monkeypatch.setattr(cli, "_checked", counted_check)
    return levels, solutions


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=CORRUPTION_IDS)
def test_corrupted_level_index_section_exits_internal(capsys, monkeypatch, singrat3_file, corrupt):
    # singrat3 has index 2, so classify would write a level-index section as
    # well; the solution's square is checked once, before either section is
    # built, so a corrupted solution builds neither
    solve = cli.solve_nac
    monkeypatch.setattr(cli, "solve_nac", lambda config, m: corrupt(solve(config, m)))
    levels, solutions = _count_sections_and_checks(monkeypatch)
    code, doc, err = run(capsys, ["classify", singrat3_file])
    assert (levels, len(solutions)) == ([], 1)
    assert code == 2
    assert doc is None
    assert "solver self-intersection check failed" in err


def test_classify_checks_the_square_once_per_solution(capsys, monkeypatch, singrat3_file):
    want = run(capsys, ["classify", singrat3_file])
    levels, solutions = _count_sections_and_checks(monkeypatch)
    assert run(capsys, ["classify", singrat3_file]) == want
    assert want[0] == 0 and "nac_at_index" in want[1]
    assert levels == [1, 2] and len(solutions) == 1


def test_malformed_json_exits_invalid(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code, doc, err = run(capsys, ["classify", str(path)])
    assert code == 1
    assert "invalid JSON" in err


@pytest.mark.parametrize("command", ["classify", "nac", "index", "enumerate"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "not UTF-8 text: invalid start byte at byte 0\n"),
        (b"[" * 100_000, "invalid JSON: nested deeper than the parser can follow\n"),
        (b'{"b2": ' + b"[" * 5000, "invalid JSON: nested deeper than the parser can follow\n"),
    ],
    ids=["not-utf8", "deep-array", "deep-b2"],
)
def test_unreadable_files_are_refused_in_one_line(capsys, tmp_path, command, content, message):
    # both used to escape main as a traceback
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    code = main([command, str(path)])
    assert (code, *capsys.readouterr()) == (1, "", message)


# --- nac and index ------------------------------------------------------------


def test_nac_levels(capsys, singrat3_file):
    code, doc, _ = run(capsys, ["nac", singrat3_file, "--m", "2"])
    assert code == 0
    assert doc["nac"]["status"] == "solved"
    assert doc["nac"]["coeffs"] == ["3", "2", "1"]
    assert doc["structure"]["ok"] is True

    code, _, err = run(capsys, ["nac", singrat3_file, "--m", "0"])
    assert code == 1
    assert "positive" in err


def test_nac_no_solution_is_reported_not_an_error(capsys, enoki3_file):
    code, doc, _ = run(capsys, ["nac", enoki3_file])
    assert code == 0
    assert doc["nac"]["status"] == "no_solution"
    assert "parabolic" in doc["nac"]["reason"]


def test_index_values(capsys, singrat3_file, enoki3_file):
    code, doc, _ = run(capsys, ["index", singrat3_file])
    assert (code, doc["index"]) == (0, 2)
    code, doc, _ = run(capsys, ["index", enoki3_file])
    assert code == 0
    assert doc["index"] is None
    assert doc["reason"]


# --- enumerate ------------------------------------------------------------------


def test_enumerate_worked_instance(capsys, singrat3_file):
    code, doc, _ = run(capsys, ["enumerate", singrat3_file])
    assert code == 0
    assert doc["count"] == 1
    assert doc["truncated"] is False
    rep = doc["representations"][0]
    assert [c["pattern"] for c in rep["classes"]] == [
        "-(L1 + L2)",
        "L1 - L0",
        "L2 - L1",
    ]
    assert all(r["ok"] for r in rep["verification"])


def test_enumerate_truncation(capsys, enoki3_file):
    code, doc, _ = run(capsys, ["enumerate", enoki3_file, "--max-solutions", "1"])
    assert code == 0
    assert doc["count"] == 2
    assert doc["truncated"] is True
    assert len(doc["representations"]) == 1


def test_enumerate_refuses_negative_max_solutions(capsys, tmp_path):
    # -1 used to slice off the last representation and report it as truncated
    path = tmp_path / "enoki5.json"
    path.write_text(config_to_text(enoki_cycle_config(5, True)))
    code, doc, err = run(capsys, ["enumerate", str(path), "--max-solutions", "-1"])
    assert code == 1
    assert doc is None
    assert "--max-solutions must be a non-negative integer" in err
    for limit in (0, 1):
        code, doc, _ = run(capsys, ["enumerate", str(path), "--max-solutions", str(limit)])
        assert code == 0
        assert (doc["count"], doc["truncated"], len(doc["representations"])) == (2, True, limit)


def test_enumerate_cap_refusal(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(config_to_text(singrat_config(9, 8)))
    code, doc, err = run(capsys, ["enumerate", str(path)])
    assert code == 3
    assert "cap" in err


def test_enumerate_cap_env_override(capsys, singrat3_file, monkeypatch):
    monkeypatch.setenv("VII_ENUM_CAP", "2")
    code, _, err = run(capsys, ["enumerate", singrat3_file])
    assert code == 3
    assert "cap of 2" in err

    monkeypatch.setenv("VII_ENUM_CAP", "12")
    code, doc, _ = run(capsys, ["enumerate", singrat3_file])
    assert code == 0
    assert doc["count"] == 1

    # a negative cap used to refuse every input with exit 3
    monkeypatch.setenv("VII_ENUM_CAP", "-1")
    code, doc, err = run(capsys, ["enumerate", singrat3_file])
    assert (code, doc) == (1, None)
    assert "VII_ENUM_CAP must be a non-negative integer, got -1" in err

    monkeypatch.setenv("VII_ENUM_CAP", "eight")
    code, doc, err = run(capsys, ["enumerate", singrat3_file])
    assert (code, doc) == (1, None)
    assert "VII_ENUM_CAP must be an integer, got 'eight'" in err


def test_enumerate_exits_internal_when_re_verification_fails(capsys, monkeypatch, singrat3_file):
    failing = VerificationReport((ConstraintResult("pairwise-products", False, "corrupt"),))
    monkeypatch.setattr(cli, "verify_representation", lambda config, rep: failing)
    code = main(["enumerate", singrat3_file])
    assert (code, *capsys.readouterr()) == (
        2,
        "",
        "enumerated representation failed re-verification\n",
    )


@pytest.mark.parametrize(
    "config, patterns",
    [
        # the zero class of a nodal 0-curve, and a twisted nodal (-1)-loop
        (enoki_cycle_config(1), ["0"]),
        (CurveConfig(1, (Curve(0, NODAL_RATIONAL, -1),), ()), ["-(L0) + order-2 twist"]),
        # two disjoint nodal (-1)-curves: the class (-1, 0) of the second one
        # used to read "no recognized pattern", as only a tail block was named
        (selftest.disjoint_pair_config(), ["-(L1)", "-(L0)"]),
    ],
    ids=["zero-class", "twisted-loop", "two-cycles"],
)
def test_enumerate_renders_zero_and_twisted_classes(capsys, tmp_path, config, patterns):
    path = tmp_path / "loop.json"
    path.write_text(config_to_text(config))
    code, doc, _ = run(capsys, ["enumerate", str(path)])
    assert code == 0
    assert [[c["pattern"] for c in rep["classes"]] for rep in doc["representations"]] == [patterns]


def _render_sweep_configs():
    yield from selftest.representation_fixtures()
    for n in range(1, 7):
        for p in range(n):
            yield f"singrat-{n}-{p}", singrat_config(n, p)
        for elliptic in (False, True):
            yield f"enoki-{n}-{elliptic}", enoki_cycle_config(n, elliptic)


def test_enumerate_renders_every_class_up_to_b2_6():
    rendered = 0
    for name, config in _render_sweep_configs():
        for rep in enumerate_representations(config):
            for klass in rep.classes:
                # the two shapes _render_class names: a TypeA class, or a 0/-1 cycle sum
                form = classify_normal_form(klass)
                assert isinstance(form, TypeA) or set(klass.coeffs) <= {0, -1}, (name, klass)
                assert cli._render_class(klass), (name, klass)
                rendered += 1
    assert rendered > 100


@pytest.mark.parametrize(
    "config",
    [
        # "no index in three blowup sets" decides this one
        CurveConfig(
            4,
            (Curve(0, NODAL_RATIONAL, -3),)
            + tuple(Curve(i, SMOOTH_RATIONAL, -3) for i in range(1, 4)),
            (),
        ),
        # "two blowup sets share at most one index" decides this one
        CurveConfig(
            4,
            tuple(Curve(i, SMOOTH_RATIONAL, s) for i, s in enumerate((-4, -2, -4))),
            ((0, 1, 2),),
        ),
    ],
    ids=["three-blowup-sets", "shared-pair"],
)
def test_enumerate_blowup_rules_leave_nothing(capsys, tmp_path, config):
    path = tmp_path / "blowups.json"
    path.write_text(config_to_text(config))
    code, doc, _ = run(capsys, ["enumerate", str(path)])
    assert (code, doc["count"], doc["representations"]) == (0, 0, [])


# --- work per configuration ------------------------------------------------------


@pytest.fixture
def elimination_calls(monkeypatch):
    """Count symmetric eliminations; make the general linalg routines unusable."""
    calls = []
    original = curves._symmetric_elimination

    def counting(matrix, column):
        calls.append(len(matrix))
        return original(matrix, column)

    def forbidden(*args, **kwargs):
        raise AssertionError("linalg is not part of the pipeline")

    monkeypatch.setattr(curves, "_symmetric_elimination", counting)
    for name in ("solve_exact", "determinant"):
        banned = getattr(linalg, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("viilattice"):
                for key, value in list(vars(module).items()):
                    if value is banned:
                        monkeypatch.setattr(module, key, forbidden)
    return calls


def test_classify_eliminates_once(capsys, singrat3_file, elimination_calls):
    code, doc, _ = run(capsys, ["classify", singrat3_file])
    assert code == 0
    assert doc["nac"]["index"] == 2
    assert doc["nac_at_index"]["status"] == "solved"
    assert elimination_calls == [3]


def test_enumerate_eliminates_once_not_per_representation(
    capsys, enoki3_file, elimination_calls
):
    code, doc, _ = run(capsys, ["enumerate", enoki3_file])
    assert code == 0
    assert doc["count"] == 2
    assert len(doc["representations"]) == 2
    assert elimination_calls == [3]


@pytest.fixture
def decompositions(monkeypatch):
    """Count cycle decompositions."""
    calls = []
    original = curves._decompose

    def counting(config):
        calls.append(config.b2)
        return original(config)

    monkeypatch.setattr(curves, "_decompose", counting)
    return calls


def test_cycle_decomposition_runs_once_per_configuration(capsys, tmp_path, decompositions):
    path = tmp_path / "enoki5.json"
    path.write_text(config_to_text(enoki_cycle_config(5, True)))
    code, doc, _ = run(capsys, ["enumerate", str(path)])
    assert (code, len(doc["representations"])) == (0, 2)
    assert decompositions == [5]
    # the cycles, sigma and structure sections all read the decomposition
    code, doc, _ = run(capsys, ["classify", str(path)])
    assert code == 0
    assert len(doc["cycles"]) == 2
    assert doc["sigma_classification"]["verdict"] == "enoki_class"
    assert len(doc["structure"]["cycles"]) == 1
    assert decompositions == [5, 5]


# two (-4)-triangles glued at curve 0: no cycle decomposition exists
GLUED_TRIANGLES = CurveConfig(
    5,
    tuple(Curve(i, SMOOTH_RATIONAL, -4) for i in range(5)),
    ((0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 1), (3, 4, 1), (4, 0, 1)),
)


def test_failed_cycle_decomposition_runs_once_per_configuration(capsys, tmp_path, decompositions):
    path = tmp_path / "glued.json"
    path.write_text(config_to_text(GLUED_TRIANGLES))
    code, doc, _ = run(capsys, ["classify", str(path)])
    assert code == 0
    # the cycles and sigma sections both read the failed decomposition
    assert doc["cycles"]["error"] == doc["sigma_classification"]["error"]
    assert decompositions == [5]


def test_classify_of_glued_triangles_is_pinned(capsys, tmp_path):
    path = tmp_path / "glued.json"
    path.write_text(config_to_text(GLUED_TRIANGLES))
    assert main(["classify", str(path)]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "422df3c01ead2a47c95d2534b2c477c3259e7f053de3cff2e7b1dbf95f81370b"
    )
    assert err == ""


def test_cached_elimination_stays_out_of_equality_and_matrix_copies():
    config = singrat_config(3, 2)
    before = hash(config)
    cached = config.elimination
    # y = det(-M) * x for the level-1 solution x = (3/2, 1, 1/2)
    assert cached == ("definite", ((6, 4, 2), 4))
    fresh = CurveConfig(config.b2, config.curves, config.intersections)
    assert config == fresh
    assert hash(config) == hash(fresh) == before
    matrix = intersection_matrix(config)
    matrix[0][0] = 7
    matrix[1][2] = matrix[2][1] = -5
    assert config.elimination == cached
    assert solve_nac(config, 2) == solve_nac(fresh, 2)
    assert solve_nac(config, 2).coeffs == (Fraction(3), Fraction(2), Fraction(1))


# --- germ -----------------------------------------------------------------------


def test_germ_strong_reference(capsys):
    code, doc, _ = run(
        capsys, ["germ", "hopf-strong", "alpha=0.6", "a=0.4", "s=0", "m=1"]
    )
    assert code == 0
    assert doc["exact"] is True
    assert doc["valid"] is True
    assert doc["parameters"]["alpha"] == "3/5"
    below = next(c for c in doc["conditions"] if c["name"] == "alpha-square-below-a")
    assert "81/625" in below["detail"]


def test_germ_primary_reference(capsys):
    code, doc, _ = run(
        capsys, ["germ", "hopf-primary", "alpha1=0.3", "alpha2=0.6", "s=1", "m=2"]
    )
    assert code == 0
    assert doc["valid"] is False
    res = next(c for c in doc["conditions"] if c["name"] == "resonance")
    assert res["ok"] is False
    assert "3/50" in res["detail"]
    assert doc["invariants"]["determinant"] == "9/50"


def test_germ_complex_parameters(capsys):
    code, doc, _ = run(
        capsys,
        ["germ", "hopf-strong", "alpha=3/5", "a=2/5j", "s=0", "m=1"],
    )
    assert code == 0
    assert doc["valid"] is True
    real = next(c for c in doc["conditions"] if c["name"] == "a-real-positive")
    assert real["ok"] is False
    assert real["gating"] is False


def test_germ_enoki_round_trip(capsys, tmp_path):
    code, doc, _ = run(capsys, ["germ", "enoki", "t=1/2", "n=3"])
    assert code == 0
    assert doc["contracting"] and doc["parabolic"] and doc["has_nac"]

    path = tmp_path / "realized.json"
    path.write_text(json.dumps(doc["config"]))
    code, report, _ = run(capsys, ["classify", str(path)])
    assert code == 0
    assert report["sigma_classification"]["sigma"] == 6
    assert report["sigma_classification"]["verdict"] == "enoki_class"
    assert report["nac"]["status"] == "solved"
    assert report["nac"]["parabolic"] is True


def test_germ_enoki_generic_has_no_nac(capsys, tmp_path):
    code, doc, _ = run(capsys, ["germ", "enoki", "t=1/2", "n=2", "a=1/3"])
    assert code == 0
    assert doc["parabolic"] is False
    assert doc["has_nac"] is False

    path = tmp_path / "generic.json"
    path.write_text(json.dumps(doc["config"]))
    code, report, _ = run(capsys, ["classify", str(path)])
    assert report["sigma_classification"]["verdict"] == "enoki_class"
    assert report["nac"]["status"] == "no_solution"


def test_germ_enoki_rejects_expansion(capsys):
    code, doc, err = run(capsys, ["germ", "enoki", "t=2", "n=2"])
    assert code == 1
    assert doc["contracting"] is False
    assert "error" in doc


def test_germ_parameter_errors(capsys):
    code, _, err = run(capsys, ["germ", "enoki", "t=1/2"])
    assert code == 1 and "missing germ parameter 'n'" in err

    code, _, err = run(capsys, ["germ", "enoki", "t=1/2", "n=2", "bogus=1"])
    assert code == 1 and "unknown germ parameters" in err

    code, _, err = run(capsys, ["germ", "enoki", "t=1/2", "n=x"])
    assert code == 1 and "cannot parse number" in err

    code, _, err = run(capsys, ["germ", "hopf-strong", "alpha=", "a=1/4", "s=1", "m=1"])
    assert code == 1 and "empty number in 'alpha='" in err

    # a comma list is a tail; anywhere else it is refused, not a traceback
    for argv in (
        ["germ", "hopf-strong", "alpha=1/2,1/3", "a=1/4", "s=1", "m=1"],
        ["germ", "enoki", "t=1/2,1/3", "n=2"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 1 and "must be int, Fraction or ExactComplex, got tuple" in err


@pytest.mark.parametrize("text, value", [("j", "0+1j"), ("-j", "0-1j"), ("+j", "0+1j")])
def test_germ_reads_a_bare_imaginary_unit(capsys, text, value):
    code, doc, _ = run(capsys, ["germ", "hopf-strong", "alpha=1/2", "a=1/8", f"s={text}", "m=1"])
    assert code == 0
    assert doc["parameters"]["s"] == value


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(DomainError, match="unknown suite 'missing'"):
        selftest.run_suite("missing")


# --- report output ----------------------------------------------------------------


def _plain(value):
    """The old report rewrite, kept as the writer's oracle: each Fraction
    becomes its exact "p/q" string and tuples become lists, ready for
    json.dumps(indent=2)."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class _Int(int):
    __repr__ = __str__ = lambda self: "an int subclass"


class _Str(str):
    __repr__ = __str__ = lambda self: "a str subclass"


class _Fraction(Fraction):
    pass


texts = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')))
huge = st.integers(min_value=2**64, max_value=2**300)
leaves = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers() | huge, st.integers(min_value=1) | huge),
    st.integers(),
    huge,
    huge.map(lambda n: -n),
    st.booleans(),
    st.none(),
    texts,
    st.floats(),
    # types outside the writer's leaf table, which json still encodes
    (st.integers() | huge).map(_Int),
    texts.map(_Str),
)
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.integers() | huge, max_size=6),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=200)
@given(documents)
def test_writer_matches_indented_json(doc):
    stream = _CountingStream()
    with contextlib.redirect_stdout(stream):
        cli._emit(doc)
    assert stream.getvalue() == json.dumps(_plain(doc), indent=2) + "\n"
    assert stream.writes == 1


@pytest.mark.parametrize(
    "doc",
    [{"a": [1, {2, 3}]}, {"z": [1j]}, {"a": {Fraction(1, 2): 1}}, {1: 2}, {"a": [_Fraction(1, 2)]}],
    ids=["set", "complex", "fraction-key", "int-key", "fraction-subclass"],
)
def test_writer_refuses_what_it_cannot_encode(capsys, doc):
    # every report key is a str literal; json would write an int key as a string
    with pytest.raises(TypeError):
        cli._emit(doc)
    assert capsys.readouterr().out == ""


def _containers(value) -> int:
    if isinstance(value, dict):
        return 1 + sum(map(_containers, value.values()))
    if isinstance(value, list):
        return 1 + sum(map(_containers, value))
    return 0


def test_writer_recurses_only_into_containers(capsys, tmp_path, monkeypatch):
    # every leaf is rendered in place, the matrix and each table in one call
    # each, so the number of calls does not grow with b2
    calls = []
    original = cli._write

    def counting(*args):
        calls.append(type(args[0]).__name__)
        return original(*args)

    monkeypatch.setattr(cli, "_write", counting)
    totals = []
    for n in (20, 60):
        path = tmp_path / f"singrat{n}.json"
        path.write_text(config_to_text(singrat_config(n, n - 1)))
        calls.clear()
        code, doc, _ = run(capsys, ["classify", str(path)])
        assert code == 0 and len(doc["matrix"]) == n
        checks = doc["star_recurrence"]["checks"]
        assert len(checks) == n - 2
        # validation.issues, cycles, each cycle's branches, structure.cycles
        # and the star checks
        tables = [
            doc["validation"]["issues"],
            doc["cycles"],
            *[cycle["branches"] for cycle in doc["cycles"]],
            doc["structure"]["cycles"],
            checks,
        ]
        assert calls.count("_Matrix") == 1 and calls.count("_Records") == len(tables)
        # a call for each container but the n matrix rows and the records of
        # each table; a container value inside a record costs its own call
        assert len(calls) == _containers(doc) - n - sum(map(len, tables))
        totals.append(len(calls))
    assert totals[0] == totals[1] < 30


def _emitted(doc) -> str:
    stream = _CountingStream()
    with contextlib.redirect_stdout(stream):
        cli._emit(doc)
    assert stream.writes == 1
    return stream.getvalue()


STAR_KEYS = ("curve", "lhs", "rhs", "ok")


@pytest.mark.parametrize(
    "rows",
    [[], [(7, "3/2", "3/2", True)], [(k, str(k), f"{k}/2", k % 2 == 0) for k in range(-2, 9)]],
    ids=["empty", "one", "many"],
)
def test_records_are_written_as_indented_json(rows):
    records = [dict(zip(STAR_KEYS, row)) for row in rows]
    # at the top and nested two and three containers deep
    for wrap in (lambda v: v, lambda v: {"checks": v}, lambda v: {"a": [1, {"checks": v}]}):
        text = _emitted(wrap(cli._Records(STAR_KEYS, rows)))
        assert text == json.dumps(wrap(records), indent=2) + "\n"


@settings(max_examples=100)
@given(st.lists(texts | st.just("100% %s"), max_size=4, unique=True), st.data())
def test_records_match_indented_json(keys, data):
    # any keys, a "%" among them, and any leaves, a nested value too
    cells = leaves | st.lists(leaves, max_size=2)
    rows = data.draw(st.lists(st.tuples(*[cells] * len(keys)), max_size=5))
    doc = {"s": [cli._Records(tuple(keys), rows)]}
    records = [dict(zip(keys, row)) for row in rows]
    assert _emitted(doc) == json.dumps(_plain({"s": [records]}), indent=2) + "\n"


def _classify_matrix(text: str, directory) -> list[list[int]]:
    """The matrix classify writes for a document, after checking that the
    whole report is what json.dumps(indent=2) writes."""
    path = directory / "config.json"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", str(path)]) == 0
    doc = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
    return doc["matrix"]


@given(config=meeting_configs(), rng=st.randoms(use_true_random=False))
def test_classify_writes_the_dense_matrix(tmp_path_factory, config, rng):
    directory = tmp_path_factory.mktemp("matrix")
    listed = list(config.curves)
    rng.shuffle(listed)
    relabelled = CurveConfig(
        config.b2,
        tuple(Curve(c.id + 100, c.kind, c.self_int) for c in listed),
        tuple((j + 100, i + 100, m) for i, j, m in config.intersections),
    )
    for case in (config, relabelled):
        assert _classify_matrix(config_to_text(case), directory) == intersection_matrix(case)


@pytest.mark.parametrize(
    "doc, matrix",
    [
        (config_to_doc(CurveConfig(1, (Curve(0, NODAL_RATIONAL, 0),))), [[0]]),
        (
            config_to_doc(
                CurveConfig(2, (Curve(7, SMOOTH_RATIONAL, -2), Curve(3, SMOOTH_RATIONAL, -3)), ((3, 7, 2),))
            ),
            [[-2, 2], [2, -3]],
        ),
        (
            config_to_doc(
                CurveConfig(2, (Curve(1, SMOOTH_RATIONAL, -2), Curve(0, ELLIPTIC, -1)), ((0, 1, 1),))
            ),
            [[-2, 1], [1, -1]],
        ),
        (
            {
                "b2": 3,
                "curves": [{"id": i, "kind": SMOOTH_RATIONAL, "self_int": -3} for i in (2, 0, 1)],
                "intersections": [[0, 1, 0], [1, 2, 1], [2, 0, 0]],
            },
            [[-3, 0, 1], [0, -3, 0], [1, 0, -3]],
        ),
        (config_to_doc(GLUED_TRIANGLES), intersection_matrix(GLUED_TRIANGLES)),
    ],
    ids=["nodal-b2-1", "meeting-twice", "elliptic", "multiplicity-0", "glued-triangles"],
)
def test_classify_writes_the_matrix_of_edge_cases(tmp_path, doc, matrix):
    text = json.dumps(doc)
    assert _classify_matrix(text, tmp_path) == matrix == intersection_matrix(config_from_text(text))


# --- every command on random documents -------------------------------------------

odd_values = st.one_of(
    st.floats(allow_nan=False), st.booleans(), st.none(), st.text(max_size=3), st.just([1])
)


@st.composite
def fuzz_texts(draw):
    """Documents of b2 <= 6: about half are valid configurations, and the
    rest break one rule, carry a non-int field, an unknown id or an unknown
    key, or are cut short."""

    def rare() -> bool:
        # an inner value: hypothesis favours the ends of a range
        return draw(st.integers(0, 29)) == 13

    def field(values):
        return draw(odd_values) if rare() else draw(values)

    ids = draw(st.lists(st.integers(-2, 9), max_size=6, unique=True))
    if ids and rare():
        ids.append(ids[0])
    kinds = [draw(st.sampled_from(curves.CURVE_KINDS)) for _ in ids]
    if ELLIPTIC in kinds and not rare():  # keep only the last elliptic curve
        kinds = [NODAL_RATIONAL if k == ELLIPTIC else k for k in kinds[:-1]] + kinds[-1:]
    pairs = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(ids or [0]), st.sampled_from(ids or [0])),
            st.integers(0, 2),
            max_size=8,
        )
    )
    doc = {
        "b2": field(st.integers(-1, 0) if rare() else st.integers(max(1, len(ids) - 1), 6)),
        "curves": [
            {
                "id": field(st.just(cid)),
                "kind": "cusp" if rare() else kind,
                "self_int": field(st.integers(-5, (-2 if kind == SMOOTH_RATIONAL else 0) + 2 * rare())),
            }
            for cid, kind in zip(ids, kinds)
        ],
        "intersections": [
            [field(st.just(i)), field(st.just(j) | st.integers(-2, 12)), field(st.just(m))]
            for (i, j), m in pairs.items()
            if i != j or rare()
        ],
    }
    if rare():
        doc["extra"] = 1
    text = json.dumps(doc)
    if rare() or rare():
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(max_examples=80)
@given(text=fuzz_texts())
def test_every_command_survives_random_documents(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "config.json"
    path.write_text(text)
    commands = [["classify"], ["index"], ["enumerate"]] + [["nac", "--m", str(m)] for m in (1, 2, 3)]
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command[0], str(path), *command[1:]])
        assert code in (0, 1, 3)
        if out.getvalue():
            assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2) + "\n"


def _ring(r: int, self_int: int) -> CurveConfig:
    curves_ = tuple(Curve(i, SMOOTH_RATIONAL, self_int) for i in range(r))
    return CurveConfig(r, curves_, tuple((i, (i + 1) % r, 1) for i in range(r)))


def _shuffled(config: CurveConfig, seed: int) -> CurveConfig:
    """The same configuration with its curves listed in a seeded random order."""
    curves_ = list(config.curves)
    random.Random(seed).shuffle(curves_)
    return CurveConfig(config.b2, tuple(curves_), config.intersections)


# --- the NAC sections against the public Fraction API ----------------------------


def _nac_oracle(sol, m: int) -> dict:
    """The nac section that solve_nac's answer at level m implies."""
    if isinstance(sol, NoSolution):
        return {"m": m, "status": "no_solution", "reason": sol.reason}
    return {
        "m": sol.m,
        "status": "solved",
        "coeffs": [str(k) for k in sol.coeffs],
        "index": sol.index,
        "effective": sol.effective,
        "self_int_check": sol.self_int_check,
        "parabolic": sol.parabolic,
    }


def _structure_oracle(config: CurveConfig, sol: NacSolution) -> dict:
    """The structure and star-recurrence sections that nac_structure_report and
    verify_star_recurrence imply."""
    structure = nac_structure_report(config, sol)
    stars = verify_star_recurrence(config, sol)
    return {
        "structure": {
            "ok": structure.ok,
            "inoue_ih_signature": structure.inoue_ih_signature,
            "cycles": [
                {
                    "members": list(entry.member_ids),
                    "min_coeff": str(entry.min_coeff),
                    "max_coeff": str(entry.max_coeff),
                    "unit_cycle": entry.unit_cycle,
                    "max_at_branch_root": entry.max_at_branch_root,
                    "violations": list(entry.violations),
                }
                for entry in structure.cycles
            ],
        },
        "star_recurrence": {
            "ok": stars.ok,
            "checks": [
                {"curve": c.curve_id, "lhs": str(c.lhs), "rhs": str(c.rhs), "ok": c.ok}
                for c in stars.checks
            ],
        },
    }


def _nac_report_oracle(config: CurveConfig, levels: list[int]) -> tuple[int, dict]:
    """(exit code, NAC_KEYS sections) of classify (levels [1, index]) or nac
    (one level), from the public Fraction API."""
    sols = [solve_nac(config, m) for m in levels]
    doc = {"nac": _nac_oracle(sols[0], levels[0])}
    if isinstance(sols[0], NoSolution):
        return 0, doc
    if len(levels) > 1:
        doc["nac_at_index"] = _nac_oracle(sols[1], levels[1])
    try:
        sections = [_structure_oracle(config, sol) for sol in sols]
    except StructureError:
        return 1, {}
    # normalized by the level, so every level reports the same structure
    assert all(section == sections[0] for section in sections)
    return 0, doc | sections[-1]


NAC_KEYS = ("nac", "nac_at_index", "structure", "star_recurrence")


def _assert_nac_sections_match(config: CurveConfig, directory) -> None:
    """classify and nac --m 1..4 print what the Fraction API says of config."""
    path = directory / "config.json"
    path.write_text(config_to_text(config))
    sol = solve_nac(config, 1)
    levels = [1, sol.index] if isinstance(sol, NacSolution) and sol.index > 1 else [1]
    calls = [(["classify", str(path)], levels)]
    calls += [(["nac", str(path), "--m", str(m)], [m]) for m in range(1, 5)]
    for argv, levels in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        want_code, want = _nac_report_oracle(config, levels)
        assert code == want_code
        if code:
            assert out.getvalue() == ""
            continue
        doc = json.loads(out.getvalue())
        assert {key: doc[key] for key in NAC_KEYS if key in doc} == want


@given(config=meeting_configs(), rng=st.randoms(use_true_random=False))
def test_nac_sections_match_the_fraction_api(tmp_path_factory, config, rng):
    directory = tmp_path_factory.mktemp("nac")
    listed = list(config.curves)
    rng.shuffle(listed)
    relabelled = CurveConfig(
        config.b2,
        tuple(Curve(c.id * 3 - 7, c.kind, c.self_int) for c in listed),
        tuple((j * 3 - 7, i * 3 - 7, m) for i, j, m in reversed(config.intersections)),
    )
    for case in (config, relabelled):
        _assert_nac_sections_match(case, directory)


# most random meetings have no solution; these families solve at every n
# (singrat at p = n - 1, Enoki with the elliptic curve) or fail in each way
@pytest.mark.parametrize(
    "config",
    [singrat_config(n, p) for n in range(1, 8) for p in range(n)]
    + [enoki_cycle_config(n, elliptic) for n in range(1, 8) for elliptic in (False, True)]
    + [_ring(r, self_int) for r in (3, 5) for self_int in (-2, -3)],
)
def test_nac_sections_of_families_match_the_fraction_api(tmp_path, config):
    for seed in range(2):
        _assert_nac_sections_match(_shuffled(config, seed), tmp_path)


# --- pinned report digests --------------------------------------------------------

CONFIG_COMMANDS = (["classify"], ["nac", "--m", "1"], ["nac", "--m", "2"], ["nac", "--m", "3"], ["index"])


def _entry(cid=0, kind=SMOOTH_RATIONAL, self_int=-2, **extra) -> dict:
    return {"id": cid, "kind": kind, "self_int": self_int, **extra}


def _without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


def _two_curves(rows, **top) -> dict:
    return {"b2": 2, "curves": [_entry(0), _entry(1)], "intersections": rows, **top}


# one refusal each, in the order config_from_doc and then CurveConfig check
# them, then documents with two faults, which pin which one is reported
MALFORMED_DOCS = [
    [],
    "text",
    None,
    3,
    {"curves": []},
    {"b2": True, "curves": []},
    {"b2": 1.0, "curves": []},
    {"b2": None, "curves": []},
    {"b2": "1", "curves": []},
    {"b2": 1},
    {"b2": 1, "curves": {}},
    {"b2": 1, "curves": [[0, SMOOTH_RATIONAL, -2]]},
    {"b2": 1, "curves": [_entry(), "curve"]},
    {"b2": 1, "curves": [_entry(colour="red", genus=0)]},
    {"b2": 1, "curves": [_without(_entry(), "id")]},
    {"b2": 1, "curves": [_entry(cid=False)]},
    {"b2": 1, "curves": [_entry(cid=0.0)]},
    {"b2": 1, "curves": [_entry(cid="0")]},
    {"b2": 1, "curves": [_without(_entry(), "kind")]},
    {"b2": 1, "curves": [_entry(kind="cuspidal")]},
    {"b2": 1, "curves": [_entry(kind=[SMOOTH_RATIONAL])]},
    {"b2": 1, "curves": [_entry(kind={"name": ELLIPTIC})]},
    {"b2": 1, "curves": [_without(_entry(), "self_int")]},
    {"b2": 1, "curves": [_entry(self_int=True)]},
    {"b2": 1, "curves": [_entry(self_int=-2.0)]},
    {"b2": 1, "curves": [_entry(self_int=None)]},
    _two_curves({}),
    _two_curves(None),
    _two_curves([[0, 1]]),
    _two_curves([[0, 1, 1, 1]]),
    _two_curves([[0, 1, True]]),
    _two_curves([[0.0, 1, 1]]),
    _two_curves([[0, 1, "1"]]),
    _two_curves([{"i": 0, "j": 1, "m": 1}]),
    _two_curves([[0, 1, 1], "0 1 1"]),
    _two_curves([], extra=1),
    {"b2": 2, "curves": [_entry(0), _entry(0)]},
    _two_curves([[0, 2, 1]]),
    _two_curves([[0, 2, 0]]),
    _two_curves([[0, 1, -1]]),
    _two_curves([[1, 1, 1]]),
    _two_curves([[0, 1, 1], [1, 0, 2]]),
    # two faults
    {"curves": [], "zzz": 1},
    {"b2": True, "curves": None},
    {"b2": 1, "curves": [_entry(), "curve"], "intersections": None},
    {"b2": 1, "curves": [_without(_entry(cid=0.5, colour="red"), "kind")]},
    {"b2": 1, "curves": [_entry(cid=True, kind="cuspidal")]},
    {"b2": 1, "curves": [_without(_entry(kind="cuspidal"), "self_int")]},
    {"b2": 1, "curves": [_entry(self_int=None), _entry(cid=None)]},
    _two_curves([[0, 1]], extra=1),
    _two_curves([[0, 1, 1], [0, 1]]),
    {"b2": 2, "curves": [_entry(0), _entry(0)], "intersections": [[0, 1]]},
    {"b2": 2, "curves": [_entry(0), _entry(0)], "intersections": [[0, 9, 1]]},
    _two_curves([[0, 0, -1]]),
    _two_curves([[0, 9, -1]]),
    _two_curves([[0, 1, -1], [0, 9, 1]]),
    _two_curves([[0, 9, 1], [0, 1, -1]]),
    _two_curves([[0, 1, 1], [1, 0, 1], [1, 1, 1]]),
]
CORPUS = {
    "singrat": (
        [singrat_config(n, p) for n in (*range(1, 13), 20, 40, 60) for p in sorted({0, n // 2, n - 1})],
        CONFIG_COMMANDS,
    ),
    "enoki": (
        [enoki_cycle_config(n, elliptic) for n in range(1, 12) for elliptic in (False, True)],
        CONFIG_COMMANDS,
    ),
    "rings": ([_ring(r, -3) for r in range(3, 11)], CONFIG_COMMANDS),
    # full b2 x b2 matrices in the hundreds, in an order the listing does not give
    "hundreds": (
        [_shuffled(singrat_config(200, 199), 0), _shuffled(enoki_cycle_config(150, True), 0)],
        (["classify"],),
    ),
    "enumerate": (
        [
            enoki_cycle_config(5, True),
            enoki_cycle_config(5),
            singrat_config(5, 4),
            singrat_config(6, 5),
            _ring(5, -3),
            _ring(6, -3),
            CurveConfig(
                6,
                tuple(Curve(i, SMOOTH_RATIONAL, -3 if i == 0 else -2) for i in range(6)),
                tuple((i, (i + 1) % 5, 1) for i in range(5)) + ((2, 5, 1),),
            ),
        ],
        (["enumerate"], ["enumerate", "--max-solutions", "1"]),
    ),
    # configurations that break the per-curve and counting invariants
    "invalid": (
        [
            CurveConfig(
                3,
                (Curve(0, SMOOTH_RATIONAL, -1), Curve(1, NODAL_RATIONAL, 1), Curve(2, ELLIPTIC, 2)),
            ),
            CurveConfig(
                1, (Curve(0, SMOOTH_RATIONAL, -2), Curve(1, SMOOTH_RATIONAL, -2)), ((0, 1, 1),)
            ),
            CurveConfig(2, (Curve(0, ELLIPTIC, 0), Curve(1, ELLIPTIC, -1))),
            CurveConfig(0, (Curve(0, NODAL_RATIONAL, -1),)),
            CurveConfig(
                0,
                (Curve(4, SMOOTH_RATIONAL, 0), Curve(2, ELLIPTIC, 1), Curve(1, ELLIPTIC, -1)),
                ((1, 4, 1),),
            ),
        ],
        (["classify"], ["nac", "--m", "1"], ["nac", "--m", "0"], ["index"], ["enumerate"]),
    ),
    # documents each parse or constructor refusal stops, as JSON text
    "malformed": ([json.dumps(doc) for doc in MALFORMED_DOCS], (["classify"], ["enumerate"])),
    # every blow-up word with b2 <= 7, listed as built and with its curves reversed
    "words": (
        [
            CurveConfig(config.b2, config.curves[::step], config.intersections)
            for n in range(1, 8)
            for config in map(gss_config, corpus(n))
            for step in (1, -1)
        ],
        (["enumerate"],),
    ),
}
GERM_COMMANDS = [
    ["hopf-strong", "alpha=0.6", "a=0.4", "s=0", "m=1"],
    ["hopf-strong", "alpha=3/5", "a=2/5j", "s=0", "m=1"],
    ["hopf-strong", "alpha=1/2", "a=1/8", "s=1", "m=4761"],
    ["hopf-strong", "alpha=1/4", "a=1/8", "s=1", "m=4761"],
    ["hopf-strong", "alpha=1/4+1/4j", "a=1/4", "s=1", "m=1000"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=0", "m=1"],
    ["hopf-primary", "alpha1=0.3", "alpha2=0.6", "s=1", "m=2"],
    ["hopf-primary", "alpha1=1/4", "alpha2=1/2", "s=1", "m=2"],
    ["hopf-primary", "alpha1=1/8", "alpha2=1/3+1/5j", "s=1", "m=100"],
    ["enoki", "t=1/2", "n=3"],
    ["enoki", "t=1/2", "n=2", "a=1/3"],
    ["enoki", "t=1/2+1/2j", "n=4", "a=0,0"],
    ["enoki", "t=2", "n=2"],
    ["enoki", "t=1/2"],
    ["enoki", "t=1/2", "n=2", "bogus=1"],
    ["enoki", "t=1/2", "n=x"],
]
# the argument checks of the two Hopf kinds, in the order they are made
GERM_ERROR_COMMANDS = [
    ["hopf-strong"],
    ["hopf-strong", "a=1/4", "s=1", "m=1"],
    ["hopf-strong", "alpha=1/2", "s=1", "m=1"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "m=1"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=1"],
    ["hopf-strong", "m=1"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=1", "m=1", "bogus=1"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=1", "bogus=1"],
    ["hopf-strong", "alpha=1/2", "alpha=1/3", "a=1/4", "s=1", "m=1"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=1", "m=0"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=1", "m=1/2"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=1", "m=x"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=1", "m=2j"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=1", "m=0", "bogus=1"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=1", "m=1", "=1"],
    ["hopf-strong", "alpha=1/2", "a=1/4", "s=1", "m=1", "bogus"],
    ["hopf-strong", "alpha =1/2", "a=1/4", "s=1", "m=1"],
    ["hopf-primary"],
    ["hopf-primary", "alpha2=1/2", "s=1", "m=2"],
    ["hopf-primary", "alpha1=1/4", "s=1", "m=2"],
    ["hopf-primary", "alpha1=1/4", "alpha2=1/2", "m=2"],
    ["hopf-primary", "alpha1=1/4", "alpha2=1/2", "s=1"],
    ["hopf-primary", "s=1"],
    ["hopf-primary", "alpha1=1/4", "alpha2=1/2", "s=1", "m=2", "alpha=1/2"],
    ["hopf-primary", "alpha1=1/4", "alpha2=1/2", "s=1", "m=2", "m=3"],
    ["hopf-primary", "alpha1=1/4", "alpha2=1/2", "s=1", "m=0"],
    ["hopf-primary", "alpha1=1/4", "alpha2=1/2", "s=1", "m=1/2"],
    ["hopf-primary", "alpha1=1/4", "alpha2=1/2", "s=1", "m=x"],
    ["hopf-primary", "alpha1=1/4", "alpha2=1/2", "s=1", "m=2", "=1"],
    ["hopf-primary", "alpha1=1/9", "alpha2=1/3", "s=1/2+1/3j", "m=2"],
    ["hopf-primary", "alpha1=-1/4", "alpha2=1/2j", "s=1", "m=2"],
]
GERM_GROUPS = {"germ": GERM_COMMANDS, "germ-errors": GERM_ERROR_COMMANDS}


def corpus_calls(group: str, directory) -> list[list[str]]:
    """The command lines of one group of the pinned corpus, with the
    configuration files they read written into directory."""
    if group in GERM_GROUPS:
        return [["germ", *params] for params in GERM_GROUPS[group]]
    configs, commands = CORPUS[group]
    calls = []
    for k, config in enumerate(configs):
        path = directory / f"{group}{k}.json"
        path.write_text(config if isinstance(config, str) else config_to_text(config))
        calls += [[command[0], str(path), *command[1:]] for command in commands]
    return calls


def _corpus_runs(group: str, directory) -> list[tuple[int, str, str]]:
    """(exit, stdout, stderr) of each call in one group of the pinned corpus."""
    runs = []
    for argv in corpus_calls(group, directory):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs.append((code, out.getvalue(), err.getvalue()))
    return runs


def _corpus_digest(group: str, directory) -> str:
    """sha256 of (exit, stdout, stderr) over one group of the pinned corpus."""
    digest = hashlib.sha256()
    for run_ in _corpus_runs(group, directory):
        digest.update(repr(run_).encode())
    return digest.hexdigest()


# recorded before the report writer replaced json.dumps(indent=2); germ-errors
# before the two Hopf kinds of `germ` shared one code path; hundreds before
# the writer rendered leaves through one type table; invalid before validation
# moved into the configuration's constructor; malformed before the parser and
# the constructor checked each document field once; words before the search
# built its candidates from integer masks and the verifier and the renderer
# stopped building normal-form objects
PINNED_SHA256 = {
    "enoki": "a08875057fdc65d11b538dbf4366a7bc5c9a2a519da3b2b4e6528c6ba176fa49",
    "enumerate": "fca8a4c6522667416b5023ec4e311bd16f90fac5f8ce678765a20e90ae6aef99",
    "germ": "8cd737927a2606d433bc47011a7463da5f68d4717763f1017c81c579a8294313",
    "germ-errors": "720ded25c6ae7408cd3495b35dbb90f7aeb85d23beebc49cf6e6a980fa57af8f",
    "hundreds": "e8bd7f7ddcb5741f0c9b256b5afad92698171510e7d912c6fe947056c9536136",
    "invalid": "25dc5dc281ad2c4e241400417cfa28c4548ebbc6a5bceadba8eae6b559fac68b",
    "malformed": "823c331234d38eaaef8f71019bc72098173572925e844667644f13b8c834a74f",
    "rings": "3adffa8303de18223f1c518fa66462091f125fcee3c0589aaaefc77a92f064cf",
    "singrat": "3255b0cd3995e4c9626802300de8fb50d78992cc6ae48299a51abb81c612dd25",
    "words": "f5031a2e9c45a5c27e81a23c547c59eef7dd5f958c697cff13de597208c6aba0",
}


@pytest.mark.parametrize("group", sorted(PINNED_SHA256))
def test_reports_match_the_pinned_digests(tmp_path, group):
    assert _corpus_digest(group, tmp_path) == PINNED_SHA256[group]


def test_every_invalid_configuration_exits_invalid(tmp_path):
    assert {code for code, _, _ in _corpus_runs("invalid", tmp_path)} == {1}


# --- report tables against the dict-per-record referee ---------------------------


def _referee_cycles(config: CurveConfig):
    try:
        cycles = find_cycles(config)
    except StructureError as exc:
        return {"error": str(exc)}
    return [
        {
            "members": list(rec.member_ids),
            "length": rec.length,
            "branches": [{"root": br.root_id, "members": list(br.member_ids)} for br in rec.branches],
        }
        for rec in cycles
    ]


def _referee_sigma(config: CurveConfig):
    try:
        cls = sigma_classify(config)
    except (DomainError, StructureError) as exc:
        return {"error": str(exc)}
    return {
        "sigma": cls.sigma,
        "verdict": cls.verdict,
        "ih_parity": cls.ih_parity,
        "torsion_crosscheck": cls.torsion_crosscheck,
        "notes": list(cls.notes),
    }


def _referee_entries(config: CurveConfig, limit: int | None) -> list[dict]:
    reps = enumerate_representations(config)
    return [
        {
            "odd_ih": rep.odd_ih,
            "classes": [
                {
                    "curve": curve.id,
                    "coeffs": list(klass.coeffs),
                    "torsion2": klass.torsion2,
                    "pattern": cli._render_class(klass),
                }
                for curve, klass in zip(config.curves, rep.classes)
            ],
            "verification": [
                {"name": r.name, "ok": r.ok, "detail": r.detail}
                for r in verify_representation(config, rep).results
            ],
        }
        for rep in reps[:limit]
    ]


def _referee_doc(argv: list[str], doc: dict) -> dict:
    """doc, the report main(argv) printed, with every table of library records
    rebuilt one dict per record, as the CLI built them before it wrote each
    table straight from its records."""
    command = argv[0]
    if command == "germ":
        germ_type, check = cli.HOPF_KINDS[argv[1]]
        params = cli._parse_params(argv[2:])
        germ = germ_type(**{k: cli._need_int(params, k) if k == "m" else params[k] for k in params})
        doc["conditions"] = [
            {"name": c.name, "ok": c.ok, "detail": c.detail, "gating": c.gating}
            for c in check(germ).conditions
        ]
        return doc
    config = load_config(argv[1])
    if command == "classify":
        report = validate(config)
        doc["validation"]["issues"] = [
            {"message": issue.message, "curve": issue.curve_id} for issue in report.issues
        ]
        if not report.valid:
            return doc
        doc["cycles"] = _referee_cycles(config)
        doc["sigma_classification"] = _referee_sigma(config)
    if "structure" in doc:
        sol = solve_nac(config, 1 if command == "classify" else int(argv[3]))
        doc["structure"] = _structure_oracle(config, sol)["structure"]
    if command == "enumerate":
        limit = int(argv[3]) if len(argv) > 2 else None
        doc["representations"] = _referee_entries(config, limit)
    return doc


def hopf_grid() -> list[list[str]]:
    """Hopf germ command lines with s = 0 and s != 0, whose conditions hold
    and fail, gating and not."""
    strong = [
        ["hopf-strong", f"alpha={alpha}", f"a={a}", f"s={s}", f"m={m}"]
        for alpha in ("1/2", "1/4", "3/5", "1/4+1/4j")
        for a in ("1/8", "1/4", "2/5j", "-1/3")
        for s, m in (("0", "1"), ("1", "1"), ("1", "3"), ("1/2", "2"))
    ]
    primary = [
        ["hopf-primary", f"alpha1={a1}", f"alpha2={a2}", f"s={s}", f"m={m}"]
        for a1, a2 in (("1/4", "1/2"), ("0.3", "0.6"), ("1/8", "1/3+1/5j"), ("-1/4", "1/2j"))
        for s, m in (("0", "1"), ("1", "2"), ("1", "3"))
    ]
    return [["germ", *words] for words in strong + primary]


def _invalid_configs(count: int, seed: int) -> list[CurveConfig]:
    """Seeded configurations that validation refuses, with and without a
    curve to blame."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        b2 = rng.randint(0, 3)
        kinds = [rng.choice((SMOOTH_RATIONAL, NODAL_RATIONAL, ELLIPTIC)) for _ in range(rng.randint(1, 4))]
        config = CurveConfig(b2, tuple(Curve(i, k, rng.randint(-3, 2)) for i, k in enumerate(kinds)))
        if not validate(config).valid:
            found.append(config)
    return found


def _table_corpus() -> list[tuple[CurveConfig, list[list[str]]]]:
    """(configuration, command lines without the file) of the table corpus."""
    listed = [
        CurveConfig(config.b2, config.curves[::step], config.intersections)
        for n in range(1, 8)
        for config in map(gss_config, corpus(n))
        for step in (1, -1)
    ]
    listed += [singrat_config(n, p) for n in range(1, 13) for p in range(n)]
    listed += [enoki_cycle_config(n, elliptic) for n in range(1, 9) for elliptic in (False, True)]
    commands = [["classify"], ["nac", "--m", "1"], ["nac", "--m", "2"], ["enumerate"]]
    commands += [["enumerate", "--max-solutions", "0"], ["enumerate", "--max-solutions", "1"]]
    cases = [(config, commands if config.b2 <= 6 else commands[:3]) for config in listed]
    return cases + [(config, [["classify"]]) for config in _invalid_configs(40, 0)]


# each table of library records, at its path in the report, and its record:
# each key is the name of the record's field in that place, less any "_id"
RECORD_TABLES = {
    ("validation", "issues"): ValidationIssue,
    ("cycles",): CycleRecord,
    ("cycles", "branches"): Branch,
    ("sigma_classification",): SigmaClassification,
    ("structure", "cycles"): CycleStructure,
    ("conditions",): Condition,
    ("representations", "verification"): ConstraintResult,
}


def _table_keys(doc, path: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The key tuple of each record at path in doc; a list on the way is
    read item by item."""
    values = [doc]
    for key in path:
        values = [v.get(key) for v in values if isinstance(v, dict)]
        values = [w for v in values for w in (v if isinstance(v, list) else [v])]
    return [tuple(v) for v in values if isinstance(v, dict) and "error" not in v]


def test_tables_match_the_dict_per_record_referee(tmp_path):
    runs = hopf_grid()
    for k, (config, commands) in enumerate(_table_corpus()):
        path = tmp_path / f"table{k}.json"
        path.write_text(config_to_text(config))
        runs += [[command[0], str(path), *command[1:]] for command in commands]
    keys = {path: set() for path in RECORD_TABLES}
    seen = set()
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        text = out.getvalue()
        if not text:
            assert code == 1, argv
            continue
        doc = json.loads(text)
        assert text == json.dumps(_referee_doc(argv, json.loads(text)), indent=2) + "\n", argv
        for path in RECORD_TABLES:
            keys[path].update(_table_keys(doc, path))
        issues = doc.get("validation", {}).get("issues", ())
        seen.update(("blamed", issue["curve"] is not None) for issue in issues)
        seen.update(("gating", c["gating"], c["ok"]) for c in doc.get("conditions", ()))
        if argv[0] == "enumerate":
            seen.add(("shown", len(doc["representations"])))
    for path, record in RECORD_TABLES.items():
        assert keys[path] == {tuple(field.replace("_id", "") for field in record._fields)}, path
    # issues with and without a curve, gating and other conditions both held
    # and failed, and enumerate reports of none, one and several
    assert {("blamed", True), ("blamed", False)} <= seen
    assert {("gating", g, ok) for g in (True, False) for ok in (True, False)} <= seen
    assert {("shown", 0), ("shown", 1), ("shown", 2)} <= seen


# --- the interpreter's int/str digit limit ---------------------------------------


def _smooth_config_text(b2: str, digits: list[str]) -> str:
    curves = ", ".join(
        f'{{"id": {i}, "kind": "smooth_rational", "self_int": -{d}}}'
        for i, d in enumerate(digits)
    )
    pairs = "[[0, 1, 1]]" if len(digits) == 2 else "[]"
    return f'{{"b2": {b2}, "curves": [{curves}], "intersections": {pairs}}}'


NINES_5000 = "9" * 5000
NINES_3000 = "9" * 3000


@pytest.mark.parametrize(
    "argv, text",
    [
        (["germ", "hopf-strong", "alpha=1/2", "a=1/8", "s=1", "m=4762"], None),
        (["germ", "hopf-primary", "alpha1=1/8", "alpha2=1/3+1/5j", "s=1", "m=10000"], None),
        (["classify"], _smooth_config_text("1", [NINES_5000])),
        (["enumerate"], _smooth_config_text("1", [NINES_5000])),
        (["classify"], _smooth_config_text(NINES_5000, ["2"])),
        (["enumerate"], _smooth_config_text(NINES_5000, ["2"])),
        (["classify"], _smooth_config_text("2", [NINES_3000, NINES_3000])),
        (["nac", "--m", "3"], _smooth_config_text("2", [NINES_3000, NINES_3000])),
        (["index"], _smooth_config_text("2", [NINES_3000, NINES_3000])),
    ],
    ids=[
        "strong-m4762",
        "primary-m10000",
        "classify-self-int",
        "enumerate-self-int",
        "classify-b2",
        "enumerate-b2",
        "classify-report",
        "nac-report",
        "index-report",
    ],
)
def test_digit_limit_is_refused_cleanly(capsys, tmp_path, argv, text):
    if text is not None:
        path = tmp_path / "big.json"
        path.write_text(text)
        argv = [argv[0], str(path), *argv[1:]]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert f"more than {sys.get_int_max_str_digits()} digits" in err


@pytest.mark.parametrize("alpha", ["1/2", "1/4"])
def test_germ_resonance_beyond_digit_limit_is_refused_fast(capsys, alpha):
    code, doc, _ = run(capsys, ["germ", "hopf-strong", f"alpha={alpha}", "a=1/8", "s=1", "m=4761"])
    assert (code, doc["valid"]) == (0, False)
    # computing the exact powers at m = 1000000 would take about 10 s
    start = time.perf_counter()
    code = main(["germ", "hopf-strong", f"alpha={alpha}", "a=1/8", "s=1", "m=1000000"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert "resonance term would have more than" in err
    assert elapsed < 1


def test_germ_complex_base_beyond_digit_limit_is_refused_fast(capsys):
    # the denominator ideal of (1 + i)/4 has norm 8, and only that exact
    # norm separates alpha^(m+1) from a^m before the powers are computed
    start = time.perf_counter()
    code = main(["germ", "hopf-strong", "alpha=1/4+1/4j", "a=1/4", "s=1", "m=1000000"])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert "resonance term would have more than" in err
    assert elapsed < 1


# --- usage and selftest -----------------------------------------------------------


def test_usage_errors_exit_invalid(capsys):
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["nac"]) == 1
    capsys.readouterr()
    assert main(["germ", "wrongkind", "t=1/2"]) == 1
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "classify" in out and "selftest" in out


def test_parser_is_built_once_and_reused(capsys, tmp_path):
    path = tmp_path / "enoki3.json"
    path.write_text(config_to_text(enoki_cycle_config(3)))
    sequence = [
        ["no-such-command"],
        ["--help"],
        ["germ", "wrongkind", "t=1/2"],
        ["enumerate", str(path), "--max-solutions", "1"],
        ["classify", str(path)],
    ]
    cli._build_parser.cache_clear()
    passes = []
    for _ in range(3):
        results = []
        for argv in sequence:
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        passes.append(results)
    assert [code for code, _, _ in passes[0]] == [1, 0, 1, 0, 0]
    assert passes[1] == passes[0] and passes[2] == passes[0]
    assert cli._build_parser.cache_info().misses == 1


def _action_grammar(command: str, parser: argparse.ArgumentParser, *actions: argparse.Action):
    """(namespace defaults, positional actions, {option string: action}) of
    one command, read back from the actions that add_argument returns, or
    None unless each action reads exactly one token, or is a last positional
    with nargs="*" and no default on a command without options: the grammar
    cli._grammar reads from the command table, as cli read it before."""
    positionals = [action for action in actions if not action.option_strings]
    options = {option: action for action in actions for option in action.option_strings}
    star = not options and (actions[-1].nargs, actions[-1].default) == ("*", None)
    if any(action.nargs is not None for action in actions[: -1 if star else None]):
        return None
    defaults = {
        "command": command,
        **{action.dest: action.default for action in actions},
        "run": parser.get_default("run"),
    }
    return defaults, positionals, options


def _referee_parser():
    """The parser as one add_parser block per command, the way it was built
    before the command table: the table's referee."""
    parser = argparse.ArgumentParser(
        prog="viilattice",
        description="Exact lattice invariants of curve configurations on "
        "minimal class-VII surfaces with positive second Betti number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = sub.add_parser("classify", help="full pipeline report for a configuration file")
    p.set_defaults(run=cli._cmd_classify)
    commands["classify"] = _action_grammar("classify", p, p.add_argument("file"))

    p = sub.add_parser("nac", help="anticanonical coefficients at a chosen level")
    p.set_defaults(run=cli._cmd_nac)
    commands["nac"] = _action_grammar(
        "nac",
        p,
        p.add_argument("file"),
        p.add_argument("--m", type=int, default=1, help="divisor level (default 1)"),
    )

    p = sub.add_parser("index", help="smallest level with integer coefficients")
    p.set_defaults(run=cli._cmd_index)
    commands["index"] = _action_grammar("index", p, p.add_argument("file"))

    p = sub.add_parser("enumerate", help="canonical homology representations")
    p.set_defaults(run=cli._cmd_enumerate)
    commands["enumerate"] = _action_grammar(
        "enumerate",
        p,
        p.add_argument("file"),
        p.add_argument(
            "--max-solutions",
            type=int,
            default=None,
            help="truncate the report after this many representations",
        ),
    )

    p = sub.add_parser("germ", help="validate contracting-germ parameters")
    p.set_defaults(run=cli._cmd_germ)
    commands["germ"] = _action_grammar(
        "germ",
        p,
        p.add_argument("kind", choices=cli.GERM_KINDS),
        p.add_argument("params", nargs="*", metavar="key=value"),
    )

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.set_defaults(run=cli._cmd_selftest)
    commands["selftest"] = _action_grammar(
        "selftest",
        p,
        p.add_argument("--seed", type=int, default=0, help="seed for randomized suites"),
    )

    return parser, commands


def _help_texts(parser) -> dict:
    """format_help() of the parser and of each of its commands' parsers."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {None: parser.format_help(), **{k: p.format_help() for k, p in sub.choices.items()}}


def _slots(grammar):
    """An action grammar with each action as the (dest, nargs, type, choices)
    slot cli._grammar gives it.  Every action is a plain store of one value
    in an optional option or a required positional, which is what the slot
    says of it."""
    if grammar is None:
        return None
    defaults, positionals, options = grammar
    for action in [*positionals, *options.values()]:
        assert type(action) is argparse._StoreAction and action.const is None
        # a required option or an optional positional would read otherwise
        assert action.nargs == "*" or action.required == (not action.option_strings)

    def slot(action):
        return action.dest, action.nargs, action.type, action.choices

    return defaults, [slot(a) for a in positionals], {k: slot(a) for k, a in options.items()}


def test_the_command_table_builds_the_referee_parser():
    referee, referee_commands = _referee_parser()
    texts = _help_texts(cli._build_parser())
    assert list(texts) == [None, *COMMAND_NAMES]
    assert texts == _help_texts(referee)
    assert list(cli._GRAMMARS) == list(referee_commands)
    for name, grammar in cli._GRAMMARS.items():
        assert grammar == _slots(referee_commands[name]), name


def _through_argparse(capsys, argv):
    """(exit, stdout, stderr) of argv read by this interpreter's parse_args
    and then run; the argv must not make its command raise."""
    try:
        args = cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 1
    else:
        code = args.run(args)
    return (code, *capsys.readouterr())


COMMAND_NAMES = ["classify", "nac", "index", "enumerate", "germ", "selftest"]
ARGV_TOKENS = st.one_of(
    st.sampled_from(
        [*COMMAND_NAMES, "--m", "--max-solutions", "--seed", "--max", "--m=2", "-h", "--help"]
        + ["--", "-", "", "f", "x", "1.5", "1_0", "-1_0", " 2", "a=1", "enoki", "t=1/2"]
        + ["hopf-strong", "hopf-primary", "alpha=1/2", "s=0", "-1/2"]
    ),
    st.integers(-3, 12).map(str),
    st.integers(),
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([*COMMAND_NAMES, "no-such-command", "-h"]), st.lists(ARGV_TOKENS, max_size=5))
def test_plain_reader_builds_the_namespace_parse_args_builds(command, rest):
    argv = [command, *rest]
    got = cli._plain_args(argv)
    if got is not None:
        with contextlib.redirect_stderr(io.StringIO()):
            want = cli._build_parser().parse_args(argv)
        assert vars(got) == vars(want)


DEFERRED_ARGV = {
    "help": ["--help"],
    "short-help": ["-h"],
    "command-help": ["classify", "-h"],
    "trailing-help": ["nac", "FILE", "--help"],
    "empty": [],
    "unknown-command": ["no-such-command"],
    "missing-file": ["nac"],
    "foreign-option": ["classify", "FILE", "--m", "2"],
    "extra-token": ["classify", "FILE", "extra"],
    "missing-value": ["nac", "FILE", "--m"],
    "non-int-value": ["nac", "FILE", "--m", "x"],
    "value-beyond-digit-limit": ["nac", "FILE", "--m", "9" * 5000],
    "unknown-germ-kind": ["germ", "wrongkind", "t=1/2"],
    "equals-value": ["nac", "FILE", "--m=2"],
    "abbreviation": ["enumerate", "FILE", "--max", "1"],
    "short-abbreviation": ["enumerate", "FILE", "--m", "1"],
    "double-dash": ["classify", "--", "FILE"],
    "dash-file": ["classify", "-"],
    "negative-value": ["enumerate", "FILE", "--max-solutions", "-0"],
    "germ": ["germ", "hopf-strong", "alpha=1/2", "a=1/8", "s=1", "m=1", "--help"],
    "germ-without-kind": ["germ"],
    "germ-help": ["germ", "-h"],
    "germ-double-dash": ["germ", "enoki", "--", "t=1/2", "n=2"],
    "germ-dash-token": ["germ", "enoki", "t=-1", "-x"],
}


@pytest.mark.parametrize("argv", DEFERRED_ARGV.values(), ids=DEFERRED_ARGV)
def test_reader_leaves_help_usage_errors_and_the_rest_to_parse_args(
    capsys, monkeypatch, tmp_path, singrat3_file, argv
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").write_text(config_to_text(singrat_config(3, 2)))
    argv = [singrat3_file if token == "FILE" else token for token in argv]
    assert cli._plain_args(argv) is None
    assert (main(argv), *capsys.readouterr()) == _through_argparse(capsys, argv)


def test_reader_refuses_tokens_that_are_not_str(singrat3_file):
    assert cli._plain_args(["nac", singrat3_file, "--m", 2]) is None
    assert cli._plain_args([b"classify", singrat3_file]) is None
    assert cli._plain_args(["classify", None]) is None


@pytest.mark.parametrize(
    "argv, kind",
    [(["nac", "FILE", "--m", 2], "int"), (["classify", None], "NoneType")],
    ids=["int-value", "none-file"],
)
def test_main_refuses_tokens_that_are_not_str(capsys, singrat3_file, argv, kind):
    # argparse indexed the int and raised TypeError; it accepted None as the
    # file, which open() then refused with a TypeError
    argv = [singrat3_file if token == "FILE" else token for token in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"refused: command-line arguments must be strings, got {kind}\n"


def test_main_reads_str_subclass_tokens_as_before(capsys, singrat3_file):
    # a str subclass is a str: argparse reads it, as it did before the refusal
    class Token(str):
        pass

    plain = ["nac", singrat3_file, "--m", "2"]
    want = (main(plain), *capsys.readouterr())
    assert want[0] == 0 and '"m": 2' in want[1]
    assert cli._plain_args([Token(t) for t in plain]) is None
    assert (main([Token(t) for t in plain]), *capsys.readouterr()) == want


PLAIN_ARGV = [
    ["classify", "FILE"],
    ["nac", "FILE"],
    ["nac", "FILE", "--m", "3"],
    ["index", "FILE"],
    ["enumerate", "FILE", "--max-solutions", "1"],
    ["germ", "hopf-strong", "alpha=1/2", "a=1/8", "s=1", "m=1"],
    ["germ", "hopf-primary", "alpha1=1/4", "alpha2=1/2", "s=0", "m=2"],
    ["germ", "enoki", "t=1/2", "n=3", "a=1/3,0"],
    ["germ", "enoki", "t=2", "n=1"],
]


def test_plain_command_lines_never_reach_parse_args(capsys, monkeypatch, singrat3_file):
    argvs = [[singrat3_file if token == "FILE" else token for token in argv] for argv in PLAIN_ARGV]
    want = [_through_argparse(capsys, argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("parse_args reached")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert [(main(argv), *capsys.readouterr()) for argv in argvs] == want
    assert [code for code, _, _ in want] == [0, 0, 0, 0, 0, 0, 0, 0, 1]


def test_plain_command_lines_load_neither_argparse_nor_families_before_germ_enoki(singrat3_file):
    # one fresh interpreter runs the plain command lines in turn; after each it
    # reports the exit code and which of the two modules the run has added
    probe = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from viilattice.cli import main\n"
        "seen = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    added = set(sys.modules) - before\n"
        "    seen.append([code, 'argparse' in added, 'viilattice.families' in added])\n"
        "print(json.dumps(seen))"
    )
    argvs = [[singrat3_file if token == "FILE" else token for token in argv] for argv in PLAIN_ARGV]
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # the eighth line, the first germ enoki, realizes its surface: that loads families
    codes = [0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert json.loads(done.stdout) == [[code, False, k >= 7] for k, code in enumerate(codes)]


@pytest.mark.parametrize("rest", [["nac", "FILE", "--m", "2"], ["--help"]], ids=["plain", "help"])
def test_main_reads_sys_argv_without_an_argv(capsys, monkeypatch, singrat3_file, rest):
    rest = [singrat3_file if token == "FILE" else token for token in rest]
    want = (main(rest), *capsys.readouterr())
    monkeypatch.setattr(sys, "argv", ["viilattice", *rest])
    assert (main(), *capsys.readouterr()) == want
    assert want[0] == 0 and want[1]


def test_selftest_runs_clean(capsys):
    code = main(["selftest", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert any(
        line.startswith("PASS singrat-closed-form-grid") for line in lines
    )
    assert lines[-1].endswith("11/11 suites passed")
    assert not any(line.startswith("FAIL") for line in lines)


def test_selftest_reports_failing_suites(capsys, monkeypatch):
    solve = selftest.solve_nac

    def bumped(config, m):
        sol = solve(config, m)
        if isinstance(sol, NacSolution):
            # k_0 + 1 = m * (m * scaled_0 + index) / (m * index)
            scaled = (m * sol.scaled[0] + sol.index,) + tuple(m * v for v in sol.scaled[1:])
            sol = sol._replace(scaled=scaled, index=m * sol.index)
        return sol

    monkeypatch.setattr(selftest, "solve_nac", bumped)
    code = main(["selftest", "--seed", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL singrat-closed-form-grid (6 checks): solver coefficients differ at n=2, p=1, m=1",
        "FAIL singrat-worked-instance (8 checks): failed: m=1 coefficients, "
        "m=2 coefficients, square at m=1, square at m=2",
        "FAIL random-nac-self-intersection (0 checks): accepted divisor square -4 != -1",
        "FAIL enoki-germ-pipeline (0 checks): parabolic divisor is not the unit vector at n=1",
        "FAIL star-recurrence (4 checks): recurrence fails on an accepted divisor",
    ]
    assert lines[-1] == "6/11 suites passed"
