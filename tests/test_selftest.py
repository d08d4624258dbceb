"""Each selftest suite that no other test drives to a failure, driven to one
by a single monkeypatched fault in a name the suite reads from ``selftest``,
with its FAIL line pinned: the check that fails, its text, and the count of
the checks passed before it."""

import pytest

from viilattice import ConstraintResult, VerificationReport, selftest
from viilattice.cli import main


def _determinant_fault(monkeypatch):
    cofactor = selftest.det_cofactor
    # off by one on the 5x5 matrices, first met at n=5, p=4
    monkeypatch.setattr(selftest, "det_cofactor", lambda rows: cofactor(rows) + (len(rows) == 5))


def _p0_fault(monkeypatch):
    solve = selftest.solve_nac
    # a solution in place of the refusal at n=3, p=0
    solved = solve(selftest.singrat_config(3, 2), 1)
    monkeypatch.setattr(
        selftest, "solve_nac", lambda config, m: solved if config.b2 == 3 else solve(config, m)
    )


def _enumerator_fault(monkeypatch):
    enumerate_ = selftest.enumerate_representations
    # the pruned search loses every orbit but the first, as on cycle-3 with two
    monkeypatch.setattr(
        selftest, "enumerate_representations", lambda config: enumerate_(config)[:1]
    )


def _sharp_c_b2_fault(monkeypatch):
    classify = selftest.sigma_classify

    def flipped(config):
        cls = classify(config)
        return cls._replace(torsion_crosscheck=not cls.torsion_crosscheck)

    monkeypatch.setattr(selftest, "sigma_classify", flipped)


def _uniqueness_fault(monkeypatch):
    verify = selftest.verify_representation
    refused = VerificationReport((ConstraintResult("injected", False, "fault"),))
    monkeypatch.setattr(
        selftest,
        "verify_representation",
        lambda config, rep: refused if config.b2 == 3 else verify(config, rep),
    )


def _definiteness_fault(monkeypatch):
    definite = selftest.is_negative_definite
    # the sampled matrices have at most 4 or exactly 8 rows, so this 5x5 one is
    # the Enoki 5-cycle's, which follows all of them
    ring = selftest.intersection_matrix(selftest.enoki_cycle_config(5))
    monkeypatch.setattr(
        selftest, "is_negative_definite", lambda m: "neither" if m == ring else definite(m)
    )


FAULTS = {
    "singrat-determinant-grid": (
        _determinant_fault,
        "FAIL singrat-determinant-grid (26 checks): determinant disagreement at n=5, p=4",
    ),
    "singrat-p0-impossibility": (
        _p0_fault,
        "FAIL singrat-p0-impossibility (2 checks): solver accepts p=0 at n=3",
    ),
    "enumerator-oracle-equivalence": (
        _enumerator_fault,
        "FAIL enumerator-oracle-equivalence (10 checks): pruned and unpruned enumerations "
        "differ on cycle-3 (1 vs 2)",
    ),
    "sharp-c-b2-law": (
        _sharp_c_b2_fault,
        "FAIL sharp-c-b2-law (1 checks): singrat-2: torsion cross-check disagrees with the "
        "enumeration",
    ),
    "singrat-representation-uniqueness": (
        _uniqueness_fault,
        "FAIL singrat-representation-uniqueness (3 checks): canonical representation at n=3 "
        "fails verification",
    ),
    "definiteness-oracle": (
        _definiteness_fault,
        "FAIL definiteness-oracle (10507 checks): disagreement on [[-2, 1, 0, 0, 1], "
        "[1, -2, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -2, 1], [1, 0, 0, 1, -2]]: "
        "neither vs semidefinite",
    ),
}


@pytest.mark.parametrize("suite", FAULTS)
def test_an_injected_fault_fails_its_suite(capsys, monkeypatch, suite):
    inject, line = FAULTS[suite]
    inject(monkeypatch)
    # the command runs this one suite
    monkeypatch.setattr(selftest, "SUITE_NAMES", [suite])
    assert main(["selftest"]) == 2
    assert capsys.readouterr().out == f"{line}\n0/1 suites passed\n"


@pytest.mark.parametrize("suite", FAULTS)
def test_each_faulted_suite_passes_without_its_fault(suite):
    result = selftest.run_suite(suite)
    assert result.passed, result
