"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import viilattice  # noqa: E402
from checker import check  # noqa: E402
from run import Runner  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Distinct, Op, config_op, enoki, singrat  # noqa: E402


def ops_of(name: str, seed: int, rounds: int) -> list[Op]:
    return [op for r in islice(WORKLOADS[name].rounds(seed), rounds) for op in r]


def key(op: Op):
    return (op.command, op.args, op.text)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_is_deterministic_per_seed(name):
    first = [key(op) for op in ops_of(name, 7, 2)]
    assert first == [key(op) for op in ops_of(name, 7, 2)]
    assert first != [key(op) for op in ops_of(name, 8, 2)]


@pytest.mark.parametrize("name,rounds", [("classify-large", 4), ("classify-small", 30), ("enumerate-mixed", 6)])
def test_stream_never_repeats_an_input(name, rounds):
    ops = ops_of(name, 3, rounds)
    configs = [op.text for op in ops if op.text is not None]
    germs = [op.args for op in ops if op.text is None]
    assert len(set(configs)) == len(configs)
    assert len(set(germs)) == len(germs)


def test_rounds_keep_their_composition():
    def shape(ops):
        return sorted((op.command, op.exit, op.args[:1]) for op in ops)

    for workload in WORKLOADS.values():
        stream = workload.rounds(11)
        first = next(stream)
        for _ in range(3):
            assert shape(next(stream)) == shape(first)


@pytest.fixture
def runner(tmp_path):
    return Runner(tmp_path, [])


def output_of(runner, op) -> tuple[int, str]:
    _, code, out = runner.run_op(op)
    assert not runner.failures, runner.failures
    return code, out


def test_checker_rejects_a_changed_coefficient(runner):
    op = config_op(Distinct(None), "classify", singrat(3, 2))
    code, out = output_of(runner, op)
    report = json.loads(out)
    assert check(op, code, json.dumps(report)) is None
    report["nac"]["coeffs"][1] = "2"
    assert "do not solve" in check(op, code, json.dumps(report))


def test_checker_rejects_an_altered_class(runner):
    op = config_op(Distinct(None), "enumerate", enoki(3, True))
    code, out = output_of(runner, op)
    report = json.loads(out)
    assert report["count"] > 0
    coeffs = report["representations"][0]["classes"][0]["coeffs"]
    coeffs[coeffs.index(0)] = -1
    assert "does not reproduce the matrix" in check(op, code, json.dumps(report))


def test_checker_rejects_a_wrong_exit_code(runner):
    op = config_op(Distinct(None), "index", singrat(4, 3))
    code, out = output_of(runner, op)
    assert check(op, 2, out) == "exit 2, expected 0"


def test_checker_accepts_every_op_of_a_small_round(runner):
    for op in ops_of("classify-small", 5, 1):
        runner.run_op(op)
    assert runner.failures == []


def _bindings():
    out = {}
    for name, module in sys.modules.items():
        if name.startswith("viilattice"):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
    out[("CurveConfig", "neighbors")] = vars(viilattice.CurveConfig)["neighbors"]
    return out


def _sample_ops():
    small = ops_of("classify-small", 2, 1)[:40]
    cheap = [op for op in ops_of("enumerate-mixed", 2, 1) if op.facts.get("count") is None][:8]
    large = [op for op in ops_of("classify-large", 2, 1) if len(op.doc["curves"]) <= 24][:2]
    return small + cheap + large


def test_tracing_restores_every_binding(runner):
    before = _bindings()
    with Tracer() as tracer:
        assert viilattice.linalg.determinant is not before[("viilattice.linalg", "determinant")]
        assert viilattice.curves.determinant is viilattice.linalg.determinant
        assert viilattice.nac.find_cycles is viilattice.curves.find_cycles
        for op in _sample_ops()[:5]:
            runner.run_op(op)
    after = _bindings()
    assert tracer.calls["cli.main"] == 5
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_stdout_is_byte_identical(tmp_path):
    ops = _sample_ops()
    plain = Runner(tmp_path, [])
    untraced = [plain.run_op(op)[1:] for op in ops]
    traced_runner = Runner(tmp_path, [])
    with Tracer() as tracer:
        traced = [traced_runner.run_op(op)[1:] for op in ops]
    assert traced == untraced
    assert plain.failures == traced_runner.failures == []
    assert tracer.calls["cli.main"] == len(ops)
    assert tracer.calls["linalg.determinant"] > 0
    assert tracer.calls["homology.enumerate_representations"] > 0


def test_traced_call_counts_repeat(tmp_path):
    ops = _sample_ops()
    counts = []
    for _ in range(2):
        runner = Runner(tmp_path, [])
        with Tracer() as tracer:
            for op in ops:
                runner.run_op(op)
        counts.append((dict(tracer.calls), dict(tracer.raised), dict(tracer.counts)))
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "not found" in proc.stderr
