"""Each demo script runs clean, with warnings as errors, in a fresh interpreter
that finds the package through PYTHONPATH=src, as CI's demo smoke step runs it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_there():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout and not done.stderr


def _library_snippet() -> list[str]:
    """The lines of the first python block under the README's "Library" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines()


def test_readme_library_snippet_states_its_values():
    # each bare expression's comment opens with its value, up to any ": "
    # that starts an explanation; the snippet runs in order, so it cannot drift
    namespace: dict = {}
    exec("from fractions import Fraction", namespace)
    stated = 0
    for line in _library_snippet():
        code, _, comment = line.partition("#")
        code = code.strip()
        if not code:
            continue
        try:
            compiled = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        value = eval(compiled, namespace)
        if comment.strip():
            want = eval(comment.strip().split(": ", 1)[0], namespace)
            assert value == want, line
            stated += 1
    assert stated == 3
