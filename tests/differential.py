"""Run one fixed corpus of command lines through two source trees and compare
what each prints.

    python tests/differential.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the viilattice package, such
as the src/ of two checkouts.  The corpus is built once, from NEW_SRC and the
test builders beside this script, into a temporary directory.  Each tree
then runs every command line through viilattice.cli.main in a subprocess of
its own.  The script prints the first command line whose (exit, stdout,
stderr) differ, with a diff of the two reports, and exits 1.  Otherwise it
prints the number of command lines and one sha256 per group, and exits 0.
A group of tests/test_cli.py's pinned corpus gets the digest pinned there.
"""

import contextlib
import difflib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# every configuration group runs these, and enumerate too up to the default cap
CONFIG_COMMANDS = (["classify"], ["index"], ["nac", "--m", "1"], ["nac", "--m", "2"], ["nac", "--m", "3"])
ENUMERATE_UP_TO = 8


def build(directory: Path) -> list[tuple[str, list[str]]]:
    """(group, command line) of the whole corpus, with the configuration
    files written into directory."""
    import test_cli
    import test_peel
    from test_gss import corpus

    from viilattice import (
        NODAL_RATIONAL,
        SMOOTH_RATIONAL,
        Curve,
        CurveConfig,
        config_to_text,
        enoki_cycle_config,
        gss_config,
        singrat_config,
    )

    calls = [
        (group, argv)
        for group in sorted(test_cli.PINNED_SHA256)
        for argv in test_cli.corpus_calls(group, directory)
    ]

    def add(group: str, configs) -> None:
        for k, config in enumerate(configs):
            path = directory / f"{group}{k}.json"
            path.write_text(config_to_text(config))
            commands = CONFIG_COMMANDS + ((["enumerate"],) if config.b2 <= ENUMERATE_UP_TO else ())
            calls.extend((group, [command[0], str(path), *command[1:]]) for command in commands)

    add(
        "words-8",
        [
            CurveConfig(config.b2, config.curves[::step], config.intersections)
            for n in range(1, 9)
            for config in map(gss_config, corpus(n))
            for step in (1, -1)
        ],
    )
    add("singrat-60", [singrat_config(n, p) for n in range(1, 61) for p in range(n)])
    add("enoki-30", [enoki_cycle_config(n, e) for n in range(1, 31) for e in (False, True)])
    # a ring needs three curves to meet each neighbour once
    add("rings-8", [test_cli._ring(r, -3) for r in range(3, 9)])
    rng = random.Random(0)
    add("random-300", [test_peel.random_config(rng) for _ in range(300)])
    # a nodal (-1)-curve meeting a centre of square -42 that meets 40 (-2)-curves,
    # and a centre of square -42 meeting 40 nodal (-3)-curves; centres first
    d = 40
    centre_first = (Curve(1, SMOOTH_RATIONAL, -(d + 2)), Curve(0, NODAL_RATIONAL, -1))
    centre_first += tuple(Curve(i, SMOOTH_RATIONAL, -2) for i in range(2, d + 2))
    nodal = (Curve(0, SMOOTH_RATIONAL, -(d + 2)),)
    nodal += tuple(Curve(i, NODAL_RATIONAL, -3) for i in range(1, d + 1))
    add(
        "stars-40",
        [
            CurveConfig(d + 2, centre_first, ((0, 1, 1),) + tuple((1, i, 1) for i in range(2, d + 2))),
            CurveConfig(d + 1, nodal, tuple((0, i, 1) for i in range(1, d + 1))),
        ],
    )
    calls += [("germ-grid", argv) for argv in test_cli.hopf_grid()]
    return calls


def run(calls: list[tuple[str, list[str]]]) -> dict:
    """The sha256 of (exit, stdout, stderr) of each command line, and of
    each group's in order; an exception main lets escape is its outcome."""
    from viilattice.cli import main

    lines, groups = [], {}
    for group, argv in calls:
        outcome = repr(_outcome(main, argv)).encode()
        lines.append(hashlib.sha256(outcome).hexdigest())
        groups.setdefault(group, hashlib.sha256()).update(outcome)
    return {"lines": lines, "groups": {group: d.hexdigest() for group, d in groups.items()}}


def _outcome(main, argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _worker(src: str, *args: str) -> subprocess.Popen:
    """This script in a subprocess that imports viilattice from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(TESTS)]))
    env.pop("VII_ENUM_CAP", None)
    return subprocess.Popen([sys.executable, __file__, *args], env=env, stdout=subprocess.PIPE)


def _finish(worker: subprocess.Popen) -> bytes:
    out, _ = worker.communicate()
    if worker.returncode:
        sys.exit(f"a worker exited {worker.returncode}: {worker.args}")
    return out


def compare(old: str, new: str) -> int:
    with tempfile.TemporaryDirectory() as workdir:
        calls_file = Path(workdir) / "calls.json"
        _finish(_worker(new, "--build", workdir, str(calls_file)))
        calls = json.loads(calls_file.read_text())
        workers = [_worker(src, "--run", str(calls_file)) for src in (old, new)]
        before, after = (json.loads(_finish(worker)) for worker in workers)
        for k, (group, argv) in enumerate(calls):
            if before["lines"][k] != after["lines"][k]:
                print(f"differs, {group} line {k}: {' '.join(argv)}")
                texts = [_finish(_worker(src, "--show", json.dumps(argv))).decode() for src in (old, new)]
                sys.stdout.writelines(difflib.unified_diff(*(t.splitlines(True) for t in texts), old, new))
                return 1
    print(f"{len(calls)} command lines, no difference")
    for group, digest in after["groups"].items():
        print(f"{group:12} {digest}")
    return 0


def main(args: list[str]) -> int:
    if args[:1] == ["--build"]:
        calls = build(Path(args[1]))
        Path(args[2]).write_text(json.dumps(calls))
    elif args[:1] == ["--run"]:
        calls = json.loads(Path(args[1]).read_text())
        sys.stdout.write(json.dumps(run(calls)))
    elif args[:1] == ["--show"]:
        from viilattice.cli import main as cli_main

        code, out, err = _outcome(cli_main, json.loads(args[1]))
        sys.stdout.write(f"exit {code}\n--- stdout\n{out}--- stderr\n{err}")
    elif len(args) == 2:
        return compare(*args)
    else:
        sys.exit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
