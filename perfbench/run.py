"""Benchmark of the viilattice command line, one workload per run.

    python3 perfbench/run.py --workload classify-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1     # every workload, one process each
    python3 perfbench/run.py --record-reference

An op is one in-process call of ``viilattice.cli.main(argv)`` with stdout
and stderr captured: configuration parsing, every layer, report assembly
and JSON encoding, which is a CLI call minus interpreter start.  The
interpreter start is measured on its own as ``setup_s``.  One client runs
the ops of a workload back to back (a closed loop) in this single-threaded
interpreter.  Each op reads a freshly generated configuration file, and
its output is checked before the next op starts; writing the file and
checking the output happen off the clock.

``--trace 0`` runs whole rounds until ``--seconds`` have passed and at
least ``min_ops`` ops are done, then reports the end-to-end metrics.
``--trace 1`` runs a fixed number of rounds untraced and as many again
traced, so its call counts depend on the seed alone, and reports the
per-layer metrics; ``--seconds`` does not apply to it.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, stamped with
the commit and the package file measured, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checker import check
from tracer import NAMES, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 21
# time of one calibrate() call on the machine where the benchmark was defined
CALIBRATION_REF_S = 0.0005
CALIBRATE_EVERY_S = 0.01  # op time per calibration sample

# per-layer self times reported as metrics: only functions that every
# workload calls, so no reported time is a constant zero
SELF_TIMED = (
    "cli.main",
    "configio.config_from_text",
    "curves.validate",
    "curves.require_valid",
    "curves.intersection_matrix",
    "curves.is_negative_definite",
    "curves.find_cycles",
    "curves.neighbors",
    "linalg.determinant",
    "linalg.leading_principal_minors",
)
EXTRA_COUNTS = (
    "nac.solve_nac.no_solution",
    "homology.enumerate_representations.orbits",
    "homology.enumerate_representations.empty",
)


def load_package():
    """Import viilattice from this checkout's src/, or refuse to run."""
    init = SRC / "viilattice" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a viilattice checkout")
    sys.path.insert(0, str(SRC))
    import viilattice
    import viilattice.cli

    if Path(viilattice.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: viilattice imported from {viilattice.__file__}, not {init}")
    return viilattice


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def stamp(package) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "viilattice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "viilattice_file": str(Path(package.__file__).resolve()),
    }


CALIBRATION_MATRIX = [[(3 * i + 5 * j) % 7 - 3 + 9 * (i == j) for j in range(7)] for i in range(7)]


def calibrate() -> float:
    """Time of fixed pure-Python work: the machine's current speed.

    An integer loop tracked the speed of the linalg-bound ops best, and a
    small fraction-free elimination (list indexing, allocation) that of
    the enumerator; the calibration does both.
    """
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i % 7
    for _ in range(9):
        a = [row[:] for row in CALIBRATION_MATRIX]
        prev = 1
        for k in range(6):
            for i in range(k + 1, 7):
                for j in range(k + 1, 7):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
    return time.perf_counter() - start


class Speed:
    """Op latencies scaled to the reference machine speed.

    A shared host's speed can drift by a quarter within minutes.  After every
    CALIBRATE_EVERY_S of op time the run times calibrate() once per such
    interval, and the ops since the previous calibration are multiplied by
    CALIBRATION_REF_S over the mean calibration time.
    """

    def __init__(self):
        self.pending: list[float] = []
        self.busy = 0.0
        self.scaled: list[float] = []
        self.samples = 0

    def add(self, latency: float) -> None:
        self.pending.append(latency)
        self.busy += latency
        count = int(self.busy / CALIBRATE_EVERY_S)
        if count:
            self.flush(count)

    def flush(self, count: int = 1) -> list[float]:
        if self.pending:
            mean = statistics.fmean(calibrate() for _ in range(count))
            self.samples += count
            self.scaled += [t * CALIBRATION_REF_S / mean for t in self.pending]
            self.pending.clear()
            self.busy = 0.0
        return self.scaled


SETUP_PROBE = (
    "import time; start = time.perf_counter(); import viilattice.cli; "
    "print(time.perf_counter() - start)"
)


def measure_setup() -> tuple[float, float, int]:
    """Median time for a fresh interpreter to import viilattice.cli, raw and scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first start may compile bytecode
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT, check=True, timeout=60,
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
        )
        elapsed = float(probe.stdout)
        speed = statistics.fmean(calibrate() for _ in range(20))
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * CALIBRATION_REF_S / speed)
    return statistics.median(raw), statistics.median(scaled), SETUP_SAMPLES


class Runner:
    """Runs ops, checks each output and keeps the round digests."""

    def __init__(self, scratch: Path, reference: list[str]):
        from viilattice import cli

        self.cli = cli
        self.path = scratch / "input.json"
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.stdout_bytes = 0
        self.digests: list[str] = []

    def run_round(self, index: int, ops, tracer: Tracer | None = None, speed: Speed | None = None) -> list[float]:
        latencies = []
        digest = hashlib.sha256()
        for op in ops:
            if tracer is not None:
                tracer.op_id = self.attempted
            elapsed, code, out = self.run_op(op)
            latencies.append(elapsed)
            if speed is not None:
                speed.add(elapsed)
            digest.update(f"{code}\n{out}\0".encode())
        hexdigest = digest.hexdigest()[:16]
        self.digests.append(hexdigest)
        if index < len(self.reference) and self.reference[index] != hexdigest:
            self.failures.append(f"round {index}: stdout differs from the recorded reference")
        return latencies

    def run_op(self, op) -> tuple[float, int | None, str]:
        if op.text is not None:
            self.path.write_text(op.text)
        argv = op.argv(str(self.path))
        out, err = io.StringIO(), io.StringIO()
        problem = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # an uncaught exception is a failed op, not a crash
                code = None
                problem = "uncaught " + traceback.format_exc().strip().splitlines()[-1]
            elapsed = time.perf_counter() - start
        stdout = out.getvalue()
        self.attempted += 1
        self.stdout_bytes += len(stdout.encode())
        problem = problem or check(op, code, stdout)
        if problem:
            self.failures.append(f"op {self.attempted - 1} {argv}: {problem}; stderr: {err.getvalue()[:200]!r}")
        return elapsed, code, stdout


def latency_metrics(latencies: list[float]) -> dict:
    n = len(latencies)
    return {
        "ops_per_s": (n / sum(latencies), "ops/s", n),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms", n),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000, "ms", n),
    }


def timed_run(workload, seed: int, seconds: float, runner: Runner) -> tuple[dict, dict]:
    setup_raw, setup_s, setup_samples = measure_setup()
    latencies: list[float] = []
    rounds = workload.rounds(seed)
    speed = Speed()
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds or len(latencies) < workload.min_ops:
        latencies += runner.run_round(index, next(rounds), speed=speed)
        index += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = speed.flush()
    metrics = {
        **latency_metrics(scaled),
        "setup_s": (setup_s, "s", setup_samples),
        "peak_rss_mib": (peak_rss_mib, "MiB", 1),
    }
    raw = {k: v for k, (v, _, _) in latency_metrics(latencies).items()}
    raw["setup_s"] = setup_raw
    extra = {
        "rounds": index,
        "speed_scale": sum(scaled) / sum(latencies),
        "calibration_samples": speed.samples,
        "unscaled": raw,
    }
    return metrics, extra


def traced_run(workload, seed: int, runner: Runner) -> tuple[dict, dict]:
    rounds = workload.rounds(seed)
    count = workload.trace_rounds
    untraced_speed, traced_speed = Speed(), Speed()
    for index in range(count):
        runner.run_round(index, next(rounds), speed=untraced_speed)
    with Tracer() as tracer:
        bytes_before = runner.stdout_bytes
        for index in range(count, 2 * count):
            runner.run_round(index, next(rounds), tracer, traced_speed)
        stdout_bytes = runner.stdout_bytes - bytes_before
    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count", 1)
        metrics[f"{name}.raised"] = (tracer.raised[name], "count", 1)
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = (tracer.self_ns[name] / 1e9, "s", tracer.calls[name])
    for name in EXTRA_COUNTS:
        metrics[name] = (tracer.counts[name], "count", 1)
    metrics["cli.main.stdout_bytes"] = (stdout_bytes, "bytes", 1)
    for label, speed in (("untraced", untraced_speed), ("traced", traced_speed)):
        metrics[f"trace.ops_per_s_{label}"] = latency_metrics(speed.flush())["ops_per_s"]
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.tsv.gz"
    tracer.write_spans(spans_path)
    extra = {
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
        "self_s_all": {name: tracer.self_ns[name] / 1e9 for name in NAMES},
    }
    return metrics, extra


def load_reference(workload_name: str, seed: int) -> list[str]:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return []
    doc = json.loads(REFERENCE.read_text())
    return doc["rounds"].get(workload_name, [])


def record_reference() -> int:
    """Record the default seed's round digests at the current commit."""
    rounds = {}
    for name, workload in WORKLOADS.items():
        with scratch_dir(name, DEFAULT_SEED) as scratch:
            runner = Runner(scratch, [])
            stream = workload.rounds(DEFAULT_SEED)
            for index in range(workload.reference_rounds):
                runner.run_round(index, next(stream))
        if runner.failures:
            print("\n".join(runner.failures[:20]), file=sys.stderr)
            return 1
        rounds[name] = runner.digests
        print(f"{name}: {len(runner.digests)} rounds, {runner.attempted} ops")
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "rounds": rounds}, indent=1) + "\n")
    return 0


@contextlib.contextmanager
def scratch_dir(name: str, seed: int):
    path = OUT / f"run-{name}-seed{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_workload(workload, args, package) -> None:
    """Run one workload, write its record and print its metrics and result line."""
    with scratch_dir(workload.name, args.seed) as scratch:
        runner = Runner(scratch, load_reference(workload.name, args.seed))
        if args.trace:
            metrics, extra = traced_run(workload, args.seed, runner)
        else:
            metrics, extra = timed_run(workload, args.seed, args.seconds, runner)
    failed = len(runner.failures)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        **stamp(package),
        "attempted": runner.attempted,
        "failed": failed,
        "error_rate": failed / runner.attempted,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        **extra,
        "failures": runner.failures[:50],
    }
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"viilattice {record['viilattice_file']} commit {record['git_commit']} src {record['src_sha256']}")
    for problem in runner.failures[:20]:
        print(f"FAILED {problem}")
    print(f"{workload.name}: error_rate = {record['error_rate']:.6g} ratio (n={runner.attempted})")
    for name, (value, unit, samples) in metrics.items():
        print(f"{workload.name}: {name} = {value:.6g} {unit} (n={samples})")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    package = load_package()
    os.environ.pop("VII_ENUM_CAP", None)  # measure the default enumeration cap
    if args.record_reference:
        return record_reference()
    if args.workload:
        run_workload(WORKLOADS[args.workload], args, package)
        return 0
    for name in WORKLOADS:  # each workload in a fresh interpreter of its own
        subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
