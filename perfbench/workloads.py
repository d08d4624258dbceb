"""Seeded op streams for the three benchmark workloads.

An op is one CLI call: a command, its extra arguments and, unless the
command is ``germ``, the text of the configuration file it reads.  A
workload is an endless sequence of rounds.  Every round of a workload has
the same composition (the same family members, the same mix of commands
and input kinds); only the order, the random members and the labelling
change from round to round.  Runs stop at round boundaries, so every run
of a workload measures the same mix whatever its seed.

No two ops of one stream carry the same configuration text.  A family
member that comes round again gets a seeded permutation of its listing
order and shifted curve ids: separate CLI calls are separate processes,
so a cache that survives from one call to the next must not be rewarded.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checker import definiteness, matrix_of

SMOOTH = "smooth_rational"
NODAL = "nodal_rational"
ELLIPTIC = "elliptic"


@dataclass(frozen=True)
class Op:
    """One CLI call and what the checker may expect of it."""

    command: str
    args: tuple[str, ...] = ()
    text: str | None = None  # configuration file contents
    doc: dict | None = None  # the same configuration, parsed; None if malformed
    exit: int = 0
    facts: dict = field(default_factory=dict)

    def argv(self, path: str) -> list[str]:
        if self.text is None:
            return [self.command, *self.args]
        return [self.command, path, *self.args]


# --- configuration documents ------------------------------------------------


def make_doc(b2: int, curves, pairs) -> dict:
    return {
        "b2": b2,
        "curves": [{"id": i, "kind": k, "self_int": s} for i, k, s in curves],
        "intersections": [[a, b, m] for a, b, m in pairs],
    }


def _ring_pairs(r: int):
    return [(min(i, (i + 1) % r), max(i, (i + 1) % r), 1) for i in range(r)]


def singrat(n: int, p: int) -> dict:
    """Nodal -(n-1)-curve with a chain of p (-2)-curves, rank n."""
    curves = [(0, NODAL, -(n - 1))] + [(i, SMOOTH, -2) for i in range(1, p + 1)]
    return make_doc(n, curves, [(i - 1, i, 1) for i in range(1, p + 1)])


def enoki(n: int, with_elliptic: bool) -> dict:
    """Square-zero cycle of rank n, optionally with the disjoint elliptic curve."""
    if n == 1:
        curves, pairs = [(0, NODAL, 0)], []
    elif n == 2:
        curves, pairs = [(0, SMOOTH, -2), (1, SMOOTH, -2)], [(0, 1, 2)]
    else:
        curves, pairs = [(i, SMOOTH, -2) for i in range(n)], _ring_pairs(n)
    if with_elliptic:
        curves.append((n, ELLIPTIC, -n))
    return make_doc(n, curves, pairs)


def ring(r: int, self_int: int) -> dict:
    return make_doc(r, [(i, SMOOTH, self_int) for i in range(r)], _ring_pairs(r))


def branched_cycle() -> dict:
    """(-2)-cycle of five with one (-3) member and a one-curve branch, rank 6."""
    curves = [(i, SMOOTH, -3 if i == 0 else -2) for i in range(6)]
    return make_doc(6, curves, _ring_pairs(5) + [(2, 5, 1)])


def random_cycle_doc(
    rng: random.Random,
    max_b2: int,
    min_b2: int = 1,
    smooth=(-2, -3, -4, -5),
    nodal=(0, -1, -2, -3, -4),
) -> dict:
    """One cycle of rational curves with trees hanging off it.

    Every tree meets the cycle in a single edge, so the dual graph always
    decomposes cleanly and no command fails on its structure.  Self
    intersections are drawn from ``smooth`` and ``nodal``; b2 is the number
    of rational curves or one more.
    """
    budget = rng.randint(min(min_b2, max_b2), max_b2)
    shapes = ["nodal"] + ["double"] * (budget >= 2) + ["ring"] * (budget >= 3)
    shape = rng.choice(shapes)
    if shape == "nodal":
        curves = [(0, NODAL, rng.choice(nodal))]
        pairs = []
    elif shape == "double":
        curves = [(0, SMOOTH, rng.choice(smooth)), (1, SMOOTH, rng.choice(smooth))]
        pairs = [(0, 1, 2)]
    else:
        r = rng.randint(3, budget)
        curves = [(i, SMOOTH, rng.choice(smooth)) for i in range(r)]
        pairs = _ring_pairs(r)
    while len(curves) < budget:
        new = len(curves)
        pairs.append((rng.randrange(new), new, 1))
        curves.append((new, SMOOTH, rng.choice(smooth)))
    if rng.random() < 0.25:
        curves.append((len(curves), ELLIPTIC, -rng.randint(1, 4)))
    return make_doc(rng.randint(budget, min(budget + 1, max_b2)), curves, pairs)


def random_definite_doc(rng: random.Random) -> dict:
    while True:
        doc = random_cycle_doc(rng, 6)
        if definiteness(matrix_of(doc)) == "definite":
            return doc


def render(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


class Distinct:
    """Hands out configuration texts never seen before in this stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[bytes] = set()

    def claim(self, key: str) -> bool:
        digest = hashlib.blake2b(key.encode(), digest_size=12).digest()
        if digest in self.seen:
            return False
        self.seen.add(digest)
        return True

    def fresh(self, doc: dict) -> tuple[dict, str]:
        candidate = doc
        while True:
            text = render(candidate)
            if self.claim(text):
                return candidate, text
            candidate = self.relabel(doc)

    def relabel(self, doc: dict) -> dict:
        """Seeded permutation of the listing order plus an id shift."""
        shift = self.rng.randrange(1, 1_000_000)
        curves = [dict(c, id=c["id"] + shift) for c in doc["curves"]]
        self.rng.shuffle(curves)
        pairs = [[a + shift, b + shift, m] for a, b, m in doc["intersections"]]
        return {"b2": doc["b2"], "curves": curves, "intersections": pairs}


def config_op(distinct: Distinct, command: str, doc: dict, args=(), exit=0, **facts) -> Op:
    doc, text = distinct.fresh(doc)
    return Op(command, tuple(args), text, doc, exit, facts)


# --- the workloads ----------------------------------------------------------


class Workload:
    """A named, seeded, endless sequence of equally composed rounds."""

    name = ""
    why = ""
    min_ops = 110  # so at least ten latencies lie beyond the 90th percentile
    trace_rounds = 1  # rounds per pass of a traced run
    reference_rounds = 1  # rounds covered by the recorded default-seed digests

    def rounds(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        distinct = Distinct(rng)
        index = 0
        while True:
            yield self.round(index, rng, distinct)
            index += 1

    def round(self, index: int, rng: random.Random, distinct: Distinct) -> list[Op]:
        raise NotImplementedError


class ClassifyLarge(Workload):
    name = "classify-large"
    why = (
        "classify on singrat n=20..60 and enoki cycles n=8..11: linalg elimination "
        "and the semidefinite minor scan dominate, homology is never called"
    )
    trace_rounds = 1
    reference_rounds = 5

    def round(self, index, rng, distinct):
        members = [(singrat(n, n - 1), "definite", True) for n in range(20, 61)]
        members += [
            (enoki(n, ell), "semidefinite", ell) for n in range(8, 12) for ell in (True, False)
        ]
        rng.shuffle(members)
        return [
            config_op(distinct, "classify", doc, definiteness=verdict, solvable=solvable)
            for doc, verdict, solvable in members
        ]


class ClassifySmall(Workload):
    name = "classify-small"
    why = (
        "distinct small configs (b2<=6) under classify, nac, index and germ, 10% invalid: "
        "per-op overhead and repeated validation dominate, linalg is nearly idle"
    )
    trace_rounds = 20
    reference_rounds = 150

    FAMILY = (
        [singrat(n, p) for n in range(2, 7) for p in range(n)]
        + [ring(r, -3) for r in range(3, 7)]
    )
    SEMIDEFINITE = [enoki(n, ell) for n in range(1, 7) for ell in (True, False)]
    INVALID = (
        ("self-int", "classify"), ("self-int", "nac"), ("self-int", "index"),
        ("rank", "classify"), ("rank", "index"), ("two-elliptic", "nac"),
        ("two-elliptic", "classify"), ("unknown-id", "index"), ("bad-json", "classify"),
        ("level-zero", "nac"),
    )

    def round(self, index, rng, distinct):
        kinds = ["definite"] * 50 + ["family"] * 15 + ["semidefinite"] * 15
        commands = ["classify"] * 40 + ["nac"] * 20 + ["index"] * 20
        rng.shuffle(kinds)
        rng.shuffle(commands)
        ops = []
        for kind, command in zip(kinds, commands):
            if kind == "definite":
                doc = random_definite_doc(rng)
            elif kind == "family":
                doc = rng.choice(self.FAMILY)
            else:
                doc = rng.choice(self.SEMIDEFINITE)
            args = ("--m", str(rng.randint(1, 4))) if command == "nac" else ()
            ops.append(config_op(distinct, command, doc, args))
        for germ in ["hopf-strong"] * 4 + ["hopf-primary"] * 3 + ["enoki"] * 3:
            ops.append(self.germ_op(rng, distinct, germ))
        for kind, command in self.INVALID:
            ops.append(self.invalid_op(rng, distinct, kind, command))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def germ_op(rng, distinct, kind) -> Op:
        def frac(lo=Fraction(0), hi=Fraction(1)) -> Fraction:
            q = rng.randint(2, 97)
            p = rng.randint(int(lo * q) + 1, max(int(lo * q) + 1, int(hi * q) - 1))
            return Fraction(p, q)

        valid_shape = rng.random() < 0.5
        while True:
            if kind == "hopf-strong":
                alpha = frac()
                a = frac(alpha * alpha, alpha) if valid_shape else frac()
                s = 0 if valid_shape else frac()
                params = {"alpha": alpha, "a": a, "s": s, "m": rng.randint(1, 3)}
            elif kind == "hopf-primary":
                alpha2 = frac()
                alpha1 = frac(Fraction(0), alpha2) if valid_shape else frac()
                s = 0 if valid_shape else frac()
                params = {"alpha1": alpha1, "alpha2": alpha2, "s": s, "m": rng.randint(1, 3)}
            else:
                tail = rng.choice(["0", "0,0", f"{frac()},0", f"0,{frac()}"])
                params = {"t": frac(), "n": rng.randint(1, 6), "a": tail}
            args = (kind, *(f"{k}={v}" for k, v in params.items()))
            if distinct.claim(" ".join(args)):
                return Op("germ", args)

    @staticmethod
    def invalid_op(rng, distinct, kind, command) -> Op:
        """An input the command must refuse with exit 1."""
        doc = random_cycle_doc(rng, 6)
        curves = doc["curves"]
        if kind == "level-zero":
            return config_op(distinct, command, doc, ("--m", "0"), exit=1)
        if kind == "self-int":
            victim = rng.choice(curves)
            victim["self_int"] = rng.choice([-1, 0, 1]) if victim["kind"] == SMOOTH else rng.randint(1, 3)
        elif kind == "rank":
            rational = sum(1 for c in curves if c["kind"] != ELLIPTIC)
            doc["b2"] = rational - 1
        elif kind == "two-elliptic":
            doc["curves"] = [c for c in curves if c["kind"] != ELLIPTIC] + [
                {"id": len(curves) + i, "kind": ELLIPTIC, "self_int": -rng.randint(1, 4)}
                for i in range(2)
            ]
        elif kind == "unknown-id":
            doc["intersections"].append([curves[0]["id"], len(curves) + 7, 1])
        if kind != "bad-json":
            return config_op(distinct, command, doc, exit=1)
        while True:
            text = render(doc)
            text = text[: rng.randrange(1, len(text) - 2)]
            if distinct.claim(text):
                return Op(command, (), text, None, 1)
            doc = distinct.relabel(doc)


def _cheap_pool(slices: int) -> list[list[dict]]:
    small = [enoki(n, ell) for n in (3, 4) for ell in (True, False)]
    small += [singrat(3, 2), singrat(4, 3), ring(3, -3), ring(4, -3)]
    draw = random.Random("enumerate-mixed cheap cycles")
    return [
        [small[(4 * s + i) % len(small)] for i in range(4)]
        + [random_cycle_doc(draw, 4, 3, smooth=(-2, -2, -2, -3), nodal=(-1, -2, -3)) for _ in range(24)]
        for s in range(slices)
    ]


class EnumerateMixed(Workload):
    name = "enumerate-mixed"
    why = (
        "enumerate on b2=3..6: 80% cheap cycles (b2<=4), 20% orbit-rich or empty-search "
        "members; homology search and canonicalisation dominate, linalg is idle"
    )
    # five rounds put the 90th percentile mid-way through the five copies of
    # one heavy member rather than among four
    min_ops = 5 * 35
    trace_rounds = 2
    reference_rounds = 8

    # (configuration, representation count at the time the benchmark was defined)
    HEAVY = [
        (enoki(5, True), 2),
        (enoki(5, False), 2),
        (singrat(5, 4), 1),
        (singrat(6, 5), 1),
        (ring(5, -3), 2),
        (ring(6, -3), 0),
        (branched_cycle(), 0),
    ]

    # The median op is a cheap one.  A fresh random draw per seed moved the
    # median by a third from seed to seed, and a few configurations repeated
    # every round leave gaps around it.  So the cheap ops come from a fixed
    # pool, the same for every seed: round i takes slice i mod 6, four small
    # members with representations (random cycles mostly have none) and 24
    # random cycles.
    CHEAP = _cheap_pool(slices=6)

    def round(self, index, rng, distinct):
        docs = [(doc, {"count": count}) for doc, count in self.HEAVY]
        docs += [(doc, {}) for doc in self.CHEAP[index % len(self.CHEAP)]]
        ops = [config_op(distinct, "enumerate", doc, **facts) for doc, facts in docs]
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (ClassifyLarge(), ClassifySmall(), EnumerateMixed())}
