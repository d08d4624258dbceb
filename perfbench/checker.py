"""Independent checks of one CLI call's output.

Everything here is recomputed from the configuration document with the
benchmark's own integer and ``Fraction`` arithmetic; nothing is imported
from the package under test.  ``check`` returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

ELLIPTIC = "elliptic"
NODAL = "nodal_rational"
SMOOTH = "smooth_rational"

# exact definiteness costs 2^n minors once the leading ones fail; above
# this size the checker relies on the facts the generator attached
SMALL = 8


def matrix_of(doc: dict) -> list[list[int]]:
    """Intersection matrix in listing order."""
    index = {c["id"]: i for i, c in enumerate(doc["curves"])}
    n = len(index)
    matrix = [[0] * n for _ in range(n)]
    for i, c in enumerate(doc["curves"]):
        matrix[i][i] = c["self_int"]
    for a, b, m in doc["intersections"]:
        matrix[index[a]][index[b]] = m
        matrix[index[b]][index[a]] = m
    return matrix


def rhs_of(doc: dict, m: int) -> list[int]:
    """-m times the adjunction degree of each curve."""
    return [
        -m * ((-2 - c["self_int"]) if c["kind"] == SMOOTH else -c["self_int"])
        for c in doc["curves"]
    ]


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            if f:
                for c in range(k, n):
                    a[r][c] -= f * a[k][c]
    return det


def definiteness(matrix) -> str | None:
    """'definite', 'semidefinite' or 'neither' for the negative form.

    Definite when Gaussian elimination of -M without pivoting meets only
    positive pivots; semidefinite when every principal minor of -M is
    non-negative.  None for a matrix too large for the minor scan.
    """
    n = len(matrix)
    neg = [[-x for x in row] for row in matrix]
    a = [[Fraction(x) for x in row] for row in neg]
    for k in range(n):
        if a[k][k] <= 0:
            break
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
    else:
        return "definite"
    if n > SMALL:
        return None
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if _det([[neg[i][j] for j in subset] for i in subset]) < 0:
                return "neither"
    return "semidefinite"


def solve(matrix, rhs) -> list[Fraction] | None:
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(matrix, rhs)]
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        for r in range(n):
            if r != k and a[r][k]:
                f = a[r][k] / a[k][k]
                for c in range(k, n + 1):
                    a[r][c] -= f * a[k][c]
    return [a[i][n] / a[i][i] for i in range(n)]


def expected_nac(doc: dict, m: int, verdict: str | None):
    """The level-m coefficients the solver must accept, or None for no solution."""
    matrix = matrix_of(doc)
    rhs = rhs_of(doc, m)
    if verdict == "definite":
        k = solve(matrix, rhs)
    elif verdict == "semidefinite" and any(c["kind"] == ELLIPTIC for c in doc["curves"]):
        k = [Fraction(m)] * len(matrix)  # the parabolic candidate
    else:
        return None
    if k is None or _residual(matrix, k, rhs) or sum(x * r for x, r in zip(k, rhs)) != -m * m * doc["b2"]:
        return None
    return k


def _residual(matrix, k: list[Fraction], rhs) -> bool:
    """True when M k != rhs, computed over the integers."""
    scale = math.lcm(*(x.denominator for x in k)) if k else 1
    ints = [int(x * scale) for x in k]
    return any(
        sum(mij * kj for mij, kj in zip(row, ints)) != r * scale
        for row, r in zip(matrix, rhs)
    )


def _check_nac(section: dict, doc: dict, m: int, matrix) -> tuple[str | None, list | None]:
    if section.get("m") != m:
        return f"nac level {section.get('m')} != {m}", None
    if section["status"] != "solved":
        return None, None
    k = [Fraction(x) for x in section["coeffs"]]
    rhs = rhs_of(doc, m)
    if len(k) != len(matrix) or _residual(matrix, k, rhs):
        return f"level-{m} coefficients do not solve M k = rhs", None
    square = sum(x * r for x, r in zip(k, rhs))  # k.M.k once M k = rhs
    if square != -m * m * doc["b2"] or section["self_int_check"] != square:
        return f"level-{m} square {square} != -m^2 b2", None
    index = math.lcm(*((x / m).denominator for x in k))
    if section["index"] != index:
        return f"level-{m} index {section['index']} != lcm of denominators {index}", None
    if section["effective"] != all(x > 0 for x in k):
        return f"level-{m} effective flag is wrong", None
    return None, k


def _sigma(doc: dict):
    rational = [c for c in doc["curves"] if c["kind"] != ELLIPTIC]
    if len(rational) < doc["b2"]:
        return None
    n = doc["b2"]
    sigma = sum(-c["self_int"] for c in rational) + 2 * sum(c["kind"] == NODAL for c in rational)
    if sigma == 2 * n:
        verdict = "enoki_class"
    elif 2 * n < sigma < 3 * n:
        verdict = "intermediate"
    elif sigma == 3 * n:
        verdict = "inoue_hirzebruch"
    else:
        verdict = "out_of_range"
    return sigma, verdict


def _verdict(op, matrix) -> str | None:
    return op.facts.get("definiteness") or (definiteness(matrix) if len(matrix) <= SMALL else None)


def _compare_expected(op, m, matrix, got_k) -> str | None:
    verdict = _verdict(op, matrix)
    if verdict is None or (verdict == "definite" and got_k is not None):
        return None  # a definite form has one solution, and got_k solves it
    want = expected_nac(op.doc, m, verdict)
    if want != got_k:
        return f"level-{m} answer {got_k} != expected {want}"
    return None


def check_classify(op, out: dict) -> str | None:
    if not out["validation"]["valid"]:
        return "a valid configuration was reported invalid"
    matrix = matrix_of(op.doc)
    if out["matrix"] != matrix:
        return "matrix differs from the configuration"
    verdict = _verdict(op, matrix)
    if verdict is not None and out["definiteness"] != verdict:
        return f"definiteness {out['definiteness']} != {verdict}"
    sigma = _sigma(op.doc)
    section = out["sigma_classification"]
    if sigma is None:
        if "error" not in section:
            return "sigma reported for an incomplete configuration"
    elif (section.get("sigma"), section.get("verdict")) != sigma:
        return f"sigma {section.get('sigma')}/{section.get('verdict')} != {sigma}"
    problem, k = _check_nac(out["nac"], op.doc, 1, matrix)
    if problem is None:
        problem = _compare_expected(op, 1, matrix, k)
    if problem is None and "solvable" in op.facts and (k is not None) != op.facts["solvable"]:
        problem = "solvability differs from the family's"
    if problem or k is None:
        return problem
    index = out["nac"]["index"]
    if index > 1:
        problem, k_at = _check_nac(out["nac_at_index"], op.doc, index, matrix)
        if problem:
            return problem
        if k_at != [index * x for x in k] or any(x.denominator != 1 for x in k_at):
            return "coefficients at the index are not the integral multiple"
    stars = out["star_recurrence"]
    if not stars["ok"] or any(Fraction(c["lhs"]) != Fraction(c["rhs"]) for c in stars["checks"]):
        return "star recurrence fails on an accepted solution"
    return None


def check_nac(op, out: dict) -> str | None:
    m = int(op.args[op.args.index("--m") + 1])
    matrix = matrix_of(op.doc)
    problem, k = _check_nac(out["nac"], op.doc, m, matrix)
    return problem or _compare_expected(op, m, matrix, k)


def check_index(op, out: dict) -> str | None:
    matrix = matrix_of(op.doc)
    verdict = _verdict(op, matrix)
    if verdict is None:
        return None
    k = expected_nac(op.doc, 1, verdict)
    want = None if k is None else math.lcm(*(x.denominator for x in k))
    if out["index"] != want:
        return f"index {out['index']} != {want}"
    return None


def check_enumerate(op, out: dict) -> str | None:
    reps = out["representations"]
    if out["count"] != len(reps) or out["truncated"]:
        return "count does not match the listed representations"
    if "count" in op.facts and out["count"] != op.facts["count"]:
        return f"{out['count']} representations, expected {op.facts['count']}"
    matrix = matrix_of(op.doc)
    ids = [c["id"] for c in op.doc["curves"]]
    for rep in reps:
        if [c["curve"] for c in rep["classes"]] != ids:
            return "classes are not in listing order"
        vectors = [c["coeffs"] for c in rep["classes"]]
        for i, j in itertools.product(range(len(ids)), repeat=2):
            if -sum(x * y for x, y in zip(vectors[i], vectors[j])) != matrix[i][j]:
                return f"class pairing ({ids[i]}, {ids[j]}) does not reproduce the matrix"
        if not all(v["ok"] for v in rep["verification"]):
            return "a listed representation fails its own verification"
    return None


def _germ_valid(kind: str, p: dict) -> bool:
    if kind == "hopf-strong":
        alpha, a, s, m = p["alpha"], p["a"], p["s"], int(p["m"])
        a2, t2 = alpha * alpha, a * a
        return a2 > 0 and a2 * a2 <= t2 and t2 < a2 < 1 and (a**m - alpha ** (m + 1)) * s == 0
    alpha1, alpha2, s, m = p["alpha1"], p["alpha2"], p["s"], int(p["m"])
    m1, m2 = alpha1 * alpha1, alpha2 * alpha2
    return m1 > 0 and m1 <= m2 < 1 and (alpha2**m - alpha1) * s == 0


def check_germ(op, out: dict) -> str | None:
    kind = op.args[0]
    params = dict(arg.split("=", 1) for arg in op.args[1:])
    if out["kind"] != kind:
        return "germ kind differs"
    if kind != "enoki":
        p = {k: Fraction(v) for k, v in params.items()}
        if out["valid"] != _germ_valid(kind, p):
            return f"germ verdict {out['valid']} is wrong"
        return None
    n = int(params["n"])
    parabolic = all(Fraction(x) == 0 for x in params["a"].split(","))
    config = out["config"]
    if (out["parabolic"], out["has_nac"]) != (parabolic, parabolic):
        return "enoki parabolic flags are wrong"
    if config["b2"] != n or len(config["curves"]) != n + parabolic:
        return "realized enoki configuration has the wrong shape"
    return None


CHECKS = {
    "classify": check_classify,
    "nac": check_nac,
    "index": check_index,
    "enumerate": check_enumerate,
    "germ": check_germ,
}


def check(op, code: int, stdout: str) -> str | None:
    """None when the call behaved as the op expects, else the reason."""
    if code != op.exit:
        return f"exit {code}, expected {op.exit}"
    try:
        out = json.loads(stdout) if stdout else None
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if op.exit != 0:
        # only classify reports an invalid configuration on stdout
        if out is not None and out.get("validation", {}).get("valid") is not False:
            return "refused input printed a report that is not a validation failure"
        return None
    if out is None or out.get("command") != op.command:
        return "missing report"
    try:
        return CHECKS[op.command](op, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {exc!r}"
