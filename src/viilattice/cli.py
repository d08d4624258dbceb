"""Command line interface.

Commands:

    viilattice classify <file>
    viilattice nac <file> --m <int>
    viilattice index <file>
    viilattice enumerate <file> --max-solutions <int>
    viilattice germ <kind> <key=value ...>
    viilattice selftest [--seed <int>]

Reports go to standard output as JSON (selftest prints plain lines),
errors to standard error.  Rational numbers are rendered exactly as
"p/q" strings, never as decimals.  Exit codes: 0 success, 1 invalid
input, 2 internal inconsistency, 3 enumeration cap refusal.  An integer
beyond the interpreter's int/str digit limit is invalid input.  The
environment variable VII_ENUM_CAP overrides the enumeration cap.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import types
from fractions import Fraction

from .configio import config_to_doc, load_config
from .curves import (
    CurveConfig,
    _Frozen,
    find_cycles,
    sigma_classify,
    validate,
)
from .errors import (
    ConfigParseError,
    DomainError,
    EnumerationCapError,
    InvalidConfigError,
    StructureError,
)
from .germs import (
    EnokiGerm,
    ExactComplex,
    HopfGermPrimary,
    HopfGermStrong,
    is_contracting,
    is_parabolic,
    realize_enoki,
    validate_primary,
    validate_strong,
)
from .homology import _verify, enumerate_representations
from .lattice import LatticeClass
from .nac import NacSolution, NoSolution, nac_structure_report, solve_nac, star_rows

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2
EXIT_CAP = 3

# each Hopf kind: its germ class, whose _fields name the parameters, and the
# validator of that class
HOPF_KINDS = {
    "hopf-strong": (HopfGermStrong, validate_strong),
    "hopf-primary": (HopfGermPrimary, validate_primary),
}
GERM_KINDS = (*HOPF_KINDS, "enoki")


def main(argv: list[str] | None = None) -> int:
    # argparse reads sys.argv[1:] for None and a list of any other iterable
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse indexes its tokens: anything but a str would escape as a TypeError
    if bad := [type(token).__name__ for token in argv if not isinstance(token, str)]:
        print(f"refused: command-line arguments must be strings, got {bad[0]}", file=sys.stderr)
        return EXIT_INVALID
    args = _plain_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits with its own status 2 on usage errors; fold that
            # into the invalid-input code and keep 2 for real inconsistencies
            return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        return args.run(args)
    except EnumerationCapError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    except _InternalError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INTERNAL
    except (
        ConfigParseError,
        InvalidConfigError,
        DomainError,
        StructureError,
        OSError,
    ) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        # the interpreter refuses to read or print an int beyond its digit limit
        if "integer string conversion" not in str(exc):
            raise
        print(
            f"refused: an integer in the input or the report has more than "
            f"{sys.get_int_max_str_digits()} digits",
            file=sys.stderr,
        )
        return EXIT_INVALID


@functools.cache
def _build_parser():
    """The argparse parser of the command table, for the command lines
    _plain_args leaves to it: help, usage errors and the rest."""
    import argparse  # here: a plain command line neither imports nor builds it

    parser = argparse.ArgumentParser(
        prog="viilattice",
        description="Exact lattice invariants of curve configurations on "
        "minimal class-VII surfaces with positive second Betti number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.set_defaults(run=run)
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
    return parser


def _grammar(command: str, run, arguments: list):
    """(namespace defaults, positional slots, {option string: slot}) of one
    command of the table, where the slot of an argument is its (dest, nargs,
    type, choices); or None unless each argument reads exactly one token, or
    is a last positional with nargs="*" and no default on a command without
    options.  The table names no action, so such an argument stores its
    token, converted by its type and checked against its choices, under its
    dest; the "*" positional stores the list of the rest."""
    defaults, positionals, options = {"command": command}, [], {}
    for name, keywords in arguments:
        option = name.startswith("-")
        # argparse's dest of a positional, or of an option's one long string
        dest = name.lstrip("-").replace("-", "_") if option else name
        defaults[dest] = keywords.get("default")
        slot = (dest, keywords.get("nargs"), keywords.get("type"), keywords.get("choices"))
        if option:
            options[name] = slot
        else:
            positionals.append(slot)
    defaults["run"] = run
    last = positionals[-1] if positionals else (None, None)
    star = not options and (last[1], defaults.get(last[0])) == ("*", None)
    if any(slot[1] is not None for slot in [*positionals[: -1 if star else None], *options.values()]):
        return None
    return defaults, positionals, options


def _plain_args(argv: list) -> types.SimpleNamespace | None:
    """The namespace parse_args(argv) returns, for an argv of a command name
    followed by each of its positionals and any of its exact option strings
    with a value; None for every other argv, which parse_args reads.  So
    help, usage errors, abbreviations, "--", "--m=2", a token past the
    command that starts with "-" and a value outside its choices stay with
    argparse."""
    if not argv or any(type(token) is not str for token in argv):
        return None
    grammar = _GRAMMARS.get(argv[0])
    if grammar is None:
        return None
    defaults, positionals, options = grammar
    values = dict(defaults)
    positionals = iter(positionals)
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            slot = options.get(token)
            if slot is None:
                slot = next(positionals)
            else:
                token = next(tokens)
            dest, nargs, _, _ = slot
            if nargs is None:
                values[dest] = _token_value(slot, token)
            else:
                values[dest] = [_token_value(slot, t) for t in (token, *tokens)]
        for dest, nargs, _, _ in positionals:
            if nargs is None:
                return None
            values[dest] = []
    except (StopIteration, TypeError, ValueError):
        return None
    return types.SimpleNamespace(**values)


def _token_value(slot: tuple, token: str):
    """token as parse_args stores it for the argument of slot; ValueError (or
    the TypeError or ValueError of its type) for a token it reads otherwise
    or refuses."""
    if token.startswith("-"):
        raise ValueError(token)
    _, _, convert, choices = slot
    value = token if convert is None else convert(token)
    if choices is not None and value not in choices:
        raise ValueError(token)
    return value


def _emit(doc: dict) -> None:
    """Print a report as json.dumps(indent=2) would, in one write, with a
    _Matrix as the list of its rows.  Rationals are exact "p/q" strings
    (integers without the slash): the NAC sections hold theirs already
    rendered by _ratio, and a Fraction is written as the same string."""
    sys.stdout.write(_write(doc, "\n") + "\n")


def _write(value, newline: str) -> str:
    """Return the indented JSON text of value; newline is the line break and
    indentation that close value.  An item whose exact type is in _LEAVES is
    rendered where it stands, so only containers, a _Matrix or _Records (one
    call for the whole list) and table misses cost a call."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # report keys are str; any other raises TypeError
        parts = [
            f"{_quote(key)}: {leaf(item) if (leaf := _LEAVES.get(type(item))) else _write(item, inner)}"
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [
            leaf(item) if (leaf := _LEAVES.get(type(item))) else _write(item, inner)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if isinstance(value, (_Matrix, _Records)):
        return value.text(newline)
    # a table miss (a float, a subclass) as json writes it; TypeError for
    # what json cannot encode
    return _LEAVES.get(type(value), json.dumps)(value)


_quote = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}
_LEAVES = {
    int: int.__repr__,
    str: _quote,
    bool: _CONSTANTS.__getitem__,
    type(None): _CONSTANTS.__getitem__,
    Fraction: lambda value: _quote(str(value)),
}


class _Matrix:
    """intersection_matrix(config) for _write, which writes each row from the
    nonzeros: a copy of a row of "0" with the diagonal and the meetings set."""

    def __init__(self, config: CurveConfig):
        self.config = config

    def text(self, newline: str) -> str:
        curves, position, adj = self.config.curves, self.config._position, self.config._adj
        if not curves:
            return "[]"
        inner, cell = newline + "  ", newline + "    "
        zeros = ["0"] * len(curves)
        rows = []
        for a, c in enumerate(curves):
            row = zeros.copy()
            row[a] = int.__repr__(c.self_int)
            for other, m in adj[c.id]:
                row[position[other]] = int.__repr__(m)
            rows.append("[" + cell + ("," + cell).join(row) + inner + "]")
        return "[" + inner + ("," + inner).join(rows) + newline + "]"


# not a tuple: _write tests for a list or tuple before it tests for _Records
class _Records(_Frozen):
    """A table for _write, which writes the whole list of records from one
    %-format string filled with the JSON text of the values.  rows holds one
    tuple of values per record, in the order of keys: a library record whose
    fields, in order, the keys name is such a tuple."""

    __slots__ = _fields = ("keys", "rows")

    # a one-record table costs no more than a dict: slots set like Curve's
    def __init__(self, keys: tuple[str, ...], rows):
        _set_keys(self, keys)
        _set_rows(self, rows)

    def text(self, newline: str) -> str:
        if not self.rows:
            return "[]"
        first, more = _record_format(self.keys, newline)
        cell = newline + "    "
        items = [item for row in self.rows for item in row]
        texts = [leaf(v) if (leaf := _LEAVES.get(type(v))) else _write(v, cell) for v in items]
        return (first + more * (len(self.rows) - 1) + newline + "]") % tuple(texts)


_set_keys, _set_rows = (getattr(_Records, name).__set__ for name in _Records._fields)


@functools.cache
def _record_format(keys: tuple[str, ...], newline: str) -> tuple[str, str]:
    """The %-format of a table's opening bracket and first record, and of
    each further record.  cli writes a fixed set of tables at a fixed set of
    depths, so the cache stays small."""
    inner, cell = newline + "  ", newline + "    "
    fields = ("," + cell).join(_quote(key).replace("%", "%%") + ": %s" for key in keys)
    record = "{" + cell + fields + inner + "}" if keys else "{}"
    return "[" + inner + record, "," + inner + record


# --- shared report sections ---------------------------------------------------


def _checked(config: CurveConfig, sol):
    """sol, once a solution's square is recomputed from the stored
    intersection numbers, before any section is built from it.  A mismatch
    means the solver and the report pipeline disagree, which is an internal
    error.  Over the common denominator unit the sum is over integers, and
    square / unit^2 is the square of D_m / m, which is K^2 = -b2."""
    if isinstance(sol, NoSolution):
        return sol
    m, scaled, unit, position = sol.m, sol.scaled, sol.index, config._position
    square = sum([c.self_int * v * v for c, v in zip(config.curves, scaled)]) + 2 * sum(
        [v * scaled[position[i]] * scaled[position[j]] for i, j, v in config.intersections]
    )
    if square != -config.b2 * unit * unit or sol.square != -config.b2:
        raise _InternalError(
            "solver self-intersection check failed: "
            f"{Fraction(square * m * m, unit * unit)} vs {m * m * sol.square}"
        )
    return sol


def _nac_section(sol: NacSolution | NoSolution, m: int) -> dict:
    """The report of sol at level m."""
    if isinstance(sol, NoSolution):
        return {"m": m, "status": "no_solution", "reason": sol.reason}
    unit = sol.index
    if m % unit:
        coeffs = [_ratio(m * v, unit) for v in sol.scaled]
    else:  # integers at a level the index divides
        step = m // unit
        coeffs = [str(step * v) for v in sol.scaled]
    return {
        "m": m,
        "status": "solved",
        "coeffs": coeffs,
        "index": sol.index,
        "effective": sol.effective,
        "self_int_check": m * m * sol.square,
        "parabolic": sol.parabolic,
    }


def _structure_sections(config: CurveConfig, sol: NacSolution) -> dict:
    """The structure and star-recurrence sections of sol: nac_structure_report,
    and verify_star_recurrence's checks from star_rows' integer rows."""
    report = nac_structure_report(config, sol)
    unit, checks, ok = sol.index, [], True
    for cid, lhs, rhs in star_rows(config, sol):
        # lhs == rhs on every row of an exact solution, and one ratio serves both
        ratio = _ratio(lhs, unit)
        if lhs == rhs:
            checks.append((cid, ratio, ratio, True))
        else:
            checks.append((cid, ratio, _ratio(rhs, unit), False))
            ok = False
    return {
        "structure": {
            "ok": report.ok,
            "inoue_ih_signature": report.inoue_ih_signature,
            "cycles": _Records(
                ("members", "min_coeff", "max_coeff", "unit_cycle", "max_at_branch_root", "violations"),
                report.cycles,
            ),
        },
        "star_recurrence": {"ok": ok, "checks": _Records(("curve", "lhs", "rhs", "ok"), checks)},
    }


def _ratio(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, without building the Fraction."""
    g = math.gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _cycles_section(config: CurveConfig):
    try:
        cycles = find_cycles(config)
    except StructureError as exc:
        return {"error": str(exc)}
    return _Records(
        ("members", "length", "branches"),
        [(r.member_ids, r.length, _Records(("root", "members"), r.branches)) for r in cycles],
    )


def _sigma_section(config: CurveConfig):
    try:
        cls = sigma_classify(config)
    except (DomainError, StructureError) as exc:
        return {"error": str(exc)}
    return cls._asdict()


class _InternalError(RuntimeError):
    pass


# --- commands -----------------------------------------------------------------


def _cmd_classify(args) -> int:
    config = load_config(args.file)
    report = validate(config)
    doc: dict = {
        "command": "classify",
        "validation": {"valid": report.valid, "issues": _Records(("message", "curve"), report.issues)},
    }
    if not report.valid:
        _emit(doc)
        return EXIT_INVALID
    doc["matrix"] = _Matrix(config)
    doc["definiteness"] = config.elimination[0]
    doc["cycles"] = _cycles_section(config)
    doc["sigma_classification"] = _sigma_section(config)
    # k/m does not depend on m, so one solution serves both levels
    sol = _checked(config, solve_nac(config, 1))
    doc["nac"] = _nac_section(sol, 1)
    if not isinstance(sol, NoSolution):
        if sol.index > 1:
            doc["nac_at_index"] = _nac_section(sol, sol.index)
        doc.update(_structure_sections(config, sol))
    _emit(doc)
    return EXIT_OK


def _cmd_nac(args) -> int:
    config = load_config(args.file)
    doc: dict = {"command": "nac"}
    sol = _checked(config, solve_nac(config, args.m))
    doc["nac"] = _nac_section(sol, args.m)
    if not isinstance(sol, NoSolution):
        doc.update(_structure_sections(config, sol))
    _emit(doc)
    return EXIT_OK


def _cmd_index(args) -> int:
    config = load_config(args.file)
    sol = solve_nac(config, 1)
    if isinstance(sol, NoSolution):
        _emit({"command": "index", "index": None, "reason": sol.reason})
    else:
        _emit({"command": "index", "index": sol.index})
    return EXIT_OK


def _enum_cap() -> int | None:
    raw = os.environ.get("VII_ENUM_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigParseError(f"VII_ENUM_CAP must be an integer, got {raw!r}")
    if cap < 0:
        raise DomainError(f"VII_ENUM_CAP must be a non-negative integer, got {cap}")
    return cap


def _cmd_enumerate(args) -> int:
    limit = args.max_solutions
    if limit is not None and limit < 0:
        raise DomainError(f"--max-solutions must be a non-negative integer, got {limit}")
    config = load_config(args.file)
    reps = enumerate_representations(config, cap=_enum_cap())
    truncated = limit is not None and limit < len(reps)
    shown = reps[:limit] if truncated else reps
    entries = []
    for rep in shown:
        verification, forms = _verify(config, rep)
        if not verification.ok:
            raise _InternalError("enumerated representation failed re-verification")
        triples = zip(config.curves, rep.classes, forms)
        rows = [(c.id, k.coeffs, k.torsion2, _render_class(k, f)) for c, k, f in triples]
        classes = _Records(("curve", "coeffs", "torsion2", "pattern"), rows)
        entries.append((rep.odd_ih, classes, _Records(("name", "ok", "detail"), verification.results)))
    _emit(
        {
            "command": "enumerate",
            "count": len(reps),
            "truncated": truncated,
            "representations": _Records(("odd_ih", "classes", "verification"), entries),
        }
    )
    return EXIT_OK


def _render_class(klass: LatticeClass, form) -> str:
    # form is lattice._type_a(klass.coeffs), as the verifier computed it for
    # a smooth curve; None for a curve that is not smooth
    coeffs = klass.coeffs
    if form is not None:
        base, blowups = form
        text = f"L{base}" + "".join([f" - L{i}" for i in range(len(coeffs)) if blowups >> i & 1])
    else:
        # the verifier passed every class shown, so a smooth curve's is TypeA;
        # the others are sums of -1 entries: minus the sum over the support
        support = [f"L{i}" for i, x in enumerate(coeffs) if x]
        text = "-(" + " + ".join(support) + ")" if support else "0"
    if klass.torsion2:
        text += " + order-2 twist"
    return text


def _cmd_germ(args) -> int:
    # the parameters are rendered after the Hopf check, before the Enoki flags:
    # that order decides which refusal a command line with two faults gets
    params = _parse_params(args.params)
    if args.kind in HOPF_KINDS:
        germ_type, check = HOPF_KINDS[args.kind]
        names = germ_type._fields
        germ = germ_type(
            **{k: _need_int(params, k) if k == "m" else _need(params, k) for k in names}
        )
        _reject_extras(params, set(names))
        verdict = check(germ)
    else:
        tail = params.get("a", ())
        tail = tail if isinstance(tail, tuple) else (tail,)
        germ = EnokiGerm(t=_need(params, "t"), n=_need_int(params, "n"), a_coeffs=tail)
        _reject_extras(params, {"t", "n", "a"})
    doc: dict = {
        "command": "germ",
        "kind": args.kind,
        "parameters": {k: _render_number(v) for k, v in params.items()},
    }
    if args.kind in HOPF_KINDS:
        doc.update(
            exact=True,
            valid=verdict.valid,
            conditions=_Records(("name", "ok", "detail", "gating"), verdict.conditions),
            invariants=dict(verdict.invariants),
        )
        _emit(doc)
        return EXIT_OK
    doc["contracting"] = is_contracting(germ)
    doc["parabolic"] = is_parabolic(germ)
    if not doc["contracting"]:
        doc["error"] = "not a contraction: |t| must lie strictly between 0 and 1"
        _emit(doc)
        return EXIT_INVALID
    realization = realize_enoki(germ)
    doc["has_nac"] = realization.has_nac
    doc["config"] = config_to_doc(realization.config)
    _emit(doc)
    return EXIT_OK


def _render_number(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_render_number(v) for v in value)
    return str(value)


def _need(params: dict, key: str):
    if key not in params:
        raise ConfigParseError(f"missing germ parameter {key!r}")
    return params[key]


def _need_int(params: dict, key: str) -> int:
    value = _need(params, key)
    if isinstance(value, ExactComplex) and value.im == 0 and value.re.denominator == 1:
        return int(value.re)
    raise ConfigParseError(f"germ parameter {key!r} must be an integer")


def _reject_extras(params: dict, allowed: set) -> None:
    extras = set(params) - allowed
    if extras:
        raise ConfigParseError(f"unknown germ parameters {sorted(extras)}")


def _parse_params(items: list[str]) -> dict:
    params: dict = {}
    for item in items:
        if "=" not in item:
            raise ConfigParseError(f"expected key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigParseError(f"empty key in {item!r}")
        if key in params:
            raise ConfigParseError(f"duplicate germ parameter {key!r}")
        if "," in raw:
            params[key] = tuple(_parse_number(part, item) for part in raw.split(","))
        else:
            params[key] = _parse_number(raw, item)
    return params


def _parse_number(text: str, context: str) -> ExactComplex:
    """Exact parse of a real or complex literal.

    Accepts integers, fractions ("3/5"), decimals ("0.6", kept exact), and
    complex combinations with a trailing j ("1/2+1/3j", "-0.25j").
    """
    raw = text.strip()
    if not raw:
        raise ConfigParseError(f"empty number in {context!r}")
    if not raw.endswith(("j", "J")):
        return ExactComplex(_parse_real(raw, context))
    body = raw[:-1]
    # split a trailing imaginary term from an optional real part
    split = None
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE+-/.":
            split = i
            break
    if split is None:
        real, imag = "0", body
    else:
        real, imag = body[:split], body[split:]
    if imag in ("", "+"):
        imag = "1"
    elif imag == "-":
        imag = "-1"
    return ExactComplex(_parse_real(real, context), _parse_real(imag, context))


def _parse_real(text: str, context: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigParseError(f"cannot parse number {text!r} in {context!r}") from exc


def _cmd_selftest(args) -> int:
    from .selftest import run_all  # here, so that no other command loads the suites
    results = run_all(seed=args.seed)
    passed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name} ({result.checks} checks): {result.detail}")
        if result.passed:
            passed += 1
    print(f"{passed}/{len(results)} suites passed")
    return EXIT_OK if passed == len(results) else EXIT_INTERNAL


# each command: its handler, its help line and its arguments, as the name and
# the keywords of each add_argument call
_COMMANDS = {
    "classify": (_cmd_classify, "full pipeline report for a configuration file", [("file", {})]),
    "nac": (
        _cmd_nac,
        "anticanonical coefficients at a chosen level",
        [("file", {}), ("--m", dict(type=int, default=1, help="divisor level (default 1)"))],
    ),
    "index": (_cmd_index, "smallest level with integer coefficients", [("file", {})]),
    "enumerate": (
        _cmd_enumerate,
        "canonical homology representations",
        [
            ("file", {}),
            (
                "--max-solutions",
                dict(type=int, help="truncate the report after this many representations"),
            ),
        ],
    ),
    "germ": (
        _cmd_germ,
        "validate contracting-germ parameters",
        [("kind", dict(choices=GERM_KINDS)), ("params", dict(nargs="*", metavar="key=value"))],
    ),
    "selftest": (
        _cmd_selftest,
        "run the built-in verification suites",
        [("--seed", dict(type=int, default=0, help="seed for randomized suites"))],
    ),
}
_GRAMMARS = {
    command: _grammar(command, run, arguments) for command, (run, _, arguments) in _COMMANDS.items()
}


if __name__ == "__main__":
    sys.exit(main())
