"""The document parser and the configuration constructor against a referee.

The referee is the earlier parser, which formatted every JSON path and
type-checked every field in both layers, together with the constructor
checks it relied on.  The library must refuse the same documents with the
same exception and message, and build the same configuration from the rest.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viilattice import (
    CURVE_KINDS,
    ELLIPTIC,
    NODAL_RATIONAL,
    SMOOTH_RATIONAL,
    ConfigParseError,
    Curve,
    CurveConfig,
    InvalidConfigError,
    config_from_text,
    validate,
)
from viilattice.configio import config_from_doc, load_config
from viilattice.curves import _KIND_RULES, ValidationIssue

# --- the referee ---------------------------------------------------------------


def _referee_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _referee_expect_int(mapping: dict, key: str, prefix: str = "") -> int:
    where = f"{prefix}.{key}" if prefix else key
    if key not in mapping:
        raise ConfigParseError("missing", where)
    value = mapping[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigParseError(f"expected an integer, got {value!r}", where)
    return value


def referee_from_doc(doc) -> dict:
    """What the configuration of doc must hold, or the refusal it must raise."""
    if not isinstance(doc, dict):
        raise ConfigParseError("document must be a JSON object")
    b2 = _referee_expect_int(doc, "b2")
    curves = doc.get("curves")
    if not isinstance(curves, list):
        raise ConfigParseError("expected a list", "curves")
    parsed = []
    for i, entry in enumerate(curves):
        where = f"curves[{i}]"
        if not isinstance(entry, dict):
            raise ConfigParseError("expected an object", where)
        extra = set(entry) - {"id", "kind", "self_int"}
        if extra:
            raise ConfigParseError(f"unknown keys {sorted(extra)}", where)
        cid = _referee_expect_int(entry, "id", where)
        kind = entry.get("kind")
        if kind not in CURVE_KINDS:
            raise ConfigParseError(
                f"kind must be one of {sorted(CURVE_KINDS)}, got {kind!r}",
                f"{where}.kind",
            )
        self_int = _referee_expect_int(entry, "self_int", where)
        parsed.append(Curve(cid, kind, self_int))
    raw = doc.get("intersections", [])
    if not isinstance(raw, list):
        raise ConfigParseError("expected a list", "intersections")
    pairs = []
    for i, entry in enumerate(raw):
        where = f"intersections[{i}]"
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise ConfigParseError("expected [id, id, multiplicity]", where)
        pairs.append(tuple(entry))
    extra_top = set(doc) - {"b2", "curves", "intersections"}
    if extra_top:
        raise ConfigParseError(f"unknown keys {sorted(extra_top)}")
    return referee_config(b2, tuple(parsed), tuple(pairs))


def referee_config(b2, curves, intersections) -> dict:
    """The constructor's checks and derived fields, one keyed sort per curve."""
    if not _referee_int(b2):
        raise InvalidConfigError(f"b2 must be an integer, got {b2!r}")
    issues = [ValidationIssue(f"b2 must be at least 1, got {b2}")] if b2 < 1 else []
    rational = elliptic = 0
    by_id = {}
    for c in curves:
        if not isinstance(c, Curve):
            raise InvalidConfigError(f"curve entry {c!r} is not a Curve")
        if not (_referee_int(c.id) and _referee_int(c.self_int)):
            raise InvalidConfigError(f"{c!r} needs an integer id and self-intersection")
        if c.id in by_id:
            raise InvalidConfigError(f"duplicate curve id {c.id}")
        by_id[c.id] = c
        if c.kind not in CURVE_KINDS:
            issues.append(ValidationIssue(f"unknown curve kind {c.kind!r}", c.id))
            continue
        elliptic += c.kind == ELLIPTIC
        rational += c.kind != ELLIPTIC
        if c.self_int > (bound := _KIND_RULES[c.kind][0]):
            rule = f"needs self-intersection <= {bound}, got {c.self_int}"
            issues.append(ValidationIssue(f"{c.kind.replace('_', ' ')} curve {rule}", c.id))
    if rational > b2:
        why = "these surfaces carry at most b2 rational curves"
        issues.append(ValidationIssue(f"{rational} rational curves exceed b2 = {b2}; {why}"))
    if elliptic > 1:
        issues.append(ValidationIssue(f"at most one elliptic curve allowed, got {elliptic}"))
    mult = {}
    normalized = []
    for entry in intersections:
        shaped = isinstance(entry, (tuple, list)) and len(entry) == 3
        if not (shaped and all(map(_referee_int, entry))):
            raise InvalidConfigError(f"intersection entry {entry!r} needs three integers")
        i, j, m = entry
        if i == j:
            raise InvalidConfigError(
                f"self-pairing for curve {i}: self-intersections belong on the curve"
            )
        if m < 0:
            raise InvalidConfigError(f"negative multiplicity for pair ({i}, {j})")
        if i not in by_id or j not in by_id:
            raise InvalidConfigError(f"intersection names unknown curve in ({i}, {j})")
        if m == 0:
            continue
        key = (min(i, j), max(i, j))
        if key in mult:
            raise InvalidConfigError(f"duplicate intersection entry for pair {key}")
        mult[key] = m
        normalized.append((key[0], key[1], m))
    normalized.sort()
    position = {c.id: k for k, c in enumerate(curves)}
    adj = {c.id: [] for c in curves}
    for (i, j), m in mult.items():
        adj[i].append((j, m))
        adj[j].append((i, m))
    for pairs in adj.values():
        pairs.sort(key=lambda pair: position[pair[0]])
    return {
        "b2": b2,
        "curves": tuple(curves),
        "intersections": tuple(normalized),
        "mult": mult,
        "adj": adj,
        "position": position,
        "issues": tuple(issues),
    }


def _outcome(build, *args):
    try:
        return "built", build(*args)
    except (ConfigParseError, InvalidConfigError, OSError) as exc:
        return type(exc), str(exc)


def _fields(config: CurveConfig) -> dict:
    return {
        "b2": config.b2,
        "curves": config.curves,
        "intersections": config.intersections,
        "mult": config._mult,
        "adj": config._adj,
        "position": config._position,
        "issues": validate(config).issues,
    }


def assert_matches_referee(doc) -> None:
    expected = _outcome(referee_from_doc, doc)
    got = _outcome(config_from_doc, doc)
    if expected[0] == "built" and got[0] == "built":
        assert _fields(got[1]) == expected[1]
    else:
        assert got == expected


# --- documents and their mutations ---------------------------------------------


class _Int(int):
    pass


@st.composite
def valid_docs(draw) -> dict:
    ids = draw(st.lists(st.integers(-5, 30), max_size=7, unique=True))
    curves = [
        {
            "id": cid,
            "kind": draw(st.sampled_from(CURVE_KINDS)),
            "self_int": draw(st.integers(-6, 1)),
        }
        for cid in ids
    ]
    rows = []
    if len(ids) >= 2:
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1]),
                unique_by=lambda p: frozenset(p),
                max_size=10,
            )
        )
        rows = [[i, j, draw(st.integers(0, 3))] for i, j in pairs]
    doc = {"b2": draw(st.integers(-1, 9)), "curves": curves}
    if rows or draw(st.booleans()):
        doc["intersections"] = rows
    return doc


# values of every type json produces, and an int subclass a library caller may pass
WRONG_VALUES = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.none(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.integers(-3, 3).map(_Int),
    st.sampled_from(CURVE_KINDS),
    st.integers(-3, 3),
)
TOP_KEYS = ["b2", "curves", "intersections", "extra"]
ENTRY_KEYS = ["id", "kind", "self_int", "extra"]


def _mutate_mapping(draw, mapping: dict, keys: list[str]) -> None:
    """Drop a key, or set an existing or a new one to a value of any type."""
    if mapping and draw(st.booleans()):
        mapping.pop(draw(st.sampled_from(sorted(mapping))))
    else:
        mapping[draw(st.sampled_from(keys))] = draw(WRONG_VALUES)


def _mutate_row(draw, rows: list, k: int) -> None:
    row = rows[k]
    action = draw(
        st.sampled_from(
            ["replace", "duplicate", "reorder", "retype", "shorten", "lengthen"]
            + ["reverse", "self-pair", "negative", "unknown-id"]
        )
    )
    if action == "replace":
        rows[k] = draw(WRONG_VALUES)
    elif action == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), list(row) if isinstance(row, list) else row)
    elif action == "reorder":
        rows.reverse()
    elif not (isinstance(row, list) and len(row) == 3):
        return
    elif action == "retype":
        row[draw(st.integers(0, 2))] = draw(WRONG_VALUES)
    elif action == "shorten":
        row.pop()
    elif action == "lengthen":
        row.append(draw(st.integers(-1, 3)))
    elif action == "reverse":
        row[0], row[1] = row[1], row[0]
    elif action == "self-pair":
        row[1] = row[0]
    elif action == "negative":
        row[2] = -1
    else:
        row[draw(st.integers(0, 1))] = 99


@st.composite
def mutated_docs(draw):
    """A valid document after one to three mutations: a field of another type,
    a key dropped or added, an entry or row replaced, duplicated or reordered,
    a row reshaped or pointed at a bad pair."""
    doc = draw(valid_docs())
    for _ in range(draw(st.integers(1, 3))):
        curves, rows = doc.get("curves"), doc.get("intersections")
        targets = ["top"]
        if isinstance(curves, list) and curves:
            targets += ["curve"] * 3
        if isinstance(rows, list) and rows:
            targets += ["row"] * 3
        target = draw(st.sampled_from(targets))
        if target == "top":
            _mutate_mapping(draw, doc, TOP_KEYS)
        elif target == "row":
            _mutate_row(draw, rows, draw(st.integers(0, len(rows) - 1)))
        else:
            k = draw(st.integers(0, len(curves) - 1))
            action = draw(st.sampled_from(["mapping", "mapping", "replace", "duplicate", "reorder"]))
            if action == "replace":
                curves[k] = draw(WRONG_VALUES)
            elif action == "duplicate":
                entry = curves[k]
                curves.insert(draw(st.integers(0, len(curves))), dict(entry) if isinstance(entry, dict) else entry)
            elif action == "reorder":
                curves.reverse()
            elif isinstance(curves[k], dict):
                _mutate_mapping(draw, curves[k], ENTRY_KEYS)
    return doc


@settings(max_examples=100)
@given(valid_docs())
def test_valid_documents_build_what_the_referee_builds(doc):
    assert_matches_referee(doc)
    assert_matches_referee(json.loads(json.dumps(doc)))


@settings(max_examples=300)
@given(mutated_docs())
def test_mutated_documents_match_the_referee(doc):
    assert_matches_referee(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"b2": 2, "curves": [{"id": 0, "kind": ["x"], "self_int": -2}]},
        {"b2": 2, "curves": [{"id": 0, "kind": {}, "self_int": -2, "extra": 1}]},
        {"b2": _Int(2), "curves": [{"id": _Int(0), "kind": SMOOTH_RATIONAL, "self_int": _Int(-2)}]},
        {"b2": 1, "curves": [], "intersections": [(0, 1, 1)]},
        {"b2": 1, "curves": [], "zzz": 1, "aaa": 2},
        [{"b2": 1, "curves": []}],
        None,
    ],
    ids=[
        "unhashable-kind",
        "unhashable-kind-and-key",
        "int-subclass",
        "tuple-row",
        "two-keys",
        "list",
        "null",
    ],
)
def test_edge_documents_match_the_referee(doc):
    assert_matches_referee(doc)


def test_int_subclasses_are_accepted_by_the_constructor():
    curves = (Curve(_Int(0), SMOOTH_RATIONAL, _Int(-2)), Curve(1, NODAL_RATIONAL, _Int(-1)))
    config = CurveConfig(_Int(2), curves, ((_Int(1), 0, _Int(2)),))
    plain = CurveConfig(2, (Curve(0, SMOOTH_RATIONAL, -2), Curve(1, NODAL_RATIONAL, -1)), ((0, 1, 2),))
    assert config == plain
    assert validate(config) == validate(plain)
    assert (config._adj, config._position) == (plain._adj, plain._position)
    assert _fields(config) == referee_config(_Int(2), curves, ((_Int(1), 0, _Int(2)),))
    for bad in (True, 1.0, "1"):
        with pytest.raises(InvalidConfigError, match="needs three integers"):
            CurveConfig(2, curves, ((0, 1, bad),))


# --- malformed files -----------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, '{"b2": ' + "[" * 5000, '{"b2": 1, "curves": [' + "[" * 3000],
    ids=["array", "b2", "curves"],
)
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ConfigParseError, match="^invalid JSON: nested deeper than"):
        config_from_text(text)


def test_non_utf8_file_is_a_parse_error(tmp_path):
    path = tmp_path / "late.json"
    path.write_bytes(b'{"b2": 1, "curves": [' + b" " * 20_000 + b"\xc3\x28]}")
    with pytest.raises(ConfigParseError, match="^not UTF-8 text: invalid continuation byte at byte 20021$"):
        load_config(str(path))


# --- the file reader against the text-mode reader ---------------------------------


def _text_mode_load(path):
    """load_config as it read a file before: one text-mode read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return config_from_text(text)


_DOC = (
    '{\n  "b2": 2,\n  "curves": [\n'
    '    {"id": 0, "kind": "nodal_rational", "self_int": -2},\n'
    '    {"id": 1, "kind": "smooth_rational", "self_int": -2}\n'
    '  ],\n  "intersections": [[0, 1, 1]]\n}\n'
)
_PADDED = _DOC.replace("{\n", "{" + " " * 9000 + "\n", 1)
FILES = {
    "lf": _DOC.encode(),
    "crlf": _DOC.replace("\n", "\r\n").encode(),
    "lone-cr": _DOC.replace("\n", "\r").encode(),
    "mixed-ends": _DOC.replace("\n", "\r\r\n", 3).encode(),
    "crlf-past-8192": _PADDED.replace("\n", "\r\n").encode(),
    # the line of a parse error counts the translated line ends
    "crlf-then-error": (_DOC + "x").replace("\n", "\r\n").encode(),
    "lone-cr-then-error": (_DOC + "x").replace("\n", "\r").encode(),
    # a raw CR or CRLF inside a string: JSON refuses the control character
    # at the line and column of the translated text
    "cr-in-kind": _DOC.replace("smooth_rational", "smooth\r_rational").encode(),
    "crlf-in-kind": _DOC.replace("smooth_rational", "smooth\r\n_rational").encode(),
    "cr-in-key": _DOC.replace('"b2"', '"b\r2"').replace("\n", "\r\n").encode(),
    "bom": b"\xef\xbb\xbf" + _DOC.encode(),
    "invalid-at-0": b"\xff" + _DOC.encode(),
    "invalid-mid-file": _DOC.encode().replace(b"nodal", b"no\xc3\x28al"),
    "invalid-past-8192": _PADDED.encode().replace(b"nodal", b"no\xe2\x82al"),
    "truncated-at-end": _DOC.encode() + b"\xe2\x82",
    "empty": b"",
    "non-ascii-kind": _DOC.replace("smooth_rational", "smooth_rätiönal ").encode(),
    "non-ascii-key": _DOC.replace("]]", "]], \"é\": 1").encode(),
}


@pytest.mark.parametrize("data", FILES.values(), ids=FILES)
def test_file_reader_matches_the_text_mode_reader(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    got = _outcome(load_config, str(path))
    assert got == _outcome(_text_mode_load, str(path))
    if data in (FILES["crlf"], FILES["lone-cr"], FILES["crlf-past-8192"]):
        assert got == ("built", config_from_text(_DOC))


@pytest.mark.parametrize("where", ["directory", "missing"])
def test_file_reader_raises_what_the_text_mode_reader_raises(tmp_path, where):
    path = str(tmp_path if where == "directory" else tmp_path / "missing.json")
    got = _outcome(load_config, path)
    assert got == _outcome(_text_mode_load, path)
    assert got[0] is (IsADirectoryError if where == "directory" else FileNotFoundError)
