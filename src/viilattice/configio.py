"""Reading and writing curve configurations as JSON documents.

The on-disk shape:

    {
      "b2": 3,
      "curves": [
        {"id": 0, "kind": "nodal_rational", "self_int": -2},
        {"id": 1, "kind": "smooth_rational", "self_int": -2}
      ],
      "intersections": [[0, 1, 1]]
    }

``intersections`` lists unordered pairs with their multiplicity; omitted
pairs are disjoint.  Parsing errors carry the JSON path of the offending
field.  Semantic problems (unknown curve ids, negative multiplicities,
too many elliptic curves and so on) surface as the usual configuration
errors, not as parse errors.
"""

from __future__ import annotations

import json
from typing import Any

from .curves import CURVE_KINDS, Curve, CurveConfig, _is_int
from .errors import ConfigParseError


def config_from_text(text: str) -> CurveConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ConfigParseError("invalid JSON: nested deeper than the parser can follow") from None
    return config_from_doc(doc)


def load_config(path: str) -> CurveConfig:
    """The configuration of the file at path, read in one unbuffered call and
    decoded as text mode decodes it: UTF-8, with CRLF and a lone CR read as LF."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return config_from_text(text.replace("\r\n", "\n").replace("\r", "\n"))


_CURVE_KEYS = frozenset(("id", "kind", "self_int"))
_TOP_KEYS = frozenset(("b2", "curves", "intersections"))


def config_from_doc(doc: Any) -> CurveConfig:
    """The configuration of doc.  Exact-type tests pass a well-formed entry or
    row; any other goes through the checks that name its JSON path."""
    if not isinstance(doc, dict):
        raise ConfigParseError("document must be a JSON object")
    b2 = _expect_int(doc, "b2")
    curves = doc.get("curves")
    if not isinstance(curves, list):
        raise ConfigParseError("expected a list", "curves")
    parsed = []
    for i, entry in enumerate(curves):
        if (
            type(entry) is dict
            and len(entry) == 3
            and type(cid := entry.get("id")) is type(self_int := entry.get("self_int")) is int
            and (kind := entry.get("kind")) in CURVE_KINDS
        ):
            parsed.append(Curve(cid, kind, self_int))
        else:
            parsed.append(_curve_from_entry(entry, f"curves[{i}]"))
    raw = doc.get("intersections", [])
    if not isinstance(raw, list):
        raise ConfigParseError("expected a list", "intersections")
    for k, entry in enumerate(raw):
        i, j, m = entry if isinstance(entry, list) and len(entry) == 3 else (None, None, None)
        if not (type(i) is type(j) is type(m) is int or _is_int(i) and _is_int(j) and _is_int(m)):
            raise ConfigParseError("expected [id, id, multiplicity]", f"intersections[{k}]")
    if not doc.keys() <= _TOP_KEYS:
        raise ConfigParseError(f"unknown keys {sorted(doc.keys() - _TOP_KEYS)}")
    return CurveConfig(b2, tuple(parsed), tuple(raw))


def _curve_from_entry(entry: Any, where: str) -> Curve:
    if not isinstance(entry, dict):
        raise ConfigParseError("expected an object", where)
    if not entry.keys() <= _CURVE_KEYS:
        raise ConfigParseError(f"unknown keys {sorted(entry.keys() - _CURVE_KEYS)}", where)
    cid = _expect_int(entry, "id", where)
    if (kind := entry.get("kind")) not in CURVE_KINDS:
        why = f"kind must be one of {sorted(CURVE_KINDS)}, got {kind!r}"
        raise ConfigParseError(why, f"{where}.kind")
    return Curve(cid, kind, _expect_int(entry, "self_int", where))


def _expect_int(mapping: dict, key: str, prefix: str = "") -> int:
    value = mapping.get(key)
    if type(value) is int or _is_int(value):
        return value
    why = f"expected an integer, got {value!r}" if key in mapping else "missing"
    raise ConfigParseError(why, f"{prefix}.{key}" if prefix else key)


def config_to_doc(config: CurveConfig) -> dict:
    return {
        "b2": config.b2,
        "curves": [
            {"id": c.id, "kind": c.kind, "self_int": c.self_int}
            for c in config.curves
        ],
        "intersections": [list(t) for t in config.intersections],
    }


def config_to_text(config: CurveConfig) -> str:
    return json.dumps(config_to_doc(config), indent=2) + "\n"
