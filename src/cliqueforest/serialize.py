"""JSON tree format for diffeomorphism expressions.

``NODES`` is the one table of the format: for each node kind, the
expression class and its fields, each with a codec.  Numeric fields are
decimal strings with 17 significant digits (exact float round trip), and
only strings matching the schema's decimal pattern are read back; integer
fields are JSON integers, and the manifold tag sits at the root.  A kind
whose class fixes a manifold is accepted only under that tag.  Encoding,
decoding, the bump lists of the synthesis state and the published node
schema (``schemas``) all derive from this table.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

from .diffeo import (
    BumpPoly,
    BumpTrig,
    Compose,
    DiffeoExpr,
    Identity,
    Inverse,
    Manifold,
    MobiusI,
    PerturbedF,
    PerturbedLiftS1,
    Power,
    RotationS1,
    SineShear,
    Translation,
)


class ExprFormatError(ValueError):
    """Malformed expression document."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class Codec:
    """How one field is written to JSON, read back and described in the schema."""

    encode: Callable[[object], object]
    decode: Callable[[object, Manifold], object]  # (JSON value, document manifold)
    schema: dict
    optional: bool = False  # omitted from the document when None


def _integer(v, manifold):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ExprFormatError(f"expected an integer, got {v!r}")
    return v


_DECIMAL_SCHEMA = {"type": "string", "pattern": r"^-?(\d+\.?\d*|\.\d+|inf)([eE][+-]?\d+)?$"}
_DECIMAL_RE = re.compile(_DECIMAL_SCHEMA["pattern"], re.ASCII)
_NODE_REF = {"$ref": "#/$defs/node"}


def _decimal(v, manifold):
    if not isinstance(v, str) or not _DECIMAL_RE.fullmatch(v):
        raise ExprFormatError(f"expected a decimal string, got {v!r}")
    return float(v)


def _decimals(vs, manifold):
    if not isinstance(vs, list):
        raise ExprFormatError(f"expected a list of decimal strings, got {vs!r}")
    return tuple(_decimal(v, manifold) for v in vs)


DECIMAL = Codec(_fmt, _decimal, _DECIMAL_SCHEMA)
OPTIONAL_DECIMAL = replace(DECIMAL, optional=True)
INTEGER = Codec(lambda v: v, _integer, {"type": "integer"})
DECIMALS = Codec(lambda vs: [_fmt(v) for v in vs], _decimals,
                 {"type": "array", "items": _DECIMAL_SCHEMA})
NODE = Codec(lambda e: expr_to_node(e), lambda v, m: node_to_expr(v, m), _NODE_REF)
NODE_LIST = Codec(lambda es: [expr_to_node(e) for e in es],
                  lambda vs, m: tuple(node_to_expr(v, m) for v in vs),
                  {"type": "array", "items": _NODE_REF})

Fields = Tuple[Tuple[str, Codec], ...]

BUMP_FIELDS: Dict[type, Fields] = {
    BumpPoly: (("c", DECIMAL), ("stage", INTEGER), ("k", INTEGER), ("t_coeffs", DECIMALS),
               ("sup_bound", OPTIONAL_DECIMAL), ("deriv_bound", OPTIONAL_DECIMAL)),
    BumpTrig: (("c", DECIMAL), ("stage", INTEGER), ("phase", DECIMAL),
               ("sup_bound", OPTIONAL_DECIMAL), ("deriv_bound", OPTIONAL_DECIMAL)),
}


def _bump_list(cls: type) -> Codec:
    fields = BUMP_FIELDS[cls]
    return Codec(lambda bs: [_encode(b, fields) for b in bs],
                 lambda vs, m: tuple(_build(cls, v, fields, m, "bump") for v in vs),
                 {"type": "array", "items": {"$ref": "#/$defs/bump"}})


NODES: Dict[str, Tuple[type, Fields]] = {cls.KIND: (cls, fields) for cls, fields in (
    (Identity, ()),
    (MobiusI, (("alpha", DECIMAL),)),
    (RotationS1, (("theta", DECIMAL),)),
    (SineShear, (("a", DECIMAL),)),
    (Translation, (("c", DECIMAL),)),
    (PerturbedF, (("bumps", _bump_list(BumpPoly)),)),
    (PerturbedLiftS1, (("bumps", _bump_list(BumpTrig)),)),
    (Compose, (("parts", NODE_LIST),)),
    (Inverse, (("inner", NODE),)),
    (Power, (("inner", NODE), ("exponent", INTEGER))),
)}


def required_manifold(cls: type) -> Optional[Manifold]:
    """The manifold a node class fixes (identity and composite nodes fix none)."""
    m = getattr(cls, "manifold", None)
    return m if isinstance(m, Manifold) else None


# bump-list codec of the perturbed node kind on each manifold
BUMPS: Dict[Manifold, Codec] = {
    required_manifold(cls): codec
    for cls, fields in NODES.values() for name, codec in fields if name == "bumps"
}


def _encode(obj, fields: Fields) -> dict:
    return {name: codec.encode(getattr(obj, name)) for name, codec in fields
            if not (codec.optional and getattr(obj, name) is None)}


def _build(cls: type, d: dict, fields: Fields, manifold: Manifold, what: str):
    try:
        return cls(**{name: codec.decode(d[name], manifold) for name, codec in fields
                      if not (codec.optional and name not in d)})
    except (KeyError, TypeError, ValueError) as exc:
        raise ExprFormatError(f"bad {what}: {exc}") from exc


def expr_to_node(e: DiffeoExpr) -> dict:
    return {"kind": e.kind(), **_encode(e, NODES[e.kind()][1])}


def node_to_expr(node: dict, manifold: Manifold) -> DiffeoExpr:
    try:
        kind = node["kind"]
    except (TypeError, KeyError):
        raise ExprFormatError("node without a 'kind' field")
    if not isinstance(kind, str) or kind not in NODES:
        raise ExprFormatError(f"unknown node kind {kind!r}")
    cls, fields = NODES[kind]
    want = required_manifold(cls)
    if want not in (None, manifold):
        raise ExprFormatError(f"{kind!r} node requires manifold {want.value}, got {manifold.value}")
    if cls is Identity:
        return Identity(manifold)
    return _build(cls, node, fields, manifold, f"{kind!r} node")


def expr_to_dict(e: DiffeoExpr) -> dict:
    return {"manifold": e.manifold.value, "expr": expr_to_node(e)}


def dict_to_expr(d: dict) -> DiffeoExpr:
    try:
        m = Manifold(d["manifold"])
    except (KeyError, TypeError, ValueError):
        raise ExprFormatError("document lacks a valid 'manifold' tag")
    return node_to_expr(d["expr"], m)


def dumps_expr(e: DiffeoExpr) -> str:
    return json.dumps(expr_to_dict(e), sort_keys=True, indent=2)


def loads_expr(text: str) -> DiffeoExpr:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExprFormatError(f"invalid JSON: {exc}") from exc
    return dict_to_expr(d)
