"""Published JSON schemas for the CLI output documents.

The node, bump, decision, assignment and report schemas derive from the
field tables of ``serialize`` and of the document classes; the fixpoints,
commgraph and obstruct payloads are still written out here.
"""

from .raag import EmbeddabilityDecision
from .serialize import BUMP_FIELDS, NODES, object_schema
from .synthesis import GeneratorAssignment, VerificationReport


def _properties(field_lists) -> dict:
    return {name: codec.schema for fields in field_lists for name, codec in fields}


# node and bump objects, derived from the node table of ``serialize``
_NODE_DEFS = {
    "node": {
        "type": "object",
        "required": ["kind"],
        "properties": {
            "kind": {"enum": list(NODES)},
            **_properties(fields for _, fields in NODES.values()),
        },
    },
    "bump": {
        "type": "object",
        "required": sorted(set.intersection(*(
            {name for name, codec in fields if not codec.optional}
            for fields in BUMP_FIELDS.values()
        ))),
        "properties": _properties(BUMP_FIELDS.values()),
    },
}


def _document(cls: type) -> dict:
    return {**object_schema(cls.FIELDS), "$defs": _NODE_DEFS}


EXPR_SCHEMA = {
    "type": "object",
    "required": ["manifold", "expr"],
    "properties": {"manifold": {"enum": ["I", "S1", "R"]}, "expr": {"$ref": "#/$defs/node"}},
    "$defs": _NODE_DEFS,
}
DECISION_SCHEMA = _document(EmbeddabilityDecision)
ASSIGNMENT_SCHEMA = _document(GeneratorAssignment)
REPORT_SCHEMA = _document(VerificationReport)

FIXPOINTS_SCHEMA = {
    "type": "object",
    "required": ["points", "flags", "residual_tol", "degenerate", "grid_n"],
    "properties": {
        "points": {"type": "array", "items": {"type": "number"}},
        "flags": {"type": "array", "items": {"enum": ["transverse", "tangency-suspect"]}},
        "residual_tol": {"type": "number"},
        "interval_signs": {"type": "array", "items": {"type": "integer"}},
        "degenerate": {"type": "boolean"},
        "grid_n": {"type": "integer"},
    },
}

COMMGRAPH_SCHEMA = {
    "type": "object",
    "required": ["graph", "manifold", "tol", "power_bound", "grid_n", "completeness"],
    "properties": {
        "graph": {"type": "object"},
        "manifold": {"enum": ["I", "S1", "R"]},
        "tol": {"type": "number"},
        "power_bound": {"type": "integer"},
        "grid_n": {"type": "integer"},
        "residuals": {"type": "array"},
        "completeness": {
            "type": "object",
            "required": ["ok", "components"],
        },
    },
}

OBSTRUCTION_SCHEMA = {
    "type": "object",
    "required": ["found"],
    "properties": {
        "found": {"type": "boolean"},
        "certificate": {
            "type": ["object", "null"],
            "required": ["g1", "g2", "h1", "h2", "facts"],
        },
        "center_nonabelian": {"type": "boolean"},
        "center_witness": {"type": ["object", "null"]},
        "ball_size": {"type": "integer"},
    },
}
