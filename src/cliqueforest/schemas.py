"""Published JSON schemas for the CLI output documents.

Every schema derives from the field tables of ``serialize`` and of the
document classes: the node and bump definitions from ``serialize.NODES``
and ``serialize.BUMP_FIELDS``, and each document schema from the
``FIELDS`` table of its class.
"""

from .diffeo import FixedPointSet
from .obstructions import ObstructionSearch
from .raag import CommutationGraphResult, EmbeddabilityDecision
from .serialize import ANY_MANIFOLD, BUMP_FIELDS, NODES, object_schema
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
    "properties": {"manifold": ANY_MANIFOLD.schema, "expr": {"$ref": "#/$defs/node"}},
    "$defs": _NODE_DEFS,
}
DECISION_SCHEMA = _document(EmbeddabilityDecision)
ASSIGNMENT_SCHEMA = _document(GeneratorAssignment)
REPORT_SCHEMA = _document(VerificationReport)
FIXPOINTS_SCHEMA = _document(FixedPointSet)
COMMGRAPH_SCHEMA = _document(CommutationGraphResult)
OBSTRUCTION_SCHEMA = _document(ObstructionSearch)
