"""Published JSON schemas for the CLI output documents."""

from .serialize import BUMP_FIELDS, NODES

_EXPR_NODE = {"$ref": "#/$defs/node"}


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

EXPR_SCHEMA = {
    "type": "object",
    "required": ["manifold", "expr"],
    "properties": {"manifold": {"enum": ["I", "S1", "R"]}, "expr": _EXPR_NODE},
    "$defs": _NODE_DEFS,
}

DECISION_SCHEMA = {
    "type": "object",
    "required": ["embeddable", "manifold"],
    "properties": {
        "embeddable": {"type": "boolean"},
        "manifold": {"enum": ["I", "S1"]},
        "clique_forest": {
            "type": "object",
            "required": ["components"],
            "properties": {
                "components": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"}},
                }
            },
        },
        "missing_edge": {
            "type": "object",
            "required": ["u", "v", "path"],
            "properties": {
                "u": {"type": "integer"},
                "v": {"type": "integer"},
                "path": {"type": "array", "items": {"type": "integer"}},
            },
        },
    },
}

ASSIGNMENT_SCHEMA = {
    "type": "object",
    "required": ["graph", "manifold", "clique_forest", "alphas", "layout", "f", "gens"],
    "properties": {
        "manifold": {"enum": ["I", "S1"]},
        "graph": {
            "type": "object",
            "required": ["n", "edges"],
            "properties": {
                "n": {"type": "integer"},
                "edges": {"type": "array"},
            },
        },
        "alphas": {
            "type": "object",
            "required": ["alphas", "k_bound", "min_relation"],
        },
        "layout": {"type": "array"},
        "f": _EXPR_NODE,
        "gens": {"type": "array", "items": _EXPR_NODE},
        "state": {"type": ["object", "null"]},
    },
    "$defs": _NODE_DEFS,
}

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "ok", "manifold", "grid_n", "tol", "word_len", "truncation_note",
        "edge_checks", "non_edge_checks", "margins",
    ],
    "properties": {
        "ok": {"type": "boolean"},
        "manifold": {"enum": ["I", "S1"]},
        "grid_n": {"type": "integer"},
        "tol": {"type": "number"},
        "word_len": {"type": "integer"},
        "edge_checks": {"type": "array"},
        "non_edge_checks": {"type": "array"},
        "margins": {"type": "array"},
        "margin_failures": {"type": "array"},
        "notes": {"type": "array"},
    },
}

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
