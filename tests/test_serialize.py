import json
import math

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliqueforest import (
    BumpPoly,
    BumpTrig,
    Compose,
    ExprFormatError,
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
    dict_to_expr,
    dumps_expr,
    evaluate,
    expr_to_dict,
    loads_expr,
)
from cliqueforest.schemas import EXPR_SCHEMA
from cliqueforest.serialize import (
    _DECIMAL_RE,
    _DECIMAL_SCHEMA,
    DECIMAL,
    NODES,
    expr_to_node,
    node_to_expr,
)

SAMPLES = [
    Identity(Manifold.INTERVAL),
    Identity(Manifold.CIRCLE),
    MobiusI(2.718281828),
    RotationS1(1.0),
    SineShear(1.5),
    Translation(-2 * math.pi),
    PerturbedF((BumpPoly(0.01, 3), BumpPoly(-0.002, 5, 1, (0.0, 1.0)))),
    pytest.param(
        PerturbedF((BumpPoly(0.01, 2, sup_bound=0.01, deriv_bound=0.05),
                    BumpPoly(-0.003, 4, 2, (1.0, -0.5), sup_bound=1e-3, deriv_bound=0.02))),
        id="perturbed_bounded",
    ),
    PerturbedLiftS1((BumpTrig(0.02, 1), BumpTrig(-0.005, 4, math.pi / 4, 0.01, 0.05))),
    Compose((MobiusI(2.0), Inverse(MobiusI(1.5)), Power(MobiusI(1.2), -3))),
    Power(RotationS1(0.5), 7),
]


class TestRoundTrip:
    @pytest.mark.parametrize("e", SAMPLES, ids=lambda e: e.kind())
    def test_exact_round_trip(self, e):
        assert loads_expr(dumps_expr(e)) == e

    @pytest.mark.parametrize("e", SAMPLES, ids=lambda e: e.kind())
    def test_schema_valid(self, e):
        jsonschema.validate(expr_to_dict(e), EXPR_SCHEMA)

    @pytest.mark.parametrize("e", SAMPLES, ids=lambda e: e.kind())
    def test_byte_stable(self, e):
        assert dumps_expr(e) == dumps_expr(loads_expr(dumps_expr(e)))

    @given(st.floats(min_value=1.0001, max_value=math.pi - 1e-4))
    @settings(max_examples=100, deadline=None)
    def test_float_params_bit_exact(self, a):
        back = loads_expr(dumps_expr(MobiusI(a)))
        assert back.alpha == a  # decimal-string format preserves every bit

    def test_values_reproduce(self):
        e = Compose((MobiusI(2.0), Inverse(MobiusI(1.5))))
        back = loads_expr(dumps_expr(e))
        for x in (0.0, 0.3, 0.7, 1.0):
            assert evaluate(back, x) == evaluate(e, x)


# the literal node of every kind: the format the table must keep
LITERAL_NODES = [
    (Identity(Manifold.CIRCLE), {"kind": "identity"}),
    (MobiusI(2.5), {"kind": "mobius", "alpha": "2.5"}),
    (RotationS1(0.1), {"kind": "rotation", "theta": "0.10000000000000001"}),
    (SineShear(-1.5), {"kind": "sine_shear", "a": "-1.5"}),
    (Translation(3.0), {"kind": "translation", "c": "3"}),
    (
        PerturbedF((BumpPoly(0.25, 2, 1, (1.0, -1.0), sup_bound=0.5, deriv_bound=2.0),
                    BumpPoly(-0.125, 3))),
        {"kind": "perturbed", "bumps": [
            {"c": "0.25", "stage": 2, "k": 1, "t_coeffs": ["1", "-1"],
             "sup_bound": "0.5", "deriv_bound": "2"},
            {"c": "-0.125", "stage": 3, "k": 1, "t_coeffs": ["1"]},
        ]},
    ),
    (
        PerturbedLiftS1((BumpTrig(0.125, 3, 0.5), BumpTrig(0.01, 4, 0.0, 0.02, 0.1))),
        {"kind": "perturbed_lift", "bumps": [
            {"c": "0.125", "stage": 3, "phase": "0.5"},
            {"c": "0.01", "stage": 4, "phase": "0", "sup_bound": "0.02", "deriv_bound": "0.10000000000000001"},
        ]},
    ),
    (
        Compose((MobiusI(2.0), MobiusI(0.5))),
        {"kind": "compose", "parts": [{"kind": "mobius", "alpha": "2"},
                                      {"kind": "mobius", "alpha": "0.5"}]},
    ),
    (Inverse(RotationS1(1.0)), {"kind": "inverse", "inner": {"kind": "rotation", "theta": "1"}}),
    (
        Power(Translation(0.5), -2),
        {"kind": "power", "inner": {"kind": "translation", "c": "0.5"}, "exponent": -2},
    ),
]


class TestNodeFormat:
    def test_every_kind_pinned(self):
        assert {e.kind() for e, _ in LITERAL_NODES} == set(NODES)

    @pytest.mark.parametrize("e, node", LITERAL_NODES, ids=[e.kind() for e, _ in LITERAL_NODES])
    def test_literal_node(self, e, node):
        assert expr_to_node(e) == node
        assert node_to_expr(node, e.manifold) == e
        jsonschema.validate({"manifold": e.manifold.value, "expr": node}, EXPR_SCHEMA)


class TestErrors:
    def test_invalid_json(self):
        with pytest.raises(ExprFormatError):
            loads_expr("{not json")

    def test_missing_manifold(self):
        with pytest.raises(ExprFormatError):
            dict_to_expr({"expr": {"kind": "identity"}})

    def test_unknown_kind(self):
        with pytest.raises(ExprFormatError):
            dict_to_expr({"manifold": "I", "expr": {"kind": "frobnicate"}})

    def test_kind_manifold_mismatch(self):
        with pytest.raises(ExprFormatError):
            dict_to_expr({"manifold": "S1", "expr": {"kind": "mobius", "alpha": "2"}})

    def test_missing_parameter(self):
        with pytest.raises(ExprFormatError):
            dict_to_expr({"manifold": "I", "expr": {"kind": "mobius"}})

    def test_node_without_kind(self):
        with pytest.raises(ExprFormatError):
            dict_to_expr({"manifold": "I", "expr": {}})

    def test_nested_error_surfaces(self):
        doc = {
            "manifold": "I",
            "expr": {"kind": "inverse", "inner": {"kind": "rotation", "theta": "1"}},
        }
        with pytest.raises(ExprFormatError):
            dict_to_expr(doc)

    @pytest.mark.parametrize("manifold, node", [
        ("I", {"kind": "power", "exponent": 1.5, "inner": {"kind": "mobius", "alpha": "2"}}),
        ("I", {"kind": "power", "exponent": True, "inner": {"kind": "mobius", "alpha": "2"}}),
        ("I", {"kind": "power", "exponent": "2", "inner": {"kind": "mobius", "alpha": "2"}}),
        ("I", {"kind": "perturbed",
               "bumps": [{"c": "0.01", "stage": 1.5, "k": 1, "t_coeffs": ["1"]}]}),
        ("I", {"kind": "perturbed",
               "bumps": [{"c": "0.01", "stage": 1, "k": True, "t_coeffs": ["1"]}]}),
        ("S1", {"kind": "perturbed_lift", "bumps": [{"c": "0.01", "stage": 2.0, "phase": "0"}]}),
    ], ids=["exponent-float", "exponent-bool", "exponent-string", "stage-float", "k-bool",
            "trig-stage-float"])
    def test_integer_fields_take_only_integers(self, manifold, node):
        with pytest.raises(ExprFormatError, match="expected an integer"):
            dict_to_expr({"manifold": manifold, "expr": node})

    @pytest.mark.parametrize("manifold, node", [
        ("I", {"kind": "mobius", "alpha": True}),
        ("I", {"kind": "mobius", "alpha": 2.0}),
        ("I", {"kind": "mobius", "alpha": 2}),
        ("I", {"kind": "mobius", "alpha": None}),
        ("S1", {"kind": "rotation", "theta": "nan"}),
        ("S1", {"kind": "rotation", "theta": "1_0"}),
        ("S1", {"kind": "rotation", "theta": " 1"}),
        ("S1", {"kind": "rotation", "theta": "1\n"}),
        ("S1", {"kind": "rotation", "theta": "Infinity"}),
        ("S1", {"kind": "rotation", "theta": "\u0661"}),  # a non-ASCII digit
        ("I", {"kind": "perturbed",
               "bumps": [{"c": "0.01", "stage": 1, "k": 1, "t_coeffs": ["1", 0.5]}]}),
        ("I", {"kind": "perturbed",
               "bumps": [{"c": "0.01", "stage": 1, "k": 1, "t_coeffs": "12"}]}),
        ("I", {"kind": "perturbed",
               "bumps": [{"c": "0.01", "stage": 1, "k": 1, "t_coeffs": ["1"],
                          "sup_bound": False}]}),
    ], ids=["bool", "float", "int", "null", "nan", "underscore", "space", "newline",
            "infinity-word", "unicode-digit", "list-number", "list-as-string",
            "optional-bool"])
    def test_decimal_fields_take_only_decimal_strings(self, manifold, node):
        with pytest.raises(ExprFormatError, match="expected a (list of )?decimal string"):
            dict_to_expr({"manifold": manifold, "expr": node})

    @pytest.mark.parametrize("text, value", [
        ("2", 2.0), ("-0.5", -0.5), (".5", 0.5), ("2.", 2.0), ("1e-3", 1e-3),
        ("1E+2", 100.0), ("inf", math.inf), ("-inf", -math.inf),
    ])
    def test_decimal_strings_accepted(self, text, value):
        e = dict_to_expr({"manifold": "R", "expr": {"kind": "translation", "c": text}})
        assert e == Translation(value)

    @given(st.from_regex(_DECIMAL_RE, fullmatch=True))
    @example("1.")
    @example(".5")
    @example("-inf")
    @example("1e+05")
    @example("-0.")
    @example("inf")
    def test_every_string_of_the_pattern_decodes(self, text):
        jsonschema.validate(text, _DECIMAL_SCHEMA)
        assert DECIMAL.decode(text, None) == float(text)

    @pytest.mark.parametrize("text", ["infe5", "-infE+2", "e5", "."])
    def test_non_decimals_fail_schema_and_codec(self, text):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(text, _DECIMAL_SCHEMA)
        with pytest.raises(ExprFormatError, match="expected a decimal string"):
            DECIMAL.decode(text, None)
