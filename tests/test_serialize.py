import dataclasses
import io
import itertools
import json
import math
import random
import reprlib
from dataclasses import dataclass
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliqueforest import (
    AlphaSequence,
    BumpPoly,
    BumpTrig,
    CliqueForest,
    CommutationGraphResult,
    Compose,
    EmbeddabilityDecision,
    ExprFormatError,
    FixedPointSet,
    GeneratorAssignment,
    Identity,
    Inverse,
    Manifold,
    MissingEdgeWitness,
    MobiusI,
    ObstructionCertificate,
    ObstructionSearch,
    PerturbedF,
    PerturbedLiftS1,
    Power,
    RotationS1,
    SimpleGraph,
    SineShear,
    SynthesisOptions,
    SynthesisState,
    Translation,
    VerificationReport,
    dict_to_expr,
    dumps_expr,
    evaluate,
    expr_to_dict,
    is_clique_forest,
    loads_expr,
    synthesize_embedding,
    verify_assignment,
)
from cliqueforest import serialize
from cliqueforest.obstructions import CenterWitness, CounterexampleReport, PowerResidual
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
    @pytest.mark.parametrize("e", SAMPLES, ids=lambda e: e.KIND)
    def test_exact_round_trip(self, e):
        assert loads_expr(dumps_expr(e)) == e

    @pytest.mark.parametrize("e", SAMPLES, ids=lambda e: e.KIND)
    def test_schema_valid(self, e):
        jsonschema.validate(expr_to_dict(e), EXPR_SCHEMA)

    @pytest.mark.parametrize("e", SAMPLES, ids=lambda e: e.KIND)
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
        assert {e.KIND for e, _ in LITERAL_NODES} == set(NODES)

    @pytest.mark.parametrize("e, node", LITERAL_NODES, ids=[e.KIND for e, _ in LITERAL_NODES])
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
        with pytest.raises(ExprFormatError, match="expected a (decimal string|list), got"):
            dict_to_expr({"manifold": manifold, "expr": node})

    @pytest.mark.parametrize("text, value", [
        ("2", 2.0), ("-0.5", -0.5), (".5", 0.5), ("2.", 2.0), ("1e-3", 1e-3),
        ("1E+2", 100.0), ("inf", math.inf), ("-inf", -math.inf),
    ])
    def test_decimal_strings_accepted(self, text, value):
        assert DECIMAL.decode(text, None) == value
        doc = {"manifold": "R", "expr": {"kind": "translation", "c": text}}
        if math.isfinite(value):
            assert dict_to_expr(doc) == Translation(value)
        else:  # the codec reads "inf", but a map's parameter must be finite
            with pytest.raises(ExprFormatError, match="must be finite"):
                dict_to_expr(doc)

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


# ---------------------------------------------------------------------------
# the streamed writer: every document class, with empty lists, absent and
# null fields, signed zeros, infinities and any text

INTS = st.integers(-2**70, 2**70)
DECIMALS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, 0.5]))
TEXTS = st.one_of(st.text(), st.sampled_from(['say "hi"', "back\\slash", "\u00fcber \u221e",
                                              "tab\tnew\nline", "\U0001f600"]))
BOTH = st.sampled_from([Manifold.INTERVAL, Manifold.CIRCLE])


def _tuples(elements, **kw):
    return st.lists(elements, **kw).map(tuple)


@st.composite
def _graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12))
    return SimpleGraph.from_edges(n, [(u, v) for u, v in pairs if u != v and max(u, v) < n])


FORESTS = _tuples(_tuples(INTS, max_size=4), max_size=5).map(CliqueForest)


@st.composite
def _decisions(draw):
    m = draw(BOTH)
    if draw(st.booleans()):
        return EmbeddabilityDecision(True, m, clique_forest=draw(FORESTS))
    witness = MissingEdgeWitness(draw(INTS), draw(INTS), draw(_tuples(INTS)))
    return EmbeddabilityDecision(False, m, missing_edge=witness)


@st.composite
def _states(draw, m):
    num_g, max_len = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    r = num_g + 1  # the words with f, of each length L up to max_len
    count = sum(2 * r * (2 * r - 1) ** (L - 1) - 2 * num_g * (2 * num_g - 1) ** (L - 1)
                for L in range(1, max_len + 1))
    margins = draw(_tuples(st.none() | DECIMALS, min_size=count, max_size=count))
    eps = draw(_tuples(DECIMALS, min_size=count, max_size=count))
    bump = BumpPoly(0.01, 1, sup_bound=0.02) if m is Manifold.INTERVAL else BumpTrig(0.02, 1, 0.5)
    bumps = draw(st.sampled_from([(), (bump,)]))
    return SynthesisState(m, draw(DECIMALS), num_g, max_len, count, margins, eps, bumps,
                          draw(DECIMALS), draw(INTS), draw(DECIMALS), draw(DECIMALS))


@st.composite
def _assignments(draw):
    m = draw(BOTH)
    if m is Manifold.INTERVAL:
        fs, gens = [Identity(m), PerturbedF((BumpPoly(0.01, 1),))], (MobiusI(2.0), MobiusI(3.5))
    else:
        fs, gens = [Identity(m), PerturbedLiftS1((BumpTrig(0.02, 1),))], (RotationS1(0.25),)
    return GeneratorAssignment(
        draw(_graphs()), m, draw(FORESTS),
        AlphaSequence(draw(_tuples(DECIMALS, max_size=3)), draw(INTS), draw(DECIMALS)),
        draw(_tuples(st.tuples(INTS, INTS, INTS), max_size=5)), draw(st.sampled_from(fs)),
        gens[:draw(st.integers(0, len(gens)))], draw(st.none() | _states(m)))


@st.composite
def _reports(draw):
    edge = st.fixed_dictionaries({"u": INTS, "v": INTS, "residual": st.floats(),
                                  "ok": st.booleans()})
    non_edge = st.fixed_dictionaries({"u": INTS, "v": INTS, "witness_x": st.floats(),
                                      "residual": st.floats(), "ok": st.booleans()})
    failure = st.fixed_dictionaries({"index": INTS, "word": TEXTS, "margin": st.floats(),
                                     "threshold": st.floats()})
    return VerificationReport(
        draw(st.booleans()), draw(BOTH), draw(INTS), draw(st.floats()), draw(INTS),
        draw(_tuples(edge, max_size=3)), draw(_tuples(non_edge, max_size=3)),
        draw(_tuples(st.tuples(INTS, DECIMALS, DECIMALS), max_size=9)),
        draw(_tuples(failure, max_size=2)), draw(INTS), draw(st.booleans()),
        draw(_tuples(TEXTS, max_size=3)))


FIXED_POINTS = st.builds(
    FixedPointSet, _tuples(st.floats()),
    _tuples(st.sampled_from(["transverse", "tangency-suspect"])), st.floats(), _tuples(INTS),
    st.booleans(), INTS)
COMMGRAPHS = st.builds(
    CommutationGraphResult, _graphs(), st.sampled_from(list(Manifold)), st.floats(), INTS, INTS,
    _tuples(st.tuples(INTS, INTS, st.floats()), max_size=5))
OBSTRUCTIONS = st.builds(
    ObstructionSearch, st.none() | st.builds(ObstructionCertificate, TEXTS, TEXTS, TEXTS, TEXTS),
    st.none() | st.builds(CenterWitness, TEXTS, st.tuples(TEXTS, TEXTS)), INTS)
COUNTEREXAMPLES = st.builds(
    CounterexampleReport, st.floats(), st.floats(), INTS, INTS, st.tuples(st.floats(), st.floats()),
    st.floats(), st.floats(), _tuples(st.builds(PowerResidual, INTS, st.floats(), st.floats()),
                                      max_size=3))


class _Pieces(list):
    """A text file that keeps each written piece."""

    write = list.append
    writelines = list.extend


def _written(obj) -> str:
    fh = io.StringIO()
    serialize.write(obj, fh)
    return fh.getvalue()


class TestWriter:
    """``serialize.write`` writes exactly the ``json.dumps(..., sort_keys=True,
    indent=2)`` text of ``to_dict`` and a newline, with long lists split into
    blocks anywhere."""

    @pytest.mark.parametrize("documents", [
        _decisions(), _assignments(), _reports(), FIXED_POINTS, COMMGRAPHS, OBSTRUCTIONS,
        COUNTEREXAMPLES,
    ], ids=["decision", "assignment", "report", "fixpoints", "commgraph", "obstruct",
            "counterexample"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_json_dumps_of_to_dict(self, documents, data):
        doc = data.draw(documents)
        reference = json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"
        assert _written(doc) == reference
        with mock.patch.object(serialize, "_BLOCK", 2):
            assert _written(doc) == reference

    @pytest.mark.parametrize("certificate", [None, ObstructionCertificate("x", "y", "z", "w")],
                             ids=["no-certificate", "certificate"])
    @pytest.mark.parametrize("witness", [None, CenterWitness("z", ("x", "y"))],
                             ids=["no-witness", "witness"])
    def test_obstruction_search(self, certificate, witness):
        """Written field by field, as every document is."""
        doc = ObstructionSearch(certificate, witness, 29)
        assert _written(doc) == json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"

    def test_long_lists_written_in_blocks(self):
        """A list longer than a block is written as several pieces, none
        holding the whole list."""
        rows = tuple((i, i / 7, -0.0 if i % 3 else 0.0) for i in range(3 * serialize._BLOCK))
        report = VerificationReport(True, Manifold.INTERVAL, 2, 1e-9, 1, (), (), rows, (), 0,
                                    True, ())
        pieces = _Pieces()
        serialize.write(report, pieces)
        text = "".join(pieces)
        assert text == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        assert max(map(len, pieces)) < len(text) / 2


def _random_cliques(count: int, seed: int):
    """``count`` cliques of 1 to 7 vertices labelled at random, as sorted
    tuples ordered by smallest vertex."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 7) for _ in range(count)]
    perm = list(range(sum(sizes)))
    rng.shuffle(perm)
    ends = list(itertools.accumulate(sizes))
    return sorted(tuple(sorted(perm[e - s:e])) for s, e in zip(sizes, ends))


class TestBlockWriter:
    """Clique forests, margin rows and edge rows are written one ``%`` per
    block of ``_BLOCK`` entries, from their arrays; the text stays that of
    ``json.dumps`` of ``to_dict``, also with blocks of 3 entries."""

    COUNTS = [0, 1, serialize._BLOCK, serialize._BLOCK + 1]

    @staticmethod
    def _assert_text(doc):
        reference = json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"
        assert _written(doc) == reference
        with mock.patch.object(serialize, "_BLOCK", 3):
            assert _written(doc) == reference

    @pytest.mark.parametrize("count", COUNTS)
    def test_clique_forest(self, count):
        cliques = _random_cliques(count, count)
        g = SimpleGraph.from_edges(sum(map(len, cliques)),
                                   [e for q in cliques for e in itertools.combinations(q, 2)])
        for forest in (is_clique_forest(g), CliqueForest(cliques)):
            assert forest.components == tuple(cliques)
            self._assert_text(forest)
            self._assert_text(EmbeddabilityDecision(True, Manifold.CIRCLE, clique_forest=forest))

    @pytest.mark.parametrize("count", COUNTS)
    def test_margin_rows(self, count):
        """Rows (index, margin, D/2) as three arrays, with 0.0, 5e-324 and inf
        among the decimals; the first row fails (its margin is not above its
        D/2), and the index column stays integer in ``to_dict``."""
        margins = np.resize([0.0, 5e-324, math.inf, 0.1, 1 / 3], count)
        half = np.resize([0.0, 0.0, 1e300, 5e-324, math.inf], count)
        rows = serialize.Columns((np.arange(1, count + 1), margins, half))
        report = VerificationReport(False, Manifold.INTERVAL, 2, 1e-9, 6, (), (), rows, (), 0,
                                    True, ())
        self._assert_text(report)
        written = report.to_dict()["margins"]
        assert len(written) == count and all(type(r[0]) is int for r in written)
        assert written[:1] in ([], [[1, "0", "0"]])

    @pytest.mark.parametrize("count", COUNTS)
    def test_graph_edge_rows(self, count):
        g = SimpleGraph.from_edges(2 * count + 1, [(2 * k + 2, 2 * k) for k in range(count)])
        assert len(g.ends) == count
        self._assert_text(g)


@dataclass(frozen=True)
class _Lists:
    """A document of the two per-word lists of a synthesis state: margins
    (with nulls) and eps."""

    margins: object
    eps: object

    FIELDS = (("margins", serialize.NULLABLE_DECIMAL_ARRAY), ("eps", serialize.DECIMAL_ARRAY))
    to_dict = serialize.encode
    from_dict = serialize.loader("lists")


_ODD_DECIMALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1, 1 / 3, 0.0, -0.0]


def _lists(count: int) -> _Lists:
    """``count`` margins and eps cycling through ``_ODD_DECIMALS``; the
    margins null first, last and in a run of three in the middle."""
    values = np.resize(_ODD_DECIMALS, count)
    null = np.zeros(count, bool)
    null[:1] = null[-1:] = True
    null[count // 2:count // 2 + 3] = True
    return _Lists(serialize.Decimals(values, null), serialize.Decimals(values[::-1]))


@pytest.fixture(scope="module")
def k2_k3_word_len_3():
    g = SimpleGraph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    return synthesize_embedding(g, opts=SynthesisOptions(word_len=3))


class TestDecimals:
    """``serialize.Decimals``: the per-word lists of a synthesis state, held
    as float64 arrays and written from one table of their distinct texts."""

    COUNTS = [0, 1, serialize._BLOCK, serialize._BLOCK + 1]

    @pytest.mark.parametrize("block", [serialize._BLOCK, 3])
    @pytest.mark.parametrize("count", COUNTS)
    def test_lists_written_as_json_dumps(self, count, block):
        doc = _lists(count)
        with mock.patch.object(serialize, "_BLOCK", block):
            assert _written(doc) == json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"
        if count > 8:
            written = doc.to_dict()
            assert written["margins"][:3] == [None, "-0", "nan"] and written["margins"][-1] is None
            assert written["margins"][count // 2:count // 2 + 3] == [None] * 3
            assert {"0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324"} <= set(
                written["eps"])

    @pytest.mark.parametrize("block", [serialize._BLOCK, 3])
    @pytest.mark.parametrize("count", COUNTS)
    def test_report_rows_share_the_margin_texts(self, count, block):
        """Margin rows whose margin column is taken from the state's list
        (every other entry) and whose D/2 column is a plain array."""
        margins = _lists(2 * count).eps
        rows = np.arange(0, 2 * count, 2)
        cols = serialize.Columns((rows + 1, margins[rows], margins.values[rows] / 2))
        report = VerificationReport(True, Manifold.INTERVAL, 2, 1e-9, 6, (), (), cols, (), 0,
                                    True, ())
        with mock.patch.object(serialize, "_BLOCK", block):
            assert _written(report) == json.dumps(report.to_dict(), sort_keys=True,
                                                  indent=2) + "\n"
        assert cols[1].table()[1] is margins.table()[1]

    @pytest.mark.parametrize("parsed", [False, True], ids=["built", "read"])
    @pytest.mark.parametrize("part", [slice(1, 6), slice(None, None, -2), np.array([5, 0, 2, 2])],
                             ids=["slice", "reversed-slice", "index-array"])
    def test_parts_share_the_table(self, parsed, part):
        """A slice or an index array of a list is written with the very text
        objects of the list's table."""
        values = [0.5, None, 1 / 3, -0.0, 0.5, 1e100, None]
        d = (serialize.Decimals.parse(json.loads(json.dumps(
            [None if v is None else "%.17g" % v for v in values])), True) if parsed
             else serialize.Decimals.of(values))
        sub = d[part]
        assert sub.tolist() == [values[k] for k in np.arange(len(values))[part]]
        _, texts, index = d.table()
        assert sub.table()[1] is texts
        live = [k for k in np.arange(len(values))[part].tolist() if values[k] is not None]
        assert all(a is texts[index[k]] for a, k in zip(sub.block_texts(0, len(sub)), live))
        doc = _Lists(sub, serialize.Decimals(sub.values))
        assert _written(doc) == json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"

    def test_equal_values_written_in_one_form(self):
        doc = _Lists.from_dict({"margins": ["0.5", None, "0.50", "5e-1", "-0", "0"],
                                "eps": ["5e-1", ".5", "0.500", "1E0"]})
        assert doc.margins.tolist() == [0.5, None, 0.5, 0.5, -0.0, 0.0]
        assert _written(doc) == json.dumps(
            {"eps": ["0.5", "0.5", "0.5", "1"], "margins": ["0.5", None, "0.5", "0.5", "-0", "0"]},
            sort_keys=True, indent=2) + "\n"

    def test_reads_as_a_sequence(self):
        d = serialize.Decimals.of([0.5, None, -0.0, math.inf])
        assert list(d) == d.tolist() == [0.5, None, -0.0, math.inf]
        assert len(d) == 4 and d[1] is None and d[-1] == math.inf and type(d[0]) is float
        assert d[1:3] == serialize.Decimals.of([None, -0.0])
        assert d == serialize.Decimals.of((0.5, None, 0.0, math.inf))  # -0.0 == 0.0
        assert hash(d) == hash((0.5, None, -0.0, math.inf))
        assert d != serialize.Decimals.of([0.5, 0.0, -0.0, math.inf])
        assert d != serialize.Decimals.of([0.5, None, -0.0])
        assert serialize.Decimals.of([math.nan]) != serialize.Decimals.of([math.nan])
        with pytest.raises(ValueError):
            d.values[0] = 1.0

    def test_state_round_trip_and_tuples(self, k2_k3_word_len_3):
        state = k2_k3_word_len_3.state
        assert isinstance(state.margins, serialize.Decimals)
        back = SynthesisState.from_dict(json.loads(json.dumps(state.to_dict())))
        assert back == state and hash(back) == hash(state)
        from_tuples = dataclasses.replace(state, margins=tuple(state.margins),
                                          eps=tuple(state.eps))
        assert from_tuples == state and hash(from_tuples) == hash(state)
        assert isinstance(from_tuples.eps, serialize.Decimals)
        assert list(state.margins)[0] == state.margins[0] and state.eps[-1] == list(state.eps)[-1]
        with pytest.raises(ValueError, match="null"):
            dataclasses.replace(state, eps=(None,) + tuple(state.eps)[1:])

    def test_report_shares_the_state_texts(self, k2_k3_word_len_3):
        """The margin column takes the state's texts, and the D/2 column is
        on the margin column's index."""
        state = k2_k3_word_len_3.state
        report = verify_assignment(k2_k3_word_len_3)
        _, margins, halves = report.margin_checks
        assert isinstance(margins, serialize.Decimals)
        assert margins.table()[1] is state.margins.table()[1]
        assert halves.table()[2] is margins.table()[2]
        assert halves.values.tobytes() == (margins.values / 2.0).tobytes()
        assert _written(report) == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"

    def test_report_of_a_rewritten_state(self, k2_k3_word_len_3):
        """A state read back with every margin and eps in another form of the
        same value gives the report of the state as written."""
        doc = json.loads(_written(k2_k3_word_len_3))

        def other_form(text):  # the shortest repr, a trailing zero or a capital E
            t = repr(float(text))
            return t.replace("e", "E") if "e" in t else t + "0"
        for key in ("margins", "eps"):
            texts = doc["state"][key]
            doc["state"][key] = [t if t is None else other_form(t) for t in texts]
            assert all(a != b for a, b in zip(texts, doc["state"][key]) if a is not None)
        report = verify_assignment(GeneratorAssignment.from_dict(doc))
        assert _written(report) == _written(verify_assignment(k2_k3_word_len_3))

    @pytest.mark.parametrize("parsed", [False, True], ids=["built", "read"])
    def test_halves_of_subnormal_margins(self, parsed):
        """Halving 2**-1074 rounds to 0 and 3 * 2**-1074 to the half of
        4 * 2**-1074: the D/2 texts are those of each margin halved."""
        ms = [math.ldexp(m, -1074) for m in (1, 3, 4)]
        assert [m / 2 for m in ms] == [0.0, ms[2] / 2, ms[2] / 2]
        d = (serialize.Decimals.parse([None, *("%.17g" % m for m in ms), None], True) if parsed
             else serialize.Decimals.of([None, *ms, None]))
        live = d.live()
        margins = d[live]
        halves = margins.halved()
        assert halves.table()[2] is margins.table()[2]
        assert halves.values.tobytes() == (d.values[live] / 2.0).tobytes()
        report = VerificationReport(True, Manifold.INTERVAL, 2, 1e-9, 6, (), (),
                                    serialize.Columns((live + 1, margins, halves)), (), 0, True, ())
        text = _written(report)
        assert text == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        assert json.loads(text)["margins"] == [
            [k + 1, "%.17g" % m, "%.17g" % (m / 2)] for k, m in zip(live.tolist(), ms)]

    def test_margin_off_by_its_last_bit_keeps_its_own_text(self, k2_k3_word_len_3):
        """A recorded margin one ulp above the recomputed one: the report's
        margin column takes its own texts, and its D/2 column the recorded
        value's."""
        asg = k2_k3_word_len_3
        margins = list(asg.state.margins)
        k = next(i for i, m in enumerate(margins) if m is not None)
        true = margins[k]
        margins[k] = float(np.nextafter(true, math.inf))
        state = dataclasses.replace(asg.state, margins=tuple(margins))
        report = verify_assignment(dataclasses.replace(asg, state=state))
        assert not isinstance(report.margin_checks[1], serialize.Decimals)
        live, _, halves = report.margin_checks
        assert np.array_equal(halves.table()[2], state.margins.table()[2][live - 1])
        text = _written(report)
        assert text == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        row = json.loads(text)["margins"][0]
        assert row == [k + 1, "%.17g" % true, "%.17g" % (margins[k] / 2)]
        assert "%.17g" % true != "%.17g" % margins[k]

    @given(st.lists(st.one_of(
        st.from_regex(_DECIMAL_RE, fullmatch=True), st.text("0123456789.eE+-inf, \n", max_size=6),
        st.none(), st.integers(), st.floats(), st.booleans(), st.lists(st.none(), max_size=1)),
        max_size=8), st.booleans())
    @example(["0.5", None, "-1E+5", ".5", "2.", "-inf"], True)
    @example(["0.5", None], False)
    @example(["nan"], True)
    @example(["1\n"], True)
    @example([0.5], True)
    @example([True], True)
    @example([[None]], True)
    @example([], False)
    # strings that float() and numpy convert but the pattern rejects
    @example(["0.5", "1_0"], True)
    @example([" 0.5", "0.5"], False)
    @example(["+0.5"], True)
    @example(["infinity", "inf"], True)
    @example(["NaN"], False)
    @example(["\u0661"], True)  # ARABIC-INDIC DIGIT ONE
    # the edges of the character proof: float() and the characters pass, the
    # leading + does not; or the characters fail
    @example(["+inf"], True)
    @example(["0.5", "+1e5"], False)
    @example(["1e+5", "-inf"], False)
    @example(["inF"], True)
    @example(["1,5"], True)
    @example([""], True)
    @example(["\uff15"], True)  # FULLWIDTH DIGIT FIVE
    @example(["0x1p3"], True)
    @example(["1e5 "], True)
    # entries that are no string among canonical ones
    @example(["0.5", "1", 0.5], True)
    @example(["1", True, "0.5"], False)
    @example(["0.5", None, 1], True)
    @settings(max_examples=300, deadline=None)
    def test_read_accepts_exactly_the_pattern(self, vs, nullable):
        """Also with blocks of three, each through the kernel: the character
        proof runs on each block of strings, joined."""
        bad = [v for v in vs if not ((nullable and v is None)
                                     or (isinstance(v, str) and _DECIMAL_RE.fullmatch(v)))]
        for block, kernel_min in ((serialize._BLOCK, serialize._KERNEL_MIN), (3, 0)):
            with mock.patch.object(serialize, "_BLOCK", block), \
                    mock.patch.object(serialize, "_KERNEL_MIN", kernel_min):
                if bad:
                    with pytest.raises(ExprFormatError) as ei:
                        serialize.Decimals.parse(vs, nullable)
                    assert str(ei.value) == f"expected a decimal string, got {reprlib.repr(bad[0])}"
                    continue
                d = serialize.Decimals.parse(vs, nullable)
                assert [None if v is None else v.hex() for v in d.tolist()] == [
                    None if v is None else float(v).hex() for v in vs]
                assert d.block_texts(0, len(d)) == ["%.17g" % float(v) for v in vs
                                                    if v is not None]

    @pytest.mark.parametrize("block, kernel_min", [
        (serialize._BLOCK, serialize._KERNEL_MIN), (3, 0)], ids=["default", "blocks-of-3"])
    def test_read_list_is_written_in_percent_17g(self, block, kernel_min):
        """A read list is written as its values' ``"%.17g"``, whatever form
        its strings take."""
        values = [0.5, 0.1, -0.0, 1e100, 5e-324, math.inf, 1 / 3]
        canonical = ["%.17g" % v for v in values]
        others = ["0.50", "5e-1", ".1", "-0.0", "1E+100", "4.9406564584124654E-324", "0.333"]
        vs = json.loads(json.dumps(canonical + [None] + others + [None]))
        with mock.patch.object(serialize, "_BLOCK", block), \
                mock.patch.object(serialize, "_KERNEL_MIN", kernel_min):
            d = serialize.Decimals.parse(vs, True)
            written = json.loads(_written(_Lists(d, serialize.Decimals(values))))
        assert written["margins"] == canonical + [None] + [
            "0.5", "0.5", "0.10000000000000001", "-0", "1e+100", "4.9406564584124654e-324",
            "0.33300000000000002", None]

    def test_read_list_holds_no_document_string(self):
        """The table of a read list is written from its values: none of its
        texts is a string object of the document, which would keep the
        document's strings alive.  Its rows are the distinct strings in the
        order of their first use, so "0.50" has a row of its own, written as
        "0.5"."""
        values = [0.5, 0.1, 1e100, 5e-324, math.inf, 1 / 3, 0.25]
        vs = json.loads(json.dumps(["%.17g" % v for v in values] * 2 + [None, "0.50"]))
        d = serialize.Decimals.parse(vs, True)
        texts = d.table()[1]
        assert texts.tolist() == ["%.17g" % v for v in values] + ["0.5"]
        read = {id(v) for v in vs}
        assert not any(id(t) in read for t in texts.tolist())


def _reference(x: np.ndarray) -> list:
    return ["%.17g" % v for v in x.tolist()]


def _table_texts(x: np.ndarray) -> list:
    """The bare text of each value of ``x`` in the table of its ``Decimals``."""
    return serialize.Decimals(x).block_texts(0, len(x))


def _random_patterns(count: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2 ** 64, count, np.uint64).view(np.float64)


def _log_uniform_and_halves() -> np.ndarray:
    x = 10 ** np.random.default_rng(3).uniform(-40, 40, 100_000)
    return np.concatenate((x, x / 2))


def _ulps_around_powers_of_ten() -> np.ndarray:
    vs = []
    for e in range(-30, 21):
        up = down = float(f"1e{e}")
        vs.append(up)
        for _ in range(3):
            up, down = np.nextafter(up, math.inf), np.nextafter(down, 0.0)
            vs += [up, down]
    return np.array(vs + [-v for v in vs])


def _short_expansions() -> np.ndarray:
    """m 2**e for m < 2000 and |e| <= 60: few decimal digits, so exact ties
    at 17 significant digits occur."""
    return np.ldexp(np.arange(1.0, 2000.0)[:, None], np.arange(-60, 61)[None, :]).ravel()


# every layout of "%.17g" (integer, fixed with a fraction, "0." and up to
# three zeros, exponent with and without a fraction, 3-digit exponents) and
# the values the kernel leaves to ``%``
_LAYOUT_VALUES = [
    123.0, 4.5e16, 123.5, 1.05, 1 / 3, 0.1, 0.05, 0.00123, 0.000123, 1e20, 3e-7, 1.5e-5,
    9.5367431640625e-07, 1e100, 1.2345e-100, 6.02e23, 2.5e-250, 1.5e279, 99999999999999999.0,
    123456789012345678.0, 0.99999999999999989, 0.0, -0.0, math.nan, math.inf, -math.inf,
    5e-324, 2.2250738585072014e-308, 1e-300, 1.5e300, 1e16, 1.0, 1e280, 1e-280]


def _layout_values() -> np.ndarray:
    x = np.array(_LAYOUT_VALUES)
    x = np.concatenate((x, -x, 10 ** np.random.default_rng(4).uniform(-280, 280, 3000)))
    return np.concatenate((x, -x[-3000:]))


def _layout(text: str) -> str:
    """The layout of a "%.17g" text, as ``_digit_texts`` picks its template."""
    body = text.lstrip("-")
    if body.startswith("0.") and text != "0":
        return ("-" if text.startswith("-") else "") + "0." + "0" * (
            len(body[2:]) - len(body[2:].lstrip("0")))
    return ("." if "." in body else "") + ("e" if "e" in body else "")


class TestDecimalKernel:
    """The exact 17-digit kernel behind ``Decimals``' text table: each text
    equals ``'"%.17g"' % v``, whether the kernel proves its digits or leaves
    the value to ``%``."""

    CASES = {"random-patterns": lambda: _random_patterns(1_000_000, 1),
             "log-uniform-and-halves": _log_uniform_and_halves,
             "ulps-around-powers-of-ten": _ulps_around_powers_of_ten,
             "short-expansions": _short_expansions,
             "layouts": _layout_values}

    @pytest.mark.parametrize("case", CASES)
    def test_texts_are_percent_17g(self, case):
        x = self.CASES[case]()
        assert len(x) >= serialize._KERNEL_MIN
        assert _table_texts(x) == _reference(x)

    @pytest.mark.parametrize("case", CASES)
    def test_blocks_of_three_through_the_kernel(self, case):
        """Every block, however small, through the kernel: each block of
        three sees its own decades, layouts and deferrals."""
        x = self.CASES[case]()
        x = x[np.random.default_rng(5).permutation(len(x))[:6000]]
        with mock.patch.object(serialize, "_BLOCK", 3), \
                mock.patch.object(serialize, "_KERNEL_MIN", 0):
            assert _table_texts(x) == _reference(x)

    def test_every_layout_is_proved(self):
        x = _layout_values()
        proved, _, _ = serialize._digits(x)
        layouts = {_layout(t) for t in _reference(x[proved])}
        assert layouts == {"", ".", "e", ".e", "0.", "0.0", "0.00", "0.000"}
        assert any(v >= 1e100 or v < 1e-99 for v in x[proved])  # 3-digit exponents
        left = _reference(np.delete(x, proved))
        assert {"0", "-0", "nan", "inf", "-inf", "4.9406564584124654e-324", "1",
                "10000000000000000"} <= set(left)
        # negative values are left to ``%``, in every layout
        assert (x[proved] > 0).all() and len(left) > len(x) / 2
        assert {"-0.", "-0.0", "-0.00", "-0.000", "-.", "-.e"} <= {
            _layout(t) if t.startswith("-0.") else "-" + _layout(t) for t in left}

    def test_ties_are_deferred(self):
        x = _short_expansions()
        proved, _, _ = serialize._digits(x)
        deferred = np.delete(x, proved)
        assert 0 < len(deferred) < len(x) / 10
        ties = [v for v in deferred.tolist()
                if len(d := format(abs(v), ".40e").split("e")[0].replace(".", "").rstrip("0")) == 18
                and d.endswith("5")]
        assert ties  # exact ties at the 18th digit, which only ``%`` rounds

    def test_carry_to_the_next_decade(self):
        """A decade estimate one below (log10 rounded down) scales a value
        just under a power of ten to 10**17 - 1/2 or more, which rounds to
        10**17: the digits carry to 10**16 at the next decade."""
        below = np.array([1e-14, 1e98, 1e129, 1e153, 1e220, 1e-70, 1e-79])
        assert all(t.startswith("1e") for t in _reference(below))
        log10 = np.log10
        with mock.patch.object(np, "log10", lambda a: np.nextafter(log10(a), -math.inf)):
            proved, n, k = serialize._digits(below)
            assert len(proved) == len(below) and (n == 10 ** 16).all()
            assert serialize._digit_texts(n, k) == _reference(below)
            x = _ulps_around_powers_of_ten()
            assert _table_texts(x) == _reference(x)

    def test_powers_of_ten_parts_are_exact(self):
        from fractions import Fraction
        for p in range(-300, 300):
            hi, high, low, lo = serialize._pow10_parts(p)
            exact = Fraction(10) ** p
            assert hi == float(exact) and lo == float(exact - Fraction(hi))
            assert Fraction(high) + Fraction(low) == Fraction(hi)
            for half in (high, low):  # Veltkamp's halves: 26 significant bits at most
                num = abs(Fraction(half).numerator)
                assert (num // (num & -num)).bit_length() <= 26 if num else True

    def test_deep_schedule_margins_and_halves_are_proved(self, k2_k3_assignment):
        """K2+K3 on I at word length 6 (the deep-schedule workload): no
        distinct margin or margin half is left to ``%``."""
        margins = k2_k3_assignment.state.margins
        values = np.unique(margins.values[margins.live()])
        for x in (values, values / 2):
            assert len(x) > 60_000
            assert len(serialize._digits(x)[0]) == len(x)

    @pytest.mark.parametrize("block", [serialize._BLOCK, 3])
    def test_odd_lists_through_the_kernel(self, block):
        """The lists of ``TestDecimals``, with the kernel on every block."""
        doc = _lists(2 * serialize._BLOCK + 1)
        with mock.patch.object(serialize, "_BLOCK", block), \
                mock.patch.object(serialize, "_KERNEL_MIN", 0):
            assert _written(doc) == json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"
