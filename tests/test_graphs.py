from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliqueforest import (
    CliqueForest,
    EmbeddabilityDecision,
    GraphFormatError,
    MissingEdgeWitness,
    SimpleGraph,
    check_component_completeness,
    is_clique_forest,
    parse_graph,
    to_dot,
)
from cliqueforest.graphs import parse_edge_list
from conftest import ref_components


def brute_force_clique_forest(g: SimpleGraph) -> bool:
    """Independent oracle: every pair in a component must be an edge."""
    for comp in ref_components(g)[0]:
        for u, v in combinations(comp, 2):
            if not g.has_edge(u, v):
                return False
    return True


class TestSimpleGraph:
    def test_from_edges_normalizes(self):
        g = SimpleGraph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edges == frozenset({(0, 2), (1, 2)})

    def test_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            SimpleGraph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            SimpleGraph.from_edges(2, [(0, 5)])

    def test_dict_round_trip(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        assert SimpleGraph.from_dict(g.to_dict()) == g

    def test_canonical_edge_array(self):
        g = SimpleGraph.from_edges(5, [(4, 2), (0, 1), (2, 4), (1, 0), (3, 2)])
        assert g.ends.tolist() == [[0, 1], [2, 3], [2, 4]]
        assert g.ends.dtype == np.int32
        assert SimpleGraph.from_edges(2**31, [(2**31 - 1, 0)]).ends.tolist() == [[0, 2**31 - 1]]

    @pytest.mark.parametrize("edges", [[(0, 1.5)], [(0, 1, 2)], [(True, False)], [(0, 2**64)]],
                             ids=["float", "triple", "bool", "huge"])
    def test_non_integer_or_unpaired_edges_rejected(self, edges):
        with pytest.raises(GraphFormatError):
            SimpleGraph.from_edges(3, edges)

    def test_vertex_count_limit(self):
        with pytest.raises(GraphFormatError, match="above the limit 2\\*\\*31"):
            SimpleGraph.from_edges(2**31 + 1, [])
        with pytest.raises(GraphFormatError, match="negative"):
            SimpleGraph.from_edges(-1, [])

    def test_edges_built_on_first_use(self):
        g = SimpleGraph.from_edges(4, [(1, 0), (2, 3)])
        assert g.to_dict()["edges"] == [[0, 1], [2, 3]]
        assert "edges" not in vars(g)
        assert g.has_edge(3, 2) and not g.has_edge(0, 2)
        assert vars(g)["edges"] == frozenset({(0, 1), (2, 3)})


class TestCliqueForestDecision:
    def test_empty_graph(self):
        res = is_clique_forest(SimpleGraph.from_edges(0, []))
        assert isinstance(res, CliqueForest)
        assert res.components == ()

    def test_edgeless_graph(self):
        res = is_clique_forest(SimpleGraph.from_edges(4, []))
        assert isinstance(res, CliqueForest)
        assert res.sizes == (1, 1, 1, 1)

    def test_disjoint_cliques(self):
        g = SimpleGraph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        res = is_clique_forest(g)
        assert isinstance(res, CliqueForest)
        assert res.components == ((0, 1), (2, 3, 4))

    def test_path_rejected_with_witness(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        res = is_clique_forest(g)
        assert isinstance(res, MissingEdgeWitness)
        assert (res.u, res.v) == (0, 2)
        assert res.path == (0, 1, 2)
        # the witness path really walks edges of the graph
        assert all(g.has_edge(a, b) for a, b in zip(res.path, res.path[1:]))

    def test_four_cycle_rejected(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        res = is_clique_forest(g)
        assert isinstance(res, MissingEdgeWitness)
        assert not g.has_edge(res.u, res.v)

    def test_witness_round_trip(self):
        w = MissingEdgeWitness(0, 2, (0, 1, 2))
        assert MissingEdgeWitness.from_dict(w.to_dict()) == w

    @pytest.mark.parametrize("doc", [
        {"u": 1.7, "v": True, "path": [1, "x"]},
        {"u": 0, "v": 2.0, "path": [0, 1, 2]},
        {"u": 0, "v": 2, "path": [0, 1.0, 2]},
        {"u": False, "v": 2, "path": [0, 1, 2]},
        {"u": 0, "v": 2, "path": "012"},
    ], ids=["mixed", "float-v", "float-path", "bool-u", "string-path"])
    def test_witness_takes_only_json_integers(self, doc):
        with pytest.raises(ValueError, match="must be JSON integers"):
            MissingEdgeWitness.from_dict(doc)

    @pytest.mark.parametrize("path, message", [
        ("012", "expected a list, got '012'"),
        (None, "expected a list, got None"),
        ([0, "1", 2], "expected an integer, got '1'"),
        ([0, True], "expected an integer, got True"),
    ], ids=["string", "null", "string-entry", "bool-entry"])
    def test_witness_path_errors(self, path, message):
        """A decision's reader raises a ``ValueError`` (exit 2 in the CLI)
        naming the field and the first bad part of the path."""
        doc = {"embeddable": False, "manifold": "I",
               "missing_edge": {"u": 0, "v": 2, "path": path}}
        with pytest.raises(ValueError) as ei:
            EmbeddabilityDecision.from_dict(doc)
        assert str(ei.value).endswith(
            f"bad missing_edge (u, v and the path must be JSON integers): path: {message}")

    def test_forest_round_trip(self):
        f = CliqueForest(((0, 1), (2, 3, 4)))
        assert CliqueForest.from_dict(f.to_dict()) == f

    @pytest.mark.parametrize("components", [
        [[0, 1.0], [2, 3, 4]],
        [[False, True], [2, 3, 4]],
        [[0, 1], "234"],
        {"0": [0, 1]},
    ], ids=["float-vertex", "bool-component", "string-component", "dict"])
    def test_forest_takes_only_json_integers(self, components):
        with pytest.raises(ValueError, match="must be lists of JSON integers"):
            CliqueForest.from_dict({"components": components})

    @given(
        st.integers(min_value=0, max_value=7).flatmap(
            lambda n: st.builds(
                SimpleGraph.from_edges,
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
                    ).filter(lambda e: e[0] != e[1]),
                    max_size=12,
                )
                if n > 1
                else st.just([]),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, g):
        res = is_clique_forest(g)
        assert isinstance(res, CliqueForest) == brute_force_clique_forest(g)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_complete_graph_accepted(self, n):
        g = SimpleGraph.from_edges(n, combinations(range(n), 2))
        res = is_clique_forest(g)
        assert isinstance(res, CliqueForest)
        assert res.sizes == (n,)


class TestArrayForest:
    """``is_clique_forest`` holds its forest as the labelling pass's arrays;
    that forest is the one its component tuples build."""

    @pytest.mark.parametrize("components", [
        (), ((0,),), ((0, 1), (2, 3, 4)), ((0, 3), (1,), (2, 4, 5, 6, 7, 8, 9)),
        ((0, 5, 9), (1, 2), (3,), (4, 6, 7, 8)),
    ])
    def test_equals_tuple_forest(self, components):
        n = sum(map(len, components))
        g = SimpleGraph.from_edges(n, [e for c in components for e in combinations(c, 2)])
        forest, built = is_clique_forest(g), CliqueForest(components)
        assert isinstance(forest.cliques.values, np.ndarray)
        assert forest == built and hash(forest) == hash(built)
        assert forest.components == components
        assert all(type(v) is int for c in forest.components for v in c)
        assert forest.sizes == tuple(map(len, components))

    def test_other_partition_unequal(self):
        forest = CliqueForest(((0, 1), (2,)))
        assert forest != CliqueForest(((0,), (1, 2)))  # the same vertex order
        assert forest != CliqueForest(((0, 2), (1,)))  # the same sizes
        assert forest != ((0, 1), (2,))

    def test_integers_beyond_int64_round_trip(self):
        f = CliqueForest(((2**70, -2**70), (), (3,)))
        assert f.components == ((2**70, -2**70), (), (3,))
        assert CliqueForest.from_dict(f.to_dict()) == f


class TestCompletenessReport:
    def test_ok(self):
        g = SimpleGraph.from_edges(3, [(0, 1)])
        rep = check_component_completeness(g)
        assert rep.ok
        assert all(c.complete for c in rep.components)

    def test_missing_pair_reported(self):
        g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        rep = check_component_completeness(g)
        assert not rep.ok
        assert rep.components[0].missing == (0, 2)

    def test_agrees_with_decision(self):
        for edges in ([(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (0, 2)]):
            g = SimpleGraph.from_edges(3, edges)
            rep = check_component_completeness(g)
            assert rep.ok == isinstance(is_clique_forest(g), CliqueForest)


class TestFormats:
    def test_edge_list(self):
        g = parse_edge_list("# comment\nn=4\n0 1\n2 3  # trailing\n")
        assert g == SimpleGraph.from_edges(4, [(0, 1), (2, 3)])

    def test_edge_list_missing_header(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("0 1\n")

    def test_edge_list_bad_line_number(self):
        with pytest.raises(GraphFormatError) as ei:
            parse_edge_list("n=3\n0 1\n0 x\n")
        assert ei.value.line == 3

    def test_edge_list_loop(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("n=3\n1 1\n")

    def test_edge_list_out_of_range(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("n=2\n0 2\n")

    def test_dot_round_trip(self):
        g = SimpleGraph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        assert parse_graph(to_dot(g)) == g

    def test_dot_isolated_vertices(self):
        g = SimpleGraph.from_edges(3, [])
        assert parse_graph(to_dot(g)) == g

    def test_parse_graph_sniffs_edge_list(self):
        assert parse_graph("n=2\n0 1\n") == SimpleGraph.from_edges(2, [(0, 1)])

    def test_dot_chain_statement(self):
        g = parse_graph("graph G {\n  0 -- 1 -- 2;\n}\n")
        assert g == SimpleGraph.from_edges(3, [(0, 1), (1, 2)])

    def test_dot_one_line_body(self):
        g = parse_graph("graph G { 0 -- 1; 1 -- 2 }")
        assert g == SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
        assert isinstance(is_clique_forest(g), MissingEdgeWitness)

    def test_dot_statements_split_on_semicolons_and_newlines(self):
        g = parse_graph("graph G {\n  0 -- 1; 3\n  2 -- 3 // comment\n}\n")
        assert g == SimpleGraph.from_edges(4, [(0, 1), (2, 3)])

    def test_dot_error_line_number(self):
        with pytest.raises(GraphFormatError) as ei:
            parse_graph("graph G {\n  0 -- 1;\n  1 -- 2; x -- 3\n}\n")
        assert ei.value.line == 3

    @pytest.mark.parametrize("text, line", [
        ("graph G {\n  0 -- 1\n} 2 -- 3\n", 3),
        ("graph G {\n  0 -- 1\n}\n\n}\n", 5),
        ("graph G {\n  0 -- 1 // }\n}\n2\n", 4),
    ], ids=["same-line", "second-brace", "brace-in-comment"])
    def test_dot_text_after_closing_brace(self, text, line):
        with pytest.raises(GraphFormatError, match="after the closing") as ei:
            parse_graph(text)
        assert ei.value.line == line

    def test_dot_requires_braces_and_graph_keyword(self):
        with pytest.raises(GraphFormatError):
            parse_graph("graph G\n0 -- 1\n")
        with pytest.raises(GraphFormatError, match="missing closing"):
            parse_graph("graph G {\n  0 -- 1 // }\n")
        with pytest.raises(GraphFormatError):
            parse_graph("{ 0 -- 1 }")

    @pytest.mark.parametrize("text", [
        "// a path\ngraph G { 0 -- 1; 1 -- 2 }\n",
        "\n  // a path { 5 -- 6 }\n\n// more\ngraph G // name\n{ 0 -- 1; 1 -- 2 }\n",
        "strict graph G { 0 -- 1; 1 -- 2; 1 -- 0 }\n",
    ], ids=["comment-line", "comments-and-blank-lines", "strict"])
    def test_dot_after_comments_and_strict(self, text):
        assert parse_graph(text) == SimpleGraph.from_edges(3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize("text", ["digraph G { 0 -> 1 }\n", "// arcs\ndigraph G { 0 -> 1 }\n",
                                      "strict digraph G { 0 -> 1 }\n"])
    def test_digraph_rejected_as_dot(self, text):
        with pytest.raises(GraphFormatError, match="only undirected") as ei:
            parse_graph(text)
        assert ei.value.line == text.count("\n")

    def test_dot_bad_statement(self):
        with pytest.raises(GraphFormatError):
            parse_graph("graph G {\n  frob;\n}\n")
