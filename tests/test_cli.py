import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest

from cliqueforest import (
    BumpPoly,
    CliqueForest,
    EmbeddabilityDecision,
    GeneratorAssignment,
    MobiusI,
    PerturbedF,
    Power,
    RotationS1,
    SimpleGraph,
    SineShear,
    VerificationReport,
    dumps_expr,
)
from cliqueforest import cli
from cliqueforest.cli import EXIT_FINDING, EXIT_INPUT, EXIT_OK, build_parser, main
from cliqueforest.synthesis import forest_layout
from cliqueforest.schemas import (
    ASSIGNMENT_SCHEMA,
    COMMGRAPH_SCHEMA,
    DECISION_SCHEMA,
    FIXPOINTS_SCHEMA,
    OBSTRUCTION_SCHEMA,
    REPORT_SCHEMA,
)

K2 = "n=2\n0 1\n"
K3 = "n=3\n0 1\n0 2\n1 2\n"
P3 = "n=3\n0 1\n1 2\n"
TWO_CLIQUES = "n=4\n0 1\n2 3\n"
K2_K3 = "n=5\n0 1\n2 3\n2 4\n3 4\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def _synthesized(graph_file, tmp_path, graph, word_len, name="asg"):
    """Synthesize ``graph`` on I at ``word_len``: the assignment's path and
    its document."""
    asg = tmp_path / f"{name}.json"
    assert main(["synthesize", graph_file(graph, f"{name}.txt"), "--word-len", str(word_len),
                 "--out", str(asg), "--report", str(tmp_path / f"{name}-rep.json")]) == EXIT_OK
    return asg, json.loads(asg.read_text())


class TestDecide:
    def test_clique_accepted(self, graph_file, tmp_path):
        out = tmp_path / "d.json"
        assert main(["decide", graph_file(K3), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, DECISION_SCHEMA)
        assert doc["embeddable"]

    def test_path_rejected_with_witness(self, graph_file, tmp_path):
        out = tmp_path / "d.json"
        assert main(["decide", graph_file(P3), "--out", str(out)]) == EXIT_FINDING
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, DECISION_SCHEMA)
        assert doc["missing_edge"] == {"u": 0, "v": 2, "path": [0, 1, 2]}

    def test_one_line_dot_path_rejected(self, graph_file, tmp_path):
        out = tmp_path / "d.json"
        path = graph_file("graph G { 0 -- 1; 1 -- 2 }\n", "g.dot")
        assert main(["decide", path, "--out", str(out)]) == EXIT_FINDING
        assert json.loads(out.read_text())["missing_edge"]["path"] == [0, 1, 2]

    @pytest.mark.parametrize("text", ["// a path\ngraph G { 0 -- 1; 1 -- 2 }\n",
                                      "strict graph G { 0 -- 1; 1 -- 2 }\n"],
                             ids=["comment-line", "strict"])
    def test_dot_after_comment_or_strict_path_rejected(self, graph_file, tmp_path, text):
        out = tmp_path / "d.json"
        assert main(["decide", graph_file(text, "g.dot"), "--out", str(out)]) == EXIT_FINDING
        assert json.loads(out.read_text())["missing_edge"]["path"] == [0, 1, 2]

    def test_digraph_rejected(self, graph_file, capsys):
        path = graph_file("// arcs\ndigraph G { 0 -> 1 }\n", "g.dot")
        assert main(["decide", path]) == EXIT_INPUT
        assert "line 2: only undirected 'graph' documents supported" in capsys.readouterr().err

    def test_dot_text_after_closing_brace_rejected(self, graph_file, capsys):
        path = graph_file("graph G { 0 -- 1 } extra", "g.dot")
        assert main(["decide", path]) == EXIT_INPUT
        assert "line 1: text after the closing '}': 'extra'" in capsys.readouterr().err

    @pytest.mark.parametrize("tail", ["} // note", "}\n\n", "}\n  // note }\n"],
                             ids=["comment", "blank-lines", "comment-line"])
    def test_dot_comment_or_whitespace_after_closing_brace(self, graph_file, capsys, tail):
        path = graph_file("graph G {\n  0 -- 1\n" + tail, "g.dot")
        assert main(["decide", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["clique_forest"]["components"] == [[0, 1]]

    def test_circle_manifold(self, graph_file, capsys):
        assert main(["decide", graph_file(K3), "--manifold", "S1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["manifold"] == "S1"

    def test_line_rejected(self, graph_file):
        assert main(["decide", graph_file(K3), "--manifold", "R"]) == EXIT_INPUT

    @pytest.mark.parametrize("name", ["X", "s1", "INTERVAL"])
    def test_unknown_manifold_rejected(self, graph_file, capsys, name):
        with pytest.raises(SystemExit) as ei:
            main(["decide", graph_file(K3), "--manifold", name])
        assert ei.value.code == EXIT_INPUT
        assert f"unknown manifold {name!r} (use I or S1)" in capsys.readouterr().err

    def test_stdout_default(self, graph_file, capsys):
        assert main(["decide", graph_file(K3)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["embeddable"]

    def test_large_forest_decided_without_edge_tuples(self, graph_file, tmp_path, monkeypatch):
        """Parse, decide and write for a 200k-vertex forest, then for the same
        forest with one edge of a 3-clique cut: neither builds the frozenset."""
        def built(self):
            raise AssertionError("the edges frozenset was built")

        monkeypatch.setattr(SimpleGraph, "edges", property(built))
        rng = random.Random(41)
        n = 200_000
        perm = list(range(n))
        rng.shuffle(perm)
        cliques, edges, start = [], [], 0
        while start < n:
            cliques.append(sorted(perm[start:start + rng.randint(2, 6)]))
            start += len(cliques[-1])
            edges += [(u, v) if rng.random() < 0.5 else (v, u)
                      for u, v in combinations(cliques[-1], 2)]
        out = tmp_path / "d.json"
        text = f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        assert main(["decide", graph_file(text), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["clique_forest"]["components"] == sorted(cliques)
        a, b, c = next(q for q in cliques if len(q) == 3)
        kept = [e for e in edges if sorted(e) != [a, c]]
        text = f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in kept)
        assert main(["decide", graph_file(text, "cut.txt"), "--out", str(out)]) == EXIT_FINDING
        assert json.loads(out.read_text())["missing_edge"] == {"u": a, "v": c, "path": [a, b, c]}

    def test_deterministic_output(self, graph_file, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["decide", graph_file(TWO_CLIQUES), "--out", str(o1)])
        main(["decide", graph_file(TWO_CLIQUES), "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()


class TestInputErrors:
    def test_missing_file(self):
        assert main(["decide", "/nonexistent/g.txt"]) == EXIT_INPUT

    def test_malformed_graph(self, graph_file, capsys):
        assert main(["decide", graph_file("n=2\n0 x\n")]) == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    def test_loop_graph(self, graph_file):
        assert main(["decide", graph_file("n=2\n1 1\n")]) == EXIT_INPUT

    @pytest.mark.parametrize("command", ["decide", "synthesize"])
    def test_directory_as_graph(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["decide", "{graph}", "--out", "{dir}"],
        ["synthesize", "{graph}", "--word-len", "2", "--out", "{dir}", "--report", "{dir}/r"],
        ["synthesize", "{graph}", "--word-len", "2", "--out", "{dir}/a", "--report", "{dir}"],
    ], ids=["decide-out", "synthesize-out", "synthesize-report"])
    def test_directory_as_output(self, graph_file, tmp_path, capsys, argv):
        graph = graph_file(K2_K3)
        assert main([a.format(graph=graph, dir=tmp_path) for a in argv]) == EXIT_INPUT
        assert capsys.readouterr().err == f"output error: {tmp_path}: Is a directory\n"

    def test_graph_too_large_for_memory(self, graph_file, capsys, monkeypatch):
        def exhausted(g, manifold):
            raise MemoryError

        monkeypatch.setattr(cli, "embeddable_raag", exhausted)
        assert main(["decide", graph_file(K3)]) == EXIT_INPUT
        assert "input error: decide input too large for memory" in capsys.readouterr().err

    def test_vertex_count_above_limit(self, graph_file, capsys):
        # the labelling pass needs n-sized arrays: 2**50 vertices is an input error
        assert main(["decide", graph_file(f"n={2**50}\n0 1\n")]) == EXIT_INPUT
        assert "above the limit 2**31" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["decide", "g.txt", "--grid", "8"],
                                      ["decide", "g.txt", "--tol", "1e-6"],
                                      ["obstruct", "--grid", "8"]])
    def test_decide_obstruct_take_no_check_flags(self, argv):
        # argparse rejects an unknown option with exit code 2
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2

    @pytest.mark.parametrize("flags", [["--grid", "1"], ["--grid", "0"], ["--tol", "nan"],
                                       ["--tol", "-1"], ["--tol", "0"], ["--tol", "inf"]],
                             ids=["grid-1", "grid-0", "tol-nan", "tol-neg", "tol-0", "tol-inf"])
    @pytest.mark.parametrize("argv", [["synthesize", "k2k3.txt", "--word-len", "3"],
                                      ["verify", "asg.json"], ["fixpoints", "e.json"],
                                      ["commgraph", "e.json"]],
                             ids=["synthesize", "verify", "fixpoints", "commgraph"])
    def test_degenerate_grid_and_tol_rejected(self, capsys, argv, flags):
        # a grid of fewer than two cells or a tolerance that is not a finite
        # positive number is an input error, never a finding (exit 1)
        with pytest.raises(SystemExit) as ei:
            main(argv + flags)
        assert ei.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        assert ("grid must be at least 2" if "--grid" in flags
                else "tol must be finite and positive") in err

    @pytest.mark.parametrize("flags", [["--grid", "2.5"], ["--word-len", "x"],
                                       ["--alpha-k", "1e3"]], ids=["grid", "word-len", "alpha-k"])
    def test_non_integer_counts_rejected(self, capsys, flags):
        # a count that is no integer is an input error, like one below its least value
        with pytest.raises(SystemExit) as ei:
            main(["synthesize", "k2k3.txt"] + flags)
        assert ei.value.code == EXIT_INPUT
        assert f"argument {flags[0]}: invalid integer value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["synthesize", "--help"],
                                      ["decide"], ["verify", "a.json", "--word-len", "x"]])
    def test_parser_reused_across_calls(self, capsys, argv):
        # the parser is built once per process; every call prints and exits
        # as a freshly built one does
        runs = []
        for parser in (build_parser(), None, None):
            with pytest.raises(SystemExit) as ei:
                parser.parse_args(argv) if parser else main(argv)
            runs.append((ei.value.code, capsys.readouterr()))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == (0 if "--help" in argv else 2)


def _run_cli(*argv):
    """The exit code and standard error of the command in a child process."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-m", "cliqueforest.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stderr


class TestDeepNesting:
    """A document nested beyond the interpreter's recursion limit is an
    input error (exit 2, one line), not a traceback with exit 1, which
    these commands give a finding; each runs as the console script does."""

    NESTED = "input error: document nested too deeply: decoding it exceeds the recursion limit"

    @pytest.mark.parametrize("command", ["fixpoints", "commgraph"])
    def test_nested_inverses(self, tmp_path, command):
        """250 nested inverse nodes exceed the limit in the node decoder; 200
        decode and run."""
        codes = {}
        for depth in (200, 250):
            node = {"kind": "mobius", "alpha": "1.5"}
            for _ in range(depth):
                node = {"kind": "inverse", "inner": node}
            path = tmp_path / f"inverse-{depth}.json"
            path.write_text(json.dumps({"manifold": "I", "expr": node}))
            codes[depth] = _run_cli(command, str(path), "--out", str(tmp_path / f"{depth}.json"))
        assert codes[200] == (EXIT_OK, "")
        code, err = codes[250]
        assert code == EXIT_INPUT and err.startswith(self.NESTED) and err.count("\n") == 1

    def test_verify_deep_array(self, tmp_path):
        """A 200,000-deep JSON array exceeds the limit in the JSON parser."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, err = _run_cli("verify", str(path), "--out", str(tmp_path / "r.json"))
        assert code == EXIT_INPUT and err.startswith(self.NESTED) and err.count("\n") == 1


class TestSynthesizeVerify:
    def test_synthesize_and_reverify(self, graph_file, tmp_path):
        asg = tmp_path / "asg.json"
        rep = tmp_path / "rep.json"
        rc = main(
            ["synthesize", graph_file(TWO_CLIQUES), "--word-len", "4",
             "--out", str(asg), "--report", str(rep)]
        )
        assert rc == EXIT_OK
        report = json.loads(rep.read_text())
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["ok"]

        out2 = tmp_path / "rep2.json"
        rc2 = main(["verify", str(asg), "--word-len", "4", "--out", str(out2)])
        assert rc2 == EXIT_OK
        assert json.loads(out2.read_text())["ok"]

    def test_verify_rejects_num_g_mismatch(self, graph_file, tmp_path, capsys):
        # the state of a K2+K2 synthesis covers its own schedule, over 2 g
        # generators, where the K2+K3 assignment has 3
        asg, doc = _synthesized(graph_file, tmp_path, K2_K3, 3)
        _, other = _synthesized(graph_file, tmp_path, TWO_CLIQUES, 3, "other")
        doc["state"] = other["state"]
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "input error: synthesis state schedules 2 g generators, the assignment has 3\n")

    @pytest.mark.parametrize("graph, word_len, pair, checked", [
        (K2_K3, 2, (2, 3), 36),
        (K3, 3, (0, 1), 0),
    ], ids=["K2+K3", "K3"])
    def test_verify_rejects_generators_not_of_the_alphas(self, graph_file, tmp_path,
                                                        graph, word_len, pair, checked):
        """g2 := g1 keeps every edge commuting, and the alpha record still
        certifies its height, but two vertices get one map."""
        asg, doc = _synthesized(graph_file, tmp_path, graph, word_len)
        doc["gens"][1]["alpha"] = doc["gens"][0]["alpha"]
        exprs = GeneratorAssignment.from_dict(doc).exprs()
        assert exprs[pair[0]] == exprs[pair[1]]
        asg.write_text(json.dumps(doc))
        out = tmp_path / "v.json"
        assert main(["verify", str(asg), "--out", str(out)]) == EXIT_FINDING
        rep = json.loads(out.read_text())
        assert not rep["ok"] and not rep["pure_g_all_nontrivial"]
        assert all(c["ok"] for c in rep["edge_checks"])
        assert rep["pure_g_checked"] == checked
        assert rep["notes"][0] == "the g generators are not the maps of the recorded alphas"

    def test_verify_recomputes_the_alpha_relation(self, graph_file, tmp_path):
        """Alphas and generators 2, 4 and 8 satisfy log 4 = 2 log 2; the
        recorded minimum is not read, so the forged K3 document fails."""
        asg, doc = _synthesized(graph_file, tmp_path, K3, 3)
        doc["alphas"]["alphas"] = ["2", "4", "8"]
        for gen, alpha in zip(doc["gens"], doc["alphas"]["alphas"]):
            gen["alpha"] = alpha
        asg.write_text(json.dumps(doc))
        out = tmp_path / "v.json"
        assert main(["verify", str(asg), "--word-len", "3", "--out", str(out)]) == EXIT_FINDING
        rep = json.loads(out.read_text())
        assert not rep["ok"] and not rep["pure_g_all_nontrivial"]
        assert all(c["ok"] for c in rep["edge_checks"])
        assert rep["notes"][-1].startswith("the alpha relation minimum recomputed at height 5 "
                                           "is 0.0")

    @pytest.mark.parametrize("components, code", [
        ([[0, 1, 7], [2, 3, 4]], EXIT_INPUT),
        ([[0, 1, 2], [2, 3, 4]], EXIT_INPUT),
        ([[0, 1, -3], [2, 3, 4]], EXIT_INPUT),
        ([[0, 1], [2, 3]], EXIT_INPUT),
        ([[2, 3, 4], [0, 1]], EXIT_OK),
        ([[1, 0], [4, 2, 3]], EXIT_OK),
    ], ids=["foreign-vertex", "shared-vertex", "negative-vertex", "missing-vertex",
            "components-reordered", "vertices-reordered"])
    def test_verify_checks_the_forest_against_the_graph(self, graph_file, tmp_path, capsys,
                                                        components, code):
        # the layout is rebuilt from the edited forest, so only the forest is wrong
        asg, doc = _synthesized(graph_file, tmp_path, K2_K3, 2)
        doc["clique_forest"]["components"] = components
        doc["layout"] = [list(row) for row in forest_layout(CliqueForest(components))]
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--out", str(tmp_path / "v.json")]) == code
        assert capsys.readouterr().err == ("" if code == EXIT_OK else (
            "input error: clique forest components are not the connected components "
            "of the graph, with each vertex in exactly one\n"))

    @pytest.mark.parametrize("edit, message", [
        ({"max_len": 0, "word_count": 0, "margins": [], "eps": []}, "num_g 3 and max_len 0"),
        ({"num_g": 0}, "num_g 0 and max_len 2"),
    ], ids=["no-length", "no-generator"])
    def test_verify_rejects_a_state_scheduling_nothing(self, graph_file, tmp_path, capsys,
                                                       edit, message):
        asg, doc = _synthesized(graph_file, tmp_path, K2_K3, 2)
        doc["state"].update(edit)
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--word-len", "2",
                     "--out", str(tmp_path / "v.json")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: bad assignment: bad synthesis state: {message} must both be >= 1\n")

    @pytest.mark.parametrize("section, edits", [
        ("state", {"num_g": 3.7, "max_len": 4.2}),
        ("state", {"word_count": True}),
        ("state", {"grid_n": "1025"}),
        ("alphas", {"k_bound": 6.5}),
    ], ids=["num_g-max_len", "word_count", "grid_n", "k_bound"])
    def test_verify_rejects_non_integer_fields(self, graph_file, tmp_path, capsys,
                                               section, edits):
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K2_K3), "--word-len", "4",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        doc[section].update(edits)
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--out", str(tmp_path / "v.json")]) == EXIT_INPUT
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("state", "p", True),
        ("state", "lambda_est", 3.0),
        ("state", "min_derivative", "nan"),
        ("state", "deriv_lower_bound", "0.5x"),
        ("alphas", "alphas", ["nan", "1.5", "2.0"]),
        ("alphas", "alphas", "1.5"),
        ("alphas", "min_relation", False),
        # a callable edits the recorded list in place of a literal value
        ("state", "eps", lambda es: [True] + es[1:]),
        ("state", "eps", lambda es: es[:-1] + ["nan"]),
        ("state", "margins", lambda ms: [m if m is None else float(m) for m in ms]),
    ], ids=["bool-p", "number-lambda", "nan-min-derivative", "bad-bound", "nan-alpha",
            "string-alphas", "bool-min-relation", "bool-eps", "nan-eps", "number-margins"])
    def test_verify_rejects_non_decimal_fields(self, graph_file, tmp_path, capsys,
                                               section, key, value):
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K2_K3), "--word-len", "4",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        doc[section][key] = value(doc[section][key]) if callable(value) else value
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--out", str(tmp_path / "v.json")]) == EXIT_INPUT
        assert "expected a" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas, message", [
        ("1.5", "expected a list, got '1.5'"),
        ({"a": "1.5"}, "expected a list, got {'a': '1.5'}"),
        (["1.5", 2], "expected a decimal string, got 2"),
        (["1.5", "x"], "expected a decimal string, got 'x'"),
    ], ids=["string", "object", "number-entry", "bad-string-entry"])
    def test_verify_rejects_bad_alpha_list(self, graph_file, tmp_path, capsys, alphas, message):
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K2_K3), "--word-len", "2",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        doc["alphas"]["alphas"] = alphas
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--out", str(tmp_path / "v.json")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: bad assignment: bad alpha sequence: alphas: {message}\n")

    @pytest.mark.parametrize("key", ["margins", "eps"])
    def test_verify_rejects_a_decimal_list_that_is_no_list(self, graph_file, tmp_path, capsys,
                                                           key):
        asg, doc = _synthesized(graph_file, tmp_path, K2_K3, 2)
        doc["state"][key] = "abc"
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--out", str(tmp_path / "v.json")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: bad assignment: bad synthesis state: {key}: "
            "expected a list, got 'abc'\n")

    @pytest.mark.parametrize("key", ["margins", "eps"])
    def test_verify_names_the_list_of_a_bad_decimal(self, graph_file, tmp_path, capsys, key):
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K2_K3), "--word-len", "2",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        texts = doc["state"][key]
        texts[next(i for i, t in enumerate(texts) if t is not None)] = "1_0"
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--out", str(tmp_path / "v.json")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: bad assignment: bad synthesis state: {key}: "
            "expected a decimal string, got '1_0'\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda st: {"margins": st["margins"][:2]}, "2 margins and 28 eps recorded"),
        (lambda st: {"margins": [None] * len(st["margins"])}, "not null exactly at"),
        (lambda st: {"word_count": 7}, "28 margins and 28 eps recorded for 7 scheduled words"),
        (lambda st: {"word_count": 7, "margins": st["margins"][:7], "eps": st["eps"][:7]},
         "word_count 7 is not the number of words scheduled up to length 2 over 3 g generators"),
    ], ids=["truncated-margins", "null-margins", "word-count", "word-count-and-lists"])
    def test_verify_rejects_state_not_covering_its_schedule(self, graph_file, tmp_path, capsys,
                                                            edit, message):
        # K2+K3 at word length 2 schedules 28 words
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K2_K3), "--word-len", "2",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        assert doc["state"]["word_count"] == 28
        doc["state"].update(edit(doc["state"]))
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--out", str(tmp_path / "v.json")]) == EXIT_INPUT
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["gens"][0].update(alpha="inf"), "must be finite"),
        (lambda doc: doc["state"].update(p="inf"), "basepoint"),
        (lambda doc: doc["state"].update(p="0"), "basepoint"),
        (lambda doc: doc["state"]["margins"].__setitem__(0, "-1"), "finite and positive"),
        (lambda doc: doc["state"]["margins"].__setitem__(0, "0"), "finite and positive"),
        (lambda doc: doc["state"]["margins"].__setitem__(0, "inf"), "finite and positive"),
    ], ids=["infinite-alpha", "infinite-p", "zero-p", "negative-margin", "zero-margin",
            "infinite-margin"])
    def test_verify_rejects_non_finite_or_non_positive_state(self, graph_file, tmp_path,
                                                              capsys, edit, message):
        """An assignment the synthesis could not have written: a generator or
        basepoint that is not finite, or a recorded margin D <= 0, which
        would pass the check D > D/2 for any displacement."""
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K2_K3), "--word-len", "3",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        assert doc["state"]["margins"][0] is not None
        edit(doc)
        asg.write_text(json.dumps(doc))
        out = tmp_path / "v.json"
        assert main(["verify", str(asg), "--out", str(out)]) == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        {"n": 5.9},
        {"n": True},
        {"n": "5"},
        {"edges": [[0, 1.0], [2, 3], [2, 4], [3, 4]]},
        {"edges": [[0, True], [2, 3], [2, 4], [3, 4]]},
        {"edges": [[0, 1, 2], [2, 3], [2, 4], [3, 4]]},
        {"edges": {"0": 1}},
    ], ids=["float-n", "bool-n", "string-n", "float-end", "bool-end", "three-ends", "dict"])
    def test_verify_rejects_non_integer_graph(self, graph_file, tmp_path, capsys, edit):
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K2_K3), "--word-len", "4",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        doc["graph"].update(edit)
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--out", str(tmp_path / "v.json")]) == EXIT_INPUT
        assert "must be JSON integers" in capsys.readouterr().err

    @pytest.mark.parametrize("components, layout_ends", [
        ([[0, 1.0], [2, 3, 4]], None),
        ([[False, True], [2, 3, 4]], [False, True]),
        ([[0, 1], "234"], None),
        ({"0": [0, 1]}, None),
    ], ids=["float-vertex", "bool-component", "string-component", "dict"])
    def test_verify_rejects_non_integer_forest(self, graph_file, tmp_path, capsys,
                                               components, layout_ends):
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K2_K3), "--word-len", "3",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        doc["clique_forest"]["components"] = components
        if layout_ends:  # the layout names the same vertices as the edited forest
            doc["layout"][0][0], doc["layout"][1][0] = layout_ends
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--word-len", "3",
                     "--out", str(tmp_path / "v.json")]) == EXIT_INPUT
        assert "components must be lists of JSON integers" in capsys.readouterr().err

    @pytest.mark.parametrize("manifold, f_kind", [("I", "perturbed"), ("S1", "perturbed_lift")])
    def test_assignment_matches_schema(self, graph_file, tmp_path, manifold, f_kind):
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K2_K3), "--manifold", manifold, "--word-len", "3",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        jsonschema.validate(doc, ASSIGNMENT_SCHEMA)
        assert doc["f"]["kind"] == f_kind and doc["f"]["bumps"]

    @pytest.mark.parametrize("slot", [0, 9])
    def test_verify_rejects_bad_layout_slot(self, graph_file, tmp_path, capsys, slot):
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K2_K3), "--word-len", "3",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        doc["layout"][0][2] = slot
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg)]) == EXIT_INPUT
        assert "layout differs" in capsys.readouterr().err

    def test_verify_rejects_missing_generator(self, graph_file, tmp_path, capsys):
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(K3), "--out", str(asg),
                     "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        doc["gens"].pop()
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg)]) == EXIT_INPUT
        assert "names slot 3" in capsys.readouterr().err

    def test_synthesize_rejects_path(self, graph_file, capsys):
        assert main(["synthesize", graph_file(P3), "--manifold", "S1"]) == EXIT_FINDING
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, DECISION_SCHEMA)
        assert doc == {"embeddable": False, "manifold": "S1",
                       "missing_edge": {"u": 0, "v": 2, "path": [0, 1, 2]}}

    @pytest.mark.parametrize("word_len", ["0", "-3"])
    @pytest.mark.parametrize("text", [K2, K2_K3], ids=["K2", "K2+K3"])
    def test_word_len_below_one_rejected(self, graph_file, tmp_path, capsys, text, word_len):
        # a word length below 1 certifies nothing, on a single clique as on a
        # forest: an input error, as a grid of fewer than two cells is
        src, asg = graph_file(text), tmp_path / "asg.json"
        assert main(["synthesize", src, "--word-len", "2", "--out", str(asg),
                     "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        capsys.readouterr()
        for argv in (["synthesize", src], ["verify", str(asg)]):
            with pytest.raises(SystemExit) as ei:
                main(argv + ["--word-len", word_len, "--out", str(tmp_path / "out.json")])
            assert ei.value.code == EXIT_INPUT
            assert "word length must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("alpha_k", ["0", "-7"])
    @pytest.mark.parametrize("text", ["n=0\n", K2, K2_K3], ids=["empty", "K2", "K2+K3"])
    def test_alpha_k_below_one_rejected(self, graph_file, tmp_path, capsys, text, alpha_k):
        # a relation height below 1 bounds no word: an input error on every
        # graph, the empty one (which would store it as its k_bound) included
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as ei:
            main(["synthesize", graph_file(text), "--alpha-k", alpha_k, "--out", str(out)])
        assert ei.value.code == EXIT_INPUT
        assert "alpha-k must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("basepoint", ["0", "1", "1.5", "nan"])
    @pytest.mark.parametrize("text", [K3, "n=0\n", P3], ids=["K3", "empty", "path"])
    def test_basepoint_outside_unit_interval_rejected(self, graph_file, tmp_path, capsys,
                                                      text, basepoint):
        # an input error on every graph, before the forest decision: a path
        # gets no decision document
        out = tmp_path / "out.json"
        assert main(["synthesize", graph_file(text), "--basepoint", basepoint,
                     "--out", str(out)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "input error: basepoint must lie in (0, 1)\n"
        assert captured.out == "" and not out.exists()

    def test_single_clique(self, graph_file, tmp_path):
        asg = tmp_path / "asg.json"
        rep = tmp_path / "rep.json"
        rc = main(["synthesize", graph_file(K3), "--out", str(asg), "--report", str(rep)])
        assert rc == EXIT_OK
        doc = json.loads(asg.read_text())
        assert doc["f"] == {"kind": "identity"}

    def test_single_clique_pure_g_claim(self, graph_file, tmp_path):
        """No pure-g word is counted on a single clique: the report says the
        claim rests on the alpha record, which fails above its height."""
        asg, rep, ver = (tmp_path / name for name in ("asg.json", "rep.json", "ver.json"))
        assert main(["synthesize", graph_file(K3), "--word-len", "3", "--alpha-k", "2",
                     "--out", str(asg), "--report", str(rep)]) == EXIT_OK
        note = ("no pure-g word was enumerated: the claim rests on the alpha relation "
                "record up to height 3")
        report = json.loads(rep.read_text())
        assert report["pure_g_checked"] == 0 and report["pure_g_all_nontrivial"]
        assert report["notes"] == ["single-clique assignment: no f, free-product checks vacuous",
                                   note]
        assert main(["verify", str(asg), "--word-len", "9", "--out", str(ver)]) == EXIT_FINDING
        report = json.loads(ver.read_text())
        assert report["pure_g_checked"] == 0 and not report["pure_g_all_nontrivial"]
        assert report["notes"][1:] == [note, "pure-g words reach exponent height 9 (g1^9), "
                                       "above the checked alpha relation bound 3"]


class TestDocuments:
    """Every decide, synthesize and verify document, of either verdict,
    matches the schema derived from its class's field table and reads back
    through ``from_dict`` to the same document."""

    def _check(self, path, schema, cls):
        doc = json.loads(path.read_text())
        jsonschema.validate(doc, schema)
        assert cls.from_dict(doc).to_dict() == doc
        return doc

    @pytest.mark.parametrize("text, rc", [(K2_K3, EXIT_OK), (K3, EXIT_OK), (P3, EXIT_FINDING)],
                             ids=["forest", "clique", "path"])
    def test_decide_and_synthesize(self, graph_file, tmp_path, text, rc):
        src, out = graph_file(text), tmp_path / "out.json"
        assert main(["decide", src, "--out", str(out)]) == rc
        assert self._check(out, DECISION_SCHEMA, EmbeddabilityDecision)["embeddable"] == (rc == 0)
        rep = tmp_path / "rep.json"
        for m in ("I", "S1"):
            assert main(["synthesize", src, "--manifold", m, "--word-len", "3",
                         "--out", str(out), "--report", str(rep)]) == rc
            if rc == EXIT_OK:
                self._check(out, ASSIGNMENT_SCHEMA, GeneratorAssignment)
                assert self._check(rep, REPORT_SCHEMA, VerificationReport)["ok"]
            else:
                self._check(out, DECISION_SCHEMA, EmbeddabilityDecision)

    def test_verify_both_verdicts(self, graph_file, tmp_path):
        asg, out = tmp_path / "asg.json", tmp_path / "v.json"
        assert main(["synthesize", graph_file(K2_K3), "--word-len", "3", "--out", str(asg),
                     "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        assert main(["verify", str(asg), "--out", str(out)]) == EXIT_OK
        assert self._check(out, REPORT_SCHEMA, VerificationReport)["ok"]
        # recorded margins four times the actual ones fail every margin check
        doc = json.loads(asg.read_text())
        doc["state"]["margins"] = [m if m is None else repr(4 * float(m))
                                   for m in doc["state"]["margins"]]
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg), "--out", str(out)]) == EXIT_FINDING
        report = self._check(out, REPORT_SCHEMA, VerificationReport)
        assert not report["ok"] and len(report["margin_failures"]) == len(report["margins"])


class TestFixpoints:
    def test_mobius(self, tmp_path):
        ef = tmp_path / "e.json"
        ef.write_text(dumps_expr(MobiusI(2.0)))
        out = tmp_path / "fp.json"
        assert main(["fixpoints", str(ef), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, FIXPOINTS_SCHEMA)
        assert doc["points"] == [0.0, 1.0]
        assert not doc["degenerate"]
        # typed by the field table: interval_signs is required, flags enumerated
        malformed = {k: v for k, v in doc.items() if k != "interval_signs"}
        for bad in ({**malformed, "residual_tol": 1}, {**doc, "flags": ["fixed"]},
                    {**doc, "points": ["0"]}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, FIXPOINTS_SCHEMA)

    def test_degenerate_flagged(self, tmp_path):
        ef = tmp_path / "e.json"
        ef.write_text(dumps_expr(RotationS1(0.0)))
        out = tmp_path / "o.json"
        assert main(["fixpoints", str(ef), "--out", str(out)]) == EXIT_FINDING
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, FIXPOINTS_SCHEMA)
        assert doc["degenerate"] and set(doc["flags"]) == {"tangency-suspect"}

    def test_line_sine_shear(self, tmp_path):
        ef = tmp_path / "e.json"
        ef.write_text(dumps_expr(SineShear(1.0)))
        out = tmp_path / "fp.json"
        assert main(["fixpoints", str(ef), "--lo", "0", "--hi", "12.5",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, FIXPOINTS_SCHEMA)
        # sin(x)/2 vanishes at the multiples of pi, with f - id changing sign
        assert doc["points"] == pytest.approx([0.0, math.pi, 2 * math.pi, 3 * math.pi])
        assert doc["interval_signs"] == [1, -1, 1]

    def test_bad_expr_file(self, tmp_path):
        ef = tmp_path / "e.json"
        ef.write_text("{}")
        assert main(["fixpoints", str(ef)]) == EXIT_INPUT

    @pytest.mark.parametrize("doc", [
        {"manifold": "I", "expr": {"kind": "mobius", "alpha": True}},
        {"manifold": "S1", "expr": {"kind": "rotation", "theta": "nan"}},
    ], ids=["bool-alpha", "nan-theta"])
    def test_non_decimal_parameter_rejected(self, tmp_path, capsys, doc):
        ef = tmp_path / "e.json"
        ef.write_text(json.dumps(doc))
        assert main(["fixpoints", str(ef)]) == EXIT_INPUT
        assert "expected a decimal string" in capsys.readouterr().err

    @pytest.mark.parametrize("manifold, expr", [
        ("I", {"kind": "mobius", "alpha": "inf"}),
        ("S1", {"kind": "rotation", "theta": "inf"}),
        ("S1", {"kind": "rotation", "theta": "-inf"}),
        ("R", {"kind": "translation", "c": "inf"}),
        ("R", {"kind": "sine_shear", "a": "-inf"}),
        ("I", {"kind": "perturbed", "bumps": [{"c": "inf", "stage": 1, "k": 1,
                                                "t_coeffs": ["1"]}]}),
        ("I", {"kind": "perturbed", "bumps": [{"c": "0.01", "stage": 1, "k": 1,
                                                "t_coeffs": ["1", "inf"]}]}),
        ("S1", {"kind": "perturbed_lift", "bumps": [{"c": "inf", "stage": 1, "phase": "0"}]}),
        ("S1", {"kind": "perturbed_lift", "bumps": [{"c": "0.01", "stage": 1,
                                                     "phase": "inf"}]}),
    ], ids=["mobius", "rotation", "rotation-minus", "translation", "sine-shear", "bump-c",
            "bump-t-coeffs", "trig-bump-c", "trig-bump-phase"])
    def test_infinite_parameter_rejected(self, tmp_path, capsys, manifold, expr):
        ef = tmp_path / "e.json"
        ef.write_text(json.dumps({"manifold": manifold, "expr": expr}))
        assert main(["fixpoints", str(ef), "--out", str(tmp_path / "fp.json")]) == EXIT_INPUT
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "fp.json").exists()


class TestCommGraph:
    def test_complete_family(self, tmp_path):
        paths = []
        for i, a in enumerate((1.5, 2.0, 2.5)):
            p = tmp_path / f"e{i}.json"
            p.write_text(dumps_expr(MobiusI(a)))
            paths.append(str(p))
        out = tmp_path / "cg.json"
        dot = tmp_path / "cg.dot"
        rc = main(["commgraph", *paths, "--out", str(out), "--dot", str(dot)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, COMMGRAPH_SCHEMA)
        assert doc["completeness"]["ok"]
        assert "0 -- 1" in dot.read_text()
        malformed = {**doc, "graph": {"n": "five", "edges": "none"},
                     "completeness": {"ok": "yes", "components": 3}}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(malformed, COMMGRAPH_SCHEMA)

    def test_circle_power_search(self, tmp_path):
        paths = []
        for i, e in enumerate((RotationS1(0.25), Power(RotationS1(0.1), 3))):
            paths.append(tmp_path / f"e{i}.json")
            paths[-1].write_text(dumps_expr(e))
        out = tmp_path / "cg.json"
        assert main(["commgraph", *map(str, paths), "--power-bound", "4",
                     "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, COMMGRAPH_SCHEMA)
        assert doc["manifold"] == "S1" and doc["power_bound"] == 4
        assert [row[:2] for row in doc["residuals"]] == [[0, 1]]
        assert doc["graph"] == {"n": 2, "edges": [[0, 1]]}

    def test_identity_map_rejected(self, tmp_path):
        p = tmp_path / "e.json"
        p.write_text(dumps_expr(MobiusI(1.0 + 1e-15)))
        assert main(["commgraph", str(p)]) == EXIT_INPUT

    @pytest.mark.parametrize("manifold, expr", [
        ("I", {"kind": "mobius", "alpha": "inf"}),
        ("S1", {"kind": "rotation", "theta": "inf"}),
        ("R", {"kind": "translation", "c": "inf"}),
    ], ids=["mobius", "rotation", "translation"])
    def test_infinite_parameter_rejected(self, tmp_path, capsys, manifold, expr):
        """Two copies of a map with an infinite parameter: no graph with
        bare Infinity or NaN tokens, but an input error."""
        p = tmp_path / "e.json"
        p.write_text(json.dumps({"manifold": manifold, "expr": expr}))
        out = tmp_path / "cg.json"
        assert main(["commgraph", str(p), str(p), "--out", str(out)]) == EXIT_INPUT
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()



class TestLineDomain:
    @pytest.mark.parametrize("command", ["fixpoints", "commgraph"])
    @pytest.mark.parametrize("bounds", [["--lo", "nan"], ["--lo", "5", "--hi", "1"],
                                        ["--hi", "inf"]],
                             ids=["nan-lo", "reversed", "infinite-hi"])
    def test_bad_domain_rejected(self, tmp_path, capsys, command, bounds):
        ef = tmp_path / "e.json"
        ef.write_text(dumps_expr(SineShear(1.0)))
        out = tmp_path / "o.json"
        assert main([command, str(ef), *bounds, "--out", str(out)]) == EXIT_INPUT
        assert "line domain" in capsys.readouterr().err
        assert not out.exists()

class TestObstruct:
    def test_heisenberg_default(self, tmp_path):
        out = tmp_path / "ob.json"
        assert main(["obstruct", "--out", str(out)]) == EXIT_FINDING
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, OBSTRUCTION_SCHEMA)
        assert doc["found"]
        assert doc["center_nonabelian"]
        malformed = {"g1": 1, "g2": None, "h1": [], "h2": {}, "facts": 0}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**doc, "certificate": malformed}, OBSTRUCTION_SCHEMA)

    def test_abelian_elements_file(self, tmp_path):
        ef = tmp_path / "elems.txt"
        ef.write_text(
            "a 1 1 0 0 1 0 0 0 1\n"
            "b 1 2 0 0 1 0 0 0 1\n"
            "c 1 3 0 0 1 0 0 0 1\n"
        )
        out = tmp_path / "ob.json"
        assert main(["obstruct", "--elements", str(ef), "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, OBSTRUCTION_SCHEMA)
        assert not doc["found"] and doc["certificate"] is None

    def test_malformed_elements(self, tmp_path):
        ef = tmp_path / "elems.txt"
        ef.write_text("a 1 1\n")
        assert main(["obstruct", "--elements", str(ef)]) == EXIT_INPUT

    def test_non_unipotent_element_names_line(self, tmp_path, capsys):
        ef = tmp_path / "elems.txt"
        ef.write_text("a 1 1 0 0 1 0 0 0 1\nb 2 0 0 0 1 0 0 0 1\n")
        assert main(["obstruct", "--elements", str(ef)]) == EXIT_INPUT
        assert "line 2: matrix is not upper-triangular unipotent" in capsys.readouterr().err

    def test_repeated_label_names_line(self, tmp_path, capsys):
        ef = tmp_path / "elems.txt"
        ef.write_text("a 1 1 0 0 1 0 0 0 1\nb 1 0 0 0 1 1 0 0 1\na 1 0 1 0 1 0 0 0 1\n")
        assert main(["obstruct", "--elements", str(ef)]) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: line 3: duplicate label 'a'\n"

    @pytest.mark.parametrize("radius", ["2", "3"])
    def test_radius_and_elements_exclusive(self, tmp_path, capsys, radius):
        # --elements replaces the ball, so a --radius beside it would do
        # nothing; the default radius 2 given explicitly is rejected too
        ef = _write_elements(tmp_path)
        for argv in (["--radius", radius, "--elements", ef], ["--elements", ef, "--radius", radius]):
            with pytest.raises(SystemExit) as ei:
                main(["obstruct", *argv])
            assert ei.value.code == EXIT_INPUT
            assert "not allowed with argument" in capsys.readouterr().err


class TestClosedPipe:
    def test_synthesize_into_closed_pipe(self, graph_file):
        """A reader that stops after a few bytes ends the command with exit 2
        and one line on stderr: no traceback, none at interpreter exit."""
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cliqueforest.cli", "synthesize", graph_file(K2_K3),
             "--word-len", "5"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(8) == b'{\n  "alp'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=300) == EXIT_INPUT
        assert err == "output error: stdout: Broken pipe\n"


def _write_elements(tmp_path):
    p = tmp_path / "elems.txt"
    p.write_text("e 1 0 0 0 1 0 0 0 1\na 1 1 0 0 1 0 0 0 1\nz 1 0 1 0 1 0 0 0 1\n")
    return str(p)


def _write_exprs(tmp_path, *exprs):
    paths = []
    for i, e in enumerate(exprs):
        paths.append(str(tmp_path / f"e{i}.json"))
        Path(paths[-1]).write_text(dumps_expr(e))
    return paths


class TestDocumentText:
    """Every command writes ``json.dumps(doc.to_dict(), sort_keys=True,
    indent=2)`` and a newline for each document it builds."""

    @pytest.mark.parametrize("argv", [
        lambda p: ["decide", p.graph(K2_K3)],
        lambda p: ["decide", p.graph(P3), "--manifold", "S1"],
        lambda p: ["synthesize", p.graph(K2_K3), "--word-len", "3", "--report", p.out("r")],
        lambda p: ["synthesize", p.graph(K2_K3), "--manifold", "S1", "--word-len", "2",
                   "--report", p.out("r")],
        lambda p: ["synthesize", p.graph(P3)],
        lambda p: ["verify", p.assignment(), "--word-len", "2"],
        lambda p: ["fixpoints", *_write_exprs(p.tmp, SineShear(1.0))],
        lambda p: ["fixpoints", *_write_exprs(p.tmp, MobiusI(2.0))],
        lambda p: ["commgraph", *_write_exprs(p.tmp, MobiusI(1.5), MobiusI(2.0),
                                              PerturbedF((BumpPoly(0.01, 1),)))],
        lambda p: ["commgraph", *_write_exprs(p.tmp, RotationS1(0.25), RotationS1(0.1))],
        lambda p: ["obstruct", "--radius", "2"],
        lambda p: ["obstruct", "--elements", _write_elements(p.tmp)],
    ], ids=["decide", "decide-witness", "synthesize-I", "synthesize-S1", "synthesize-path",
            "verify", "fixpoints-line", "fixpoints-I", "commgraph-I", "commgraph-S1",
            "obstruct-ball", "obstruct-elements"])
    def test_out_is_json_dumps_of_to_dict(self, graph_file, tmp_path, monkeypatch, argv):
        def assignment():
            path = str(tmp_path / "asg.json")
            main(["synthesize", graph_file(K2_K3), "--word-len", "2", "--out", path,
                  "--report", str(tmp_path / "r0.json")])
            return path

        paths = SimpleNamespace(tmp=tmp_path, graph=graph_file, assignment=assignment,
                                out=lambda name: str(tmp_path / f"{name}.json"))
        args = argv(paths) + ["--out", str(tmp_path / "o.json")]
        written = self._spy(monkeypatch)
        main(args)
        assert written and all(out for _, out in written)
        for doc, out in written:
            expected = json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n"
            assert Path(out).read_bytes() == expected.encode()

    def test_stdout_is_json_dumps_of_to_dict(self, graph_file, capsys, monkeypatch):
        written = self._spy(monkeypatch)
        main(["synthesize", graph_file(K2_K3), "--word-len", "2"])
        assert [out for _, out in written] == [None, None]
        assert capsys.readouterr().out == "".join(
            json.dumps(doc.to_dict(), sort_keys=True, indent=2) + "\n" for doc, _ in written)

    @staticmethod
    def _spy(monkeypatch):
        """The (document, output path) of every write, in order."""
        written, write = [], cli._write
        monkeypatch.setattr(cli, "_write",
                            lambda doc, out: written.append((doc, out)) or write(doc, out))
        return written
