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

    def test_circle_manifold(self, graph_file, capsys):
        assert main(["decide", graph_file(K3), "--manifold", "S1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["manifold"] == "S1"

    def test_line_rejected(self, graph_file):
        assert main(["decide", graph_file(K3), "--manifold", "R"]) == EXIT_INPUT

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
        asg = tmp_path / "asg.json"
        assert main(["synthesize", graph_file(TWO_CLIQUES), "--word-len", "3",
                     "--out", str(asg), "--report", str(tmp_path / "rep.json")]) == EXIT_OK
        doc = json.loads(asg.read_text())
        doc["state"]["num_g"] = len(doc["gens"]) - 1
        asg.write_text(json.dumps(doc))
        assert main(["verify", str(asg)]) == EXIT_INPUT
        assert "g generators" in capsys.readouterr().err

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

    def test_single_clique(self, graph_file, tmp_path):
        asg = tmp_path / "asg.json"
        rep = tmp_path / "rep.json"
        rc = main(["synthesize", graph_file(K3), "--out", str(asg), "--report", str(rep)])
        assert rc == EXIT_OK
        doc = json.loads(asg.read_text())
        assert doc["f"] == {"kind": "identity"}


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
