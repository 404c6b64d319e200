"""Smoke tests of the benchmark itself: python -m pytest perfbench -q

Each workload runs at tiny sizes (K2+K1 at word length 2, a 100-vertex
forest, a radius-2 ball) through the same code as a full run.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    record = json.loads(next(l for l in lines if l.startswith("# record "))[9:])
    # every kind of command ran and was checked
    assert set(record["checks"]) == {"decide", "synthesize", "verify", "obstruct"}
    assert all(n > 0 for n in record["checks"].values())
    if workload == "decide-obstruct":
        # the one-line DOT probe is checked on every pass
        assert record["checks"]["decide"] == 5 * record["passes"]


def test_same_seed_same_counters():
    records = []
    for _ in range(2):
        done = _run("decide-obstruct", 0)
        line = next(l for l in done.stdout.splitlines() if l.startswith("# record "))
        records.append(json.loads(line[9:])["counters"])
    assert records[0] == records[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _run("deep-schedule", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_missing_hook_is_reported(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cliqueforest import synthesis

    monkeypatch.delattr(synthesis, "_word_margin")
    hooks = spans.Hooks(spans.Tracer()).install()
    try:
        assert "synthesis._word_margin" in hooks.missing
    finally:
        hooks.remove()
    assert not hasattr(synthesis, "_word_margin")


def test_decide_check_rejects_a_wrong_verdict(tmp_path):
    out = tmp_path / "d.json"
    g = inputs.path_graph(4, __import__("random").Random(0))
    out.write_text(json.dumps({"embeddable": True, "manifold": "I",
                               "clique_forest": {"components": g.components}}))
    assert not checks.check_decide(0, str(out), g).ok
    u, v = g.edges[0]
    out.write_text(json.dumps({"embeddable": False, "manifold": "I",
                               "missing_edge": {"u": u, "v": v, "path": [u, v]}}))
    assert not checks.check_decide(1, str(out), g).ok  # (u, v) is an edge


def test_obstruct_check_rejects_a_false_certificate(tmp_path):
    out = tmp_path / "o.json"
    cert = {"g1": "x", "g2": "y", "h1": "z", "h2": "x^-1"}  # [x, x^-1] = 1
    out.write_text(json.dumps({"found": True, "certificate": cert, "ball_size": 7,
                               "center_nonabelian": True}))
    assert not checks.check_obstruct_ball(1, str(out), 1).ok
    cert["h2"] = "y"
    cert["g2"] = "z^-1"
    out.write_text(json.dumps({"found": True, "certificate": cert, "ball_size": 7,
                               "center_nonabelian": True}))
    assert checks.check_obstruct_ball(1, str(out), 1).ok
