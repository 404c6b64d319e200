"""Independent checks of every CLI output.

Each check reads what one command wrote, compares its meaning (never its
bytes) with the answer the input generator kept, and returns exact counters
read from the output.  Matrix facts are recomputed here with plain 3x3
integer arithmetic, separate from the program's own group law.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from inputs import Elements, Graph

EXIT_OK, EXIT_FINDING = 0, 1


@dataclass
class Result:
    ok: bool
    why: str = ""
    counters: Dict[str, int] = field(default_factory=dict)
    health: Optional[float] = None  # min margin / (D/2) over the report


def _fail(why: str) -> Result:
    return Result(False, why)


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _size(*paths: str) -> int:
    return sum(os.path.getsize(p) for p in paths)


# ---------------------------------------------------------------------------
# decide


def check_decide(rc, out: str, g: Graph, manifold: str = "I") -> Result:
    d = _load(out)
    if d.get("manifold") != manifold:
        return _fail(f"manifold {d.get('manifold')!r}, expected {manifold!r}")
    counters = {"vertices": g.n, "edges": len(g.edges), "bytes_out": _size(out)}
    if g.forest:
        if rc != EXIT_OK or d.get("embeddable") is not True:
            return _fail(f"clique forest judged not embeddable (exit {rc})")
        got = sorted(tuple(sorted(c)) for c in d["clique_forest"]["components"])
        if got != g.components:
            return _fail("components differ from the generated cliques")
        return Result(True, counters=counters)
    if rc != EXIT_FINDING or d.get("embeddable") is not False:
        return _fail(f"non-forest judged embeddable (exit {rc})")
    w = d["missing_edge"]
    u, v, path = w["u"], w["v"], list(w["path"])
    edges = g.edge_set
    if u == v or (min(u, v), max(u, v)) in edges:
        return _fail(f"witness ({u}, {v}) is an edge or a loop")
    if g.missing is not None and (min(u, v), max(u, v)) != g.missing:
        return _fail(f"witness ({u}, {v}) is not the one missing pair {g.missing}")
    if not path or path[0] != u or path[-1] != v:
        return _fail("witness path does not join u to v")
    for a, b in zip(path, path[1:]):
        if (min(a, b), max(a, b)) not in edges:
            return _fail(f"witness path step ({a}, {b}) is not an edge")
    return Result(True, counters=counters)


# ---------------------------------------------------------------------------
# synthesize and verify


def schedule_size(num_g: int, word_len: int) -> Tuple[int, int]:
    """(words containing f, pure-g words) among the freely reduced words of
    length 1..word_len over f, g_1..g_num_g and their inverses."""
    r, g = 2 * (num_g + 1), 2 * num_g
    total = sum(r * (r - 1) ** (k - 1) for k in range(1, word_len + 1))
    pure = sum(g * (g - 1) ** (k - 1) for k in range(1, word_len + 1))
    return total - pure, pure


def _check_report(rep: dict, g: Graph, manifold: str, word_len: int,
                  num_g: int) -> Result:
    if rep.get("ok") is not True:
        return _fail("verification report is not ok")
    if rep.get("manifold") != manifold:
        return _fail(f"report manifold {rep.get('manifold')!r}")
    edges = g.edge_set
    if {(c["u"], c["v"]) for c in rep["edge_checks"]} != edges:
        return _fail("edge checks do not cover exactly the edges")
    if any(not c["ok"] for c in rep["edge_checks"] + rep["non_edge_checks"]):
        return _fail("an edge or non-edge check failed")
    if len(rep["non_edge_checks"]) != g.n * (g.n - 1) // 2 - len(edges):
        return _fail("non-edge checks do not cover every non-edge")
    health = None
    for idx, m, t in rep["margins"]:
        m, t = float(m), float(t)
        if not (t > 0 and m > t):
            return _fail(f"margin of word {idx} is {m}, not above D/2 = {t}")
        health = m / t if health is None else min(health, m / t)
    multi = len(g.components) > 1
    if multi and not rep["margins"]:
        return _fail("no margins certified for a multi-component forest")
    pure = schedule_size(num_g, word_len)[1] if multi else 0
    if rep["pure_g_checked"] != pure:
        return _fail(f"pure_g_checked {rep['pure_g_checked']}, expected {pure}")
    checks = len(rep["edge_checks"]) + len(rep["non_edge_checks"])
    counters = {
        "edge_checks": len(rep["edge_checks"]),
        "non_edge_checks": len(rep["non_edge_checks"]),
        "margin_checks": len(rep["margins"]),
        "pure_g_checked": rep["pure_g_checked"],
        "grid_points": checks * (rep["grid_n"] + 1),
    }
    return Result(True, counters=counters, health=health)


def basepoint_index(p: float) -> Optional[int]:
    """Position of ``p`` in the program's basepoint retry order."""
    try:
        from cliqueforest.synthesis import SynthesisOptions
    except ImportError:
        return None
    o = SynthesisOptions()
    order = (o.basepoint,) + tuple(o.fallback_basepoints)
    return order.index(p) if p in order else None


def check_synthesize(rc, asg_path: str, rep_path: str, g: Graph, manifold: str,
                     word_len: int) -> Result:
    if rc != EXIT_OK:
        return _fail(f"synthesize exited {rc}")
    asg, rep = _load(asg_path), _load(rep_path)
    gd = asg["graph"]
    if gd["n"] != g.n or {tuple(e) for e in gd["edges"]} != g.edge_set:
        return _fail("assignment graph differs from the input graph")
    comps = sorted(tuple(sorted(c)) for c in asg["clique_forest"]["components"])
    if comps != g.components:
        return _fail("assignment components differ from the generated cliques")
    num_g = max(len(c) for c in g.components)
    alphas = asg["alphas"]
    if len(alphas["alphas"]) != num_g:
        return _fail(f"{len(alphas['alphas'])} alphas for cliques of size {num_g}")
    res = _check_report(rep, g, manifold, word_len, num_g)
    if not res.ok:
        return res
    c = res.counters
    c["relation_vectors"] = (2 * alphas["k_bound"] + 1) ** num_g - 1
    c["bytes_out"] = _size(asg_path, rep_path)
    st = asg["state"]
    if len(g.components) == 1:
        if st is not None:
            return _fail("single clique assignment carries a synthesis state")
        return res
    words = schedule_size(num_g, word_len)[0]
    if st["word_count"] != words or len(st["margins"]) != words:
        return _fail(f"schedule has {st['word_count']} words, expected {words}")
    live = sum(m is not None for m in st["margins"])
    if c["margin_checks"] != live:
        return _fail(f"{c['margin_checks']} margins checked, {live} recorded")
    retries = basepoint_index(float(st["p"]))
    if retries is None:
        return _fail(f"basepoint {st['p']} is not in the retry order")
    c.update(
        words_scheduled=words,
        stages_vacuous=words - live,
        stages_bumped=len(st["bumps"]),
        stages_kept=live - len(st["bumps"]),
        basepoint_retries=retries,
    )
    return res


def check_verify(rc, rep_path: str, g: Graph, manifold: str, word_len: int) -> Result:
    if rc != EXIT_OK:
        return _fail(f"verify exited {rc}")
    num_g = max(len(c) for c in g.components)
    res = _check_report(_load(rep_path), g, manifold, word_len, num_g)
    if res.ok:
        res.counters["bytes_out"] = _size(rep_path)
    return res


# ---------------------------------------------------------------------------
# obstruct: exact 3x3 integer matrices as row tuples

Mat = Tuple[Tuple[int, int, int], ...]
IDENT: Mat = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def matmul(p: Mat, q: Mat) -> Mat:
    return tuple(
        tuple(sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def unipotent(a: int, b: int, c: int) -> Mat:
    return ((1, a, c), (0, 1, b), (0, 0, 1))


GENERATORS = {
    "x": unipotent(1, 0, 0), "x^-1": unipotent(-1, 0, 0),
    "y": unipotent(0, 1, 0), "y^-1": unipotent(0, -1, 0),
    "z": unipotent(0, 0, 1), "z^-1": unipotent(0, 0, -1),
}


def ball_size(radius: int) -> int:
    seen, frontier = {IDENT}, [IDENT]
    for _ in range(radius):
        nxt = []
        for m in frontier:
            for gm in GENERATORS.values():
                p = matmul(m, gm)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


def label_matrix(label: str) -> Mat:
    """Matrix of a Heisenberg-ball label such as ``x.y^-1.z``."""
    m = IDENT
    if label != "id":
        for tok in label.split("."):
            m = matmul(m, GENERATORS[tok])
    return m


def _commute(p: Mat, q: Mat) -> bool:
    return matmul(p, q) == matmul(q, p)


def _check_obstruction(rc, out: str, lookup, expect_found: bool, size: int,
                       expect_center: bool) -> Result:
    d = _load(out)
    if d["found"] is not expect_found:
        return _fail(f"found={d['found']}, expected {expect_found}")
    if rc != (EXIT_FINDING if expect_found else EXIT_OK):
        return _fail(f"obstruct exited {rc}")
    if d["ball_size"] != size:
        return _fail(f"ball_size {d['ball_size']}, expected {size}")
    if d["center_nonabelian"] is not expect_center:
        return _fail(f"center_nonabelian={d['center_nonabelian']}")
    if expect_found:
        cert = d["certificate"]
        names = [cert[k] for k in ("g1", "g2", "h1", "h2")]
        if len(set(names)) != 4:
            return _fail("certificate labels are not distinct")
        g1, g2, h1, h2 = (lookup(n) for n in names)
        if IDENT in (g1, g2, h1, h2):
            return _fail("certificate uses the identity")
        if not (_commute(g1, h1) and _commute(g2, h1) and _commute(g2, h2)
                and not _commute(g1, h2)):
            return _fail("certificate commutation facts do not hold")
    return Result(True, counters={"elements": size, "bytes_out": _size(out)})


def check_obstruct_ball(rc, out: str, radius: int) -> Result:
    # every ball of radius >= 1 holds x, x^-1, y and the central z, so
    # (x, z, x^-1, y) is a quadruple and z witnesses a nonabelian center
    return _check_obstruction(rc, out, label_matrix, True, ball_size(radius), True)


def check_obstruct_elements(rc, out: str, el: Elements) -> Result:
    table = {lbl: unipotent(*e) for lbl, e in zip(el.labels, el.entries)}
    return _check_obstruction(rc, out, table.__getitem__, el.has_quadruple,
                              len(el.labels), False)
