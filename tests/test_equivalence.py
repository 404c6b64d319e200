"""The bitset obstruction search and the labelled clique-forest decision
against the nested-loop and BFS procedures they replaced.

The reference functions below are those procedures, kept verbatim in
behaviour: the four-loop quadruple search, the all-pairs center check, the
BFS component walk with its first-missing-pair witness, and the per-line
edge-list parser.  Their commutation predicate multiplies the matrices, so
the closed form of ``commutes_with`` is checked on the way.
"""
import random
from collections import deque

import pytest

from cliqueforest import (
    CliqueForest,
    CommutationOracle,
    GraphFormatError,
    MissingEdgeWitness,
    ObstructionCertificate,
    SimpleGraph,
    UnipotentMatrix,
    center_nonabelian_check,
    check_component_completeness,
    find_centralizer_quadruple,
    heisenberg_ball,
    is_clique_forest,
)
from cliqueforest import graphs
from cliqueforest.graphs import ComponentReport, CompletenessReport, parse_edge_list


# ---------------------------------------------------------------------------
# reference procedures


def ref_commutes(m, n):
    return m * n == n * m


def ref_quadruple(oracle):
    labels = [l for l in oracle.labels if not oracle.element(l).is_identity()]
    elems = {l: oracle.element(l) for l in labels}
    comm = {(a, b): ref_commutes(elems[a], elems[b]) for a in labels for b in labels}
    for g1 in labels:
        for g2 in labels:
            if g2 == g1:
                continue
            for h1 in labels:
                if h1 in (g1, g2) or not comm[g1, h1] or not comm[g2, h1]:
                    continue
                for h2 in labels:
                    if h2 in (g1, g2, h1) or not comm[g2, h2] or comm[g1, h2]:
                        continue
                    return ObstructionCertificate(g1, g2, h1, h2)
    return None


def ref_center(oracle):
    labels, elems = list(oracle.labels), list(oracle.elements)
    central = next((l for l, e in zip(labels, elems)
                    if not e.is_identity() and all(ref_commutes(e, o) for o in elems)), None)
    pair = next(((labels[i], labels[j]) for i in range(len(elems))
                 for j in range(i + 1, len(elems)) if not ref_commutes(elems[i], elems[j])),
                None)
    if central is not None and pair is not None:
        return True, (central, pair)
    return False, None


def ref_components(g):
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp, q = [], deque([s])
        seen[s] = True
        while q:
            u = q.popleft()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    q.append(w)
        comps.append(tuple(sorted(comp)))
    return comps, adj


def ref_first_missing(g, comp):
    for i, u in enumerate(comp):
        for v in comp[i + 1:]:
            if not g.has_edge(u, v):
                return u, v
    return None


def ref_bfs_path(adj, s, t):
    prev = {s: None}
    q = deque([s])
    while q:
        u = q.popleft()
        if u == t:
            path = []
            while u is not None:
                path.append(u)
                u = prev[u]
            return tuple(reversed(path))
        for w in sorted(adj[u]):
            if w not in prev:
                prev[w] = u
                q.append(w)
    raise AssertionError("no path")


def ref_is_clique_forest(g):
    comps, adj = ref_components(g)
    for comp in comps:
        missing = ref_first_missing(g, comp)
        if missing:
            return MissingEdgeWitness(*missing, ref_bfs_path(adj, *missing))
    return CliqueForest(tuple(comps))


def ref_completeness(g):
    reports = []
    for comp in ref_components(g)[0]:
        missing = ref_first_missing(g, comp)
        reports.append(ComponentReport(comp, missing is None, missing))
    return CompletenessReport(tuple(reports), all(r.complete for r in reports))


def ref_parse_edge_list(text):
    n = None
    edges = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            if not line.startswith("n="):
                raise GraphFormatError("expected 'n=<count>' header", ln)
            try:
                n = int(line[2:])
            except ValueError:
                raise GraphFormatError(f"bad vertex count {line[2:]!r}", ln)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected 'u v', got {line!r}", ln)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex in {line!r}", ln)
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}", ln)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"vertex out of range in {line!r}", ln)
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("missing 'n=<count>' header")
    return SimpleGraph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# obstructions


def assert_same_obstruction(oracle):
    cert = find_centralizer_quadruple(oracle)
    assert cert == ref_quadruple(oracle)
    nonab, witness = center_nonabelian_check(oracle)
    want = ref_center(oracle)
    assert (nonab, witness and (witness.central, witness.noncommuting_pair)) == want


def commuting_families(count, rng):
    """Half the elements with b = 0, half with a = 0, all distinct and none
    central: two disjoint cliques of commutation, so no quadruple exists."""
    seen, entries = set(), []
    while len(entries) < count:
        x = rng.choice([-1, 1]) * rng.randint(1, 9)
        e = (x, 0, rng.randint(-9, 9)) if len(entries) < count // 2 else (0, x, rng.randint(-9, 9))
        if e not in seen:
            seen.add(e)
            entries.append(e)
    rng.shuffle(entries)
    labels = tuple(f"e{i}_{rng.randrange(10**6)}" for i in range(count))
    return CommutationOracle(labels, tuple(UnipotentMatrix(*e) for e in entries))


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
def test_heisenberg_balls(radius):
    assert_same_obstruction(heisenberg_ball(radius))


@pytest.mark.parametrize("seed", [11, 23])
def test_commuting_families(seed):
    oracle = commuting_families(40, random.Random(seed))
    assert find_centralizer_quadruple(oracle) is None
    assert_same_obstruction(oracle)
    # a central element joins the two cliques, so a quadruple appears
    joined = CommutationOracle(oracle.labels + ("zz",),
                               oracle.elements + (UnipotentMatrix(0, 0, 3),))
    assert find_centralizer_quadruple(joined) is not None
    assert_same_obstruction(joined)


def test_random_oracles_with_identities_and_duplicates():
    rng = random.Random(5)
    for _ in range(1500):
        pool = [UnipotentMatrix(0, 0, 0)] + [
            UnipotentMatrix(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 1))
            for _ in range(rng.randint(1, 6))]
        elems = tuple(rng.choice(pool) for _ in range(rng.randint(0, 9)))
        labels = tuple(rng.sample([f"m{i}" for i in range(20)], len(elems)))
        assert_same_obstruction(CommutationOracle(labels, elems))


def test_commutation_tests_shared_and_counted(monkeypatch):
    calls = []
    closed_form = UnipotentMatrix.commutes_with

    def counted(self, other):
        calls.append(1)
        return closed_form(self, other)

    monkeypatch.setattr(UnipotentMatrix, "commutes_with", counted)
    oracle = heisenberg_ball(3)
    n = len(oracle.labels)
    find_centralizer_quadruple(oracle)
    center_nonabelian_check(oracle)
    # one call per unordered pair, built once for both checks (the
    # certificate's re-verification adds its four facts)
    assert len(calls) == n * (n - 1) // 2 + 4


# ---------------------------------------------------------------------------
# clique-forest decision


def random_graph(rng):
    n = rng.choice([0, 1, 2, rng.randint(0, 14)])
    if n < 2:
        return SimpleGraph.from_edges(n, [])
    if rng.random() < 0.5:
        # a clique forest with isolated vertices, maybe missing edges
        verts = list(range(n))
        rng.shuffle(verts)
        edges = []
        while verts:
            k = rng.randint(1, len(verts))
            comp, verts = verts[:k], verts[k:]
            edges += [(u, v) for i, u in enumerate(comp) for v in comp[i + 1:]]
        for _ in range(rng.choice([0, 0, 1, 2])):
            if edges:
                edges.pop(rng.randrange(len(edges)))
    else:
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
    edges += rng.sample(edges, min(len(edges), rng.randint(0, 3)))  # repeated, maybe reversed
    edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
    return SimpleGraph.from_edges(n, edges)


def assert_same_decision(g):
    assert is_clique_forest(g) == ref_is_clique_forest(g)
    assert check_component_completeness(g) == ref_completeness(g)
    assert g.connected_components() == ref_components(g)[0]


def test_random_graphs():
    rng = random.Random(17)
    kinds = set()
    for _ in range(2500):
        g = random_graph(rng)
        assert_same_decision(g)
        kinds.add((g.n == 0, isinstance(is_clique_forest(g), CliqueForest)))
    assert kinds == {(True, True), (False, True), (False, False)}


def test_shuffled_long_path():
    rng = random.Random(3)
    perm = list(range(20_000))
    rng.shuffle(perm)
    g = SimpleGraph.from_edges(20_000, zip(perm, perm[1:]))
    assert_same_decision(g)


# ---------------------------------------------------------------------------
# edge-list parsing


MALFORMED = [
    "0 1\n",  # missing header
    "",
    "n=3\n0 1\n0 x\n",
    "n=2\n0 x\n",
    "n=3\n1 1\n",
    "n=2\n1 1\n",
    "n=2\n0 2\n",
    "n=x\n0 1\n",
    "n=3\n0\n",
    "n=3\n0 1 2\n",
    "n=4\n0 1 2\n3\n",  # a three-token line balanced by a one-token line
    "n=4\n0\n1 2 3\n",
    "n=9\n0 1 2 3 4\n",  # a five-token line reads as two edges by position alone
    "n=4\n0 1\r2 3\n",  # a carriage return is a line break of its own
    "n=4\n0\x0b1\n",
    "n=4\n0 1;\n",
    "n=3\n0 -1\n",
    "n=-1\n0 1\n",
    "n=-1\n",
    "n=3\n0 1.0\n",
    "n=3\n0 1\n2 2\n",
]

WELL_FORMED = [
    "n=0\n",
    "n=3",
    "n=3\n0 1\n1 2",
    "n=3\n0 1\n1 2\n",
    "# comment line\nn=4\n0 1\n2 3  # trailing\n",
    "n=4\n\n0 1\n\n2 3\n",  # blank lines
    "\n  n=4\n0 1\n",
    "n=4\r\n0 1\r\n2 3\r\n",
    "n= 4\n 0\t1 \n3 2\n",
    "n=4\n0 1\n0 1\n1 0\n",  # repeated edges
    "n=1_0\n0 9\n",
    "n=12\n+3 11\n",
]


def parse_outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return ("error", str(exc), exc.line)


@pytest.mark.parametrize("text", MALFORMED + WELL_FORMED)
def test_parse_matches_line_parser(text):
    assert parse_outcome(parse_edge_list, text) == parse_outcome(ref_parse_edge_list, text)


def test_parse_random_documents_take_whole_text_path():
    rng = random.Random(9)
    for _ in range(300):
        g = random_graph(rng)
        sep = rng.choice([" ", "\t", "  "])
        lines = [f"n={g.n}"] + [f"{u}{sep}{v}" for u, v in sorted(g.edges)]
        text = "\n".join(lines) + rng.choice(["", "\n"])
        assert graphs._parse_edge_text(text) == g
        assert parse_edge_list(text) == ref_parse_edge_list(text) == g
