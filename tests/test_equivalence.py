"""The class-based obstruction search, the labelled clique-forest decision, the
array-held synthesis schedule and the letter-sequence evaluation of
composite maps against the procedures they replaced.

The reference functions below are those procedures, kept verbatim in
behaviour: the four-loop quadruple search, the all-pairs center check, the
pairwise commutation relation and the ball built from matrix products that the
centralizer classes replaced, the BFS component walk with its
first-missing-pair witness, the per-line edge-list parser, the
stage-by-stage perturbation recursion over word tuples, the per-node
recursion of Compose, Inverse and Power, and the per-expression grid scan
and the per-pair loop of the commutation graph that ``diffeo.grid_sups``
replaced by one walk over shared letter prefixes, and the exhaustive scan of
every alpha relation vector that the meet-in-the-middle search of
``synthesis._min_relation`` replaced.
Their commutation predicate multiplies the matrices, so the closed form of
``commutes_with`` is checked on the way.
"""
import itertools
import json
import math
import random
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cliqueforest import (
    BumpPoly,
    BumpTrig,
    Compose,
    Inverse,
    Manifold,
    MobiusI,
    PerturbedF,
    PerturbedLiftS1,
    Power,
    RotationS1,
    SimpleGraph,
    SineShear,
    Translation,
    TagMismatchError,
    choose_alphas,
    commutation_graph,
    enumerate_words,
    point_distance,
    synthesize_embedding,
    verify_assignment,
)
from cliqueforest import diffeo, graphs, serialize, synthesis
from cliqueforest.cli import EXIT_FINDING, main
from cliqueforest.diffeo import DEFAULT_GRID, _grid, apply_letters, grid_sups
from cliqueforest.graphs import ComponentReport, CompletenessReport, parse_edge_list
from cliqueforest.obstructions import X, Y, Z
from cliqueforest.raag import normal_form
from cliqueforest.synthesis import (
    GeneratorAssignment,
    Identity,
    SynthesisError,
    SynthesisOptions,
    SynthesisState,
    _candidate_bumps,
    _measure_lambda,
    _perturb_f_at,
    _Schedule,
    _word_margin,
    forest_layout,
    word_str,
)
from conftest import free_product_forest, ref_components


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


def assert_classes_commute(oracle):
    """The class relation, either element central or both in one class, is
    the commutation of the matrix products, pair by pair, and each class's
    size counts its members."""
    (of, sizes), elems = oracle.classes, oracle.elements
    assert sizes == tuple(of.count(k) for k in range(len(sizes)))
    for i, j in itertools.product(range(len(elems)), repeat=2):
        assert (0 in (of[i], of[j]) or of[i] == of[j]) == ref_commutes(elems[i], elems[j])


def ref_heisenberg_ball(radius):
    """The ball by a BFS over ``UnipotentMatrix`` products."""
    gens = [("x", X), ("x^-1", X.inverse()), ("y", Y), ("y^-1", Y.inverse()),
            ("z", Z), ("z^-1", Z.inverse())]
    seen = {UnipotentMatrix(0, 0, 0): "id"}
    frontier = [UnipotentMatrix(0, 0, 0)]
    for _ in range(radius):
        nxt = []
        for m in frontier:
            base = seen[m]
            for gname, gm in gens:
                prod = m * gm
                if prod not in seen:
                    seen[prod] = gname if base == "id" else f"{base}.{gname}"
                    nxt.append(prod)
        frontier = nxt
    items = sorted(seen.items(), key=lambda kv: kv[1])
    return CommutationOracle(tuple(lbl for _, lbl in items), tuple(m for m, _ in items))


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


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5, 6])
def test_ball_and_rows_match_matrix_products(radius):
    oracle = heisenberg_ball(radius)
    ref = ref_heisenberg_ball(radius)
    assert (oracle.labels, oracle.elements) == (ref.labels, ref.elements)
    assert_classes_commute(oracle)


ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))


@st.composite
def element_lists(draw):
    """Elements of every centralizer kind: identities, central elements,
    a = 0 or b = 0, multiples of a few directions, any (a, b), and copies."""
    directions = draw(st.lists(st.tuples(ENTRIES, ENTRIES), min_size=1, max_size=3))
    kinds = st.one_of(
        st.just((0, 0, 0)),
        st.builds(lambda c: (0, 0, c), ENTRIES),
        st.builds(lambda a, c: (a, 0, c), ENTRIES, ENTRIES),
        st.builds(lambda b, c: (0, b, c), ENTRIES, ENTRIES),
        st.builds(lambda d, m, c: (m * d[0], m * d[1], c),
                  st.sampled_from(directions), ENTRIES, ENTRIES),
        st.tuples(ENTRIES, ENTRIES, ENTRIES))
    entries = draw(st.lists(kinds, min_size=2, max_size=10))
    entries += draw(st.lists(st.sampled_from(entries), max_size=3))  # duplicates
    entries = draw(st.permutations(entries))
    labels = draw(st.permutations([f"m{i}" for i in range(len(entries))]))
    return CommutationOracle(tuple(labels), tuple(UnipotentMatrix(*e) for e in entries))


@given(element_lists())
@settings(max_examples=300, deadline=None)
def test_classes_match_matrix_products(oracle):
    assert_classes_commute(oracle)
    assert_same_obstruction(oracle)


def test_commutation_tests_shared_and_counted(monkeypatch):
    calls, builds = [], []
    closed_form = UnipotentMatrix.commutes_with

    def counted(self, other):
        calls.append(1)
        return closed_form(self, other)

    classes = CommutationOracle.__dict__["classes"]
    build = classes.func

    def counted_build(self):
        builds.append(1)
        return build(self)

    monkeypatch.setattr(UnipotentMatrix, "commutes_with", counted)
    monkeypatch.setattr(classes, "func", counted_build)
    oracle = heisenberg_ball(3)
    find_centralizer_quadruple(oracle)
    center_nonabelian_check(oracle)
    # the classes are built once for both checks, and only the certificate's
    # re-verification of its four facts tests a pair
    assert len(builds) == 1
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# clique-forest decision


def random_pairs(rng):
    """A vertex count and an edge list, with repeated and reversed edges."""
    n = rng.choice([0, 1, 2, rng.randint(0, 14)])
    if n < 2:
        return n, []
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
    return n, [e if rng.random() < 0.5 else e[::-1] for e in edges]


def random_graph(rng):
    return SimpleGraph.from_edges(*random_pairs(rng))


def assert_same_decision(g):
    assert is_clique_forest(g) == ref_is_clique_forest(g)
    assert check_component_completeness(g) == ref_completeness(g)


def test_random_graphs():
    rng = random.Random(17)
    kinds = set()
    for _ in range(2500):
        g = random_graph(rng)
        assert_same_decision(g)
        kinds.add((g.n == 0, isinstance(is_clique_forest(g), CliqueForest)))
    assert kinds == {(True, True), (False, True), (False, False)}


@dataclass(frozen=True)
class RefGraph:
    """The frozenset-held graph that the edge array replaced."""

    n: int
    edges: frozenset

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def to_dict(self):
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}


def ref_to_dot(g, name="G"):
    lines = [f"graph {name} {{"]
    covered = set()
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -- {v};")
        covered.update((u, v))
    for v in range(g.n):
        if v not in covered:
            lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_random_graphs_match_frozenset_reference():
    rng = random.Random(29)
    prev = None
    for _ in range(2500):
        n, pairs = random_pairs(rng)
        g = SimpleGraph.from_edges(n, pairs)
        ref = RefGraph(n, frozenset((min(e), max(e)) for e in pairs))
        assert g.to_dict() == ref.to_dict()
        assert graphs.to_dot(g) == ref_to_dot(ref)
        assert "edges" not in vars(g)  # none of the above builds the frozenset
        assert g.edges == ref.edges and hash(g) == hash(ref)
        assert all(g.has_edge(u, v) == ref.has_edge(u, v) for u in range(n) for v in range(n))
        shuffled = SimpleGraph.from_edges(n, [e[::-1] for e in rng.sample(pairs, len(pairs))])
        assert g == shuffled and hash(g) == hash(shuffled)
        if prev is not None:
            assert (g == prev[0]) == (ref == prev[1])
        prev = g, ref


def test_shuffled_long_path():
    rng = random.Random(3)
    perm = list(range(20_000))
    rng.shuffle(perm)
    g = SimpleGraph.from_edges(20_000, zip(perm, perm[1:]))
    assert_same_decision(g)


def hooking_families(n, rng):
    """Edge lists on n vertices that stress the labelling rounds: hubs whose
    leaves all propose at once, long chains of hooks to jump, and many
    small components to group."""
    perm = rng.sample(range(n), n)
    half, spine = n // 2, n // 30
    recursive = [(rng.randrange(v), v) for v in range(1, n)]
    sizes = [rng.randint(1, 6) for _ in range(n)]
    starts = list(itertools.accumulate(sizes, initial=0))
    cliques = [perm[a:b] for a, b in zip(starts, starts[1:]) if a < n]
    return {
        "star centred at n-1": [(v, n - 1) for v in range(n - 1)],
        "broom": [(v, half) for v in range(half)] + [(v, v + 1) for v in range(half, n - 1)],
        "path numbered downward": [(v, v - 1) for v in range(n - 1, 0, -1)],
        "caterpillar": [(v, v + 1) for v in range(n - spine, n - 1)]
                       + [(v, n - spine + v % spine) for v in range(n - spine)],
        "random recursive tree": recursive,
        "relabelled random recursive tree": [(perm[u], perm[v]) for u, v in recursive],
        "three-vertex paths": [e for i in range(n // 3) for e in ((3 * i, 3 * i + 1),
                                                                  (3 * i + 1, 3 * i + 2))],
        "shuffled clique forest": [e for q in cliques for e in itertools.combinations(q, 2)],
    }


@pytest.mark.parametrize("family", list(hooking_families(3000, random.Random(41))))
def test_hooking_families(family):
    g = SimpleGraph.from_edges(3000, hooking_families(3000, random.Random(41))[family])
    assert_same_decision(g)
    scan = graphs._scan_components(g)
    got, want = graphs._components(scan).values, scan.labels.argsort(kind="stable")
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("size", [0, 1, 2, 7, 1000])
def test_grouped_matches_stable_argsort(size):
    rng = np.random.default_rng(size)
    for high in (1, 3, 2**31 - 1):
        labels = rng.integers(0, high, size).astype(np.int32)
        got, want = graphs._grouped(labels), labels.argsort(kind="stable")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


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


# plain documents at the edges of what the array reader takes: it reads
# those of ARRAY_READ and hands the rest to the line reader
ARRAY_READ = [
    "n=12\n007 0011\n00 1\n",  # leading zeros
    "n=4\n0\t1\n\t2 \t3\t\n",  # tabs
    "n=4\n0 1   \n2 3 \n",  # trailing blanks
    "n=4\n0 1\n2 3",  # no final newline
    "n=4\n0 1\n2 3  \t",
    "n=4\n0 1\n1 0\n0 1\n3 2\n2 3\n",  # repeated and reversed
    f"n={2**31}\n0 {2**31 - 1}\n{2**31 - 1} 5\n",  # the largest vertex count
]
LINE_READ = [
    "n=10\n99999999999999999999 1\n",  # beyond int64
    f"n=10\n{2**63} 1\n",
    f"n=10\n{2**63 - 1} 1\n",
    f"n={10**20}\n99999999999999999999 1\n",  # in range, above the vertex count limit
    f"n={2**31 + 1}\n{2**31} 0\n3 {2**31}\n",
    f"n={2**63}\n0 1\n",
    "n=0\n0 1\n",  # n=0 with an edge
    f"n={2**31}\n0 {2**31}\n",
    "n=4\n0 1\n\n",  # a trailing blank line
    "n=5\n0 1 2\n3\n4 0\n",  # as many tokens as two a line, not two on each
    "n=4\n0 1\n2 3\n3 3\n",
]


@pytest.mark.parametrize("text", MALFORMED + WELL_FORMED + ARRAY_READ + LINE_READ)
def test_parse_matches_line_parser(text):
    assert parse_outcome(parse_edge_list, text) == parse_outcome(ref_parse_edge_list, text)


@pytest.mark.parametrize("text", ARRAY_READ + LINE_READ)
def test_array_reader_takes_plain_documents_only(text):
    g = graphs._parse_edge_text(text)
    assert (g is not None) == (text in ARRAY_READ)
    if g is not None:
        assert g == ref_parse_edge_list(text)


def test_parse_random_documents_take_whole_text_path():
    rng = random.Random(9)
    for _ in range(300):
        g = random_graph(rng)
        sep = rng.choice([" ", "\t", "  "])
        lines = [f"n={g.n}"] + [f"{u}{sep}{v}" for u, v in sorted(g.edges)]
        text = "\n".join(lines) + rng.choice(["", "\n"])
        assert graphs._parse_edge_text(text) == g
        assert parse_edge_list(text) == ref_parse_edge_list(text) == g


@pytest.mark.parametrize("block", [1, 5, 64])
def test_array_reader_blocks(monkeypatch, block):
    """Documents read in many small blocks of lines give what one block gives."""
    rng = random.Random(block)
    texts = MALFORMED + WELL_FORMED + ARRAY_READ + LINE_READ
    for _ in range(200):
        g = random_graph(rng)
        seps = [rng.choice([" ", "\t", " \t "]) for _ in range(len(g.ends))]
        lines = [f"n={g.n}"] + [f"{u}{sep}{v}" for (u, v), sep in zip(g.ends.tolist(), seps)]
        texts.append("\n".join(lines) + rng.choice(["", "\n", "\n\n", " 1\n"]))
    whole = [parse_outcome(graphs._parse_edge_text, t) for t in texts]
    monkeypatch.setattr(graphs, "_BLOCK", block)
    assert [parse_outcome(graphs._parse_edge_text, t) for t in texts] == whole


# ---------------------------------------------------------------------------
# the perturbation recursion, stage by stage over word tuples


def ref_build_f(manifold, bumps, grid_n):
    if not bumps:
        return Identity(manifold)
    if manifold is Manifold.INTERVAL:
        return PerturbedF(bumps, grid_n)
    return PerturbedLiftS1(bumps, grid_n)


def ref_perturb_f_at(gens, p, opts):
    """The recursion as a loop over the word tuples, one stage at a time:
    normal forms mark the vacuous stages and every margin is evaluated word
    by word."""
    if not (0.0 < p < 1.0):
        raise ValueError("basepoint must lie in (0, 1)")
    manifold = gens[0].manifold
    grid_n, num_g, max_len = opts.grid_n, len(gens), opts.word_len
    words = enumerate_words(num_g, max_len)
    bumps = []
    f = Identity(manifold)
    lam = _measure_lambda(f, gens, grid_n)
    margins, eps = [], []
    eps_prev = 1.0
    fp_forest = free_product_forest(num_g)
    current = [_word_margin(w, f, gens, p, manifold) for w in words]

    for m, word in enumerate(words, 1):
        sup_budget = math.ldexp(eps_prev, -(m + 1))
        deriv_budget = math.ldexp(1.0, -(m + 1))
        if normal_form(word, fp_forest).trivial:
            margins.append(None)
            eps.append(eps_prev)
            continue
        d_m = current[m - 1]
        if not d_m > sup_budget:
            best = None
            for bump in _candidate_bumps(manifold, m, sup_budget, deriv_budget, grid_n):
                cand_f = ref_build_f(manifold, tuple(bumps) + (bump,), grid_n)
                d_c = _word_margin(word, cand_f, gens, p, manifold)
                if best is None or d_c > best[0]:
                    best = (d_c, bump, cand_f)
            if best is None or best[0] <= 0.0:
                raise SynthesisError(
                    f"stage {m} ({word_str(word)}): no candidate bump moves the "
                    f"basepoint {p} (budget {sup_budget:.3e})"
                )
            d_m, bump, f = best
            bumps.append(bump)
            lam = _measure_lambda(f, gens, grid_n)
            current = [_word_margin(w, f, gens, p, manifold) for w in words]
        margins.append(d_m)
        length = len(word)
        eps_m = min(eps_prev, d_m / (8.0 * length * lam ** (length - 1)))
        if not (eps_m > synthesis._EPS_FLOOR):
            raise SynthesisError(
                f"stage {m}: tolerance underflow (eps={eps_m!r}); margins too small"
            )
        eps.append(eps_m)
        eps_prev = eps_m

    # the final map rebuilt and every margin re-checked word by word
    final_f = ref_build_f(manifold, tuple(bumps), grid_n)
    for m, (word, d_m) in enumerate(zip(words, margins), 1):
        got = _word_margin(word, final_f, gens, p, manifold)
        if d_m is not None and not got > d_m / 2.0:
            raise SynthesisError(
                f"stage {m} ({word_str(word)}): final margin {got} <= D/2 = {d_m / 2}"
            )
    xs = np.linspace(0.0, 1.0, grid_n + 1)
    return final_f, SynthesisState(
        manifold=manifold, p=p, num_g=num_g, max_len=max_len, word_count=len(words),
        margins=tuple(margins), eps=tuple(eps), bumps=tuple(bumps), lambda_est=lam,
        grid_n=grid_n, min_derivative=float(np.min(final_f._draw(xs))),
        deriv_lower_bound=1.0 - sum(math.ldexp(1.0, -(b.stage + 1)) for b in bumps),
    )


def perturb_at(gens, p, opts):
    """``_perturb_f_at`` on the schedule that ``perturb_f`` builds for it,
    its state given the eps that ``_derived_eps`` derives from it: the
    recursion records none."""
    schedule = _Schedule(len(gens), opts.word_len)
    f, state = _perturb_f_at(gens, p, opts, schedule)
    assert state.eps is None
    return f, replace(state, eps=synthesis._derived_eps(state, gens, schedule))


def _bits(x):
    return None if x is None else float(x).hex()


def state_bits(state):
    """Every field of a state, floats as their exact hex form."""
    return (state.manifold, _bits(state.p), state.num_g, state.max_len, state.word_count,
            [_bits(m) for m in state.margins], [_bits(e) for e in state.eps],
            state.bumps, _bits(state.lambda_est), state.grid_n,
            _bits(state.min_derivative), _bits(state.deriv_lower_bound))


def alpha_gens(manifold, num_g, word_len):
    alphas = choose_alphas(num_g, max(5, word_len)).alphas
    return tuple((MobiusI if manifold is Manifold.INTERVAL else RotationS1)(a) for a in alphas)


def near_identity_gens(manifold, num_g, delta):
    """Generators so close to the identity that a later word moves the
    basepoint by less than its budget and takes a second bump."""
    if manifold is Manifold.INTERVAL:
        return tuple(MobiusI(1.0 + delta * (k + 1)) for k in range(num_g))
    return tuple(RotationS1(delta * (k + 1)) for k in range(num_g))


def outcome(run, gens, p, opts):
    try:
        f, state = run(gens, p, opts)
    except SynthesisError as exc:
        return ("error", str(exc))
    return f, state_bits(state)


@pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
@pytest.mark.parametrize("num_g, word_len", [(3, 5), (6, 3), (1, 2)])
def test_recursion_matches_stage_loop(manifold, num_g, word_len):
    gens, opts = alpha_gens(manifold, num_g, word_len), SynthesisOptions(word_len=word_len)
    got = outcome(perturb_at, gens, 0.70710678, opts)
    assert got[0] != "error"
    assert got == outcome(ref_perturb_f_at, gens, 0.70710678, opts)


@pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
@pytest.mark.parametrize("num_g, word_len, delta, stages", [
    (1, 4, 1e-9, (1, 17)),
    (2, 4, 1e-11, (1, 27)),
])
def test_recursion_matches_stage_loop_with_a_later_bump(manifold, num_g, word_len, delta,
                                                        stages):
    gens, opts = near_identity_gens(manifold, num_g, delta), SynthesisOptions(word_len=word_len)
    got = outcome(perturb_at, gens, 0.70710678, opts)
    assert tuple(b.stage for b in got[1][7]) == stages
    assert got == outcome(ref_perturb_f_at, gens, 0.70710678, opts)


@pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
@pytest.mark.parametrize("num_g, delta, stages", [(1, 1e-9, (1, 17)), (2, 1e-11, (1, 27))])
def test_version_1_document_of_two_bumps(tmp_path, manifold, num_g, delta, stages):
    """A version-1 document of a two-bump state, which records the derived
    eps, verifies with no eps note, and one eps edited in the first bump's
    segment fails verify (exit 1) with a note naming eps.  The generators
    are not the maps of the recorded alphas, so both reports fail on
    that."""
    gens = near_identity_gens(manifold, num_g, delta)
    f, state = perturb_at(gens, 0.70710678, SynthesisOptions(word_len=4))
    assert tuple(b.stage for b in state.bumps) == stages
    # K1+K1 or K2+K2
    graph = SimpleGraph.from_edges(2 * num_g, [(0, 1), (2, 3)] if num_g == 2 else [])
    forest = is_clique_forest(graph)
    asg = GeneratorAssignment(graph, manifold, forest, choose_alphas(num_g, 5),
                              forest_layout(forest), f, gens, state)
    path, out = tmp_path / "asg.json", tmp_path / "ver.json"
    with open(path, "w") as fh:
        serialize.write(asg, fh)
    doc = json.loads(path.read_text())
    assert len(doc["state"]["eps"]) == state.word_count

    def eps_notes():
        assert main(["verify", str(path), "--out", str(out)]) == EXIT_FINDING
        return [n for n in json.loads(out.read_text())["notes"] if n.split()[2] == "eps"]
    assert eps_notes() == []
    k = stages[1] - 2  # the last stage of the first segment
    doc["state"]["eps"][k] = "%.17g" % (float(doc["state"]["eps"][k]) / 2)
    path.write_text(json.dumps(doc))
    assert eps_notes() == ["the state's eps are not those derived from its margins and bumps"]


@pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
@pytest.mark.parametrize("num_g, word_len, delta", [(1, 4, 10 ** -7.5), (2, 3, 10 ** -10.5)],
                         ids=["1g-len4", "2g-len3"])
def test_recursion_matches_stage_loop_near_a_budget(manifold, num_g, word_len, delta):
    # a later stage moves p by more than its sup budget but by less than
    # twice it, so only the exact budget keeps the stage free of a bump
    gens, opts = near_identity_gens(manifold, num_g, delta), SynthesisOptions(word_len=word_len)
    got = outcome(perturb_at, gens, 0.70710678, opts)
    assert tuple(b.stage for b in got[1][7]) == (1,)
    assert got == outcome(ref_perturb_f_at, gens, 0.70710678, opts)


@pytest.mark.parametrize("eps_floor", [1e-4, 1e-6, 1e-9, 1e-12])
def test_recursion_matches_stage_loop_on_tolerance_underflow(monkeypatch, eps_floor):
    monkeypatch.setattr(synthesis, "_EPS_FLOOR", eps_floor)
    gens = near_identity_gens(Manifold.INTERVAL, 1, 1e-9)
    opts = SynthesisOptions(word_len=4)
    got = outcome(perturb_at, gens, 0.70710678, opts)
    assert got[0] == "error" and "tolerance underflow" in got[1]
    assert got == outcome(ref_perturb_f_at, gens, 0.70710678, opts)


def test_recursion_matches_stage_loop_when_no_bump_moves():
    # with g = id, f g f^-1 g^-1 fixes every point whatever f is
    gens = (Identity(Manifold.INTERVAL),)
    opts = SynthesisOptions(word_len=3)
    got = outcome(perturb_at, gens, 0.70710678, opts)
    assert got[0] == "error" and "no candidate bump" in got[1]
    assert got == outcome(ref_perturb_f_at, gens, 0.70710678, opts)


def test_recursion_builds_no_word_list(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the recursion ran a per-word procedure")

    count = len(enumerate_words(3, 4))
    monkeypatch.setattr(synthesis, "normal_form", forbidden)
    monkeypatch.setattr(synthesis, "enumerate_words", forbidden)
    gens = alpha_gens(Manifold.INTERVAL, 3, 4)
    _, state = perturb_at(gens, 0.70710678, SynthesisOptions(word_len=4))
    assert state.word_count == count


@pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
def test_recursion_walks_the_schedule_once_per_bump(monkeypatch, manifold):
    """One walk after each bump and no other: the identity is never walked,
    the first walk is of f with its stage-1 bump, and the final check reads
    the walk of the last f."""
    calls = []
    walk = synthesis._schedule_margins
    monkeypatch.setattr(synthesis, "_schedule_margins",
                        lambda *args: calls.append(args[0]) or walk(*args))
    gens = near_identity_gens(manifold, 1, 1e-9)
    f, state = perturb_at(gens, 0.70710678, SynthesisOptions(word_len=4))
    assert len(state.bumps) == 2
    assert len(calls) == len(state.bumps)
    assert calls[0].bumps == state.bumps[:1] and calls[0].bumps[0].stage == 1
    assert calls[-1] is f


@pytest.mark.parametrize("num_g, max_len, trivial", [
    (3, 6, 48), (2, 5, 0), (6, 4, 0),
    # the last level is the only one
    (1, 1, 0), (3, 1, 0),
    (2, 6, 16), (4, 6, 96),
])
def test_trivial_mask_matches_normal_form(num_g, max_len, trivial):
    forest = free_product_forest(num_g)
    ref = [normal_form(w, forest).trivial for w in enumerate_words(num_g, max_len)]
    got = _Schedule(num_g, max_len).trivial()
    assert got.tolist() == ref
    assert int(got.sum()) == trivial


def ref_trivial_mask(schedule):
    """Reference: the mask from a node table that every level, the last
    included, pushes its syllables to (the mask as first written)."""
    size = 1 + sum(lv.parent.size for lv in schedule.levels)
    kind = np.full(size, -1, np.int8)
    head = np.zeros((size, schedule.num_g + 1), np.min_scalar_type(-schedule.max_len))
    tail = np.zeros(size, np.intp)
    node, used, out = np.zeros(1, np.intp), 1, []
    for lv in schedule.levels:
        below = node[lv.parent]
        k = (lv.first >= 2).astype(np.int8)
        same = kind[below] == k
        h = np.take(head, below, axis=0)
        np.multiply(h, same[:, None], out=h)
        for i, (lo, hi) in enumerate(zip(lv.bounds[:-1], lv.bounds[1:])):
            h[lo:hi, i // 2] += -1 if i % 2 else 1
        new = ~same
        for column in h.T:
            new |= column != 0
        node = np.where(same, tail[below], below)
        fresh = slice(used, used + np.count_nonzero(new))
        kind[fresh], tail[fresh] = k[new], node[new]
        head[fresh] = np.compress(new, h, axis=0)
        node[new] = np.arange(fresh.start, fresh.stop)
        used = fresh.stop
        out.append(node[lv.has_f] == 0)
    return np.concatenate(out)


@pytest.mark.parametrize("num_g, max_len, by_length", [
    (2, 8, {6: 16, 8: 160}),
    (3, 7, {6: 48}),
    (4, 6, {6: 96}),
    (1, 8, {}), (5, 5, {}), (3, 2, {}),
])
def test_trivial_mask_matches_node_table(num_g, max_len, by_length):
    schedule = _Schedule(num_g, max_len)
    got = schedule.trivial()
    ref = ref_trivial_mask(schedule)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    lengths, counts = np.unique(schedule.lengths[got], return_counts=True)
    assert dict(zip(lengths.tolist(), counts.tolist())) == by_length
    # computed once, and kept read-only
    assert schedule.trivial() is got and not got.flags.writeable


@pytest.mark.parametrize("num_g, max_len, count", [(3, 8, 7_100_464), (6, 6, 3_505_404)])
def test_schedule_limit_admits(num_g, max_len, count):
    assert synthesis._schedule_size(num_g, max_len) == count <= synthesis._SCHEDULE_WORD_LIMIT


@pytest.mark.parametrize("num_g, max_len, message", [
    (3, 9, "word length 9 over 3 g generators schedules 50,875,122 words, more than"),
    (3, 10 ** 12, "word length 1000000000000 over 3 g generators schedules 50,875,122 "
                  "words up to length 9 alone, more than"),
])
def test_schedule_limit_refuses_before_building(monkeypatch, num_g, max_len, message):
    monkeypatch.setattr(synthesis, "_Level", None)  # no level may be built
    with pytest.raises(ValueError) as info:
        _Schedule(num_g, max_len)
    assert str(info.value) == f"{message} the schedule limit of 10,000,000 words"


@pytest.mark.parametrize("num_g, max_len", [(3, 6), (1, 5), (6, 3)])
def test_named_words_match_enumeration(num_g, max_len):
    schedule, words = _Schedule(num_g, max_len), enumerate_words(num_g, max_len)
    assert schedule.word_count == len(words)
    assert schedule.lengths.tolist() == [len(w) for w in words]
    rng = random.Random(num_g * 100 + max_len)
    picks = {0, len(words) - 1} | set(rng.sample(range(len(words)), 200))
    for k in sorted(picks):
        assert schedule.word(k) == words[k]


def test_array_ldexp_matches_math_ldexp_past_underflow():
    # stage budgets ldexp(eps, -(m+1)) turn subnormal, then 0, from about
    # stage 1,020 on at eps near 1, and far earlier for small eps
    rng = random.Random(5)
    eps = [1.0, 0.5, 1e-300, 5e-324] + [rng.uniform(0.0, 1.0) for _ in range(60)] + [
        10.0 ** rng.uniform(-300.0, 0.0) for _ in range(60)]
    stages = np.arange(1, 1200)
    got = np.ldexp(np.array(eps)[:, None], -(stages + 1)[None, :])
    ref = [[math.ldexp(e, -(m + 1)) for m in stages.tolist()] for e in eps]
    assert got.view(np.int64).tolist() == np.array(ref).view(np.int64).tolist()
    assert (got[:2, 1100:] == 0.0).all()


# ---------------------------------------------------------------------------
# composite expressions: the letter sequence against the per-node recursion


def ref_raw(e, x):
    if isinstance(e, Compose):
        for p in reversed(e.parts):
            x = ref_raw(p, x)
        return x
    if isinstance(e, Inverse):
        return ref_inv_raw(e.inner, x)
    if isinstance(e, Power):
        for _ in range(abs(e.exponent)):
            x = ref_raw(e.inner, x) if e.exponent >= 0 else ref_inv_raw(e.inner, x)
        return x
    return e._raw(x)


def ref_inv_raw(e, y):
    if isinstance(e, Compose):
        for p in e.parts:
            y = ref_inv_raw(p, y)
        return y
    if isinstance(e, Inverse):
        return ref_raw(e.inner, y)
    if isinstance(e, Power):
        return ref_raw(Power(e.inner, -e.exponent), y)
    return e._inv_raw(y)


def ref_draw(e, x):
    if isinstance(e, Compose):
        d = 1.0
        for p in reversed(e.parts):
            d *= ref_draw(p, x)
            x = ref_raw(p, x)
        return d
    if isinstance(e, Inverse):
        return 1.0 / ref_draw(e.inner, ref_inv_raw(e.inner, x))
    if isinstance(e, Power):
        d = 1.0
        for _ in range(abs(e.exponent)):
            if e.exponent >= 0:
                d *= ref_draw(e.inner, x)
                x = ref_raw(e.inner, x)
            else:
                x = ref_inv_raw(e.inner, x)
                d /= ref_draw(e.inner, x)
        return d
    return e._draw(x)


LEAVES = {
    Manifold.INTERVAL: (PerturbedF((BumpPoly(0.08, 1), BumpPoly(-0.03, 2, 1, (0.0, 1.0)))),
                        MobiusI(1.7), MobiusI(0.6)),
    Manifold.CIRCLE: (PerturbedLiftS1((BumpTrig(0.04, 1), BumpTrig(-0.02, 2, math.pi / 4))),
                      RotationS1(0.9), RotationS1(-2.3)),
    Manifold.LINE: (SineShear(1.0), SineShear(-0.7), Translation(0.4)),
}
POINTS = {Manifold.INTERVAL: (0.0, 1.0), Manifold.CIRCLE: (-1.0, 2.0),
          Manifold.LINE: (-5.0, 5.0)}


def random_composite(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    kind = rng.choice(("compose", "inverse", "power"))
    if kind == "compose":
        return Compose(tuple(random_composite(rng, leaves, depth - 1)
                             for _ in range(rng.randint(1, 3))))
    if kind == "inverse":
        return Inverse(random_composite(rng, leaves, depth - 1))
    return Power(random_composite(rng, leaves, depth - 1), rng.randint(-2, 2))


def composites(manifold, count, seed):
    """Nested composites of at most 10 letters (the letter count of the
    reference tree), each with at least one composite node."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        e = random_composite(rng, LEAVES[manifold], 3)
        if isinstance(e, (Compose, Inverse, Power)) and len(e.letters) <= 10:
            out.append(e)
    return out


def sample_points(manifold, rng):
    lo, hi = POINTS[manifold]
    scalars = [lo, hi] + [rng.uniform(lo, hi) for _ in range(3)]
    arrays = [np.array([rng.uniform(lo, hi) for _ in range(n)]) for n in (20, 32, 33, 100)]
    return scalars, arrays


def _hex(values):
    return [float(v).hex() for v in np.atleast_1d(np.asarray(values, dtype=float))]


@pytest.mark.parametrize("manifold", list(LEAVES), ids=lambda m: m.value)
def test_letters_match_per_node_recursion(manifold):
    rng = random.Random(17)
    scalars, arrays = sample_points(manifold, rng)
    for e in composites(manifold, 30, 3):
        for x in scalars + arrays:
            assert _hex(e._raw(x)) == _hex(ref_raw(e, x)), e
            assert _hex(e._inv_raw(x)) == _hex(ref_inv_raw(e, x)), e


def ref_roundings(e):
    """Multiplications and divisions ``ref_draw`` makes on ``e``."""
    if isinstance(e, Compose):
        return sum(ref_roundings(p) for p in e.parts) + len(e.parts)
    if isinstance(e, Inverse):
        return ref_roundings(e.inner) + 1
    if isinstance(e, Power):
        return abs(e.exponent) * (ref_roundings(e.inner) + 1)
    return 0


def conjugates(manifold):
    """The paper's h_{i,n} = f^i g_n f^-i for i = 1, 2, 3."""
    f, g1, g2 = LEAVES[manifold]
    return [Compose((Power(f, i), g, Power(f, -i))) for i in (1, 2, 3) for g in (g1, g2)]


def assert_derivatives_close(e, points, rel):
    for x in points:
        got, ref = np.asarray(e._draw(x)), np.asarray(ref_draw(e, x))
        assert np.all(np.abs(got - ref) <= rel * np.abs(ref)), (e, x)


@pytest.mark.parametrize("manifold", list(LEAVES), ids=lambda m: m.value)
def test_conjugate_derivatives_within_1e15_of_the_recursion(manifold):
    scalars, arrays = sample_points(manifold, random.Random(29))
    for h in conjugates(manifold):
        assert_derivatives_close(h, scalars + arrays, 1e-15)


@pytest.mark.parametrize("manifold", list(LEAVES), ids=lambda m: m.value)
def test_composite_derivatives_within_rounding_of_the_recursion(manifold):
    # the two evaluations multiply the same leaf derivatives in different
    # groupings, and the recursion takes inverse letters' derivatives at
    # round-tripped points; allow 1e-15 relative per rounding step of either
    scalars, arrays = sample_points(manifold, random.Random(31))
    hs = conjugates(manifold)
    commutators = [Compose((a, b, Inverse(a), Inverse(b))) for a in hs for b in hs[:3]]
    for e in composites(manifold, 30, 5) + commutators:
        steps = ref_roundings(e) + len(e.letters)
        assert_derivatives_close(e, scalars + arrays, 1e-15 * max(1, steps))


# ---------------------------------------------------------------------------
# verification: the commutator walk against the per-pair grid scans


def forest_graph(sizes):
    edges, base = [], 0
    for size in sizes:
        edges += [(base + a, base + b) for a, b in itertools.combinations(range(size), 2)]
        base += size
    return SimpleGraph.from_edges(base, edges)


def reference_sup(e, grid_n, domain=None):
    """(x, r): ``e`` applied to the whole grid in one array pass, and the
    first grid point of largest distance."""
    xs = _grid(e.manifold, grid_n, domain)
    r = point_distance(e.manifold, apply_letters(e.letters, xs), xs)
    i = int(np.argmax(r))
    return float(xs[i]), float(r[i])


def commutator(a, b):
    return Compose((a, b, Inverse(a), Inverse(b)))


def pair_class(asg, u, v):
    """(d, n, m) of the pair: n the slot of the vertex in the shallower
    component (the lower slot within one), m that of the other, d the
    difference of their component indices."""
    (i, n), (j, m) = sorted((i, n) for w, i, n in asg.layout if w in (u, v))
    return j - i, n, m


def class_word(asg, d, n, m):
    """[g_n, f^d g_m f^-d]: f^-i [h_u, h_v] f^i, or its inverse, for the
    pair's components i <= j; [g_n, g_m] for d = 0."""
    g_m = asg.gens[m - 1]
    return commutator(asg.gens[n - 1],
                      g_m if d == 0 else Compose((Power(asg.f, d), g_m, Power(asg.f, -d))))


def assert_walk_matches_pair_scans(asg, grid_n, sample=None, tol=1e-9):
    """The walk's (witness_x, residual) of every vertex pair's commutator is
    == that of ``reference_sup``; each report row names the pair's class,
    carries == the ``reference_sup`` of its class word, and has the verdict
    of the pair's own commutator.  With ``sample``, the per-pair scans run
    on that many random pairs and the first and last, while the walks
    cover all.  Returns the report."""
    g, exprs = asg.graph, asg.exprs()
    pairs = list(itertools.combinations(range(g.n), 2))
    checked = pairs if sample is None else sorted(
        set(random.Random(17).sample(pairs, sample)) | {pairs[0], pairs[-1], (0, g.n - 1)})
    ref = {(u, v): reference_sup(commutator(exprs[u], exprs[v]), grid_n) for u, v in checked}
    sups = dict(zip(pairs, grid_sups([commutator(exprs[u], exprs[v]) for u, v in pairs], grid_n)))
    assert [sups[p] for p in checked] == [ref[p] for p in checked]
    report = verify_assignment(asg, grid_n=grid_n, tol=tol)
    assert [(c["u"], c["v"]) for c in report.edge_checks] == sorted(g.edges)
    assert [(c["u"], c["v"]) for c in report.non_edge_checks] == [
        p for p in pairs if p not in g.edges]
    class_ref = {}
    for c in report.edge_checks + report.non_edge_checks:
        cls = pair_class(asg, c["u"], c["v"])
        assert c["class"] == list(cls)
        if cls not in class_ref:
            class_ref[cls] = reference_sup(class_word(asg, *cls), grid_n)
    for c in report.edge_checks:
        assert c["residual"] == class_ref[tuple(c["class"])][1]
        assert c["ok"] == (sups[c["u"], c["v"]][1] < tol)
    for c in report.non_edge_checks:
        assert (c["witness_x"], c["residual"]) == class_ref[tuple(c["class"])]
        assert c["ok"] == (sups[c["u"], c["v"]][1] > 10 * tol)
    return report


# 20xK2 is checked on a 64-cell grid and on a sample of pairs: its per-pair
# reference scans invert f 2(i + j) times for the pair of components i and
# j, 32,760 solver calls over its 780 pairs, where the report's 77 class
# words invert it 2d times each, 1,520 calls over the 76 with d >= 1
@pytest.mark.parametrize("sizes, manifold, word_len, grid_n, sample", [
    ((2,) * 20, Manifold.INTERVAL, 2, 64, 40),
    ((6, 2, 2, 2), Manifold.CIRCLE, 3, DEFAULT_GRID, None),
    ((2, 3), Manifold.INTERVAL, 3, DEFAULT_GRID, None),
    ((2, 3), Manifold.CIRCLE, 3, DEFAULT_GRID, None),
], ids=["20xK2-I", "K6+3xK2-S1", "K2+K3-I", "K2+K3-S1"])
def test_commutator_walk_matches_pair_scans(sizes, manifold, word_len, grid_n, sample):
    asg = synthesize_embedding(forest_graph(sizes), manifold, SynthesisOptions(word_len=word_len))
    assert not isinstance(asg.f, Identity)
    assert_walk_matches_pair_scans(asg, grid_n, sample)


@pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
def test_commutator_walk_matches_pair_scans_on_a_clique(manifold):
    asg = synthesize_embedding(forest_graph((4,)), manifold, SynthesisOptions(word_len=2))
    assert isinstance(asg.f, Identity)
    assert_walk_matches_pair_scans(asg, DEFAULT_GRID)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4),
       st.sampled_from([Manifold.INTERVAL, Manifold.CIRCLE]), st.integers(1, 2),
       st.sampled_from([2, 8, 40, 64]))
@settings(max_examples=15, deadline=None)
def test_commutator_walk_matches_pair_scans_on_random_forests(sizes, manifold, word_len, grid_n):
    # grids of up to 31 cells take the scalar inversion path in the per-pair
    # scans, while the walk inverts many pairs' values in one array
    asg = synthesize_embedding(forest_graph(sizes), manifold, SynthesisOptions(word_len=word_len))
    assert_walk_matches_pair_scans(asg, grid_n)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=5),
       st.sampled_from([Manifold.INTERVAL, Manifold.CIRCLE]))
@settings(max_examples=12, deadline=None)
def test_class_verdicts_match_pair_verdicts_on_random_forests(sizes, manifold):
    asg = synthesize_embedding(forest_graph(sizes), manifold, SynthesisOptions(word_len=1))
    report = assert_walk_matches_pair_scans(asg, 64)
    assert len({tuple(c["class"]) for c in report.edge_checks + report.non_edge_checks}) <= (
        max(sizes) ** 2 * (len(sizes) - 1) + math.comb(max(sizes), 2))


@pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
def test_class_of_a_lower_vertex_in_a_deeper_component(manifold):
    # vertex 1 lies in component 2 and vertex 5 in component 1: the pair
    # (1, 5) is the class of (h_{1,2}, h_{2,1}), n from vertex 5
    g = SimpleGraph.from_edges(6, [(0, 5), (1, 2)])
    asg = synthesize_embedding(g, manifold, SynthesisOptions(word_len=2))
    assert asg.forest.components[:2] == ((0, 5), (1, 2))
    report = assert_walk_matches_pair_scans(asg, DEFAULT_GRID)
    rows = {(c["u"], c["v"]): c for c in report.edge_checks + report.non_edge_checks}
    assert rows[1, 5]["class"] == [1, 2, 1]
    assert rows[0, 1]["class"] == [1, 1, 1]
    assert rows[1, 2]["class"] == rows[0, 5]["class"] == [0, 1, 2]


@pytest.mark.parametrize("cap, apply, runs", [
    (1, 1, 28), (3 * (DEFAULT_GRID + 1), 2 * (DEFAULT_GRID + 1) + 5, 10),
    (40 * (DEFAULT_GRID + 1), diffeo._APPLY_ELEMENTS, 1)])
def test_commutator_walk_in_chunks(monkeypatch, cap, apply, runs):
    # runs of pairs whose levels hold at most cap values, each letter applied
    # to at most apply values (or one word) at a time
    asg = synthesize_embedding(forest_graph((3, 2, 2, 1)), Manifold.CIRCLE,
                               SynthesisOptions(word_len=2))
    monkeypatch.setattr(diffeo, "_WALK_ELEMENTS", cap)
    monkeypatch.setattr(diffeo, "_APPLY_ELEMENTS", apply)
    widths, walk = [], diffeo._walk

    def recording(levels, exprs, xs):
        widths.append(max(bounds[-1] for _, bounds, _ in levels) * xs.size)
        return walk(levels, exprs, xs)

    # the schedule's walk from p is synthesis's own name for _walk: only
    # grid_sups's walks are recorded
    monkeypatch.setattr(diffeo, "_walk", recording)
    report = assert_walk_matches_pair_scans(asg, DEFAULT_GRID)
    # one walk per run of pairs in the direct call and per run of classes in
    # the report's; a run of one word may exceed the cap
    classes = len({tuple(c["class"]) for c in report.edge_checks + report.non_edge_checks})
    assert max(widths) <= max(cap, DEFAULT_GRID + 1)
    assert len(widths) == runs + -(-classes // max(1, cap // (DEFAULT_GRID + 1)))


# ---------------------------------------------------------------------------
# the commutation graph: one walk per power round against the per-pair loop


def reference_commutation_graph(fs, tol, power_bound, grid_n, domain=None):
    """(edges, residuals) of the per-pair loop: on the circle each pair tries
    the powers 1, 2, ..., power_bound, stops at the first whose commutator
    residual is below tol, and keeps its smallest residual."""
    for idx, e in enumerate(fs):
        if reference_sup(e, grid_n, domain)[1] < tol:
            raise ValueError(f"map {idx} is numerically the identity; rejected")
    edges, residuals = [], []
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if fs[0].manifold is Manifold.CIRCLE:
                best = None
                for k in range(1, power_bound + 1):
                    a, b = Power(fs[i], k), Power(fs[j], k)
                    r = reference_sup(commutator(a, b), grid_n, domain)[1]
                    if best is None or r < best:
                        best = r
                    if r < tol:
                        break
            else:
                best = reference_sup(commutator(fs[i], fs[j]), grid_n, domain)[1]
            residuals.append((i, j, best))
            if best < tol:
                edges.append((i, j))
    return edges, tuple(residuals)


LIFT = PerturbedLiftS1((BumpTrig(0.02, 1, 0.5),))


def commgraph_maps(case):
    if case == "line":
        return [SineShear(1.0), Translation(2 * math.pi), SineShear(0.5), Translation(math.pi)]
    manifold = Manifold.INTERVAL if case == "I" else Manifold.CIRCLE
    asg = synthesize_embedding(forest_graph((2, 3)), manifold, SynthesisOptions(word_len=2))
    maps = list(asg.exprs().values())
    if case == "I":
        return maps + [MobiusI(2.3), Compose((MobiusI(2.3), asg.f))]
    # a half-turn commutes with every lift only at even powers, a third of a
    # turn only at multiples of 3, within the power bound or not
    return [RotationS1(math.pi), LIFT, RotationS1(2 * math.pi / 3), RotationS1(0.7)] + maps


@pytest.mark.parametrize("case, power_bound", [
    ("I", 1), ("I", 4), ("S1", 1), ("S1", 2), ("S1", 4), ("line", 3)])
def test_commutation_graph_matches_pair_loop(case, power_bound):
    fs = commgraph_maps(case)
    domain = (0.0, 4 * math.pi) if case == "line" else None
    res = commutation_graph(fs, 1e-9, power_bound, 256, domain)
    edges, residuals = reference_commutation_graph(fs, 1e-9, power_bound, 256, domain)
    assert sorted(res.graph.edges) == edges
    assert res.residuals == residuals
    if case == "S1":
        assert ((0, 1) in edges) == (power_bound >= 2)
        assert ((1, 2) in edges) == (power_bound >= 3)
        assert (0, 3) in edges and (1, 3) not in edges


def test_commutation_graph_rejections():
    fs = [LIFT, Power(LIFT, 0), RotationS1(0.7)]
    for build in (commutation_graph, reference_commutation_graph):
        with pytest.raises(ValueError, match="map 1 is numerically the identity"):
            build(fs, 1e-9, 2, 64)
    with pytest.raises(TagMismatchError):
        commutation_graph([LIFT, MobiusI(2.0)], 1e-9, 2, 64)


# ---------------------------------------------------------------------------
# the alpha relation minimum: the exhaustive scan that the meet-in-the-middle
# search of ``synthesis._min_relation`` replaced


def ref_min_relation(logs, k):
    """min |sum_i k_i logs[i]| over every nonzero vector with max|k_i| <= k,
    each sum accumulated left to right: the prefix sums of all but the last
    two coordinates, then the last two added as a (2k+1)^2 block per prefix,
    2^16 vectors per numpy pass."""
    ks = np.arange(-k, k + 1, dtype=float)
    head, tail = logs[:-2], logs[-2:]
    pre, pre_zero = np.zeros(1), np.ones(1, dtype=bool)
    for lg in head:
        pre = (pre[:, None] + ks * lg).ravel()
        pre_zero = (pre_zero[:, None] & (ks == 0)).ravel()
    chunk = max(1, (1 << 16) // ks.size ** len(tail))
    best = math.inf
    for start in range(0, pre.size, chunk):
        v, zero = pre[start:start + chunk], pre_zero[start:start + chunk]
        for lg in tail:
            v = v[..., None] + ks * lg
            zero = zero[..., None] & (ks == 0)
        v = np.abs(v)
        v[zero] = math.inf  # the all-zero vector is no relation
        best = min(best, float(v.min()))
    return best


def assert_same_minimum(logs, k):
    assert _bits(synthesis._min_relation(logs, k)) == _bits(ref_min_relation(logs, k)), (logs, k)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 7) for k in range(1, 7)
                                  if (2 * k + 1) ** n <= 5_000_000])
def test_relation_minimum_matches_scan(n, k):
    primes = synthesis._first_primes(n)
    c = math.sqrt(primes[-1]) / 1.1
    assert_same_minimum([math.sqrt(p) / c for p in primes], k)


def relation_logs(kind, rng):
    """(logs, k) of one kind, with at most 10^5 vectors below seven logs."""
    n = 7 if kind == "seven" else rng.randint(1, 6)
    k = rng.randint(1, 3 if n == 7 else max(1, int((1e5 ** (1 / n) - 1) // 2)))
    logs = [rng.uniform(0.01, 1.1) for _ in range(n)]
    if kind == "exact" and n > 1:  # logs[b] a simple multiple of logs[a]
        a, b = rng.sample(range(n), 2)
        logs[b] = logs[a] * rng.choice([2.0, 3.0, 0.5, -1.0, 1.5])
    elif kind == "rounded":  # few distinct sums: many ties, many exact zeros
        logs = [rng.choice([round(rng.uniform(-1.1, 1.1), 2), rng.randint(-8, 8) * 0.25])
                for _ in range(n)]
    elif kind == "negative":
        logs = [rng.uniform(-1.1, 1.1) for _ in range(n)]
    elif kind == "zero":
        logs[rng.randrange(n)] = 0.0
    elif kind == "equal" and n > 1:
        a, b = rng.sample(range(n), 2)
        logs[b] = logs[a]
    elif kind == "seven" and rng.random() < 0.5:
        logs = [round(v, 2) for v in logs]
    return logs, k


@pytest.mark.parametrize("kind", ["exact", "rounded", "negative", "zero", "equal", "seven"])
def test_relation_minimum_matches_scan_on_random_logs(kind):
    rng = random.Random(f"relation-{kind}")
    for _ in range(84):
        assert_same_minimum(*relation_logs(kind, rng))


@pytest.mark.parametrize("logs, k", [
    ([0.0] * 6, 6),  # every sum an exact zero
    ([0.5, 1.0, 0.25], 2),
    ([5e-324, 1e-323, 1.5e-323], 4),  # subnormal, exact sums
    ([1e-300, 3e-300, -2e-300, 7e-301], 5),
    ([709.0, -744.0, 1e-10, 0.3], 5),  # the widest logs of finite alphas
    ([0.1 * (1 + i * 2.0 ** -50) for i in range(6)], 5),  # near ties, no exact one
])
def test_relation_minimum_matches_scan_on_edge_logs(logs, k):
    assert_same_minimum(logs, k)
