"""The bitset obstruction search, the labelled clique-forest decision, the
array-held synthesis schedule and the letter-sequence evaluation of
composite maps against the procedures they replaced.

The reference functions below are those procedures, kept verbatim in
behaviour: the four-loop quadruple search, the all-pairs center check, the
BFS component walk with its first-missing-pair witness, the per-line
edge-list parser, the stage-by-stage perturbation recursion over word
tuples, the per-node recursion of Compose, Inverse and Power, and the
per-pair grid scans of ``commutator_witness`` and ``commutator_residual``
that verification replaced by one walk over shared letter prefixes.  Their commutation predicate multiplies the matrices, so the closed
form of ``commutes_with`` is checked on the way.
"""
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

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
    choose_alphas,
    commutator_residual,
    commutator_witness,
    enumerate_words,
    synthesize_embedding,
    verify_assignment,
)
from cliqueforest import graphs, synthesis
from cliqueforest.diffeo import DEFAULT_GRID
from cliqueforest.graphs import ComponentReport, CompletenessReport, parse_edge_list
from cliqueforest.raag import normal_form
from cliqueforest.synthesis import (
    Identity,
    SynthesisError,
    SynthesisOptions,
    SynthesisState,
    _build_f,
    _candidate_bumps,
    _free_product_forest,
    _measure_lambda,
    _perturb_f_at,
    _Schedule,
    _word_margin,
    word_str,
)


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
    assert g.connected_components() == ref_components(g)[0]


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

    def neighbors(self, u):
        out = []
        for a, b in self.edges:
            if a == u:
                out.append(b)
            elif b == u:
                out.append(a)
        return sorted(out)

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
        assert g.connected_components() == ref_components(ref)[0]
        assert [g.neighbors(u) for u in range(n + 1)] == [ref.neighbors(u) for u in range(n + 1)]
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


def ref_perturb_f_at(gens, p, opts, manifold):
    """The recursion as a loop over the word tuples, one stage at a time:
    normal forms mark the vacuous stages and every margin is evaluated word
    by word."""
    if not (0.0 < p < 1.0):
        raise ValueError("basepoint must lie in (0, 1)")
    grid_n, num_g, max_len = opts.grid_n, len(gens), opts.word_len
    words = enumerate_words(num_g, max_len)
    bumps = []
    f = Identity(manifold)
    lam = _measure_lambda(f, gens, grid_n)
    margins, eps = [], []
    eps_prev = 1.0
    fp_forest = _free_product_forest(num_g)
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
                cand_f = _build_f(manifold, tuple(bumps) + (bump,), grid_n)
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
        if not (eps_m > opts.eps_floor):
            raise SynthesisError(
                f"stage {m}: tolerance underflow (eps={eps_m!r}); margins too small"
            )
        eps.append(eps_m)
        eps_prev = eps_m

    final_f = _build_f(manifold, tuple(bumps), grid_n)
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


def outcome(run, gens, p, opts, manifold):
    try:
        f, state = run(gens, p, opts, manifold)
    except SynthesisError as exc:
        return ("error", str(exc))
    return f, state_bits(state)


@pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
@pytest.mark.parametrize("num_g, word_len", [(3, 5), (6, 3), (1, 2)])
def test_recursion_matches_stage_loop(manifold, num_g, word_len):
    gens, opts = alpha_gens(manifold, num_g, word_len), SynthesisOptions(word_len=word_len)
    got = outcome(_perturb_f_at, gens, 0.70710678, opts, manifold)
    assert got[0] != "error"
    assert got == outcome(ref_perturb_f_at, gens, 0.70710678, opts, manifold)


@pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
@pytest.mark.parametrize("num_g, word_len, delta, stages", [
    (1, 4, 1e-9, (1, 17)),
    (2, 4, 1e-11, (1, 27)),
])
def test_recursion_matches_stage_loop_with_a_later_bump(manifold, num_g, word_len, delta,
                                                        stages):
    gens, opts = near_identity_gens(manifold, num_g, delta), SynthesisOptions(word_len=word_len)
    got = outcome(_perturb_f_at, gens, 0.70710678, opts, manifold)
    assert tuple(b.stage for b in got[1][7]) == stages
    assert got == outcome(ref_perturb_f_at, gens, 0.70710678, opts, manifold)


@pytest.mark.parametrize("manifold", [Manifold.INTERVAL, Manifold.CIRCLE], ids=["I", "S1"])
@pytest.mark.parametrize("num_g, word_len, delta", [(1, 4, 10 ** -7.5), (2, 3, 10 ** -10.5)],
                         ids=["1g-len4", "2g-len3"])
def test_recursion_matches_stage_loop_near_a_budget(manifold, num_g, word_len, delta):
    # a later stage moves p by more than its sup budget but by less than
    # twice it, so only the exact budget keeps the stage free of a bump
    gens, opts = near_identity_gens(manifold, num_g, delta), SynthesisOptions(word_len=word_len)
    got = outcome(_perturb_f_at, gens, 0.70710678, opts, manifold)
    assert tuple(b.stage for b in got[1][7]) == (1,)
    assert got == outcome(ref_perturb_f_at, gens, 0.70710678, opts, manifold)


@pytest.mark.parametrize("eps_floor", [1e-4, 1e-6, 1e-9, 1e-12])
def test_recursion_matches_stage_loop_on_tolerance_underflow(eps_floor):
    gens = near_identity_gens(Manifold.INTERVAL, 1, 1e-9)
    opts = SynthesisOptions(word_len=4, eps_floor=eps_floor)
    got = outcome(_perturb_f_at, gens, 0.70710678, opts, Manifold.INTERVAL)
    assert got[0] == "error" and "tolerance underflow" in got[1]
    assert got == outcome(ref_perturb_f_at, gens, 0.70710678, opts, Manifold.INTERVAL)


def test_recursion_matches_stage_loop_when_no_bump_moves():
    # with g = id, f g f^-1 g^-1 fixes every point whatever f is
    gens = (Identity(Manifold.INTERVAL),)
    opts = SynthesisOptions(word_len=3)
    got = outcome(_perturb_f_at, gens, 0.70710678, opts, Manifold.INTERVAL)
    assert got[0] == "error" and "no candidate bump" in got[1]
    assert got == outcome(ref_perturb_f_at, gens, 0.70710678, opts, Manifold.INTERVAL)


def test_recursion_builds_no_word_list(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the recursion ran a per-word procedure")

    count = len(enumerate_words(3, 4))
    monkeypatch.setattr(synthesis, "normal_form", forbidden)
    monkeypatch.setattr(synthesis, "enumerate_words", forbidden)
    gens = alpha_gens(Manifold.INTERVAL, 3, 4)
    _, state = _perturb_f_at(gens, 0.70710678, SynthesisOptions(word_len=4), Manifold.INTERVAL)
    assert state.word_count == count


@pytest.mark.parametrize("num_g, max_len, trivial", [(3, 6, 48), (2, 5, 0), (6, 4, 0)])
def test_trivial_mask_matches_normal_form(num_g, max_len, trivial):
    forest = _free_product_forest(num_g)
    ref = [normal_form(w, forest).trivial for w in enumerate_words(num_g, max_len)]
    got = _Schedule(num_g, max_len).trivial()
    assert got.tolist() == ref
    assert int(got.sum()) == trivial


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


def assert_walk_matches_pair_scans(asg, grid_n, sample=None):
    """The walk's (witness_x, residual) of every vertex pair is == that of
    ``commutator_witness``; the report's edge residuals are == those of
    ``commutator_residual`` and its non-edge rows those of
    ``commutator_witness``.  With ``sample``, the per-pair scans run on that
    many random pairs and the first and last, while the walks cover all."""
    g, exprs = asg.graph, asg.exprs()
    pairs = list(itertools.combinations(range(g.n), 2))
    checked = pairs if sample is None else sorted(
        set(random.Random(17).sample(pairs, sample)) | {pairs[0], pairs[-1], (0, g.n - 1)})
    ref = {(u, v): commutator_witness(exprs[u], exprs[v], grid_n) for u, v in checked}
    sups = dict(zip(pairs, synthesis._commutator_sups(asg, pairs, grid_n)))
    assert [sups[p] for p in checked] == [ref[p] for p in checked]
    report = verify_assignment(asg, grid_n=grid_n)
    edges = [(c["u"], c["v"], c["residual"]) for c in report.edge_checks]
    assert [(u, v) for u, v, _ in edges] == sorted(g.edges)
    assert [e for e in edges if e[:2] in ref] == [
        (u, v, commutator_residual(exprs[u], exprs[v], grid_n)) for u, v in checked
        if (u, v) in g.edges]
    rows = [(c["u"], c["v"], c["witness_x"], c["residual"]) for c in report.non_edge_checks]
    assert [r[:2] for r in rows] == [p for p in pairs if p not in g.edges]
    assert [r for r in rows if r[:2] in ref] == [
        (u, v, *ref[u, v]) for u, v in checked if (u, v) not in g.edges]


# 20xK2 is checked on a 64-cell grid and on a sample of pairs: its per-pair
# scans invert f 2(i + j) times for the pair of components i and j, 32,760
# solver calls over its 780 pairs
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


@pytest.mark.parametrize("cap, apply, runs", [
    (1, 1, 28), (3 * (DEFAULT_GRID + 1), 2 * (DEFAULT_GRID + 1) + 5, 10),
    (40 * (DEFAULT_GRID + 1), synthesis._APPLY_ELEMENTS, 1)])
def test_commutator_walk_in_chunks(monkeypatch, cap, apply, runs):
    # runs of pairs whose levels hold at most cap values, each letter applied
    # to at most apply values (or one word) at a time
    asg = synthesize_embedding(forest_graph((3, 2, 2, 1)), Manifold.CIRCLE,
                               SynthesisOptions(word_len=2))
    monkeypatch.setattr(synthesis, "_WALK_ELEMENTS", cap)
    monkeypatch.setattr(synthesis, "_APPLY_ELEMENTS", apply)
    widths, walk = [], synthesis._walk

    def recording(levels, exprs, xs):
        if xs.size > 1:  # not the schedule's walk from p
            widths.append(max(bounds[-1] for _, bounds in levels) * xs.size)
        return walk(levels, exprs, xs)

    monkeypatch.setattr(synthesis, "_walk", recording)
    assert_walk_matches_pair_scans(asg, DEFAULT_GRID)
    # one walk per run of pairs, in the direct call and in the report's;
    # a run of one pair may exceed the cap
    assert max(widths) <= max(cap, DEFAULT_GRID + 1)
    assert len(widths) == 2 * runs
