"""Seeded inputs with known answers.

Every input file the benchmark feeds to the CLI is written here, and each
comes with the answer the benchmark expects.  The answers are derived from
how the input was built, never from the program under test.
"""
from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

Edge = Tuple[int, int]

# the probe input of the known parse_dot defect: a one-line DOT document of
# the path 0 - 1 - 2, which is not a clique forest
ONE_LINE_DOT = "graph G { 0 -- 1; 1 -- 2 }\n"


@dataclass
class Graph:
    """A graph the benchmark built, with its true answer."""

    n: int
    edges: List[Edge]
    components: List[Tuple[int, ...]]  # sorted tuples, ordered by first vertex
    forest: bool = True  # every component complete
    missing: Optional[Edge] = None  # the absent pair, when exactly one is absent

    @property
    def edge_set(self):
        return {(min(u, v), max(u, v)) for u, v in self.edges}


def clique_forest(sizes: Sequence[int], rng: random.Random) -> Graph:
    """Disjoint cliques of the given sizes, vertices labelled at random,
    edges shuffled and randomly oriented.

    Each clique holds the smallest vertex not yet used, so ordered by their
    smallest vertex the cliques keep the order of ``sizes``.  Synthesis gives
    the i-th component in that order conjugation depth i, so the labels
    change no work.
    """
    n = sum(sizes)
    stream = list(range(n))
    rng.shuffle(stream)
    used = [False] * n
    low, pos = 0, 0
    comps, edges = [], []
    for s in sizes:
        while used[low]:
            low += 1
        verts = [low]
        used[low] = True
        while len(verts) < s:
            v = stream[pos]
            pos += 1
            if not used[v]:
                used[v] = True
                verts.append(v)
        comps.append(tuple(sorted(verts)))
        for u, v in itertools.combinations(verts, 2):
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    rng.shuffle(edges)
    comps.sort()
    return Graph(n, edges, comps)


def drop_one_edge(g: Graph, rng: random.Random) -> Graph:
    """Remove one edge from a clique of at least three vertices, so the
    component stays connected and becomes incomplete."""
    big = [c for c in g.components if len(c) >= 3]
    comp = big[rng.randrange(len(big))]
    u, v = rng.sample(comp, 2)
    pair = (min(u, v), max(u, v))
    edges = [e for e in g.edges if (min(e), max(e)) != pair]
    return Graph(g.n, edges, g.components, forest=False, missing=pair)


def random_forest(vertices: int, rng: random.Random, max_clique: int = 6) -> Graph:
    """Clique forest on exactly ``vertices`` vertices with clique sizes drawn
    uniformly from 2..max_clique (the last clique takes the remainder)."""
    sizes, left = [], vertices
    while left:
        s = min(left, rng.randint(2, max_clique))
        sizes.append(s)
        left -= s
    return clique_forest(sizes, rng)


def edge_list_text(g: Graph) -> str:
    return f"n={g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)


def dot_text(g: Graph) -> str:
    """Multi-line DOT, one statement per line, isolated vertices listed."""
    lines = ["graph G {"]
    covered = set()
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
        covered.update((u, v))
    lines += [f"  {v};" for v in range(g.n) if v not in covered]
    lines.append("}")
    return "\n".join(lines) + "\n"


def path_graph(n: int, rng: random.Random) -> Graph:
    """A path on n >= 3 relabelled vertices: connected, not complete."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, list(zip(perm, perm[1:])), [tuple(sorted(perm))], forest=False)


# ---------------------------------------------------------------------------
# unipotent element lists


@dataclass
class Elements:
    """Labelled 3x3 unipotent integer matrices (a, b, c) = entries (1,2),
    (2,3), (1,3), with the known answer of the quadruple search."""

    labels: List[str]
    entries: List[Tuple[int, int, int]]
    has_quadruple: bool = False

    def text(self) -> str:
        out = []
        for lbl, (a, b, c) in zip(self.labels, self.entries):
            out.append(f"{lbl} 1 {a} {c} 0 1 {b} 0 0 1\n")
        return "".join(out)


def two_commuting_families(count: int, rng: random.Random) -> Elements:
    """``count`` distinct elements, half with b = 0 and a != 0, half with
    a = 0 and b != 0.  Each family is abelian, no element of one commutes
    with any of the other, and none is central, so the commutation graph is
    two disjoint cliques and no centralizer quadruple exists."""
    seen, entries = set(), []
    half = count // 2
    while len(entries) < count:
        x = rng.choice([-1, 1]) * rng.randint(1, 9)
        c = rng.randint(-9, 9)
        e = (x, 0, c) if len(entries) < half else (0, x, c)
        if e not in seen:
            seen.add(e)
            entries.append(e)
    rng.shuffle(entries)
    labels = [f"e{i}_{rng.randrange(10**6)}" for i in range(count)]
    return Elements(labels, entries, has_quadruple=False)


# ---------------------------------------------------------------------------
# file writing


@dataclass
class InputSet:
    """Input and output files of one run, in one directory."""

    root: str

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def out(self, name: str) -> str:
        """Path for a CLI output file in this directory."""
        return os.path.join(self.root, name)
