import time
from collections import deque

import numpy as np
import pytest

from cliqueforest import CliqueForest, Manifold, SimpleGraph, normal_form
from cliqueforest.synthesis import SynthesisOptions, synthesize_embedding

_timings = {}

# one verdict line per acceptance criterion, echoed after the test summary
# (regular prints are swallowed by capture for passing tests)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def free_product_forest(num_g):
    """The clique forest of <f> * <g_1, ..., g_num_g abelian>: vertex 0 is f
    alone, vertices 1..num_g are one clique (the g's commute)."""
    return CliqueForest(((0,), tuple(range(1, num_g + 1))))


def ref_components(g):
    """Reference: the components of ``g`` by a plain BFS over ``g.edges``,
    each sorted and in order of their smallest vertex, with the adjacency
    lists it walked."""
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


def word_is_nontrivial(word, num_g):
    """Reference: nontriviality in <f> * <g_1, ..., g_num_g abelian> by the
    syllable normal form (free reduction alone is not enough once the g's
    commute)."""
    return not normal_form(word, free_product_forest(num_g)).trivial


def mobius_matrix(alpha):
    """2x2 matrix model of x -> alpha x / ((alpha - 1) x + 1)."""
    return np.array([[alpha, 0.0], [alpha - 1.0, 1.0]])


def mobius_matrix_apply(mat, x):
    a, b = mat[0]
    c, d = mat[1]
    return (a * x + b) / (c * x + d)


@pytest.fixture(scope="session")
def k2_k3_graph():
    return SimpleGraph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])


@pytest.fixture(scope="session")
def k2_k3_assignment(k2_k3_graph):
    """The acceptance-scale synthesis: K2 + K3, word length 6, 3 g-generators.

    Session-scoped: the run takes a few seconds and several tests inspect it.
    """
    t0 = time.perf_counter()
    asg = synthesize_embedding(
        k2_k3_graph, Manifold.INTERVAL, SynthesisOptions(word_len=6)
    )
    _timings["k2_k3_synthesis"] = time.perf_counter() - t0
    return asg


@pytest.fixture(scope="session")
def k2_k3_synthesis_seconds(k2_k3_assignment):
    return _timings["k2_k3_synthesis"]
