"""RAAG embeddability decision, free-product normal forms, commutation graphs.

A right-angled Artin group on a clique forest splits as a free product of
free abelian factors, one per component; its word problem reduces to the
syllable normal form implemented here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .diffeo import (
    DEFAULT_GRID,
    DiffeoExpr,
    Manifold,
    Power,
    commutator,
    grid_sups,
)
from . import serialize
from .graphs import (
    CliqueForest,
    CompletenessReport,
    MissingEdgeWitness,
    SimpleGraph,
    check_component_completeness,
    is_clique_forest,
)

RaagWord = Sequence[Tuple[int, int]]  # (vertex, nonzero exponent) pairs

DEFAULT_TOL = 1e-9
DEFAULT_POWER_BOUND = 12


class NotApplicableError(ValueError):
    """The requested manifold is outside the decision theorem's scope."""


@dataclass(frozen=True)
class Syllable:
    component: int
    exponents: Tuple[Tuple[int, int], ...]  # (vertex, exponent), vertex-sorted


@dataclass(frozen=True)
class NormalForm:
    """Reduced syllable sequence in the free product of abelian factors.

    Adjacent syllables lie in distinct components; no zero syllables; the
    empty form represents exactly the trivial element.
    """

    syllables: Tuple[Syllable, ...]

    @property
    def trivial(self) -> bool:
        return not self.syllables

    def __str__(self):
        if self.trivial:
            return "1"
        chunks = []
        for s in self.syllables:
            inner = " ".join(
                f"x{v}" if e == 1 else f"x{v}^{e}" for v, e in s.exponents
            )
            chunks.append(f"[{inner}]")
        return " ".join(chunks)


def normal_form(word: RaagWord, forest: CliqueForest) -> NormalForm:
    """Unique normal form of a RAAG word over a clique forest.

    Consecutive same-component letters collapse into one exponent vector;
    zero syllables are deleted and neighbours re-merge, to a fixpoint.
    """
    comp_of: Dict[int, int] = {}
    for i, comp in enumerate(forest.components):
        for v in comp:
            comp_of[v] = i
    stack: List[Tuple[int, Dict[int, int]]] = []
    for v, e in word:
        if e == 0:
            continue
        try:
            c = comp_of[v]
        except KeyError:
            raise KeyError(f"vertex {v} not in the clique forest")
        if stack and stack[-1][0] == c:
            vec = stack[-1][1]
            nv = vec.get(v, 0) + e
            if nv:
                vec[v] = nv
            else:
                vec.pop(v, None)
                if not vec:
                    stack.pop()
        else:
            stack.append((c, {v: e}))
    return NormalForm(
        tuple(
            Syllable(c, tuple(sorted(vec.items())))
            for c, vec in stack
        )
    )


@dataclass(frozen=True)
class EmbeddabilityDecision:
    """The verdict with its certificate: the clique forest of an embeddable
    graph, or a missing edge with its path."""

    embeddable: bool
    manifold: Manifold
    clique_forest: Optional[CliqueForest] = None
    missing_edge: Optional[MissingEdgeWitness] = None

    FIELDS = (("embeddable", serialize.BOOLEAN), ("manifold", serialize.MANIFOLD),
              ("clique_forest", serialize.document(CliqueForest, optional=True)),
              ("missing_edge", serialize.document(MissingEdgeWitness, optional=True)))
    to_dict = serialize.encode
    from_dict = serialize.loader("decision")

    def __post_init__(self):
        if not self.embeddable == (self.clique_forest is not None) == (self.missing_edge is None):
            raise ValueError("a decision carries the certificate of its verdict, and only that")


def embeddable_raag(g: SimpleGraph, manifold: Manifold) -> EmbeddabilityDecision:
    """Decide embeddability of the RAAG of ``g`` into the analytic
    diffeomorphism group of the interval or the circle.

    The criterion is the same for both manifolds: every connected component
    of ``g`` must be complete.  The line is rejected: the transitivity
    lemmas underlying the criterion fail there.
    """
    if manifold is Manifold.LINE:
        raise NotApplicableError("the decision criterion covers I and S1 only")
    cert = is_clique_forest(g)
    if isinstance(cert, CliqueForest):
        return EmbeddabilityDecision(True, manifold, clique_forest=cert)
    return EmbeddabilityDecision(False, manifold, missing_edge=cert)


@dataclass(frozen=True)
class CommutationGraphResult:
    """Empirical commutation graph plus the parameters that produced it."""

    graph: SimpleGraph
    manifold: Manifold
    tol: float
    power_bound: int  # cap on the power search (meaningful for the circle)
    grid_n: int
    residuals: Tuple[Tuple[int, int, float], ...]  # (i, j, best residual)

    @cached_property
    def completeness(self) -> CompletenessReport:
        return check_component_completeness(self.graph)

    FIELDS = (("graph", serialize.document(SimpleGraph)), ("manifold", serialize.ANY_MANIFOLD),
              ("tol", serialize.NUMBER), ("power_bound", serialize.INTEGER),
              ("grid_n", serialize.INTEGER),
              ("residuals", serialize.rows(serialize.INTEGER, serialize.INTEGER, serialize.NUMBER)),
              ("completeness", serialize.document(CompletenessReport)))
    to_dict = serialize.encode


def commutation_graph(
    fs: Sequence[DiffeoExpr],
    tol: float = DEFAULT_TOL,
    power_bound: int = DEFAULT_POWER_BOUND,
    grid_n: int = DEFAULT_GRID,
    domain=None,
) -> CommutationGraphResult:
    """Edge between i and j iff the maps commute within ``tol``.

    On the circle an edge means some pair of equal powers m <= power_bound
    commutes; absence of an edge only means no commuting powers were found
    up to the cap.  Maps indistinguishable from the identity are rejected,
    mirroring the non-triviality hypotheses of the underlying lemmas.

    The identity checks are one ``grid_sups`` call, and so is each power
    round, over the pairs whose residuals have all stayed at or above
    ``tol``; a pair's residual is its smallest over the rounds it ran.
    """
    if not fs:
        raise ValueError("empty map list")
    m = fs[0].manifold
    if power_bound < 1:
        raise ValueError("power_bound must be >= 1")
    for idx, (_, r) in enumerate(grid_sups(fs, grid_n, domain)):
        if r < tol:
            raise ValueError(f"map {idx} is numerically the identity; rejected")
    best: Dict[Tuple[int, int], float] = {}
    todo = list(combinations(range(len(fs)), 2))
    for k in range(1, power_bound + 1 if m is Manifold.CIRCLE else 2):
        comms = [commutator(Power(fs[i], k), Power(fs[j], k)) for i, j in todo]
        rs = [r for _, r in grid_sups(comms, grid_n, domain)]
        for p, r in zip(todo, rs):
            if p not in best or r < best[p]:
                best[p] = r
        todo = [p for p, r in zip(todo, rs) if not r < tol]
    residuals = [(i, j, r) for (i, j), r in sorted(best.items())]
    edges = [(i, j) for i, j, r in residuals if r < tol]
    return CommutationGraphResult(
        SimpleGraph.from_edges(len(fs), edges), m, tol, power_bound, grid_n, tuple(residuals))
