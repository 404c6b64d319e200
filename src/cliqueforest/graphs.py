"""Finite simple graphs, the clique-forest decision, and graph file formats."""
from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import FrozenSet, List, NamedTuple, Optional, Tuple, Union

import numpy as np


class GraphFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class SimpleGraph:
    """Loop-free undirected graph on vertices 0..n-1."""

    n: int
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise GraphFormatError("negative vertex count")
        n = self.n
        for u, v in self.edges:
            if not (0 <= u < v < n):
                if u == v:
                    raise GraphFormatError(f"loop at vertex {u}")
                raise GraphFormatError(f"edge ({u}, {v}) out of range or unordered")

    @staticmethod
    def from_edges(n: int, edges) -> "SimpleGraph":
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return SimpleGraph(n, norm)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, u: int) -> List[int]:
        out = []
        for a, b in self.edges:
            if a == u:
                out.append(b)
            elif b == u:
                out.append(a)
        return sorted(out)

    def connected_components(self) -> List[Tuple[int, ...]]:
        """Components ordered by their smallest vertex, each sorted."""
        return _scan_components(self).components

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}

    @staticmethod
    def from_dict(d: dict) -> "SimpleGraph":
        """Load a graph; ``n`` and the edge ends must be JSON integers."""
        n, edges = d["n"], d["edges"]
        if not (_is_int(n) and isinstance(edges, list) and all(
                isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges)):
            raise ValueError("graph: n and the edge ends must be JSON integers, two per edge")
        return SimpleGraph.from_edges(n, [tuple(e) for e in edges])


@dataclass(frozen=True)
class CliqueForest:
    """Certified partition of the vertex set into pairwise-adjacent components."""

    components: Tuple[Tuple[int, ...], ...]

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    def component_of(self, v: int) -> int:
        for i, comp in enumerate(self.components):
            if v in comp:
                return i
        raise KeyError(v)

    def to_dict(self) -> dict:
        return {"components": [list(c) for c in self.components]}

    @staticmethod
    def from_dict(d: dict) -> "CliqueForest":
        return CliqueForest(tuple(tuple(c) for c in d["components"]))


@dataclass(frozen=True)
class MissingEdgeWitness:
    """Non-adjacent pair in one connected component, with a connecting path."""

    u: int
    v: int
    path: Tuple[int, ...]

    def to_dict(self) -> dict:
        return {"u": self.u, "v": self.v, "path": list(self.path)}

    @staticmethod
    def from_dict(d: dict) -> "MissingEdgeWitness":
        return MissingEdgeWitness(int(d["u"]), int(d["v"]), tuple(d["path"]))


class _ComponentScan(NamedTuple):
    components: List[Tuple[int, ...]]  # ordered by smallest vertex, each sorted
    complete: List[bool]
    labels: np.ndarray  # labels[v]: smallest vertex of v's component
    edges: np.ndarray  # (m, 2) array of the graph's edges


def _component_labels(n: int, ends: np.ndarray) -> np.ndarray:
    """Smallest vertex of every vertex's component; ``ends`` is the (2, m)
    array of edge ends.

    Each round hooks, for every edge whose ends lie in different trees, the
    larger root onto the smaller, then jumps pointers until every vertex
    points at its root.  Roots only ever point lower, so the root of a
    component is its smallest vertex.  An edge whose ends share a root keeps
    sharing it, so each round carries only the edges still crossing.
    """
    parent = np.arange(n, dtype=ends.dtype)
    while True:
        roots = parent[ends]
        cross = roots[0] != roots[1]
        if not cross.any():
            return parent
        ends = ends[:, cross]
        roots = roots[:, cross]
        parent[np.maximum(*roots)] = np.minimum(*roots)
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped


def _scan_components(g: SimpleGraph) -> _ComponentScan:
    """One labelling pass over the edge arrays; a component of s vertices is
    complete exactly when it holds s(s-1)/2 edges."""
    edges = np.fromiter(chain.from_iterable(g.edges), dtype=np.int32 if g.n < 2**31 else np.int64,
                        count=2 * len(g.edges)).reshape(-1, 2)
    labels = _component_labels(g.n, edges.T)
    sizes = np.bincount(labels, minlength=g.n)
    roots = np.flatnonzero(sizes)
    s = sizes[roots]
    complete = np.bincount(labels[edges[:, 0]], minlength=g.n)[roots] == s * (s - 1) // 2
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(s).tolist()
    comps = [tuple(order[a:b]) for a, b in zip([0] + ends, ends)]
    return _ComponentScan(comps, complete.tolist(), labels, edges)


def _bfs_path(n: int, edges: np.ndarray, s: int, t: int) -> Tuple[int, ...]:
    """Shortest path from s to t over the (m, 2) edge array, neighbours taken
    in increasing order."""
    arcs = np.concatenate([edges, edges[:, ::-1]])
    arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
    start = np.searchsorted(arcs[:, 0], np.arange(n + 1)).tolist()
    nbrs = arcs[:, 1].tolist()
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
        for w in nbrs[start[u]:start[u + 1]]:
            if w not in prev:
                prev[w] = u
                q.append(w)
    raise ValueError(f"no path {s} -> {t}")


def _first_missing_pair(g: SimpleGraph, comp: Tuple[int, ...]) -> Optional[Tuple[int, int]]:
    """The first non-adjacent pair (u, v), u before v, of a sorted component."""
    for i, u in enumerate(comp):
        for v in comp[i + 1:]:
            if not g.has_edge(u, v):
                return u, v
    return None


def is_clique_forest(g: SimpleGraph) -> Union[CliqueForest, MissingEdgeWitness]:
    """Decide whether every connected component of ``g`` is complete.

    Returns a certified CliqueForest, or a missing-edge witness inside the
    first incomplete component (by smallest vertex) together with a
    connecting path over that component's edges.
    """
    scan = _scan_components(g)
    if all(scan.complete):
        return CliqueForest(tuple(scan.components))
    comp = scan.components[scan.complete.index(False)]
    u, v = _first_missing_pair(g, comp)
    inside = scan.edges[scan.labels[scan.edges[:, 0]] == comp[0]]
    return MissingEdgeWitness(u, v, _bfs_path(g.n, inside, u, v))


@dataclass(frozen=True)
class ComponentReport:
    vertices: Tuple[int, ...]
    complete: bool
    missing: Optional[Tuple[int, int]]


@dataclass(frozen=True)
class CompletenessReport:
    components: Tuple[ComponentReport, ...]
    ok: bool

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "components": [
                {
                    "vertices": list(c.vertices),
                    "complete": c.complete,
                    "missing": list(c.missing) if c.missing else None,
                }
                for c in self.components
            ],
        }


def check_component_completeness(g: SimpleGraph) -> CompletenessReport:
    """Per-component completeness report (empirical commutation-graph check)."""
    scan = _scan_components(g)
    reports = tuple(ComponentReport(comp, ok, None if ok else _first_missing_pair(g, comp))
                    for comp, ok in zip(scan.components, scan.complete))
    return CompletenessReport(reports, all(scan.complete))


# ---------------------------------------------------------------------------
# file formats: plain edge list and a DOT subset (undirected, no attributes)


def parse_edge_list(text: str) -> SimpleGraph:
    """An ``n=<count>`` header, then one ``u v`` edge per line; ``#`` starts a
    comment and blank lines are skipped."""
    g = _parse_edge_text(text)
    return g if g is not None else _parse_edge_lines(text)


_TEXT_BLOCK = 1 << 18  # characters tokenized at a time by the whole-text path


def _parse_edge_text(text: str) -> Optional[SimpleGraph]:
    """Whole-text reading of a plain document: the header on the first line,
    then only lines of two integers, in range and distinct.  Returns None for
    anything else (comments, blank lines, line breaks other than newline, any
    error), which ``_parse_edge_lines`` then reads line by line.  The body is
    tokenized in blocks of whole lines, so the token strings of only one
    block are alive at a time."""
    if not text.isascii() or any(c in text for c in "#;\r\x0b\x0c\x1c\x1d\x1e"):
        return None
    head, _, body = text.partition("\n")
    head = head.strip()
    if not head.startswith("n="):
        return None
    try:
        n = int(head[2:])
    except ValueError:
        return None
    if body and not body.endswith("\n"):
        body += "\n"
    edges = []
    start = 0
    while start < len(body):
        end = body.find("\n", start + _TEXT_BLOCK) + 1 or len(body)
        # every line must come out as exactly "u v ;"
        tokens = body[start:end].replace("\n", " ; ").split()
        start = end
        ends = tokens[2::3]
        if len(tokens) % 3 or ends.count(";") != len(ends):
            return None
        try:
            us, vs = list(map(int, tokens[0::3])), list(map(int, tokens[1::3]))
        except ValueError:
            return None
        if min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n:
            return None
        if any(map(operator.eq, us, vs)):
            return None
        edges += [(u, v) if u < v else (v, u) for u, v in zip(us, vs)]
    return SimpleGraph(n, frozenset(edges))


def _parse_edge_lines(text: str) -> SimpleGraph:
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


def parse_dot(text: str) -> SimpleGraph:
    """Parse ``graph NAME { ... }``: statements inside the braces are split on
    ';' and on newlines, and are either a vertex or an edge chain
    ``u -- v -- ...``; ``//`` starts a comment running to the end of the line.
    """
    if "{" not in text:
        raise GraphFormatError("missing opening '{'")
    head, body = text.split("{", 1)
    ln_open = head.count("\n") + 1
    if head.split()[:1] != ["graph"]:
        raise GraphFormatError("only undirected 'graph' documents supported", ln_open)
    if "}" not in body:
        raise GraphFormatError("missing closing '}'")
    body = body[: body.rindex("}")]
    verts = set()
    edges = []
    for ln, raw in enumerate(body.split("\n"), ln_open):
        for stmt in raw.split("//", 1)[0].split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if "--" in stmt:
                try:
                    chain = [int(p) for p in stmt.split("--")]
                except ValueError:
                    raise GraphFormatError(f"non-integer vertex in {stmt!r}", ln)
                verts.update(chain)
                for u, v in zip(chain, chain[1:]):
                    if u == v:
                        raise GraphFormatError(f"loop at vertex {u}", ln)
                    edges.append((u, v))
            else:
                try:
                    verts.add(int(stmt))
                except ValueError:
                    raise GraphFormatError(f"unsupported statement {stmt!r}", ln)
    n = max(verts) + 1 if verts else 0
    return SimpleGraph.from_edges(n, edges)


def parse_graph(text: str) -> SimpleGraph:
    """Parse an edge-list or DOT document (format sniffed from content)."""
    stripped = text.lstrip()
    if stripped.startswith("graph") or stripped.startswith("{"):
        return parse_dot(text)
    return parse_edge_list(text)


def to_dot(g: SimpleGraph, name: str = "G") -> str:
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
