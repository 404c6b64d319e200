"""Finite simple graphs, the clique-forest decision, and graph file formats."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple, Union


class GraphFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class SimpleGraph:
    """Loop-free undirected graph on vertices 0..n-1."""

    n: int
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise GraphFormatError("negative vertex count")
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"loop at vertex {u}")
            if not (0 <= u < v < self.n):
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

    def adjacency(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def connected_components(self) -> List[Tuple[int, ...]]:
        adj = self.adjacency()
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = []
            q = deque([s])
            seen[s] = True
            while q:
                u = q.popleft()
                comp.append(u)
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        q.append(w)
            comps.append(tuple(sorted(comp)))
        return comps

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": sorted(list(e) for e in self.edges)}

    @staticmethod
    def from_dict(d: dict) -> "SimpleGraph":
        return SimpleGraph.from_edges(int(d["n"]), [tuple(e) for e in d["edges"]])


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


def _bfs_path(g: SimpleGraph, s: int, t: int) -> Tuple[int, ...]:
    adj = g.adjacency()
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

    Returns a certified CliqueForest, or a missing-edge witness inside one
    component together with a connecting path.
    """
    comps = g.connected_components()
    for comp in comps:
        missing = _first_missing_pair(g, comp)
        if missing:
            return MissingEdgeWitness(*missing, _bfs_path(g, *missing))
    return CliqueForest(tuple(comps))


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
    reports = []
    for comp in g.connected_components():
        missing = _first_missing_pair(g, comp)
        reports.append(ComponentReport(comp, missing is None, missing))
    return CompletenessReport(tuple(reports), all(r.complete for r in reports))


# ---------------------------------------------------------------------------
# file formats: plain edge list and a DOT subset (undirected, no attributes)


def parse_edge_list(text: str) -> SimpleGraph:
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
