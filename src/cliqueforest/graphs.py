"""Finite simple graphs, the clique-forest decision, and graph file formats."""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property
from typing import FrozenSet, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from . import serialize


class GraphFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


_MAX_N = 2**31  # largest vertex count: vertices fit int32, packed edge keys lo*n + hi int64


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """Loop-free undirected graph on vertices 0..n-1.

    ``ends`` is the one store of the edges: an (m, 2) int32 array with
    u < v in each row and the rows sorted and distinct.  ``from_edges``,
    ``from_dict`` and the parsers build it; the constructor takes it as
    given.  ``edges``, the frozenset of (u, v) tuples, is built on first use
    only (``has_edge`` and ``hash`` use it); the decision, the document
    (``FIELDS``) and ``to_dot`` read the array.
    """

    n: int
    ends: np.ndarray

    @cached_property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset(map(tuple, self.ends.tolist()))

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.ends, other.ends)

    def __hash__(self):
        return hash((self.n, self.edges))

    @staticmethod
    def from_edges(n: int, edges) -> "SimpleGraph":
        """The graph of (u, v) pairs given in any order and orientation,
        repeats allowed."""
        if n < 0:
            raise GraphFormatError("negative vertex count")
        if n > _MAX_N:
            raise GraphFormatError(f"vertex count {n} above the limit 2**31")
        e = np.array(list(edges) or np.empty((0, 2), np.int64))
        if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
            raise GraphFormatError(f"edges must be pairs of vertices in 0..{n - 1}")
        lo, hi = np.minimum(*e.T), np.maximum(*e.T)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            u, v = lo[np.argmax(bad)], hi[np.argmax(bad)]
            raise GraphFormatError(f"loop at vertex {u}" if u == v else f"edge ({u}, {v}) out of range")
        return SimpleGraph(n, _edge_array(n, lo.astype(np.int64), hi.astype(np.int64)))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    FIELDS = (("n", serialize.INTEGER),
              ("edges", replace(serialize.rows(serialize.INTEGER, serialize.INTEGER),
                                encode=np.ndarray.tolist, attr="ends")))
    to_dict = serialize.encode

    @classmethod
    def from_dict(cls, d: dict) -> "SimpleGraph":
        """Load a graph through ``from_edges``, which checks the edges and
        builds their canonical array."""
        return serialize.build(lambda n, ends: cls.from_edges(n, ends), d, cls.FIELDS,
                               "graph (n and the edge ends must be JSON integers, two per edge)")


def _edge_array(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The canonical edge array of the int64 pairs (u[k], v[k]), all in
    range and none a loop: rows (min, max), sorted, repeats dropped.  One
    sort of the packed keys lo*n + hi, which stay below 2**62."""
    key = np.minimum(u, v) * n + np.maximum(u, v)
    key.sort()
    key = np.concatenate((key[:1], key[1:][key[1:] != key[:-1]]))
    ends = np.empty((len(key), 2), np.int32)
    np.divmod(key, max(n, 1), out=(ends[:, 0], ends[:, 1]))
    return ends


@dataclass(frozen=True, eq=False, init=False, repr=False)
class CliqueForest:
    """Certified partition of the vertex set into pairwise-adjacent components.

    ``cliques`` holds the components flat, as ``SimpleGraph`` holds
    ``ends``: the labelling pass's vertex order, component by component,
    and each component's end in it (``serialize.Ragged``).  The constructor
    takes that, or the components as integer sequences.  ``components`` and
    ``sizes`` are tuples built on first use; the document is written from
    the arrays.
    """

    cliques: serialize.Ragged

    def __init__(self, cliques):
        if not isinstance(cliques, serialize.Ragged):
            cliques = serialize.Ragged.of(cliques)
        object.__setattr__(self, "cliques", cliques)

    @cached_property
    def components(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(map(tuple, self.cliques.lists()))

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(map(len, self.components))

    def __eq__(self, other):
        if not isinstance(other, CliqueForest):
            return NotImplemented
        return all(map(np.array_equal, self.cliques, other.cliques))

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"CliqueForest({self.components!r})"

    FIELDS = (("components", replace(serialize.INTEGER_LISTS, attr="cliques")),)
    to_dict = serialize.encode
    from_dict = serialize.loader("clique_forest (components must be lists of JSON integers)")


@dataclass(frozen=True)
class MissingEdgeWitness:
    """Non-adjacent pair in one connected component, with a connecting path."""

    u: int
    v: int
    path: Tuple[int, ...]

    FIELDS = (("u", serialize.INTEGER), ("v", serialize.INTEGER), ("path", serialize.INTEGERS))
    to_dict = serialize.encode
    from_dict = serialize.loader("missing_edge (u, v and the path must be JSON integers)")


class _ComponentScan(NamedTuple):
    labels: np.ndarray  # labels[v]: smallest vertex of v's component
    roots: np.ndarray  # smallest vertex of each component, increasing
    sizes: np.ndarray  # vertex count of each component
    complete: np.ndarray  # whether each component is complete


def _component_labels(n: int, ends: np.ndarray) -> np.ndarray:
    """Smallest vertex of every vertex's component; ``ends`` is the (2, m)
    array of edge ends (lo, hi), lo < hi.

    Each round hooks the larger root of every crossing edge onto the
    smallest root proposed for it, jumps pointers until every vertex points
    at its root, and drops the edges no longer crossing.  Roots only ever
    point lower, so a component's root is its smallest vertex.  The first
    round, on the raw ends, labels a clique forest; a star takes at most two.
    """
    parent = np.arange(n, dtype=ends.dtype)
    lo, hi = ends
    while len(lo):
        np.minimum.at(parent, hi, lo)
        jumped = parent[parent]
        while (jumped != parent).any():
            parent, jumped = jumped, jumped[jumped]
        roots = parent[ends]
        cross = roots[0] != roots[1]
        ends, roots = ends[:, cross], roots[:, cross]
        lo, hi = np.minimum(*roots), np.maximum(*roots)
    return parent


def _scan_components(g: SimpleGraph) -> _ComponentScan:
    """One labelling pass over the edge array; a component of s vertices is
    complete exactly when it holds s(s-1)/2 edges."""
    labels = _component_labels(g.n, g.ends.T)
    counts = np.bincount(labels, minlength=g.n)
    roots = counts.nonzero()[0]
    s = counts[roots]
    complete = np.bincount(labels[g.ends[:, 0]], minlength=g.n)[roots] == s * (s - 1) // 2
    return _ComponentScan(labels, roots, s, complete)


def _grouped(labels: np.ndarray) -> np.ndarray:
    """``labels.argsort(kind="stable")`` by one sort of the packed int64 keys
    labels[k]*len + k (labels below 2**31, lengths below 2**32)."""
    key = labels.astype(np.int64) * len(labels) + np.arange(len(labels))
    key.sort()
    return key % max(len(labels), 1)


def _components(scan: _ComponentScan) -> serialize.Ragged:
    """The components, each sorted, ordered by smallest vertex."""
    return serialize.Ragged(_grouped(scan.labels), scan.sizes.cumsum())


def _incomplete(g: SimpleGraph, scan: _ComponentScan, roots: np.ndarray):
    """The components with smallest vertices ``roots`` (increasing), each as
    its sorted vertices and its sorted edges (a[k], b[k]) in its numbering
    0..s-1; one ``_grouped`` sort gathers the vertices, one the edges."""
    bad = np.isin(scan.labels, roots)
    verts, rows = bad.nonzero()[0], g.ends[bad[g.ends[:, 0]]]
    parts = []
    for items, key in ((verts, scan.labels[verts]), (rows, scan.labels[rows[:, 0]])):
        order = _grouped(key)
        parts.append(np.split(items[order], np.searchsorted(key[order], roots))[1:])
    for verts, rows in zip(*parts):
        yield (verts, *np.searchsorted(verts, rows.T))


def _first_missing_pair(s: int, a: np.ndarray, b: np.ndarray) -> Tuple[int, int]:
    """The first pair (i, j), i < j < s, in lexicographic order that is not
    an edge (a[k], b[k]) of an incomplete component."""
    rank = a * (2 * s - a - 1) // 2 + (b - a - 1)  # place of (a, b) among all pairs
    gaps = (rank != np.arange(len(rank))).nonzero()[0]
    k = int(gaps[0]) if len(gaps) else len(rank)
    if k == 0:
        return 0, 1
    i, j = int(a[k - 1]), int(b[k - 1])  # the pair before the missing one
    return (i, j + 1) if j + 1 < s else (i + 1, i + 2)


def _bfs_path(s: int, a: np.ndarray, b: np.ndarray, src: int, dst: int) -> List[int]:
    """Shortest path from src to dst over the edges (a[k], b[k]) on 0..s-1,
    neighbours taken in increasing order."""
    tails, heads = np.concatenate((a, b)), np.concatenate((b, a))
    order = np.lexsort((heads, tails))
    start = np.searchsorted(tails[order], np.arange(s + 1)).tolist()
    nbrs = heads[order].tolist()
    prev = {src: None}
    q = deque([src])
    while q:
        u = q.popleft()
        if u == dst:
            path = []
            while u is not None:
                path.append(u)
                u = prev[u]
            return path[::-1]
        for w in nbrs[start[u]:start[u + 1]]:
            if w not in prev:
                prev[w] = u
                q.append(w)
    raise ValueError(f"no path {src} -> {dst}")


def is_clique_forest(g: SimpleGraph) -> Union[CliqueForest, MissingEdgeWitness]:
    """Decide whether every connected component of ``g`` is complete.

    Returns a certified CliqueForest, or a missing-edge witness inside the
    first incomplete component (by smallest vertex) together with a
    connecting path over that component's edges.  Both read the edge array
    only; the witness works in the component's own vertex numbering.
    """
    scan = _scan_components(g)
    if scan.complete.all():
        return CliqueForest(_components(scan))
    verts, a, b = next(_incomplete(g, scan, scan.roots[~scan.complete][:1]))
    path = verts[_bfs_path(len(verts), a, b, *_first_missing_pair(len(verts), a, b))].tolist()
    return MissingEdgeWitness(path[0], path[-1], tuple(path))


def is_component_partition(forest: CliqueForest, g: SimpleGraph) -> bool:
    """Whether the components of ``forest``, each taken as a set, are the
    connected components of ``g``, with every vertex of ``g`` in exactly one
    of them.  The order of the components and within them is free."""
    return sorted(map(sorted, forest.components)) == _components(_scan_components(g)).lists()


@dataclass(frozen=True)
class ComponentReport:
    vertices: Tuple[int, ...]
    complete: bool
    missing: Optional[Tuple[int, int]]

    FIELDS = (("vertices", serialize.INTEGERS), ("complete", serialize.BOOLEAN),
              ("missing", serialize.nullable(serialize.INTEGERS)))


@dataclass(frozen=True)
class CompletenessReport:
    components: Tuple[ComponentReport, ...]
    ok: bool

    FIELDS = (("ok", serialize.BOOLEAN),
              ("components", serialize.list_of(serialize.document(ComponentReport))))
    to_dict = serialize.encode


def check_component_completeness(g: SimpleGraph) -> CompletenessReport:
    """Per-component completeness report (empirical commutation-graph check)."""
    scan = _scan_components(g)
    missing = iter([tuple(verts[list(_first_missing_pair(len(verts), a, b))].tolist())
                    for verts, a, b in _incomplete(g, scan, scan.roots[~scan.complete])])
    reports = tuple(ComponentReport(tuple(comp), ok, None if ok else next(missing))
                    for comp, ok in zip(_components(scan).lists(), scan.complete.tolist()))
    return CompletenessReport(reports, bool(scan.complete.all()))


# ---------------------------------------------------------------------------
# file formats: plain edge list and a DOT subset (undirected, no attributes)


def parse_edge_list(text: str) -> SimpleGraph:
    """An ``n=<count>`` header, then one ``u v`` edge per line; ``#`` starts a
    comment and blank lines are skipped."""
    g = _parse_edge_text(text)
    return g if g is not None else _parse_edge_lines(text)


def _parse_edge_text(text: str) -> Optional[SimpleGraph]:
    """Array reading of a plain document: the header on the first line, then
    only lines of two unsigned decimal integers between spaces or tabs, in
    range and distinct; the last newline is optional.  The body is read in
    blocks of whole lines (``_read_block``), and the range and loop checks
    run on the arrays.  Returns None for anything else (comments, blank
    lines, signs, underscores, other whitespace, any error), which
    ``_parse_edge_lines`` then reads line by line."""
    end = text.find("\n")
    head = text[:end] if end >= 0 else text
    if not (text.isascii() and head.isprintable()) or "#" in head:
        return None
    head = head.strip()
    if not head.startswith("n="):
        return None
    try:
        n = int(head[2:])
    except ValueError:
        return None
    raw = text[end:].encode("ascii") if end >= 0 else b"\n"  # led by the header's newline
    if not 0 <= n <= _MAX_N or raw.translate(None, b"0123456789 \t\n"):
        return None
    if not raw.endswith(b"\n"):
        raw += b"\n"
    vals, a = [], 0
    while a < len(raw) - 1:  # raw[a] and raw[b] are the newlines around a block
        b = raw.find(b"\n", a + _BLOCK)
        b = b if b >= 0 else len(raw) - 1
        vals.append(_read_block(raw[a:b + 1]))
        if vals[-1] is None:
            return None
        a = b
    val = np.concatenate(vals) if vals else np.empty(0, np.int64)
    u, v = val[0::2], val[1::2]
    if val.max(initial=-1) >= n or (u == v).any():
        return None
    return SimpleGraph(n, _edge_array(n, u, v))


_BLOCK = 1 << 20  # body bytes per block: bounds the text-sized temporary arrays


def _read_block(block: bytes) -> Optional[np.ndarray]:
    """The integers of lines that lie between a leading and a trailing
    newline, or None unless every line holds exactly two tokens.  The line
    shape is checked on the bytes at once (digits are the only bytes from
    48 up, given the caller's character check); numpy reads the integers."""
    byte = np.frombuffer(block, np.uint8)
    digit = byte >= 48
    before = (digit[1:] > digit[:-1]).nonzero()[0]  # the byte before each token
    nls = (byte == 10).nonzero()[0]
    # tokens 2k and 2k+1 lie between newlines k and k+1
    if (len(before) != 2 * len(nls) - 2 or (before[0::2] < nls[:-1]).any()
            or (before[1::2] >= nls[1:]).any()):
        return None
    # strtoll reads a token beyond int64 as 2**63 - 1, which is never a vertex
    val = np.fromstring(block, dtype=np.int64, sep=" ")
    return val if len(val) == len(before) else None


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
    """Parse ``graph NAME { ... }`` (or ``strict graph``: every graph here is
    simple, and repeated edges merge anyway): statements inside the braces
    are split on ';' and on newlines, and are either a vertex or an edge
    chain ``u -- v -- ...``; ``//`` starts a comment running to the end of
    the line, also before the opening '{'.  The first '}' outside a comment
    closes the document; only whitespace and comments may follow it.
    """
    codes = [raw.split("//", 1)[0] for raw in text.split("\n")]  # comments dropped
    opened = next((k for k, code in enumerate(codes) if "{" in code), None)
    if opened is None:
        raise GraphFormatError("missing opening '{'")
    head, codes[opened] = codes[opened].split("{", 1)
    words = " ".join(codes[:opened] + [head]).split()
    if words[:1] == ["strict"]:
        words = words[1:]
    ln_open = opened + 1
    if words[:1] != ["graph"]:
        raise GraphFormatError("only undirected 'graph' documents supported", ln_open)
    codes = codes[opened:]
    close = next((k for k, code in enumerate(codes) if "}" in code), None)
    if close is None:
        raise GraphFormatError("missing closing '}'")
    last, after = codes[close].split("}", 1)
    for ln, rest in enumerate([after] + codes[close + 1:], ln_open + close):
        if rest.strip():
            raise GraphFormatError(f"text after the closing '}}': {rest.strip()!r}", ln)
    verts = set()
    edges = []
    for ln, code in enumerate(codes[:close] + [last], ln_open):
        for stmt in code.split(";"):
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


# a DOT document: its first token after blank lines and // comment lines
_DOT_START = re.compile(r"(?:\s*//[^\n]*)*\s*(?:graph|strict|digraph|\{)")


def parse_graph(text: str) -> SimpleGraph:
    """Parse an edge-list or DOT document, told apart by the first token
    after blank lines and ``//`` comment lines: ``graph``, ``strict``,
    ``digraph`` (which ``parse_dot`` rejects) or '{' starts a DOT document."""
    return parse_dot(text) if _DOT_START.match(text) else parse_edge_list(text)


def to_dot(g: SimpleGraph, name: str = "G") -> str:
    lines = [f"graph {name} {{"] + [f"  {u} -- {v};" for u, v in g.ends.tolist()]
    covered = np.zeros(g.n, bool)
    covered[g.ends] = True
    lines += [f"  {v};" for v in (~covered).nonzero()[0].tolist()]
    lines.append("}")
    return "\n".join(lines) + "\n"
