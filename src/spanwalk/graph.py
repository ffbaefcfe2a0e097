"""Immutable labeled graphs plus edge-list and graph6 ingestion.

Vertices are always 0..n-1.  Undirected edges are stored once as (u, v) with
u < v; directed graphs (accepted only by the spreading dynamics) store arcs
as (tail, head) pairs.  Each Graph keeps one adjacency: ascending tuples.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable

from .errors import (
    DirectedUnsupportedError,
    EdgeListParseError,
    RegularityRequiredError,
    WorkBudgetError,
    excerpt,
    shown,
)

Edge = tuple[int, int]
Adjacency = tuple[tuple[int, ...], ...]

_MAX_VERTICES = 2**20  # most vertices one Graph may hold: one adjacency list each
_MAX_COMPLEMENT_PAIRS = 2**20  # most vertex pairs one complement may hold as edges
_MAX_INT_CHARS = 4300  # longest integer token read from input: int() takes time quadratic in its length


def _check_vertex_budget(n: int) -> None:
    if n > _MAX_VERTICES:
        raise WorkBudgetError(
            f"a graph on {shown(n)} vertices is over the budget of {_MAX_VERTICES} vertices"
        )


def _read_int(token: str) -> int:
    """int(token), its length checked first; ValueError echoes only the start of a bad token."""
    if len(token) <= _MAX_INT_CHARS:
        try:
            return int(token)
        except ValueError:
            pass
    raise ValueError(f"not an integer of at most {_MAX_INT_CHARS} characters: {excerpt(token)}")


@dataclass(frozen=True, repr=False)
class Graph:
    """Finite simple graph (no loops, no parallel edges) on n labeled vertices."""

    n: int
    edges: frozenset[Edge] = frozenset()
    directed: bool = False
    # ascending in-neighbours of each vertex (neighbours when undirected), built once from edges
    in_adjacency: Adjacency = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, directed = self.n, self.directed  # locals: both loops run once per edge
        if n < 1:
            raise ValueError("vertex count must be at least 1")
        _check_vertex_budget(n)
        normalized = set()
        for edge in self.edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop at vertex {shown(u)}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({shown(u)}, {shown(v)}) out of range for n={n}")
            if not directed and u > v:
                u, v = v, u
            normalized.add((u, v))
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in normalized:
            nbrs[v].append(u)
            if not directed:
                nbrs[u].append(v)
        object.__setattr__(self, "edges", frozenset(normalized))
        object.__setattr__(self, "in_adjacency", tuple(tuple(sorted(s)) for s in nbrs))

    @classmethod
    def _from_rows(cls, rows: Adjacency) -> Graph:
        """The undirected graph whose ascending neighbour rows are `rows`, built with no per-edge check.

        Only for rows valid by construction: each ascending, within
        0..len(rows)-1, without its own vertex, and symmetric (v in rows[u]
        exactly when u in rows[v]).  The edges (u, v), u < v, are read off
        the tails of the rows; nothing is re-checked or re-sorted.
        """
        g = object.__new__(cls)
        edges = frozenset(chain.from_iterable(zip(repeat(u), s[bisect(s, u):]) for u, s in enumerate(rows)))
        for name, value in (("n", len(rows)), ("edges", edges), ("directed", False), ("in_adjacency", rows)):
            object.__setattr__(g, name, value)
        return g

    def __repr__(self) -> str:
        kind = "directed " if self.directed else ""
        return f"Graph({kind}n={self.n}, m={self.size})"

    @property
    def size(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if self.directed:
            return (u, v) in self.edges
        return (min(u, v), max(u, v)) in self.edges

    def adjacency(self) -> Adjacency:
        """Ascending neighbours of each vertex; the gate every undirected-only operation passes first."""
        if self.directed:
            raise DirectedUnsupportedError("neighbor sets are defined for undirected graphs")
        return self.in_adjacency

    def neighbor_sets(self) -> list[set[int]]:
        """A fresh neighbour set per vertex, undirected graphs only."""
        return [set(s) for s in self.adjacency()]

    def in_neighbor_sets(self) -> list[set[int]]:
        """A fresh set per vertex of the vertices with an arc into it; neighbour sets when undirected."""
        return [set(s) for s in self.in_adjacency]

    def degree_sequence(self) -> list[int]:
        return [len(s) for s in self.adjacency()]


def parse_edge_list(text: str, directed: bool = False) -> Graph:
    """Parse the plain edge-list format.

    First non-comment line holds the vertex count; every further line holds
    one "u v" pair.  '#' starts a comment, blank lines are skipped, and
    duplicate pairs (in either orientation, when undirected) collapse.
    Errors report the offending 1-based line number and echo at most the
    start of a token; a token over _MAX_INT_CHARS characters is refused
    before int() reads it.  A vertex count over _MAX_VERTICES is refused at
    its line, before any edge is read.
    """
    n: int | None = None
    edges: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if n is None:
            if len(tokens) != 1:
                raise EdgeListParseError("expected a single vertex count", lineno)
            try:
                n = _read_int(tokens[0])
            except ValueError as exc:
                raise EdgeListParseError(f"vertex count is {exc}", lineno) from None
            if n < 1:
                raise EdgeListParseError(f"vertex count must be at least 1, got {shown(n)}", lineno)
            _check_vertex_budget(n)
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(f"expected 'u v', got {excerpt(stripped)}", lineno)
        try:
            u, v = _read_int(tokens[0]), _read_int(tokens[1])
        except ValueError as exc:
            raise EdgeListParseError(f"endpoint is {exc}", lineno) from None
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {shown(u)}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"edge ({shown(u)}, {shown(v)}) out of range for n={n}", lineno)
        edges.add((u, v))
    if n is None:
        raise EdgeListParseError("missing vertex count line")
    return Graph(n, frozenset(edges), directed)


def to_edge_list_text(g: Graph) -> str:
    """Serialize to the edge-list format; output is sorted and round-trips through parse_edge_list."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_graph6(text: str) -> Graph:
    """Parse a short-form graph6 string (undirected, n <= 62)."""
    s = text.strip()
    if not s:
        raise EdgeListParseError("empty graph6 string")
    values = []
    for ch in s:
        code = ord(ch) - 63
        if not 0 <= code <= 63:
            raise EdgeListParseError(f"invalid graph6 character {ch!r}")
        values.append(code)
    if values[0] == 63:
        raise EdgeListParseError("only short-form graph6 is supported (n <= 62)")
    n = values[0]
    if n < 1:
        raise EdgeListParseError("graph6 vertex count must be at least 1")
    pair_count = n * (n - 1) // 2
    need = (pair_count + 5) // 6
    if len(values) - 1 != need:
        raise EdgeListParseError(
            f"graph6 body length {len(values) - 1} does not match n={n} (expected {need})"
        )
    bits = []
    for code in values[1:]:
        for shift in range(5, -1, -1):
            bits.append((code >> shift) & 1)
    edges = set()
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.add((u, v))
            idx += 1
    return Graph(n, frozenset(edges))


def _check_complement_price(n: int, pairs: int) -> None:
    """Refuse a complement on n vertices with `pairs` edges past _MAX_COMPLEMENT_PAIRS: WorkBudgetError."""
    if pairs > _MAX_COMPLEMENT_PAIRS:
        raise WorkBudgetError(
            f"the complement of a graph on {shown(n)} vertices has {shown(pairs)} edges; "
            f"the budget is {_MAX_COMPLEMENT_PAIRS}"
        )


def _complement_rows(nbrs: Adjacency) -> Adjacency:
    """Ascending non-neighbours of each vertex: one C-level set difference per vertex, then a sort."""
    everyone = set(range(len(nbrs)))
    return tuple(tuple(sorted(everyone.difference(s, (v,)))) for v, s in enumerate(nbrs))


def complement(g: Graph) -> Graph:
    """Complement on the same vertex set; an involution.

    Its n(n-1)/2 - |E| edges are priced before any row is built
    (_check_complement_price).  The rows (_complement_rows) are valid by
    construction, so the graph is built from them without the per-edge
    checks of Graph(n, edges).
    """
    _check_complement_price(g.n, g.n * (g.n - 1) // 2 - g.size)
    return Graph._from_rows(_complement_rows(g.adjacency()))


def regular_degree(g: Graph) -> int | None:
    """Common degree when the graph is regular, else None."""
    degrees = g.degree_sequence()
    first = degrees[0]
    if all(d == first for d in degrees):
        return first
    return None


def require_regular(g: Graph) -> int:
    """Common degree of a regular graph; RegularityRequiredError, naming the degree range, otherwise."""
    d = regular_degree(g)
    if d is None:
        degrees = g.degree_sequence()
        raise RegularityRequiredError(
            f"a regular graph is required; degrees range from {min(degrees)} to {max(degrees)}"
        )
    return d


def _depths(g: Graph) -> list[int]:
    """Breadth-first depth of each vertex from the least vertex of its component; undirected g only."""
    nbrs = g.adjacency()
    depth = [-1] * g.n
    for root in range(g.n):
        if depth[root] < 0:
            depth[root] = 0
            if not nbrs[root]:
                continue  # isolated: skipping its queue makes an edgeless search about 3x faster
            queue = [root]
            for u in queue:  # grows while it is read: breadth-first order
                below = depth[u] + 1
                for w in nbrs[u]:
                    if depth[w] < 0:
                        depth[w] = below
                        queue.append(w)
    return depth


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """The even-depth and odd-depth vertices of _depths, or None if an odd cycle exists.

    Depths across an edge differ by at most one, so an edge between equal
    depths closes an odd cycle; otherwise every edge joins the two sides.
    """
    depth = _depths(g)
    if any(depth[u] == depth[v] for u, v in g.edges):
        return None
    even = frozenset(v for v, d in enumerate(depth) if not d & 1)
    return even, frozenset(v for v, d in enumerate(depth) if d & 1)


def is_connected(g: Graph) -> bool:
    """True when g has one component: exactly one vertex has depth 0 in _depths."""
    return _depths(g).count(0) == 1
