"""Immutable labeled graphs plus edge-list and graph6 ingestion.

Vertices are always 0..n-1.  Undirected edges are stored once as (u, v) with
u < v; directed graphs (accepted only by the spreading dynamics) store arcs
as (tail, head) pairs.  Each Graph keeps one adjacency: ascending tuples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .errors import DirectedUnsupportedError, EdgeListParseError, RegularityRequiredError, WorkBudgetError, excerpt

Edge = tuple[int, int]
Adjacency = tuple[tuple[int, ...], ...]

_MAX_VERTICES = 2**20  # most vertices one Graph may hold: one adjacency list each
_MAX_COMPLEMENT_PAIRS = 2**20  # most vertex pairs one complement may hold as edges
_MAX_INT_CHARS = 4300  # longest integer token read from input: int() takes time quadratic in its length


def _check_vertex_budget(n: int) -> None:
    if n > _MAX_VERTICES:
        raise WorkBudgetError(f"a graph on {n} vertices is over the budget of {_MAX_VERTICES} vertices")


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
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
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
                raise EdgeListParseError(f"vertex count must be at least 1, got {n}", lineno)
            _check_vertex_budget(n)
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(f"expected 'u v', got {excerpt(stripped)}", lineno)
        try:
            u, v = _read_int(tokens[0]), _read_int(tokens[1])
        except ValueError as exc:
            raise EdgeListParseError(f"endpoint is {exc}", lineno) from None
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(f"edge ({u}, {v}) out of range for n={n}", lineno)
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


def complement(g: Graph) -> Graph:
    """Complement on the same vertex set; an involution.

    Its n(n-1)/2 - |E| edges are priced before any is built: past
    _MAX_COMPLEMENT_PAIRS, WorkBudgetError is raised.
    """
    pairs = g.n * (g.n - 1) // 2 - g.size
    if pairs > _MAX_COMPLEMENT_PAIRS:
        raise WorkBudgetError(
            f"the complement of a graph on {g.n} vertices has {pairs} edges; "
            f"the budget is {_MAX_COMPLEMENT_PAIRS}"
        )
    edges = {(u, v) for u, s in enumerate(g.adjacency()) for v in set(range(u + 1, g.n)).difference(s)}
    return Graph(g.n, frozenset(edges))


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


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """A two-coloring (smaller-rooted side first per component) or None if an odd cycle exists."""
    nbrs = g.adjacency()
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    left = frozenset(v for v in range(g.n) if color[v] == 0)
    right = frozenset(v for v in range(g.n) if color[v] == 1)
    return left, right


def is_connected(g: Graph) -> bool:
    nbrs = g.adjacency()
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in nbrs[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n
