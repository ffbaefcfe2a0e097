"""Immutable labeled graphs plus edge-list and graph6 ingestion.

Vertices are always 0..n-1.  A Graph is its rows: the ascending neighbours of
each vertex, or in-neighbours when directed (accepted only by the spreading
dynamics).  Its edges, (u, v) with u < v or (tail, head), are read off them.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from typing import Iterable, Iterator

from .errors import (
    DirectedUnsupportedError,
    EdgeListParseError,
    RegularityRequiredError,
    WorkBudgetError,
    excerpt,
    require_type,
    shown,
)

Edge = tuple[int, int]
Adjacency = tuple[tuple[int, ...], ...]

_MAX_VERTICES = 2**20  # most vertices one Graph may hold: one adjacency list each
_MAX_COMPLEMENT_PAIRS = 2**20  # most vertex pairs one complement may hold as edges
_MAX_INT_CHARS = 4300  # longest integer token read from input: int() takes time quadratic in its length


def _check_vertex_count(n: int) -> None:
    """ValueError unless n is an int (not a bool) of at least 1; WorkBudgetError past _MAX_VERTICES."""
    require_type("vertex count", n)
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    _check_vertex_budget(n)


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


def _checked(n: int, edges: Iterable[Edge]) -> Iterator[Edge]:
    """The one check of edges from outside: ValueError unless each is a pair of distinct ints in 0..n-1."""
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):  # not iterable, or not two items
            raise ValueError(f"an edge must be a pair of vertices, got {excerpt(edge)}") from None
        if type(u) is not int or type(v) is not int:  # a bool, or a float equal to an int, is refused
            raise ValueError(f"edge endpoints must be ints, got {excerpt((u, v))}")
        if u == v:
            raise ValueError(f"self-loop at vertex {shown(u)}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({shown(u)}, {shown(v)}) out of range for n={n}")
        yield u, v


def _rows(n: int, arcs: Iterable[Edge], directed: bool) -> Adjacency:
    """Ascending in-rows (neighbour rows when undirected) of checked arcs; a repeated arc collapses."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        rows[v].append(u)
        if not directed:
            rows[u].append(v)
    return tuple(tuple(sorted(set(r))) if r else () for r in rows)


@dataclass(frozen=True, init=False)
class Graph:
    """Finite simple graph (no loops, no parallel edges) on n labeled vertices; == and hash compare rows."""

    n: int
    directed: bool
    # ascending in-neighbours of each vertex (neighbours when undirected): the one store
    in_adjacency: Adjacency

    def __new__(cls, n: int, edges: Iterable[Edge] = frozenset(), directed: bool = False) -> Graph:
        _check_vertex_count(n)
        require_type("directed", directed, bool)
        return cls._from_rows(_rows(n, _checked(n, edges), directed), directed)

    @classmethod
    def _from_rows(cls, rows: Adjacency, directed: bool = False) -> Graph:
        """Every Graph is made here, unchecked: rows ascending, in range, loop-free, symmetric if undirected."""
        g = object.__new__(cls)
        vars(g).update(n=len(rows), directed=directed, in_adjacency=rows)
        return g

    def __reduce__(self):  # __new__ takes edges, so copy and pickle rebuild from the rows
        return Graph._from_rows, (self.in_adjacency, self.directed)

    def __repr__(self) -> str:
        kind = "directed " if self.directed else ""
        return f"Graph({kind}n={self.n}, m={self.size})"

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """Each edge (u, v), u < v, or each arc (tail, head) when directed: read off the rows once."""
        rows = self.in_adjacency
        if self.directed:
            return frozenset(chain.from_iterable(zip(s, repeat(v)) for v, s in enumerate(rows)))
        return frozenset(chain.from_iterable(zip(repeat(u), s[bisect(s, u):]) for u, s in enumerate(rows)))

    @property
    def size(self) -> int:
        return sum(map(len, self.in_adjacency)) // (1 if self.directed else 2)  # an edge sits in two rows

    def has_edge(self, u: int, v: int) -> bool:
        """True when u-v is an edge (an arc u -> v when directed); False for an int outside 0..n-1."""
        require_type("vertex", u)
        require_type("vertex", v)
        s = self.in_adjacency[v] if 0 <= v < self.n else ()  # a u outside 0..n-1 is in no row
        i = bisect(s, u)
        return i > 0 and s[i - 1] == u

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
    its line, before any edge is read.  directed must be a bool.
    """
    require_type("directed", directed, bool)
    n: int | None = None
    arcs: list[Edge] = []
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
        arcs.append((u, v))
    if n is None:
        raise EdgeListParseError("missing vertex count line")
    return Graph._from_rows(_rows(n, arcs, directed), directed)


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
    bits = ((code >> shift) & 1 for code in values[1:] for shift in range(5, -1, -1))
    pairs = ((u, v) for v in range(1, n) for u in range(v))  # the body's bit order
    return Graph._from_rows(_rows(n, compress(pairs, bits), False))


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

    Its n(n-1)/2 - |E| edges are priced before any row is built; its rows
    are valid by construction, so they are the graph, with no per-edge check.
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


def _depths(nbrs: Adjacency) -> list[int]:
    """Breadth-first depth of each vertex from the least vertex of its component, over undirected rows."""
    depth = [-1] * len(nbrs)
    for root in range(len(nbrs)):
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


def _two_colouring(nbrs: Adjacency) -> list[int] | None:
    """The parity of each vertex's depth in _depths, or None if an odd cycle exists.

    Depths across an edge differ by at most one, so an edge between equal
    depths closes an odd cycle; otherwise every edge joins the two colours.
    """
    depth = _depths(nbrs)
    if any(depth[u] == d for d, s in zip(depth, nbrs) for u in s):
        return None
    return [d & 1 for d in depth]


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """The even-depth and odd-depth vertices of _depths, or None if an odd cycle exists (_two_colouring)."""
    colour = _two_colouring(g.adjacency())
    if colour is None:
        return None
    even = frozenset(v for v, c in enumerate(colour) if not c)
    return even, frozenset(v for v, c in enumerate(colour) if c)


def is_connected(g: Graph) -> bool:
    """True when g has one component: exactly one vertex has depth 0 in _depths."""
    return _depths(g.adjacency()).count(0) == 1
