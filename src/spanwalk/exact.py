"""Exact integer engines: spanning-tree counts, closed-walk tables, Laplacian power traces.

Everything here runs in arbitrary-precision integer arithmetic.  No floating
point enters any value returned by this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress, islice
from math import comb
from operator import add, mul
from typing import Iterator

from .errors import DirectedUnsupportedError, ExactInvariantError, RegularityRequiredError
from .graph import Graph, regular_degree

Matrix = list[list[int]]


def _bareiss_determinant(matrix: Matrix) -> int:
    """Fraction-free determinant of a square integer matrix.

    One-step Bareiss elimination: intermediate entries stay integers and every
    division is exact.  Row swaps handle zero pivots; a fully zero pivot
    column means the determinant is zero.
    """
    m = [row[:] for row in matrix]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return sign * m[size - 1][size - 1]


def _minimum_degree_order(nbrs: list[set[int]]) -> list[int]:
    """Greedy minimum-degree elimination order of the graph with these neighbour sets.

    Each step takes the vertex of least degree in the elimination graph, the
    smallest label on ties, joins its remaining neighbours pairwise (the fill
    edges) and removes it.  Low fill keeps the entries that elimination turns
    into big integers few.
    """
    adj = [set(s) for s in nbrs]
    remaining = set(range(len(adj)))
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u]), u))
        remaining.remove(v)
        order.append(v)
        for u in adj[v]:
            adj[u] |= adj[v]
            adj[u] -= {u, v}
    return order


def _symmetric_matrix(nbrs: list[set[int]], order: list[int], diagonal: list[int], off: int) -> Matrix:
    """Rows and columns indexed by `order`: diagonal[v] on the diagonal, `off` at each edge, else 0."""
    return [[diagonal[u] if u == v else off if v in nbrs[u] else 0 for v in order] for u in order]


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees, from the determinant of the sparser of two matrices.

    When 4|E| <= n(n-1), the matrix is a principal minor of the Laplacian L(g):
    by the matrix-tree theorem any one vertex may be deleted, and the last one
    in the elimination order is.  Otherwise it is nI - L(complement(g)), which
    equals L(g) + J and has determinant n^2 t(g) (Temperley 1964; Kelmans
    1965); it has as many off-diagonal nonzeros as the complement has edges.
    Either way rows and columns follow one minimum-degree order of the sparse
    graph, which does not change the determinant.  Disconnected graphs give 0
    and the single-vertex graph gives 1.
    """
    if g.directed:
        raise DirectedUnsupportedError("the Laplacian is defined here for undirected graphs")
    n = g.n
    nbrs = g.neighbor_sets()
    if 4 * g.size <= n * (n - 1):
        order = _minimum_degree_order(nbrs)[:-1]
        det = _bareiss_determinant(_symmetric_matrix(nbrs, order, [len(s) for s in nbrs], -1))
        if det < 0:
            raise ExactInvariantError("a Laplacian minor of an undirected graph came out negative")
        return det
    everyone = set(range(n))
    sparse = [everyone - s - {v} for v, s in enumerate(nbrs)]
    order = _minimum_degree_order(sparse)
    det = _bareiss_determinant(_symmetric_matrix(sparse, order, [n - len(s) for s in sparse], 1))
    count, remainder = divmod(det, n * n)
    if remainder or count < 0:
        raise ExactInvariantError(f"det(L + J) is not a nonnegative multiple of n^2 = {n * n}")
    return count


def _frobenius_walks(nbrs: list[list[int]]) -> Iterator[int]:
    """Yield w_1, w_2, ... from adjacency powers, two counts per product.

    A is symmetric, so w_(2j+1) = <A^j, A^(j+1)>_F and w_(2j+2) = <A^(j+1), A^(j+1)>_F.
    Row i of A^(j+1) = A A^j is the sum of the rows of A^j at the neighbours of i.
    """
    n = len(nbrs)
    zero = [0] * n
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        nxt = []
        for nb in nbrs:
            rows = iter(nb)
            acc = power[next(rows)] if nb else zero
            for u in rows:
                acc = list(map(add, acc, power[u]))
            nxt.append(acc)
        yield sum(sum(map(mul, a, b)) for a, b in zip(power, nxt))
        yield sum(sum(map(mul, b, b)) for b in nxt)
        power = nxt


def elementary_symmetric(power_sums: list[int]) -> list[int]:
    """e_0..e_n of a spectrum from its power sums p_1..p_n (here w_1..w_n).

    Newton's identities k e_k = sum_(i<=k) (-1)^(i-1) e_(k-i) p_i, with
    e_0 = 1.  Every division is exact for the power sums of an integer
    matrix; a remainder raises ExactInvariantError.
    """
    e = [1]
    for k in range(1, len(power_sums) + 1):
        total = sum((-1) ** (i - 1) * e[k - i] * power_sums[i - 1] for i in range(1, k + 1))
        quotient, remainder = divmod(total, k)
        if remainder:
            raise ExactInvariantError(
                f"Newton's identity at order {k} leaves a remainder: inconsistent walk counts"
            )
        e.append(quotient)
    return e


def iter_closed_walk_counts(g: Graph) -> Iterator[int]:
    """Yield w_1, w_2, ... where w_k is the trace of the k-th adjacency power.

    Orders k <= n come from Frobenius inner products of adjacency powers.  Past
    order n the characteristic polynomial, found from w_1..w_n by Newton's
    identities, gives each w_k by the Cayley-Hamilton recurrence
    w_k = sum_i c_i w_(k-i), c_i = (-1)^(i-1) e_i, over the last n counts.
    All arithmetic is on exact integers.
    """
    if g.directed:
        raise DirectedUnsupportedError("closed-walk counts are computed for undirected graphs")
    n = g.n
    head = []
    # the phase-one generator, and with it every matrix, is released when islice stops
    for w in islice(_frobenius_walks([sorted(s) for s in g.neighbor_sets()]), n):
        head.append(w)
        yield w
    e = elementary_symmetric(head)
    # c_n..c_1, aligned oldest-first with the window
    coeffs = [(-1) ** (i - 1) * e[i] for i in range(n, 0, -1)]
    nonzero = [c != 0 for c in coeffs]
    coeffs = [c for c in coeffs if c]
    window = deque(head, maxlen=n)
    while True:
        w = sum(map(mul, coeffs, compress(window, nonzero)))
        window.append(w)
        yield w


@dataclass(frozen=True)
class WalkTable:
    """Closed-walk counts w_1..w_max_k for one graph."""

    counts: tuple[int, ...]

    @property
    def max_k(self) -> int:
        return len(self.counts)

    def w(self, k: int) -> int:
        if not 1 <= k <= self.max_k:
            raise ValueError(f"walk order {k} outside table range 1..{self.max_k}")
        return self.counts[k - 1]


def closed_walk_counts(g: Graph, max_k: int) -> WalkTable:
    """Closed-walk counts up to order max_k."""
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    return WalkTable(tuple(islice(iter_closed_walk_counts(g), max_k)))


def triangle_count(g: Graph) -> int:
    """Number of triangles, from the third closed-walk count (each triangle is walked 6 ways)."""
    return closed_walk_counts(g, 3).w(3) // 6


@dataclass(frozen=True)
class LaplacianTraceTable:
    """Traces of Laplacian powers L^1..L^max_r for one regular graph."""

    degree: int
    traces: tuple[int, ...]

    @property
    def max_r(self) -> int:
        return len(self.traces)

    def trace(self, r: int) -> int:
        if not 1 <= r <= self.max_r:
            raise ValueError(f"power {r} outside table range 1..{self.max_r}")
        return self.traces[r - 1]


def laplacian_traces(g: Graph, max_r: int) -> LaplacianTraceTable:
    """Traces tr(L^r) for r = 1..max_r of a regular graph.

    Computed from closed-walk counts through the binomial expansion of (dI - A)^r.
    """
    if max_r < 1:
        raise ValueError("max_r must be at least 1")
    d = regular_degree(g)
    if d is None:
        raise RegularityRequiredError("Laplacian trace tables are built for regular graphs")
    walks = closed_walk_counts(g, max_r)
    traces = []
    for r in range(1, max_r + 1):
        total = comb(r, 0) * d**r * g.n  # i = 0 term uses tr(A^0) = n
        for i in range(1, r + 1):
            total += (-1) ** i * comb(r, i) * d ** (r - i) * walks.w(i)
        traces.append(total)
    return LaplacianTraceTable(degree=d, traces=tuple(traces))
