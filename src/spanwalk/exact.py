"""Exact integer engines: spanning-tree counts, closed-walk tables, Laplacian power traces.

Everything here runs in arbitrary-precision integer arithmetic.  No floating
point enters any value returned by this module.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress, islice
from math import comb
from operator import add, mul
from typing import Iterator

from .errors import ExactInvariantError, WorkBudgetError
from .graph import Adjacency, Graph, complement, require_regular

_MAX_WALK_WORK = 2**26  # integer operations one table of power sums may cost
_MAX_ELIMINATION_WORK = 2**27  # bit operations the fill of one elimination order may cost
_WALK_CACHE_GRAPHS = 8  # graphs whose walk prefix closed_walk_counts keeps

# Graph -> its longest counted prefix (w_1, w_2, ...), least recently used first
_walk_cache: OrderedDict[Graph, tuple[int, ...]] = OrderedDict()


def _minimum_degree_order(nbrs: Adjacency, bits: int) -> list[int]:
    """Greedy minimum-degree elimination order of the graph with these neighbours, priced as it goes.

    Each step takes the vertex of least degree in the elimination graph, the
    smallest label on ties, joins its remaining neighbours pairwise (the fill
    edges) and removes it.  Low fill keeps the entries that elimination turns
    into big integers few.

    The f remaining neighbours of the vertex taken at step k (from 0) are its
    front: elimination updates f(f+1)/2 entries of one triangle there, each a
    minor of order k+1 of a positive semidefinite matrix, so by Hadamard's
    inequality of at most (k+1)*bits bits when `bits` is the bit length of the
    largest diagonal entry.  The price sums f(f+1)/2 * (k+1) * bits over the
    steps, from integers alone; as soon as it passes _MAX_ELIMINATION_WORK,
    WorkBudgetError is raised, before the rest of the order or any big-integer
    work.
    """
    adj = [set(s) for s in nbrs]
    # (degree, vertex) entries; an entry whose degree is out of date is skipped
    heap = [(len(s), v) for v, s in enumerate(adj)]
    heapify(heap)
    taken = [False] * len(adj)
    order: list[int] = []
    price = 0
    while heap:
        degree, v = heappop(heap)
        if taken[v] or degree != len(adj[v]):
            continue
        taken[v] = True
        front = adj[v]
        f = len(front)
        price += f * (f + 1) // 2 * (len(order) + 1) * bits
        if price > _MAX_ELIMINATION_WORK:
            raise WorkBudgetError(
                f"eliminating a matrix of order {len(adj)} costs over {price} bit operations "
                f"by step {len(order)}; the budget is {_MAX_ELIMINATION_WORK}"
            )
        order.append(v)
        for u in front:
            adj[u] |= front
            adj[u] -= {u, v}
            heappush(heap, (len(adj[u]), u))
    return order


def _sparse_determinant(nbrs: Adjacency, order: list[int], diagonal: list[int], off: int) -> int:
    """Determinant of a positive semidefinite integer matrix, by fraction-free elimination of its fill.

    The matrix has rows and columns indexed by `order` (a subset of the
    vertices), diagonal[v] on the diagonal, `off` at each edge and 0
    elsewhere.  One-step Bareiss elimination (Bareiss 1968) leaves at step s
    the minors a_ij^(s) over the leading s rows and columns bordered by row i
    and column j; they are integers, symmetric in i and j, and the pivot p_s
    is the leading principal minor of order s.  So each row keeps only its
    upper triangle, as column -> (value, step) pairs, and step s updates only
    the pairs i <= j in the pattern of the pivot row k = s-1 (Lourenco,
    Chen, Moreno-Centeno and Davis 2019):

        a_ij^(s) = (p_s a_ij^(s-1) - a_ki^(s-1) a_kj^(s-1)) / p_(s-1).

    An entry that no step touched since step t is stale: it is brought to
    step s-1 as v * p_(s-1) // p_t only when it is read, an exact division by
    Sylvester's identity.  A zero pivot returns 0 with no row swap: a singular
    leading principal block of a positive semidefinite matrix makes the whole
    matrix singular.  The determinant is the last pivot.
    """
    pos = {v: k for k, v in enumerate(order)}
    rows = []
    for k, v in enumerate(order):
        row = {k: (diagonal[v], 0)}
        for u in nbrs[v]:
            if pos.get(u, -1) > k:
                row[pos[u]] = (off, 0)
        rows.append(row)
    pivots = [1]  # p_0 = 1, then p_1, p_2, ...
    for s, row in enumerate(rows, 1):
        prev = pivots[-1]
        fresh = {j: v if t == s - 1 else v * prev // pivots[t] for j, (v, t) in row.items()}
        pivot = fresh.pop(s - 1)
        if pivot == 0:
            return 0
        pivots.append(pivot)
        cols = sorted(fresh)
        fill = (0, s - 1)  # an entry not yet in the pattern
        vals = [fresh[j] for j in cols]
        for a, i in enumerate(cols):
            target = rows[i]
            ai = vals[a]
            for j, aj in zip(cols[a:], vals[a:]):
                v, t = target.get(j, fill)
                if t != s - 1:
                    v = v * prev // pivots[t]
                target[j] = ((pivot * v - ai * aj) // prev, s)
    return pivots[-1]


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees, from the determinant of the sparser of two matrices.

    When 4|E| <= n(n-1), the matrix is a principal minor of the Laplacian L(g):
    by the matrix-tree theorem any one vertex may be deleted, and the last one
    in the elimination order is.  Otherwise it is nI - L(complement(g)), which
    equals L(g) + J and has determinant n^2 t(g) (Temperley 1964; Kelmans
    1965); it has as many off-diagonal nonzeros as the complement has edges.
    Either way rows and columns follow one minimum-degree order of the sparse
    graph, which does not change the determinant, and the elimination
    touches only the fill of that order.  Both matrices are positive
    semidefinite, so a zero pivot ends it with determinant 0: disconnected
    graphs give 0 and the single-vertex graph gives 1.  In the sparse
    branch a graph on n > 1 vertices with an isolated vertex gives 0 before
    any order is built.  The order's price (_minimum_degree_order) refuses
    with WorkBudgetError before any big-integer work.
    """
    n = g.n
    if 4 * g.size <= n * (n - 1):
        nbrs = g.adjacency()
        degrees = [len(s) for s in nbrs]
        if n > 1 and 0 in degrees:
            return 0  # an isolated vertex: no tree spans it, and no order need be built
        order = _minimum_degree_order(nbrs, max(degrees).bit_length())[:-1]
        det = _sparse_determinant(nbrs, order, degrees, -1)
        if det < 0:
            raise ExactInvariantError("a Laplacian minor of an undirected graph came out negative")
        return det
    sparse = complement(g).adjacency()
    diagonal = [n - len(s) for s in sparse]
    order = _minimum_degree_order(sparse, max(diagonal).bit_length())
    det = _sparse_determinant(sparse, order, diagonal, 1)
    count, remainder = divmod(det, n * n)
    if remainder or count < 0:
        raise ExactInvariantError(f"det(L + J) is not a nonnegative multiple of n^2 = {n * n}")
    return count


def _frobenius_walks(nbrs: Adjacency) -> Iterator[int]:
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


def _power_sums_past(head: list[int]) -> Iterator[int]:
    """Yield p_(n+1), p_(n+2), ... of n values from their power sums p_1..p_n.

    Newton's identities give the elementary symmetric polynomials e_i of the
    values, and the Cayley-Hamilton recurrence p_k = sum_i c_i p_(k-i),
    c_i = (-1)^(i-1) e_i, continues over the last n sums.  Nothing is
    computed until the first value is asked for.
    """
    n = len(head)
    e = elementary_symmetric(head)
    # c_n..c_1, aligned oldest-first with the window
    coeffs = [(-1) ** (i - 1) * e[i] for i in range(n, 0, -1)]
    nonzero = [c != 0 for c in coeffs]
    coeffs = [c for c in coeffs if c]
    window = deque(head, maxlen=n)
    while True:
        p = sum(map(mul, coeffs, compress(window, nonzero)))
        window.append(p)
        yield p


def check_table_price(g: Graph, count: int) -> int:
    """The price of `count` power sums of g's adjacency or Laplacian spectrum.

    The price is counted in integer operations from integers alone.  Orders
    up to n take ceil(min(count, n)/2) matrix products of n(2|E| + 2n)
    operations, n^2 (d+2) for a d-regular graph.  Past order n each order adds
    the size of its integers: walk counts, Laplacian traces and the series
    denominators k(n-d)^k at order k all stay below (2n)^k up to a factor n,
    about k bit_length(2n) bits.  Raises WorkBudgetError, before any work,
    when the price exceeds _MAX_WALK_WORK.
    """
    n = g.n
    price = -(-min(count, n) // 2) * n * (2 * g.size + 2 * n)
    if count > n:
        price += (2 * n).bit_length() * (count * (count + 1) - n * (n + 1)) // 2
    if price > _MAX_WALK_WORK:
        raise WorkBudgetError(
            f"{count} power sums of a graph on {n} vertices cost about {price} "
            f"integer operations; the budget is {_MAX_WALK_WORK}"
        )
    return price


def iter_closed_walk_counts(g: Graph) -> Iterator[int]:
    """Yield w_1, w_2, ... where w_k is the trace of the k-th adjacency power.

    Orders k <= n come from Frobenius inner products of adjacency powers, and
    later orders from the characteristic polynomial of A by the Cayley-Hamilton
    recurrence (_power_sums_past).  All arithmetic is on exact integers.
    Callers that stop at a known order price the table first (check_table_price).
    """
    head = []
    # the phase-one generator, and with it every matrix, is released when islice stops
    for w in islice(_frobenius_walks(g.adjacency()), g.n):
        head.append(w)
        yield w
    yield from _power_sums_past(head)


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
    """Closed-walk counts up to order max_k.

    The last _WALK_CACHE_GRAPHS graphs keep their longest counted prefix, so
    repeated tables of one graph are counted once.  The key is the labelled
    graph: a relabelled copy is a miss.  A refusal comes before any lookup;
    a prefix too short is counted afresh to max_k and replaces the old one.
    """
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    g.adjacency()  # refuses a directed graph before the cache
    check_table_price(g, max_k)
    counts = _walk_cache.get(g)
    if counts is None or len(counts) < max_k:
        counts = _walk_cache[g] = tuple(islice(iter_closed_walk_counts(g), max_k))
    _walk_cache.move_to_end(g)
    if len(_walk_cache) > _WALK_CACHE_GRAPHS:
        _walk_cache.popitem(last=False)
    return WalkTable(counts[:max_k])


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

    Powers up to n come from closed-walk counts through the binomial expansion
    of (dI - A)^r; later powers continue from those n traces by the
    Cayley-Hamilton recurrence of L.
    """
    if max_r < 1:
        raise ValueError("max_r must be at least 1")
    d = require_regular(g)
    check_table_price(g, max_r)
    n = g.n
    walks = (n,) + closed_walk_counts(g, min(max_r, n)).counts  # tr(A^0) = n
    traces = [
        sum((-1) ** i * comb(r, i) * d ** (r - i) * walks[i] for i in range(r + 1))
        for r in range(1, len(walks))
    ]
    if max_r > n:
        traces += islice(_power_sums_past(traces[:]), max_r - n)
    return LaplacianTraceTable(degree=d, traces=tuple(traces))
