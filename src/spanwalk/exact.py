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
from operator import mul
from typing import Iterator

from .errors import ExactInvariantError, WorkBudgetError, require_type, shown
from .graph import Adjacency, Graph, _complement_rows, is_connected

_MAX_WALK_WORK = 2**26  # integer operations one table of power sums may cost
_MAX_ELIMINATION_WORK = 2**27  # bit operations the fill of one elimination order may cost
_WALK_CACHE_GRAPHS = 8  # matrices whose power-sum prefix the walk cache keeps

_Loops = tuple[tuple[int, int], ...]  # (v, c) pairs, c > 0: c on the diagonal at v

# (rows, loops) counted -> their longest counted prefix (p_1, p_2, ...), least recently used first
_walk_cache: OrderedDict[tuple[Adjacency, _Loops], tuple[int, ...]] = OrderedDict()


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
    1965); it has as many off-diagonal nonzeros as the complement has edges,
    and its pattern is read from the complement's rows (_complement_rows)
    with no complement Graph or edge set built.  Either way rows and columns
    follow one minimum-degree order of the sparse graph, which does not
    change the determinant, and the elimination touches only the fill of
    that order.  Both matrices are positive semidefinite, so a zero pivot
    ends it with determinant 0: disconnected graphs give 0 and the
    single-vertex graph gives 1.  A disconnected graph gives 0 from one
    breadth-first search (is_connected), before the complement's rows or
    any order are built.  The dense branch searches only when the minimum
    degree is below (n-1)/2: from there on every graph is connected, since
    two non-adjacent vertices have n-2 other vertices to hold their at
    least n-1 edges and so share a neighbour.  The order's price
    (_minimum_degree_order) refuses with WorkBudgetError before any
    big-integer work.
    """
    n = g.n
    if 4 * g.size <= n * (n - 1):
        if not is_connected(g):
            return 0  # no tree spans it, and no order need be built
        nbrs = g.adjacency()
        degrees = [len(s) for s in nbrs]
        order = _minimum_degree_order(nbrs, max(degrees).bit_length())[:-1]
        det = _sparse_determinant(nbrs, order, degrees, -1)
        if det < 0:
            raise ExactInvariantError("a Laplacian minor of an undirected graph came out negative")
        return det
    if 2 * min(map(len, g.adjacency())) < n - 1 and not is_connected(g):
        return 0
    sparse = _complement_rows(g.adjacency())
    diagonal = [n - len(s) for s in sparse]
    order = _minimum_degree_order(sparse, max(diagonal).bit_length())
    det = _sparse_determinant(sparse, order, diagonal, 1)
    count, remainder = divmod(det, n * n)
    if remainder or count < 0:
        raise ExactInvariantError(f"det(L + J) is not a nonnegative multiple of n^2 = {n * n}")
    return count


def _widen(row: int, n: int, old: int, new: int) -> int:
    """Row of n slots of `old` bytes, repacked into slots of `new` bytes: one strided copy per byte."""
    src = row.to_bytes(n * old, "little")
    dst = bytearray(n * new)
    for j in range(old):
        dst[j::new] = src[j::old]
    return int.from_bytes(dst, "little")


def _packed_walks(nbrs: Adjacency, loops: _Loops) -> Iterator[int]:
    """Yield p_1..p_n of M = A + diag(c), one per order, from powers of M packed one row per integer.

    A has these rows and c is 0 but at the vertices `loops` names.  Row i of
    M^k is one int whose slot j, `width` bytes wide, holds entry (i, j)
    (Kronecker substitution; Kronecker 1882).  Row i of M^(k+1) is the sum
    of the rows of M^k at the neighbours of i, one big-integer addition each,
    plus c_i times row i of M^k, and p_k is the sum of the diagonal slots.
    Entries of M^k are at most D^k, D the largest row sum of M (degree plus
    loops), so no slot carries into the next.  Before the order whose bound
    D^k would not fit a slot, every row is widened to the bytes that orders
    up to min(2k, n) need: the width follows the orders counted, not n.
    """
    n = len(nbrs)
    diagonal = dict(loops)
    delta = max((len(s) + diagonal.get(v, 0) for v, s in enumerate(nbrs)), default=0)
    width = 1
    rows = [1 << 8 * i for i in range(n)]  # M^0
    bound = 1  # delta^k, the largest entry M^k may hold
    for k in range(1, n + 1):
        bound *= delta
        if bound.bit_length() > 8 * width:
            wider = -(-(delta ** min(2 * k, n)).bit_length() // 8)
            for i, row in enumerate(rows):
                rows[i] = _widen(row, n, width, wider)
            width = wider
        get = rows.__getitem__  # still reads M^k once rows holds M^(k+1)
        rows = [sum(map(get, nb)) for nb in nbrs]
        for v, c in loops:
            rows[v] += c * get(v)
        shift = 8 * width
        mask = (1 << shift) - 1
        yield sum((row >> shift * i) & mask for i, row in enumerate(rows))


def elementary_symmetric(power_sums: list[int]) -> list[int]:
    """e_0..e_n of a spectrum from its power sums p_1..p_n (here w_1..w_n).

    Newton's identities k e_k = sum_(i<=k) e_(k-i) s_i, with e_0 = 1 and the
    power sums signed once, s_i = (-1)^(i-1) p_i.  Every division is exact
    for the power sums of an integer matrix; a remainder raises
    ExactInvariantError.
    """
    signed = [-p if i % 2 else p for i, p in enumerate(power_sums)]  # s_1, s_2, ...
    e = [1]
    for k in range(1, len(power_sums) + 1):
        quotient, remainder = divmod(sum(map(mul, reversed(e), signed)), k)
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


def check_table_price(rows: Adjacency, loops: _Loops, count: int) -> int:
    """The price of `count` power sums of M = A + diag(c) with these rows and loops.

    The matrix is one the walk engine counts (_power_sums), and its entries
    are counted here, the row lengths plus the loop multiplicities: 2|E| for
    g's adjacency, nD for B = DI - L(g) = A + diag(D - deg), D the largest
    degree.  The price is counted in integer operations from integers
    alone.  With `arcs` entries on n rows, orders up to n are priced as
    ceil(min(count, n)/2) matrix products of n(arcs + 2n) operations,
    n^2 (d+2) for a d-regular graph.  Past order n each order adds the size
    of its integers: walk counts, Laplacian traces and the series
    denominators k(n-d)^k at order k all stay below (2n)^k up to a factor
    n, about k bit_length(2n) bits.  Raises WorkBudgetError, before any
    work, when the price exceeds _MAX_WALK_WORK.

    The first term is the cost of the list-of-lists Frobenius loop that
    counted two orders per product; the packed-row engine that replaced it
    (_packed_walks) was faster than that loop on every admitted extreme
    probed, so the old price still bounds the engine's time.
    """
    n = len(rows)
    arcs = sum(map(len, rows)) + sum(c for _, c in loops)
    price = -(-min(count, n) // 2) * n * (arcs + 2 * n)
    if count > n:
        price += (2 * n).bit_length() * (count * (count + 1) - n * (n + 1)) // 2
    if price > _MAX_WALK_WORK:
        raise WorkBudgetError(
            f"{shown(count)} power sums of a graph on {n} vertices are priced at {shown(price)} "
            f"integer operations; the budget is {_MAX_WALK_WORK}"
        )
    return price


def _power_sums(rows: Adjacency, loops: _Loops) -> Iterator[int]:
    """Yield p_1, p_2, ... where p_k is the trace of M^k, M = A + diag(c) with these rows and loops.

    Orders k <= n come from the diagonals of packed-row powers
    (_packed_walks), each order counted only when it is asked for, and later
    orders from the characteristic polynomial by the Cayley-Hamilton
    recurrence (_power_sums_past).  All arithmetic is on exact integers.
    """
    head = []
    # the packed rows are released when the first phase ends
    for p in _packed_walks(rows, loops):
        head.append(p)
        yield p
    yield from _power_sums_past(head)


def iter_closed_walk_counts(g: Graph) -> Iterator[int]:
    """Yield w_1, w_2, ... where w_k is the trace of the k-th adjacency power.

    The power sums of g's adjacency rows with no loops (_power_sums), on
    exact integers, uncached.  Nothing runs until the first value is asked
    for; then the packed phase, n orders of g's rows, is priced
    (check_table_price), and WorkBudgetError is raised before any row is
    built.  The recurrence past order n is not priced here: a caller that
    reads past w_n bounds how far.
    """
    rows = g.adjacency()
    check_table_price(rows, (), len(rows))
    yield from _power_sums(rows, ())


def _power_sum_table(rows: Adjacency, loops: _Loops, count: int) -> tuple[int, ...]:
    """p_1..p_count of M = A + diag(c) with these rows and loops: priced, then cached or counted.

    The price of all `count` orders (check_table_price) refuses before any
    lookup or count.  The last _WALK_CACHE_GRAPHS (rows, loops) keys keep
    their longest counted prefix, so repeated tables of one matrix are
    counted once: a regular graph's adjacency and its B = DI - L have no
    loops and share one entry, and a relabelled copy is a miss.  A prefix
    too short is extended to `count` and replaces the old one: from its
    first n sums by the recurrence (_power_sums_past) when it holds them,
    else counted afresh (_power_sums).
    """
    check_table_price(rows, loops, count)
    key = (rows, loops)
    sums = _walk_cache.get(key)
    if sums is not None and (n := len(rows)) <= len(sums) < count:
        sums = _walk_cache[key] = sums[:n] + tuple(islice(_power_sums_past(list(sums[:n])), count - n))
    elif sums is None or len(sums) < count:
        sums = _walk_cache[key] = tuple(islice(_power_sums(rows, loops), count))
    _walk_cache.move_to_end(key)
    if len(_walk_cache) > _WALK_CACHE_GRAPHS:
        _walk_cache.popitem(last=False)
    return sums[:count]


@dataclass(frozen=True)
class WalkTable:
    """Closed-walk counts w_1..w_max_k for one graph."""

    counts: tuple[int, ...]

    @property
    def max_k(self) -> int:
        return len(self.counts)

    def w(self, k: int) -> int:
        require_type("walk order", k)
        if not 1 <= k <= self.max_k:
            raise ValueError(f"walk order {shown(k)} outside table range 1..{self.max_k}")
        return self.counts[k - 1]


def closed_walk_counts(g: Graph, max_k: int) -> WalkTable:
    """Closed-walk counts up to order max_k: the power sums of g's adjacency (_power_sum_table)."""
    require_type("max_k", max_k)
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    return WalkTable(_power_sum_table(g.adjacency(), (), max_k))


def triangle_count(g: Graph) -> int:
    """Number of triangles, from the third closed-walk count (each triangle is walked 6 ways)."""
    return closed_walk_counts(g, 3).w(3) // 6


@dataclass(frozen=True)
class LaplacianTraceTable:
    """Traces of Laplacian powers L^1..L^max_r for one undirected graph."""

    traces: tuple[int, ...]

    @property
    def max_r(self) -> int:
        return len(self.traces)

    def trace(self, r: int) -> int:
        require_type("power", r)
        if not 1 <= r <= self.max_r:
            raise ValueError(f"power {shown(r)} outside table range 1..{self.max_r}")
        return self.traces[r - 1]


def laplacian_traces(g: Graph, max_r: int) -> LaplacianTraceTable:
    """Traces tr(L^r) for r = 1..max_r of an undirected graph.

    Powers up to n expand L = DI - B binomially over the traces of
    B = DI - L = A + diag(D - deg), D the largest degree: the adjacency of
    the D-regular multigraph made of g and D - deg(v) loops at each v, kept
    as a diagonal beside g's own rows (_power_sum_table).  B is nonnegative
    with every row summing to D, so the walk engine counts it in the slots
    of g's own walks; on a regular graph it has no loops and is A.  All
    max_r orders are priced by B's nD entries, but only the first
    min(max_r, n) traces of B are counted and cached: powers of L past n
    continue from L's first n traces by the Cayley-Hamilton recurrence of L.
    """
    require_type("max_r", max_r)
    if max_r < 1:
        raise ValueError("max_r must be at least 1")
    nbrs = g.adjacency()
    delta = max(map(len, nbrs))
    loops = tuple((v, delta - len(s)) for v, s in enumerate(nbrs) if len(s) < delta)
    check_table_price(nbrs, loops, max_r)
    sums = (g.n,) + _power_sum_table(nbrs, loops, min(max_r, g.n))  # tr(B^0) = n
    traces = [
        sum((-1) ** i * comb(r, i) * delta ** (r - i) * sums[i] for i in range(r + 1))
        for r in range(1, min(max_r, g.n) + 1)
    ]
    if max_r > g.n:
        traces += islice(_power_sums_past(traces[:]), max_r - g.n)
    return LaplacianTraceTable(traces=tuple(traces))
