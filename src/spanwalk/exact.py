"""Exact integer engines: spanning-tree counts, closed-walk tables, Laplacian power traces.

Everything here runs in arbitrary-precision integer arithmetic.  No floating
point enters any value returned by this module.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress, islice
from operator import mul
from typing import Iterator

from .errors import ExactInvariantError, WorkBudgetError, require_type, shown
from .graph import Adjacency, Graph, _complement_rows, _connected, _two_colouring

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
    steps, from integers alone.  A step with no front still brings its pivot
    up to date, one entry of (k+1)*bits bits.  Such steps are summed apart,
    so the fronts' price alone decides every matrix whose empty fronts
    together cost less than the budget: a Laplacian minor of a connected
    graph has one, its last vertex, but nI - L has one per isolated vertex
    of its pattern, and K_n's has n.  As soon as either sum passes
    _MAX_ELIMINATION_WORK, WorkBudgetError is raised, before the rest of the
    order or any big-integer work.

    Every step adds at least (k+1)*bits to one of the two sums, so together
    they reach at least bits*n(n+1)/2.  When that floor is over twice the
    budget one sum must pass it, and the order is refused at once, before
    any set or heap is built.
    """
    n = len(nbrs)
    floor = bits * n * (n + 1) // 2
    if floor > 2 * _MAX_ELIMINATION_WORK:
        raise WorkBudgetError(
            f"eliminating a matrix of order {n} costs at least {shown(floor)} bit operations "
            f"over its fronts and pivots; the budget is {_MAX_ELIMINATION_WORK} for each"
        )
    adj = [set(s) for s in nbrs]
    # (degree, vertex) entries; an entry whose degree is out of date is skipped
    heap = [(len(s), v) for v, s in enumerate(adj)]
    heapify(heap)
    taken = [False] * len(adj)
    order: list[int] = []
    price = pivots = 0
    while heap:
        degree, v = heappop(heap)
        if taken[v] or degree != len(adj[v]):
            continue
        taken[v] = True
        front = adj[v]
        f = len(front)
        if f:
            price += f * (f + 1) // 2 * (len(order) + 1) * bits
        else:
            pivots += (len(order) + 1) * bits
        if price > _MAX_ELIMINATION_WORK or pivots > _MAX_ELIMINATION_WORK:
            raise WorkBudgetError(
                f"eliminating a matrix of order {len(adj)} costs over {max(price, pivots)} bit operations "
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


def _tree_count(rows: Adjacency, complemented: bool) -> int:
    """Spanning trees of the graph with these rows, or of its complement when `complemented`: one elimination.

    Call the counted graph H.  One zero rule runs first, before any
    complement rows or order are built: when H's minimum degree (min deg of
    the rows, or n - 1 - max deg for a complement) is below (n-1)/2, one
    search (_connected) decides whether H is connected, over the rows'
    non-edges for a complement, and a disconnected H gives 0.  From there
    on H is connected, since two non-adjacent vertices have n-2 other
    vertices to hold their at least n-1 edges and so share a neighbour, and
    nothing is searched.

    The elimination runs on the sparser side: H's own rows when H has at
    most n(n-1)/4 edges, a tie included, else its complement's.  Rows at
    hand on the other side are complemented once (_complement_rows), and
    `complemented` with them, so the complement of a sparse graph is
    counted from the graph's own rows.  H's own rows give the principal
    minor of L(H) that deletes the last vertex of the order (matrix-tree
    theorem): diagonal deg, -1 at each edge, divisor 1.  The complement's
    rows give nI - L(complement of H) = L(H) + J over the full order:
    diagonal n - deg of those rows, +1 at each edge, divisor n^2 (Temperley
    1964; Kelmans 1965).  Rows and columns follow one minimum-degree order
    of the rows, whose price refuses with WorkBudgetError before any
    big-integer work (_minimum_degree_order), and the elimination touches
    only its fill.  Both matrices are positive semidefinite, so a zero
    pivot ends it with determinant 0; the single-vertex graph gives 1.
    """
    n, degrees = len(rows), list(map(len, rows))
    least = n - 1 - max(degrees) if complemented else min(degrees)
    if 2 * least < n - 1 and not _connected(rows, complemented):
        return 0  # no tree spans it, and no order need be built
    at_hand = 2 * sum(degrees)  # 4|E| of these rows; a tie keeps H's own rows
    if at_hand > n * (n - 1) or complemented and at_hand == n * (n - 1):
        rows, complemented = _complement_rows(rows), not complemented
    if complemented:
        diagonal, off, divisor = [n - len(s) for s in rows], 1, n * n
    else:
        diagonal, off, divisor = list(map(len, rows)), -1, 1
    order = _minimum_degree_order(rows, max(diagonal).bit_length())
    det = _sparse_determinant(rows, order if complemented else order[:-1], diagonal, off)
    count, remainder = divmod(det, divisor)
    if remainder or count < 0:
        raise ExactInvariantError(f"the determinant {shown(det)} is not a nonnegative multiple of {divisor}")
    return count


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees of g, from the determinant of the sparser of two matrices (_tree_count)."""
    return _tree_count(g.adjacency(), False)


def complement_tree_count(g: Graph) -> int:
    """Number of spanning trees of g's complement, with no complement Graph built (_tree_count).

    Equal to spanning_tree_count(complement(g)).  A sparse g is eliminated
    on its own rows, so the complement's pair budget does not apply: only
    the elimination price refuses.
    """
    return _tree_count(g.adjacency(), True)


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
    of the rows of M^k at the neighbours of i, one big-integer addition per
    neighbour after the first, plus c_i times row i of M^k, and p_k is the
    sum of the diagonal slots.  Entries of M^k are at most D^k, D the
    largest row sum of M (degree plus loops), so no slot carries into the
    next.  Before the order whose bound D^k would not fit a slot, every row
    is widened to the bytes that orders up to min(2k, n) need: the width
    follows the orders counted, not n.
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
        # each sum starts from its first row: a start of 0 would copy that row once more
        rows = [sum(terms, next(terms, 0)) for terms in (map(get, nb) for nb in nbrs)]
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


def _table_price(n: int, arcs: int, orders: int) -> int:
    """`orders` power sums of a matrix with `arcs` entries on n rows: ceil(orders/2) products of n(arcs+2n)."""
    return -(-orders // 2) * n * (arcs + 2 * n)


def _table_plan(rows: Adjacency, loops: _Loops, count: int, counted: int) -> tuple[int, list[int] | None]:
    """The one walk price: what `count` power sums of M = A + diag(c) cost, and which matrix counts them.

    Returns (price, members): members is None when A's own rows are
    counted, else the colour class X whose M' = BB^T - delta I
    (_half_matrix) is.  Up to three candidates count the first
    min(count, n) orders, each priced by _table_price from degrees and
    colour-class sizes alone:

    - A itself, on n rows, its entries the row lengths plus the loop
      multiplicities: 2|E| for g's adjacency, nD for B = DI - L(g) in
      laplacian_traces;
    - on a loop-free 2-colourable A, M' on either colour class X,
      m = floor(min(count, n)/2) orders on max(|X|, m) rows with
      sum over l outside X of deg l (deg l - 1) row entries and
      |E| - |X| delta loops, delta the least degree in X, plus the row
      entries once more, each written once to build M'.  The rows are at
      least m because _bipartite_sums does more than the engine's |X|
      orders: it shifts M' to M on those |X| orders and continues M by its
      recurrence from |X| to m, |X|(|X|+1)/2 + (m - |X|)|X| <= m(m+1)/2
      multiply-adds of integers growing to m orders' size, and it still
      writes out all m orders: both bounded by m orders on m rows.  Below
      two orders there is no even order: nothing is built or counted, and
      the candidate costs 0.

    The cheapest is taken, A on a tie, then colour 0.  Every candidate
    adds A's orders past n, continued by the recurrence
    (_power_sums_past): each order k adds the size of its integers,
    k bit_length(2n) bits, since walk counts, Laplacian traces and the
    series denominators k(n-d)^k all stay below n (2n)^k.  Over
    _MAX_WALK_WORK, WorkBudgetError is raised before any row is built.
    The colouring runs only when a choice is needed: when A's own price
    refuses, or when fewer than min(count, n) orders are `counted`
    already, in the walk cache; a hit that A admits is not coloured.  The
    refusal does not depend on `counted`, so a caller that asks only for
    it passes count.
    """
    n, degrees = len(rows), list(map(len, rows))
    orders = min(count, n)
    past = (2 * n).bit_length() * max(count * (count + 1) - n * (n + 1), 0) // 2
    price, members = _table_price(n, sum(degrees) + sum(c for _, c in loops), orders), None
    if not loops and (counted < orders or price + past > _MAX_WALK_WORK):
        colour = _two_colouring(rows)
        for side in () if colour is None else (0, 1):
            cls = [v for v, c in enumerate(colour) if c == side]
            written = sum(d * (d - 1) for d, c in zip(degrees, colour) if c != side) if orders > 1 else 0
            least = min((degrees[v] for v in cls), default=0)
            entries = written + sum(degrees) // 2 - len(cls) * least
            cost = written + _table_price(max(len(cls), orders // 2), entries, orders // 2)
            if cost < price:
                price, members = cost, cls
    price += past
    if price > _MAX_WALK_WORK:
        raise WorkBudgetError(
            f"{shown(count)} power sums of a graph on {n} vertices are priced at {shown(price)} "
            f"integer operations; the budget is {_MAX_WALK_WORK}"
        )
    return price, members


def _half_matrix(rows: Adjacency, members: list[int]) -> tuple[Adjacency, _Loops, int]:
    """M' = BB^T - delta I on the colour class X = members of a 2-colourable adjacency A, and delta.

    With X and the other class first, A = [[0, B], [B^T, 0]], so
    tr A^(2k) = 2 tr (BB^T)^k and every odd trace is 0.  Row v of M' holds
    the walks v - l - j to every other j in X, a repeated j once per walk.
    M's diagonal is the degrees; delta is the least degree in X (0 when X
    is empty or holds an isolated vertex), and M' keeps the loops
    deg v - delta that are not 0.  So a d-regular bipartite graph's M' has
    no loops, and its entries fit slots sized by (d^2 - d)^k, not (d^2)^k.
    """
    degrees = [len(rows[v]) for v in members]
    delta = min(degrees, default=0)
    idx = {v: i for i, v in enumerate(members)}
    half = tuple(tuple(sorted(idx[j] for l in rows[v] for j in rows[l] if j != v)) for v in members)
    return half, tuple((i, d - delta) for i, d in enumerate(degrees) if d > delta), delta


def _bipartite_sums(rows: Adjacency, members: list[int], orders: int) -> tuple[int, ...]:
    """p_1..p_orders of a bipartite A from M' on the class `members`: p_2k = 2 tr M^k, odd p_k = 0.

    The packed engine counts the first min(floor(orders/2), |X|) sums of
    M'; they are shifted to M = delta I + M', and past |X| M continues by
    its own recurrence (_shifted_sums).  A table of one order has no even
    sum, and builds no M'.
    """
    count, sums = orders // 2, []
    if count:
        half, loops, delta = _half_matrix(rows, members)
        sums = _shifted_sums(delta, [len(half), *islice(_packed_walks(half, loops), count)], count)
    return tuple(0 if k % 2 else 2 * sums[k // 2 - 1] for k in range(1, orders + 1))


def _shifted_sums(delta: int, sums: list[int], count: int) -> list[int]:
    """p_1..p_count of delta I + X from p_0..p_h of a square matrix X, p_0 its order.

    By the binomial theorem p_k(delta I + X) = sum_j C(k, j) delta^(k-j)
    p_j(X), delta I commuting with X.  The coefficients are built
    incrementally, by Pascal's rule: row i holds tr((delta I + X)^i X^j)
    for j = 0..h-i, row i + 1 is delta * row[j] + row[j + 1], and
    p_i(delta I + X) is row i's first entry.  That is h(h+1)/2 small
    multiples and additions, with no product of two big integers.  Past h,
    which is then X's order p_0, delta I + X continues by its own
    recurrence (_power_sums_past), O(h) integer operations per order.
    """
    shifted = []
    for _ in range(len(sums) - 1):
        sums = [delta * a + b for a, b in zip(sums, sums[1:])]
        shifted.append(sums[0])
    if count > len(shifted):
        shifted += islice(_power_sums_past(shifted[:]), count - len(shifted))
    return shifted


def iter_closed_walk_counts(g: Graph) -> Iterator[int]:
    """Yield w_1, w_2, ... where w_k is the trace of the k-th adjacency power.

    A thin generator over the one door to the walk engine: nothing runs
    until the first value is asked for, and then w_1..w_n are one table of
    g's adjacency rows with no loops (_power_sum_table), priced at n orders
    before any row is built, read from the walk cache or counted whole and
    cached.  Later values continue by the recurrence (_power_sums_past),
    which is not priced here: a caller that reads past w_n bounds how far.
    """
    head = _power_sum_table(g.adjacency(), (), g.n)
    yield from head
    yield from _power_sums_past(list(head))


def _power_sum_table(rows: Adjacency, loops: _Loops, count: int) -> tuple[int, ...]:
    """p_1..p_count of M = A + diag(c) with these rows and loops: the one door to the walk engine.

    One plan (_table_plan) prices all `count` orders, refuses before any
    count, and chooses the matrix that a miss counts; the cache is read
    before it only for the length of the stored prefix, so a hit that A's
    own price admits runs no colouring.  The last _WALK_CACHE_GRAPHS
    (rows, loops) keys keep their longest counted prefix, so repeated
    tables of one matrix are counted once, identification's n orders among
    them: a regular graph's adjacency and its B = DI - L have no loops and
    share one entry, and a relabelled copy is a miss.  A prefix shorter
    than min(count, n) is counted afresh, only to the orders asked for:
    from A's packed rows (_packed_walks), or from M' on the colour class
    the plan priced (_bipartite_sums), the engine started once either way.
    A prefix of at least n sums is extended past n by the recurrence
    (_power_sums_past).  The cache key and the stored prefix are A's, and
    a prefix is stored only once it is whole, so a count that is
    interrupted caches nothing.
    """
    key, n = (rows, loops), len(rows)
    sums = _walk_cache.get(key, ())
    _, members = _table_plan(rows, loops, count, len(sums))
    if len(sums) < min(count, n):
        if members is None:
            sums = tuple(islice(_packed_walks(rows, loops), count))
        else:
            sums = _bipartite_sums(rows, members, min(count, n))
    if len(sums) < count:
        sums = sums[:n] + tuple(islice(_power_sums_past(list(sums[:n])), count - n))
    _walk_cache[key] = sums
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

    Powers up to n expand L = DI + (-B) binomially over the traces of -B,
    (-1)^i tr(B^i), and powers past n continue from L's first n traces by
    the Cayley-Hamilton recurrence of L: the shift-then-continue step that
    _bipartite_sums also uses (_shifted_sums).  B = DI - L = A + diag(D - deg),
    D the largest degree, is the adjacency of the D-regular multigraph made
    of g and D - deg(v) loops at each v, kept as a diagonal beside g's own
    rows (_power_sum_table).  B is nonnegative with every row summing to D,
    so the walk engine counts it in the slots of g's own walks; on a
    regular graph it has no loops and is A.  All max_r orders are priced by
    B's nD entries, but only the first min(max_r, n) traces of B are
    counted and cached.
    """
    require_type("max_r", max_r)
    if max_r < 1:
        raise ValueError("max_r must be at least 1")
    nbrs = g.adjacency()
    delta = max(map(len, nbrs))
    loops = tuple((v, delta - len(s)) for v, s in enumerate(nbrs) if len(s) < delta)
    if max_r > g.n:  # the door prices the first n orders; the refusal of all max_r needs no choice
        _table_plan(nbrs, loops, max_r, max_r)
    sums = _power_sum_table(nbrs, loops, min(max_r, g.n))
    traces = _shifted_sums(delta, [g.n, *(-p if k % 2 else p for k, p in enumerate(sums, 1))], max_r)
    return LaplacianTraceTable(traces=tuple(traces))
