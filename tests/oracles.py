"""Independent brute-force oracles for pinning expected values.

Nothing here touches the package's exact engines: walk counts come from DFS
enumeration, dense matrix powers or Frobenius inner products of adjacency
powers held as lists of lists, Laplacian traces from dense Laplacian
powers, triangles from vertex-triple scans, and spanning-tree counts from
deletion-contraction on explicit multigraph edge lists, from rational
Gaussian elimination on the Laplacian minor in natural vertex order, or for
a cycle's complement from its Laplacian spectrum in closed form, and
determinants from dense Bareiss elimination with row swaps.  The
series bracket takes walk counts from its caller and encloses t(complement)
with the paper's truncated series and an outward-rounded exponential; the
series partial takes them too and sums the terms as one exact rational.  The
mpf-object evaluation does the bounds' and the partial sums' arithmetic on
mpmath.mpf objects under workprec(96), with one mpf power per exponent; the
package's raw-tuple evaluation must equal it tuple for tuple.  The
synchrony sweep spreads one seed at a time with a Python loop over the
vertices per round.  The two-colouring scans vertex pairs with has_edge.
The random regular samplers pair stubs shuffled by random.Random.shuffle
itself and take a dense draw's complement from the set of all pairs.
"""

from __future__ import annotations

import math
import operator
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterable, Sequence

import mpmath
from mpmath.libmp import from_rational, mpf_exp, mpf_mul, round_ceiling, round_floor

from spanwalk import Graph


def dfs_closed_walks(g: Graph, k: int) -> int:
    """Count closed k-walks by explicit depth-first enumeration."""
    nbrs = [sorted(s) for s in g.neighbor_sets()]

    def extend(u: int, start: int, steps: int) -> int:
        if steps == 0:
            return 1 if u == start else 0
        return sum(extend(w, start, steps - 1) for w in nbrs[u])

    return sum(extend(v, v, k) for v in range(g.n))


def dense_power_traces(matrix: list[list[int]], max_k: int) -> list[int]:
    """tr(M^1), ..., tr(M^max_k) by repeated dense matrix products."""
    n = len(matrix)
    power = [row[:] for row in matrix]
    traces = [sum(power[i][i] for i in range(n))]
    for _ in range(max_k - 1):
        power = [
            [sum(row[u] * matrix[u][j] for u in range(n)) for j in range(n)]
            for row in power
        ]
        traces.append(sum(power[i][i] for i in range(n)))
    return traces


def _dense_adjacency(g: Graph) -> list[list[int]]:
    return [[int(g.has_edge(u, v)) for v in range(g.n)] for u in range(g.n)]


def dense_closed_walks(g: Graph, max_k: int) -> list[int]:
    """w_1..w_max_k as traces of dense adjacency powers."""
    return dense_power_traces(_dense_adjacency(g), max_k)


def dense_loop_padded_traces(g: Graph, max_k: int) -> list[int]:
    """tr(B^1)..tr(B^max_k) of B = DI - L(g), D the largest degree, by dense products."""
    adj = _dense_adjacency(g)
    delta = max(map(sum, adj))
    pad = [[row[v] + (delta - sum(row) if u == v else 0) for v in range(g.n)] for u, row in enumerate(adj)]
    return dense_power_traces(pad, max_k)


def frobenius_walks(g: Graph) -> list[int]:
    """w_1..w_n from adjacency powers held as n lists of n ints, two counts per product.

    A is symmetric, so w_(2j+1) = <A^j, A^(j+1)>_F and w_(2j+2) = <A^(j+1), A^(j+1)>_F.
    Row i of A^(j+1) = A A^j is the sum of the rows of A^j at the neighbours of i.
    """
    n = g.n
    zero = [0] * n
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    counts = []
    while len(counts) < n:
        nxt = []
        for nb in g.adjacency():
            rows = iter(nb)
            acc = power[next(rows)] if nb else zero
            for u in rows:
                acc = list(map(operator.add, acc, power[u]))
            nxt.append(acc)
        counts.append(sum(sum(map(operator.mul, a, b)) for a, b in zip(power, nxt)))
        counts.append(sum(sum(map(operator.mul, b, b)) for b in nxt))
        power = nxt
    return counts[:n]


def direct_laplacian_traces(g: Graph, max_r: int) -> list[int]:
    """tr(L^1)..tr(L^max_r) as traces of dense Laplacian powers."""
    adj = _dense_adjacency(g)
    lap = [[sum(row) if u == v else -row[v] for v in range(g.n)] for u, row in enumerate(adj)]
    return dense_power_traces(lap, max_r)


def brute_force_triangles(g: Graph) -> int:
    count = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                continue
            for w in range(v + 1, g.n):
                if g.has_edge(u, w) and g.has_edge(v, w):
                    count += 1
    return count


def _components(n: int, edges: tuple[tuple[int, int], ...]) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps


@lru_cache(maxsize=None)
def _dc(n: int, edges: tuple[tuple[int, int], ...]) -> int:
    """Spanning trees of a multigraph by deletion-contraction."""
    if _components(n, edges) > 1:
        return 0
    if n == 1:
        return 1
    if len(edges) < n - 1:
        return 0
    u, v = edges[0]
    rest = edges[1:]
    # contract edges[0]: merge v into u, drop loops, relabel compactly
    relabel = [w if w < v else w - 1 for w in range(n)]
    relabel[v] = relabel[u]
    contracted = []
    for a, b in rest:
        a2, b2 = relabel[a], relabel[b]
        if a2 != b2:
            contracted.append((min(a2, b2), max(a2, b2)))
    return _dc(n, rest) + _dc(n - 1, tuple(sorted(contracted)))


def deletion_contraction_tree_count(g: Graph) -> int:
    return _dc(g.n, tuple(sorted(g.edges)))


def kirchhoff_tree_count(g: Graph) -> int:
    """Spanning trees as the determinant of the Laplacian with its last row and column deleted.

    Plain Gaussian elimination over Fraction in natural vertex order, swapping
    rows only at a zero pivot.
    """
    nbrs = g.neighbor_sets()
    size = g.n - 1
    m = [
        [Fraction(len(nbrs[u])) if u == v else Fraction(-1 if v in nbrs[u] else 0) for v in range(size)]
        for u in range(size)
    ]
    det = Fraction(1)
    for k in range(size):
        pivot_row = next((r for r in range(k, size) if m[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, size):
            factor = m[i][k] / m[k][k]
            if factor:
                for j in range(k + 1, size):
                    m[i][j] -= factor * m[k][j]
    return int(det)


def cycle_complement_tree_count(n: int) -> int:
    """Spanning trees of the complement of C_n, n >= 3, in closed form: (-1)^(n-1) (2 - L_n) / n^2.

    L_0 = 2, L_1 = -x and L_(k+1) = -x L_k - L_(k-1), x = n - 2, so
    L_n = y^n + y^-n for y + 1/y = -x.  The Laplacian eigenvalues of the
    complement are x + 2 cos(2 pi j / n), j = 1..n-1, and the product of
    x + 2 cos(2 pi j / n) over all n values of j is (-1)^n (L_n - 2); the
    j = 0 factor is n, and the matrix-tree theorem divides by n once more.
    """
    x = n - 2
    previous, current = 2, -x
    for _ in range(n - 1):
        previous, current = current, -x * current - previous
    return (-1) ** (n - 1) * (2 - current) // (n * n)


def dense_bareiss_determinant(matrix: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix, every entry updated at every step.

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


def _mpf_to_fraction(x: tuple) -> Fraction:
    sign, man, exp, _ = x
    if man == 0:
        return Fraction(0)
    fr = Fraction(man) * Fraction(2) ** exp
    return -fr if sign else fr


def _tail_bound(n: int, d: int, k: int) -> Fraction:
    """n q^(k+1) / ((k+1)(1-q)), q = d/(n-d): the absolute sum of the terms past order k.

    It holds because w_k <= n d^k.
    """
    return Fraction(n * d ** (k + 1), (k + 1) * (n - d) ** k * (n - 2 * d))


def series_bracket(n: int, d: int, walks: Iterable[int]) -> tuple[Fraction, Fraction]:
    """Exact enclosure of t(complement) from the truncated log series.

    walks yields w_1, w_2, ... of a d-regular graph on n vertices, 2d < n.
    AM-GM on the complement's Laplacian spectrum gives t <= 2^b.  K is the
    smallest order whose tail bound is at most 2^-(b+5), the precision is
    max(64, b + 16) bits, and c exp(S -+ tail), c = (n-d)^n / n^2, is
    evaluated with every conversion and product rounded outward and the ends
    widened by 2^(6 - prec) for the exponential's own error.  Truncation then
    widens the enclosure by at most 1/16 and rounding by at most 2^-9.
    """
    b = 0
    if n > 2:
        num, den = (n * (n - 1 - d)) ** (n - 1), n * (n - 1) ** (n - 1)
        b = max(0, num.bit_length() - den.bit_length() + 1)
    prec = max(64, b + 16)
    big_k = 1
    while _tail_bound(n, d, big_k) > Fraction(1, 2 ** (b + 5)):
        big_k += 1
    acc = sum(
        (Fraction(w if k % 2 else -w, k * (n - d) ** k)
         for k, w in enumerate(islice(walks, 1, big_k), start=2)),
        Fraction(0),
    )
    tail = _tail_bound(n, d, big_k)
    c_fr = Fraction((n - d) ** n, n * n)
    eps = Fraction(1, 2 ** (prec - 6))
    ends = []
    for arg, rnd, widen in ((acc - tail, round_floor, 1 - eps), (acc + tail, round_ceiling, 1 + eps)):
        c = from_rational(c_fr.numerator, c_fr.denominator, prec, rnd)
        x = from_rational(arg.numerator, arg.denominator, prec, rnd)
        ends.append(_mpf_to_fraction(mpf_mul(c, mpf_exp(x, prec, rnd), prec, rnd)) * widen)
    return ends[0], ends[1]


def exact_series_partial(n: int, d: int, walks: Sequence[int], k: int) -> float:
    """The series' partial sum through order k, with the walk terms summed exactly.

    walks holds w_1, w_2, ... at least through w_k.  The terms
    (-1)^(j-1) w_j / (j (n-d)^j), j = 2..k, are summed as one rational over
    lcm(1..k) (n-d)^k, by Horner's rule in n-d, and reduced.  The base
    ln((n-d)^n / n^2) and the one addition are evaluated at 96 bits, so the
    partial carries a single rounding of the exact sum.
    """
    nd = n - d
    lcm = math.lcm(*range(1, k + 1))
    num = 0
    for j, w in enumerate(walks[1:k], start=2):
        num = num * nd + (w if j % 2 else -w) * (lcm // j)
    acc = Fraction(num, lcm * nd**k)
    base = Fraction(nd**n, n * n)
    with mpmath.workprec(96):
        return float(
            mpmath.log(mpmath.mpf(base.numerator) / base.denominator)
            + mpmath.mpf(acc.numerator) / acc.denominator
        )


def mpf_power_sum_lower(sums: Sequence[int], scale: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(value, y) of the bounds' power-sum lemma, on mpf objects at 96 bits.

    value = ln(1-y) - sum_{k<m} (P_k - P_m^(k/m)) / (k scale^k), y = P_m^(1/m) / scale,
    with each P_m^(k/m) an mpf power of its own.
    """
    with mpmath.workprec(96):
        m = len(sums)
        p_m = mpmath.mpf(sums[-1])
        y = p_m ** (mpmath.mpf(1) / m) / scale
        correction = mpmath.mpf(0)
        for k in range(1, m):
            correction += (sums[k - 1] - p_m ** (mpmath.mpf(k) / m)) / (k * scale**k)
        return mpmath.log(1 - y) - correction, y


def mpf_partial_sums(n: int, d: int, counts: Sequence[int], max_k: int) -> list[mpmath.mpf]:
    """The series' partial sums through orders 1..max_k, on mpf objects at 96 bits.

    The base n ln(n-d) - 2 ln n, then each nonzero term mpf(w_k) / (k (n-d)^k)
    accumulated in order; a zero term repeats the partial before it.
    """
    with mpmath.workprec(96):
        base = n * mpmath.log(n - d) - 2 * mpmath.log(n)
        acc = mpmath.mpf(0)
        partials = [base]
        for k, w_k in enumerate(counts[1:max_k], start=2):
            if w_k:
                term = mpmath.mpf(w_k) / (k * (n - d) ** k)
                acc = acc + term if k % 2 else acc - term
                partials.append(base + acc)
            else:
                partials.append(partials[-1])
        return partials


def _sig7(x: mpmath.mpf) -> float:
    return float(f"{float(x):.7g}")


def _log_and_linear(log_mp: mpmath.mpf) -> tuple[float, float]:
    with mpmath.workprec(96):
        return float(log_mp), float(mpmath.exp(log_mp))


def mpf_trace_lower(n: int, traces: Sequence[int]) -> tuple[float, float, float]:
    """(log_value, linear_value, y) of thm2 on tr(L^1..L^m), on mpf objects at 96 bits.

    y is rounded to 7 significant digits, as the report's parameter is.
    """
    value, y = mpf_power_sum_lower(traces, n)
    with mpmath.workprec(96):
        log_mp = (n - 2) * mpmath.log(n) + value
    return (*_log_and_linear(log_mp), _sig7(y))


def mpf_thm3(
    n: int, d: int, walks: Sequence[int], m: int, k: int
) -> tuple[tuple[float, float, float] | None, tuple[float, float]]:
    """thm3's lower (log_value, linear_value, y), or None when y >= 1, and upper (log_value, linear_value).

    walks holds w_1, w_2, ... at least through w_max(2m, 2k); evaluated on mpf
    objects at 96 bits.
    """
    nd = n - d
    partials = mpf_partial_sums(n, d, walks, 2 * k)
    upper = _log_and_linear(partials[-1])
    if walks[2 * m - 1] >= nd ** (2 * m):
        return None, upper
    value, y2 = mpf_power_sum_lower([walks[2 * s - 1] for s in range(1, m + 1)], nd**2)
    with mpmath.workprec(96):
        log_mp = partials[0] + value / 2
        y = mpmath.sqrt(y2)
    return (*_log_and_linear(log_mp), _sig7(y)), upper


def _step_mask(masks: list[int], active: int, t: int, n: int) -> int:
    new = active
    for v in range(n):
        if not (active >> v) & 1 and (masks[v] & active).bit_count() >= t:
            new |= 1 << v
    return new


def _index_mask(masks: list[int], seed_mask: int, t: int, n: int) -> int | float:
    full = (1 << n) - 1
    if seed_mask == full:
        return 0
    cur = seed_mask
    rounds = 0
    while True:
        nxt = _step_mask(masks, cur, t, n)
        if nxt == full:
            return rounds + 1
        if nxt == cur:
            return math.inf
        cur = nxt
        rounds += 1


def _in_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for v, sources in enumerate(g.in_neighbor_sets()):
        for u in sources:
            masks[v] |= 1 << u
    return masks


def _vertices(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def spread_once(g: Graph, active: Iterable[int], t: int) -> frozenset[int]:
    """One round, vertex by vertex: active plus every vertex with at least t active in-neighbours."""
    return _vertices(_step_mask(_in_masks(g), sum(1 << v for v in set(active)), t, g.n))


def spread_limit(g: Graph, seed: Iterable[int], t: int) -> frozenset[int]:
    """Rounds of spread_once from seed until nothing changes."""
    masks = _in_masks(g)
    cur = sum(1 << v for v in set(seed))
    while (nxt := _step_mask(masks, cur, t, g.n)) != cur:
        cur = nxt
    return _vertices(cur)


def synchrony_sweep(g: Graph, t: int, seeds: Iterable[Iterable[int]]) -> tuple[dict[int, int], int]:
    """Histogram of the finite synchrony indices over seeds, and the stalled count.

    Each seed is a collection of vertices, spread on its own: a vertex
    activates once at least t of its in-neighbours are active.
    """
    masks = _in_masks(g)
    histogram: dict[int, int] = {}
    stalled = 0
    for seed in seeds:
        index = _index_mask(masks, sum(1 << v for v in set(seed)), t, g.n)
        if index == math.inf:
            stalled += 1
        else:
            histogram[index] = histogram.get(index, 0) + 1
    return histogram, stalled


def bfs_two_colouring(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Colour 0 at the least vertex of each component, the other colour across each edge; None on a clash."""
    colour = [-1] * g.n
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in range(g.n):
                if not g.has_edge(u, w):
                    continue
                if colour[w] == -1:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return None
    return frozenset(v for v in range(g.n) if colour[v] == 0), frozenset(v for v in range(g.n) if colour[v] == 1)


def shuffle_random_regular(n: int, d: int, seed: int) -> Graph:
    """random_regular's pairing with rejection, its stubs shuffled by rng.shuffle; assumes a valid request."""
    if 2 * d > n - 1:
        sparse = shuffle_random_regular(n, n - 1 - d, seed).edges
        return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)) - sparse)
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(stubs)  # each attempt shuffles the previous attempt's order
        pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(pairs) == n * d // 2:
            return Graph(n, frozenset(pairs))


def shuffle_random_regular_bipartite(n: int, d: int, seed: int) -> Graph:
    """random_regular_bipartite's pairing, its right stubs shuffled by rng.shuffle; assumes a valid request."""
    half = n // 2
    rng = random.Random(seed)
    left = [v for v in range(half) for _ in range(d)]
    right = [half + v for v in range(half) for _ in range(d)]
    while True:
        rng.shuffle(right)
        pairs = set(zip(left, right))
        if len(pairs) == half * d:
            return Graph(n, frozenset(pairs))


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample, independent of the package's generators."""
    rng = random.Random(seed)
    edges = {
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    }
    return Graph(n, frozenset(edges))


def directed_gnp(n: int, p: float, seed: int) -> Graph:
    """Random digraph: each ordered pair u != v is an arc with probability p."""
    rng = random.Random(seed)
    arcs = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p}
    return Graph(n, frozenset(arcs), directed=True)


def cycle(n: int) -> Graph:
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, frozenset((u, a + v) for u in range(a) for v in range(b)))


def circulant(n: int, offsets: tuple[int, ...]) -> Graph:
    return Graph(n, frozenset((i, (i + s) % n) for i in range(n) for s in offsets))


def path(n: int) -> Graph:
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def star(n: int) -> Graph:
    """K_(1,n-1): vertex 0 joined to every other vertex."""
    return Graph(n, frozenset((0, v) for v in range(1, n)))
