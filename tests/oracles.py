"""Independent brute-force oracles for pinning expected values.

Nothing here touches the package's exact engines: walk counts come from DFS
enumeration or dense matrix powers, Laplacian traces from dense Laplacian
powers, triangles from vertex-triple scans, and spanning-tree counts from
deletion-contraction on explicit multigraph edge lists or from rational
Gaussian elimination on the Laplacian minor in natural vertex order.  The
series bracket takes walk counts from its caller and encloses t(complement)
with the paper's truncated series and an outward-rounded exponential.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterable

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


def _dense_power_traces(matrix: list[list[int]], max_k: int) -> list[int]:
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
    return _dense_power_traces(_dense_adjacency(g), max_k)


def direct_laplacian_traces(g: Graph, max_r: int) -> list[int]:
    """tr(L^1)..tr(L^max_r) as traces of dense Laplacian powers."""
    adj = _dense_adjacency(g)
    lap = [[sum(row) if u == v else -row[v] for v in range(g.n)] for u, row in enumerate(adj)]
    return _dense_power_traces(lap, max_r)


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
