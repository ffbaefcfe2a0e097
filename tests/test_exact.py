"""Exact integer engines against brute-force oracles and frozen values."""

from __future__ import annotations

import ast
import random
import time
from itertools import combinations, islice, product
from math import comb
from pathlib import Path

import pytest

import spanwalk
from spanwalk import (
    DirectedUnsupportedError,
    Graph,
    WorkBudgetError,
    closed_walk_counts,
    complement,
    evaluate_series,
    identify_complexity,
    iter_closed_walk_counts,
    laplacian_traces,
    named_graph,
    random_regular,
    random_regular_bipartite,
    spanning_tree_count,
    thm2_lower,
    thm3_bounds,
    triangle_count,
)
from spanwalk import exact
from spanwalk.errors import ExactInvariantError
from spanwalk.exact import elementary_symmetric
from oracles import (
    bfs_two_colouring,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    deletion_contraction_tree_count,
    dense_bareiss_determinant,
    dense_closed_walks,
    dense_power_traces,
    dfs_closed_walks,
    direct_laplacian_traces,
    frobenius_walks,
    gnp,
    dense_loop_padded_traces,
    kirchhoff_tree_count,
    path,
    star,
)


def test_spanning_trees_of_named_complements():
    assert spanning_tree_count(complement(named_graph("petersen"))) == 2048000
    assert spanning_tree_count(complement(named_graph("paper-h"))) == 2080524
    assert spanning_tree_count(complement(named_graph("paper-bipartite"))) == 2034010


def test_spanning_trees_closed_forms():
    # complete graphs: n^(n-2)
    for n in range(2, 9):
        assert spanning_tree_count(complete(n)) == n ** (n - 2)
    # cycles: n
    for n in range(3, 9):
        assert spanning_tree_count(cycle(n)) == n
    # trees: exactly one; disconnected: none; single vertex: one
    assert spanning_tree_count(path(6)) == 1
    assert spanning_tree_count(Graph(4, frozenset({(0, 1), (2, 3)}))) == 0
    assert spanning_tree_count(Graph(1)) == 1
    # complete bipartite K_{a,b}: a^(b-1) b^(a-1)
    assert spanning_tree_count(complete_bipartite(3, 4)) == 3**3 * 4**2
    assert spanning_tree_count(complete_bipartite(5, 5)) == 5**4 * 5**4
    # dense and disconnected: K_7 plus an isolated vertex
    assert spanning_tree_count(Graph(8, complete(7).edges)) == 0
    # n = 2: one edge (dense side), no edge (sparse side)
    assert spanning_tree_count(Graph(2, frozenset({(0, 1)}))) == 1
    assert spanning_tree_count(Graph(2)) == 0
    # 4|E| = n(n-1) exactly
    assert spanning_tree_count(cycle(5)) == 5
    assert spanning_tree_count(path(4)) == 1


def test_isolated_vertex_counts_0_before_any_order(monkeypatch):
    # built outside the timer: an isolated vertex, and two disjoint copies of a
    # cubic graph, whose elimination order is over its price
    cubic = random_regular(2000, 3, 1)
    copies = Graph(4000, cubic.edges | {(u + 2000, v + 2000) for u, v in cubic.edges})
    graphs = [Graph(200_000, frozenset({(0, 1)})), copies]

    def no_order(nbrs, bits):
        raise AssertionError("an elimination order was built")

    monkeypatch.setattr(exact, "_minimum_degree_order", no_order)
    for g in graphs:
        start = time.perf_counter()
        assert spanning_tree_count(g) == 0
        assert time.perf_counter() - start < 1.0
    monkeypatch.undo()
    assert spanning_tree_count(Graph(1)) == 1 and spanning_tree_count(Graph(2)) == 0


def test_dense_disconnected_graph_counts_0_before_any_order(monkeypatch):
    # K_300 + K_200: the dense branch, minimum degree 199 < (n-1)/2, and an
    # elimination order over its price
    g = Graph(500, complete(300).edges | {(u + 300, v + 300) for u, v in complete(200).edges})

    def no_order(nbrs, bits):
        raise AssertionError("an elimination order was built")

    monkeypatch.setattr(exact, "_minimum_degree_order", no_order)
    start = time.perf_counter()
    assert spanning_tree_count(g) == 0
    assert time.perf_counter() - start < 1.0


def test_dense_graph_of_high_minimum_degree_runs_no_search(monkeypatch):
    # a complement of a cubic graph has minimum degree n - 4 >= (n-1)/2: connected
    cubic = random_regular(40, 3, seed=5)

    def no_search(g):
        raise AssertionError("the connectivity search ran")

    monkeypatch.setattr(exact, "is_connected", no_search)
    assert spanning_tree_count(complement(cubic)) == identify_complexity(cubic)


def test_sparse_graph_of_minimum_degree_half_n_minus_1_runs_no_search(monkeypatch):
    # 4|E| = n(n-1) keeps these on the sparse side, and minimum degree (n-1)/2 makes them
    # connected: C_5, and the 4-regular rook graph K_3 x K_3 on 9 vertices
    rook = Graph(9, frozenset((u, v) for u, v in combinations(range(9), 2) if u // 3 == v // 3 or u % 3 == v % 3))
    assert 4 * rook.size == 9 * 8 and kirchhoff_tree_count(rook) == 11664

    def no_search(g):
        raise AssertionError("the connectivity search ran")

    monkeypatch.setattr(exact, "is_connected", no_search)
    assert spanning_tree_count(cycle(5)) == 5
    assert spanning_tree_count(rook) == 11664



def test_spanning_trees_match_deletion_contraction():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        g = gnp(n, rng.choice([0.2, 0.35, 0.5]), 500 + seed)
        assert spanning_tree_count(g) == deletion_contraction_tree_count(g), (n, seed)
    dense = 0
    for seed, (n, p) in enumerate(product(range(2, 9), (0.65, 0.8, 0.95))):
        g = gnp(n, p, 700 + seed)
        dense += 4 * g.size > n * (n - 1)
        assert spanning_tree_count(g) == deletion_contraction_tree_count(g), (n, p, seed)
    assert dense >= 15  # most of these inputs take the nI - L(complement) branch


def _relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


def test_complement_counts_match_kirchhoff_oracle_under_relabelling():
    # the exact-count shape: dense complements of sparse regular graphs
    graphs = [random_regular(n, d, seed=7000 + n + d) for n, d in product((20, 30, 40), (3, 4))]
    graphs.append(circulant(40, (1, 3)))
    for idx, g in enumerate(graphs):
        expected = kirchhoff_tree_count(complement(g))
        assert spanning_tree_count(complement(g)) == expected, g
        assert spanning_tree_count(complement(_relabelled(g, 300 + idx))) == expected, g


def _eliminated_matrix(g: Graph):
    """The sparse pattern, diagonal and off-diagonal value that spanning_tree_count eliminates for g."""
    n = g.n
    nbrs = g.neighbor_sets()
    if 4 * g.size <= n * (n - 1):
        return nbrs, [len(s) for s in nbrs], -1, True
    sparse = [set(range(n)) - s - {v} for v, s in enumerate(nbrs)]
    return sparse, [n - len(s) for s in sparse], 1, False


def _sparse_and_dense_determinants(g: Graph, shuffle_seed: int | None = None) -> tuple[int, int]:
    """The sparse elimination over the minimum-degree (or a shuffled) order, and the dense oracle."""
    nbrs, diagonal, off, minor = _eliminated_matrix(g)
    order = exact._minimum_degree_order(nbrs, max(diagonal).bit_length())
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    if minor:
        order = order[:-1]
    labels = sorted(order)
    dense = [[diagonal[u] if u == v else off if v in nbrs[u] else 0 for v in labels] for u in labels]
    return exact._sparse_determinant(nbrs, order, diagonal, off), dense_bareiss_determinant(dense)


def _random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, frozenset((rng.randrange(v), v) for v in range(1, n)))


def _disjoint_union(*parts: Graph) -> Graph:
    edges, shift = set(), 0
    for part in parts:
        edges |= {(u + shift, v + shift) for u, v in part.edges}
        shift += part.n
    return Graph(shift, frozenset(edges))


def test_sparse_elimination_matches_dense_bareiss():
    graphs = []
    # the exact-count shape: complements of sparse regular graphs, and relabelled copies
    for idx, (n, d) in enumerate(product(range(10, 61, 10), (3, 4))):
        g = complement(random_regular(n, d, seed=8100 + n + d))
        graphs += [g, _relabelled(g, 400 + idx)]
    # Laplacian minors: sparse random graphs, trees, cycles
    graphs += [gnp(n, p, 900 + n) for n in range(2, 25, 3) for p in (0.15, 0.3, 0.45)]
    graphs += [_random_tree(n, 950 + n) for n in (3, 7, 15, 30)] + [path(9)]
    graphs += [cycle(n) for n in (3, 4, 11, 24)]
    # K_n: the sparse side is empty, so only the diagonal is eliminated
    graphs += [complete(n) for n in range(2, 12)]
    graphs += [Graph(1), Graph(2), Graph(2, frozenset({(0, 1)}))]
    # disconnected, on both branches: a zero pivot ends the elimination
    disconnected = [
        Graph(8, complete(7).edges),
        Graph(8, complete(6).edges),
        _disjoint_union(cycle(5), cycle(4)),
        _disjoint_union(cycle(6), cycle(7), Graph(1)),
        _disjoint_union(complete(9), complete(2)),
    ]
    for g in graphs + disconnected:
        sparse, dense = _sparse_and_dense_determinants(g)
        assert sparse == dense, g
        assert _sparse_and_dense_determinants(g, shuffle_seed=g.n + g.size) == (dense, dense), g
    assert sum(4 * g.size > g.n * (g.n - 1) for g in disconnected) == 3
    for g in disconnected:
        assert spanning_tree_count(g) == 0, g


@pytest.mark.parametrize(
    "g, fake",
    [
        (complete(5), 25 * 125 + 1),  # dense: det(L + J) not divisible by n^2
        (complete(5), -25 * 125),  # dense: divisible, but the count is negative
        (cycle(6), -6),  # sparse: a negative Laplacian minor
    ],
    ids=["dense-remainder", "dense-negative", "sparse-negative"],
)
def test_broken_determinant_raises_a_typed_error(monkeypatch, g, fake):
    monkeypatch.setattr(exact, "_sparse_determinant", lambda nbrs, order, diagonal, off: fake)
    with pytest.raises(ExactInvariantError):
        spanning_tree_count(g)


def test_spanning_trees_over_the_elimination_price_refuse_at_once(monkeypatch):
    def no_elimination(nbrs, order, diagonal, off):
        raise AssertionError("eliminated before the price check")

    monkeypatch.setattr(exact, "_sparse_determinant", no_elimination)
    # a Laplacian minor, and nI - L(complement) of a dense graph
    for g in (random_regular(2000, 3, seed=11), complement(random_regular(400, 3, seed=12))):
        start = time.perf_counter()
        with pytest.raises(WorkBudgetError):
            spanning_tree_count(g)
        assert time.perf_counter() - start < 1.0, g


def test_spanning_trees_rejects_directed():
    with pytest.raises(DirectedUnsupportedError):
        spanning_tree_count(Graph(3, frozenset({(0, 1)}), directed=True))


def test_walk_counts_match_dfs_enumeration():
    for seed in range(25):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g = gnp(n, rng.choice([0.2, 0.3, 0.5]), 900 + seed)
        table = closed_walk_counts(g, 6)
        for k in range(1, 7):
            assert table.w(k) == dfs_closed_walks(g, k), (n, seed, k)


_ENGINE_CASES = {
    "single vertex": Graph(1),
    "edgeless": Graph(7),
    "perfect matching": Graph(8, frozenset((2 * i, 2 * i + 1) for i in range(4))),
    "star": Graph(13, frozenset((0, v) for v in range(1, 13))),
    "disconnected union": Graph(
        10, frozenset({(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)})
    ),
    "disconnected irregular": Graph(
        12, complete(6).edges | {(6, 7), (7, 8), (8, 9), (6, 9), (6, 8), (9, 10)}
    ),
    "complete": complete(7),
    "petersen": named_graph("petersen"),
    "paper-bipartite": named_graph("paper-bipartite"),
    "random bipartite": random_regular_bipartite(12, 3, seed=11),
    "circulant": circulant(15, (1, 4)),
    "gnp odd order": gnp(9, 0.4, 21),
    "gnp even order": gnp(12, 0.3, 22),
}


@pytest.mark.parametrize("name", sorted(_ENGINE_CASES))
def test_walk_engine_matches_dense_powers_across_the_phase_switch(name):
    # orders 1..n use matrix powers, orders past n the Cayley-Hamilton recurrence
    g = _ENGINE_CASES[name]
    max_k = 3 * g.n + 3
    walker = iter_closed_walk_counts(g)
    counts = [next(walker) for _ in range(max_k)]
    assert counts == dense_closed_walks(g, max_k)
    assert counts[0] == 0
    if g.n >= 2:
        assert counts[1] == 2 * g.size
    if g.n >= 3:
        assert counts[2] % 6 == 0


@pytest.mark.parametrize(
    "g",
    [cycle(150), circulant(25, (1, 2, 3, 4, 5, 6))] + [circulant(n, (1, 3)) for n in range(20, 141, 20)],
    ids=repr,
)
def test_walk_engine_matches_the_frobenius_loop_at_order_n(g):
    # the identification ladder's circulants, whose slots widen up to 36 bytes
    assert list(islice(iter_closed_walk_counts(g), g.n)) == frobenius_walks(g)


def test_slot_width_follows_the_orders_counted():
    # slots sized for all 2000 orders would hold about 2 GB; three orders need one byte each
    start = time.perf_counter()
    assert closed_walk_counts(circulant(2000, (1, 2)), 3).counts == (0, 8000, 12000)
    assert time.perf_counter() - start < 1.0


def test_inconsistent_power_sums_raise_a_typed_error():
    # no integer matrix has tr A = 1 and tr A^2 = 0, because 2 e_2 = 1 - 0 is odd
    with pytest.raises(ExactInvariantError):
        elementary_symmetric([1, 0])


def test_newton_closes_the_petersen_spectrum():
    # spectrum 3, 1 (five times), -2 (four times): det(xI + A) = (x + 3)(x + 1)^5 (x - 2)^4
    want = [1]
    for lam in [3] + [1] * 5 + [-2] * 4:
        want = [a + lam * b for a, b in zip(want + [0], [0] + want)]
    e = elementary_symmetric(list(closed_walk_counts(named_graph("petersen"), 10).counts))
    assert e == want
    assert sum(e_j * 7 ** (10 - j) for j, e_j in enumerate(e)) == 204_800_000 == 10 * 8**5 * 5**4


def test_package_has_no_assert_statements():
    # python -O strips assert, so no production path may rely on one
    modules = sorted(Path(spanwalk.__file__).parent.glob("*.py"))
    assert modules
    for module in modules:
        tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{module.name}: assert at lines {lines}"


def test_walk_counts_structity():
    g = named_graph("petersen")
    table = closed_walk_counts(g, 10)
    assert table.w(1) == 0
    assert table.w(2) == 2 * g.size == 30
    assert table.w(3) == 0  # triangle-free
    assert table.w(4) == 150
    # spectrum of the Petersen graph: 3 once, 1 five times, -2 four times
    for k in range(1, 11):
        assert table.w(k) == 3**k + 5 * 1**k + 4 * (-2) ** k


def test_even_walks_of_bundled_bipartite_graph():
    table = closed_walk_counts(named_graph("paper-bipartite"), 7)
    assert [table.w(k) for k in (2, 4, 6)] == [30, 190, 1530]
    assert all(table.w(k) == 0 for k in (1, 3, 5, 7))


def test_walk_table_bounds_checking():
    table = closed_walk_counts(cycle(5), 4)
    assert table.max_k == 4
    with pytest.raises(ValueError):
        table.w(5)
    with pytest.raises(ValueError):
        table.w(0)
    with pytest.raises(ValueError):
        closed_walk_counts(cycle(5), 0)


def test_laplacian_trace_table_bounds_checking():
    with pytest.raises(ValueError, match="max_r must be at least 1"):
        laplacian_traces(cycle(5), 0)
    with pytest.raises(ValueError, match=r"power 99 outside table range 1\.\.3"):
        laplacian_traces(cycle(5), 3).trace(99)


def test_triangle_counts():
    assert triangle_count(complete(3)) == 1
    assert triangle_count(complete(6)) == comb(6, 3)
    assert triangle_count(named_graph("petersen")) == 0
    assert triangle_count(named_graph("paper-h")) == 3
    assert triangle_count(named_graph("paper-bipartite")) == 0


def test_triangle_complement_identity_on_regular_graphs():
    # tri(G) + tri(complement) = C(n,3) - n d (n-1-d) / 2 for d-regular G
    from oracles import brute_force_triangles

    cases = [(8, 3), (10, 3), (9, 4), (12, 5)]
    for idx, (n, d) in enumerate(cases):
        g = random_regular(n, d, seed=4000 + idx)
        lhs = triangle_count(g) + triangle_count(complement(g))
        assert lhs == comb(n, 3) - n * d * (n - 1 - d) // 2
        assert triangle_count(g) == brute_force_triangles(g)


def test_laplacian_traces_low_orders():
    for idx, (n, d) in enumerate([(8, 3), (10, 4), (12, 3)]):
        g = random_regular(n, d, seed=6000 + idx)
        table = laplacian_traces(g, 3)
        assert table.trace(1) == n * d
        assert table.trace(2) == n * (d * d + d)
        assert table.trace(3) == n * d**2 * (d + 3) - 6 * triangle_count(g)


def test_laplacian_traces_frozen_value():
    assert laplacian_traces(named_graph("paper-h"), 3).trace(3) == 522


def test_laplacian_traces_high_orders_cross_check():
    # powers past n come from the Cayley-Hamilton recurrence of L, not the binomial sum
    cases = [named_graph("petersen"), named_graph("paper-h")]
    for idx, (n, d) in enumerate([(6, 2), (8, 3), (10, 3), (12, 4)]):
        cases.append(random_regular(n, d, seed=7000 + idx))
    for g in cases:
        max_r = 3 * g.n + 3
        assert list(laplacian_traces(g, max_r).traces) == direct_laplacian_traces(g, max_r)
    # the Laplacian spectrum of the Petersen graph: 0 once, 2 five times, 5 four times
    table = laplacian_traces(named_graph("petersen"), 1000)
    assert list(table.traces) == [5 * 2**r + 4 * 5**r for r in range(1, 1001)]


@pytest.mark.parametrize(
    "g", [named_graph("petersen"), named_graph("paper-h"), cycle(150), circulant(25, (1, 2, 3))]
)
def test_table_price_at_order_n_is_the_matrix_phase(g):
    n, d = g.n, 2 * g.size // g.n
    rows = g.adjacency()
    assert _loops(g) == ()  # B = DI - L of a regular graph is its adjacency

    def price(count):
        return exact.check_table_price(rows, (), count)

    if bfs_two_colouring(g) is None:
        # A's own orders: ceil(count/2) products of n(2|E| + 2n) = n^2 (d+2) operations
        assert price(n) == -(-n // 2) * n * n * (d + 2)
        assert price(n - 1) == -(-(n - 1) // 2) * n * n * (d + 2)
    else:
        # C_150 is priced by M' = BB^T - 2I on its m = 75 even vertices: C_75's rows,
        # 2m entries and no loops, floor(count/2) orders, plus the 2m entries written
        m = n // 2
        assert price(n) == -(-m // 2) * m * (2 * m + 2 * m) + 2 * m
        assert price(n - 1) == -(-(m - 1) // 2) * m * (2 * m + 2 * m) + 2 * m
    # order k past n adds k bit_length(2n), the bits of its integers
    bits = (2 * n).bit_length()
    assert price(n + 3) - price(n) == bits * (3 * n + 6)


def _loops(g):
    """The (v, D - deg(v)) pairs of B = DI - L(g) = A + diag(D - deg), where D - deg(v) > 0."""
    delta = max(map(len, g.adjacency()))
    return tuple((v, delta - len(s)) for v, s in enumerate(g.adjacency()) if len(s) < delta)


def test_laplacian_traces_of_irregular_graphs_match_the_dense_oracle(counted_engine):
    graphs = [g for g in _ENGINE_CASES.values() if len(set(map(len, g.adjacency()))) > 1]
    graphs += [star(2), star(9), path(7), Graph(6, frozenset({(0, 1), (1, 2), (3, 4)}))]
    graphs += [gnp(n, 0.35, 1300 + n) for n in range(3, 14)]
    for g in graphs:
        max_r = 2 * g.n + 3  # past n, where the Cayley-Hamilton recurrence of L takes over
        assert laplacian_traces(g, max_r).traces == tuple(direct_laplacian_traces(g, max_r)), g
        # the cached prefix is tr(B^1..B^n) of B = DI - L, keyed by g's rows and B's loops:
        # past n only L's own recurrence runs
        key = (g.adjacency(), _loops(g))
        assert exact._walk_cache[key] == tuple(dense_loop_padded_traces(g, g.n)), g
    # each table is counted once, as B with its loops, never as g's walks.  Two graphs are
    # regular, so their B is A, loop-free and bipartite, and is counted as a half matrix
    # M = BB^T (exact._half_matrix) less its common diagonal: K_2 = star(2) as the 1 x 1
    # matrix (1) on colour 0 less I, no row entries and no loop; gnp(3, 0.35, 1303),
    # edgeless, as the empty matrix on colour 1
    assert gnp(3, 0.35, 1303).size == 0
    want = [(g.adjacency(), _loops(g)) for g in graphs]
    want[graphs.index(star(2))] = (((),), ())
    want[graphs.index(gnp(3, 0.35, 1303))] = ((), ())
    assert counted_engine == want


def test_laplacian_traces_of_the_largest_admitted_star_take_its_closed_form(monkeypatch):
    # the Laplacian spectrum of star(n) is 0, 1 (n - 2 times), n.  star(107) is the largest
    # star the price admits to order n; B's n - 1 loops are counted as a diagonal, not as
    # n(n-1) row entries at every order.  Smaller stars are checked by the dense oracle above
    monkeypatch.setattr(exact, "_walk_cache", type(exact._walk_cache)())
    n = 107
    start = time.perf_counter()
    assert list(laplacian_traces(star(n), n + 3).traces) == [n - 2 + n**r for r in range(1, n + 4)]
    assert time.perf_counter() - start < 1.0


def test_laplacian_traces_far_past_n_count_and_cache_only_n_orders_of_b(monkeypatch):
    # star(12) to order 5180 is admitted by the price of all 5180 orders of B, but B is
    # counted and cached to order n only; L's recurrence gives the rest, tr(L^r) = n - 2 + n^r
    monkeypatch.setattr(exact, "_walk_cache", type(exact._walk_cache)())
    n, max_r = 12, 5180
    assert list(laplacian_traces(star(n), max_r).traces) == [n - 2 + n**r for r in range(1, max_r + 1)]
    assert [len(sums) for sums in exact._walk_cache.values()] == [n]


def test_padded_rows_price_a_star_by_its_n_times_max_degree_arcs(monkeypatch):
    # star(n)'s B = DI - L holds n(n-1) entries, its 2(n-1) arcs and (n-1)(n-2) loops
    assert exact.check_table_price(star(107).adjacency(), _loops(star(107)), 107) == 66_770_568
    with pytest.raises(WorkBudgetError):
        exact.check_table_price(star(108).adjacency(), _loops(star(108)), 108)
    # refused from the entry count, before anything is counted
    monkeypatch.setattr(exact, "_packed_walks", _no_walks)
    for n in (150, 20_000):
        g = star(n)
        start = time.perf_counter()
        with pytest.raises(WorkBudgetError):
            laplacian_traces(g, n)
        assert time.perf_counter() - start < 1.0, n


@pytest.fixture
def counted_engine(monkeypatch):
    """An empty walk cache, and the (rows, loops) the walk engine is started on, in order."""
    monkeypatch.setattr(exact, "_walk_cache", type(exact._walk_cache)())
    started = []
    engine = exact._packed_walks

    def counted(rows, loops):
        started.append((rows, loops))
        return engine(rows, loops)

    monkeypatch.setattr(exact, "_packed_walks", counted)
    return started


def _no_walks(*args):
    raise AssertionError("the walk engine ran")


def test_walk_generator_prices_its_packed_phase_before_any_row(monkeypatch):
    # C_5000's packed rows would take about n^2/2 bytes; w_1..w_n are priced at
    # 2500 * 5000^2 * 4 integer operations, far over the budget
    monkeypatch.setattr(exact, "_packed_walks", _no_walks)
    walker = iter_closed_walk_counts(cycle(5000))
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError, match="budget"):
        next(walker)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("g", [named_graph("petersen"), named_graph("paper-bipartite"), cycle(150)], ids=repr)
def test_cached_walk_prefixes_equal_a_fresh_count(counted_engine, g):
    n = g.n
    # the generator's n-table and its recurrence, counted once; then an empty cache again
    fresh = tuple(islice(iter_closed_walk_counts(g), 2 * n + 5))
    exact._walk_cache.clear()
    counted_engine.clear()
    # below, at and past order n; a shorter prefix is extended, a longer one is sliced
    for max_k in (5, 3, n, n, 2 * n + 5, 4, n + 1):
        assert closed_walk_counts(g, max_k).counts == fresh[:max_k], max_k
    # orders 5 and n are counted; 2n + 5 extends the n-prefix by the recurrence,
    # and every other call is a hit
    assert len(counted_engine) == 2


def test_identification_generator_and_tables_start_the_engine_once(counted_engine):
    g = named_graph("petersen")
    assert identify_complexity(g) == 2048000
    assert tuple(islice(iter_closed_walk_counts(g), 2 * g.n)) == closed_walk_counts(g, 2 * g.n).counts
    assert counted_engine == [(g.adjacency(), ())]


class _Interrupted(BaseException):
    """Stands for a deadline that fires inside a count."""


def test_an_interrupted_count_caches_nothing(monkeypatch, counted_engine):
    g = named_graph("paper-h")
    engine = exact._packed_walks

    def interrupted(rows, loops):
        yield from islice(engine(rows, loops), 2)
        raise _Interrupted

    monkeypatch.setattr(exact, "_packed_walks", interrupted)
    for read in (lambda: closed_walk_counts(g, 6), lambda: next(iter_closed_walk_counts(g))):
        with pytest.raises(_Interrupted):
            read()
        assert (g.adjacency(), ()) not in exact._walk_cache
    monkeypatch.setattr(exact, "_packed_walks", engine)
    assert list(closed_walk_counts(g, 6).counts) == dense_closed_walks(g, 6)


def test_walk_cache_keeps_the_most_recent_graphs_only(counted_engine):
    cap = exact._WALK_CACHE_GRAPHS
    graphs = [cycle(n) for n in range(5, 5 + cap + 3)]
    for g in graphs[:cap]:
        closed_walk_counts(g, 4)
    closed_walk_counts(graphs[0], 4)  # a hit makes graphs[0] the most recent
    for g in graphs[cap:]:
        closed_walk_counts(g, 4)
    assert len(exact._walk_cache) == cap
    recent = [*graphs[4:cap], graphs[0], *graphs[cap:]]  # least recent first
    assert list(exact._walk_cache) == [(g.adjacency(), ()) for g in recent]  # keyed by the matrix counted
    # the hit started no count.  An even cycle C_2m is counted as its half matrix M = BB^T
    # on the even vertices (exact._half_matrix) less its common diagonal 2I: C_m's rows,
    # with no loops
    half = {2 * m: (cycle(m).adjacency(), ()) for m in range(3, 8)}
    assert half[6] == (((1, 2), (0, 2), (0, 1)), ())
    assert counted_engine == [half.get(g.n, (g.adjacency(), ())) for g in graphs]


def test_walk_cache_is_keyed_on_labels(counted_engine):
    g = cycle(7)
    relabelled = Graph(7, frozenset(((3 * u) % 7, (3 * v) % 7) for u, v in g.edges))
    assert closed_walk_counts(g, 6) == closed_walk_counts(relabelled, 6)
    assert closed_walk_counts(Graph(7, g.edges), 6) == closed_walk_counts(g, 6)
    assert counted_engine == [(g.adjacency(), ()), (relabelled.adjacency(), ())]


def test_refusals_come_before_the_walk_cache(monkeypatch, counted_engine):
    g = named_graph("petersen")
    closed_walk_counts(g, 5)
    monkeypatch.setattr(exact, "_packed_walks", _no_walks)
    with pytest.raises(WorkBudgetError):
        closed_walk_counts(g, 200_000)
    with pytest.raises(ValueError):
        closed_walk_counts(g, 0)
    with pytest.raises(DirectedUnsupportedError):
        closed_walk_counts(Graph(3, frozenset({(0, 1), (1, 2), (2, 0)}), directed=True), 2)
    assert closed_walk_counts(g, 5).counts == (0, 30, 0, 150, 120)


def test_bound_tables_share_one_walk_prefix(monkeypatch, counted_engine):
    g = named_graph("paper-bipartite")
    want = (thm3_bounds(g, 3, 4), thm2_lower(g, 6), triangle_count(g), evaluate_series(g, 8))
    closed_walk_counts(g, 20)
    # a table recounted by any path, public or private, fails from here on
    monkeypatch.setattr(exact, "iter_closed_walk_counts", _no_walks)
    monkeypatch.setattr(exact, "_packed_walks", _no_walks)
    assert (thm3_bounds(g, 3, 4), thm2_lower(g, 6), triangle_count(g), evaluate_series(g, 8)) == want
    assert laplacian_traces(g, 30).traces == tuple(direct_laplacian_traces(g, 30))
    assert list(exact._walk_cache) == [(g.adjacency(), ())]  # B = DI - L of a regular graph has no loops


def _random_bipartite(a: int, b: int, p: float, seed: int) -> Graph:
    """Each pair of left vertex in 0..a-1 and right vertex in a..a+b-1 an edge with probability p."""
    rng = random.Random(seed)
    return Graph(a + b, frozenset((u, a + v) for u in range(a) for v in range(b) if rng.random() < p))


_BIPARTITE_CASES = {
    "single vertex": Graph(1),
    "edgeless": Graph(5),
    "K_2": star(2),
    "star": star(9),
    "unbalanced complete": complete_bipartite(2, 7),
    "complete, half matrix at order n": complete_bipartite(8, 8),
    "even cycle": cycle(12),
    "path": path(7),
    "regular circulant": circulant(20, (1, 3)),
    "random regular": random_regular_bipartite(20, 3, seed=5),
    "random regular, relabelled": _relabelled(random_regular_bipartite(20, 3, seed=5), 1),
    "irregular": _random_bipartite(6, 9, 0.4, 31),
    "irregular, relabelled": _relabelled(_random_bipartite(6, 9, 0.4, 31), 2),
    "disconnected, isolated vertices": Graph(11, frozenset({(0, 1), (1, 2), (4, 5), (5, 6), (6, 7), (7, 4)})),
}


def _walks_of_length_two(rows, members):
    """(rows, loops) of M = BB^T on the class `members`: j != v once per walk v - l - j, loop deg v."""
    idx = {v: i for i, v in enumerate(members)}
    half = tuple(tuple(sorted(idx[j] for l in rows[v] for j in rows[l] if j != v)) for v in members)
    return half, tuple((idx[v], len(rows[v])) for v in members if rows[v])


def _less_common_diagonal(rows, loops):
    """(rows, loops) of M - cI, c the least diagonal entry of M, from its dense diagonal."""
    diagonal = [dict(loops).get(v, 0) for v in range(len(rows))]
    least = min(diagonal, default=0)
    return rows, tuple((v, c - least) for v, c in enumerate(diagonal) if c != least)


@pytest.mark.parametrize("name", sorted(_BIPARTITE_CASES))
def test_bipartite_tables_from_the_half_matrix_match_the_packed_adjacency_and_dense_powers(
    name, counted_engine
):
    # three oracles of one another: A's own packed count, dense powers of A, and the
    # half matrix M = BB^T that the door counts instead (p_2k = 2 tr M^k, odd p_k = 0)
    g = _BIPARTITE_CASES[name]
    rows, n = g.adjacency(), g.n
    dense = dense_closed_walks(g, 2 * n + 3)
    assert list(exact._packed_walks(rows, ())) == dense[:n]
    assert exact._table_plan(rows, (), n, 0)[1] is not None  # the price takes M' at order n
    for count in (1, 2, 3, n, n + 1, 2 * n + 3):  # below, at and past n
        exact._walk_cache.clear()
        counted_engine.clear()
        members = exact._table_plan(rows, (), count, 0)[1]
        if members is not None:
            assert exact._bipartite_sums(rows, members, min(count, n)) == tuple(dense[: min(count, n)])
            counted_engine.clear()
        assert exact._power_sum_table(rows, (), count) == tuple(dense[:count]), count
        # one engine start per table, on the matrix the plan priced: M less the smallest
        # entry of its diagonal, or A; a table of one order has no even sum and starts
        # nothing.  A repeat is a hit
        want = [(rows, ())]
        if members is not None:
            want = [_less_common_diagonal(*_walks_of_length_two(rows, members))] if min(count, n) > 1 else []
        assert counted_engine == want, count
        assert exact._power_sum_table(rows, (), count) == tuple(dense[:count])
        assert counted_engine == want
        # the cache key and the stored prefix are A's
        assert list(exact._walk_cache) == [(rows, ())]


def test_half_matrix_rows_repeat_a_vertex_once_per_walk_and_loop_on_degrees():
    # the path 0 - 1 - ... - 5 on colour 0, {0, 2, 4}: M = BB^T joins 0 - 2 and 2 - 4, one
    # walk each, and its diagonal is the degrees 1, 2, 2; delta = 1 is split off, and M'
    # keeps a loop of 1 at the two inner vertices.  On colour 1, {1, 3, 5}, the same
    p6 = path(6).adjacency()
    assert exact._half_matrix(p6, [0, 2, 4]) == (((1,), (0, 2), (1,)), ((1, 1), (2, 1)), 1)
    assert exact._half_matrix(p6, [1, 3, 5]) == (((1,), (0, 2), (1,)), ((0, 1), (1, 1)), 1)
    # C_4: each even vertex reaches the other by two walks, through 1 and through 3, and
    # the diagonal 2I is all split off
    assert exact._half_matrix(cycle(4).adjacency(), [0, 2]) == (((1, 1), (0, 0)), (), 2)
    # the star's one centre: a 1 x 1 matrix whose degree is all delta
    assert exact._half_matrix(star(9).adjacency(), [0]) == (((),), (), 8)
    # the isolated vertex 4 shares colour 0 with the claw's centre: an empty row, delta = 0
    claw = Graph(5, frozenset({(0, 1), (0, 2), (0, 3)}))
    assert exact._half_matrix(claw.adjacency(), [0, 4]) == (((), ()), ((0, 3),), 0)
    # and an empty class is the empty matrix
    assert exact._half_matrix(Graph(1).adjacency(), []) == ((), (), 0)


def test_the_plan_chooses_the_cheaper_class_and_colour_0_on_a_tie():
    def chosen(g):
        return exact._table_plan(g.adjacency(), (), g.n, 0)[1]

    # path(6): both classes have 4 row entries and 2 loops, and colour 0 wins the tie;
    # on path(5) colour 1, {1, 3}, has fewer rows and fewer walks of length two
    assert chosen(path(6)) == [0, 2, 4]
    assert chosen(path(5)) == [1, 3]
    # the star's centre is a 1 x 1 matrix of 0 once its degree is split off
    assert chosen(star(9)) == [0]
    # odd cycles and loops have no half matrix
    assert chosen(cycle(9)) is None
    assert exact._table_plan(star(9).adjacency(), _loops(star(9)), 9, 0)[1] is None


@pytest.mark.parametrize("a, b", [(11, 11), (11, 13)])
def test_dense_complete_bipartite_tables_keep_the_adjacency(a, b, counted_engine):
    # M's rows hold every walk of length two: on K_(a,b) with large sides that is more to
    # count than A itself, so the price keeps A
    g = complete_bipartite(a, b)
    rows, n = g.adjacency(), g.n
    assert exact._table_plan(rows, (), n, 0) == (exact._table_price(n, 2 * a * b, n), None)
    assert closed_walk_counts(g, n).counts == tuple(dense_closed_walks(g, n))
    assert counted_engine == [(rows, ())]


def test_k10_10_prices_its_half_matrix_by_its_entries_and_their_writing(counted_engine):
    # K_10,10 at order n: M' = BB^T - 10I, 10 rows of 10 * 9 entries and no loops, is priced
    # at 5 * 10 * (900 + 20) + 900 = 46 900 operations against A's 48 000.  This pins the
    # price, not a speed: the packed count of M' here is no faster than A's
    g = complete_bipartite(10, 10)
    assert exact.check_table_price(g.adjacency(), (), g.n) == 46_900
    assert exact._table_price(g.n, 2 * 100, g.n) == 48_000
    assert closed_walk_counts(g, g.n).counts == tuple(dense_closed_walks(g, g.n))


def test_k30_30_keeps_the_adjacency_by_its_price():
    # A's 60 orders on 60 rows of 1800 entries against 30 orders of M' on 30 rows of
    # 30 * 30 * 29 entries and no loops, plus those entries written, either side
    assert exact._table_plan(complete_bipartite(30, 30).adjacency(), (), 60, 0) == (3_456_000, None)
    assert exact._table_price(60, 2 * 900, 60) == 3_456_000
    assert exact._table_price(30, 30 * 30 * 29, 30) + 30 * 30 * 29 == 11_798_100


def _star_centre_last(n: int) -> Graph:
    return Graph(n, frozenset((v, n - 1) for v in range(n - 1)))


@pytest.mark.parametrize("name", ["star(4000), centre last", "K_255,255"])
def test_one_order_of_a_large_bipartite_graph_builds_no_half_matrix(name, monkeypatch, counted_engine):
    # one order needs no even power.  Each table here is priced and chosen from integers
    # alone: no half matrix larger than A is built or counted, whichever class is coloured 0
    g = _star_centre_last(4000) if name.startswith("star") else complete_bipartite(255, 255)
    built, build = [], exact._half_matrix

    def recorded(*args):
        half = build(*args)
        built.append(half[:2])
        return half

    monkeypatch.setattr(exact, "_half_matrix", recorded)
    start = time.perf_counter()
    assert closed_walk_counts(g, 1).counts == (0,)
    assert time.perf_counter() - start < 0.25
    assert closed_walk_counts(g, 2).counts == (0, 2 * g.size)
    for rows, loops in built + counted_engine:
        assert sum(map(len, rows)) + sum(c for _, c in loops) <= 2 * g.size


@pytest.mark.parametrize("n", [4000, 20_000])
def test_a_star_to_order_n_is_refused_at_once(n, monkeypatch):
    # the centre's M' is the 1 x 1 matrix 0: its one sum is shifted by delta = n - 1 and
    # M = (n - 1) is continued past that one row to m = n/2 orders, integers of up to
    # m bit_length(n) bits: the plan prices them on m rows, not on the centre's one
    monkeypatch.setattr(exact, "_packed_walks", _no_walks)
    monkeypatch.setattr(exact, "_half_matrix", _no_walks)
    g = _star_centre_last(n)
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError):
        closed_walk_counts(g, n)
    assert time.perf_counter() - start < 1.0


def test_star_813_is_the_largest_star_admitted_to_order_n():
    # its centre's M' to m = 406 orders is priced at ceil(m/2) m (0 + 2m) = 66 923 416;
    # A's walks are w_2k = 2 (n-1)^k and odd w_k = 0
    g = star(813)
    start = time.perf_counter()
    want = tuple(0 if k % 2 else 2 * 812 ** (k // 2) for k in range(1, 814))
    assert closed_walk_counts(g, 813).counts == want
    assert time.perf_counter() - start < 1.0
    assert exact.check_table_price(g.adjacency(), (), 813) == 66_923_416
    with pytest.raises(WorkBudgetError):
        exact.check_table_price(star(814).adjacency(), (), 814)


def test_a_hit_that_the_adjacency_admits_runs_no_colouring(monkeypatch, counted_engine):
    coloured, colouring = [], exact._two_colouring

    def recorded(rows):
        coloured.append(len(rows))
        return colouring(rows)

    monkeypatch.setattr(exact, "_two_colouring", recorded)
    g = cycle(150)
    closed_walk_counts(g, g.n)  # a miss: the plan colours C_150 to choose M'
    for count in (5, g.n, 2 * g.n):  # hits that A's own price admits
        closed_walk_counts(g, count)
    # C_150's B = 2I - L is A: its Laplacian traces read the same entry, below and past n;
    # tr L = sum of degrees, tr L^2 = sum of squared degrees plus 2|E|
    for max_r in (5, g.n, 2 * g.n):
        assert laplacian_traces(g, max_r).traces[:2] == (2 * g.n, 6 * g.n)
    assert coloured == [150]
    # C_62 to order 4376 is admitted only by the price of its M', so a hit is coloured too
    closed_walk_counts(cycle(62), 4376)
    closed_walk_counts(cycle(62), 4376)
    assert coloured == [150, 62, 62]
    assert len(counted_engine) == 2


def test_identification_counts_a_bipartite_rung_on_its_half_matrix(counted_engine):
    # C_40(1, 3) is 4-regular and bipartite: its n walk orders are n/2 orders of M on the
    # 20 even vertices, counted as M - 4I, and Newton's identities still give elimination's count
    g = circulant(40, (1, 3))
    assert identify_complexity(g) == spanning_tree_count(complement(g))
    [(half, loops)] = counted_engine
    assert len(half) == 20 and loops == ()
    assert all(len(row) == 12 for row in half)  # 16 walks of length two, 4 of them back to v


def test_a_regular_bipartite_table_counts_its_half_matrix_with_no_loops(counted_engine):
    # C_40(1, 3)'s M = BB^T has 4 on its whole diagonal: the engine starts on M - 4I,
    # 20 rows of the 12 other ends of walks of length two and no loops
    g = circulant(40, (1, 3))
    assert closed_walk_counts(g, 2 * g.n + 3).counts == tuple(dense_closed_walks(g, 2 * g.n + 3))
    [(half, loops)] = counted_engine
    assert len(half) == 20 and all(len(row) == 12 for row in half) and loops == ()


def test_an_irregular_half_matrix_keeps_the_loops_above_its_least_degree(counted_engine):
    # path(6) is counted on {0, 2, 4}, of degrees 1, 2, 2: M = I + M', and M' keeps a loop
    # of 1 at the two inner vertices
    g = path(6)
    assert closed_walk_counts(g, g.n).counts == tuple(dense_closed_walks(g, g.n))
    assert counted_engine == [(((1,), (0, 2), (1,)), ((1, 1), (2, 1)))]


def test_a_half_matrix_with_an_empty_row_is_counted_unchanged(monkeypatch, counted_engine):
    # the isolated vertex 4 shares the claw's centre's class: its row has no loop, so the
    # common diagonal is 0, M itself is counted and its sums are shifted back by 0
    shift, shifts = exact._shifted_sums, []

    def recorded(delta, sums, count):
        shifts.append(delta)
        return shift(delta, sums, count)

    monkeypatch.setattr(exact, "_shifted_sums", recorded)
    claw = Graph(5, frozenset({(0, 1), (0, 2), (0, 3)}))
    assert closed_walk_counts(claw, 9).counts == tuple(dense_closed_walks(claw, 9))
    assert counted_engine == [(((), ()), ((0, 3),))]
    assert shifts == [0]


@pytest.mark.parametrize("delta", [0, 1, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_shifted_sums_equal_dense_traces_of_the_shifted_matrix(delta, m):
    # p_k(delta I + X) from p_0..p_k of X, to orders past the order m of X
    rng = random.Random(100 * m + delta)
    for _ in range(3):
        x = [[rng.randint(-3, 4) for _ in range(m)] for _ in range(m)]
        shifted = [[a + delta * (i == j) for j, a in enumerate(row)] for i, row in enumerate(x)]
        orders = 2 * m + 3
        assert exact._shifted_sums(delta, [m, *dense_power_traces(x, orders)], orders) == dense_power_traces(shifted, orders)
