"""Exact integer engines against brute-force oracles and frozen values."""

from __future__ import annotations

import ast
import random
import time
from itertools import islice, product
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
    circulant,
    complete,
    complete_bipartite,
    cycle,
    deletion_contraction_tree_count,
    dense_bareiss_determinant,
    dense_closed_walks,
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

    assert price(n) == -(-n // 2) * n * n * (d + 2)
    assert price(n - 1) == -(-(n - 1) // 2) * n * n * (d + 2)
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
    # each table is counted once, as B with its loops, never as g's walks
    assert counted_engine == [(g.adjacency(), _loops(g)) for g in graphs]


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
    engine = exact._power_sums

    def counted(rows, loops):
        started.append((rows, loops))
        return engine(rows, loops)

    monkeypatch.setattr(exact, "_power_sums", counted)
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
    # below, at and past order n; a shorter prefix is extended, a longer one is sliced
    fresh = tuple(islice(iter_closed_walk_counts(g), 2 * n + 5))
    for max_k in (5, 3, n, n, 2 * n + 5, 4, n + 1):
        assert closed_walk_counts(g, max_k).counts == fresh[:max_k], max_k
    # the fresh count, then orders 5 and n; 2n + 5 extends the n-prefix by the recurrence,
    # and every other call is a hit
    assert len(counted_engine) == 3


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
    assert counted_engine == [(g.adjacency(), ()) for g in graphs]  # the hit started no count


def test_walk_cache_is_keyed_on_labels(counted_engine):
    g = cycle(7)
    relabelled = Graph(7, frozenset(((3 * u) % 7, (3 * v) % 7) for u, v in g.edges))
    assert closed_walk_counts(g, 6) == closed_walk_counts(relabelled, 6)
    assert closed_walk_counts(Graph(7, g.edges), 6) == closed_walk_counts(g, 6)
    assert counted_engine == [(g.adjacency(), ()), (relabelled.adjacency(), ())]


def test_refusals_come_before_the_walk_cache(monkeypatch, counted_engine):
    g = named_graph("petersen")
    closed_walk_counts(g, 5)
    monkeypatch.setattr(exact, "_power_sums", _no_walks)
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
