"""Exact integer engines against brute-force oracles and frozen values."""

from __future__ import annotations

import ast
import random
from itertools import product
from math import comb
from pathlib import Path

import pytest

import spanwalk
from spanwalk import (
    DirectedUnsupportedError,
    Graph,
    RegularityRequiredError,
    closed_walk_counts,
    complement,
    iter_closed_walk_counts,
    laplacian_traces,
    named_graph,
    random_regular,
    random_regular_bipartite,
    spanning_tree_count,
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
    dense_closed_walks,
    dfs_closed_walks,
    direct_laplacian_traces,
    gnp,
    kirchhoff_tree_count,
    path,
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
    monkeypatch.setattr(exact, "_bareiss_determinant", lambda matrix: fake)
    with pytest.raises(ExactInvariantError):
        spanning_tree_count(g)


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
    "disconnected union": Graph(
        10, frozenset({(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (7, 8)})
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
        assert table.degree == d
        assert table.trace(1) == n * d
        assert table.trace(2) == n * (d * d + d)
        assert table.trace(3) == n * d**2 * (d + 3) - 6 * triangle_count(g)


def test_laplacian_traces_frozen_value():
    assert laplacian_traces(named_graph("paper-h"), 3).trace(3) == 522


def test_laplacian_traces_high_orders_cross_check():
    for idx, (n, d) in enumerate([(6, 2), (8, 3), (10, 3), (12, 4)]):
        g = random_regular(n, d, seed=7000 + idx)
        table = laplacian_traces(g, 8)
        assert list(table.traces) == direct_laplacian_traces(g, 8)


def test_laplacian_traces_requires_regular():
    with pytest.raises(RegularityRequiredError):
        laplacian_traces(path(4), 2)
