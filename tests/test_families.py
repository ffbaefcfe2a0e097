"""Bundled graphs, the triangle-minimal family, and seeded random generators."""

from __future__ import annotations

import random
import time
from collections import Counter, deque
from itertools import combinations
from pathlib import Path

import mpmath
import pytest

from spanwalk import (
    WorkBudgetError,
    bipartition,
    complement,
    g_family,
    is_connected,
    laplacian_traces,
    named_graph,
    random_regular,
    random_regular_bipartite,
    regular_degree,
    spanning_tree_count,
    to_edge_list_text,
    triangle_count,
)
from spanwalk import families
from oracles import brute_force_triangles, shuffle_random_regular, shuffle_random_regular_bipartite

GOLDEN = Path(__file__).parent / "golden"


def _girth(g) -> int:
    # shortest cycle through BFS from every vertex
    nbrs = g.neighbor_sets()
    best = 0
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle_len = dist[u] + dist[w] + 1
                    if best == 0 or cycle_len < best:
                        best = cycle_len
    return best


def test_petersen_structure():
    g = named_graph("petersen")
    assert g.n == 10 and g.size == 15
    assert regular_degree(g) == 3
    assert triangle_count(g) == 0
    assert _girth(g) == 5
    assert is_connected(g)


def test_paper_h_structure():
    g = named_graph("paper-h")
    assert g.n == 10 and g.size == 15
    assert regular_degree(g) == 3
    assert triangle_count(g) == 3
    assert laplacian_traces(g, 3).trace(3) == 522
    assert spanning_tree_count(complement(g)) == 2080524


def test_paper_bipartite_structure():
    g = named_graph("paper-bipartite")
    assert g.n == 10 and g.size == 15
    assert regular_degree(g) == 3
    parts = bipartition(g)
    assert parts is not None
    assert sorted(map(len, parts)) == [5, 5]


def test_named_graph_rejects_unknown_names():
    assert families.NAMED_GRAPHS == ("petersen", "paper-h", "paper-bipartite")
    with pytest.raises(ValueError, match=r"unknown graph name .*\['petersen', 'paper-h', 'paper-bipartite'\]$"):
        named_graph("heawood")


def test_named_graphs_match_golden_edge_lists():
    for name in ("petersen", "paper-h", "paper-bipartite"):
        frozen = (GOLDEN / f"{name}.txt").read_text()
        assert to_edge_list_text(named_graph(name)) == frozen, name


def test_g_family_invariants():
    for k in range(2, 7):
        for l in range(k):
            g = g_family(k, l)
            assert g.n == 4 * k + 2 * l + 1, (k, l)
            assert regular_degree(g) == 2 * k, (k, l)
            assert triangle_count(g) == k * (k - l - 1), (k, l)
            assert triangle_count(g) == brute_force_triangles(g), (k, l)


def test_g_family_parameter_validation():
    with pytest.raises(ValueError):
        g_family(2, 2)
    with pytest.raises(ValueError):
        g_family(1, 3)
    with pytest.raises(ValueError):
        g_family(3, -1)


def test_g_family_is_priced_before_any_edge_is_built(monkeypatch):
    # side = 2k + l = 256 is the largest admitted: 256^2 = _MAX_FAMILY_PAIRS
    g = g_family(100, 56)
    assert g.n == 513 and regular_degree(g) == 200
    assert g.size == 100 * 513

    def no_edges(k, l):
        raise AssertionError("edges built before the price check")

    monkeypatch.setattr(families, "_g_family_edges", no_edges)
    for k, l in ((100, 57), (129, 0), (10**9, 0)):
        with pytest.raises(WorkBudgetError, match="x-y pairs"):
            g_family(k, l)


def test_random_regular_basic_properties():
    for idx, (n, d) in enumerate([(6, 1), (8, 3), (10, 3), (12, 4), (13, 4), (9, 0)]):
        g = random_regular(n, d, seed=42 + idx)
        assert g.n == n
        assert regular_degree(g) == d, (n, d)


def test_random_regular_determinism():
    a = random_regular(12, 3, seed=7)
    b = random_regular(12, 3, seed=7)
    c = random_regular(12, 3, seed=8)
    assert a == b
    assert a != c  # overwhelmingly likely for distinct seeds; frozen here


def test_random_regular_forced_outcomes_and_errors(monkeypatch):
    assert random_regular(4, 3, seed=0).size == 6  # only K_4 is 3-regular on 4 vertices
    with pytest.raises(ValueError, match="even"):
        random_regular(5, 3, seed=0)
    with pytest.raises(ValueError):
        random_regular(4, 4, seed=0)
    # with no price and a budget of one attempt's stubs, a draw gets one attempt
    monkeypatch.setattr(families, "_check_pairing_price", lambda n, d, bipartite: None)
    monkeypatch.setattr(families, "_MAX_PAIRING_WORK", 60)
    # a 5-regular pairing on 12 vertices is simple in about e^-6.9 of its attempts
    with pytest.raises(WorkBudgetError, match="^no simple 5-regular pairing on 12 vertices in 1 attempts of 60 stubs$"):
        random_regular(12, 5, seed=0)
    # a bipartite 4-regular pairing on 40 vertices repeats a pair in most attempts; it shuffles 80 right stubs
    monkeypatch.setattr(families, "_MAX_PAIRING_WORK", 80)
    with pytest.raises(
        WorkBudgetError, match="^no simple bipartite 4-regular pairing on 40 vertices in 1 attempts of 80 stubs$"
    ):
        random_regular_bipartite(40, 4, seed=1)


def test_a_slow_seed_draws_within_the_budget_of_stub_placements():
    # seed 977 needs 224 819 attempts at (14, 6), where about 30 200 are the mean and the
    # price expects 22 800; the budget allows 2^26 // 84 = 798 915 attempts of 84 stubs
    assert families._MAX_PAIRING_WORK // (14 * 6) == 798_915
    assert regular_degree(random_regular(14, 6, 977)) == 6


def test_the_shuffle_reads_the_words_rng_shuffle_reads():
    # a word drawn too many or too few leaves another state; lengths just past
    # a power of two, such as 65 and 129, redraw most often
    for seed in (0, 1, 7, 2**64 + 3):
        ours, theirs = random.Random(seed), random.Random(seed)
        for length in range(301):
            x, y = list(range(length)), list(range(length))
            families._shuffle(x, families._shuffle_plan(length), ours.getrandbits)
            theirs.shuffle(y)
            assert (x, ours.getstate()) == (y, theirs.getstate()), (seed, length)
        x, y, plan = list(range(129)), list(range(129)), families._shuffle_plan(129)
        for _ in range(3):  # a sampler reshuffles the previous attempt's order
            families._shuffle(x, plan, ours.getrandbits)
            theirs.shuffle(y)
        assert (x, ours.getstate()) == (y, theirs.getstate()), seed


def test_samplers_draw_the_graphs_rng_shuffle_draws():
    # every seed gives the graph of the rng.shuffle sampler: sparse, through
    # the complement, and bipartite up to (40, 4); (13, 6) and (14, 6) are the
    # largest bench draws, at the bench's seeds
    cases = [(n, d, seed) for n in range(2, 13) for d in range(n) if n * d % 2 == 0 for seed in (0, 1)]
    cases += [(13, 6, 1016), (14, 6, 1019), (9, 6, 2), (14, 8, 4)]
    for n, d, seed in cases:
        assert random_regular(n, d, seed) == shuffle_random_regular(n, d, seed), (n, d, seed)
    for n in range(2, 41, 2):
        for d in range(min(n // 2, 4) + 1):
            for seed in (0, 1):
                g = random_regular_bipartite(n, d, seed)
                assert g == shuffle_random_regular_bipartite(n, d, seed), (n, d, seed)


def test_seeded_graphs_match_the_stored_edge_lists():
    # the edge lists the bounds transcript reads, pinned to the seeds that drew them
    for stem, make, args in (
        ("rr-12-2-1", random_regular, (12, 2, 1)),
        ("rr-20-3-1", random_regular, (20, 3, 1)),
        ("rrb-20-3-1", random_regular_bipartite, (20, 3, 1)),
        ("rrb-30-4-2", random_regular_bipartite, (30, 4, 2)),
    ):
        assert to_edge_list_text(make(*args)) == (GOLDEN / "bounds" / f"{stem}.txt").read_text(), stem


def test_samplers_check_the_vertex_count_before_laying_out_stubs():
    # at d = 0 no price refuses a huge n; the samplers once ran range(n) out
    # before Graph refused it, for hours at n = 2^40
    for make in (random_regular, random_regular_bipartite):
        start = time.perf_counter()
        with pytest.raises(WorkBudgetError, match="over the budget of 1048576 vertices"):
            make(2**40, 0, 1)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="vertex count must be an int"):
        random_regular(True, 0, 1)


def test_dense_random_regulars_are_drawn_from_the_sparser_side():
    # drawn by 6-regular rejection, (8, 6) and (9, 6) would run for seconds;
    # drawn at degrees 1 and 2 they return at once
    for n, d, seed in ((8, 6, 2), (9, 6, 2)):
        start = time.perf_counter()
        assert regular_degree(random_regular(n, d, seed)) == d
        assert time.perf_counter() - start < 0.1, (n, d)
    for n, d, seed in ((8, 6, 2), (9, 6, 2), (6, 5, 0), (12, 9, 3), (14, 8, 4)):
        g = random_regular(n, d, seed)
        assert regular_degree(g) == d
        assert g == complement(random_regular(n, n - 1 - d, seed))
    with pytest.raises(WorkBudgetError, match="8-regular pairing on 100 vertices"):
        random_regular(100, 91, 1)  # priced at the degree drawn, 100 - 1 - 91


def _two_regular_graphs_on_six() -> list[frozenset]:
    """The 70 labelled 2-regular graphs on 6 vertices: 60 hexagons and 10 pairs of triangles."""
    pairs = list(combinations(range(6), 2))
    found = []
    for edges in combinations(pairs, 6):
        if all(sum(v in e for e in edges) == 2 for v in range(6)):
            found.append(frozenset(edges))
    return found


def test_random_regular_is_uniform_on_both_sides():
    # chi-square over the 70 labelled 2-regular graphs on 6 vertices, drawn by
    # pairing (d = 2), and over their 70 complements, drawn as complements of
    # 2-regular draws (d = 3 > (n-1)/2); seeds fixed before the first run
    two_regular = _two_regular_graphs_on_six()
    assert len(two_regular) == 70
    pairs = frozenset(combinations(range(6), 2))
    draws = 7000  # 100 expected per graph
    for d, cells, seeds in (
        (2, two_regular, range(draws)),
        (3, [pairs - edges for edges in two_regular], range(draws, 2 * draws)),
    ):
        counts = Counter(random_regular(6, d, s).edges for s in seeds)
        assert set(counts) <= set(cells), d
        expected = draws / len(cells)
        chi2 = sum((counts[c] - expected) ** 2 / expected for c in cells)
        p_value = mpmath.gammainc((len(cells) - 1) / 2, chi2 / 2, mpmath.inf, regularized=True)
        assert p_value > 1e-6, (d, chi2)


def test_random_regular_is_priced_before_the_first_shuffle(monkeypatch):
    # the largest tier-1 and bench inputs, (13, 6) and (14, 6), price about
    # 2.0e6 and 1.9e6 expected stub placements: admitted below 2^22
    for n, d in ((13, 6), (14, 6), (6, 5), (2000, 3)):
        families._check_pairing_price(n, d, bipartite=False)
    families._check_pairing_price(14, 5, bipartite=True)

    def no_sampler(seed):
        raise AssertionError("sampler seeded before the price check")

    monkeypatch.setattr(families.random, "Random", no_sampler)
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError, match="8-regular pairing on 100 vertices"):
        random_regular(100, 8, 1)
    assert time.perf_counter() - start < 1.0
    # the price stays in the log domain: no degree raises OverflowError
    for n, d in ((2000, 1000), (2 * 10**400, 10**400), (2_000_000, 3)):
        with pytest.raises(WorkBudgetError):
            random_regular(n, d, 1)
    # a 5-regular draw is admitted, but its complement's 1 994 000 edges are not
    with pytest.raises(WorkBudgetError, match="1994000 edges"):
        random_regular(2000, 1994, 1)
    for n, d in ((100, 10), (2 * 10**400, 10**400)):
        with pytest.raises(WorkBudgetError, match="bipartite"):
            random_regular_bipartite(n, d, 1)


def test_random_regular_bipartite_properties():
    for idx, (n, d) in enumerate([(6, 2), (8, 3), (10, 3), (12, 3), (14, 4)]):
        g = random_regular_bipartite(n, d, seed=100 + idx)
        assert g.n == n
        assert regular_degree(g) == d
        assert bipartition(g) is not None, (n, d)
    assert random_regular_bipartite(10, 2, seed=5) == random_regular_bipartite(10, 2, seed=5)


def test_random_regular_bipartite_validation():
    with pytest.raises(ValueError):
        random_regular_bipartite(7, 2, seed=0)
    with pytest.raises(ValueError):
        random_regular_bipartite(8, 5, seed=0)
