"""Bound families against frozen values, exact counts, and each other."""

from __future__ import annotations

import math
import time
from math import comb, exp, log

import pytest

import mpmath

from spanwalk import (
    BipartiteRequiredError,
    Graph,
    RegularityRequiredError,
    complement,
    named_graph,
    prop1_lower,
    prop2_lower,
    random_regular,
    random_regular_bipartite,
    spanning_tree_count,
    thm2_lower,
    thm3_bounds,
    triangle_count,
)
from oracles import complete_bipartite, cycle


def _cocktail_party(pairs: int) -> Graph:
    """Complement of a perfect matching on 2*pairs vertices."""
    matching = Graph(2 * pairs, frozenset((2 * i, 2 * i + 1) for i in range(pairs)))
    return complement(matching)


def test_prop1_boundary_is_exact_for_degree_n_minus_1():
    r = prop1_lower(10, 9)
    assert r.preconditions_ok
    assert abs(r.linear_value - 10**8) < 1e-3
    assert abs(r.log_value - 8 * log(10)) < 1e-12


def test_prop1_frozen_value_and_dominance():
    r = prop1_lower(10, 8)
    assert r.preconditions_ok
    assert abs(r.linear_value - 3.1804258e7) < 2e2
    # the cocktail-party graph is 8-regular on 10 vertices
    exact = spanning_tree_count(_cocktail_party(5))
    assert exact == 32768000
    assert r.linear_value <= exact


def test_prop1_precondition_failure():
    r = prop1_lower(10, 6)
    assert not r.preconditions_ok
    assert "12 >= n = 10" in r.reason
    assert r.log_value is None and r.linear_value is None
    with pytest.raises(ValueError):
        prop1_lower(10, 10)


def test_prop1_sandwich_against_exact_counts():
    # build d-regular graphs as complements of sparse ones, since the
    # precondition forces d close to n - 1
    for idx, (n, d) in enumerate([(10, 8), (10, 9), (12, 10), (9, 8), (14, 12), (12, 9), (14, 11)]):
        r = prop1_lower(n, d)
        assert r.preconditions_ok, (n, d)
        sparse_degree = n - 1 - d
        if sparse_degree == 0:
            g = complement(Graph(n))  # the complete graph itself
        else:
            g = complement(random_regular(n, sparse_degree, seed=8800 + idx))
        exact = spanning_tree_count(g)
        assert r.linear_value <= exact * (1 + 1e-12), (n, d)


def test_thm2_frozen_example_values():
    r = thm2_lower(named_graph("paper-h"), 3)
    assert r.preconditions_ok
    assert abs(r.log_value - 14.31436) < 1e-4
    assert abs(r.linear_value - 1646819.29) < 1.0
    assert r.parameters["y"] == pytest.approx(0.8051748, abs=1e-7)


def test_thm2_edgeless_graph_reaches_complete_count():
    # all traces vanish: the bound collapses to exactly n^(n-2)
    r = thm2_lower(Graph(8), 2)
    assert r.preconditions_ok
    assert abs(r.linear_value - 8**6) < 1e-6


def test_thm2_precondition():
    r = thm2_lower(named_graph("petersen"), 2)
    assert not r.preconditions_ok  # tr(L^2) = 120 >= 100
    assert "120" in r.reason
    r = thm2_lower(named_graph("petersen"), 3)
    assert r.preconditions_ok
    assert r.linear_value <= 2048000


def test_thm2_requires_regular_and_sane_m():
    from oracles import path

    with pytest.raises(RegularityRequiredError):
        thm2_lower(path(4), 2)
    with pytest.raises(ValueError):
        thm2_lower(cycle(6), 1)


def test_thm2_dominance_on_random_regulars():
    for idx, (n, d, m) in enumerate([(9, 2, 2), (10, 3, 3), (12, 3, 4), (11, 2, 3), (14, 3, 2)]):
        g = random_regular(n, d, seed=5100 + idx)
        r = thm2_lower(g, m)
        if r.preconditions_ok:
            assert r.linear_value <= spanning_tree_count(complement(g)) * (1 + 1e-12), (n, d, m)


def test_prop2_frozen_example_values():
    r = prop2_lower(10, 6, 27)
    assert r.preconditions_ok
    assert r.parameters["s"] == pytest.approx(0.8051748, abs=1e-7)
    assert abs(r.log_value - 14.31436) < 1e-4
    assert abs(r.linear_value - 1646819.29) < 1.0


def test_prop2_matches_thm2_through_the_trace_identity():
    # for the bundled graph, tr(L^3) of the original equals the cube argument
    # of prop2 applied to the complement, so the two bounds coincide
    r2 = thm2_lower(named_graph("paper-h"), 3)
    rp = prop2_lower(10, 6, 27)
    assert rp.log_value == pytest.approx(r2.log_value, abs=1e-12)
    # prop1 and prop2 on G = complement(H) are thm2 at m = 2 and 3 on H, with
    # H's traces in closed form, so the two evaluations agree exactly
    for n in range(6, 61, 3):
        for d0 in range(min(5, n - 1) + 1):
            if n * d0 % 2:
                continue
            for seed in (1, 2):
                h = random_regular(n, d0, seed)
                g = complement(h)
                pairs = (
                    (prop1_lower(n, n - 1 - d0), thm2_lower(h, 2)),
                    (prop2_lower(n, n - 1 - d0, triangle_count(g)), thm2_lower(h, 3)),
                )
                for closed, traced in pairs:
                    cell = (n, d0, seed, closed.name)
                    assert closed.preconditions_ok == traced.preconditions_ok, cell
                    if closed.preconditions_ok:
                        assert closed.log_value == traced.log_value, cell
                        assert closed.linear_value == traced.linear_value, cell


def test_prop2_petersen_complement():
    r = prop2_lower(10, 6, 30)
    assert r.preconditions_ok
    assert r.parameters["s"] == pytest.approx(0.8143253, abs=1e-6)
    assert r.linear_value <= 2048000


def test_prop2_preconditions():
    r = prop2_lower(10, 3, 3)
    assert not r.preconditions_ok and "s >= 1" in r.reason
    with pytest.raises(ValueError):
        prop2_lower(10, 3, -1)


def test_prop2_complement_triangle_identity_feeds_consistent_inputs():
    # inequality form: feeding (n, n-1-d, complement triangles) into prop2
    # must equal building the cube argument from the graph's own data
    for idx, (n, d) in enumerate([(10, 3), (12, 4), (9, 2)]):
        g = random_regular(n, d, seed=9100 + idx)
        tri = triangle_count(g)
        tri_c = triangle_count(complement(g))
        assert tri + tri_c == comb(n, 3) - n * d * (n - 1 - d) // 2
        r = prop2_lower(n, n - 1 - d, tri_c)
        if r.preconditions_ok:
            assert r.linear_value <= spanning_tree_count(complement(g)) * (1 + 1e-12)


def test_thm3_frozen_table():
    # (m, k) -> (lower, upper) rounded to integers, frozen from the formulas
    expected = {
        2: (2029504, 2039113),
        3: (2033738, 2034698),
        4: (2033985, 2034111),
        5: (2034007, 2034025),
        6: (2034010, 2034012),
    }
    g = named_graph("paper-bipartite")
    for m, (lo_want, hi_want) in expected.items():
        lo, hi = thm3_bounds(g, m, m)
        assert lo.preconditions_ok and hi.preconditions_ok
        assert abs(lo.linear_value - lo_want) < 2, m
        assert abs(hi.linear_value - hi_want) < 2, m
        assert lo.linear_value <= 2034010 <= hi.linear_value


def test_thm3_upper_tightens_to_the_exact_count():
    g = named_graph("paper-bipartite")
    _, hi = thm3_bounds(g, 7, 7)
    assert abs(hi.linear_value - 2034010) < 3
    # upper bounds decrease monotonically in k
    values = [thm3_bounds(g, 2, k)[1].linear_value for k in range(1, 9)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_thm3_edgeless_graph_is_exact():
    lo, hi = thm3_bounds(Graph(6), 1, 1)
    assert lo.preconditions_ok and hi.preconditions_ok
    assert abs(lo.linear_value - 6**4) < 1e-9
    assert abs(hi.linear_value - 6**4) < 1e-9


def test_thm3_lower_precondition_failure_on_complete_bipartite():
    g = complete_bipartite(5, 5)
    lo, hi = thm3_bounds(g, 1, 1)
    assert not lo.preconditions_ok
    assert "y >= 1" in lo.reason
    assert hi.preconditions_ok
    # upper bound: (n-d)^n / n^2 * exp(-w_2 / (2 (n-d)^2)) = 5^10/100 e^{-1}
    assert abs(hi.linear_value - 5**10 / 100 * exp(-1)) < 1e-6


def test_thm3_requires_regular_bipartite():
    with pytest.raises(BipartiteRequiredError):
        thm3_bounds(named_graph("petersen"), 2, 2)
    from oracles import path

    with pytest.raises(RegularityRequiredError):
        thm3_bounds(path(4), 2, 2)
    with pytest.raises(ValueError):
        thm3_bounds(named_graph("paper-bipartite"), 0, 2)


def test_thm3_sandwich_on_random_bipartite_regulars():
    cases = [(8, 2), (10, 2), (10, 3), (12, 3), (14, 3)]
    for idx, (n, d) in enumerate(cases):
        g = random_regular_bipartite(n, d, seed=7700 + idx)
        exact = spanning_tree_count(complement(g))
        for m in (1, 2, 4):
            lo, hi = thm3_bounds(g, m, m)
            assert exact <= hi.linear_value * (1 + 1e-12), (n, d, m)
            if lo.preconditions_ok:
                assert lo.linear_value <= exact * (1 + 1e-12), (n, d, m)


def test_thm2_at_high_order_is_fast():
    # traces past order n come from the recurrence, not r-term binomial sums
    start = time.perf_counter()
    r = thm2_lower(named_graph("petersen"), 1000)
    assert time.perf_counter() - start < 1.0
    # few distinct Laplacian eigenvalues: at m = 1000 the bound meets t = 2 048 000
    assert r.preconditions_ok
    assert r.log_value == pytest.approx(math.log(2048000), rel=1e-12)


def test_linear_value_is_exp_of_log_value():
    reports = [
        prop1_lower(10, 8),
        thm2_lower(named_graph("paper-h"), 3),
        prop2_lower(10, 6, 27),
        *thm3_bounds(named_graph("paper-bipartite"), 3, 3),
    ]
    for r in reports:
        assert r.preconditions_ok
        assert r.linear_value == pytest.approx(exp(r.log_value), rel=1e-12)
