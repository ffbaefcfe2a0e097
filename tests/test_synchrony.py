"""Threshold-spreading dynamics: step operator, synchrony index, p_k / e_k sweeps."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import pytest

from spanwalk import (
    Graph,
    WorkBudgetError,
    fixed_point,
    measure_synchrony,
    named_graph,
    spread_step,
    synchrony_index,
)
from oracles import complete, cycle, gnp, path


def test_spread_step_examples():
    k4 = complete(4)
    assert spread_step(k4, {0}, 1) == frozenset({0, 1, 2, 3})
    assert spread_step(k4, {0}, 2) == frozenset({0})
    c6 = cycle(6)
    assert spread_step(c6, {0, 2}, 2) == frozenset({0, 1, 2})
    assert spread_step(c6, {0, 2}, 1) == frozenset({0, 1, 2, 3, 5})
    p4 = path(4)
    assert spread_step(p4, set(), 1) == frozenset()


def test_spread_step_directed_uses_in_neighbors():
    g = Graph(3, frozenset({(0, 1), (1, 2)}), directed=True)
    assert spread_step(g, {0}, 1) == frozenset({0, 1})
    assert spread_step(g, {2}, 1) == frozenset({2})  # no arc into 0 or 1 from 2


def test_spread_step_validation():
    with pytest.raises(ValueError):
        spread_step(complete(3), {0}, 0)
    with pytest.raises(ValueError):
        spread_step(complete(3), {5}, 1)


def test_fixed_point_monotone_in_seed_and_stable():
    for seed in range(8):
        g = gnp(7, 0.4, 3000 + seed)
        for t in (1, 2):
            for a_bits in range(0, 128, 11):
                a = frozenset(v for v in range(7) if (a_bits >> v) & 1)
                fa = fixed_point(g, a, t)
                assert a <= fa
                assert fixed_point(g, fa, t) == fa  # idempotent
                b = a | {min(set(range(7)) - a)} if a != frozenset(range(7)) else a
                assert fa <= fixed_point(g, b, t)


def test_synchrony_index_examples():
    k5 = complete(5)
    assert synchrony_index(k5, {0}, 1) == 1
    assert synchrony_index(k5, set(range(5)), 1) == 0
    c6 = cycle(6)
    assert synchrony_index(c6, {0}, 2) == math.inf
    assert synchrony_index(c6, {0, 2, 4}, 2) == 1
    assert synchrony_index(c6, {0, 1}, 1) == 2
    assert synchrony_index(path(3), {1}, 1) == 1


def test_synchrony_index_counts_rounds_exactly():
    p5 = path(5)
    assert synchrony_index(p5, {0}, 1) == 4
    assert synchrony_index(p5, {2}, 1) == 2


def test_exhaustive_measures_on_small_graphs():
    out = measure_synchrony(cycle(4), t=2, k=2)
    assert out.p_k == Fraction(1, 3)
    assert out.e_k == Fraction(1, 3)
    assert out.i_star_histogram == {1: 2}
    assert out.non_synchronizing == 4
    assert out.samples == 6
    assert out.p_k_stderr is None and out.e_k_stderr is None

    out = measure_synchrony(complete(5), t=1, k=1)
    assert out.p_k == 1
    assert out.e_k == 1
    assert out.i_star_histogram == {1: 5}

    out = measure_synchrony(cycle(6), t=2, k=1)
    assert out.p_k == 0
    assert out.e_k == 0
    assert out.non_synchronizing == 6


def test_full_seed_counts_as_index_zero():
    out = measure_synchrony(cycle(4), t=2, k=4)
    assert out.p_k == 1
    assert out.e_k == 1  # 1/i* contributes 1 when i* = 0
    assert out.i_star_histogram == {0: 1}


def test_petersen_single_seed_sweep():
    out = measure_synchrony(named_graph("petersen"), t=1, k=1)
    assert out.p_k == 1
    assert out.e_k == Fraction(1, 2)
    assert out.i_star_histogram == {2: 10}


def test_exhaustive_budget():
    # C(40, 20) = 137 846 528 820 subsets, far past EXHAUSTIVE_BUDGET
    with pytest.raises(WorkBudgetError, match="monte-carlo"):
        measure_synchrony(Graph(40), t=1, k=20)


def test_measure_validation():
    with pytest.raises(ValueError):
        measure_synchrony(cycle(4), t=1, k=0)
    with pytest.raises(ValueError):
        measure_synchrony(cycle(4), t=1, k=5)
    with pytest.raises(ValueError):
        measure_synchrony(cycle(4), t=1, k=2, mode="monte-carlo")
    with pytest.raises(ValueError):
        measure_synchrony(cycle(4), t=1, k=2, mode="monte-carlo", samples=10)
    with pytest.raises(ValueError):
        measure_synchrony(cycle(4), t=1, k=2, mode="guess")


def test_monte_carlo_matches_exhaustive_within_four_stderr():
    g = cycle(4)
    exact = measure_synchrony(g, t=2, k=2)
    for seed in (1, 2, 3):
        mc = measure_synchrony(g, t=2, k=2, mode="monte-carlo", samples=10_000, seed64=seed)
        assert abs(mc.p_k - float(exact.p_k)) <= 4 * mc.p_k_stderr, seed
        assert abs(mc.e_k - float(exact.e_k)) <= 4 * mc.e_k_stderr, seed


def test_monte_carlo_agreement_rate_over_many_seeds():
    g = gnp(8, 0.35, 77)
    exact = measure_synchrony(g, t=2, k=3)
    hits = 0
    runs = 40
    for seed in range(runs):
        mc = measure_synchrony(g, t=2, k=3, mode="monte-carlo", samples=2000, seed64=seed)
        if (
            abs(mc.p_k - float(exact.p_k)) <= 4 * max(mc.p_k_stderr, 1e-9)
            and abs(mc.e_k - float(exact.e_k)) <= 4 * max(mc.e_k_stderr, 1e-9)
        ):
            hits += 1
    assert hits >= runs - 1  # agreement within 4 standard errors in at least 39 of 40 runs


def test_monte_carlo_determinism():
    # a graph with a spread-out index distribution, so that two different seed
    # streams are overwhelmingly unlikely to produce identical aggregates
    g = gnp(8, 0.35, seed=77)
    a = measure_synchrony(g, t=1, k=2, mode="monte-carlo", samples=1500, seed64=99)
    b = measure_synchrony(g, t=1, k=2, mode="monte-carlo", samples=1500, seed64=99)
    assert a == b
    c = measure_synchrony(g, t=1, k=2, mode="monte-carlo", samples=1500, seed64=100)
    assert a != c


def test_threshold_monotonicity_exhaustive():
    # raising t can only shrink p_k and e_k
    for seed in range(6):
        g = gnp(7, 0.45, 600 + seed)
        for k in (1, 3):
            outs = [measure_synchrony(g, t=t, k=k) for t in (1, 2, 3)]
            assert outs[0].p_k >= outs[1].p_k >= outs[2].p_k
            assert outs[0].e_k >= outs[1].e_k >= outs[2].e_k


def test_seed_monotonicity_of_synchrony_index():
    # adding seeds never hurts: supersets synchronize at least as fast
    for seed in range(6):
        g = gnp(6, 0.5, 700 + seed)
        for t in (1, 2):
            indices = {}
            for k in range(1, 7):
                for subset in combinations(range(6), k):
                    indices[frozenset(subset)] = synchrony_index(g, subset, t)
            for a, ia in indices.items():
                for b, ib in indices.items():
                    if a < b and ia != math.inf:
                        assert ib != math.inf and ib <= ia, (a, b, t)
