"""Threshold-spreading dynamics: step operator, synchrony index, p_k / e_k sweeps."""

from __future__ import annotations

import io
import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from spanwalk import (
    Graph,
    SynchronyOutcome,
    WorkBudgetError,
    fixed_point,
    measure_synchrony,
    named_graph,
    random_regular,
    spread_step,
    synchrony_index,
)
from spanwalk import cli, synchrony
from spanwalk.graph import _depths
from oracles import (
    circulant,
    complete,
    cycle,
    directed_gnp,
    gnp,
    path,
    spread_limit,
    spread_once,
    synchrony_sweep,
)


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
    # C(40, 20) = 137 846 528 820 subsets: over a million blocks of 104 857 lanes
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


def _oracle_cases():
    graphs = [Graph(6), complete(5), cycle(7)]
    graphs += [gnp(n, p, 900 + n) for n in (5, 7, 9) for p in (0.3, 0.6)]
    graphs += [directed_gnp(n, p, 950 + n) for n in (5, 7, 9) for p in (0.25, 0.5)]
    for g in graphs:
        top = max(map(len, g.in_neighbor_sets()))
        for t in sorted({1, 2, 3, top + 1}):
            yield g, t


@pytest.mark.parametrize("g,t", list(_oracle_cases()), ids=repr)
def test_exhaustive_sweeps_match_the_per_seed_oracle(g, t):
    for k in range(1, g.n + 1):
        out = measure_synchrony(g, t=t, k=k)
        histogram, stalled = synchrony_sweep(g, t, combinations(range(g.n), k))
        assert (out.i_star_histogram, out.non_synchronizing) == (histogram, stalled), k
        assert list(out.i_star_histogram) == sorted(out.i_star_histogram)
    assert measure_synchrony(g, t=t, k=g.n).i_star_histogram == {0: 1}


@pytest.mark.parametrize("g", [gnp(9, 0.4, 31), directed_gnp(8, 0.45, 32)], ids=repr)
def test_monte_carlo_sweeps_match_the_per_seed_oracle(g):
    for t, k, seed64 in ((1, 2, 5), (2, 3, 6), (2, 4, -7)):
        out = measure_synchrony(g, t=t, k=k, mode="monte-carlo", samples=700, seed64=seed64)
        rng = random.Random(seed64 & 0xFFFFFFFFFFFFFFFF)
        draws = [rng.sample(range(g.n), k) for _ in range(700)]
        assert (out.i_star_histogram, out.non_synchronizing) == synchrony_sweep(g, t, draws)


def _drawn_subsets(monkeypatch, n, k, samples, seed64):
    """The vertex sets of every Monte Carlo lane of a sweep on Graph(n), in lane order."""
    drawn = []

    def recorded(*args):
        for x, lanes in sampled_blocks(*args):
            drawn.extend({v for v in range(n) if x[v] >> s & 1} for s in range(lanes))
            yield x, lanes

    sampled_blocks = synchrony._sampled_blocks
    monkeypatch.setattr(synchrony, "_sampled_blocks", recorded)
    measure_synchrony(Graph(n), t=1, k=k, mode="monte-carlo", samples=samples, seed64=seed64)
    return drawn


# random.sample keeps a pool up to setsize = 21 (k <= 5) or 21 + 4^ceil(log4(3k))
# (85 at k = 6) vertices and a set of chosen vertices past it: both sides of
# both switch points, k = 1, k = n and a negative seed.
@pytest.mark.parametrize(
    "n,k,seed64,lanes",
    [(21, 5, 3, None), (22, 5, 4, None), (85, 6, 5, None), (86, 6, 6, None), (86, 6, 7, 64),
     (17, 5, 8, 24), (40, 1, 9, None), (12, 12, 10, None), (30, 9, -11, None), (300, 7, -12, 100)],
)
def test_monte_carlo_draws_are_random_sample_draw_for_draw(monkeypatch, n, k, seed64, lanes):
    if lanes is not None:  # several blocks
        monkeypatch.setattr(synchrony, "_MAX_BLOCK_BITS", n * lanes)
    samples = 777
    rng = random.Random(seed64 & 0xFFFFFFFFFFFFFFFF)
    want = [set(rng.sample(range(n), k)) for _ in range(samples)]
    assert _drawn_subsets(monkeypatch, n, k, samples, seed64) == want


def _in_degree_zero():
    """A 4-cycle with a path out of it, entered from 6 by an arc from 7, which no arc enters."""
    arcs = {(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (6, 0), (7, 6)}
    return Graph(8, frozenset(arcs), directed=True)


@pytest.mark.parametrize(
    "g", [directed_gnp(8, 0.3, 71), gnp(8, 0.3, 72), _in_degree_zero(), path(7)], ids=repr
)
def test_one_or_rounds_at_t1_match_the_per_seed_oracle(g):
    for bits in range(1 << g.n):
        seed = [v for v in range(g.n) if bits >> v & 1]
        assert spread_step(g, seed, 1) == spread_once(g, seed, 1)
        assert fixed_point(g, seed, 1) == spread_limit(g, seed, 1)
        histogram, stalled = synchrony_sweep(g, 1, [seed])
        assert synchrony_index(g, seed, 1) == (math.inf if stalled else next(iter(histogram)))


def test_a_vertex_with_no_in_neighbour_is_not_live_at_t1():
    g = _in_degree_zero()
    assert [v for v, _ in synchrony._live_sources(g, 1)] == [0, 1, 2, 3, 4, 5, 6]
    assert spread_step(g, {7}, 1) == {6, 7}
    assert fixed_point(g, {0}, 1) == {0, 1, 2, 3, 4, 5}
    assert synchrony_index(g, {0}, 1) == math.inf


def _exhaustive_blocks(n, k):
    """The blocks an exhaustive sweep of the k-subsets of range(n) builds, at the current block size."""
    per_block = synchrony._MAX_BLOCK_BITS // n
    return list(synchrony._exhaustive_blocks(n, k, synchrony._prefix_length(n, k, per_block), per_block))


def test_exhaustive_lanes_follow_combinations_order():
    # one block: groups by smallest vertex, descending, each in combinations order
    for n in range(1, 9):
        for k in range(1, n + 1):
            (lanes, count), = _exhaustive_blocks(n, k)
            subsets = [s for p in reversed(range(n)) for s in combinations(range(n), k) if s[0] == p]
            assert count == len(subsets)
            for v in range(n):
                assert lanes[v] == sum(1 << s for s, subset in enumerate(subsets) if v in subset)


# Outcomes of three fixed-seed Monte Carlo runs under the one-seed-at-a-time
# engine: the bit-sliced sweep draws the same samples, so it must reproduce
# them exactly.
_MONTE_CARLO_PINS = [
    (
        named_graph("petersen"), 2, 3, 20_000, 20251018,
        SynchronyOutcome(
            k=3, t=2, mode="monte-carlo", samples=20000, p_k=0.168, e_k=0.056,
            p_k_stderr=0.002643633862697329, e_k_stderr=0.0008812333186741355,
            i_star_histogram={3: 3360}, non_synchronizing=16640,
        ),
    ),
    (
        directed_gnp(9, 0.5, 8101), 2, 3, 4000, 77,
        SynchronyOutcome(
            k=3, t=2, mode="monte-carlo", samples=4000, p_k=0.089, e_k=0.037875,
            p_k_stderr=0.004502193909640055, e_k_stderr=0.0019556632928869563,
            i_star_histogram={2: 197, 3: 159}, non_synchronizing=3644,
        ),
    ),
    (
        circulant(24, (1, 2)), 2, 6, 5000, 2**64 - 5,
        SynchronyOutcome(
            k=6, t=2, mode="monte-carlo", samples=5000, p_k=1.0, e_k=0.19028460317460316,
            p_k_stderr=0.0, e_k_stderr=0.0006365062667382338,
            i_star_histogram={3: 102, 4: 1077, 5: 1389, 6: 1191, 7: 941, 8: 296, 9: 4},
            non_synchronizing=0,
        ),
    ),
]


@pytest.mark.parametrize("g,t,k,samples,seed64,want", _MONTE_CARLO_PINS, ids=["petersen", "directed", "circ24"])
def test_monte_carlo_outcomes_are_pinned(g, t, k, samples, seed64, want):
    assert measure_synchrony(g, t=t, k=k, mode="monte-carlo", samples=samples, seed64=seed64) == want


def test_monte_carlo_over_its_price_exits_2_at_once(monkeypatch):
    def no_draws(n, k, samples, rng):
        raise AssertionError("seeds drawn before the price check")

    monkeypatch.setattr(synchrony, "_sampled_blocks", no_draws)
    argv = ["synchrony", "--named", "petersen", "--t", "2", "--k", "3", "--mode", "mc", "--samples", "1000000000", "--seed", "1"]
    out = io.StringIO()
    start = time.perf_counter()
    code = cli.run(argv, out)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert '"code": "work-budget"' in out.getvalue()


def _no_sweeping(monkeypatch):
    def fail(*args):
        raise AssertionError("seeds built or rounds run before the price check")

    for name in ("_one_lane", "_exhaustive_blocks", "_sampled_blocks", "_sweep", "_round"):
        monkeypatch.setattr(synchrony, name, fail)


# Refused before any seed is built: exhaustive k = 1 on cycle(3000) took
# 8 to 28 s before every loop over rounds paid a price; the last two cost far
# past 2^64, and a refusal prints no huge int.
_OVER_THE_PRICE = {
    "exhaustive": (cycle(3000), lambda g: measure_synchrony(g, t=1, k=1)),
    "exhaustive-half": (Graph(50_000), lambda g: measure_synchrony(g, t=1, k=25_000)),
    "monte-carlo-huge": (named_graph("petersen"), lambda g: measure_synchrony(g, 2, 3, "monte-carlo", 10**5000, 1)),
}


@pytest.mark.parametrize("name", _OVER_THE_PRICE)
def test_sweeps_over_the_price_are_refused_at_once(monkeypatch, name):
    g, call = _OVER_THE_PRICE[name]
    _no_sweeping(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError, match="monte-carlo" if name.startswith("exhaustive") else "budget") as info:
        call(g)
    assert time.perf_counter() - start < 1.0
    assert len(str(info.value)) < 200


# Refused by the meter part way through their rounds: (graph, call, cost of
# building the seeds, blocks).  A round on a cycle costs 3n.
_OVER_THE_METER = {
    "monte-carlo": (
        cycle(2000),
        lambda g: measure_synchrony(g, t=1, k=1, mode="monte-carlo", samples=4000, seed64=1),
        4000 * (1 + 2000),
        2,
    ),
    "synchrony_index": (cycle(4000), lambda g: synchrony_index(g, [0], 1), 4000, 1),
    "fixed_point": (cycle(4000), lambda g: fixed_point(g, [0], 1), 4000, 1),
}


@pytest.mark.parametrize("name", _OVER_THE_METER)
def test_metered_refusals_charge_at_most_one_round_past_the_budget(monkeypatch, name):
    g, call, seed_work, blocks = _OVER_THE_METER[name]
    round_work = 3 * g.n  # n, plus two in-neighbours of each of the n live vertices
    calls = []
    real_round = synchrony._round

    def counted(*args):
        calls.append(None)
        return real_round(*args)

    monkeypatch.setattr(synchrony, "_round", counted)
    with pytest.raises(WorkBudgetError, match=r"lane-int operations; the budget is 8388608$") as info:
        call(g)
    charged = int(re.search(r"is charged (\d+) ", str(info.value)).group(1))
    assert synchrony._MAX_SWEEP_WORK < charged <= synchrony._MAX_SWEEP_WORK + round_work
    # the rounds run fit the budget, and only the refused round and the
    # prepaid first rounds of blocks not yet started go uncounted
    done = seed_work + len(calls) * round_work
    assert done <= synchrony._MAX_SWEEP_WORK < done + blocks * round_work
    assert charged == done + blocks * round_work


def test_exhaustive_half_subsets_are_refused_before_the_binomial(monkeypatch):
    # C(2^18, 2^17) alone takes about a second to compute; 2^min(k, n - k) bounds it below
    g = Graph(2**18)
    _no_sweeping(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError, match="use monte-carlo mode") as info:
        measure_synchrony(g, 1, 2**17)
    assert time.perf_counter() - start < 0.2
    assert len(str(info.value)) < 200


def test_exhaustive_cli_on_200000_vertices_exits_2_at_once(monkeypatch, tmp_path):
    path = tmp_path / "isolated200000.txt"
    path.write_text("200000\n")
    _no_sweeping(monkeypatch)
    out = io.StringIO()
    start = time.perf_counter()
    code = cli.run(["synchrony", "--edge-list", str(path), "--t", "1", "--k", "1"], out)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    error = json.loads(out.getvalue())["error"]
    assert error["code"] == "work-budget" and "monte-carlo" in error["message"]


def test_one_seed_price_is_tight_on_a_path(monkeypatch):
    # from one end of a path, round i turns on vertex i: synchrony_index runs
    # n - 1 rounds and fixed_point one more that changes nothing, each costing
    # n + 2(n - 1).  A stand-in round makes the same states without the work.
    def next_vertex(live, t, x):
        nxt = x[:]
        if 0 in x:
            nxt[x.index(0)] = 1
        return nxt

    small = path(40)
    x = synchrony._one_lane(small, [0])
    for _ in range(41):
        assert next_vertex(None, 1, x) == synchrony._round(synchrony._live_sources(small, 1), 1, x)
        x = next_vertex(None, 1, x)
    monkeypatch.setattr(synchrony, "_round", next_vertex)
    # charged 1672 + 1671·5014 = 8 380 066 and 1672 + 1672·5014 = 8 385 080
    assert synchrony_index(path(1672), [0], 1) == 1671
    assert len(fixed_point(path(1672), [0], 1)) == 1672
    for f in (synchrony_index, fixed_point):  # 1673 + 1672·5017 passes 2^23 at the last round
        with pytest.raises(WorkBudgetError, match="is charged 8390097 "):
            f(path(1673), [0], 1)


def test_one_seed_at_the_end_of_path_1672_reaches_every_vertex():
    # its 1672 rounds fit the budget, though |live| + 1 = 1673 rounds would not
    g = path(1672)
    assert synchrony_index(g, [0], 1) == 1671
    assert fixed_point(g, [0], 1) == frozenset(range(1672))


def test_sparse_monte_carlo_at_t2_is_admitted():
    # |live| + 1 = 1101 rounds would pass the budget, but no sample spreads,
    # so the one block stops after one round
    out = measure_synchrony(random_regular(1100, 3, 1), t=2, k=3, mode="monte-carlo", samples=10, seed64=1)
    assert out.non_synchronizing == 10 and out.i_star_histogram == {}


def test_breadth_bound_covers_every_round_at_t1(monkeypatch):
    graphs = [gnp(n, p, 700 + n) for n in (6, 9, 12) for p in (0.15, 0.3)] + [cycle(9), path(7), Graph(5)]
    rounds = []
    real_round = synchrony._round

    def counted(*args):
        rounds[-1] += 1
        return real_round(*args)

    monkeypatch.setattr(synchrony, "_round", counted)
    for g in graphs:
        most = 2 * max(_depths(g.adjacency())) + 1
        seeds = [[v] for v in range(g.n)] + [[0, g.n - 1], list(range(0, g.n, 3))]
        for seed in seeds:
            rounds.append(0)
            fixed_point(g, seed, 1)
            assert rounds[-1] <= most, (g, seed)
        for k in (1, 2):  # one block of every k-subset
            rounds.append(0)
            measure_synchrony(g, t=1, k=k)
            assert rounds[-1] <= most, (g, k)


def test_sparse_graphs_at_t1_are_priced_by_breadth():
    # |live| + 1 = 2001 rounds of 8000 would refuse one seed; a breadth-first
    # search bounds them by twice its depth, and the real rounds are fewer still
    g = random_regular(2000, 3, 1)
    assert 2 * max(_depths(g.adjacency())) < 40
    start = time.perf_counter()
    assert measure_synchrony(g, t=1, k=1, mode="monte-carlo", samples=3000, seed64=1).p_k == 1.0
    assert measure_synchrony(g, t=1, k=1).p_k == 1
    assert synchrony_index(g, [0], 1) < 20 and len(fixed_point(g, [0], 1)) == 2000
    assert time.perf_counter() - start < 5.0


def test_exhaustive_seed_building_is_priced_by_its_groups():
    # k = n - 1 with 2047 lanes a block: r = 2, so C(n - k + r, r) = 3 groups, not C(n, 2)
    out = measure_synchrony(Graph(2049), t=1, k=2048)
    assert out.samples == 2049 and out.non_synchronizing == 2049


def test_monte_carlo_cli_bytes_are_pinned():
    argv = ["synchrony", "--named", "paper-h", "--t", "2", "--k", "4", "--mode", "mc", "--samples", "3000", "--seed", "7"]
    out = io.StringIO()
    assert cli.run(argv, out) == 0
    assert out.getvalue() == (
        '{\n  "e_k": 0.18583333333333332,\n  "e_k_stderr": 0.0037246357326344423,\n'
        '  "i_star_histogram": {\n    "2": 511,\n    "3": 906\n  },\n  "k": 4,\n'
        '  "mode": "monte-carlo",\n  "non_synchronizing": 1583,\n  "p_k": 0.47233333333333333,\n'
        '  "p_k_stderr": 0.0091147235386041837,\n  "samples": 3000,\n  "t": 2\n}\n'
    )
    out = io.StringIO()
    assert cli.run(argv + ["--format", "csv"], out) == 0
    assert out.getvalue() == "i_star,count\n2,511\n3,906\ninf,1583\n"


@pytest.mark.parametrize(
    "g,t,k",
    [(circulant(12, (1, 2)), 2, 4), (directed_gnp(9, 0.5, 8101), 2, 3), (gnp(9, 0.4, 33), 1, 6)],
    ids=repr,
)
def test_small_blocks_give_the_unblocked_outcomes(monkeypatch, g, t, k):
    mc = dict(mode="monte-carlo", samples=1001, seed64=404)
    whole = measure_synchrony(g, t=t, k=k), measure_synchrony(g, t=t, k=k, **mc)
    monkeypatch.setattr(synchrony, "_MAX_BLOCK_BITS", 64)
    assert (measure_synchrony(g, t=t, k=k), measure_synchrony(g, t=t, k=k, **mc)) == whole
    # the blocks still hold every k-subset exactly once
    blocks = _exhaustive_blocks(g.n, k)
    assert len(blocks) > 1
    seen = [
        tuple(v for v in range(g.n) if lanes[v] >> s & 1)
        for lanes, count in blocks
        for s in range(count)
    ]
    assert sorted(seen) == list(combinations(range(g.n), k))


def test_blocks_pack_consecutive_prefix_groups(monkeypatch):
    # 60 lanes a block: one prefix vertex (r = 1), groups of C(m, 2) = 1, 3, 6, ..., 55 lanes
    n, k = 12, 3
    g = random_regular(n, 3, 12)
    whole = measure_synchrony(g, t=2, k=k)
    monkeypatch.setattr(synchrony, "_MAX_BLOCK_BITS", n * 60)
    blocks = _exhaustive_blocks(n, k)
    assert [count for _, count in blocks] == [1 + 3 + 6 + 10 + 15 + 21, 28, 36, 45, 55]
    seen = [
        tuple(v for v in range(n) if lanes[v] >> s & 1)
        for lanes, count in blocks
        for s in range(count)
    ]
    # prefix vertices descending, each group's subsets in combinations order
    assert seen == [s for p in reversed(range(n)) for s in combinations(range(n), k) if s[0] == p]
    assert measure_synchrony(g, t=2, k=k) == whole


def test_large_exhaustive_sweeps_stay_in_bounded_memory():
    tracemalloc.start()
    try:
        out = measure_synchrony(Graph(2000), t=1, k=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.samples == 1_999_000 and out.non_synchronizing == 1_999_000
    assert peak < 64 * 2**20, peak


def test_exhaustive_sweep_near_the_budget(monkeypatch):
    g = random_regular(28, 4, 5)
    start = time.perf_counter()
    out = measure_synchrony(g, t=2, k=7)  # C(28, 7) = 1 184 040 subsets, in several blocks
    assert time.perf_counter() - start < 2.0
    assert len(_exhaustive_blocks(28, 7)) > 1
    assert out.samples == 1_184_040
    monkeypatch.setattr(synchrony, "_MAX_BLOCK_BITS", 28 * 1_184_040)
    assert len(_exhaustive_blocks(28, 7)) == 1
    assert measure_synchrony(g, t=2, k=7) == out


def test_huge_threshold_needs_no_counter_per_unit_of_t():
    petersen = named_graph("petersen")
    start = time.perf_counter()
    outs = [measure_synchrony(petersen, t=10**9, k=k) for k in range(1, 11)]
    assert time.perf_counter() - start < 1.0
    assert [out.p_k for out in outs] == [0] * 9 + [1]
    assert outs[-1].i_star_histogram == {0: 1}
    assert spread_step(petersen, {0, 1, 2}, 10**9) == frozenset({0, 1, 2})
    assert synchrony_index(petersen, range(9), 10**9) == math.inf
