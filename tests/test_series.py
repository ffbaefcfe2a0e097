"""Series evaluation and exact integer identification."""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from spanwalk import (
    ConvergenceDomainError,
    DirectedUnsupportedError,
    Graph,
    RegularityRequiredError,
    WorkBudgetError,
    closed_walk_counts,
    complement,
    complement_tree_count,
    evaluate_series,
    identify_complexity,
    identify_complexity_report,
    iter_closed_walk_counts,
    named_graph,
    random_regular,
    regular_degree,
    series_term,
    spanning_tree_count,
)
from spanwalk import exact, families, graph, series
from spanwalk.errors import ExactInvariantError
from oracles import (
    circulant,
    complete,
    complete_bipartite,
    cycle,
    exact_series_partial,
    mpf_partial_sums,
    path,
    series_bracket,
)

# Partial sums for the Petersen graph through k = 6, frozen to 5 decimals.
PETERSEN_PARTIALS = (14.85393, 14.54781, 14.54781, 14.53219, 14.53362, 14.53221)


def test_series_term_exact_values():
    assert series_term(10, 3, 30, 2) == float(Fraction(-30, 2 * 49))
    assert series_term(10, 3, 0, 3) == 0.0
    assert series_term(10, 3, 150, 4) == float(Fraction(-150, 4 * 7**4))
    assert series_term(10, 3, 6, 3) == float(Fraction(6, 3 * 343))


def test_series_term_validation():
    with pytest.raises(ValueError):
        series_term(10, 3, 30, 1)
    with pytest.raises(ValueError):
        series_term(3, 3, 0, 2)
    with pytest.raises(ValueError):
        series_term(10, 3, -1, 2)
    with pytest.raises(ValueError, match="k must be an int, got 2.5"):
        series_term(10, 3, 5, 2.5)


def test_series_term_past_the_float_range_is_a_signed_infinity():
    # the nearest double to a quotient past the float range is infinite, where int true division raises OverflowError
    assert series_term(10, 3, 10**400, 2) == -math.inf
    assert series_term(10, 3, 10**400, 3) == math.inf
    assert series_term(10, 3, 0, 2) == 0.0
    assert series_term(10, 3, 2 * 49 * int(sys.float_info.max), 2) == -sys.float_info.max


def _same_float(a: float, b: float) -> bool:
    """Equal, with the sign of a zero compared too."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_series_term_of_a_huge_order_is_a_signed_zero_at_once():
    start = time.perf_counter()
    assert _same_float(series_term(10, 3, 1, 10**9), -0.0)
    assert _same_float(series_term(10, 3, 1, 10**9 + 1), 0.0)
    assert _same_float(series_term(10, 3, 0, 10**9), 0.0)
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("w_k", [1, 2**60])
@pytest.mark.parametrize("nd", [2, 3])
def test_series_term_near_the_zero_threshold_is_the_true_division(w_k, nd):
    # from k = w_k.bit_length() + 1075 on, the term is returned with no power taken
    threshold = w_k.bit_length() + 1075
    for k in range(threshold - 5, threshold + 6):
        want = (w_k if k % 2 else -w_k) / (k * nd**k)
        assert _same_float(series_term(nd + 4, 4, w_k, k), want), k


def test_evaluate_series_petersen_matches_frozen_partials():
    ev = evaluate_series(named_graph("petersen"), 6)
    assert ev.n == 10 and ev.d == 3
    assert len(ev.partials) == 6
    assert len(ev.terms) == 5
    for got, want in zip(ev.partials, PETERSEN_PARTIALS):
        assert abs(got - want) < 5e-5
    assert ev.partials[0] == ev.base
    assert ev.rounding_bound < 1e-12


def test_evaluate_series_converges_to_exact_log():
    ev = evaluate_series(named_graph("petersen"), 30)
    assert abs(ev.partials[-1] - math.log(2048000)) < 1e-6


def test_evaluate_series_base_term():
    # base = ln((n-d)^n / n^2)
    ev = evaluate_series(named_graph("petersen"), 1)
    assert abs(ev.base - math.log(7**10 / 100)) < 1e-12
    assert ev.terms == ()
    assert ev.partials == (ev.base,)


def test_evaluate_series_partials_consistent_with_terms():
    ev = evaluate_series(named_graph("paper-h"), 12)
    for j in range(1, len(ev.partials)):
        rebuilt = ev.base + sum(ev.terms[:j])
        assert abs(ev.partials[j] - rebuilt) < 1e-9


def _series_sweep_graphs():
    for n in range(5, 69, 3):
        for offsets in ((1,), (1, 2), (2, 5), (1, 3, 4)):
            if 4 * max(offsets) < n:  # distinct offsets below n/4: 2d < n
                yield circulant(n, offsets)
    for idx, (n, d) in enumerate([(7, 2), (9, 4), (12, 3), (15, 4), (20, 3), (26, 5), (40, 4)]):
        yield random_regular(n, d, seed=700 + idx)


def test_evaluate_series_partials_match_the_exact_rational_sums():
    # every partial lies within rounding_bound of the exact sum rounded once
    for g in _series_sweep_graphs():
        ev = evaluate_series(g, 90)
        walks = closed_walk_counts(g, 90).counts
        for k, got in enumerate(ev.partials, start=1):
            want = exact_series_partial(g.n, ev.d, walks, k)
            assert abs(got - want) <= ev.rounding_bound, (g, k, got, want)


def test_partial_sums_match_the_mpf_object_oracle():
    # the raw-tuple partial sums are the mpf objects' own, tuple for tuple
    graphs = [circulant(24, (1, 3, 5)), circulant(31, (2, 7)), named_graph("petersen"), cycle(40)]
    graphs += [random_regular(n, d, seed) for n, d, seed in ((16, 3, 1), (21, 4, 2), (40, 6, 3))]
    for g in graphs:
        n, d = g.n, regular_degree(g)
        counts = closed_walk_counts(g, 80).counts
        want = [p._mpf_ for p in mpf_partial_sums(n, d, counts, 80)]
        assert series._partial_sums(n, d, counts, 80) == want, g


def test_evaluate_series_terms_are_series_term():
    # the running power of n - d gives series_term's one correctly rounded division
    g = circulant(62, tuple(range(1, 16)))
    evaluation = evaluate_series(g, 600)
    counts = closed_walk_counts(g, 600).counts
    assert evaluation.terms == tuple(series_term(62, 30, w_k, k) for k, w_k in enumerate(counts[1:], start=2))


@pytest.mark.parametrize("g, max_k", [(named_graph("petersen"), 5180), (cycle(62), 4376)])
def test_evaluate_series_terms_are_series_term_on_the_longest_admitted_tables(g, max_k):
    # each term divides by k (n-d)^k with (n-d)^k carried from the order before; the floats
    # are series_term's, which raises n - d to each power afresh
    n, d = g.n, regular_degree(g)
    terms = evaluate_series(g, max_k).terms
    counts = closed_walk_counts(g, max_k).counts
    assert len(terms) == max_k - 1
    assert terms == tuple(series_term(n, d, w_k, k) for k, w_k in enumerate(counts[1:], start=2))


def test_series_domain_errors():
    with pytest.raises(ConvergenceDomainError):
        evaluate_series(cycle(4), 4)  # 2d = n
    # identification needs no convergence: K_4's complement has no edge, so no spanning tree
    assert identify_complexity(Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}))) == 0
    with pytest.raises(RegularityRequiredError):
        evaluate_series(path(5), 4)
    with pytest.raises(DirectedUnsupportedError):
        evaluate_series(Graph(5, frozenset({(0, 1)}), directed=True), 4)
    with pytest.raises(ValueError):
        evaluate_series(cycle(7), 0)


def test_identify_bundled_graphs():
    assert identify_complexity(named_graph("petersen")) == 2048000
    assert identify_complexity(named_graph("paper-bipartite")) == 2034010
    assert identify_complexity(cycle(5)) == 5


def test_identify_edgeless_graph():
    # complement of the empty graph is complete: n^(n-2) trees
    assert identify_complexity(Graph(7)) == 7**5
    assert identify_complexity(Graph(1)) == 1


def test_identify_report_diagnostics():
    report = identify_complexity_report(named_graph("petersen"))
    assert report.value == 2048000
    assert report.terms_used == 10  # w_1..w_n
    assert report.precision_bits == 0 and report.bracket_width == 0.0


def test_identify_beyond_the_float_range_matches_bareiss():
    # t(complement of C_150) is about 10^321, beyond the float range
    g = cycle(150)
    report = identify_complexity_report(g)
    assert report.value == spanning_tree_count(complement(g))
    assert report.value > 10**320
    assert report.terms_used == 150


def test_identify_fails_fast_on_the_budget_before_counting_walks(monkeypatch):
    def no_walks(rows, loops):
        raise AssertionError("walks counted before the budget check")

    # the price is the walk generator's first step, ahead of the engine
    monkeypatch.setattr(exact, "_packed_walks", no_walks)
    # C_323: 162 * 323^2 * 4 = 67 605 192 > 2^26 operations (C_322 is admitted); C_1000
    # even, by its cheaper M' on 500 rows: 250 * 500 * 2000 + 1000 = 2.5e8;
    # C_401(1..100), d = 200: about 6.5e9
    for g in (cycle(323), cycle(1000), circulant(401, tuple(range(1, 101)))):
        start = time.perf_counter()
        with pytest.raises(WorkBudgetError, match="budget"):
            identify_complexity(g)
        assert time.perf_counter() - start < 1.0


def test_identify_admits_even_cycles_to_c644_and_refuses_c646(monkeypatch):
    # an even cycle's n orders are priced by M' = BB^T - 2I on its n/2 even vertices:
    # ceil(n/4) products of (n/2)(2n) operations, plus the n entries written.  C_644 is
    # 66 773 140 <= 2^26, C_646 is 67 605 838 over it
    g = cycle(644)
    start = time.perf_counter()
    value = identify_complexity(g)
    assert time.perf_counter() - start < 1.0
    assert value == spanning_tree_count(complement(g))

    def no_walks(rows, loops):
        raise AssertionError("walks counted before the budget check")

    monkeypatch.setattr(exact, "_packed_walks", no_walks)
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError, match="67605838"):
        identify_complexity(cycle(646))
    assert time.perf_counter() - start < 1.0


def test_corrupted_walk_counts_raise_a_typed_error(monkeypatch):
    true_walks = closed_walk_counts(named_graph("petersen"), 10).counts

    def corrupt(k, delta):
        walks = list(true_walks)
        walks[k - 1] += delta
        monkeypatch.setattr(series, "iter_closed_walk_counts", lambda g: iter(walks))

    corrupt(2, 1)  # 2 e_2 = -31 is odd: Newton's identity leaves a remainder
    with pytest.raises(ExactInvariantError, match="Newton"):
        identify_complexity(named_graph("petersen"))
    # 10 e_10 carries -w_10, so raising w_10 by 10 m lowers det(7I + A) = 204 800 000 by m
    for m in (1, 204_800_100):  # a remainder mod n^2 = 100; then det = -100
        corrupt(10, 10 * m)
        with pytest.raises(ExactInvariantError, match="nonnegative multiple"):
            identify_complexity(named_graph("petersen"))


def test_identify_matches_exact_count_on_the_bench_ladder():
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    mods = SimpleNamespace(families=families, graph=graph)
    graphs = {gid: workloads.build_graph(mods, gid) for gid in workloads.identify_gids()}
    assert "circ:25:1,2,3,4,5,6" in graphs and "circ:150:1" in graphs and len(graphs) == 41
    for gid, g in graphs.items():
        # the paper's claim: the truncated series encloses exactly one integer
        lo, hi = series_bracket(g.n, regular_degree(g), iter_closed_walk_counts(g))
        assert math.ceil(lo) == math.floor(hi), gid
        assert identify_complexity(g) == spanning_tree_count(complement(g)) == math.ceil(lo), gid
        assert complement_tree_count(g) == math.ceil(lo), gid


def test_identify_matches_exact_count_on_random_regulars():
    cases = [(8, 2), (9, 2), (10, 3), (11, 4), (12, 4), (13, 4), (14, 5)]
    graphs = [random_regular(n, d, seed=300 + idx) for idx, (n, d) in enumerate(cases)]
    graphs.append(circulant(61, tuple(range(1, 16))))  # d = 30: at the 2d < n edge
    graphs += [random_regular(n, d, seed=350 + n) for n, d in ((40, 3), (60, 4), (90, 3))]
    for g in graphs:
        assert identify_complexity(g) == spanning_tree_count(complement(g)) == complement_tree_count(g), (g.n, g.size)


def test_identify_needs_no_convergence():
    # det((n-d)I + A) = n^2 t(complement) holds for every d-regular graph, 2d >= n too
    graphs = [complete(n) for n in range(2, 9)]
    graphs += [complete_bipartite(a, a) for a in range(1, 7)] + [cycle(4)]
    graphs += [
        complement(random_regular(n, d, seed=400 + n))
        for n in range(4, 13)
        for d in range(0, (n - 2) // 2 + 1)
        if n * d % 2 == 0
    ]
    for g in graphs:
        assert 2 * regular_degree(g) >= g.n
        with pytest.raises(ConvergenceDomainError):
            evaluate_series(g, 4)
        assert identify_complexity(g) == spanning_tree_count(complement(g)), (g.n, g.size)


def test_bipartite_inputs_have_zero_odd_terms():
    g = named_graph("paper-bipartite")
    ev = evaluate_series(g, 9)
    # terms[j] corresponds to k = j + 2
    for j, term in enumerate(ev.terms):
        k = j + 2
        if k % 2 == 1:
            assert term == 0.0


def test_trailing_partial_pairs_enclose_the_limit_for_petersen():
    # from k = 5 on, the true log lies between every two consecutive partials
    ev = evaluate_series(named_graph("petersen"), 16)
    limit = math.log(2048000)
    for i in range(4, len(ev.partials) - 1):
        lo, hi = sorted((ev.partials[i], ev.partials[i + 1]))
        assert lo - 1e-9 <= limit <= hi + 1e-9, i


def test_zero_odd_terms_break_consecutive_partial_bracketing():
    # bipartite inputs have zero odd terms, so consecutive partials can
    # coincide away from the limit: partial-sum pairs do not bracket it, and
    # the series bracket in tests/oracles.py uses a geometric tail bound
    ev = evaluate_series(named_graph("paper-bipartite"), 3)
    limit = math.log(2034010)
    assert ev.partials[1] == ev.partials[2]
    assert not (ev.partials[1] - 1e-9 <= limit <= ev.partials[2] + 1e-9)
