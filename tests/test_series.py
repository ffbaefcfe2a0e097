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
    PrecisionExhaustedError,
    RegularityRequiredError,
    closed_walk_counts,
    complement,
    evaluate_series,
    identify_complexity,
    identify_complexity_report,
    named_graph,
    random_regular,
    series_term,
    spanning_tree_count,
)
from spanwalk import families, graph, series
from spanwalk.errors import ExactInvariantError
from oracles import circulant, cycle, path

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


def test_series_domain_errors():
    with pytest.raises(ConvergenceDomainError):
        evaluate_series(cycle(4), 4)  # 2d = n
    with pytest.raises(ConvergenceDomainError):
        identify_complexity(Graph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})))
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
    assert report.terms_used >= 4
    assert report.bracket_low <= 2048000 <= report.bracket_high
    assert report.bracket_width < 1.0
    assert report.precision_bits == 64  # b = 23: the 64-bit floor, not b + 16


@pytest.fixture(scope="module")
def cycle_150():
    """C_150, whose complement has about 10^321 spanning trees, beyond the float range."""
    g = cycle(150)
    return g, identify_complexity_report(g)


def test_identify_beyond_the_float_range_matches_bareiss(cycle_150):
    g, report = cycle_150
    assert report.value == spanning_tree_count(complement(g))
    assert report.value > 10**320
    assert isinstance(report.bracket_low, Fraction) and isinstance(report.bracket_high, Fraction)
    assert report.bracket_low <= report.value <= report.bracket_high
    assert math.isfinite(report.bracket_width) and 0 < report.bracket_width < 0.125
    assert report.precision_bits == 1084  # b + 16


def test_report_separates_tail_and_rounding_widths(cycle_150):
    for report in (identify_complexity_report(named_graph("petersen")), cycle_150[1]):
        for share in (report.tail_bound, report.rounding_bound):
            assert isinstance(share, Fraction)
            assert 0 <= share < Fraction(1, 8)
        assert report.rounding_bound == report.bracket_high / 2 ** (report.precision_bits - 7)


def test_identify_fails_fast_on_the_budget_before_counting_walks(monkeypatch):
    def no_walks(g):
        raise AssertionError("walks counted before the budget check")

    monkeypatch.setattr(series, "iter_closed_walk_counts", no_walks)
    # d = 200, n - d = 201: the tail bound needs about 427 000 terms
    dense = circulant(401, tuple(range(1, 101)))
    start = time.perf_counter()
    with pytest.raises(PrecisionExhaustedError, match="terms"):
        identify_complexity(dense)
    assert time.perf_counter() - start < 1.0
    # t(complement of C_500) may need b + 16 = 4479 bits, above the 4096-bit cap
    start = time.perf_counter()
    with pytest.raises(PrecisionExhaustedError, match="bits"):
        identify_complexity(cycle(500))
    assert time.perf_counter() - start < 1.0


def test_enclosure_without_a_unique_integer_raises(monkeypatch):
    monkeypatch.setattr(series, "_bracket", lambda *args: (Fraction(2047999), Fraction(2048001)))
    with pytest.raises(ExactInvariantError):
        identify_complexity(named_graph("petersen"))
    monkeypatch.setattr(series, "_bracket", lambda *args: (Fraction(41, 10), Fraction(49, 10)))
    with pytest.raises(ExactInvariantError):
        identify_complexity(named_graph("petersen"))


def test_identify_matches_exact_count_on_the_bench_ladder():
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    mods = SimpleNamespace(families=families, graph=graph)
    graphs = {gid: workloads.build_graph(mods, gid) for gid in workloads.identify_gids()}
    small = {gid: g for gid, g in graphs.items() if g.n <= 60}
    assert "circ:25:1,2,3,4,5,6" in small and len(small) == 36
    for gid, g in small.items():
        assert identify_complexity(g) == spanning_tree_count(complement(g)), gid


def test_identify_matches_exact_count_on_random_regulars():
    cases = [(8, 2), (9, 2), (10, 3), (11, 4), (12, 4), (13, 4), (14, 5)]
    for idx, (n, d) in enumerate(cases):
        g = random_regular(n, d, seed=300 + idx)
        assert identify_complexity(g) == spanning_tree_count(complement(g)), (n, d)


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
    # coincide away from the limit; identification therefore brackets with a
    # geometric tail bound instead of relying on partial-sum pairs
    ev = evaluate_series(named_graph("paper-bipartite"), 3)
    limit = math.log(2034010)
    assert ev.partials[1] == ev.partials[2]
    assert not (ev.partials[1] - 1e-9 <= limit <= ev.partials[2] + 1e-9)
