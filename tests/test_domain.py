"""The domain matrix: every entry point outside its graph domain raises a typed error before any work.

The paper's walk results hold for undirected regular graphs.  A directed
input to an undirected-only function raises DirectedUnsupportedError, and an
irregular input to a regular-only function raises RegularityRequiredError,
both before the walk engine or the elimination starts: the engines are
patched to fail here, so a refusal made after work has begun fails the test.
The Laplacian side (laplacian_traces, thm2 and `bounds thm2`) holds for
every undirected graph, so the same irregular inputs are accepted there and
checked against oracles.  A parameter that must be an int refuses a float or
a bool with a ValueError naming it, never a raw TypeError or AttributeError.
"""

from __future__ import annotations

import io
import json
import time
from collections import OrderedDict

import pytest

from spanwalk import (
    DirectedUnsupportedError,
    Graph,
    RegularityRequiredError,
    bipartition,
    closed_walk_counts,
    complement,
    evaluate_series,
    fixed_point,
    g_family,
    identify_complexity,
    identify_complexity_report,
    is_connected,
    iter_closed_walk_counts,
    laplacian_traces,
    measure_synchrony,
    named_graph,
    parse_edge_list,
    prop1_lower,
    prop2_lower,
    random_regular,
    random_regular_bipartite,
    regular_degree,
    series_term,
    spanning_tree_count,
    spread_step,
    synchrony_index,
    thm2_lower,
    thm3_bounds,
    triangle_count,
)
from spanwalk import exact, series
from spanwalk.cli import run
from spanwalk.errors import require_type
from oracles import direct_laplacian_traces, path

DIRECTED = {
    "directed-triangle": Graph(3, frozenset({(0, 1), (1, 2), (2, 0)}), directed=True),
    "directed-path": Graph(4, frozenset({(0, 1), (1, 2), (2, 3)}), directed=True),
    "directed-edgeless": Graph(2, directed=True),
}

IRREGULAR = {
    "path-5": path(5),  # bipartite, degrees 1..2
    "star-5": Graph(5, frozenset((0, v) for v in range(1, 5))),  # bipartite, 2d >= n at the hub
    "paw": Graph(4, frozenset({(0, 1), (1, 2), (2, 0), (2, 3)})),  # a triangle and a pendant
    "edge-and-isolated": Graph(3, frozenset({(0, 1)})),  # disconnected
}

UNDIRECTED_ONLY = {
    "complement": complement,
    "regular_degree": regular_degree,
    "bipartition": bipartition,
    "is_connected": is_connected,
    "spanning_tree_count": spanning_tree_count,
    "iter_closed_walk_counts": lambda g: next(iter_closed_walk_counts(g)),
    "closed_walk_counts": lambda g: closed_walk_counts(g, 3),
    "triangle_count": triangle_count,
    "laplacian_traces": lambda g: laplacian_traces(g, 3),
    "evaluate_series": lambda g: evaluate_series(g, 4),
    "identify_complexity_report": identify_complexity_report,
    "thm2_lower": lambda g: thm2_lower(g, 2),
    "thm3_bounds": lambda g: thm3_bounds(g, 1, 1),
}

REGULAR_ONLY = {
    "evaluate_series": lambda g: evaluate_series(g, 4),
    "identify_complexity_report": identify_complexity_report,
    "identify_complexity": identify_complexity,
    "thm3_bounds": lambda g: thm3_bounds(g, 1, 1),
}

CLI_REGULAR_ONLY = [
    ["bounds", "prop1"],
    ["bounds", "prop2"],
    ["bounds", "thm3", "--m", "1", "--k", "1"],
    ["series", "--eval", "--max-k", "4"],
    ["series", "--identify"],
]


def _traces_equal_the_dense_oracle(g):
    max_r = 2 * g.n + 3  # past n, where the Cayley-Hamilton recurrence takes over
    assert laplacian_traces(g, max_r).traces == tuple(direct_laplacian_traces(g, max_r))


def _thm2_fails_its_precondition_or_stays_below_the_count(g):
    r = thm2_lower(g, 2)
    count = spanning_tree_count(complement(g))
    # star-5 and paw have a vertex adjacent to all others: their complements are disconnected
    assert r.preconditions_ok == is_connected(complement(g)) == (count > 0)
    assert r.parameters["d"] is None
    if r.preconditions_ok:
        assert r.linear_value <= count * (1 + 1e-12)


LAPLACIAN_SIDE = {
    "laplacian_traces": _traces_equal_the_dense_oracle,
    "thm2_lower": _thm2_fails_its_precondition_or_stays_below_the_count,
}

CLI_LAPLACIAN_SIDE = [
    ["bounds", "thm2", "--m", "2"],
]


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the domain was checked")


@pytest.fixture
def engines_fail(monkeypatch):
    """Make every walk and elimination engine fail, with an empty walk cache."""
    monkeypatch.setattr(exact, "_walk_cache", OrderedDict())
    monkeypatch.setattr(exact, "iter_closed_walk_counts", _no_work)
    monkeypatch.setattr(series, "iter_closed_walk_counts", _no_work)
    monkeypatch.setattr(exact, "_packed_walks", _no_work)
    monkeypatch.setattr(exact, "_minimum_degree_order", _no_work)
    monkeypatch.setattr(exact, "_sparse_determinant", _no_work)


@pytest.mark.parametrize("name", sorted(UNDIRECTED_ONLY))
@pytest.mark.parametrize("gid", sorted(DIRECTED))
def test_directed_inputs_are_refused_before_any_work(engines_fail, name, gid):
    with pytest.raises(DirectedUnsupportedError) as info:
        UNDIRECTED_ONLY[name](DIRECTED[gid])
    assert info.value.code == "directed-unsupported"


@pytest.mark.parametrize("name", sorted(REGULAR_ONLY))
@pytest.mark.parametrize("gid", sorted(IRREGULAR))
def test_irregular_inputs_are_refused_before_any_work(engines_fail, name, gid):
    with pytest.raises(RegularityRequiredError) as info:
        REGULAR_ONLY[name](IRREGULAR[gid])
    assert info.value.code == "regularity-required"


@pytest.mark.parametrize("name", sorted(LAPLACIAN_SIDE))
@pytest.mark.parametrize("gid", sorted(IRREGULAR))
def test_laplacian_side_accepts_irregular_inputs(name, gid):
    LAPLACIAN_SIDE[name](IRREGULAR[gid])


def _run_on_edge_list(tmp_path, argv, gid):
    g = IRREGULAR[gid]
    edge_list = tmp_path / f"{gid}.txt"
    edge_list.write_text(f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    out = io.StringIO()
    code = run([*argv, "--edge-list", str(edge_list)], out=out)
    return code, out.getvalue()


def _reject_non_finite(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


@pytest.mark.parametrize("argv", CLI_REGULAR_ONLY, ids=" ".join)
@pytest.mark.parametrize("gid", sorted(IRREGULAR))
def test_cli_refuses_irregular_edge_lists_with_exit_2(engines_fail, tmp_path, argv, gid):
    code, text = _run_on_edge_list(tmp_path, argv, gid)
    assert code == 2
    error = json.loads(text)["error"]
    assert error["code"] == "regularity-required" and error["message"]


@pytest.mark.parametrize("argv", CLI_LAPLACIAN_SIDE, ids=" ".join)
@pytest.mark.parametrize("gid", sorted(IRREGULAR))
def test_cli_accepts_irregular_edge_lists(tmp_path, argv, gid):
    code, text = _run_on_edge_list(tmp_path, argv, gid)
    assert code == 0, text
    doc = json.loads(text, parse_constant=_reject_non_finite)
    assert doc["parameters"]["d"] is None
    assert doc["preconditions_ok"] == is_connected(complement(IRREGULAR[gid]))



PETERSEN = named_graph("petersen")
BIPARTITE = named_graph("paper-bipartite")

# (call, message): a float or a bool where an int belongs, and a non-bool directed flag
NON_INT_PARAMETERS = {
    "random_regular n": (lambda: random_regular(10.0, 3, 1), "vertex count must be an int, got 10.0"),
    "random_regular d": (lambda: random_regular(10, 3.0, 1), "d must be an int, got 3.0"),
    "random_regular seed": (lambda: random_regular(10, 3, 1.5), "seed must be an int, got 1.5"),
    "random_regular_bipartite n": (
        lambda: random_regular_bipartite(True, 0, 1),
        "vertex count must be an int, got True",
    ),
    "random_regular_bipartite d": (lambda: random_regular_bipartite(10, 2.0, 1), "d must be an int, got 2.0"),
    "random_regular_bipartite seed": (
        lambda: random_regular_bipartite(10, 2, 1.0),
        "seed must be an int, got 1.0",
    ),
    "g_family k": (lambda: g_family(2.0, 1), "k must be an int, got 2.0"),
    "g_family l": (lambda: g_family(2, True), "l must be an int, got True"),
    "spread_step t": (lambda: spread_step(PETERSEN, [0], 1.0), "threshold t must be an int, got 1.0"),
    "synchrony_index t": (lambda: synchrony_index(PETERSEN, [0], 2.5), "threshold t must be an int, got 2.5"),
    "fixed_point seed vertex": (
        lambda: fixed_point(PETERSEN, [0.0], 1),
        "seed vertex must be an int, got 0.0",
    ),
    "measure_synchrony t": (
        lambda: measure_synchrony(PETERSEN, True, 2),
        "threshold t must be an int, got True",
    ),
    "measure_synchrony k": (lambda: measure_synchrony(PETERSEN, 1, 2.0), "k must be an int, got 2.0"),
    "measure_synchrony samples": (
        lambda: measure_synchrony(PETERSEN, 2, 2, mode="monte-carlo", samples=2.5, seed64=1),
        "samples must be an int, got 2.5",
    ),
    "measure_synchrony seed64": (
        lambda: measure_synchrony(PETERSEN, 2, 2, mode="monte-carlo", samples=2, seed64=1.0),
        "seed64 must be an int, got 1.0",
    ),
    "closed_walk_counts max_k": (lambda: closed_walk_counts(PETERSEN, 3.0), "max_k must be an int, got 3.0"),
    "laplacian_traces max_r": (lambda: laplacian_traces(PETERSEN, 3.0), "max_r must be an int, got 3.0"),
    "WalkTable.w order": (lambda: closed_walk_counts(PETERSEN, 4).w(2.0), "walk order must be an int, got 2.0"),
    "WalkTable.w bool": (lambda: closed_walk_counts(PETERSEN, 4).w(True), "walk order must be an int, got True"),
    "LaplacianTraceTable.trace power": (
        lambda: laplacian_traces(PETERSEN, 3).trace(1.5),
        "power must be an int, got 1.5",
    ),
    "series_term n": (lambda: series_term(10.0, 3, 5, 2), "n must be an int, got 10.0"),
    "series_term d": (lambda: series_term(10, True, 5, 2), "d must be an int, got True"),
    "series_term w_k": (lambda: series_term(10, 3, 5.0, 2), "w_k must be an int, got 5.0"),
    "series_term k": (lambda: series_term(10, 3, 5, 2.5), "k must be an int, got 2.5"),
    "evaluate_series max_k": (lambda: evaluate_series(PETERSEN, 3.0), "max_k must be an int, got 3.0"),
    "thm2_lower m": (lambda: thm2_lower(PETERSEN, 2.5), "m must be an int, got 2.5"),
    "thm3_bounds m": (lambda: thm3_bounds(BIPARTITE, 1.0, 1), "m must be an int, got 1.0"),
    "thm3_bounds k": (lambda: thm3_bounds(BIPARTITE, 1, True), "k must be an int, got True"),
    "prop1_lower n": (lambda: prop1_lower(10.0, 9), "n must be an int, got 10.0"),
    "prop1_lower d": (lambda: prop1_lower(10, 9.0), "d must be an int, got 9.0"),
    "prop2_lower n": (lambda: prop2_lower(10.0, 3, 0), "n must be an int, got 10.0"),
    "prop2_lower d": (lambda: prop2_lower(10, 3.0, 0), "d must be an int, got 3.0"),
    "prop2_lower triangles": (lambda: prop2_lower(10, 3, 0.0), "triangles must be an int, got 0.0"),
    "Graph.has_edge float tail": (lambda: PETERSEN.has_edge(0.0, 1), "vertex must be an int, got 0.0"),
    "Graph.has_edge bool head": (lambda: PETERSEN.has_edge(0, True), "vertex must be an int, got True"),
    "Graph.has_edge float head": (lambda: PETERSEN.has_edge(0, 1.0), "vertex must be an int, got 1.0"),
    "Graph directed": (lambda: Graph(3, [(0, 1)], directed="no"), "directed must be a bool, got 'no'"),
    "parse_edge_list directed": (
        lambda: parse_edge_list("2\n0 1\n", directed=1),
        "directed must be a bool, got 1",
    ),
}


@pytest.mark.parametrize("name", sorted(NON_INT_PARAMETERS))
def test_non_int_parameters_raise_a_value_error_naming_them(name):
    call, message = NON_INT_PARAMETERS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_refusals_echo_a_bounded_excerpt_of_any_input():
    # a full repr of these would exceed the int digit limit, take most of a second, or run to 10^7 characters;
    # reprlib alone would sort all of the set's 2*10^5 strings before it showed the first few
    ones, long_text, names = [1] * 10**7, "x" * 10**7, set(map(str, range(2 * 10**5)))
    frozen_names, name_table = frozenset(names), dict.fromkeys(names)
    cases = {
        "an int edge": (lambda: Graph(3, [10**5000]), "an edge must be a pair of vertices, got over 2^16609"),
        "an int in a list": (lambda: require_type("k", [10**5000]), "k must be an int, got [over 2^16609]"),
        "a long list seed": (lambda: random_regular(10, 3, ones), "seed must be an int, got [1, 1, 1"),
        "a long list endpoint": (lambda: Graph(3, [(1.5, ones)]), "edge endpoints must be ints, got (1.5, [1, 1"),
        "a large set edge": (lambda: Graph(3, [names]), "an edge must be a pair of vertices, got {'"),
        "a large frozenset edge": (
            lambda: Graph(3, [frozen_names]),
            "an edge must be a pair of vertices, got frozenset({'",
        ),
        "a large dict edge": (lambda: Graph(3, [name_table]), "an edge must be a pair of vertices, got {'"),
        "a long graph name": (lambda: named_graph(long_text), "unknown graph name 'xxx"),
        "a long mode": (lambda: measure_synchrony(Graph(3), 1, 1, mode=long_text), "unknown mode 'xxx"),
    }
    for label, (call, start) in cases.items():
        began = time.perf_counter()
        with pytest.raises(ValueError) as info:
            call()
        elapsed = time.perf_counter() - began
        message = str(info.value)
        assert message.startswith(start), (label, message[:200])
        assert elapsed < 0.05 and len(message) < 200, (label, elapsed, len(message))


@pytest.mark.parametrize("extra", [{"samples": True, "seed64": "x"}, {"samples": 10}, {"seed64": 1}], ids=repr)
def test_exhaustive_synchrony_refuses_monte_carlo_arguments(extra):
    # in exhaustive mode these would do nothing, so they are refused, as the CLI refuses them
    with pytest.raises(ValueError) as info:
        measure_synchrony(PETERSEN, 2, 3, **extra)
    assert str(info.value) == "samples and seed64 apply only to monte-carlo mode"
