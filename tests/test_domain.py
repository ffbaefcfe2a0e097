"""The domain matrix: every entry point outside its graph domain raises a typed error before any work.

The paper's walk results hold for undirected regular graphs.  A directed
input to an undirected-only function raises DirectedUnsupportedError, and an
irregular input to a regular-only function raises RegularityRequiredError,
both before the walk engine or the elimination starts: the engines are
patched to fail here, so a refusal made after work has begun fails the test.
The Laplacian side (laplacian_traces, thm2 and `bounds thm2`) holds for
every undirected graph, so the same irregular inputs are accepted there and
checked against oracles.
"""

from __future__ import annotations

import io
import json
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
    identify_complexity,
    identify_complexity_report,
    is_connected,
    iter_closed_walk_counts,
    laplacian_traces,
    regular_degree,
    spanning_tree_count,
    thm2_lower,
    thm3_bounds,
    triangle_count,
)
from spanwalk import exact, series
from spanwalk.cli import run
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

