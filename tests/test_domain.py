"""The refusal matrix: every entry point outside its graph domain raises a typed error before any work.

The paper's results hold for undirected regular graphs.  A directed input to
an undirected-only function raises DirectedUnsupportedError, and an
irregular input to a regular-only function raises RegularityRequiredError,
both before the walk engine or the elimination starts: the engines are
patched to fail here, so a refusal made after work has begun fails the test.
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
from oracles import path

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
    "laplacian_traces": lambda g: laplacian_traces(g, 3),
    "evaluate_series": lambda g: evaluate_series(g, 4),
    "identify_complexity_report": identify_complexity_report,
    "identify_complexity": identify_complexity,
    "thm2_lower": lambda g: thm2_lower(g, 2),
    "thm3_bounds": lambda g: thm3_bounds(g, 1, 1),
}

CLI_REGULAR_ONLY = [
    ["bounds", "prop1"],
    ["bounds", "prop2"],
    ["bounds", "thm2", "--m", "2"],
    ["bounds", "thm3", "--m", "1", "--k", "1"],
    ["series", "--eval", "--max-k", "4"],
    ["series", "--identify"],
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


@pytest.mark.parametrize("argv", CLI_REGULAR_ONLY, ids=" ".join)
@pytest.mark.parametrize("gid", sorted(IRREGULAR))
def test_cli_refuses_irregular_edge_lists_with_exit_2(engines_fail, tmp_path, argv, gid):
    g = IRREGULAR[gid]
    edge_list = tmp_path / f"{gid}.txt"
    edge_list.write_text(f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.edges)))
    out = io.StringIO()
    code = run([*argv, "--edge-list", str(edge_list)], out=out)
    assert code == 2
    error = json.loads(out.getvalue())["error"]
    assert error["code"] == "regularity-required" and error["message"]

