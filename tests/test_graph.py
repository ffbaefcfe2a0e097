"""Graph type, edge-list parsing, graph6 ingestion, complementation."""

from __future__ import annotations

import random
import sys
import time
import tracemalloc
from collections import OrderedDict

import pytest

from spanwalk import (
    DirectedUnsupportedError,
    EdgeListParseError,
    Graph,
    RegularityRequiredError,
    WorkBudgetError,
    bipartition,
    closed_walk_counts,
    complement,
    is_connected,
    parse_edge_list,
    parse_graph6,
    regular_degree,
    require_regular,
    to_edge_list_text,
)
from spanwalk import exact
from oracles import complete, complete_bipartite, cycle, gnp, path


def test_graph_normalizes_and_deduplicates_edges():
    g = Graph(4, frozenset({(2, 1), (1, 2), (0, 3)}))
    assert g.edges == frozenset({(1, 2), (0, 3)})
    assert g.size == 2


def test_graph_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError, match="at least 1"):
        Graph(0)


def test_graph_refuses_absurd_vertex_counts_before_allocating():
    with pytest.raises(WorkBudgetError):
        Graph(10**9)
    with pytest.raises(WorkBudgetError):
        Graph(10**9, frozenset({(0, 1)}), directed=True)
    assert Graph(200_000).n == 200_000


def test_edge_list_refuses_an_absurd_vertex_count_at_its_line():
    # the same check as Graph's, made before any edge line is read
    with pytest.raises(WorkBudgetError, match="1048576"):
        parse_edge_list("1000000000\nnot an edge line\n")
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_edge_list(f"{2**20}\nnot an edge line\n")


def test_edge_list_errors_echo_only_the_start_of_a_token():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a caller without a limit: tokens are still refused by their length
    try:
        for text in ("x" * 100_000, "7" * 400_000, "5\n0 " + "7" * 400_000):
            start = time.perf_counter()
            with pytest.raises(EdgeListParseError) as info:
                parse_edge_list(text)
            assert time.perf_counter() - start < 1.0
            assert len(str(info.value)) < 200
    finally:
        sys.set_int_max_str_digits(limit)


def test_directed_edges_keep_orientation():
    g = Graph(3, frozenset({(2, 0), (0, 1)}), directed=True)
    assert (2, 0) in g.edges
    assert g.has_edge(2, 0)
    assert not g.has_edge(0, 2)
    assert g.in_neighbor_sets() == [{2}, {0}, set()]


def test_parse_edge_list_basic():
    text = "4\n0 1\n1 2 # comment\n\n# full comment line\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})


def test_parse_edge_list_collapses_duplicates_both_orientations():
    g = parse_edge_list("3\n0 1\n1 0\n0 1\n")
    assert g.size == 1


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(EdgeListParseError, match="line 2: self-loop at vertex 0"):
        parse_edge_list("2\n0 0\n")
    with pytest.raises(EdgeListParseError, match="line 3: .*out of range"):
        parse_edge_list("2\n0 1\n0 5\n")
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_edge_list("x\n0 1\n")
    with pytest.raises(EdgeListParseError, match="line 2: expected 'u v'"):
        parse_edge_list("3\n0 1 2\n")
    with pytest.raises(EdgeListParseError, match="missing vertex count"):
        parse_edge_list("# nothing here\n")


def test_parse_serialize_round_trip():
    for seed in range(20):
        rng = random.Random(seed)
        g = gnp(rng.randint(1, 12), rng.choice([0.0, 0.2, 0.5, 0.9]), seed)
        assert parse_edge_list(to_edge_list_text(g)) == g


def test_graph6_known_strings():
    k4 = parse_graph6("C~")
    assert k4 == complete(4)
    pet = parse_graph6("IheA@GUAo")  # standard encoding of the Petersen graph
    assert pet.n == 10 and pet.size == 15
    assert regular_degree(pet) == 3
    single = parse_graph6("@")
    assert single.n == 1 and single.size == 0


def test_graph6_rejects_bad_input():
    with pytest.raises(EdgeListParseError):
        parse_graph6("")
    with pytest.raises(EdgeListParseError, match="short-form"):
        parse_graph6("~??")
    with pytest.raises(EdgeListParseError, match="does not match"):
        parse_graph6("C~~")
    with pytest.raises(EdgeListParseError, match="invalid graph6 character"):
        parse_graph6("C\x19")


def _complement_inputs() -> list[Graph]:
    graphs = [Graph(1), Graph(2), Graph(6), complete(6), path(5), cycle(7), complete_bipartite(2, 3)]
    for seed in range(20):
        rng = random.Random(1000 + seed)
        graphs.append(gnp(rng.randint(1, 12), rng.choice([0.1, 0.4, 0.7]), seed))
    return graphs


def test_complement_involution_and_size():
    for g in _complement_inputs():
        n = g.n
        cg = complement(g)
        assert cg.edges == {(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges}
        assert complement(cg) == g
        assert g.size + cg.size == n * (n - 1) // 2


def test_complement_adjacency_is_the_set_builder_complement():
    for g in _complement_inputs():
        everyone = set(range(g.n))
        want = tuple(tuple(sorted(everyone - s - {v})) for v, s in enumerate(g.neighbor_sets()))
        assert complement(g).adjacency() == want


def test_complement_of_complete_graph_is_empty():
    assert complement(complete(5)).size == 0
    assert complement(Graph(5)).size == 10


def test_complement_rejects_directed():
    with pytest.raises(DirectedUnsupportedError):
        complement(Graph(3, frozenset({(0, 1)}), directed=True))


def test_regular_degree():
    assert regular_degree(cycle(6)) == 2
    assert regular_degree(complete(7)) == 6
    assert regular_degree(Graph(4)) == 0
    assert regular_degree(path(4)) is None  # degrees 1,2,2,1
    assert require_regular(cycle(6)) == 2
    assert require_regular(Graph(4)) == 0
    with pytest.raises(RegularityRequiredError, match="degrees range from 1 to 2"):
        require_regular(path(4))
    with pytest.raises(RegularityRequiredError, match="degrees range from 0 to 1"):
        require_regular(Graph(3, frozenset({(0, 1)})))


def test_regular_degree_complement_relation():
    for seed in range(10):
        g = gnp(9, 0.5, 2000 + seed)
        d = regular_degree(g)
        dc = regular_degree(complement(g))
        if d is not None:
            assert dc == g.n - 1 - d
        else:
            assert dc is None


def test_bipartition():
    left, right = bipartition(complete_bipartite(3, 4))
    assert left == frozenset({0, 1, 2}) and right == frozenset({3, 4, 5, 6})
    assert bipartition(cycle(5)) is None
    assert bipartition(cycle(6)) is not None
    isolated = bipartition(Graph(3))
    assert isolated is not None and isolated[0] | isolated[1] == frozenset({0, 1, 2})


def test_is_connected():
    assert is_connected(cycle(5))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2))
    assert not is_connected(Graph(4, frozenset({(0, 1), (2, 3)})))


def test_graphs_from_the_same_edges_are_one_graph(monkeypatch):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    rng = random.Random(12)
    graphs = [parse_edge_list("4\n" + "".join(f"{v} {u}\n" for u, v in edges))]
    for _ in range(5):
        arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(arcs)
        graphs.append(Graph(4, frozenset(arcs + [(v, u) for u, v in arcs[:2]])))  # both orientations
    first = graphs[0]
    assert first.adjacency() == ((1, 2, 3), (0, 2), (0, 1, 3), (0, 2))
    for g in graphs:
        assert g == first and hash(g) == hash(first) and g.adjacency() == first.adjacency()
    monkeypatch.setattr(exact, "_walk_cache", OrderedDict())
    for g in graphs:
        closed_walk_counts(g, 4)
    assert len(exact._walk_cache) == 1
    with pytest.raises(TypeError):
        Graph(2, in_adjacency=((), ()))  # derived from the edges, never passed in


def test_neighbor_sets_are_fresh_on_every_call():
    g = cycle(5)
    d = Graph(3, frozenset({(0, 1), (2, 1)}), directed=True)
    assert d.in_neighbor_sets() == [set(), {0, 2}, set()]
    for graph, read in ((g, g.neighbor_sets), (g, g.in_neighbor_sets), (d, d.in_neighbor_sets)):
        adjacency = graph.in_adjacency
        scratch = read()
        scratch[0].add(2)
        scratch[1].clear()
        assert read() == [set(s) for s in adjacency]
        assert graph.in_adjacency is adjacency


def test_adjacency_memory_stays_linear():
    # one int bitset per vertex would hold about n^2/16 bytes here: about 150 MB
    tracemalloc.start()
    try:
        g = cycle(50_000)
        assert regular_degree(g) == 2
        assert bipartition(g) is not None
        assert is_connected(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
