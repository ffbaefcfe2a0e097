"""Graph type, edge-list parsing, graph6 ingestion, complementation."""

from __future__ import annotations

import copy
import io
import pickle
import random
import sys
import time
import tracemalloc
from collections import OrderedDict
from pathlib import Path
from types import SimpleNamespace

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
    spanning_tree_count,
    thm3_bounds,
    to_edge_list_text,
)
from spanwalk import cli, exact, families, graph
from oracles import _components, bfs_two_colouring, complete, complete_bipartite, cycle, gnp, path


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


def test_graph_refuses_non_int_vertex_counts_and_endpoints():
    # a bool is an int subclass and a float may equal an int; neither is a vertex
    for n in (True, False, 3.0, "3", None):
        with pytest.raises(ValueError, match="vertex count must be an int") as info:
            Graph(n)
        assert str(info.value).endswith(f"got {n!r}")
    for edge in ((0.0, 1), (0, 1.0), (True, 0), (0, False), ("0", 1)):
        for directed in (False, True):
            with pytest.raises(ValueError, match="edge endpoints must be ints") as info:
                Graph(3, frozenset({edge}), directed)
            assert str(info.value).endswith(f"got {edge!r}")
    # an edge that is not a pair: no int to unpack, too many or too few values
    for edge in (5, (0, 1, 2), (0,), None):
        for directed in (False, True):
            with pytest.raises(ValueError, match="an edge must be a pair of vertices") as info:
                Graph(3, [edge], directed)
            assert str(info.value).endswith(f"got {edge!r}")
    with pytest.raises(ValueError) as info:
        Graph(3, [("x" * 100_000, 1)])
    assert len(str(info.value)) < 200
    with pytest.raises(ValueError) as info:
        Graph(3, [tuple(range(100_000))])
    assert len(str(info.value)) < 200


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


def test_has_edge_is_false_outside_the_vertex_range():
    # rows[-1] is vertex 2's row, which holds 0: a negative v must not read it
    for directed in (False, True):
        g = Graph(3, frozenset({(0, 1), (0, 2)}), directed)
        assert g.has_edge(0, 1) and g.has_edge(0, 2) and g.has_edge(1, 0) != directed
        for u, v in ((0, 7), (7, 0), (-3, 1), (1, -3), (0, -1), (0, -2), (3, 3), (2**70, 0), (0, -(2**70))):
            assert not g.has_edge(u, v), (directed, u, v)


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
    with pytest.raises(EdgeListParseError, match="line 1: expected a single vertex count"):
        parse_edge_list("3 4\n")


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
    with pytest.raises(EdgeListParseError, match="graph6 vertex count must be at least 1"):
        parse_graph6("?")


def _complement_inputs() -> list[Graph]:
    graphs = [Graph(1), Graph(2), Graph(6), complete(6), path(5), cycle(7), complete_bipartite(2, 3)]
    graphs += [families.named_graph(name) for name in families.NAMED_GRAPHS]
    for seed in range(20):
        rng = random.Random(1000 + seed)
        graphs.append(gnp(rng.randint(1, 12), rng.choice([0.1, 0.4, 0.7]), seed))
    # the shapes of the exact-count bench: sparse regular graphs on 10..120 vertices
    graphs += [families.random_regular(n, d, seed=n + d) for n in range(10, 121, 10) for d in (3, 4)]
    return graphs


def test_complement_involution_and_size():
    for g in _complement_inputs():
        n = g.n
        cg = complement(g)
        missing = {(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges}
        checked = Graph(n, frozenset(missing))
        assert cg == checked and hash(cg) == hash(checked)
        assert cg.in_adjacency == checked.in_adjacency
        assert (cg.n, cg.directed, repr(cg)) == (n, False, repr(checked))
        assert complement(cg) == g and complement(cg).in_adjacency == g.in_adjacency
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


def test_complement_is_priced_before_any_row_is_built(monkeypatch):
    def no_rows(nbrs):
        raise AssertionError("complement rows built")

    monkeypatch.setattr(graph, "_complement_rows", no_rows)
    # 2000 isolated vertices leave 1 999 000 pairs, over the 2^20 budget
    with pytest.raises(WorkBudgetError, match="1999000 edges"):
        complement(Graph(2000))
    with pytest.raises(AssertionError, match="complement rows built"):
        complement(Graph(1448))  # 1 047 628 pairs: admitted, so the rows are asked for


def test_complement_and_the_dense_count_build_no_checked_graph(monkeypatch):
    # every Graph is made by _from_rows, and only Graph(n, edges) runs _checked
    # on its edges; the parsers check each edge once, at its line or bit, the
    # complement's rows are valid by construction, and the dense exact count
    # reads the rows with no Graph at all
    inputs = _complement_inputs()
    dense = [complement(g) for g in inputs if 4 * g.size < g.n * (g.n - 1)]
    assert len(dense) > 24
    checked, from_rows = [], []
    check, build = graph._checked, Graph._from_rows
    monkeypatch.setattr(graph, "_checked", lambda n, edges: checked.append(n) or check(n, edges))
    monkeypatch.setattr(Graph, "_from_rows", lambda rows, directed=False: from_rows.append(rows) or build(rows, directed))
    Graph(3, frozenset({(0, 1)}))
    assert (len(checked), len(from_rows)) == (1, 1)  # the counters see every checked construction
    parse_edge_list("3\n0 1\n1 2\n")
    parse_edge_list("3\n0 1\n1 2\n", directed=True)
    parse_graph6("C~")
    assert (len(checked), len(from_rows)) == (1, 4)
    for g in inputs:
        complement(g)
    assert (len(checked), len(from_rows)) == (1, 4 + len(inputs))
    for g in dense:
        exact.spanning_tree_count(g)
    assert (len(checked), len(from_rows)) == (1, 4 + len(inputs))


def test_the_samplers_and_g_family_build_no_checked_graph(monkeypatch):
    # their edges are valid by construction, so they hand rows to _from_rows
    # and run no _checked pass; each equals the checked Graph of its edges
    def no_check(n, edges):
        raise AssertionError("edges checked")

    with monkeypatch.context() as m:
        m.setattr(graph, "_checked", no_check)
        made = [
            families.random_regular(20, 3, 1),
            families.random_regular(9, 6, 2),  # the complement path
            families.random_regular(6, 0, 1),
            families.random_regular_bipartite(30, 4, 2),
            families.g_family(3, 1),
        ]
    for g in made:
        assert g == Graph(g.n, g.edges) and hash(g) == hash(Graph(g.n, g.edges))


def test_no_engine_builds_the_edge_view(monkeypatch, tmp_path):
    # the edges are derived from the rows on first read: only export and
    # callers that ask for g.edges pay for them
    g = families.named_graph("paper-bipartite")
    sparse = families.random_regular(40, 3, 1)
    path = tmp_path / "g.txt"
    path.write_text(to_edge_list_text(g))
    reads = []
    derive = vars(Graph)["edges"].func
    monkeypatch.setattr(Graph, "edges", property(lambda self: reads.append(self) or derive(self)))
    for h in (g, sparse, complement(sparse)):  # bipartite, sparse, and dense
        assert repr(h) == f"Graph(n={h.n}, m={h.size})"
        h.has_edge(0, 1)
        bipartition(h)
        complement(h)
        spanning_tree_count(h)
        closed_walk_counts(h, 8)
    thm3_bounds(g, 3, 3)
    assert cli.run(["bounds", "thm3", "--edge-list", str(path), "--m", "3", "--k", "3"], out=io.StringIO()) == 0
    assert reads == []
    assert len(g.edges) == 15 and reads == [g]  # the guard sees a read


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


def test_bipartition_and_is_connected_match_brute_force():
    # oracles: every 2-colouring of the vertices, and union-find components
    bipartite = disconnected = isolated = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        g = gnp(n, rng.choice((0.1, 0.2, 0.35, 0.5)), 1300 + seed)
        colourable = any(all((c >> u ^ c >> v) & 1 for u, v in g.edges) for c in range(1 << n))
        sides = bipartition(g)
        assert (sides is not None) == colourable, (n, seed)
        if sides is not None:
            left, right = sides
            assert left | right == frozenset(range(n)) and not left & right
            assert all((u in left) != (v in left) for u, v in g.edges), (n, seed)
            bipartite += 1
        connected = _components(n, tuple(g.edges)) == 1
        assert is_connected(g) == connected, (n, seed)
        disconnected += not connected
        isolated += n > 1 and 0 in g.degree_sequence()
    assert min(bipartite, 300 - bipartite, disconnected, 300 - disconnected, isolated) >= 30


def test_bipartition_sides_match_the_two_colouring_on_the_bench_graphs():
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    mods = SimpleNamespace(families=families, graph=graph)
    rng = random.Random(16)
    for gid in workloads.bounds_gids() + [workloads.OVERFLOW_CYCLE]:
        g = workloads.build_graph(mods, gid)
        for h in [g] + [workloads.relabel(mods, g, rng) for _ in range(3)]:
            sides = bipartition(h)
            assert sides is not None and sides == bfs_two_colouring(h), gid


def test_graphs_from_the_same_edges_are_one_graph(monkeypatch):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    rng = random.Random(12)
    graphs = [parse_edge_list("4\n" + "".join(f"{v} {u}\n" for u, v in edges))]
    for _ in range(5):
        arcs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(arcs)
        graphs.append(Graph(4, frozenset(arcs + [(v, u) for u, v in arcs[:2]])))  # both orientations
    first = graphs[0]
    graphs += [parse_graph6("C|"), complement(complement(first)), pickle.loads(pickle.dumps(first)), copy.copy(first)]
    assert first.adjacency() == ((1, 2, 3), (0, 2), (0, 1, 3), (0, 2))
    for g in graphs:
        assert g == first and hash(g) == hash(first) and g.adjacency() == first.adjacency()
        assert g.edges == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)}
    both = Graph(4, frozenset(edges + [(v, u) for u, v in edges]), directed=True)
    assert both.in_adjacency == first.in_adjacency and both != first  # the same rows, read as arcs
    monkeypatch.setattr(exact, "_walk_cache", OrderedDict())
    for g in graphs:
        closed_walk_counts(g, 4)
    assert len(exact._walk_cache) == 1
    with pytest.raises(TypeError):
        Graph(2, in_adjacency=((), ()))  # derived from the edges, never passed in
    # the derived view is the frozenset Graph(n, edges) stored: (u, v) with u < v, or the arcs as given
    for g in _complement_inputs():
        assert g.edges == frozenset((u, v) for u, row in enumerate(g.in_adjacency) for v in row if u < v)
        assert Graph(g.n, g.edges) == g
        arcs = frozenset(random.Random(g.n).sample(sorted(g.edges | {(v, u) for u, v in g.edges}), g.size))
        assert Graph(g.n, arcs, directed=True).edges == arcs


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
