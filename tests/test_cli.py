"""CLI grammar, output determinism, and the exit-code contract."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spanwalk import Graph, cli, complement, exact, families, spanning_tree_count, synchrony, to_edge_list_text
from spanwalk.cli import run
from spanwalk.errors import shown
from oracles import complete, cycle, exact_series_partial


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def _run_json(argv):
    code, text = _run(argv)
    return code, json.loads(text)


def _reject_non_finite(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def _graph6(g):
    """Short-form graph6 of an undirected graph on at most 62 vertices."""
    bits = [int(g.has_edge(u, v)) for v in range(1, g.n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = (int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6))
    return chr(g.n + 63) + "".join(chr(c + 63) for c in body)


def _write_cycle(tmp_path, n):
    path = tmp_path / f"c{n}.txt"
    path.write_text(f"{n}\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    return path


def test_complexity_of_named_complements():
    for name, want in (
        ("petersen", "2048000"),
        ("paper-h", "2080524"),
        ("paper-bipartite", "2034010"),
    ):
        code, doc = _run_json(["complexity", "--named", name, "--complement"])
        assert code == 0
        assert doc["spanning_trees"] == want


def test_complexity_accepts_graph6_and_edge_list(tmp_path):
    code, doc = _run_json(["complexity", "--graph6", "C~"])
    assert code == 0 and doc["spanning_trees"] == "16"
    p = tmp_path / "g.txt"
    p.write_text("3\n0 1\n1 2\n2 0\n")
    code, doc = _run_json(["complexity", "--edge-list", str(p)])
    assert code == 0 and doc["spanning_trees"] == "3"


def test_graph_info_and_export():
    code, doc = _run_json(["graph", "info", "--named", "paper-bipartite"])
    assert code == 0
    assert doc == {
        "n": 10,
        "size": 15,
        "directed": False,
        "regular_degree": 3,
        "bipartite": True,
    }
    code, doc = _run_json(["graph", "export", "--named", "petersen"])
    assert code == 0
    assert doc["edge_list"].startswith("10\n0 1\n")
    # exported text round-trips through the edge-list input
    code2, doc2 = _run_json(["graph", "info", "--named", "petersen"])
    assert doc2["regular_degree"] == 3


def test_an_edge_list_with_a_utf8_bom_reads_like_one_without(tmp_path):
    # editors on some systems write a byte order mark ahead of the vertex count
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(b"3\n0 1\n1 2\n")
    marked.write_bytes(b"\xef\xbb\xbf3\n0 1\n1 2\n")
    for command in (["graph", "info"], ["graph", "export"], ["complexity"]):
        code, text = _run(command + ["--edge-list", str(marked)])
        assert code == 0, text
        assert (code, text) == _run(command + ["--edge-list", str(plain)])
    assert _run_json(["graph", "info", "--edge-list", str(marked)])[1]["n"] == 3


def test_graph_info_and_export_of_a_directed_edge_list(tmp_path):
    # 0 -> 2 and 2 -> 0 are two arcs; the export reads the arcs back off the in-rows, sorted
    path = tmp_path / "arcs.txt"
    path.write_text("3\n2 0\n0 2\n1 0\n")
    code, doc = _run_json(["graph", "info", "--directed", "--edge-list", str(path)])
    assert code == 0
    assert doc == {"n": 3, "size": 3, "directed": True, "regular_degree": None, "bipartite": None}
    code, doc = _run_json(["graph", "export", "--directed", "--edge-list", str(path)])
    assert code == 0
    assert doc["edge_list"] == "3\n0 2\n1 0\n2 0\n"


def test_walks_output():
    code, doc = _run_json(["walks", "--named", "paper-bipartite", "--max-k", "6"])
    assert code == 0
    assert doc == {"max_k": 6, "counts": ["0", "30", "0", "190", "0", "1530"]}


def test_series_eval_output():
    code, doc = _run_json(["series", "--eval", "--max-k", "6", "--named", "petersen"])
    assert code == 0
    assert doc["n"] == 10 and doc["d"] == 3
    assert len(doc["partials"]) == 6
    assert abs(doc["partials"][-1] - 14.53221) < 5e-5
    assert doc["rounding_bound"] < 1e-12


def test_empty_lists_and_objects_serialize_inline():
    # the only empty containers the CLI prints: no term past the base, no finite index
    code, text = _run(["series", "--eval", "--named", "petersen", "--max-k", "1"])
    assert code == 0
    assert '"terms": []' in text
    code, text = _run(["synchrony", "--named", "petersen", "--t", "3", "--k", "1"])
    assert code == 0
    assert '"i_star_histogram": {}' in text


def test_series_identify_output():
    code, doc = _run_json(["series", "--identify", "--named", "paper-bipartite"])
    assert code == 0
    assert doc == {"t_complement": "2034010", "terms_used": 10, "bracket_width": 0.0, "precision_bits": 0}


def test_bounds_subcommands(tmp_path):
    # the complement of a perfect matching on 10 vertices is 8-regular: dense
    # enough for the degree-only bound
    matching = tmp_path / "matching.txt"
    matching.write_text("10\n0 1\n2 3\n4 5\n6 7\n8 9\n")
    code, doc = _run_json(["bounds", "prop1", "--edge-list", str(matching), "--complement"])
    assert code == 0
    assert doc["name"] == "prop1" and doc["target"] == "t(G)"
    assert doc["preconditions_ok"] is True
    assert abs(doc["linear_value"] - 3.1804258e7) < 2e2

    code, doc = _run_json(["bounds", "prop2", "--named", "paper-h", "--complement"])
    assert code == 0
    assert doc["parameters"]["s"] == pytest.approx(0.8051748)
    assert abs(doc["log_value"] - 14.31436) < 1e-4

    code, doc = _run_json(["bounds", "thm2", "--named", "paper-h", "--m", "3"])
    assert code == 0
    assert abs(doc["log_value"] - 14.31436) < 1e-4

    code, doc = _run_json(["bounds", "thm3", "--named", "paper-bipartite", "--m", "6", "--k", "6"])
    assert code == 0
    assert abs(doc["lower"]["linear_value"] - 2034010) < 2
    assert abs(doc["upper"]["linear_value"] - 2034012) < 2


def test_bounds_precondition_failure_reports_without_values():
    code, doc = _run_json(["bounds", "thm2", "--named", "petersen", "--m", "2"])
    assert code == 0
    assert doc["preconditions_ok"] is False
    assert "log_value" not in doc and "linear_value" not in doc
    assert doc["reason"]


def test_overflowing_bound_prints_null_linear_value(tmp_path):
    # t(complement of C_150) is near 10^321, beyond the float range
    path = _write_cycle(tmp_path, 150)
    code, text = _run(["bounds", "thm2", "--edge-list", str(path), "--m", "2"])
    assert code == 0
    doc = json.loads(text, parse_constant=_reject_non_finite)
    assert doc["preconditions_ok"] is True
    assert doc["linear_value"] is None
    assert math.isfinite(doc["log_value"]) and doc["log_value"] > 709


def test_identify_beyond_the_float_range_prints_valid_json(tmp_path):
    path = _write_cycle(tmp_path, 150)
    code, text = _run(["series", "--identify", "--edge-list", str(path)])
    assert code == 0
    doc = json.loads(text, parse_constant=_reject_non_finite)
    assert set(doc) == {"t_complement", "terms_used", "bracket_width", "precision_bits"}
    assert doc["t_complement"] == str(spanning_tree_count(complement(cycle(150))))
    assert int(doc["t_complement"]) > 10**320
    assert doc["terms_used"] == 150
    assert doc["precision_bits"] == 0 and doc["bracket_width"] == 0.0


def test_identify_over_the_work_budget_exits_2_at_once(tmp_path):
    path = _write_cycle(tmp_path, 500)
    start = time.perf_counter()
    code, doc = _run_json(["series", "--identify", "--edge-list", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["code"] == "work-budget"


@pytest.mark.parametrize(
    "argv",
    [
        ["walks", "--named", "petersen", "--max-k", "200000"],
        ["series", "--eval", "--named", "petersen", "--max-k", "200000"],
        ["bounds", "thm2", "--named", "petersen", "--m", "200000"],
        ["bounds", "thm3", "--named", "paper-bipartite", "--m", "100000", "--k", "2"],
        # one order past the largest series --eval the walk price admits on C_62
        ["series", "--eval", "--graph6", _graph6(cycle(62)), "--max-k", "4364"],
    ],
)
def test_walk_tables_over_the_price_exit_2_at_once(monkeypatch, argv):
    def no_walks(g):
        raise AssertionError("walks counted before the price check")

    monkeypatch.setattr(exact, "iter_closed_walk_counts", no_walks)
    start = time.perf_counter()
    code, doc = _run_json(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["code"] == "work-budget"


@pytest.mark.parametrize(
    "g, max_k", [(cycle(62), 4363), (families.named_graph("petersen"), 5180)]
)
def test_series_eval_at_the_walk_price_finishes(g, max_k):
    # the largest orders the walk price admits on these graphs: it is the one price
    start = time.perf_counter()
    code, doc = _run_json(["series", "--eval", "--graph6", _graph6(g), "--max-k", str(max_k)])
    assert time.perf_counter() - start < 2.0
    assert code == 0 and len(doc["partials"]) == max_k
    walks = exact.closed_walk_counts(g, max_k).counts
    for k in (1, 2, 3, 10, 100, max_k):
        want = exact_series_partial(g.n, doc["d"], walks, k)
        assert abs(doc["partials"][k - 1] - want) <= doc["rounding_bound"], k


def test_exhaustive_synchrony_over_the_budget_exits_2(monkeypatch, tmp_path):
    def no_seeds(*args):
        raise AssertionError("seeds built or evaluated before the budget check")

    monkeypatch.setattr(synchrony, "_exhaustive_blocks", no_seeds)
    monkeypatch.setattr(synchrony, "_sweep", no_seeds)
    path = _write_cycle(tmp_path, 40)  # C(40, 20) k-subsets
    code, doc = _run_json(["synchrony", "--edge-list", str(path), "--t", "1", "--k", "20"])
    assert code == 2
    assert doc["error"]["code"] == "work-budget"
    assert "monte-carlo" in doc["error"]["message"]


def test_walk_counts_print_in_full_past_the_digit_limit(tmp_path):
    path = tmp_path / "k30.txt"
    path.write_text(to_edge_list_text(complete(30)))
    limit = sys.get_int_max_str_digits()
    code, doc = _run_json(["walks", "--edge-list", str(path), "--max-k", "3000"])
    assert sys.get_int_max_str_digits() == limit  # the caller's limit is restored
    assert code == 0 and doc["max_k"] == 3000
    # spectrum of K_30: 29 once, -1 29 times, so w_3000 = 29^3000 + 29, 4388 digits
    last = doc["counts"][-1]
    assert len(last) == 4388 > limit
    assert int(last[-6:]) == (pow(29, 3000, 10**6) + 29) % 10**6


@pytest.mark.parametrize(
    "failure",
    [
        OverflowError("int too large to convert to float"),
        ZeroDivisionError("division by zero"),
        RecursionError("maximum recursion depth exceeded"),
    ],
)
def test_numeric_failures_exit_2_with_error_document(monkeypatch, failure):
    def raising(args):
        raise failure

    monkeypatch.setitem(cli._COMMANDS, "walks", raising)
    code, doc = _run_json(["walks", "--named", "petersen", "--max-k", "3"])
    assert code == 2
    message = f"{type(failure).__name__}: {failure}"
    assert doc == {"error": {"code": "numeric-failure", "message": message}}


def test_bounds_thm3_csv():
    code, text = _run(
        ["bounds", "thm3", "--named", "paper-bipartite", "--m", "2", "--k", "2", "--format", "csv"]
    )
    assert code == 0
    header, row, trailer = text.split("\n")
    assert header == "m,k,lower,upper"
    cells = row.split(",")
    assert cells[:2] == ["2", "2"]
    assert abs(float(cells[2]) - 2029504) < 2
    assert abs(float(cells[3]) - 2039113) < 2
    assert trailer == ""


def test_complexity_over_the_elimination_price_exits_2_at_once(monkeypatch, tmp_path):
    def no_elimination(nbrs, order, diagonal, off):
        raise AssertionError("eliminated before the price check")

    path = tmp_path / "rr2000.txt"
    path.write_text(to_edge_list_text(families.random_regular(2000, 3, seed=13)))
    monkeypatch.setattr(exact, "_sparse_determinant", no_elimination)
    start = time.perf_counter()
    code, doc = _run_json(["complexity", "--edge-list", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["code"] == "work-budget"


def test_complement_over_its_price_exits_2_at_once(monkeypatch, tmp_path):
    def no_pairs(g):
        raise AssertionError("complement pairs built before the price check")

    path = tmp_path / "isolated200000.txt"
    path.write_text("200000\n0 1\n1 2\n")
    monkeypatch.setattr(Graph, "adjacency", no_pairs)
    start = time.perf_counter()
    code, doc = _run_json(["graph", "info", "--complement", "--edge-list", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["code"] == "work-budget"


def test_absurd_vertex_count_exits_2_at_once(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1000000000\n0 1\n")
    start = time.perf_counter()
    code, doc = _run_json(["graph", "info", "--edge-list", str(path)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["code"] == "work-budget"


_OVERLONG = "7" * 400_000  # an integer far past the interpreter's default digit limit


@pytest.mark.parametrize("text", [_OVERLONG + "\n0 1\n", "5\n0 " + _OVERLONG + "\n"], ids=["header", "endpoint"])
def test_overlong_integers_in_an_edge_list_exit_2_at_once(tmp_path, text):
    path = tmp_path / "overlong.txt"
    path.write_text(text)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a caller without a limit: tokens are still refused by their length
    try:
        start = time.perf_counter()
        code, out = _run(["graph", "info", "--edge-list", str(path)])
        assert time.perf_counter() - start < 1.0
        assert sys.get_int_max_str_digits() == 0
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2 and len(out) < 1024
    assert json.loads(out)["error"]["code"] == "parse-error"


def test_overlong_integer_option_exits_64_at_once(capsys):
    start = time.perf_counter()
    code, out = _run(["walks", "--named", "petersen", "--max-k", _OVERLONG])
    assert time.perf_counter() - start < 1.0
    assert code == 64 and out == ""
    assert len(capsys.readouterr().err) < 1024


_HUGE = "9" * 4000  # under the 4300-character limit on an integer token
_HUGE_EDGE_LISTS = {"HUGE_ENDPOINT": f"10\n0 {_HUGE}\n", "NEGATIVE_COUNT": f"-{_HUGE}\n"}


@pytest.mark.parametrize(
    "argv",
    [
        ["walks", "--named", "petersen", "--max-k", _HUGE],
        ["bounds", "thm2", "--named", "petersen", "--m", _HUGE],
        ["series", "--eval", "--named", "petersen", "--max-k", _HUGE],
        ["bounds", "thm3", "--named", "paper-bipartite", "--m", _HUGE, "--k", "1"],
        ["construct", "--g-family", _HUGE, "1"],
        ["construct", "--g-family", "2", _HUGE],
        ["construct", "--random", _HUGE, "4", "1"],
        ["construct", "--random", "10", _HUGE, "1"],
        ["synchrony", "--named", "petersen", "--t", "1", "--k", _HUGE],
        ["graph", "info", "--edge-list", "HUGE_ENDPOINT"],
        ["graph", "info", "--edge-list", "NEGATIVE_COUNT"],
    ],
    ids=lambda argv: " ".join(a if len(a) < 20 else "N" for a in argv),
)
def test_refusals_of_huge_integers_print_a_short_message(tmp_path, argv):
    for name, text in _HUGE_EDGE_LISTS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in _HUGE_EDGE_LISTS else a for a in argv]
    start = time.perf_counter()
    code, doc = _run_json(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert len(doc["error"]["message"]) < 200 and "2^1328" in doc["error"]["message"]


def test_shown_prints_ints_up_to_64_bits_in_full():
    assert shown(2**64 - 1) == 2**64 - 1 and shown(-(2**64) + 1) == -(2**64) + 1
    assert shown(2**64) == "over 2^64" and shown(-(2**70)) == "under -2^70"


def test_construct_g_family():
    code, doc = _run_json(["construct", "--g-family", "2", "0"])
    assert code == 0
    assert doc["n"] == 9 and doc["regular_degree"] == 4
    assert doc["origin"] == {"family": "g", "k": 2, "l": 0}
    assert len(doc["edges"]) == 9 * 4 // 2


def test_construct_g_family_over_the_budget_exits_2_at_once(monkeypatch):
    def no_edges(k, l):
        raise AssertionError("edges built before the price check")

    monkeypatch.setattr(families, "_g_family_edges", no_edges)
    start = time.perf_counter()
    code, doc = _run_json(["construct", "--g-family", "200", "0"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["code"] == "work-budget"


def test_construct_random_over_the_pairing_price_exits_2_at_once(monkeypatch):
    def no_sampler(seed):
        raise AssertionError("sampler seeded before the price check")

    monkeypatch.setattr(families.random, "Random", no_sampler)
    start = time.perf_counter()
    code, doc = _run_json(["construct", "--random", "100", "8", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["code"] == "work-budget"


def test_construct_random_is_deterministic():
    code1, doc1 = _run_json(["construct", "--random", "10", "3", "42"])
    code2, doc2 = _run_json(["construct", "--random", "10", "3", "42"])
    assert code1 == code2 == 0
    assert doc1 == doc2
    assert doc1["regular_degree"] == 3


def test_synchrony_exhaustive_json():
    code, doc = _run_json(
        ["synchrony", "--named", "petersen", "--t", "1", "--k", "1"]
    )
    assert code == 0
    assert doc["mode"] == "exhaustive"
    assert doc["p_k"] == "1"
    assert doc["e_k"] == "1/2"
    assert doc["i_star_histogram"] == {"2": 10}
    assert doc["p_k_stderr"] is None


def test_synchrony_mc_json_and_csv():
    argv = [
        "synchrony", "--graph6", "C~", "--t", "1", "--k", "2",
        "--mode", "mc", "--samples", "200", "--seed", "11",
    ]
    code, doc = _run_json(argv)
    assert code == 0
    assert doc["mode"] == "monte-carlo"
    assert doc["samples"] == 200
    assert doc["p_k"] == 1.0
    code, text = _run(argv + ["--format", "csv"])
    assert code == 0
    assert text == "i_star,count\n1,200\ninf,0\n"


def test_output_is_byte_identical_across_runs():
    for argv in (
        ["series", "--eval", "--max-k", "8", "--named", "paper-h"],
        ["bounds", "thm3", "--named", "paper-bipartite", "--m", "3", "--k", "4"],
        ["synchrony", "--named", "paper-bipartite", "--t", "2", "--k", "3"],
        ["construct", "--random", "12", "3", "5"],
    ):
        _, first = _run(argv)
        _, second = _run(argv)
        assert first == second, argv


def test_domain_errors_exit_2_with_error_document():
    code, doc = _run_json(["series", "--eval", "--max-k", "4", "--graph6", "C~"])
    assert code == 2
    assert doc["error"]["code"] == "convergence-domain"

    code, doc = _run_json(["bounds", "thm3", "--named", "petersen", "--m", "2", "--k", "2"])
    assert code == 2
    assert doc["error"]["code"] == "bipartite-required"

    code, doc = _run_json(["series", "--identify", "--edge-list", "/nonexistent/file.txt"])
    assert code == 2
    assert doc["error"]["code"] == "io-error"

    code, doc = _run_json(["construct", "--g-family", "2", "2"])
    assert code == 2
    assert doc["error"]["code"] == "invalid-parameter"

    code, doc = _run_json(["walks", "--named", "petersen", "--complement", "--max-k", "3"])
    assert code == 0  # complement of petersen is fine for walks


def test_parse_error_reports_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3\n0 0\n")
    code, doc = _run_json(["complexity", "--edge-list", str(p)])
    assert code == 2
    assert doc["error"]["code"] == "parse-error"
    assert "line 2" in doc["error"]["message"]


def test_usage_errors_exit_64():
    cases = [
        ["nosuch"],
        ["complexity"],  # missing input source
        ["complexity", "--named", "petersen", "--graph6", "C~"],  # conflicting sources
        ["complexity", "--named", "nosuchgraph"],
        ["walks", "--named", "petersen"],  # missing --max-k
        ["walks", "--named", "petersen", "--max-k", "0"],
        ["series", "--named", "petersen"],  # neither --eval nor --identify
        ["series", "--eval", "--named", "petersen"],  # --eval without --max-k
        ["series", "--identify", "--max-k", "4", "--named", "petersen"],
        ["series", "--eval", "--max-k", "4", "--precision-bits", "96", "--named", "petersen"],
        ["series", "--identify", "--precision-bits", "128", "--named", "petersen"],
        ["bounds", "thm2", "--named", "petersen"],  # missing --m
        ["bounds", "thm3", "--named", "petersen", "--m", "2"],  # missing --k
        ["synchrony", "--named", "petersen", "--t", "1", "--k", "2", "--samples", "5"],
        ["synchrony", "--named", "petersen", "--t", "1", "--k", "2", "--mode", "mc"],
        ["construct"],
        ["--threads", "0", "complexity", "--named", "petersen"],
        ["--threads", "1", "complexity", "--named", "petersen"],
        # --directed reads an edge list as arcs; no other source has arcs to read
        ["graph", "info", "--directed", "--named", "petersen"],
        ["graph", "export", "--directed", "--graph6", "DhC"],
        ["synchrony", "--directed", "--named", "petersen", "--t", "1", "--k", "1", "--mode", "exhaustive"],
    ]
    for argv in cases:
        code, _ = _run(argv)
        assert code == 64, argv


def test_usage_errors_print_the_usage_of_the_command_typed(capsys):
    # the cases above that only the command's own checks refuse, after argparse has parsed them
    for argv, usage in (
        (["series", "--eval", "--named", "petersen"], "usage: spanwalk series "),
        (["series", "--identify", "--max-k", "4", "--named", "petersen"], "usage: spanwalk series "),
        (["graph", "info", "--directed", "--named", "petersen"], "usage: spanwalk graph info "),
        (["graph", "export", "--directed", "--graph6", "DhC"], "usage: spanwalk graph export "),
        (["synchrony", "--named", "petersen", "--t", "1", "--k", "2", "--samples", "5"], "usage: spanwalk synchrony "),
        (["synchrony", "--named", "petersen", "--t", "1", "--k", "2", "--mode", "mc"], "usage: spanwalk synchrony "),
    ):
        code, out = _run(argv)
        err = capsys.readouterr().err
        assert (code, out) == (64, ""), argv
        assert err.startswith(usage), (argv, err)


def test_reals_serialize_with_17_significant_digits():
    code, text = _run(["bounds", "thm2", "--named", "paper-h", "--m", "3"])
    assert code == 0
    doc = json.loads(text)
    # re-parsing the printed real recovers the exact float
    printed = text.split('"log_value": ')[1].split(",")[0].strip()
    assert float(printed) == doc["log_value"]
    assert len(printed.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_one_parser_serves_every_call_with_fresh_interpreter_bytes(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    argvs = [
        ["bounds", "thm3", "--named", "paper-bipartite", "--m", "2"],  # missing --k: exit 64
        ["bounds", "--help"],
        ["bounds", "thm3", "--named", "paper-bipartite", "--m", "3", "--k", "4"],
        ["bounds", "thm3", "--named", "paper-bipartite", "--m", "3", "--k", "4"],
    ]
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._shared_parser.cache_clear()
    try:
        in_process = []
        for argv in argvs:
            code = run(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
    finally:
        cli._shared_parser.cache_clear()
    assert len(builds) == 1
    assert [code for code, _, _ in in_process] == [64, 0, 0, 0]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for argv, want in zip(argvs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "spanwalk.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == want, argv


BOUNDS_GOLDEN = Path(__file__).parent / "golden" / "bounds"


def _bounds_transcript() -> str:
    """Every bounds document on a fixed matrix of graphs, with its exit code.

    The sources are the three bundled graphs and their complements, two
    random regular bipartite edge lists, and the dense complements of two
    sparse random regular edge lists, all stored beside the transcript.
    """
    sources = []
    for name in ("petersen", "paper-h", "paper-bipartite"):
        sources += [["--named", name], ["--named", name, "--complement"]]
    for stem in ("rrb-20-3-1", "rrb-30-4-2"):
        sources.append(["--edge-list", f"{stem}.txt"])
    for stem in ("rr-12-2-1", "rr-20-3-1"):
        sources.append(["--edge-list", f"{stem}.txt", "--complement"])
    commands = [["prop1"], ["prop2"]]
    commands += [["thm2", "--m", str(m)] for m in (1, 2, 3, 5)]
    for m, k in ((1, 1), (2, 3), (4, 2), (6, 6), (10, 10)):
        for fmt in ("json", "csv"):
            commands.append(["thm3", "--m", str(m), "--k", str(k), "--format", fmt])
    parts = []
    for source in sources:
        located = [str(BOUNDS_GOLDEN / a) if a.endswith(".txt") else a for a in source]
        for command in commands:
            code, text = _run(["bounds", command[0], *located, *command[1:]])
            shown = " ".join(["spanwalk", "bounds", command[0], *source, *command[1:]])
            parts.append(f"$ {shown}\nexit {code}\n{text}")
    return "".join(parts)


def test_bounds_documents_match_the_golden_transcript():
    assert _bounds_transcript() == (BOUNDS_GOLDEN / "transcript.txt").read_text()


def _documents_transcript() -> str:
    """Every other command's documents on fixed inputs, with exit codes.

    The series, synchrony, walks, graph, construct and complexity documents,
    JSON and CSV, on the bundled graphs, two graph6 strings and an edge list
    stored beside the bounds transcript, read once as arcs.
    """
    rr = ["--edge-list", "rr-12-2-1.txt"]
    commands = [
        *(["series", "--eval", "--named", "petersen", "--max-k", str(k)] for k in (1, 6, 40)),
        ["series", "--eval", "--named", "paper-h", "--max-k", "8"],
        ["series", "--eval", "--graph6", "C~", "--max-k", "4"],
        ["series", "--identify", "--named", "petersen"],
    ]
    for sweep in (
        ["--named", "petersen", "--t", "1", "--k", "1"],
        ["--named", "paper-bipartite", "--t", "2", "--k", "3"],
        ["--graph6", "C~", "--t", "1", "--k", "2", "--mode", "mc", "--samples", "200", "--seed", "11"],
        ["--named", "petersen", "--t", "2", "--k", "3", "--mode", "mc", "--samples", "500", "--seed", "7"],
    ):
        for fmt in ("json", "csv"):
            commands.append(["synchrony", *sweep, "--format", fmt])
    commands += [
        ["walks", "--named", "paper-bipartite", "--max-k", "6"],
        ["walks", "--named", "petersen", "--complement", "--max-k", "4"],
        ["graph", "info", "--named", "paper-h"],
        ["graph", "info", "--directed", *rr],
        ["graph", "export", "--graph6", "DhC"],
        ["graph", "export", "--directed", *rr],
        ["construct", "--g-family", "3", "1"],
        ["construct", "--random", "12", "3", "5"],
        ["complexity", "--named", "petersen", "--complement"],
    ]
    parts = []
    for command in commands:
        located = [str(BOUNDS_GOLDEN / a) if a.endswith(".txt") else a for a in command]
        code, text = _run(located)
        parts.append(f"$ spanwalk {' '.join(command)}\nexit {code}\n{text}")
    return "".join(parts)


def test_other_documents_match_the_golden_transcript():
    assert _documents_transcript() == (BOUNDS_GOLDEN / "documents.txt").read_text()
