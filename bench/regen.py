"""Regenerate expected.json, the answers the benchmark checks against.

Usage (from the repository root; takes a few minutes):

  python3 bench/regen.py

Every graph of every workload gets its answers pinned, each derived from a
path other than the one the workload times, and cross-checked:

  identify     t(complement) by Bareiss elimination; deletion-contraction
               (tests/oracles.py) agrees for n <= 8, and identification itself
               agrees wherever t < 2^1024.
  exact        Bareiss, cross-checked against certified identification.
  cli          SHA-256 prefixes of the CLI output, pinned after checking the
               documents: graph info against the graph, walk counts against
               depth-first enumeration (k <= 6), every thm3 and thm2 bound
               against the Bareiss count, thm2 on C_150 by a direct evaluation
               from Laplacian traces.
  synchrony    exhaustive p_k, e_k and histograms, cross-checked against a
               set-based sweep for up to 20 000 subsets.  The same exhaustive
               distributions are the reference for the Monte Carlo sweeps;
               twenty Monte Carlo seeds per sweep are checked against them here.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "tests"))

import run  # noqa: E402
import workloads  # noqa: E402
from harness import strict_json  # noqa: E402

SET_SWEEP_LIMIT = 20_000
MC_CHECK_SEEDS = range(20)
ORACLE_MAX_N = 8


def require(condition: bool, what) -> None:
    if not condition:
        raise RuntimeError(f"cross-check failed: {what}")


def reference_sweep(g, t: int, k: int):
    """p_k, e_k, histogram and stalled count by explicit set-based spreading."""
    nbrs = g.in_neighbor_sets()
    n = g.n
    histogram: Counter = Counter()
    stalled = 0
    for subset in combinations(range(n), k):
        active = set(subset)
        rounds = 0
        index = 0 if len(active) == n else None
        while index is None:
            new = {v for v in range(n) if v not in active and len(nbrs[v] & active) >= t}
            if not new:
                break
            active |= new
            rounds += 1
            if len(active) == n:
                index = rounds
        if index is None:
            stalled += 1
        else:
            histogram[index] += 1
    total = comb(n, k)
    e_sum = sum(c * (Fraction(1) if i == 0 else Fraction(1, i)) for i, c in histogram.items())
    return Fraction(total - stalled, total), e_sum / total, dict(histogram), stalled


def thm2_log_reference(g, m: int, mpmath) -> float:
    """The thm2 log bound from Laplacian power traces computed by plain matrix products."""
    n = g.n
    deg = [len(s) for s in g.neighbor_sets()]
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        lap[u][v] = lap[v][u] = -1
    for v in range(n):
        lap[v][v] = deg[v]
    traces, power = [], [row[:] for row in lap]
    for r in range(1, m + 1):
        if r > 1:
            power = [[sum(power[i][x] * lap[x][j] for x in range(n)) for j in range(n)] for i in range(n)]
        traces.append(sum(power[i][i] for i in range(n)))
    with mpmath.workprec(200):
        tr_m = mpmath.mpf(traces[m - 1])
        y = tr_m ** (mpmath.mpf(1) / m) / n
        corr = sum((traces[k - 1] - tr_m ** (mpmath.mpf(k) / m)) / (k * mpmath.mpf(n) ** k) for k in range(1, m))
        return float((n - 2) * mpmath.log(n) + mpmath.log(1 - y) - corr)


def pin_identify(mods, ops, oracles):
    pins = {}
    for op in ops:
        gid = op.key[0]
        g = workloads.build_graph(mods, gid)
        value = mods.exact.spanning_tree_count(mods.graph.complement(g))
        if g.n <= ORACLE_MAX_N:
            require(oracles.deletion_contraction_tree_count(mods.graph.complement(g)) == value, gid)
        if value.bit_length() <= 1024:
            require(op.call().value == value, gid)
        pins[gid] = str(value)
    return pins


def pin_exact(mods, ops):
    pins = {}
    for op in ops:
        gid = op.key[0]
        value = op.call()
        require(mods.series.identify_complexity(workloads.build_graph(mods, gid)) == value, gid)
        pins[gid] = str(value)
    return pins


def check_cli_doc(mods, oracles, g, exact: int, argkey: str, text: str) -> None:
    words = argkey.split()
    if words[:2] == ["graph", "info"]:
        doc = strict_json(text)
        degrees = set(g.degree_sequence())
        require(doc["n"] == g.n and doc["size"] == len(g.edges), argkey)
        require(doc["regular_degree"] == (degrees.pop() if len(degrees) == 1 else None), argkey)
        require(doc["bipartite"] is True, argkey)
    elif words[0] == "walks":
        counts = [int(w) for w in strict_json(text)["counts"]]
        require(len(counts) == 20 and counts[1] == 2 * len(g.edges), argkey)
        for k in range(1, 7):
            require(counts[k - 1] == oracles.dfs_closed_walks(g, k), (argkey, k))
    elif words[:2] == ["bounds", "thm3"]:
        header, row = text.strip().splitlines()
        require(header == "m,k,lower,upper", argkey)
        _, _, low, high = row.split(",")
        require(float(high) >= exact * (1 - 1e-12), argkey)
        if low:
            require(float(low) <= exact * (1 + 1e-12), argkey)
    elif words[1] in ("thm2", "prop2"):
        doc = strict_json(text)
        if words[1] == "thm2" and doc["preconditions_ok"]:
            require(doc["linear_value"] <= exact * (1 + 1e-12), argkey)


def pin_cli(mods, ops, oracles):
    digests: dict = {}
    log_values = {}
    graphs, exact = {}, {}
    for op in ops:
        gid, argkey = op.key
        if gid not in graphs:
            graphs[gid] = workloads.build_graph(mods, gid)
            exact[gid] = mods.exact.spanning_tree_count(mods.graph.complement(graphs[gid]))
        code, text = op.call()
        require(code == 0, (gid, argkey, text))
        if op.kind == "cli-log":
            want = thm2_log_reference(graphs[gid], 2, mods.mpmath)
            got = mods.bounds.thm2_lower(graphs[gid], 2).log_value
            require(math.isclose(got, want, rel_tol=1e-12), (got, want))
            require(math.isclose(want, math.log(exact[gid]), rel_tol=0.05), (want, exact[gid]))
            log_values[f"{gid}|{argkey}"] = want
            continue
        check_cli_doc(mods, oracles, graphs[gid], exact[gid], argkey, text)
        digests.setdefault(gid, {})[argkey] = workloads.digest(text)
    return digests, log_values


def pin_synchrony(mods, ops):
    pins = {}
    for op in ops:
        gid, t, k = op.key[:3]
        key = workloads.sync_key(gid, t, k)
        if key not in pins:
            g = workloads.build_graph(mods, gid)
            out = mods.synchrony.measure_synchrony(g, t, k)
            if comb(g.n, k) <= SET_SWEEP_LIMIT:
                p, e, hist, stalled = reference_sweep(g, t, k)
                require((out.p_k, out.e_k, out.i_star_histogram, out.non_synchronizing) == (p, e, hist, stalled), key)
            pins[key] = {
                "p_k": str(out.p_k),
                "e_k": str(out.e_k),
                "histogram": {str(i): c for i, c in sorted(out.i_star_histogram.items())},
                "stalled": out.non_synchronizing,
                "total": out.samples,
            }
        if op.kind == "sync-mc":
            g, samples = workloads.build_graph(mods, gid), op.key[3]
            for seed64 in MC_CHECK_SEEDS:
                out = mods.synchrony.measure_synchrony(g, t, k, mode="monte-carlo", samples=samples, seed64=seed64)
                require(workloads.mc_within_tolerance(out, pins[key]), (op.label, seed64))
    return pins


def main() -> int:
    mods = run.import_program()
    import oracles  # after the program, which it imports

    expected = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        batch = {w: workloads.build_batch(mods, w, None, workdir) for w in workloads.WORKLOADS}
        expected["identify"] = pin_identify(mods, batch["identify-ladder"], oracles)
        print(f"identify: {len(expected['identify'])} graphs", flush=True)
        expected["exact"] = pin_exact(mods, batch["exact-count"])
        print(f"exact: {len(expected['exact'])} graphs", flush=True)
        expected["cli"], expected["cli_log_value"] = pin_cli(mods, batch["bounds-cli"], oracles)
        print(f"cli: {sum(map(len, expected['cli'].values()))} digests", flush=True)
        expected["synchrony"] = pin_synchrony(mods, batch["synchrony"])
        print(f"synchrony: {len(expected['synchrony'])} sweeps", flush=True)
    path = BENCH / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
