"""The four workloads: their inputs, their ops and the checks against pinned values.

The graphs of every workload are fixed (seeded generators use fixed
generator seeds), and the workload seed relabels their vertices and seeds
the Monte Carlo sweeps.  No answer depends on labels, so expected.json,
written by regen.py, pins every answer for every workload seed, and the cost
of generating and processing the inputs does not depend on the seed either.

Graphs are named by id strings:

  named:<name>          a bundled graph
  g:<k>,<l>             g_family(k, l)
  rr:<n>,<d>,<seed>     random_regular(n, d, seed)
  rrb:<n>,<d>,<seed>    random_regular_bipartite(n, d, seed)
  circ:<n>:<s1>,<s2>..  the circulant C_n(s1, s2, ...); circ:<n>:1 is the cycle

Workloads and why each was chosen:

  identify-ladder  certified identification of t(complement) over bundled
                   graphs, the g family, small random regular graphs, sparse
                   circulants up to n = 140, a dense circulant near the 2d < n
                   boundary and C_150, whose t exceeds the float range.  The walk
                   engine dominates the large rungs; series bracketing and
                   precision escalation dominate the small ones.
  exact-count      spanning_tree_count(complement(g)) on complements of sparse
                   random regular graphs, n = 10..120: Bareiss elimination and
                   complement only, no walks and no mpmath.
  bounds-cli       in-process CLI calls on edge-list files: the thm3 table, thm2,
                   prop2, walks and graph info on regular bipartite graphs, and
                   thm2 on C_150.  Many short walk tables, Laplacian traces,
                   ingest and serialization.
  synchrony        exhaustive and Monte Carlo p_k / e_k sweeps; the only
                   workload for the synchrony layer.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from harness import INVALID_JSON, WRONG_ANSWER, strict_json

WORKLOADS = ("identify-ladder", "exact-count", "bounds-cli", "synchrony")

# The random regular graphs of acceptance criterion 03: (n, d) with n <= 14
# and 2d < n, generated with seed 1000 + position.
IDENTIFY_RANDOM = (
    (6, 1), (6, 2), (7, 2), (8, 2), (8, 3), (9, 2), (9, 4), (10, 2), (10, 3), (10, 4),
    (11, 2), (11, 4), (12, 3), (12, 4), (12, 5), (13, 4), (13, 6), (14, 3), (14, 5), (14, 6),
)
EXACT_SIZES = tuple(range(10, 121, 10))
EXACT_DEGREES = (3, 4)
# d <= 4: the bipartite pairing sampler accepts roughly exp(-(d-1)^2/2) of its
# attempts, so larger d would make set-up time depend on generator luck.
BOUNDS_BIPARTITE = ((16, 3), (24, 4), (32, 4), (40, 4))
SYNC_RANDOM = ((12, 3), (14, 4), (16, 3), (16, 4), (18, 3))
OVERFLOW_CYCLE = "circ:150:1"

# Each rung with n < 20 is identified under this many vertex labelings per
# pass, so that the median and tail latencies rest on many samples.
SMALL_COPIES = 5


def generator_seed(n: int, d: int, j: int = 0) -> int:
    return 1_000_000 + 1000 * n + 100 * d + j


def build_graph(mods, gid: str):
    kind, _, rest = gid.partition(":")
    if kind == "named":
        return mods.families.named_graph(rest)
    if kind == "g":
        k, l = map(int, rest.split(","))
        return mods.families.g_family(k, l)
    if kind in ("rr", "rrb"):
        n, d, seed = map(int, rest.split(","))
        make = mods.families.random_regular if kind == "rr" else mods.families.random_regular_bipartite
        return make(n, d, seed)
    if kind == "circ":
        n_text, _, jumps = rest.partition(":")
        n = int(n_text)
        steps = [int(s) for s in jumps.split(",")]
        return mods.graph.Graph(n, frozenset((i, (i + s) % n) for i in range(n) for s in steps))
    raise ValueError(f"unknown graph id {gid!r}")


@dataclass
class Op:
    """One program call.  `kind` selects the check and `key` the pinned value."""

    kind: str
    key: tuple
    call: Callable[[], Any]

    @property
    def label(self) -> str:
        return " ".join([self.kind, *map(str, self.key)])


# ---------------------------------------------------------------- inputs


def identify_gids():
    gids = ["named:petersen", "named:paper-h", "named:paper-bipartite"]
    gids += [f"g:{k},{l}" for k in (2, 3, 4) for l in range(k)]
    gids += [f"rr:{n},{d},{1000 + i}" for i, (n, d) in enumerate(IDENTIFY_RANDOM)]
    gids += [f"circ:{n}:1,3" for n in range(20, 141, 20)]
    gids += ["circ:25:1,2,3,4,5,6", OVERFLOW_CYCLE]
    return gids


def exact_gids():
    return [f"rr:{n},{d},{generator_seed(n, d, j)}" for n in EXACT_SIZES for d in EXACT_DEGREES for j in (0, 1)]


def bounds_gids():
    return ["named:paper-bipartite"] + [f"rrb:{n},{d},{generator_seed(n, d)}" for n, d in BOUNDS_BIPARTITE]


def bounds_argvs():
    """CLI calls made on every bipartite graph; "{file}" stands for its edge-list path."""
    argvs = [
        ["bounds", "thm3", "--edge-list", "{file}", "--m", str(m), "--k", str(k), "--format", "csv"]
        for m in range(1, 11)
        for k in range(1, 11)
    ]
    argvs += [["bounds", "thm2", "--edge-list", "{file}", "--m", str(m)] for m in range(2, 11)]
    argvs.append(["bounds", "prop2", "--edge-list", "{file}"])
    argvs.append(["walks", "--edge-list", "{file}", "--max-k", "20"])
    argvs.append(["graph", "info", "--edge-list", "{file}"])
    return argvs


OVERFLOW_THM2 = ["bounds", "thm2", "--edge-list", "{file}", "--m", "2"]


def sync_sweeps():
    """(gid, t, k, samples) per sweep; samples is None for exhaustive sweeps."""
    sweeps = [("named:petersen", t, k, None) for t in (1, 2) for k in range(1, 7)]
    sweeps += [(gid, 2, k, None) for gid in ("named:paper-h", "named:paper-bipartite") for k in range(2, 6)]
    sweeps += [("circ:24:1,2", 1, 4, None), ("circ:24:1,2", 2, 4, None), ("circ:24:1,2", 2, 5, None)]
    sweeps += [(f"rr:{n},{d},{generator_seed(n, d)}", 2, k, None) for n, d in SYNC_RANDOM for k in (2, 3, 4)]
    sweeps += [("named:petersen", 2, 3, 20_000), ("circ:24:1,2", 2, 6, 4000)]
    sweeps += [(f"rr:26,4,{generator_seed(26, 4, j)}", 2, 5, 3000) for j in (0, 1)]
    return sweeps


# ---------------------------------------------------------------- batches


def spread(*groups: list) -> list:
    """Merge the groups so that each is spread evenly over the result, keeping its order.

    Cheap and costly ops then alternate through a pass, so a burst of
    machine noise cannot land on one kind of op only.
    """
    keyed = [((i + 0.5) / len(group), j, i) for j, group in enumerate(groups) for i in range(len(group))]
    return [groups[j][i] for _, j, i in sorted(keyed)]


def _graphs(mods, gids, rng):
    """One graph per id, relabelled by rng when it is given."""
    graphs = {}
    for gid in gids:
        if gid not in graphs:
            g = build_graph(mods, gid)
            graphs[gid] = g if rng is None else relabel(mods, g, rng)
    return graphs


def relabel(mods, g, rng: random.Random):
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return mods.graph.Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


def _cli_call(mods, argv):
    def call():
        out = io.StringIO()
        code = mods.cli.run(argv, out)
        return code, out.getvalue()

    return call


def build_batch(mods, workload: str, rng: random.Random | None, workdir: str) -> list[Op]:
    """Generate the workload's inputs (writing edge lists under workdir) and its ops.

    rng relabels the graphs and seeds the Monte Carlo sweeps; with rng None
    (as regen.py calls it) graphs keep their labels and appear once each.
    Ops look their function up through the module at call time, so tracing
    wrappers installed later are seen.
    """
    if workload == "identify-ladder":
        groups = ([], [], [])  # bundled and g family, seeded random, circulants
        for gid, g in _graphs(mods, identify_gids(), None).items():
            group = 2 if gid.startswith("circ:") else 1 if gid.startswith("rr:") else 0
            copies = 1 if rng is None or group == 2 else SMALL_COPIES
            for _ in range(copies):
                h = g if rng is None else relabel(mods, g, rng)
                groups[group].append(Op("identify", (gid,), lambda h=h: mods.series.identify_complexity_report(h)))
        return spread(*groups)
    if workload == "exact-count":
        by_size: dict[int, list[Op]] = {}
        for gid, g in _graphs(mods, exact_gids(), rng).items():
            op = Op("exact", (gid,), lambda g=g: mods.exact.spanning_tree_count(mods.graph.complement(g)))
            by_size.setdefault(g.n, []).append(op)
        return spread(*by_size.values())
    if workload == "bounds-cli":
        graphs = _graphs(mods, bounds_gids() + [OVERFLOW_CYCLE], rng)
        paths = {}
        for gid, g in graphs.items():
            paths[gid] = os.path.join(workdir, gid.replace(":", "_").replace(",", "-") + ".txt")
            with open(paths[gid], "w", encoding="utf-8") as fh:
                fh.write(mods.graph.to_edge_list_text(g))
        per_graph = []
        for gid in graphs:
            argvs = [OVERFLOW_THM2] if gid == OVERFLOW_CYCLE else bounds_argvs()
            kind = "cli-log" if gid == OVERFLOW_CYCLE else "cli"
            per_graph.append([
                Op(kind, (gid, " ".join(argv)), _cli_call(mods, [paths[gid] if a == "{file}" else a for a in argv]))
                for argv in argvs
            ])
        return spread(*per_graph)
    if workload == "synchrony":
        sweeps = sync_sweeps()
        graphs = _graphs(mods, [s[0] for s in sweeps], rng)
        fixed, seeded, sampled = [], [], []
        for gid, t, k, samples in sweeps:
            g = graphs[gid]
            if samples is None:
                op = Op("sync-exh", (gid, t, k), lambda g=g, t=t, k=k: mods.synchrony.measure_synchrony(g, t, k))
                (seeded if gid.startswith("rr:") else fixed).append(op)
            else:
                seed64 = 0 if rng is None else rng.getrandbits(64)
                call = lambda g=g, t=t, k=k, s=samples, s64=seed64: mods.synchrony.measure_synchrony(
                    g, t, k, mode="monte-carlo", samples=s, seed64=s64
                )
                sampled.append(Op("sync-mc", (gid, t, k, samples), call))
        return spread(fixed, seeded, sampled)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- checks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sync_key(gid: str, t: int, k: int) -> str:
    return f"{gid}|{t}|{k}"


def _contribution(index: int) -> float:
    return 1.0 if index == 0 else 1.0 / index


def mc_within_tolerance(outcome, dist: dict) -> bool:
    """A Monte Carlo sweep agrees with the exhaustive distribution of the same (graph, t, k).

    Every bin count (finite indices and the stalled bin) must lie within six
    binomial standard deviations (plus two) of its expected count, a margin a
    correct sampler exceeds with negligible probability; p_k and e_k must
    follow from the histogram the sweep reports.
    """
    samples = outcome.samples
    total = dist["total"]
    want = {int(i): c for i, c in dist["histogram"].items()}
    want["stalled"] = dist["stalled"]
    got = {int(i): c for i, c in outcome.i_star_histogram.items()}
    got["stalled"] = outcome.non_synchronizing
    if sum(got.values()) != samples:
        return False
    for index in set(want) | set(got):
        share = want.get(index, 0) / total
        observed = got.get(index, 0)
        if share == 0:
            if observed:
                return False
            continue
        if abs(observed - samples * share) > 6 * math.sqrt(samples * share * (1 - share)) + 2:
            return False
    synchronized = samples - outcome.non_synchronizing
    e_from_hist = sum(c * _contribution(i) for i, c in outcome.i_star_histogram.items()) / samples
    return math.isclose(outcome.p_k, synchronized / samples, rel_tol=1e-12, abs_tol=1e-15) and math.isclose(
        outcome.e_k, e_from_hist, rel_tol=1e-9, abs_tol=1e-12
    )


def check(op: Op, result: Any, expected: dict) -> str | None:
    """Failure kind for a returned result, or None when it matches the pinned value."""
    if op.kind == "identify":
        return None if result.value == int(expected["identify"][op.key[0]]) else WRONG_ANSWER
    if op.kind == "exact":
        return None if result == int(expected["exact"][op.key[0]]) else WRONG_ANSWER
    if op.kind in ("cli", "cli-log"):
        code, text = result
        if code != 0:
            return f"raised:exit-{code}"
        gid, argkey = op.key
        if "--format csv" not in argkey:
            try:
                doc = strict_json(text)
            except ValueError:
                return INVALID_JSON
        if op.kind == "cli":
            return None if digest(text) == expected["cli"][gid][argkey] else WRONG_ANSWER
        want = expected["cli_log_value"][f"{gid}|{argkey}"]
        ok = (
            isinstance(doc, dict)
            and doc.get("preconditions_ok") is True
            and isinstance(doc.get("log_value"), float)
            and math.isclose(doc["log_value"], want, rel_tol=1e-12)
        )
        return None if ok else WRONG_ANSWER
    if op.kind == "sync-exh":
        pin = expected["synchrony"][sync_key(*op.key)]
        ok = (
            result.p_k == Fraction(pin["p_k"])
            and result.e_k == Fraction(pin["e_k"])
            and {str(i): c for i, c in result.i_star_histogram.items()} == pin["histogram"]
            and result.non_synchronizing == pin["stalled"]
        )
        return None if ok else WRONG_ANSWER
    if op.kind == "sync-mc":
        gid, t, k, samples = op.key
        pin = expected["synchrony"][sync_key(gid, t, k)]
        ok = result.samples == samples and mc_within_tolerance(result, pin)
        return None if ok else WRONG_ANSWER
    raise ValueError(f"unknown op kind {op.kind!r}")
