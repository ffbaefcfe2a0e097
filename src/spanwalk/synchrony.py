"""Threshold-spreading dynamics and synchrony measures.

A seed set S of active vertices spreads in synchronous rounds: an inactive
vertex activates when at least t of its (in-)neighbors are active, and active
vertices stay active.  The synchrony index i*(S, t) is the first round at
which everything is active, 0 when S is already the whole vertex set, and
infinity when spreading stalls short of it.

For seed size k the sweep measures
  p_k  the probability that a uniform k-subset synchronizes, and
  e_k  the expected reciprocal synchrony index, where 1/i* contributes 0 for
       a stalled seed and 1 for the full-vertex seed,
either exhaustively over all k-subsets (exact rationals) or by seeded
Monte Carlo sampling (floats with standard errors).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_
from typing import Callable, Iterable, Iterator

from .errors import WorkBudgetError, excerpt, require_type, shown
from .graph import Graph

_MAX_SWEEP_WORK = 2**23  # most lane-int operations one sweep may cost: building its seeds, then its rounds
_MAX_BLOCK_BITS = 1 << 22  # most n × lanes bits of lane ints that one block of seeds holds
_Rounds = Callable[[list[int]], Iterator[list[int]]]  # x, then x after each round that changes it

# The engine is bit-sliced (Biham, FSE 1997): every vertex holds one int whose
# bit s says "active under seed s", so one round advances every seed (lane) of
# a block at once.


def _live_sources(g: Graph, t: int) -> list[tuple[int, tuple[int, ...]]]:
    """(v, in-neighbours of v) for each v with at least t in-neighbours: no other vertex can turn on."""
    return [(v, src) for v, src in enumerate(g.in_adjacency) if len(src) >= t]


def _metered(g: Graph, t: int, seed_work: int, blocks: int, what: str, hint: str = "") -> _Rounds:
    """The rounds of one sweep at threshold t, charged as they run: rounds(x) for a block x.

    Before any seed is built the sweep is charged seed_work and one round for
    each of at most blocks blocks.  A round costs n + Σ_live |src|·min(t, |src|)
    lane-int operations: one pass over the vertex ints, and at most
    min(t, |src|) counter updates for each in-neighbour of a live vertex.
    rounds(x) yields x, then x after each round that changes it, and stops
    after a round that changes nothing; each _round call but a block's first
    is charged just before it runs.  WorkBudgetError is raised as soon as the
    charge passes _MAX_SWEEP_WORK.

    No sweep that fits the a-priori price this meter replaced is refused.
    Once a round leaves a lane unchanged it stays at a fixed point, and a
    round that changes it turns on a live vertex in it, so a lane changes in
    at most |live| rounds, all before its first unchanged round, and a block
    makes at most |live| + 1 _round calls.  At t = 1 on an undirected graph
    a seed set turns on at round i the vertices at distance i from it, so no
    lane changes past twice the largest breadth-first depth of a component,
    and a block makes at most that + 1 calls.  A block is charged
    max(calls, 1) rounds and a sweep runs at most blocks blocks, so the
    charge never passes seed_work + blocks·(depth + 1)·(cost of a round),
    depth the smaller bound: the price that was checked before any work.
    """
    live = _live_sources(g, t)
    round_work = g.n + sum(len(src) * min(t, len(src)) for _, src in live)
    spent = 0

    def charge(work: int) -> None:
        nonlocal spent
        spent += work
        if spent > _MAX_SWEEP_WORK:
            raise WorkBudgetError(
                f"{what} on {g.n} vertices is charged {shown(spent)} lane-int operations; "
                f"the budget is {_MAX_SWEEP_WORK}{hint}"
            )

    def rounds(x: list[int]) -> Iterator[list[int]]:
        yield x
        while (nxt := _round(live, t, x)) != x:
            x = nxt
            yield x
            charge(round_work)

    charge(seed_work + blocks * round_work)
    return rounds


def _round(live: list[tuple[int, tuple[int, ...]]], t: int, x: list[int]) -> list[int]:
    """One synchronous round on every lane: v turns on where at least t in-neighbours are on."""
    nxt = x[:]
    if t == 1:  # a live source has an in-neighbour, so reduce never sees an empty input
        for v, src in live:
            nxt[v] |= reduce(or_, map(x.__getitem__, src))
        return nxt
    for v, src in live:
        # c[j] holds the lanes with more than j active in-neighbours among those seen
        c = [0] * t
        for seen, u in enumerate(src):
            xu = x[u]
            for j in range(min(t - 1, seen), 0, -1):
                c[j] |= c[j - 1] & xu
            c[0] |= xu
        nxt[v] |= c[-1]
    return nxt


def _one_lane(g: Graph, seed: Iterable[int]) -> list[int]:
    x = [0] * g.n
    for v in seed:
        require_type("seed vertex", v)
        if not 0 <= v < g.n:
            raise ValueError(f"seed vertex {shown(v)} out of range for n={g.n}")
        x[v] = 1
    return x


def _active(x: list[int]) -> frozenset[int]:
    return frozenset(v for v, xv in enumerate(x) if xv)


def _check_threshold(t: int) -> None:
    require_type("threshold t", t)
    if t < 1:
        raise ValueError("threshold t must be at least 1")


def spread_step(g: Graph, active: Iterable[int], t: int) -> frozenset[int]:
    """One synchronous round: the active set together with every newly activated vertex."""
    _check_threshold(t)
    return _active(_round(_live_sources(g, t), t, _one_lane(g, active)))


def fixed_point(g: Graph, seed: Iterable[int], t: int) -> frozenset[int]:
    """The limit of repeated spreading from seed (reached within n rounds)."""
    _check_threshold(t)
    rounds = _metered(g, t, g.n, 1, "spreading from one seed")
    for x in rounds(_one_lane(g, seed)):
        pass  # the last state is the limit
    return _active(x)


def synchrony_index(g: Graph, seed: Iterable[int], t: int) -> int | float:
    """Rounds until full activation: 0 for the full seed, math.inf when spreading stalls."""
    _check_threshold(t)
    rounds = _metered(g, t, g.n, 1, "spreading from one seed")
    histogram, stalled = _sweep(rounds, [(_one_lane(g, seed), 1)])
    return math.inf if stalled else next(iter(histogram))


@dataclass(frozen=True)
class SynchronyOutcome:
    """Result of a p_k / e_k sweep.

    Exhaustive mode fills p_k and e_k with exact Fractions and leaves the
    standard errors None; Monte Carlo mode fills floats plus standard errors.
    i_star_histogram maps each finite synchrony index seen to its count and
    non_synchronizing counts the stalled seeds.
    """

    k: int
    t: int
    mode: str
    samples: int
    p_k: Fraction | float
    e_k: Fraction | float
    p_k_stderr: float | None
    e_k_stderr: float | None
    i_star_histogram: dict[int, int] = field(default_factory=dict)
    non_synchronizing: int = 0


def _contribution(index: int) -> Fraction:
    """1/index for a finite synchrony index; a stalled seed is counted apart and contributes 0."""
    if index == 0:
        return Fraction(1)  # the full-vertex seed counts as already synchronized
    return Fraction(1, index)


def measure_synchrony(
    g: Graph,
    t: int,
    k: int,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed64: int | None = None,
) -> SynchronyOutcome:
    """Measure p_k and e_k over k-subsets, exhaustively or by Monte Carlo.

    Both modes run one bit-sliced sweep, metered by _metered: building the
    seeds and one round per block are charged before any seed is built or
    drawn, and each later round as it runs.  Building the seeds costs n for
    each of the C(n - k + r, r) exhaustive groups of r-vertex prefixes (see
    _prefix_length) and samples·(k + n) for Monte Carlo draws.  With b
    lanes a block, an exhaustive sweep runs at most 2⌈C(n, k)/b⌉ − 1 blocks,
    because two consecutive blocks hold more than b lanes; a Monte Carlo
    sweep runs ⌈samples/b⌉.  Over _MAX_SWEEP_WORK, WorkBudgetError is raised.
    When C(n, k) >= 2^min(k, n - k) alone puts the blocks past 2^64, that
    lower bound is charged instead, before any binomial is computed: such a
    refusal prints its charge only as a power of two.  samples and seed64
    belong to monte-carlo mode: passing either in exhaustive mode raises
    ValueError.
    """
    _check_threshold(t)
    n = g.n
    require_type("k", k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={shown(k)}, n={n}")
    per_block = _MAX_BLOCK_BITS // n
    if mode == "exhaustive":
        if samples is not None or seed64 is not None:
            raise ValueError("samples and seed64 apply only to monte-carlo mode")
        what = f"an exhaustive sweep of the C({n}, {k}) subsets"
        hint = "; use monte-carlo mode"
        floor = min(k, n - k) - per_block.bit_length()
        if floor > 64:  # C(n, k) >= 2^min(k, n - k) lanes fill over 2^floor blocks: always refused
            _metered(g, t, 0, 1 << floor, what, hint)
        r = _prefix_length(n, k, per_block)
        total = comb(n, k)
        groups = comb(n - k + r, r)  # a group is one subset at r = k, and C(n, k) = total
        rounds = _metered(g, t, groups * n, 2 * -(-total // per_block) - 1, what, hint)
        blocks = _exhaustive_blocks(n, k, r, per_block)
    elif mode == "monte-carlo":
        if samples is not None:
            require_type("samples", samples)
        if samples is None or samples < 1:
            raise ValueError("monte-carlo mode needs samples >= 1")
        if seed64 is None:
            raise ValueError("monte-carlo mode needs a seed")
        require_type("seed64", seed64)
        total = samples
        what = f"a sweep of {shown(samples)} samples"
        rounds = _metered(g, t, samples * (k + n), -(-samples // per_block), what)
        # one stream per run; the seed is read mod 2^64, because Random(-s) == Random(s)
        blocks = _sampled_blocks(n, k, samples, per_block, random.Random(seed64 & 0xFFFFFFFFFFFFFFFF))
    else:
        raise ValueError(f"unknown mode {excerpt(mode)}; use 'exhaustive' or 'monte-carlo'")
    histogram, stalled = _sweep(rounds, blocks)
    p_k = Fraction(total - stalled, total)
    e_k = sum((c * _contribution(i) for i, c in histogram.items()), Fraction(0)) / total
    if mode == "exhaustive":
        return SynchronyOutcome(k, t, mode, total, p_k, e_k, None, None, histogram, stalled)
    p_hat = float(p_k)
    # squared deviations of 1/i* from its mean, a stalled seed contributing 0
    deviations = stalled * e_k**2 + sum(c * (_contribution(i) - e_k) ** 2 for i, c in histogram.items())
    e_stderr = math.sqrt(deviations / (total - 1) / total) if total > 1 else 0.0
    p_stderr = math.sqrt(p_hat * (1.0 - p_hat) / total)
    return SynchronyOutcome(k, t, mode, total, p_hat, float(e_k), p_stderr, e_stderr, histogram, stalled)


def _sweep(rounds: _Rounds, blocks: Iterable[tuple[list[int], int]]) -> tuple[dict[int, int], int]:
    """Histogram of the finite synchrony indices over every lane of blocks, and the stalled count.

    A block is (x, lanes): x[v] is vertex v's lane int, and rounds(x) its
    metered rounds (see _metered).  A lane's index is the round at which the
    AND of all x first sets its bit; a block stops when all its lanes are
    full or a round changes no int.  Keys come in ascending order.
    """
    histogram: dict[int, int] = {}
    stalled = 0
    for x, lanes in blocks:
        ones = (1 << lanes) - 1
        counted = 0  # lanes whose index is known
        for i, x in enumerate(rounds(x)):
            full = ones
            for xv in x:
                full &= xv
                if not full:
                    break
            if full != counted:
                histogram[i] = histogram.get(i, 0) + (full ^ counted).bit_count()
                counted = full
            if counted == ones:
                break
        stalled += lanes - counted.bit_count()
    return dict(sorted(histogram.items())), stalled


def _tail_lanes(top: int, j: int):
    """(m, X(m, j)) for m = j..top, where X(m, j)[v] has bit s set when v is in
    the s-th tuple of combinations(range(m), j).

    The j-subsets of m vertices are those holding vertex 0, then the rest, so
    X(m, i)[0] = ones(C(m-1, i-1)) and X(m, i)[v] = X(m-1, i-1)[v-1] |
    X(m-1, i)[v-1] << C(m-1, i-1).  Built bottom-up, keeping one level of the
    i that a later X(m', j) still needs: its lanes number at most C(top, j).
    """
    level = {0: []}  # X(0, 0): no vertices, one lane (the empty subset)
    for m in range(top + 1):
        if m:
            new = {}
            for i in range(max(0, j - (top - m)), min(m, j) + 1):
                if i == 0:
                    new[0] = [0] * m
                    continue
                shift = comb(m - 1, i - 1)
                rest = level.get(i, [0] * (m - 1))  # X(m-1, i) holds no lane when i = m
                if i == 1:  # X(m-1, 0) is all zeros
                    new[1] = [(1 << shift) - 1] + [b << shift for b in rest]
                    continue
                new[i] = [(1 << shift) - 1] + [a | b << shift for a, b in zip(level[i - 1], rest)]
            level = new
        if m >= j:
            yield m, level[j]


def _prefix_length(n: int, k: int, per_block: int) -> int:
    """The least r >= 1 whose groups, at most C(n - r, k - r) k-subsets each, fit in per_block lanes.

    C(n - r, k - r) does not grow with r, so r is found by bisection.  It is
    at least 2^min(k - r, n - k), so when n - k is at least the bit length
    of the lanes a block holds, no r up to k minus that bit length fits: the
    search starts past them, where every binomial is small.
    """
    bits = per_block.bit_length()
    low = max(1, k - bits) if n - k >= bits else 1
    return low + bisect_left(range(low, k), True, key=lambda r: comb(n - r, k - r) <= per_block)


def _exhaustive_blocks(n: int, k: int, r: int, per_block: int):
    """Every k-subset of range(n) once, as blocks (x, lanes) of at most per_block lanes.

    The subsets fall into groups by their prefix of r smallest vertices, r
    from _prefix_length(n, k, per_block), so that a group fits in a block (at
    r = k a group is one subset); groups come by the
    last prefix vertex descending, and a group's lanes follow combinations
    order.  Each block packs consecutive groups while they fit: a group's
    tail lanes are shifted past the lanes before it, and its prefix vertices
    are set on its own lanes only.
    """
    vertices = tuple(range(n))  # sliced below, so that no level rebuilds the pool of prefixes
    x, lanes = [], 0
    for m, tail in _tail_lanes(n - r, k - r):
        size = comb(m, k - r)
        head = n - m  # vertices before the tail; the prefix ends at head - 1
        ones = (1 << size) - 1
        for prefix in combinations(vertices[: head - 1], r - 1):
            if lanes and lanes + size > per_block:
                yield x, lanes
                lanes = 0
            if lanes:
                x[head:] = [a | b << lanes for a, b in zip(x[head:], tail)]
            else:
                x = [0] * head + tail  # the first group of a block needs no shift
            for v in (*prefix, head - 1):
                x[v] |= ones << lanes
            lanes += size
    if lanes:
        yield x, lanes


def _sampled_blocks(n: int, k: int, samples: int, per_block: int, rng: random.Random):
    """samples k-subsets of range(n), drawn from rng, as blocks of at most per_block lanes.

    The draws are read from rng.getrandbits in the order random.Random.sample
    reads them, so lane s holds the s-th sample that rng would give for
    range(n) and k.  Like sample, the sweep picks a branch by setsize.  At n
    <= setsize it runs a partial Fisher-Yates shuffle of a fresh pool:
    position i redraws getrandbits((n - i).bit_length()) while the value is
    at least n - i, and the pool's last live entry fills the vacancy.  Past
    setsize it draws getrandbits(n.bit_length()), redrawn while the value is
    at least n or already chosen.  Each block streams its draws into
    per-vertex bytearray rows, one bit per lane, and converts each row once.
    """
    getrandbits = rng.getrandbits
    setsize = 21  # random.sample's size of a small set minus that of an empty list
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    spans = [(m, m.bit_length()) for m in range(n, n - k, -1)]
    bits = n.bit_length()
    vertices = list(range(n))
    for first in range(0, samples, per_block):
        lanes = min(per_block, samples - first)
        rows = [bytearray((lanes + 7) // 8) for _ in vertices]
        for s in range(lanes):
            byte, bit = s >> 3, 1 << (s & 7)
            if n <= setsize:
                pool = vertices[:]
                for m, b in spans:
                    j = getrandbits(b)
                    while j >= m:
                        j = getrandbits(b)
                    rows[pool[j]][byte] |= bit
                    pool[j] = pool[m - 1]
            else:  # a vertex already chosen for lane s has its bit set
                for _ in range(k):
                    j = getrandbits(bits)
                    while j >= n or rows[j][byte] & bit:
                        j = getrandbits(bits)
                    rows[j][byte] |= bit
        yield [int.from_bytes(row, "little") for row in rows], lanes
