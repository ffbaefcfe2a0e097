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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable

from .errors import WorkBudgetError
from .graph import Graph

EXHAUSTIVE_BUDGET = 2_000_000  # most k-subsets an exhaustive sweep visits
_MAX_SAMPLED_WORK = 2**24  # most samples × (n + |E|) a Monte Carlo sweep may cost
_MAX_BLOCK_BITS = 1 << 22  # most n × lanes bits of lane ints that one block of seeds holds

# The engine is bit-sliced (Biham, FSE 1997): every vertex holds one int whose
# bit s says "active under seed s", so one round advances every seed (lane) of
# a block at once.


def _live_sources(g: Graph, t: int) -> list[tuple[int, tuple[int, ...]]]:
    """(v, in-neighbours of v) for each v with at least t in-neighbours: no other vertex can turn on."""
    return [(v, src) for v, src in enumerate(g.in_adjacency) if len(src) >= t]


def _round(live: list[tuple[int, tuple[int, ...]]], t: int, x: list[int]) -> list[int]:
    """One synchronous round on every lane: v turns on where at least t in-neighbours are on."""
    nxt = x[:]
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
        if not 0 <= v < g.n:
            raise ValueError(f"seed vertex {v} out of range for n={g.n}")
        x[v] = 1
    return x


def _active(x: list[int]) -> frozenset[int]:
    return frozenset(v for v, xv in enumerate(x) if xv)


def _check_threshold(t: int) -> None:
    if t < 1:
        raise ValueError("threshold t must be at least 1")


def spread_step(g: Graph, active: Iterable[int], t: int) -> frozenset[int]:
    """One synchronous round: the active set together with every newly activated vertex."""
    _check_threshold(t)
    return _active(_round(_live_sources(g, t), t, _one_lane(g, active)))


def fixed_point(g: Graph, seed: Iterable[int], t: int) -> frozenset[int]:
    """The limit of repeated spreading from seed (reached within n rounds)."""
    _check_threshold(t)
    live = _live_sources(g, t)
    x = _one_lane(g, seed)
    while (nxt := _round(live, t, x)) != x:
        x = nxt
    return _active(x)


def synchrony_index(g: Graph, seed: Iterable[int], t: int) -> int | float:
    """Rounds until full activation: 0 for the full seed, math.inf when spreading stalls."""
    _check_threshold(t)
    histogram, stalled = _sweep(g, t, [(_one_lane(g, seed), 1)])
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


def _contribution(index: int | float) -> Fraction:
    if index == math.inf:
        return Fraction(0)
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

    An exhaustive sweep over more than EXHAUSTIVE_BUDGET subsets, or a Monte
    Carlo sweep whose samples × (n + |E|) exceeds _MAX_SAMPLED_WORK, raises
    WorkBudgetError before any seed is drawn or evaluated.
    """
    _check_threshold(t)
    if not 1 <= k <= g.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={g.n}")
    if mode == "exhaustive":
        return _measure_exhaustive(g, t, k)
    if mode == "monte-carlo":
        if samples is None or samples < 1:
            raise ValueError("monte-carlo mode needs samples >= 1")
        if seed64 is None:
            raise ValueError("monte-carlo mode needs a seed")
        return _measure_monte_carlo(g, t, k, samples, seed64)
    raise ValueError(f"unknown mode {mode!r}; use 'exhaustive' or 'monte-carlo'")


def _sweep(
    g: Graph, t: int, blocks: Iterable[tuple[list[int], int]]
) -> tuple[dict[int, int], int]:
    """Histogram of the finite synchrony indices over every lane of blocks, and the stalled count.

    A block is (x, lanes): x[v] is vertex v's lane int.  A lane's index is the
    round at which the AND of all x first sets its bit; a block stops when all
    its lanes are full or a round changes no int.  Keys come in ascending order.
    """
    live = _live_sources(g, t)
    histogram: dict[int, int] = {}
    stalled = 0
    for x, lanes in blocks:
        ones = (1 << lanes) - 1
        counted = 0  # lanes whose index is known
        rounds = 0
        while True:
            full = ones
            for xv in x:
                full &= xv
                if not full:
                    break
            if full != counted:
                histogram[rounds] = histogram.get(rounds, 0) + (full ^ counted).bit_count()
                counted = full
            if counted == ones:
                break
            nxt = _round(live, t, x)
            if nxt == x:
                break
            x = nxt
            rounds += 1
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


def _exhaustive_blocks(n: int, k: int):
    """Every k-subset of range(n) once, as blocks (x, lanes) with n × lanes <= _MAX_BLOCK_BITS.

    The subsets fall into groups by their prefix of r smallest vertices, r as
    small as lets one group fit in a block (at r = k a group is one subset);
    a group's lanes follow combinations order.  Each block packs consecutive
    groups while they fit: a group's tail lanes are shifted past the lanes
    before it, and its prefix vertices are set on its own lanes only.  With
    r = 0 the one block is combinations(range(n), k) itself.
    """
    per_block = _MAX_BLOCK_BITS // n
    r = next(r for r in range(k + 1) if r == k or comb(n - r, k - r) <= per_block)
    vertices = tuple(range(n))  # sliced below, so that no level rebuilds the pool of prefixes
    x, lanes = [], 0
    for m, tail in _tail_lanes(n - r, k - r):
        size = comb(m, k - r)
        head = n - m  # vertices before the tail; the prefix ends at head - 1
        if r == 0:
            if m == n:
                yield tail, size
            continue
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


def _sampled_blocks(n: int, k: int, samples: int, rng: random.Random):
    """samples draws of rng.sample(range(n), k), in draw order, as blocks (x, lanes).

    Each block streams its draws into per-vertex bytearray rows, one bit per
    lane, and converts each row once.
    """
    per_block = max(1, _MAX_BLOCK_BITS // n)
    vertices = range(n)
    for first in range(0, samples, per_block):
        lanes = min(per_block, samples - first)
        rows = [bytearray((lanes + 7) // 8) for _ in vertices]
        for s in range(lanes):
            byte, bit = s >> 3, 1 << (s & 7)
            for v in rng.sample(vertices, k):
                rows[v][byte] |= bit
        yield [int.from_bytes(row, "little") for row in rows], lanes


def _mean_contribution(histogram: dict[int, int], total: int) -> Fraction:
    return sum((c * _contribution(i) for i, c in histogram.items()), Fraction(0)) / total


def _measure_exhaustive(g: Graph, t: int, k: int) -> SynchronyOutcome:
    total = comb(g.n, k)
    if total > EXHAUSTIVE_BUDGET:
        raise WorkBudgetError(
            f"C({g.n}, {k}) = {total} subsets exceeds the budget of {EXHAUSTIVE_BUDGET}; "
            "use monte-carlo mode"
        )
    histogram, stalled = _sweep(g, t, _exhaustive_blocks(g.n, k))
    return SynchronyOutcome(
        k=k,
        t=t,
        mode="exhaustive",
        samples=total,
        p_k=Fraction(total - stalled, total),
        e_k=_mean_contribution(histogram, total),
        p_k_stderr=None,
        e_k_stderr=None,
        i_star_histogram=histogram,
        non_synchronizing=stalled,
    )


def _measure_monte_carlo(g: Graph, t: int, k: int, samples: int, seed64: int) -> SynchronyOutcome:
    price = samples * (g.n + g.size)
    if price > _MAX_SAMPLED_WORK:
        raise WorkBudgetError(
            f"{samples} samples on {g.n} vertices and {g.size} edges cost {price}; "
            f"the budget is {_MAX_SAMPLED_WORK}"
        )
    # one stream per run; the seed is read mod 2^64, because Random(-s) == Random(s)
    rng = random.Random(seed64 & 0xFFFFFFFFFFFFFFFF)
    histogram, stalled = _sweep(g, t, _sampled_blocks(g.n, k, samples, rng))
    p_hat = (samples - stalled) / samples
    e_exact = _mean_contribution(histogram, samples)
    p_stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    if samples > 1:
        # squared deviations of 1/i* from its mean, a stalled seed contributing 0
        deviations = stalled * e_exact**2 + sum(
            c * (_contribution(i) - e_exact) ** 2 for i, c in histogram.items()
        )
        e_stderr = math.sqrt(deviations / (samples - 1) / samples)
    else:
        e_stderr = 0.0
    return SynchronyOutcome(
        k=k,
        t=t,
        mode="monte-carlo",
        samples=samples,
        p_k=p_hat,
        e_k=float(e_exact),
        p_k_stderr=p_stderr,
        e_k_stderr=e_stderr,
        i_star_histogram=histogram,
        non_synchronizing=stalled,
    )
