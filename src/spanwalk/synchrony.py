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


def _in_neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[v] |= 1 << u
        if not g.directed:
            masks[u] |= 1 << v
    return masks


def _step_mask(masks: list[int], active: int, t: int, n: int) -> int:
    new = active
    for v in range(n):
        if not (active >> v) & 1 and (masks[v] & active).bit_count() >= t:
            new |= 1 << v
    return new


def _check_seed(g: Graph, seed: Iterable[int]) -> int:
    mask = 0
    for v in seed:
        if not 0 <= v < g.n:
            raise ValueError(f"seed vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


def _check_threshold(t: int) -> None:
    if t < 1:
        raise ValueError("threshold t must be at least 1")


def spread_step(g: Graph, active: Iterable[int], t: int) -> frozenset[int]:
    """One synchronous round: the active set together with every newly activated vertex."""
    _check_threshold(t)
    mask = _step_mask(_in_neighbor_masks(g), _check_seed(g, active), t, g.n)
    return frozenset(v for v in range(g.n) if (mask >> v) & 1)


def fixed_point(g: Graph, seed: Iterable[int], t: int) -> frozenset[int]:
    """The limit of repeated spreading from seed (reached within n rounds)."""
    _check_threshold(t)
    masks = _in_neighbor_masks(g)
    cur = _check_seed(g, seed)
    while True:
        nxt = _step_mask(masks, cur, t, g.n)
        if nxt == cur:
            return frozenset(v for v in range(g.n) if (cur >> v) & 1)
        cur = nxt


def _index_mask(masks: list[int], seed_mask: int, t: int, n: int) -> int | float:
    full = (1 << n) - 1
    if seed_mask == full:
        return 0
    cur = seed_mask
    rounds = 0
    while True:
        nxt = _step_mask(masks, cur, t, n)
        if nxt == full:
            return rounds + 1
        if nxt == cur:
            return math.inf
        cur = nxt
        rounds += 1


def synchrony_index(g: Graph, seed: Iterable[int], t: int) -> int | float:
    """Rounds until full activation: 0 for the full seed, math.inf when spreading stalls."""
    _check_threshold(t)
    return _index_mask(_in_neighbor_masks(g), _check_seed(g, seed), t, g.n)


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

    An exhaustive sweep over more than EXHAUSTIVE_BUDGET subsets raises
    WorkBudgetError before any seed is evaluated.
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


def _subset_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _sweep(g: Graph, t: int, seed_masks: Iterable[int]) -> tuple[dict[int, int], int]:
    """Histogram of the finite synchrony indices over seed_masks, and the stalled count."""
    masks = _in_neighbor_masks(g)
    histogram: dict[int, int] = {}
    stalled = 0
    for seed_mask in seed_masks:
        index = _index_mask(masks, seed_mask, t, g.n)
        if index == math.inf:
            stalled += 1
        else:
            histogram[index] = histogram.get(index, 0) + 1
    return histogram, stalled


def _mean_contribution(histogram: dict[int, int], total: int) -> Fraction:
    return sum((c * _contribution(i) for i, c in histogram.items()), Fraction(0)) / total


def _measure_exhaustive(g: Graph, t: int, k: int) -> SynchronyOutcome:
    total = comb(g.n, k)
    if total > EXHAUSTIVE_BUDGET:
        raise WorkBudgetError(
            f"C({g.n}, {k}) = {total} subsets exceeds the budget of {EXHAUSTIVE_BUDGET}; "
            "use monte-carlo mode"
        )
    histogram, stalled = _sweep(g, t, map(_subset_mask, combinations(range(g.n), k)))
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
    # one stream per run; the seed is read mod 2^64, because Random(-s) == Random(s)
    rng = random.Random(seed64 & 0xFFFFFFFFFFFFFFFF)
    vertices = range(g.n)
    histogram, stalled = _sweep(
        g, t, (_subset_mask(rng.sample(vertices, k)) for _ in range(samples))
    )
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
