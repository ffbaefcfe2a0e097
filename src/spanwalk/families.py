"""Graph constructions: bundled example graphs, a triangle-minimal regular family,
and seeded random regular generators."""

from __future__ import annotations

import math
import random

from .errors import RetryBudgetError, WorkBudgetError
from .graph import Graph

_MAX_ATTEMPTS = 200_000  # pairings a random regular sampler tries before RetryBudgetError
_MAX_PAIRING_WORK = 1 << 22  # most expected stub placements a random regular request may price
_MAX_FAMILY_PAIRS = 1 << 16  # most x-y pairs g_family lays out before WorkBudgetError

# Bundled example graphs, given as literal edge sets on vertices 0..9.
_PETERSEN_EDGES = (
    # outer 5-cycle, inner 5-cycle stepping by two, and the five spokes
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
)

_PAPER_H_EDGES = (
    (1, 2), (1, 3), (2, 3), (1, 4), (2, 6),
    (3, 5), (4, 5), (5, 6), (4, 7), (6, 8),
    (7, 9), (7, 0), (8, 9), (8, 0), (9, 0),
)

_PAPER_BIPARTITE_EDGES = (
    (1, 7), (1, 8), (1, 9), (2, 8), (2, 9),
    (2, 0), (3, 6), (3, 9), (3, 0), (4, 0),
    (4, 6), (4, 7), (5, 6), (5, 7), (5, 8),
)

_NAMED = {
    "petersen": (10, _PETERSEN_EDGES),
    "paper-h": (10, _PAPER_H_EDGES),
    "paper-bipartite": (10, _PAPER_BIPARTITE_EDGES),
}
NAMED_GRAPHS = tuple(_NAMED)  # the bundled graph names, in the order they are offered


def named_graph(name: str) -> Graph:
    """One of the bundled example graphs: petersen, paper-h, or paper-bipartite.

    All three are cubic on 10 vertices.  petersen is triangle-free with girth
    5, paper-h has exactly 3 triangles, and paper-bipartite is bipartite with
    parts {0..4} and {5..9}.
    """
    try:
        n, edges = _NAMED[name]
    except KeyError:
        raise ValueError(f"unknown graph name {name!r}; choose from {list(NAMED_GRAPHS)}") from None
    return Graph(n, frozenset(edges))


def g_family(k: int, l: int) -> Graph:
    """A 2k-regular graph on 4k + 2l + 1 vertices with exactly k(k - l - 1) triangles.

    Construction: start from vertices x_0..x_{2k+l-1}, y_0..y_{2k+l-1} and a
    hub z.  Join every x to every y, then delete an (l+1)-regular cyclic-shift
    factor between {x_0..x_{k-1}} and {y_0..y_{k-1}} and an l-regular
    cyclic-shift factor between the remaining x's and y's.  Finally join z to
    x_0..x_{k-1} and y_0..y_{k-1}.  Requires k > l >= 0.  Laying out more
    than _MAX_FAMILY_PAIRS x-y pairs raises WorkBudgetError before any edge
    is built.
    """
    if l < 0 or k <= l:
        raise ValueError(f"need k > l >= 0, got k={k}, l={l}")
    side = 2 * k + l
    if side * side > _MAX_FAMILY_PAIRS:
        raise WorkBudgetError(
            f"g_family({k}, {l}) lays out {side * side} x-y pairs, over the budget of {_MAX_FAMILY_PAIRS}"
        )
    return Graph(2 * side + 1, frozenset(_g_family_edges(k, l)))


def _g_family_edges(k: int, l: int) -> set[tuple[int, int]]:
    side = 2 * k + l
    xs = list(range(side))
    ys = [side + i for i in range(side)]
    hub = 2 * side
    edges = {(xs[i], ys[j]) for i in range(side) for j in range(side)}
    for i in range(k):
        for shift in range(l + 1):
            edges.discard((xs[i], ys[(i + shift) % k]))
    for i in range(k + l):
        for shift in range(l):
            edges.discard((xs[k + i], ys[k + (i + shift) % (k + l)]))
    for i in range(k):
        edges.add((xs[i], hub))
        edges.add((ys[i], hub))
    return edges


def _check_pairing_price(n: int, d: int, bipartite: bool) -> None:
    """Refuse a hopeless random regular request before its first shuffle.

    The price is the n*d stubs of one attempt times the expected number of
    attempts: exp((d^2-1)/4 + d^3/(12n)) for random_regular (McKay and
    Wormald 1991) and exp((d-1)^2/2) for random_regular_bipartite (O'Neil
    1969).  It is compared in the log domain, so no degree overflows a float;
    past _MAX_PAIRING_WORK, WorkBudgetError is raised.
    """
    stubs = n * d
    if not stubs:
        return
    log_price = math.log(stubs)
    if stubs <= _MAX_PAIRING_WORK:  # else the stubs alone are over, and d may not fit a float
        log_price += (d - 1) ** 2 / 2 if bipartite else (d * d - 1) / 4 + d**3 / (12 * n)
    if log_price > math.log(_MAX_PAIRING_WORK):
        kind = "bipartite " if bipartite else ""
        raise WorkBudgetError(
            f"a random {kind}{d}-regular pairing on {n} vertices expects about e^{log_price:.1f} "
            f"stub placements, over the budget of {_MAX_PAIRING_WORK}"
        )


def random_regular(n: int, d: int, seed: int) -> Graph:
    """A uniform random d-regular simple graph on n vertices, by pairing with rejection.

    Each attempt shuffles the nd degree stubs and pairs them consecutively;
    any self-pair or repeated pair rejects the whole attempt, which keeps the
    accepted distribution uniform over simple d-regular graphs.  Deterministic
    for a fixed seed.  A request whose expected work is over _MAX_PAIRING_WORK
    stub placements raises WorkBudgetError before the first shuffle.
    """
    if not 0 <= d < n:
        raise ValueError(f"need 0 <= d < n, got n={n}, d={d}")
    if n * d % 2:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    _check_pairing_price(n, d, bipartite=False)
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(_MAX_ATTEMPTS):
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            return Graph(n, frozenset(edges))
    raise RetryBudgetError(
        f"no simple {d}-regular pairing on {n} vertices within {_MAX_ATTEMPTS} attempts"
    )


def random_regular_bipartite(n: int, d: int, seed: int) -> Graph:
    """A uniform random d-regular bipartite simple graph with parts 0..n/2-1 and n/2..n-1.

    Same rejection scheme as random_regular, pairing left stubs with shuffled
    right stubs; a repeated pair rejects the attempt.  Priced before the first
    shuffle as random_regular is.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and at least 2, got {n}")
    half = n // 2
    if not 0 <= d <= half:
        raise ValueError(f"need 0 <= d <= n/2, got n={n}, d={d}")
    _check_pairing_price(n, d, bipartite=True)
    rng = random.Random(seed)
    left = [v for v in range(half) for _ in range(d)]
    right = [half + v for v in range(half) for _ in range(d)]
    for _ in range(_MAX_ATTEMPTS):
        rng.shuffle(right)
        edges = set(zip(left, right))
        if len(edges) == half * d:
            return Graph(n, frozenset(edges))
    raise RetryBudgetError(
        f"no simple bipartite {d}-regular pairing on {n} vertices within {_MAX_ATTEMPTS} attempts"
    )
