"""Graph constructions: bundled example graphs, a triangle-minimal regular family,
and seeded random regular generators."""

from __future__ import annotations

import math
import random
from operator import add, eq, mul
from typing import Callable, Iterable

from .errors import WorkBudgetError, require_type, shown
from .graph import Edge, Graph, _check_complement_price, _check_vertex_count, _rows, complement

_MAX_PAIRING_WORK = 1 << 26  # most stub placements one random regular draw makes, over all its attempts
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
    return Graph(n, edges)


def g_family(k: int, l: int) -> Graph:
    """A 2k-regular graph on 4k + 2l + 1 vertices with exactly k(k - l - 1) triangles.

    Construction: start from vertices x_0..x_{2k+l-1}, y_0..y_{2k+l-1} and a
    hub z.  Join every x to every y, then delete an (l+1)-regular cyclic-shift
    factor between {x_0..x_{k-1}} and {y_0..y_{k-1}} and an l-regular
    cyclic-shift factor between the remaining x's and y's.  Finally join z to
    x_0..x_{k-1} and y_0..y_{k-1}.  Requires k > l >= 0.  Laying out more
    than _MAX_FAMILY_PAIRS x-y pairs raises WorkBudgetError before any edge
    is built.  k and l must be ints.
    """
    require_type("k", k)
    require_type("l", l)
    if l < 0 or k <= l:
        raise ValueError(f"need k > l >= 0, got k={shown(k)}, l={shown(l)}")
    side = 2 * k + l
    if side * side > _MAX_FAMILY_PAIRS:
        raise WorkBudgetError(
            f"g_family({shown(k)}, {shown(l)}) lays out {shown(side * side)} x-y pairs, "
            f"over the budget of {_MAX_FAMILY_PAIRS}"
        )
    return Graph._from_rows(_rows(2 * side + 1, _g_family_edges(k, l), False))  # valid by construction


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
    past 1/16 of _MAX_PAIRING_WORK, WorkBudgetError is raised.  So an
    admitted draw has at least 16 times its expected placements to spend
    (_first_simple).
    """
    stubs = n * d
    if not stubs:
        return
    log_price = math.log(stubs)
    if stubs <= _MAX_PAIRING_WORK >> 4:  # else the stubs alone are over, and d may not fit a float
        log_price += (d - 1) ** 2 / 2 if bipartite else (d * d - 1) / 4 + d**3 / (12 * n)
    if log_price > math.log(_MAX_PAIRING_WORK >> 4):
        kind = "bipartite " if bipartite else ""
        raise WorkBudgetError(
            f"a random {kind}{shown(d)}-regular pairing on {shown(n)} vertices expects about "
            f"e^{log_price:.1f} stub placements, over 1/16 of the budget of {_MAX_PAIRING_WORK}"
        )


def _shuffle_plan(length: int) -> list[tuple[int, int, int]]:
    """(i, i + 1, bits) for i from length - 1 down to 1: random.Random.shuffle's draws, in its order."""
    return [(i, i + 1, (i + 1).bit_length()) for i in range(length - 1, 0, -1)]


def _shuffle(x: list, plan: list[tuple[int, int, int]], getrandbits) -> None:
    """Shuffle x in place exactly as random.Random.shuffle does, reading the same getrandbits words.

    For each (i, i + 1, bits) of _shuffle_plan(len(x)) it draws j =
    getrandbits(bits), draws again while j >= i + 1, and swaps x[i] and x[j].
    """
    for i, m, bits in plan:
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def _first_simple(
    n: int, stubs: list[int], seed: int, simple: Callable[[list[int]], Iterable[Edge] | None], what: str
) -> Graph:
    """The one pairing loop of both random regular samplers: the graph of the first attempt simple accepts.

    Each attempt shuffles stubs in place, the previous attempt's order
    again, reading random.Random(seed).getrandbits in random.Random.shuffle's
    own order (_shuffle), and hands them to simple, which returns the
    attempt's edges when its pairing is simple and None when it rejects it.
    An attempt places len(stubs) stubs, so after _MAX_PAIRING_WORK //
    len(stubs) rejections, the placements the budget holds, WorkBudgetError
    is raised.
    """
    getrandbits = random.Random(seed).getrandbits
    plan = _shuffle_plan(len(stubs))
    attempts = _MAX_PAIRING_WORK // max(len(stubs), 1)
    for _ in range(attempts):
        _shuffle(stubs, plan, getrandbits)
        if (pairs := simple(stubs)) is not None:
            return Graph._from_rows(_rows(n, pairs, False))  # simple by the test
    raise WorkBudgetError(f"no simple {what} pairing on {n} vertices in {attempts} attempts of {len(stubs)} stubs")


def _consecutive_pairs(stubs: list[int]) -> Iterable[Edge] | None:
    """stubs paired consecutively, or None when a pair is a loop or repeats an earlier one.

    The key (u + v, u·v) names the unordered pair {u, v}, the two roots of
    x² − (u + v)x + uv, so fewer distinct keys than pairs means a repeat.
    Both tests run at C level, with no Python loop over the pairs.
    """
    a, b = stubs[::2], stubs[1::2]
    if any(map(eq, a, b)) or len(set(zip(map(add, a, b), map(mul, a, b)))) < len(a):
        return None
    return zip(a, b)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """A uniform random d-regular simple graph on n vertices, by pairing with rejection.

    Each attempt shuffles the nd degree stubs and pairs them consecutively; a
    loop or a repeated pair rejects the whole attempt, which keeps the
    accepted distribution uniform over simple d-regular graphs.  One loop,
    _first_simple, serves both samplers; this one's test, _consecutive_pairs,
    runs at C level: a, b = s[::2], s[1::2], a loop is any(map(eq, a, b)), and
    a repeat shows as fewer distinct (u + v, u·v) keys than pairs.
    Deterministic for a fixed seed: the stubs start as 0 (d times), 1 (d
    times), ..., each attempt shuffles the previous attempt's order again, and
    the shuffle reads random.Random(seed).getrandbits in
    random.Random.shuffle's own order (for i from nd - 1 down to 1, j =
    getrandbits((i + 1).bit_length()), redrawn while j > i, then x[i] and x[j]
    swap), so each graph is the one rng.shuffle would give.  When 2d > n-1 the
    (n-1-d)-regular graph is drawn with the same seed and its complement
    returned: complementation is a bijection on labelled graphs, so this stays
    uniform, and its attempts are those of the smaller degree.  A request
    whose expected work, at the degree drawn, is over 1/16 of
    _MAX_PAIRING_WORK stub placements, or whose nd/2 edges are over the
    complement's price, raises WorkBudgetError before the first shuffle; a
    draw that spends all _MAX_PAIRING_WORK placements raises it then.  n, d
    and seed must be ints.
    """
    for name, x in (("vertex count", n), ("d", d), ("seed", seed)):
        require_type(name, x)
    if not 0 <= d < n:
        raise ValueError(f"need 0 <= d < n, got n={shown(n)}, d={shown(d)}")
    if n * d % 2:
        raise ValueError(f"n*d must be even, got n={shown(n)}, d={shown(d)}")
    if 2 * d > n - 1:
        _check_complement_price(n, n * d // 2)
        return complement(random_regular(n, n - 1 - d, seed))
    _check_pairing_price(n, d, bipartite=False)
    _check_vertex_count(n)
    stubs = [v for v in range(n) for _ in range(d)]
    return _first_simple(n, stubs, seed, _consecutive_pairs, f"{d}-regular")


def random_regular_bipartite(n: int, d: int, seed: int) -> Graph:
    """A uniform random d-regular bipartite simple graph with parts 0..n/2-1 and n/2..n-1.

    Same rejection scheme as random_regular, through the same loop
    (_first_simple): the left stubs stay in order, the right stubs are
    shuffled in place from one attempt to the next, and left[i] pairs with
    right[i].  A repeated pair rejects the attempt, seen as set(zip(left,
    right)) holding fewer pairs than there are stubs a side; no loop can
    arise.  Priced before the first shuffle as random_regular is.  n, d and
    seed must be ints.
    """
    for name, x in (("vertex count", n), ("d", d), ("seed", seed)):
        require_type(name, x)
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and at least 2, got {shown(n)}")
    half = n // 2
    if not 0 <= d <= half:
        raise ValueError(f"need 0 <= d <= n/2, got n={shown(n)}, d={shown(d)}")
    _check_pairing_price(n, d, bipartite=True)
    _check_vertex_count(n)
    left = [v for v in range(half) for _ in range(d)]
    right = [half + v for v in range(half) for _ in range(d)]

    def distinct_pairs(shuffled: list[int]) -> set[Edge] | None:
        pairs = set(zip(left, shuffled))
        return pairs if len(pairs) == len(left) else None

    return _first_simple(n, right, seed, distinct_pairs, f"bipartite {d}-regular")
