"""Closed-form lower and upper bounds on spanning-tree counts.

Four bound families are provided, reported uniformly through BoundReport:

  prop1       lower bound on t(G) for dense regular G, from n and d alone
  thm2        lower bound on t(complement) for any undirected g, from
              Laplacian power traces
  prop2       lower bound on t(g) from n, d and the triangle count
  thm3        two-sided bounds on t(complement) for regular bipartite g,
              from even closed-walk counts

Every lower bound is one lemma.  For reals x_i in [0, 1) with power sums
p_k = sum_i x_i^k and any m >= 1,

  sum_i ln(1 - x_i) >= ln(1 - p_m^(1/m)) - sum_{k=1}^{m-1} (p_k - p_m^(k/m)) / k,

evaluated once, in _power_sum_lower.  thm2 applies it to x_i = mu_i / n, the
Laplacian eigenvalues of the input over n, so p_k = tr(L^k) / n^k.  prop1 and
prop2 are thm2 at m = 2 and m = 3 on the complement of the bounded d-regular
graph, whose traces are closed forms in n, d and the triangle count: with
c = n-1-d, tr L = nc and tr L^2 = nc(c+1), and tr L^3 follows from Goodman's
identity.  thm3's lower bound is the lemma on the squared adjacency spectrum,
p_s = w_2s / (n-d)^(2s), halved because the spectrum of a bipartite graph is
symmetric.  thm3's upper bound is the alternating series' partial sum, read
from series._partial_sums, the one evaluation of that series.

Preconditions are tested exactly on integers.  The returned log and linear
values are evaluated on raw mpmath.libmp tuples at the series' 96-bit
working significand (series._PREC), rounded to nearest (series._RND), in
the operation order of mpmath's mpf objects, so every intermediate is the
tuple an mpf would hold.  The caller's mpmath context is never read or set.
The lemma takes one logarithm of p_m and forms each p_m^(k/m) from it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import comb

from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_pow,
    mpf_sqrt,
    mpf_sub,
    to_float,
)

from .errors import BipartiteRequiredError, require_type, shown
from .exact import closed_walk_counts, laplacian_traces
from .graph import Graph, bipartition, regular_degree, require_regular
from .series import _PREC, _RND, _partial_sums


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound.

    name identifies the bound family, target names the bounded quantity
    ("t(G)" or "t(complement)").  log_value and linear_value are present only
    when preconditions_ok; linear_value always equals exp(log_value) up to
    floating-point rounding.  parameters records the named inputs and any
    derived quantities, rounded to 7 significant digits.
    """

    name: str
    target: str
    preconditions_ok: bool
    reason: str
    log_value: float | None = None
    linear_value: float | None = None
    parameters: dict = field(default_factory=dict)


def _sig7(x: tuple) -> float:
    return float(f"{to_float(x, rnd=_RND):.7g}")


def _finish(name: str, target: str, log_mp: tuple, parameters: dict) -> BoundReport:
    """The report of a bound whose logarithm is log_mp; a linear value past the float range is inf."""
    return BoundReport(
        name=name,
        target=target,
        preconditions_ok=True,
        reason="ok",
        log_value=to_float(log_mp, rnd=_RND),
        linear_value=to_float(mpf_exp(log_mp, _PREC, _RND), rnd=_RND),
        parameters=parameters,
    )


def _failed(name: str, target: str, reason: str, parameters: dict) -> BoundReport:
    return BoundReport(
        name=name,
        target=target,
        preconditions_ok=False,
        reason=reason,
        parameters=parameters,
    )


def _roots(p: tuple, m: int) -> list[tuple]:
    """p^(1/m), p^(2/m), ..., p^(m/m) for a raw p >= 0, each the tuple mpf_pow(p, k/m) gives.

    mpf_pow's general branch is exp(t ln p) with ln p at _PREC + 10 bits, so
    one logarithm serves every exponent t = k/m.  The exponents it
    special-cases, an integer or a half-integer t, go to mpf_pow itself;
    for m <= 2 every exponent is one of those, and no logarithm is taken.
    """
    log_p = mpf_log(p, _PREC + 10, _RND) if m > 2 else None
    roots = []
    for k in range(1, m + 1):
        t = mpf_div(from_int(k, _PREC, _RND), from_int(m), _PREC, _RND)
        if t[2] >= -1:
            roots.append(mpf_pow(p, t, _PREC, _RND))
        else:
            roots.append(mpf_exp(mpf_mul(t, log_p), _PREC, _RND))
    return roots


def _power_sum_lower(sums: Sequence[int], scale: int) -> tuple[tuple, tuple]:
    """The power-sum lemma behind every lower bound, on raw tuples at _PREC bits.

    For reals x_i in [0, 1) given through P_k = scale^k sum_i x_i^k as
    sums = (P_1, ..., P_m), with y = P_m^(1/m) / scale < 1 (which the caller
    tests exactly on integers), returns (value, y) such that

      sum_i ln(1 - x_i) >= value = ln(1-y) - sum_{k=1}^{m-1} (P_k - P_m^(k/m)) / (k scale^k)

    Both are raw mpmath.libmp tuples, rounded to nearest at every step in
    the order mpf objects would take: P_m is rounded to 96 bits once, and
    every P_m^(k/m) comes from one shared logarithm (_roots).
    """
    m = len(sums)
    roots = _roots(from_int(sums[-1], _PREC, _RND), m)
    y = mpf_div(roots[0], from_int(scale), _PREC, _RND)
    correction = fzero
    scale_k = 1
    for k in range(1, m):
        scale_k *= scale
        gap = mpf_sub(from_int(sums[k - 1]), roots[k - 1], _PREC, _RND)
        correction = mpf_add(correction, mpf_div(gap, from_int(k * scale_k), _PREC, _RND), _PREC, _RND)
    return mpf_sub(mpf_log(mpf_sub(fone, y, _PREC, _RND), _PREC, _RND), correction, _PREC, _RND), y


def _trace_lower(
    name: str, target: str, n: int, traces: Sequence[int], params: dict, key: str
) -> BoundReport:
    """ln n^(n-2) plus the lemma on tr(L^k) / n^k.

    traces are tr(L^1..L^m) of the complement of the bounded graph.
    """
    value, y = _power_sum_lower(traces, n)
    params[key] = _sig7(y)
    base = mpf_mul_int(mpf_log(from_int(n), _PREC, _RND), n - 2, _PREC, _RND)
    return _finish(name, target, mpf_add(base, value, _PREC, _RND), params)


def prop1_lower(n: int, d: int) -> BoundReport:
    """Degree-only lower bound on the spanning-tree count of a d-regular graph.

    Requires (n-1-d)(n-d) < n (so d is within about sqrt(n) of n-1); the
    bound is n^(n-2) (1 - r) exp(r - (n-1-d)) with r = sqrt((n-1-d)(n-d)/n),
    exact for the complete graph.  It is thm2 at m = 2 on the complement.
    """
    require_type("n", n)
    require_type("d", d)
    if n < 1 or not 0 <= d <= n - 1:
        raise ValueError(f"need n >= 1 and 0 <= d <= n-1, got n={shown(n)}, d={shown(d)}")
    params = {"n": n, "d": d}
    c = n - 1 - d
    prod = c * (n - d)
    if prod >= n:
        return _failed("prop1", "t(G)", f"(n-1-d)(n-d) = {prod} >= n = {n}", params)
    return _trace_lower("prop1", "t(G)", n, (n * c, n * prod), params, "root")


def thm2_lower(g: Graph, m: int) -> BoundReport:
    """Laplacian-trace lower bound on the complement's spanning-tree count.

    For undirected g with tr(L^m) < n^m, with y = tr(L^m)^(1/m) / n:

      ln bound = (n-2) ln n + ln(1-y)
                 - sum_{k=1}^{m-1} (tr(L^k) - tr(L^m)^(k/m)) / (k n^k)

    It holds for every undirected g: t(complement) = n^(n-2) prod_i (1 - mu_i/n)
    over the Laplacian eigenvalues mu_i of g (Temperley 1964; Kelmans 1965),
    and tr(L^m) < n^m keeps every mu_i / n in [0, 1).  The parameter d is
    g's common degree, or None when g is irregular.
    """
    require_type("m", m)
    if m < 2:
        raise ValueError("m must be at least 2")
    d = regular_degree(g)
    n = g.n
    table = laplacian_traces(g, m)
    params = {"n": n, "d": d, "m": m}
    if table.trace(m) >= n**m:
        return _failed(
            "thm2", "t(complement)", f"tr(L^{m}) = {table.trace(m)} >= n^{m} = {n ** m}", params
        )
    traces = [table.trace(k) for k in range(1, m + 1)]
    return _trace_lower("thm2", "t(complement)", n, traces, params, "y")


def prop2_lower(n: int, d: int, triangles: int) -> BoundReport:
    """Triangle-aware lower bound on the graph's own spanning-tree count.

    s is the real cube root of
      (n (n-1-d)^2 (n+2-d) - 6 (C(n,3) - n d (n-1-d)/2 - triangles)) / n^3
    and the bound, valid for 0 <= s < 1, is

      ln bound = (n-2) ln n + ln(1-s) + s - (n-1-d) + s^2/2 - (n-d)(n-d-1)/(2n)

    It is thm2 at m = 3 on the complement, whose tr(L^3) is n^3 s^3.
    """
    require_type("n", n)
    require_type("d", d)
    require_type("triangles", triangles)
    if n < 1 or not 0 <= d <= n - 1 or triangles < 0:
        raise ValueError(
            f"need n >= 1, 0 <= d <= n-1, triangles >= 0; got {shown(n)}, {shown(d)}, {shown(triangles)}"
        )
    params = {"n": n, "d": d, "triangles": triangles}
    c = n - 1 - d
    # 6 (C(n,3) - n d c/2 - triangles) expands to an exact integer.
    cube_scaled = n * c**2 * (n + 2 - d) - 6 * comb(n, 3) + 3 * n * d * c + 6 * triangles
    if cube_scaled < 0:
        return _failed("prop2", "t(G)", f"cube argument {cube_scaled}/n^3 is negative", params)
    if cube_scaled >= n**3:
        return _failed("prop2", "t(G)", f"s >= 1 (cube argument {cube_scaled} >= n^3 = {n ** 3})", params)
    return _trace_lower("prop2", "t(G)", n, (n * c, n * c * (c + 1), cube_scaled), params, "s")


def thm3_bounds(g: Graph, m: int, k: int) -> tuple[BoundReport, BoundReport]:
    """Two-sided bounds on the complement's spanning-tree count for regular bipartite g.

    With w_2s the even closed-walk counts of g and y = w_2m^(1/2m) / (n-d):

      ln upper = n ln(n-d) - 2 ln n - sum_{s=1}^{k} w_2s / (2s (n-d)^(2s))
      ln lower = n ln(n-d) - 2 ln n + ln(1-y^2)/2
                 - sum_{s=1}^{m-1} (w_2s - w_2m^(s/m)) / (2s (n-d)^(2s))

    The upper bound is the series' partial sum through order 2k
    (series._partial_sums): the odd walks vanish, so every term is negative
    and each partial sum lies above the limit.  The lower bound needs y < 1,
    tested exactly as w_2m < (n-d)^(2m).
    """
    require_type("m", m)
    require_type("k", k)
    if m < 1 or k < 1:
        raise ValueError("m and k must be at least 1")
    d = require_regular(g)
    if bipartition(g) is None:
        raise BipartiteRequiredError("these bounds need a bipartite input graph")
    n = g.n
    walks = closed_walk_counts(g, 2 * max(m, k))
    nd = n - d
    lower_params = {"n": n, "d": d, "m": m}
    upper_params = {"n": n, "d": d, "k": k}
    partials = _partial_sums(n, d, walks.counts, 2 * k)
    upper = _finish("thm3_upper", "t(complement)", partials[-1], upper_params)
    w2m = walks.w(2 * m)
    if w2m >= nd ** (2 * m):
        lower = _failed(
            "thm3_lower",
            "t(complement)",
            f"y >= 1 (w_{2 * m} = {w2m} >= (n-d)^{2 * m} = {nd ** (2 * m)})",
            lower_params,
        )
    else:
        value, y2 = _power_sum_lower([walks.w(2 * s) for s in range(1, m + 1)], nd**2)
        lower_params["y"] = _sig7(mpf_sqrt(y2, _PREC, _RND))
        half = mpf_div(value, from_int(2), _PREC, _RND)
        lower = _finish("thm3_lower", "t(complement)", mpf_add(partials[0], half, _PREC, _RND), lower_params)
    return lower, upper
