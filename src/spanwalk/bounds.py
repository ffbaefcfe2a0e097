"""Closed-form lower and upper bounds on spanning-tree counts.

Four bound families are provided, reported uniformly through BoundReport:

  prop1       lower bound on t(G) for dense regular G, from n and d alone
  thm2        lower bound on t(complement) from Laplacian power traces
  prop2       lower bound on t(g) from n, d and the triangle count
  thm3        two-sided bounds on t(complement) for regular bipartite g,
              from even closed-walk counts

Preconditions are tested exactly on integers; the returned log and linear
values are evaluated with a 96-bit working significand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import mpmath

from .errors import BipartiteRequiredError
from .exact import closed_walk_counts, laplacian_traces
from .graph import Graph, bipartition, require_regular

_PREC = 96


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


def _sig7(x) -> float:
    return float(f"{float(x):.7g}")


def _finish(name: str, target: str, log_mp, parameters: dict) -> BoundReport:
    with mpmath.workprec(_PREC):
        linear = mpmath.exp(log_mp)
        try:
            linear_f = float(linear)
        except OverflowError:
            linear_f = float("inf")
    return BoundReport(
        name=name,
        target=target,
        preconditions_ok=True,
        reason="ok",
        log_value=float(log_mp),
        linear_value=linear_f,
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


def prop1_lower(n: int, d: int) -> BoundReport:
    """Degree-only lower bound on the spanning-tree count of a d-regular graph.

    Requires (n-1-d)(n-d) < n (so d is within about sqrt(n) of n-1); the
    bound is n^(n-2) (1 - r) exp(r - (n-1-d)) with r = sqrt((n-1-d)(n-d)/n),
    exact for the complete graph.
    """
    if n < 1 or not 0 <= d <= n - 1:
        raise ValueError(f"need n >= 1 and 0 <= d <= n-1, got n={n}, d={d}")
    params = {"n": n, "d": d}
    prod = (n - 1 - d) * (n - d)
    if prod >= n:
        return _failed("prop1", "t(G)", f"(n-1-d)(n-d) = {prod} >= n = {n}", params)
    with mpmath.workprec(_PREC):
        root = mpmath.sqrt(mpmath.mpf(prod) / n)
        log_value = (n - 2) * mpmath.log(n) + mpmath.log(1 - root) + (root - (n - 1 - d))
        params["root"] = _sig7(root)
        return _finish("prop1", "t(G)", log_value, params)


def thm2_lower(g: Graph, m: int) -> BoundReport:
    """Laplacian-trace lower bound on the complement's spanning-tree count.

    For regular g with tr(L^m) < n^m, with y = tr(L^m)^(1/m) / n:

      ln bound = (n-2) ln n + ln(1-y)
                 - sum_{k=1}^{m-1} (tr(L^k) - tr(L^m)^(k/m)) / (k n^k)
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    d = require_regular(g)
    n = g.n
    table = laplacian_traces(g, m)
    params = {"n": n, "d": d, "m": m}
    if table.trace(m) >= n**m:
        return _failed(
            "thm2", "t(complement)", f"tr(L^{m}) = {table.trace(m)} >= n^{m} = {n ** m}", params
        )
    with mpmath.workprec(_PREC):
        tr_m = mpmath.mpf(table.trace(m))
        y = tr_m ** (mpmath.mpf(1) / m) / n
        correction = mpmath.mpf(0)
        for k in range(1, m):
            correction += (table.trace(k) - tr_m ** (mpmath.mpf(k) / m)) / (k * n**k)
        log_value = (n - 2) * mpmath.log(n) + mpmath.log(1 - y) - correction
        params["y"] = _sig7(y)
        return _finish("thm2", "t(complement)", log_value, params)


def prop2_lower(n: int, d: int, triangles: int) -> BoundReport:
    """Triangle-aware lower bound on the graph's own spanning-tree count.

    s is the real cube root of
      (n (n-1-d)^2 (n+2-d) - 6 (C(n,3) - n d (n-1-d)/2 - triangles)) / n^3
    and the bound, valid for 0 <= s < 1, is

      ln bound = (n-2) ln n + ln(1-s) + s - (n-1-d) + s^2/2 - (n-d)(n-d-1)/(2n)
    """
    if n < 1 or not 0 <= d <= n - 1 or triangles < 0:
        raise ValueError(f"need n >= 1, 0 <= d <= n-1, triangles >= 0; got {n}, {d}, {triangles}")
    params = {"n": n, "d": d, "triangles": triangles}
    # 6 (C(n,3) - n d (n-1-d)/2 - triangles) expands to an exact integer.
    cube_scaled = (
        n * (n - 1 - d) ** 2 * (n + 2 - d)
        - 6 * comb(n, 3)
        + 3 * n * d * (n - 1 - d)
        + 6 * triangles
    )
    if cube_scaled < 0:
        return _failed("prop2", "t(G)", f"cube argument {cube_scaled}/n^3 is negative", params)
    if cube_scaled >= n**3:
        return _failed("prop2", "t(G)", f"s >= 1 (cube argument {cube_scaled} >= n^3 = {n ** 3})", params)
    with mpmath.workprec(_PREC):
        s = (mpmath.mpf(cube_scaled) / n**3) ** (mpmath.mpf(1) / 3)
        log_value = (
            (n - 2) * mpmath.log(n)
            + mpmath.log(1 - s)
            + s
            - (n - 1 - d)
            + s**2 / 2
            - mpmath.mpf((n - d) * (n - d - 1)) / (2 * n)
        )
        params["s"] = _sig7(s)
        return _finish("prop2", "t(G)", log_value, params)


def thm3_bounds(g: Graph, m: int, k: int) -> tuple[BoundReport, BoundReport]:
    """Two-sided bounds on the complement's spanning-tree count for regular bipartite g.

    With w_2s the even closed-walk counts of g and y = w_2m^(1/2m) / (n-d):

      ln upper = n ln(n-d) - 2 ln n - sum_{s=1}^{k} w_2s / (2s (n-d)^(2s))
      ln lower = n ln(n-d) - 2 ln n + ln(1-y^2)/2
                 - sum_{s=1}^{m-1} (w_2s - w_2m^(s/m)) / (2s (n-d)^(2s))

    The lower bound needs y < 1, tested exactly as w_2m < (n-d)^(2m).
    """
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
    with mpmath.workprec(_PREC):
        base = n * mpmath.log(nd) - 2 * mpmath.log(n)

        upper_sum = mpmath.mpf(0)
        for s in range(1, k + 1):
            upper_sum += mpmath.mpf(walks.w(2 * s)) / (2 * s * nd ** (2 * s))
        upper = _finish("thm3_upper", "t(complement)", base - upper_sum, upper_params)

        w2m = walks.w(2 * m)
        if w2m >= nd ** (2 * m):
            lower = _failed(
                "thm3_lower",
                "t(complement)",
                f"y >= 1 (w_{2 * m} = {w2m} >= (n-d)^{2 * m} = {nd ** (2 * m)})",
                lower_params,
            )
        else:
            w2m_mp = mpmath.mpf(w2m)
            y = w2m_mp ** (mpmath.mpf(1) / (2 * m)) / nd
            correction = mpmath.mpf(0)
            for s in range(1, m):
                correction += (walks.w(2 * s) - w2m_mp ** (mpmath.mpf(s) / m)) / (
                    2 * s * nd ** (2 * s)
                )
            log_value = base + mpmath.log(1 - y**2) / 2 - correction
            lower_params["y"] = _sig7(y)
            lower = _finish("thm3_lower", "t(complement)", log_value, lower_params)
    return lower, upper
