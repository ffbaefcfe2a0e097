"""Alternating closed-walk series for the complement's spanning-tree count.

For a d-regular graph g on n vertices with 2d < n, the logarithm of the
complement's spanning-tree count expands as

    ln t = ln((n - d)^n / n^2) + sum_{k >= 2} (-1)^(k-1) w_k / (k (n - d)^k)

where w_k counts closed k-walks of g.  This module evaluates partial sums and
identifies the exact integer value by bracketing the tail rigorously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import mpmath
from mpmath.libmp import from_rational, mpf_exp, mpf_mul, round_ceiling, round_floor

from .errors import (
    ConvergenceDomainError,
    DirectedUnsupportedError,
    ExactInvariantError,
    PrecisionExhaustedError,
    RegularityRequiredError,
)
from .exact import closed_walk_counts, iter_closed_walk_counts
from .graph import Graph, regular_degree

_EVAL_PREC = 96  # working significand bits for partial-sum evaluation
_MIN_PREC = 64
_MAX_TERMS = 50_000
_MAX_PRECISION_BITS = 4096
_TAIL_BITS = 5  # tail bound <= 2^-(b+5): truncation widens the enclosure by <= 1/16
_GUARD_BITS = 16  # precision b + 16: rounding widens it by <= 2^-9


def _checked_parameters(g: Graph) -> tuple[int, int]:
    if g.directed:
        raise DirectedUnsupportedError("the series is defined for undirected graphs")
    d = regular_degree(g)
    if d is None:
        raise RegularityRequiredError("the series needs a regular input graph")
    if 2 * d >= g.n:
        raise ConvergenceDomainError(
            f"guaranteed convergence needs 2d < n; got n={g.n}, d={d}"
        )
    return g.n, d


def _term_fraction(n: int, d: int, w_k: int, k: int) -> Fraction:
    sign = 1 if k % 2 else -1
    return Fraction(sign * w_k, k * (n - d) ** k)


def series_term(n: int, d: int, w_k: int, k: int) -> float:
    """Signed series term (-1)^(k-1) w_k / (k (n-d)^k).

    Formed exactly as a rational and converted to float once, so the result
    carries only the final rounding.
    """
    if k < 2:
        raise ValueError("series terms start at k = 2")
    if not 0 <= d < n:
        raise ValueError(f"need 0 <= d < n, got n={n}, d={d}")
    if w_k < 0:
        raise ValueError("walk counts are nonnegative")
    return float(_term_fraction(n, d, w_k, k))


@dataclass(frozen=True)
class SeriesEvaluation:
    """Partial sums of the log-complexity series.

    partials[0] is the base term alone; partials[j - 1] for j >= 2 includes
    the walk terms through order j.  rounding_bound bounds the accumulated
    floating-point error of every partial sum.
    """

    n: int
    d: int
    base: float
    terms: tuple[float, ...]
    partials: tuple[float, ...]
    rounding_bound: float


def evaluate_series(g: Graph, max_k: int) -> SeriesEvaluation:
    """Evaluate the base term and all partial sums through walk order max_k."""
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    n, d = _checked_parameters(g)
    walks = closed_walk_counts(g, max_k) if max_k >= 2 else None
    base_fr = Fraction((n - d) ** n, n * n)
    with mpmath.workprec(_EVAL_PREC):
        base_mp = mpmath.log(mpmath.mpf(base_fr.numerator) / base_fr.denominator)
        base = float(base_mp)
        terms: list[float] = []
        partials: list[float] = [base]
        acc = Fraction(0)
        mag = abs(base)
        for k in range(2, max_k + 1):
            fr = _term_fraction(n, d, walks.w(k), k)
            acc += fr
            term = float(fr)
            terms.append(term)
            partials.append(float(base_mp + mpmath.mpf(acc.numerator) / acc.denominator))
            mag += abs(term)
    rounding_bound = mag * 2.0**-50
    return SeriesEvaluation(
        n=n,
        d=d,
        base=base,
        terms=tuple(terms),
        partials=tuple(partials),
        rounding_bound=rounding_bound,
    )


@dataclass(frozen=True)
class IdentificationReport:
    """Outcome of integer identification: the value plus its certificate.

    The enclosure [bracket_low, bracket_high] of t is exact.  tail_bound and
    rounding_bound are exact bounds, in units of t, on how much series
    truncation (2 T bracket_high, T the tail bound of the log series) and
    rounding (2^(7 - precision_bits) bracket_high) widen it, so a caller can
    see which of the two set the width.
    """

    value: int
    terms_used: int
    bracket_low: Fraction
    bracket_high: Fraction
    precision_bits: int
    tail_bound: Fraction
    rounding_bound: Fraction

    @property
    def bracket_width(self) -> float:
        return float(self.bracket_high - self.bracket_low)


def _mpf_to_fraction(x: tuple) -> Fraction:
    sign, man, exp, _ = x
    if man == 0:
        return Fraction(0)
    fr = Fraction(man) * Fraction(2) ** exp
    return -fr if sign else fr


def _log2_upper_bound(n: int, d: int) -> int:
    """An integer b with t(complement) <= 2^b.

    The complement is (n-1-d)-regular, so its n-1 nonzero Laplacian
    eigenvalues sum to n(n-1-d); by AM-GM their product, which is n t, is at
    most (n(n-1-d)/(n-1))^(n-1).
    """
    if n <= 2:
        return 0  # the complement is K_1 or K_2: one spanning tree
    num = (n * (n - 1 - d)) ** (n - 1)
    den = n * (n - 1) ** (n - 1)
    return max(0, num.bit_length() - den.bit_length() + 1)


def _tail_bound(n: int, d: int, k: int) -> tuple[int, int]:
    """Numerator and denominator of n q^(k+1) / ((k+1)(1-q)), q = d/(n-d).

    It bounds the absolute sum of the series terms past order k, because
    w_k <= n d^k.
    """
    return n * d ** (k + 1), (k + 1) * (n - d) ** k * (n - 2 * d)


def _term_count(n: int, d: int, b: int) -> int:
    """Smallest K <= _MAX_TERMS whose tail bound is at most 2^-(b+5).

    The tail bound falls strictly with K, so a doubling search followed by
    bisection finds K with O(log K) exact integer comparisons.
    """
    def too_big(k: int) -> bool:
        num, den = _tail_bound(n, d, k)
        return num << (b + _TAIL_BITS) > den

    lo, hi = 0, 1  # the tail past order lo exceeds the limit; K = 0 is a sentinel
    while too_big(hi):
        if hi == _MAX_TERMS:
            raise PrecisionExhaustedError(
                f"the tail bound needs more than {_MAX_TERMS} terms (n={n}, d={d})"
            )
        lo, hi = hi, min(2 * hi, _MAX_TERMS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if too_big(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _bracket(
    c_fr: Fraction, lo_arg: Fraction, hi_arg: Fraction, prec: int
) -> tuple[Fraction, Fraction]:
    """Rigorous enclosure [c exp(lo_arg), c exp(hi_arg)], inflated for rounding.

    Every conversion and product rounds outward; the relative inflation
    2^(6 - prec) covers the error of the exponential itself.
    """
    eps = Fraction(1, 2 ** (prec - 6))
    ends = []
    for arg, rnd, widen in ((lo_arg, round_floor, 1 - eps), (hi_arg, round_ceiling, 1 + eps)):
        c = from_rational(c_fr.numerator, c_fr.denominator, prec, rnd)
        x = from_rational(arg.numerator, arg.denominator, prec, rnd)
        ends.append(_mpf_to_fraction(mpf_mul(c, mpf_exp(x, prec, rnd), prec, rnd)) * widen)
    return ends[0], ends[1]


def identify_complexity_report(g: Graph) -> IdentificationReport:
    """Identify the complement's spanning-tree count as an exact integer.

    The plan is fixed before any walk is counted.  AM-GM on the complement's
    Laplacian spectrum gives t <= 2^b.  Because w_k <= n d^k, the series
    terms past order K sum to at most n q^(K+1) / ((K+1)(1 - q)) in absolute
    value, q = d/(n-d) < 1; K is the smallest order that makes this at most
    2^-(b+5), and the working precision is max(64, b + 16).  The K terms are
    summed exactly as rationals and bracketed once: truncation then widens
    the enclosure of t by at most 1/16 and rounding by at most 2^-9, so it
    holds exactly one integer.

    Raises PrecisionExhaustedError, before any walk is counted, when K would
    exceed _MAX_TERMS or b + 16 exceeds _MAX_PRECISION_BITS.
    """
    n, d = _checked_parameters(g)
    b = _log2_upper_bound(n, d)
    if b + _GUARD_BITS > _MAX_PRECISION_BITS:
        raise PrecisionExhaustedError(
            f"t(complement) may reach 2^{b}, which needs {b + _GUARD_BITS} bits; "
            f"the cap is {_MAX_PRECISION_BITS}"
        )
    prec = max(_MIN_PREC, b + _GUARD_BITS)
    big_k = _term_count(n, d, b)

    # acc = sum_{k=2..K} (-1)^(k-1) w_k / (k (n-d)^k) over the common
    # denominator lcm(2..K) (n-d)^K, accumulated by Horner's rule in n - d.
    lcm = math.lcm(*range(2, big_k + 1))
    num = 0
    for k, w in enumerate(islice(iter_closed_walk_counts(g), 1, big_k), start=2):
        num = num * (n - d) + (w if k % 2 else -w) * (lcm // k)
    acc = Fraction(num, lcm * (n - d) ** big_k)
    tail = Fraction(*_tail_bound(n, d, big_k))
    c_fr = Fraction((n - d) ** n, n * n)
    lo, hi = _bracket(c_fr, acc - tail, acc + tail, prec)
    value = math.ceil(lo)
    if math.floor(hi) != value:
        raise ExactInvariantError(
            f"the enclosure at K={big_k}, {prec} bits holds "
            f"{math.floor(hi) - value + 1} integers, not one"
        )
    return IdentificationReport(
        value=value,
        terms_used=big_k,
        bracket_low=lo,
        bracket_high=hi,
        precision_bits=prec,
        tail_bound=2 * tail * hi,
        rounding_bound=hi / 2 ** (prec - 7),
    )


def identify_complexity(g: Graph) -> int:
    """The complement's spanning-tree count as an exact integer (see identify_complexity_report)."""
    return identify_complexity_report(g).value
