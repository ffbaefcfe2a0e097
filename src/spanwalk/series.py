"""Alternating closed-walk series for the complement's spanning-tree count.

For a d-regular graph g on n vertices with 2d < n, the logarithm of the
complement's spanning-tree count expands as

    ln t = ln((n - d)^n / n^2) + sum_{k >= 2} (-1)^(k-1) w_k / (k (n - d)^k)

where w_k counts closed k-walks of g.  This module evaluates partial sums
once, in _partial_sums, which also gives thm3's upper bound: for bipartite g
the odd terms vanish and every partial sum lies above the limit.  It
identifies t exactly by closing the series at order n: it is the Taylor
expansion of ln det(I + A/(n - d)), so w_1..w_n fix t through the
characteristic polynomial of the adjacency matrix A, for every regular g,
whether or not the series converges.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from math import inf
from typing import ClassVar

from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpf_add,
    mpf_div,
    mpf_log,
    mpf_mul_int,
    mpf_sub,
    round_nearest,
    to_float,
)

from .errors import ConvergenceDomainError, ExactInvariantError, require_type, shown
from .exact import (
    closed_walk_counts,
    elementary_symmetric,
    iter_closed_walk_counts,
)
from .graph import Graph, require_regular

_PREC = 96  # working significand bits of every partial sum and bound
_RND = round_nearest  # their rounding mode, at every step


def series_term(n: int, d: int, w_k: int, k: int) -> float:
    """Signed series term (-1)^(k-1) w_k / (k (n-d)^k), correctly rounded.

    Integer true division rounds the exact quotient once; a quotient past
    the float range rounds to the signed infinity.
    """
    for name, x in (("n", n), ("d", d), ("w_k", w_k), ("k", k)):
        require_type(name, x)
    if k < 2:
        raise ValueError("series terms start at k = 2")
    if not 0 <= d < n:
        raise ValueError(f"need 0 <= d < n, got n={shown(n)}, d={shown(d)}")
    if w_k < 0:
        raise ValueError("walk counts are nonnegative")
    return _term(w_k, k, k * (n - d) ** k)


def _term(w_k: int, k: int, denominator: int) -> float:
    """(-1)^(k-1) w_k / denominator by one integer true division; past the float range the signed infinity."""
    try:
        return (w_k if k % 2 else -w_k) / denominator
    except OverflowError:  # w_k > 0 here
        return inf if k % 2 else -inf


@dataclass(frozen=True)
class SeriesEvaluation:
    """Partial sums of the log-complexity series.

    partials[0] is the base term alone; partials[j - 1] for j >= 2 includes
    the walk terms through order j.  rounding_bound = mag 2^-50, with mag the
    base's and terms' absolute sum, bounds the floating-point error of every
    partial sum through order K: its at most 3K + 3 roundings at 96 bits each
    err by at most 2^-96 mag, and the final conversion to float by 2^-53 mag.
    """

    n: int
    d: int
    base: float
    terms: tuple[float, ...]
    partials: tuple[float, ...]
    rounding_bound: float


def _partial_sums(n: int, d: int, counts: Sequence[int], max_k: int) -> list[tuple]:
    """The partial sums through orders 1..max_k as raw tuples at _PREC bits; the first is the base.

    counts holds w_1, w_2, ... at least through w_max_k.  The base is
    n ln(n-d) - 2 ln n.  The signed terms w_k / (k (n-d)^k), w_k rounded to
    _PREC bits first, are accumulated in order, and each later partial is the
    base plus that running sum; a zero term is skipped and repeats the
    partial before it.  Every step rounds to nearest, in the order mpf
    objects would take.  With n - d = 2^a o, o odd, w_k is read as
    w_k 2^(-a k) and divided by k o^k: rounding commutes with a power-of-two
    scale, so the result is the same tuple, and the divisor carries no
    trailing zero bits to convert.
    """
    nd = n - d
    a = (nd & -nd).bit_length() - 1
    o = nd >> a
    base = mpf_sub(
        mpf_mul_int(mpf_log(from_int(nd), _PREC, _RND), n, _PREC, _RND),
        mpf_mul_int(mpf_log(from_int(n), _PREC, _RND), 2, _PREC, _RND),
        _PREC,
        _RND,
    )
    acc = fzero
    partials = [base]
    o_k = o
    for k, w_k in enumerate(counts[1:max_k], start=2):
        o_k *= o
        if w_k:
            term = mpf_div(from_man_exp(w_k, -a * k, _PREC, _RND), from_int(k * o_k), _PREC, _RND)
            acc = mpf_add(acc, term, _PREC, _RND) if k % 2 else mpf_sub(acc, term, _PREC, _RND)
            partials.append(mpf_add(base, acc, _PREC, _RND))
        else:
            partials.append(partials[-1])
    return partials


def evaluate_series(g: Graph, max_k: int) -> SeriesEvaluation:
    """Evaluate the base term and all partial sums through walk order max_k.

    The walk table comes through the priced door (closed_walk_counts), so
    WorkBudgetError is raised, before any walk is counted, when the walk
    price, which also covers the series denominators, is over its limit.
    """
    require_type("max_k", max_k)
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    n, d = g.n, require_regular(g)
    if 2 * d >= n:
        raise ConvergenceDomainError(f"guaranteed convergence needs 2d < n; got n={n}, d={d}")
    counts = closed_walk_counts(g, max_k).counts if max_k >= 2 else ()
    partials = tuple(to_float(p, rnd=_RND) for p in _partial_sums(n, d, counts, max_k))
    terms = []
    mag = abs(partials[0])
    power = n - d  # (n-d)^k, carried from order to order
    for k, w_k in enumerate(counts[1:], start=2):
        power *= n - d
        terms.append(_term(w_k, k, k * power))  # series_term's float, with no power taken afresh
        mag += abs(terms[-1])
    return SeriesEvaluation(
        n=n,
        d=d,
        base=partials[0],
        terms=tuple(terms),
        partials=partials,
        rounding_bound=mag * 2.0**-50,
    )


@dataclass(frozen=True)
class IdentificationReport:
    """Outcome of integer identification.

    value is the complement's spanning-tree count and terms_used is n, the
    walk orders it is computed from.  No floating point enters, so
    precision_bits is 0 and bracket_width is 0.0 for every report.
    """

    value: int
    terms_used: int
    precision_bits: ClassVar[int] = 0
    bracket_width: ClassVar[float] = 0.0


def identify_complexity_report(g: Graph) -> IdentificationReport:
    """Identify the complement's spanning-tree count as an exact integer.

    The series is the Taylor expansion of ln det(I + A/(n-d)), and
    (n-d)I + A = L(complement) + J has determinant n^2 t (Temperley 1964;
    Kelmans 1965).  So w_1..w_n fix t: Newton's identities turn them into the
    elementary symmetric polynomials e_j of the adjacency spectrum, and
    det((n-d)I + A) = sum_j e_j (n-d)^(n-j), evaluated by Horner's rule, is
    divided by n^2 exactly.  The identity holds for every d-regular graph,
    so identification needs no 2d < n: only the series' convergence does.  A
    remainder or a negative value raises ExactInvariantError.

    w_1..w_n come from the packed-row walk engine (iter_closed_walk_counts),
    n orders of nd big-integer additions, through the same priced, cached
    table as every walk table.  The generator prices them at its first
    value by the walk table's one plan: ceil(n/2) n^2 (d+2) integer
    operations for A, or on a bipartite g the price of floor(n/2) orders
    of M' = BB^T - dI on one colour class when that is lower, the matrix
    then counted.  M' shifted back binomially gives w_2k = 2 tr (BB^T)^k,
    and the odd w_k are 0.  WorkBudgetError is raised, before any walk is
    counted, when the plan is over the walk engine's limit: C_322 is
    admitted and C_323 refused, and even cycles are admitted up to C_644.
    Once counted, they serve later tables of the same labelled graph from
    the walk cache.
    """
    n, d = g.n, require_regular(g)
    det = 0
    for e_j in elementary_symmetric(list(islice(iter_closed_walk_counts(g), n))):
        det = det * (n - d) + e_j
    value, remainder = divmod(det, n * n)
    if remainder or value < 0:
        raise ExactInvariantError(f"det((n-d)I + A) is not a nonnegative multiple of n^2 = {n * n}")
    return IdentificationReport(value=value, terms_used=n)


def identify_complexity(g: Graph) -> int:
    """The complement's spanning-tree count as an exact integer (see identify_complexity_report)."""
    return identify_complexity_report(g).value
