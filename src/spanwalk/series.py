"""Alternating closed-walk series for the complement's spanning-tree count.

For a d-regular graph g on n vertices with 2d < n, the logarithm of the
complement's spanning-tree count expands as

    ln t = ln((n - d)^n / n^2) + sum_{k >= 2} (-1)^(k-1) w_k / (k (n - d)^k)

where w_k counts closed k-walks of g.  This module evaluates partial sums,
and identifies t exactly by closing the series at order n: it is the Taylor
expansion of ln det(I + A/(n - d)), so w_1..w_n fix t through the
characteristic polynomial of the adjacency matrix A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import ClassVar

import mpmath

from .errors import (
    ConvergenceDomainError,
    DirectedUnsupportedError,
    ExactInvariantError,
    RegularityRequiredError,
    WorkBudgetError,
)
from .exact import closed_walk_counts, elementary_symmetric, iter_closed_walk_counts
from .graph import Graph, regular_degree

_EVAL_PREC = 96  # working significand bits for partial-sum evaluation
_MAX_WALK_WORK = 2**26  # integer operations identification may spend on walk counts


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
    divided by n^2 exactly.  A remainder or a negative value raises
    ExactInvariantError.

    Raises WorkBudgetError, before any walk is counted, when the walk
    engine's matrix phase, about ceil(n/2) n^2 (d+2) integer operations,
    would exceed _MAX_WALK_WORK.
    """
    n, d = _checked_parameters(g)
    work = -(-n // 2) * n * n * (d + 2)
    if work > _MAX_WALK_WORK:
        raise WorkBudgetError(
            f"w_1..w_{n} need about {work} integer operations (n={n}, d={d}); "
            f"the budget is {_MAX_WALK_WORK}"
        )
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
