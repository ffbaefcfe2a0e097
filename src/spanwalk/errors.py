"""Exception hierarchy shared across the toolkit.

Every exception carries a stable machine-readable ``code`` so callers (and the
CLI, which surfaces it in its JSON error document) can dispatch on failure
kind without parsing message text.
"""

from __future__ import annotations


def excerpt(text: str, width: int = 32) -> str:
    """repr of text cut to its first width characters: an error message echoes input, never all of it."""
    return repr(text[:width]) + ("..." if len(text) > width else "")


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""

    code = "error"


class EdgeListParseError(ToolkitError):
    """Malformed edge-list or graph6 input; ``line`` is 1-based when known."""

    code = "parse-error"

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InputReadError(ToolkitError):
    """An input file could not be read."""

    code = "io-error"


class DirectedUnsupportedError(ToolkitError):
    """A directed graph reached an operation defined only for undirected ones."""

    code = "directed-unsupported"


class RegularityRequiredError(ToolkitError):
    """The operation needs every vertex to have the same degree."""

    code = "regularity-required"


class ConvergenceDomainError(ToolkitError):
    """Series evaluation requested outside the guaranteed domain 2d < n."""

    code = "convergence-domain"


class WorkBudgetError(ToolkitError):
    """A computation would exceed its fixed work budget; raised before the work starts."""

    code = "work-budget"


class BipartiteRequiredError(ToolkitError):
    """The operation needs a bipartite input graph."""

    code = "bipartite-required"


class RetryBudgetError(ToolkitError):
    """A rejection sampler ran out of attempts before producing a valid graph."""

    code = "retry-budget"


class ExactInvariantError(ToolkitError):
    """An identity that exact integer arithmetic guarantees failed: a defect, not bad input."""

    code = "exact-invariant"


class NumericFailureError(ToolkitError):
    """A command path overflowed, divided by zero or recursed too deeply: a defect, not bad input.

    The CLI reports an ``ArithmeticError`` or ``RecursionError`` raised in a
    command under this code instead of printing a traceback.
    """

    code = "numeric-failure"
