"""Exception hierarchy shared across the toolkit.

Every exception carries a stable machine-readable ``code`` so callers (and the
CLI, which surfaces it in its JSON error document) can dispatch on failure
kind without parsing message text.
"""

from __future__ import annotations

import reprlib
from itertools import islice


def shown(x: int) -> int | str:
    """x, or the power of two its magnitude passes when over 2^64: an error message echoes no huge int."""
    if x.bit_length() <= 64:
        return x
    return f"{'under -' if x < 0 else 'over '}2^{x.bit_length() - 1}"


class _Excerpt(reprlib.Repr):
    """reprlib's limits on containers and strings, with every int passed through shown.

    reprlib sorts a whole set or dict before it shows the first few items,
    so only the first few past the limit, in iteration order, are passed on.
    """

    def repr_int(self, x: int, level: int) -> str:
        return str(shown(x))

    def repr_set(self, x: set, level: int) -> str:
        return super().repr_set(set(islice(x, self.maxset + 1)), level)

    def repr_frozenset(self, x: frozenset, level: int) -> str:
        return super().repr_frozenset(frozenset(islice(x, self.maxfrozenset + 1)), level)

    def repr_dict(self, x: dict, level: int) -> str:
        return super().repr_dict(dict(islice(x.items(), self.maxdict + 1)), level)


_EXCERPT = _Excerpt()


def excerpt(x: object, width: int = 32) -> str:
    """An error message's echo of any input, at a cost bounded whatever its size: never all of it.

    A string is the repr of its first width characters.  Any other object is
    its repr under reprlib's limits (the first few items of a container, an
    int over 2^64 as shown prints it), cut to width characters.  "..." marks
    a cut.
    """
    if isinstance(x, str):
        return repr(x[:width]) + ("..." if len(x) > width else "")
    text = _EXCERPT.repr(x)
    return text[:width] + ("..." if len(text) > width else "")


def require_type(name: str, x: object, kind: type = int) -> None:
    """ValueError unless type(x) is kind: a bool is no int, and a float equal to an int is refused."""
    if type(x) is not kind:
        raise ValueError(f"{name} must be {'an' if kind is int else 'a'} {kind.__name__}, got {excerpt(x)}")


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
    """A computation would exceed its fixed work budget.

    Raised before the work starts, or, where the work is metered as it runs,
    before the step that would pass the budget.
    """

    code = "work-budget"


class BipartiteRequiredError(ToolkitError):
    """The operation needs a bipartite input graph."""

    code = "bipartite-required"


class ExactInvariantError(ToolkitError):
    """An identity that exact integer arithmetic guarantees failed: a defect, not bad input."""

    code = "exact-invariant"


class NumericFailureError(ToolkitError):
    """A command path overflowed, divided by zero or recursed too deeply: a defect, not bad input.

    The CLI reports an ``ArithmeticError`` or ``RecursionError`` raised in a
    command under this code instead of printing a traceback.
    """

    code = "numeric-failure"
