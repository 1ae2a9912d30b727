"""Exception types shared across the package, the l/k precondition and the
input-line parser that raise them."""

from __future__ import annotations

from typing import Callable, Iterable, Optional, TypeVar

_T = TypeVar("_T")


class PreconditionViolation(ValueError):
    """An operation was called outside its stated domain."""


class EmptyProjection(PreconditionViolation):
    """A curve was projected to an annulus whose core it equals."""


class HypothesisViolation(PreconditionViolation):
    """A verification query fails one of the theorem hypotheses.

    The message names the failed hypothesis so callers can report it.
    """


class DisconnectedQuery(PreconditionViolation):
    """A distance or cover query spans several graph components."""


class InternalCheckFailure(RuntimeError):
    """Two computations of one certified value disagree.

    It reports a defect or a failed engineering hypothesis, never bad input.
    """


def require_l_and_k(
    l: int, k: int, k_message: str = "k must exceed 1", k_max: Optional[int] = None
) -> None:
    """The radius l must be positive and the count k exceed 1 (and not
    exceed ``k_max`` when given); a bad k raises with ``k_message``."""
    if l <= 0:
        raise PreconditionViolation("l must be positive")
    if k <= 1 or (k_max is not None and k > k_max):
        raise PreconditionViolation(k_message)


class MalformedLine(ValueError):
    """A line of an input file does not parse; ``line`` is its 1-based number."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.line = line


def parse_lines(lines: Iterable[str], parse: Callable[[str], _T]) -> list[_T]:
    """Apply ``parse`` to each line that is not blank once "#" comments are cut.

    A ``ValueError`` from ``parse`` becomes a ``MalformedLine`` naming the line.
    """
    out = []
    for number, raw in enumerate(lines, 1):
        text = raw.split("#", 1)[0].strip()
        if text:
            try:
                out.append(parse(text))
            except ValueError as exc:
                raise MalformedLine(number, f"{text!r}: {exc}") from None
    return out
