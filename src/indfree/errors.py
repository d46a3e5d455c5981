"""Exception types shared across the package, and the byte offset a
ParseError carries.

Each class corresponds to one failure mode surfaced by the CLI with its own
exit code, so callers can tell "bad input text" from "valid input outside
supported limits" from "the math went wrong".
"""

from __future__ import annotations


class IndfreeError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(IndfreeError):
    """Input is valid but exceeds a hard size limit (vertex cap, enumeration cap)."""


class ValidationError(IndfreeError):
    """Malformed structural input: loops, out-of-range endpoints, bad orders."""


class ParseError(IndfreeError):
    """Unparseable text input. `offset` is the byte position of the offending token."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset


def byte_offset(text: str, pos: int) -> int:
    """ParseError offset of character pos of text: the UTF-8 bytes before it
    as typed, leading blanks included. Command-line bytes that are not
    UTF-8 arrive as surrogate escapes, one per byte."""
    head = text[:pos]
    try:
        return len(head.encode("utf-8", "surrogateescape"))
    except UnicodeEncodeError:
        # a lone surrogate that escapes no byte, from a caller's str: it has
        # no UTF-8 form, so count the three bytes it would take
        return len(head.encode("utf-8", "surrogatepass"))


class ParameterError(IndfreeError):
    """Construction parameters violate their invariants (packing does not fit, etc.)."""


class RangeError(IndfreeError):
    """A requested (n, m) pair or similar numeric argument is out of range."""


class InfeasibleFamilyError(IndfreeError):
    """The forbidden graph is trivially non-feasible; no witness exists for some (n, m)."""

    def __init__(self, kind, k: int):
        super().__init__(f"family is not feasible: forbidden graph is {kind.value} with k={k}")
        self.kind = kind
        self.k = k


class DegenerateForbiddenError(IndfreeError):
    """The forbidden graph is the single vertex, for which no witness family exists."""


class InternalInvariantError(IndfreeError):
    """A verified certificate failed its oracle check; indicates a bug, never bad input."""
