"""Shared exception types.

Validation problems raise plain ``ValueError`` (or the parse subclasses
below, which carry position information).  Computations that would blow
past a configured cap raise :class:`BudgetError` instead of silently
truncating; callers can retry with a larger budget or switch to a
counting method that does not enumerate.

The package's frozen value types (``Permutation``, ``Graph``,
``ColoredPartition``, ``SparseIndicatorTensor``) have two ways in.  Their
public constructors check every field, so input from outside the package
goes through them.  The private :func:`_trusted` builds a value the
package made valid by construction, without running ``__post_init__``;
each of its call sites says why its value is valid.
"""


class BudgetError(Exception):
    """A requested computation exceeds its configured size cap."""


class Graph6ParseError(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"byte {offset}: {message}"
        super().__init__(message)
        self.offset = offset


class BasisFileError(ValueError):
    """Malformed basis file; ``record`` is the failing record index."""

    def __init__(self, message: str, record: int | None = None):
        if record is not None:
            message = f"record {record}: {message}"
        super().__init__(message)
        self.record = record


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, built
    without ``__post_init__``: only for values valid by construction.  Each
    field is set as the public constructor sets it, which keeps the
    instance's compact attribute layout."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj
