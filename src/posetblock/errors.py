"""Exception hierarchy shared by all posetblock modules."""

from __future__ import annotations


class PosetBlockError(Exception):
    """Base class for all library errors."""


class ParseError(PosetBlockError):
    """A JSON document could not be read or has the wrong shape."""


class ValidationError(PosetBlockError):
    """Inputs are structurally valid JSON but violate a contract."""


class CycleError(ValidationError):
    """Cover relations close into a cycle, breaking antisymmetry."""


class SizeMismatchError(ValidationError):
    """Two objects that must share a ground-set size do not."""


class ContextMismatchError(ValidationError):
    """Operands live in different space contexts."""


class AxiomError(ValidationError):
    """A scalar weight table violates one of the three weight axioms.

    `which` is one of "zero", "symmetry", "triangle"; `witness` is the
    alphabet element (or pair) exhibiting the violation.
    """

    def __init__(self, which: str, witness: tuple, message: str):
        super().__init__(message)
        self.which = which
        self.witness = witness


class BudgetError(PosetBlockError):
    """An enumeration would exceed the configured budget."""


class InvalidValueError(ValidationError, ValueError):
    """An argument lies outside its domain; also a `ValueError`, for `except ValueError` callers."""


class OutOfRangeError(ValidationError, IndexError):
    """An element, block or coordinate index lies outside its range; also an `IndexError`."""


class NegativeRadiusError(InvalidValueError):
    """A radius is negative."""


class TooSmallError(ValidationError):
    """The code has fewer than two codewords, so distances are undefined."""


class NotChainError(ValidationError):
    """The operation requires a chain poset."""


class ArityError(ValidationError):
    """A tail-to-head function table is incomplete or malformed."""


class NotFinerError(ValidationError):
    """The comparison poset does not refine the code's poset."""


class LabelError(ValidationError):
    """The labeling does not satisfy the operation's hypothesis."""


class NotIsometryError(ValidationError):
    """The map is not a linear isometry of its space."""


class NonPrincipalError(PosetBlockError):
    """An isometry produced a non-principal support ideal.

    This cannot happen for a genuine isometry; it signals a bug in the
    isometry test that accepted the map.
    """


class NotLabeledAutomorphismError(ValidationError):
    """The permutation is not an automorphism preserving block sizes."""


class DecompositionError(PosetBlockError):
    """An isometry failed to factor as triangular-part times automorphism.

    This cannot happen for a genuine isometry; it signals a bug upstream.
    """
