"""Exception types shared across the toolkit.

Validation failures carry the name of the violated law and a witness
tuple of element indices (or labels) so callers can report exactly
which instance broke.  Parse failures carry source coordinates.
"""

from __future__ import annotations


class OmlkitError(Exception):
    """Base class for every error raised by this package."""


class SizeCap(OmlkitError):
    """A lattice-producing operation would exceed the element cap."""

    def __init__(self, size: int, cap: int):
        super().__init__(f"{size} elements exceeds the configured cap of {cap}")
        self.size = size
        self.cap = cap


class CapExceeded(OmlkitError):
    """An enumeration grew past its configured cap before finishing."""

    def __init__(self, count: int, cap: int, what: str = "results"):
        super().__init__(f"more than {cap} {what} (counted {count} before stopping)")
        self.count = count
        self.cap = cap
        self.what = what


class ValidationError(OmlkitError):
    """A structural law failed on otherwise well-formed input."""

    def __init__(self, law: str, witness: tuple, message: str):
        super().__init__(message)
        self.law = law
        self.witness = witness


class NotALattice(ValidationError):
    """The order relation is not a bounded lattice."""


class NotOrtho(ValidationError):
    """The complement map is not an orthocomplementation."""


class NotOrthomodular(ValidationError):
    """Some comparable pair violates the orthomodular law."""


class LoopViolation(ValidationError):
    """A Greechie diagram contains a block configuration that cannot paste."""


class NonCommutingGenerators(ValidationError):
    """A generating set for a Boolean subalgebra contains a non-commuting pair."""


class ImproperInput(ValidationError):
    """A filter operation received an improper (zero-containing) filter."""


class EmbeddingInvalid(ValidationError):
    """A proposed modal embedding fails to preserve lattice structure."""


class PreconditionPossibility(ValidationError):
    """The chosen possibility valuation does not make the target possible."""


class NotInW(ValidationError):
    """The target proposition lies outside the chosen context."""


class IncompatibleGlobalSection(ValidationError):
    """A global section breaks a section law or induces conflicting values
    on the possibility space."""


class InternalError(OmlkitError):
    """A self-check failed: a result breaks a law that its construction
    guarantees.  This is a bug in omlkit, not a fault of the input."""


def ensure(ok, claim: str) -> None:
    """Raise InternalError stating ``claim`` unless ``ok``.  Unlike
    ``assert``, the check still runs under ``python -O``."""
    if not ok:
        raise InternalError(f"self-check failed: {claim}")


class ParseError(OmlkitError):
    """Malformed input text; carries 1-based line and column numbers."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SingletonBlock(ParseError):
    """A Greechie block with fewer than two atoms."""


class BlockSubsumed(ParseError):
    """A Greechie block contained in another block (blocks must be maximal)."""


class ZeroVector(ParseError):
    """A vector line whose entries are all zero."""


class DimensionMismatch(ParseError):
    """A vector line whose entry count differs from the declared dimension."""
