"""Exception types shared across the package.

Every type pickles with its own fields, so an error raised in a worker
process of ``suites.verify_all`` reaches the caller with its type and message.
"""

from __future__ import annotations


class RefusalError(ValueError):
    """A request refused on purpose, such as one past a size limit: a usage error (exit 2)."""


class ShapeMismatchError(ValueError):
    """Operands disagree on grid, degree, or matrix dimension."""


class TruncationOverflowError(RuntimeError):
    """An operation produced a nonzero component above its output truncation."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"nonzero component at degree {degree} exceeds the truncation")

    def __reduce__(self):
        return type(self), (self.degree,)


class NotAdaptedError(ValueError):
    """A step process violates the support/predictability condition."""

    def __init__(self, cell: int, degree: int | None = None, multiset: tuple[int, ...] | None = None):
        self.cell = cell
        self.degree = degree
        self.multiset = multiset
        detail = f"cell {cell}"
        if degree is not None:
            detail += f", degree {degree}, multiset {multiset}"
        super().__init__(f"process is not adapted at {detail}")

    def __reduce__(self):
        return type(self), (self.cell, self.degree, self.multiset)


class NotRepresentableError(ValueError):
    """A Fock vector with diagonal support has no discrete chaos expansion."""

    def __init__(self, multiset: tuple[int, ...]):
        self.multiset = multiset
        super().__init__(f"multiset {multiset} has a repeated cell; not representable")

    def __reduce__(self):
        return type(self), (self.multiset,)
