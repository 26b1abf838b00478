"""Truncated symmetric Fock space over L^2([0, T]).

A :class:`FockVector` holds one symmetric-coefficient component per degree
0..N, with the weighted norm ||f||^2 = sum_d d! * ||f_d||^2.  The module also
provides the Wick product (degreewise symmetric-tensor convolution), the
family of time projections that keep only components supported up to a given
boundary, and the degree-1 increment vectors those projections generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import ShapeMismatchError, TruncationOverflowError
from .grid import TimeGrid
from . import symtensor
from .symtensor import SymCoeffs


@dataclass(frozen=True, eq=False)
class FockVector:
    grid: TimeGrid
    components: tuple[SymCoeffs, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least the degree-0 component")
        for d, comp in enumerate(self.components):
            self.grid.check_same(comp.grid)
            if comp.degree != d:
                raise ShapeMismatchError(f"component {d} has degree {comp.degree}")

    @property
    def truncation(self) -> int:
        return len(self.components) - 1

    def component(self, d: int) -> SymCoeffs:
        """Degree-d part; degrees above the truncation are zero."""
        if d <= self.truncation:
            return self.components[d]
        return symtensor.zero(self.grid, d)

    def max_degree(self) -> int:
        """Highest degree with a nonzero component (-1 for the zero vector)."""
        return max((d for d, c in enumerate(self.components) if not c.is_zero()), default=-1)

    def __add__(self, other: "FockVector") -> "FockVector":
        self.grid.check_same(other.grid)
        top = max(self.truncation, other.truncation)
        return FockVector(self.grid, tuple(self.component(d) + other.component(d) for d in range(top + 1)))

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockVector":
        return FockVector(self.grid, tuple(scalar * c for c in self.components))

    __rmul__ = __mul__

    def pad(self, truncation: int) -> "FockVector":
        if truncation < self.truncation:
            raise ValueError("pad cannot shrink the truncation")
        extra = tuple(symtensor.zero(self.grid, d) for d in range(self.truncation + 1, truncation + 1))
        return FockVector(self.grid, self.components + extra)


def vacuum(grid: TimeGrid, truncation: int = 0) -> FockVector:
    comps = [symtensor.scalar(grid, 1.0)]
    comps += [symtensor.zero(grid, d) for d in range(1, truncation + 1)]
    return FockVector(grid, tuple(comps))


def zero_vector(grid: TimeGrid, truncation: int = 0) -> FockVector:
    comps = tuple(symtensor.zero(grid, d) for d in range(truncation + 1))
    return FockVector(grid, comps)


def basis_vector(grid: TimeGrid, multiset: tuple[int, ...]) -> FockVector:
    """Coefficient 1 at `multiset` and 0 elsewhere, truncated at the multiset's size."""
    d = len(multiset)
    one_hot = np.arange(symtensor.size(grid.n, d)) == symtensor._rank_of(grid.n, multiset)
    return FockVector(grid, tuple(symtensor.zero(grid, k) for k in range(d)) + (SymCoeffs(grid, d, one_hot),))


def cell_increment(grid: TimeGrid, k: int) -> FockVector:
    """(0, indicator of cell k, 0, ...); squared norm equals the cell length."""
    return FockVector(grid, (symtensor.zero(grid, 0), symtensor.cell_indicator(grid, k)))


def indicator_vector(grid: TimeGrid, upto: int | None = None) -> FockVector:
    """(0, indicator of [0, t_j], 0, ...) for a boundary index j (default n)."""
    j = grid.n if upto is None else grid.check_boundary(upto)
    return FockVector(grid, (symtensor.zero(grid, 0), SymCoeffs(grid, 1, np.arange(grid.n) < j)))


def fock_inner(f: FockVector, g: FockVector) -> complex:
    """sum_d d! <f_d, g_d>; truncations may differ (missing degrees are zero)."""
    f.grid.check_same(g.grid)
    top = min(f.truncation, g.truncation)
    return sum(
        factorial(d) * symtensor.sym_inner(f.components[d], g.components[d]) for d in range(top + 1)
    )


def norm2(f: FockVector) -> float:
    return sum(factorial(d) * symtensor.norm2(c) for d, c in enumerate(f.components))


def entrywise_distance(f: FockVector, g: FockVector) -> float:
    """Largest coefficient difference over all degrees and multisets; NaN if any is."""
    f.grid.check_same(g.grid)
    top = max(f.truncation, g.truncation)
    return float(np.max([symtensor.entrywise_distance(f.component(d), g.component(d)) for d in range(top + 1)]))


def wick(f: FockVector, g: FockVector) -> FockVector:
    """Wick product: degree-n output is sum_m f_m (x) g_{n-m} (symmetric tensor).

    The output truncation is the larger of the operands'; a nonzero component
    above it raises at its lowest degree.  The terms of a degree are added in
    ascending m; only pairs of nonzero components form a term.  The top
    degree is never formed: it is the one term f_top (x) g_top, nonzero
    because symmetric tensors form an integral domain (even if its
    floating-point entries underflow).
    """
    f.grid.check_same(g.grid)
    ft, gt = f.truncation, g.truncation
    out_trunc = max(ft, gt)
    ftop, gtop = f.max_degree(), g.max_degree()
    overflow = min(ftop, gtop) >= 0 and ftop + gtop > out_trunc
    comps = []
    for n in range(ftop + gtop if overflow else out_trunc + 1):
        total = None
        for m in range(max(0, n - gt), min(n, ft) + 1):
            fm, gm = f.components[m], g.components[n - m]
            if not (fm.is_zero() or gm.is_zero()):
                term = symtensor.sym_tensor(fm, gm)
                total = term if total is None else total + term
        if n <= out_trunc:
            comps.append(symtensor.zero(f.grid, n) if total is None else total)
        elif total is not None and not total.is_zero():
            raise TruncationOverflowError(n)
    if overflow:
        raise TruncationOverflowError(ftop + gtop)
    return FockVector(f.grid, tuple(comps))


def resolution_project(f: FockVector, j: int) -> FockVector:
    """Keep multisets supported on cells 1..j (boundary index j); zero the rest.

    Offered at grid boundaries only: interior times would need indicators that
    are not piecewise constant on the grid, so refine instead.  j = n is the
    identity, j = 0 keeps only the degree-0 part.
    """
    f.grid.check_boundary(j)
    comps = [f.components[0]]
    for d, comp in enumerate(f.components[1:], start=1):
        if comp.is_zero():
            comps.append(comp)
        else:
            kept = symtensor.multisets(f.grid.n, d)[:, -1] <= j
            comps.append(SymCoeffs(f.grid, d, np.where(kept, comp.vector, 0.0)))
    return FockVector(f.grid, tuple(comps))


def refine_vector(f: FockVector, factor: int) -> FockVector:
    """Re-express f on the refined grid (same element of the Fock space)."""
    comps = tuple(symtensor.refine_values(c, factor) for c in f.components)
    return FockVector(comps[0].grid, comps)
