"""Ito and Skorohod integrals of Fock-valued step processes.

A :class:`FockStepProcess` assigns a Fock vector to each grid cell.  It is
*adapted* when, for every cell k, each degree d >= 1 component of the value on
cell k is supported on multisets whose cells all lie strictly below k
(degree-0 components are unconstrained).

One kernel, :func:`symtensor.symmetrize_insert`, gives both integrals: degree
d of the output averages the per-cell degree-(d-1) components over the d
argument slots (the creation-operator form).  :func:`ito_wick` applies it to
an adapted process, where it equals sum_k value_k (Wick) increment_k, and the
isometry ||integral||^2 = sum_k ||value_k||^2 * len_k holds exactly on a
grid.  :func:`skorohod_integral` applies it without the support restriction,
which is the Skorohod extension.  Finally, :func:`wick_operator_process`
realizes the integral as an operator-valued stochastic integral on the
truncated Fock basis, where Wick multiplication by the cell values plays the
role of the operator process; off the adapted processes its integral is the
Skorohod one.  Wick multiplication by a value that lies in the past of its
cell is a creation operator, sqrt(len_c) a+_c for the cell indicator e_c
(Parthasarathy, An Introduction to Quantum Stochastic Calculus, 1992), so
each operator is kept as its stored entries, a SparseOperator, not as a
dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import NotAdaptedError, RefusalError, ShapeMismatchError, TruncationOverflowError
from .grid import TimeGrid
from . import fock, symtensor
from .fock import FockVector
from .operator_integral import OperatorStepProcess, ProjectorMeasure, SparseOperator, VectorMartingale
from .symtensor import SymCoeffs


@dataclass(frozen=True, eq=False)
class FockStepProcess:
    grid: TimeGrid
    values: tuple[FockVector, ...]

    def __post_init__(self):
        if len(self.values) != self.grid.n:
            raise ShapeMismatchError(f"expected {self.grid.n} cell values, got {len(self.values)}")
        for v in self.values:
            self.grid.check_same(v.grid)
        top = max(v.truncation for v in self.values)
        object.__setattr__(self, "values", tuple(v.pad(top) for v in self.values))

    @property
    def truncation(self) -> int:
        return self.values[0].truncation

    def value(self, k: int) -> FockVector:
        return self.values[self.grid.check_cell(k) - 1]

    def max_degree(self) -> int:
        return max(v.max_degree() for v in self.values)


@dataclass(frozen=True)
class AdaptednessReport:
    ok: bool
    cell: int | None = None
    degree: int | None = None
    multiset: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_adapted(proc: FockStepProcess) -> AdaptednessReport:
    """Verdict plus the first offending (cell, degree, multiset)."""
    for k in range(1, proc.grid.n + 1):
        v = proc.value(k)
        for d, comp in enumerate(v.components[1:], start=1):
            if comp.is_zero():
                continue
            cells = symtensor.multisets(proc.grid.n, d)[comp.stored()]
            late = np.flatnonzero(cells[:, -1] >= k)
            if len(late):
                return AdaptednessReport(False, k, d, tuple(cells[late[0]].tolist()))
    return AdaptednessReport(True)


def _insert_degrees(proc: FockStepProcess, top: int) -> FockVector:
    """Degree 0 zero; degree d = 1..top symmetrizes the per-cell degree-(d-1) values."""
    grid = proc.grid
    out = [symtensor.zero(grid, 0)]
    for d in range(1, top + 1):
        out.append(symtensor.symmetrize_insert([v.component(d - 1) for v in proc.values]))
    return FockVector(grid, tuple(out))


def ito_wick(proc: FockStepProcess) -> FockVector:
    """sum_k value_k (Wick) increment_k for an adapted process.

    The increment of cell k has only the degree-1 part e_k, so the Wick
    product maps degree d of value_k to value_k[d] (x) e_k in degree d+1,
    and each output degree is one symmetrization over the cells.  The output
    truncation is max(N, 1); a nonzero component of that degree overflows.
    A process that is not adapted raises NotAdaptedError.
    """
    report = check_adapted(proc)
    if not report.ok:
        raise NotAdaptedError(report.cell, report.degree, report.multiset)
    top = max(proc.truncation, 1)
    if proc.max_degree() == top:
        raise TruncationOverflowError(top + 1)
    return _insert_degrees(proc, top)


def skorohod_integral(proc: FockStepProcess) -> FockVector:
    """The same symmetrization without the adaptedness restriction; output truncation N+1."""
    return _insert_degrees(proc, proc.truncation + 1)


def ito_isometry(proc: FockStepProcess) -> tuple[float, float]:
    """(||ito_wick||^2, sum_k ||value_k||^2 * len_k); exact identity on a grid."""
    lhs = fock.norm2(ito_wick(proc))
    rhs = sum(
        fock.norm2(proc.value(k)) * proc.grid.length(k) for k in range(1, proc.grid.n + 1)
    )
    return lhs, rhs


# --- matrix realization on the truncated Fock basis -------------------------


@dataclass(frozen=True, eq=False)
class FockOperatorRealization:
    """Wick multiplication acting on the truncated basis, one SparseOperator
    per cell.

    Coordinates are taken in the orthonormalized multiset basis (each
    indicator scaled by sqrt(d! * block weight)), so plain numpy inner
    products agree with the Fock inner product and each time projection
    keeps a set of coordinates: the martingale's measure has labels only.
    """

    grid: TimeGrid
    truncation: int
    scales: np.ndarray
    martingale: VectorMartingale
    process: OperatorStepProcess

    @property
    def dim(self) -> int:
        return len(self.scales)

    def coords_to_vector(self, coords: np.ndarray) -> FockVector:
        sizes = [symtensor.size(self.grid.n, d) for d in range(self.truncation + 1)]
        parts = np.split(np.asarray(coords) / self.scales, np.cumsum(sizes)[:-1])
        return FockVector(self.grid, tuple(SymCoeffs(self.grid, d, v) for d, v in enumerate(parts)))


def wick_operator_process(proc: FockStepProcess) -> FockOperatorRealization:
    """Realize g -> value_k (Wick) g as one SparseOperator per cell, plus the martingale.

    The realization truncation is the process's own, proc.truncation, and
    the coordinates run by degree, then by rank within a degree.  Requires
    one degree of headroom: max nonzero degree of the process plus one must
    fit inside the truncation.  Wick products above the truncation are
    dropped (the operators act on the truncated space).  Each stored entry
    of value_k[m] stores one entry per coordinate of degree <= truncation - m;
    past symtensor.MAX_ENTRIES stored entries over all cells, RefusalError is
    raised before anything is built.  The process need not be adapted: the
    integral of the realization is then the Skorohod integral.
    """
    grid = proc.grid
    n_trunc = proc.truncation
    if proc.max_degree() + 1 > n_trunc:
        raise TruncationOverflowError(proc.max_degree() + 1)
    sizes = [symtensor.size(grid.n, d) for d in range(n_trunc + 1)]
    # coordinates of degree <= n_trunc - m, for each m
    below = np.cumsum(sizes)[::-1]
    stored = sum(len(comp.stored()) * int(below[m]) for v in proc.values for m, comp in enumerate(v.components))
    if stored > symtensor.MAX_ENTRIES:
        message = f"the Wick operators on {grid.n} cells at truncation {n_trunc} store {stored} entries"
        raise RefusalError(f"{message}, over the limit {symtensor.MAX_ENTRIES}")
    dim = sum(sizes)

    # coordinates: the degrees one after another, each in rank order
    ranks = [np.arange(size) for size in sizes]
    starts = np.cumsum([0] + sizes)
    degrees = np.repeat(np.arange(n_trunc + 1), sizes)
    scales = np.sqrt(
        np.concatenate([factorial(d) * symtensor.block_weights(grid, d, r) for d, r in enumerate(ranks)])
    )

    # time projections: a multiset belongs to the increment of the last cell
    # it touches; the empty multiset is the atom at t = 0
    last = np.concatenate([[0]] + [symtensor.multisets(grid.n, d)[:, -1] for d in range(1, n_trunc + 1)])
    # the indicator of [0, T] is 1 on every degree-1 multiset
    martingale = VectorMartingale(ProjectorMeasure(grid, last), np.where(degrees == 1, scales, 0.0).astype(complex))

    # column b of degree q holds the Wick product of value_k with the basis
    # indicator of the multiset of rank b, dropped above the truncation:
    # its degree-(m+q) part is value_k[m] (x) indicator, one entry per
    # stored entry of value_k[m].  One pair_products call per (m, q) pairs
    # every column of degree q with the stored entries of all cells.
    unit = [symtensor.ones(grid, q) for q in range(n_trunc + 1)]
    cell, rows, cols, values = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0, complex)]
    for m in range(n_trunc):
        comps = [v.components[m] for v in proc.values]
        alpha = np.concatenate([comp.stored() for comp in comps])
        owner = np.repeat(np.arange(grid.n), [len(comp.stored()) for comp in comps])
        va = np.concatenate([comp.vector[comp.stored()] for comp in comps])
        if not len(alpha):
            continue
        for q in range(n_trunc - m + 1):
            # (columns, entries) arrays; gamma has one column when m = 0
            gamma, products = symtensor.pair_products(unit[q], m, alpha, va)
            r, c = starts[m + q] + gamma, (starts[q] + ranks[q])[:, None]
            values.append((products * scales[r] / scales[c]).ravel())
            rows.append(np.broadcast_to(r, products.shape).ravel())
            cols.append(np.repeat(c, len(alpha)))
            cell.append(np.tile(owner, len(c)))
    cell, rows, cols, values = map(np.concatenate, (cell, rows, cols, values))
    # split the entries by cell; each operator orders its own by column
    order = np.argsort(cell, kind="stable")
    bounds = np.cumsum(np.bincount(cell, minlength=grid.n))[:-1]
    operators = [SparseOperator(dim, rows[i], cols[i], values[i]) for i in np.split(order, bounds)]
    process = OperatorStepProcess(grid, tuple(operators))

    return FockOperatorRealization(grid, n_trunc, scales, martingale, process)
