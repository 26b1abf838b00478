"""Ito and Skorohod integrals of Fock-valued step processes.

A :class:`FockStepProcess` assigns a Fock vector to each grid cell.  It is
*adapted* when, for every cell k, each degree d >= 1 component of the value on
cell k is supported on multisets whose cells all lie strictly below k
(degree-0 components are unconstrained).  Two independent routes compute the
Ito integral of an adapted process:

* :func:`ito_wick` sums the Wick products of each value with the degree-1
  increment of its own cell;
* :func:`ito_symmetrize` builds each output degree by averaging the
  per-cell degree-(d-1) components over the d argument slots.

Both give the same element, and the isometry
||integral||^2 = sum_k ||value_k||^2 * len_k holds exactly on a grid.  The
symmetrization route applied without the support restriction is the Skorohod
extension.  Finally, :func:`wick_operator_process` realizes the integral as a
matrix-valued stochastic integral on the truncated Fock basis, where Wick
multiplication by the cell values plays the role of the operator process.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import NotAdaptedError, ShapeMismatchError, TruncationOverflowError
from .grid import TimeGrid
from . import fock, symtensor
from .fock import FockVector
from .operator_integral import OperatorStepProcess, ProjectorMeasure, VectorMartingale
from .symtensor import SymCoeffs


@dataclass(frozen=True, eq=False)
class FockStepProcess:
    grid: TimeGrid
    values: tuple[FockVector, ...]

    def __post_init__(self):
        if len(self.values) != self.grid.n:
            raise ShapeMismatchError(f"expected {self.grid.n} cell values, got {len(self.values)}")
        for v in self.values:
            if v.grid != self.grid:
                raise ShapeMismatchError("cell value grid mismatch")
        top = max(v.truncation for v in self.values)
        object.__setattr__(self, "values", tuple(v.pad(top) for v in self.values))

    @property
    def truncation(self) -> int:
        return self.values[0].truncation

    def value(self, k: int) -> FockVector:
        if not 1 <= k <= self.grid.n:
            raise ValueError(f"cell index {k} out of range 1..{self.grid.n}")
        return self.values[k - 1]

    def max_degree(self) -> int:
        return max(v.max_degree() for v in self.values)

    def to_json(self) -> list:
        return [v.to_json() for v in self.values]

    @classmethod
    def from_json(cls, grid: TimeGrid, obj: list) -> "FockStepProcess":
        return cls(grid, tuple(FockVector.from_json(grid, v) for v in obj))


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


def _require_adapted(proc: FockStepProcess):
    report = check_adapted(proc)
    if not report.ok:
        raise NotAdaptedError(report.cell, report.degree, report.multiset)


def ito_wick(proc: FockStepProcess) -> FockVector:
    """sum_k value_k (Wick) increment_k, under the strict truncation policy.

    The increment of cell k has only the degree-1 part e_k, so the Wick
    product maps degree d of value_k to value_k[d] (x) e_k in degree d+1; a
    nonzero top degree overflows.  The cell terms are added into one vector
    per degree, in order of k.
    """
    _require_adapted(proc)
    grid = proc.grid
    out_trunc = max(proc.truncation, 1)
    sums = {}
    for k in range(1, grid.n + 1):
        increment = symtensor.cell_indicator(grid, k)
        for d, comp in enumerate(proc.value(k).components):
            if comp.is_zero():
                continue
            if d == out_trunc:
                raise TruncationOverflowError(d + 1)
            term = symtensor.sym_tensor(comp, increment).vector
            if d + 1 in sums:
                sums[d + 1] += term
            else:
                sums[d + 1] = np.array(term)
    comps = (SymCoeffs(grid, d, sums[d]) if d in sums else symtensor.zero(grid, d) for d in range(out_trunc + 1))
    return FockVector(grid, tuple(comps))


def _insert_all_degrees(proc: FockStepProcess) -> FockVector:
    grid = proc.grid
    out = [symtensor.zero(grid, 0)]
    for d in range(1, proc.truncation + 2):
        per_cell = [proc.value(k).component(d - 1) for k in range(1, grid.n + 1)]
        out.append(symtensor.symmetrize_insert(per_cell))
    return FockVector(grid, tuple(out))


def ito_symmetrize(proc: FockStepProcess) -> FockVector:
    """Ito integral via the symmetrization formula; output truncation is N+1."""
    _require_adapted(proc)
    return _insert_all_degrees(proc)


def skorohod_integral(proc: FockStepProcess) -> FockVector:
    """The symmetrization-formula integral without the adaptedness restriction."""
    return _insert_all_degrees(proc)


def skorohod_norm(proc: FockStepProcess) -> float:
    return float(np.sqrt(fock.norm2(skorohod_integral(proc))))


def ito_isometry(proc: FockStepProcess) -> tuple[float, float]:
    """(||ito_wick||^2, sum_k ||value_k||^2 * len_k); exact identity on a grid."""
    lhs = fock.norm2(ito_wick(proc))
    rhs = sum(
        fock.norm2(proc.value(k)) * proc.grid.length(k) for k in range(1, proc.grid.n + 1)
    )
    return lhs, rhs


# --- matrix realization on the truncated Fock basis -------------------------


def fock_basis(grid: TimeGrid, truncation: int) -> tuple[tuple[int, ...], ...]:
    """All cell multisets of size 0..truncation, ordered by degree then
    lexicographically: the concatenated rank orders of the degrees."""
    return tuple(
        tuple(ms) for d in range(truncation + 1) for ms in symtensor.multisets(grid.n, d).tolist()
    )


@dataclass(frozen=True, eq=False)
class FockOperatorRealization:
    """Dense-matrix model of Wick multiplication acting on the truncated basis.

    Coordinates are taken in the orthonormalized multiset basis (each
    indicator scaled by sqrt(d! * block weight)), so plain numpy inner
    products agree with the Fock inner product and the time projections
    become diagonal 0/1 matrices.
    """

    grid: TimeGrid
    truncation: int
    scales: np.ndarray
    measure: ProjectorMeasure
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
    """Materialize g -> value_k (Wick) g as matrices, plus the measure and vector.

    The realization truncation is the process's own, proc.truncation, and
    the coordinates follow :func:`fock_basis`.  Requires one degree of
    headroom: max nonzero degree of the process plus one must fit inside
    the truncation.  Wick products above the truncation are dropped (the
    matrices act on the truncated space).
    """
    _require_adapted(proc)
    grid = proc.grid
    n_trunc = proc.truncation
    if proc.max_degree() + 1 > n_trunc:
        raise TruncationOverflowError(proc.max_degree() + 1)

    # coordinates: the degrees one after another, each in rank order
    ranks = [np.arange(symtensor.size(grid.n, d)) for d in range(n_trunc + 1)]
    starts = np.cumsum([0] + [len(r) for r in ranks])
    degrees = np.repeat(np.arange(n_trunc + 1), [len(r) for r in ranks])
    scales = np.sqrt(
        np.concatenate([factorial(d) * symtensor.block_weights(grid, d, r) for d, r in enumerate(ranks)])
    )
    dim = len(scales)

    # diagonal time projections: a multiset belongs to the increment of the
    # last cell it touches; the empty multiset is the atom at t = 0
    last = np.concatenate([[0]] + [symtensor.multisets(grid.n, d)[:, -1] for d in range(1, n_trunc + 1)])
    atom = np.diag(last == 0).astype(complex)
    cells = tuple(np.diag(last == k).astype(complex) for k in range(1, grid.n + 1))
    measure = ProjectorMeasure(grid, atom, cells, validate=False)
    # the indicator of [0, T] is 1 on every degree-1 multiset
    martingale = VectorMartingale(measure, np.where(degrees == 1, scales, 0.0).astype(complex))

    # column b of degree q holds the Wick product of value_k with the basis
    # indicator of the multiset of rank b, dropped above the truncation:
    # its degree-(m+q) part is value_k[m] (x) indicator
    operators = []
    for k in range(1, grid.n + 1):
        mat = np.zeros((dim, dim), dtype=complex)
        for m, comp in enumerate(proc.value(k).components[: n_trunc + 1]):
            if comp.is_zero():
                continue
            for q in range(n_trunc - m + 1):
                unit = np.ones(len(ranks[q]), dtype=complex)
                gamma, values = symtensor.pair_products(comp, q, ranks[q], unit)
                rows, cols = starts[m + q] + gamma, starts[q] + ranks[q]
                mat[rows, cols] = values * scales[rows] / scales[cols]
        operators.append(mat)
    process = OperatorStepProcess(grid, tuple(operators))

    return FockOperatorRealization(grid, n_trunc, scales, measure, martingale, process)
