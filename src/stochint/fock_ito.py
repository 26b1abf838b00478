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
from itertools import combinations_with_replacement
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
        for d in range(1, v.truncation + 1):
            for ms in sorted(v.components[d].values):
                if ms[-1] >= k:
                    return AdaptednessReport(False, k, d, ms)
    return AdaptednessReport(True)


def _require_adapted(proc: FockStepProcess):
    report = check_adapted(proc)
    if not report.ok:
        raise NotAdaptedError(report.cell, report.degree, report.multiset)


def ito_wick(proc: FockStepProcess) -> FockVector:
    """sum_k value_k (Wick) increment_k, under the strict truncation policy.

    The cell terms are merged into one dict per degree, with the values of
    the running sum of Fock vectors.
    """
    _require_adapted(proc)
    out_trunc = max(proc.truncation, 1)
    sums = [{} for _ in range(out_trunc + 1)]
    for k in range(1, proc.grid.n + 1):
        term = fock.wick(proc.value(k), fock.cell_increment(proc.grid, k), "strict", out_trunc)
        for acc, comp in zip(sums, term.components):
            symtensor.accumulate(acc, comp.values)
    return FockVector(proc.grid, tuple(SymCoeffs(proc.grid, d, acc) for d, acc in enumerate(sums)))


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
    """All cell multisets of size 0..truncation, ordered by degree then lexicographically."""
    out = []
    for d in range(truncation + 1):
        out.extend(combinations_with_replacement(range(1, grid.n + 1), d))
    return tuple(out)


def _coords(f: FockVector, index: dict, scales: np.ndarray, truncation: int) -> np.ndarray:
    """Coordinates of the degrees 0..truncation of f in the orthonormalized basis."""
    coords = np.zeros(len(scales), dtype=complex)
    for d in range(min(f.truncation, truncation) + 1):
        for ms, v in f.components[d].values.items():
            i = index[ms]
            coords[i] = v * scales[i]
    return coords


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
    basis: tuple[tuple[int, ...], ...]
    scales: np.ndarray
    measure: ProjectorMeasure
    martingale: VectorMartingale
    process: OperatorStepProcess

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_to_vector(self, coords: np.ndarray) -> FockVector:
        comps = {d: {} for d in range(self.truncation + 1)}
        for i, ms in enumerate(self.basis):
            v = coords[i] / self.scales[i]
            if v != 0:
                comps[len(ms)][ms] = v
        return FockVector(
            self.grid,
            tuple(SymCoeffs(self.grid, d, comps[d]) for d in range(self.truncation + 1)),
        )


def wick_operator_process(proc: FockStepProcess, truncation: int | None = None) -> FockOperatorRealization:
    """Materialize g -> value_k (Wick) g as matrices, plus the measure and vector.

    Requires one degree of headroom: max nonzero degree of the process plus
    one must fit inside the realization truncation.  Wick products above the
    truncation are dropped (the matrices act on the truncated space).
    """
    _require_adapted(proc)
    grid = proc.grid
    n_trunc = proc.truncation if truncation is None else truncation
    if proc.max_degree() + 1 > n_trunc:
        raise TruncationOverflowError(proc.max_degree() + 1)

    basis = fock_basis(grid, n_trunc)
    dim = len(basis)
    index = {ms: i for i, ms in enumerate(basis)}
    scales = np.array(
        [np.sqrt(factorial(len(ms)) * symtensor.block_weight(grid, ms)) for ms in basis]
    )

    # diagonal time projections: a multiset belongs to the increment of the
    # last cell it touches; the empty multiset is the atom at t = 0
    masks = {j: np.zeros(dim) for j in range(grid.n + 1)}
    for i, ms in enumerate(basis):
        masks[ms[-1] if ms else 0][i] = 1.0
    atom = np.diag(masks[0]).astype(complex)
    cells = tuple(np.diag(masks[k]).astype(complex) for k in range(1, grid.n + 1))
    measure = ProjectorMeasure(grid, atom, cells, validate=False)
    martingale = VectorMartingale(measure, _coords(fock.indicator_vector(grid), index, scales, n_trunc))

    operators = []
    for k in range(1, grid.n + 1):
        f_k = proc.value(k)
        mat = np.zeros((dim, dim), dtype=complex)
        for col, ms in enumerate(basis):
            image = fock.wick(f_k, fock.basis_vector(grid, ms), "drop", n_trunc)
            mat[:, col] = _coords(image, index, scales, n_trunc) / scales[col]
        operators.append(mat)
    process = OperatorStepProcess(grid, tuple(operators))

    return FockOperatorRealization(grid, n_trunc, basis, scales, measure, martingale, process)
