"""Stochastic integrals of operator-valued step functions in C^dim.

The data is a step resolution of identity (mutually orthogonal projections
P_0, P_1..P_n summing to the identity, with P_0 the atom at t = 0: a
:class:`ProjectorMeasure` or the sign space ``bernoulli.BernoulliSpace``,
each applying P_k through ``project``) and a fixed vector M.  The curve
t -> E_t M, E_t = P_0 + sum_{i<=k(t)} P_i, is a martingale-like vector
path, and the integral of an operator step process {A_k} against it is

    integral = sum_k A_k (P_k M).

An operator is *measurable* at boundary j when it acts boundedly on the span
of the future increments {P_i M : i > j} with a norm that stays constant as
the boundary advances, and commutes with every later E_l on that span.  Those
two conditions are exactly what makes the triangle-free norm bound

    ||integral||^2 <= sum_k ||A_k||_{restricted}^2 * mu(cell k)

hold, with mu(cell k) = ||P_k M||^2.  Because the resolutions here are step
functions, the sup over continuous time in the norm-constancy condition
collapses to the finitely many boundaries, which makes the check decidable.

Convention: the value of a process on cell k = (t_{k-1}, t_k] must be
measurable at the *left* boundary k-1.

An operator is a dense matrix or a :class:`SparseOperator`, which keeps only
its stored entries; both act on vectors and blocks of columns through ``@``.

The sum is computed for every process.  :func:`check_measurable` alone
computes a cell's restricted norms and decides its measurability;
:func:`integral_norm_bound` returns the bound with the per-cell reports its
right side is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatchError
from .grid import TimeGrid, json_number

if TYPE_CHECKING:
    from .bernoulli import BernoulliSpace

#: tolerance for idempotency checks, and for commutation relative to the
#: restricted operator norm
COMMUTE_TOL = 1e-10
#: relative tolerance for norm constancy across boundaries
NORM_RTOL = 1e-9
#: increments with norm below this are treated as absent
DEGENERATE_TOL = 1e-12


def _as_matrix(a, dim: int | None = None) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise ShapeMismatchError(f"expected dimension {dim}, got {m.shape[0]}")
    return m


def _as_operator(a, dim: int | None = None):
    """A SparseOperator as it is (of dimension `dim`, if given), anything
    else as a square complex matrix."""
    if not isinstance(a, SparseOperator):
        return _as_matrix(a, dim)
    if dim is not None and a.dim != dim:
        raise ShapeMismatchError(f"expected dimension {dim}, got {a.dim}")
    return a


def _check_finite(what: str, arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{what} holds a non-finite number")


def _is_unitary(m: np.ndarray) -> bool:
    return bool(np.linalg.norm(m.conj().T @ m - np.eye(len(m))) <= COMMUTE_TOL)


def _projector_measure(mart: "VectorMartingale", operation: str) -> "ProjectorMeasure":
    """The martingale's measure, refused unless it is a ProjectorMeasure."""
    if not isinstance(mart.measure, ProjectorMeasure):
        raise TypeError(f"{operation} needs a ProjectorMeasure, not a {type(mart.measure).__name__}")
    return mart.measure


def _matrices(proc: "OperatorStepProcess", operation: str) -> tuple[np.ndarray, ...]:
    """The process's operators, refused unless every one is a dense matrix."""
    if any(isinstance(a, SparseOperator) for a in proc.operators):
        raise TypeError(f"{operation} needs dense operator matrices, not a SparseOperator")
    return proc.operators


def _matrix_json(m: np.ndarray) -> list:
    return [[[v.real, v.imag] for v in row] for row in m]


def _matrix_from_json(obj) -> np.ndarray:
    return np.array([[complex(json_number(re), json_number(im)) for re, im in row] for row in obj], dtype=complex)


class SparseOperator:
    """A dim x dim operator kept as its stored entries: values[i] at
    (rows[i], cols[i]), every other entry 0, no (row, col) pair twice.

    The entries are held in column order with one pointer per column, so a
    product reads only the entries in the columns where its operand is not
    zero: A @ X is one gather and one scatter.
    """

    def __init__(self, dim: int, rows, cols, values):
        rows, cols = (np.asarray(a, dtype=np.intp).reshape(-1) for a in (rows, cols))
        values = np.asarray(values, dtype=complex).reshape(-1)
        if not len(rows) == len(cols) == len(values):
            raise ShapeMismatchError(f"got {len(rows)} rows, {len(cols)} columns and {len(values)} values")
        if len(rows) and not 0 <= min(rows.min(), cols.min()) <= max(rows.max(), cols.max()) < dim:
            raise ValueError(f"entry indices must lie in 0..{dim - 1}")
        _check_finite("the operator", (values,))
        key = cols * dim + rows
        order = np.argsort(key, kind="stable")
        if np.any(key[order[1:]] == key[order[:-1]]):
            raise ValueError("an entry is stored twice")
        self.dim = dim
        self.rows, self.values = rows[order], values[order]
        # entries starts[c]..starts[c+1]-1 lie in column c
        self.starts = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=dim))))
        for arr in (self.rows, self.values, self.starts):
            arr.setflags(write=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def __matmul__(self, x) -> np.ndarray:
        """A @ x for a vector or a block of columns."""
        x = np.asarray(x)
        if x.shape[:1] != (self.dim,):
            raise ShapeMismatchError(f"expected {self.dim} rows, got shape {x.shape}")
        block = x.reshape(self.dim, -1)
        width = block.shape[1]
        j, c = np.nonzero(block)
        # the entries of column j, for every nonzero x[j, c], one run each
        first, counts = self.starts[j], self.starts[j + 1] - self.starts[j]
        pick = np.arange(counts.sum()) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        terms = self.values[pick] * np.repeat(block[j, c], counts)
        at = self.rows[pick] * width + np.repeat(c, counts)
        out = np.empty(block.size, dtype=complex)
        out.real = np.bincount(at, terms.real, block.size)
        out.imag = np.bincount(at, terms.imag, block.size)
        return out.reshape(x.shape)


@dataclass(frozen=True, eq=False)
class ProjectorMeasure:
    """Step projector-valued measure: an orthonormal frame of C^dim with one
    label per frame vector, 0 for the atom at t = 0 and k for cell k, so
    P_k = V_k V_k^H over the columns V_k labelled k.  The columns are stored
    grouped by label, so V_k is a slice.  With no frame the frame is the
    identity and P_k is a row mask.  Matrices enter by :meth:`from_projections`.
    """

    grid: TimeGrid
    labels: np.ndarray
    frame: np.ndarray | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be a 1-d integer array, got {labels.dtype} of shape {labels.shape}")
        if not 0 <= labels.min() <= labels.max() <= self.grid.n:
            raise ValueError(f"labels must lie in 0..{self.grid.n}, got {labels.min()}..{labels.max()}")
        object.__setattr__(self, "_parts", None)
        if self.frame is not None:
            frame = _as_matrix(self.frame, len(labels))
            _check_finite("the frame", (frame,))
            if not _is_unitary(frame):
                raise ValueError("the frame is not unitary")
            order = np.argsort(labels, kind="stable")
            labels = labels[order]
            object.__setattr__(self, "frame", frame[:, order])
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_projections(cls, grid: TimeGrid, atom, cells) -> "ProjectorMeasure":
        """The measure with atom P_0 and cell projections P_1..P_n: Hermitian,
        idempotent, mutually orthogonal and summing to the identity, each within
        COMMUTE_TOL.  Labels and frame are one eigh of sum_k k P_k; the
        matrices are kept only for :meth:`to_json`."""
        atom = _as_matrix(atom)
        parts = (atom, *(_as_matrix(c, len(atom)) for c in cells))
        if len(parts) != grid.n + 1:
            raise ShapeMismatchError(f"expected {grid.n} cell projections, got {len(parts) - 1}")
        _check_finite("the measure", parts)
        for p in parts:
            if np.linalg.norm(p - p.conj().T) > COMMUTE_TOL:
                raise ValueError("projection is not Hermitian")
            if np.linalg.norm(p @ p - p) > COMMUTE_TOL:
                raise ValueError("projection is not idempotent")
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if np.linalg.norm(parts[i] @ parts[j]) > COMMUTE_TOL:
                    raise ValueError(f"projections {i} and {j} are not orthogonal")
        if np.linalg.norm(sum(parts[1:], atom) - np.eye(len(atom))) > COMMUTE_TOL:
            raise ValueError("projections do not sum to the identity")
        values, frame = np.linalg.eigh(sum(k * p for k, p in enumerate(parts)))
        measure = cls(grid, np.rint(values).astype(int), frame)
        object.__setattr__(measure, "_parts", parts)
        return measure

    @property
    def dim(self) -> int:
        return len(self.labels)

    def project(self, k: int, x: np.ndarray) -> np.ndarray:
        """P_k x for a vector or a block of columns; P_0 is the atom."""
        k = self.grid.check_boundary(k)
        if self.frame is None:
            return np.where((self.labels == k).reshape((-1,) + (1,) * (np.ndim(x) - 1)), x, 0)
        part = self.frame[:, slice(*np.searchsorted(self.labels, (k, k + 1)))]
        return part @ (part.conj().T @ x)

    def to_json(self) -> dict:
        parts = self._parts or [self.project(k, np.eye(self.dim, dtype=complex)) for k in range(self.grid.n + 1)]
        return {
            "boundaries": self.grid.to_json(),
            "dim": self.dim,
            "atom": _matrix_json(parts[0]),
            "cells": [_matrix_json(c) for c in parts[1:]],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ProjectorMeasure":
        grid = TimeGrid.from_json(obj["boundaries"])
        measure = cls.from_projections(grid, _matrix_from_json(obj["atom"]), [_matrix_from_json(c) for c in obj["cells"]])
        if json_number(obj["dim"]) != measure.dim:
            raise ShapeMismatchError(f"dim is {obj['dim']}, but the projections are {measure.dim} x {measure.dim}")
        return measure


@dataclass(frozen=True, eq=False)
class VectorMartingale:
    """A fixed vector transported by a projector measure: t -> E_t M.

    ``span_cells`` (read-only, ascending) holds the cells whose increment is
    not degenerate: the cells of the :func:`future_increment_span` columns.
    """

    measure: ProjectorMeasure | BernoulliSpace
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        if v.shape[0] != self.measure.dim:
            raise ShapeMismatchError("vector dimension does not match the measure")
        _check_finite("the martingale vector", (v,))
        if np.linalg.norm(v) == 0.0:
            raise ValueError("the martingale vector must be nonzero")
        object.__setattr__(self, "vector", v)
        incs = tuple(self.measure.project(k, v) for k in range(1, self.grid.n + 1))
        norms = tuple(np.linalg.norm(inc) for inc in incs)
        cells = np.array([k for k, nv in enumerate(norms, start=1) if nv >= DEGENERATE_TOL], dtype=int)
        cells.setflags(write=False)
        object.__setattr__(self, "_increments", incs)
        object.__setattr__(self, "_norms", norms)
        object.__setattr__(self, "span_cells", cells)

    @property
    def grid(self) -> TimeGrid:
        return self.measure.grid

    @property
    def dim(self) -> int:
        return self.measure.dim

    def increment(self, k: int) -> np.ndarray:
        """P_k M, the martingale increment over cell k."""
        return self._increments[self.grid.check_cell(k) - 1]

    def mu(self, k: int) -> float:
        """Scalar measure of cell k: squared norm of the increment."""
        return float(self._norms[self.grid.check_cell(k) - 1] ** 2)

    def to_json(self) -> dict:
        return {
            "measure": _projector_measure(self, "to_json").to_json(),
            "vector": [[v.real, v.imag] for v in self.vector],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VectorMartingale":
        measure = ProjectorMeasure.from_json(obj["measure"])
        vector = _matrix_from_json([obj["vector"]])[0]
        return cls(measure, vector)


@dataclass(frozen=True, eq=False)
class OperatorStepProcess:
    """One operator per grid cell, a dense matrix or a SparseOperator; the
    value at t = 0 is never read."""

    grid: TimeGrid
    operators: tuple[np.ndarray | SparseOperator, ...]

    def __post_init__(self):
        ops = tuple(_as_operator(a) for a in self.operators)
        if len(ops) != self.grid.n:
            raise ShapeMismatchError(f"expected {self.grid.n} operators, got {len(ops)}")
        dims = {a.shape[0] for a in ops}
        if len(dims) > 1:
            raise ShapeMismatchError("operators have mixed dimensions")
        _check_finite("the process", (a for a in ops if not isinstance(a, SparseOperator)))
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def operator(self, k: int) -> np.ndarray | SparseOperator:
        return self.operators[self.grid.check_cell(k) - 1]

    def to_json(self) -> dict:
        return {
            "boundaries": self.grid.to_json(),
            "operators": [_matrix_json(a) for a in _matrices(self, "to_json")],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OperatorStepProcess":
        grid = TimeGrid.from_json(obj["boundaries"])
        ops = tuple(_matrix_from_json(a) for a in obj["operators"])
        return cls(grid, ops)


def future_increment_span(mart: VectorMartingale, j: int) -> np.ndarray:
    """Orthonormal basis (columns) of span{P_i M : i > j}.

    The increments are mutually orthogonal already, so normalization
    suffices; increments with norm below DEGENERATE_TOL are dropped.  May be
    empty (dim x 0).  Built on each call from the stored increments and
    their norms, and returned read-only.
    """
    cells = mart.span_cells[np.searchsorted(mart.span_cells, mart.grid.check_boundary(j), side="right") :]
    span = np.empty((mart.dim, len(cells)), dtype=complex)
    for col, k in zip(span.T, cells):
        np.divide(mart._increments[k - 1], mart._norms[k - 1], out=col)
    span.setflags(write=False)
    return span


@dataclass(frozen=True)
class MeasurabilityReport:
    """Verdict plus the worst violation of each condition.

    ``restricted_norms`` holds the largest and the smallest per-boundary
    norm, over the span at j and over its last cell's columns: one norm when
    the span holds one cell, none when it is empty.
    """

    ok: bool
    boundary: int
    norm_deviation: float
    commutator_deviation: float
    restricted_norms: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_measurable(a: np.ndarray | SparseOperator, mart: VectorMartingale, j: int) -> MeasurabilityReport:
    """Decide measurability of `a` at boundary j.

    Condition (i): the restricted norm over the future-increment span is the
    same at every later boundary (relative tolerance NORM_RTOL); the spans
    nest, so the deviation is the first norm minus the last.  Condition (ii):
    A commutes with every E_l, l >= j, on the span at j, within COMMUTE_TOL
    times the first norm.  A basis vector g of the span lies in the range of
    its cell's part P_c, and the parts are orthogonal and sum to I, so this
    says that A g lies in the range of P_c; the worst commutator columns at
    g are ||E_{c-1} A g|| and ||(I - E_c) A g||.  Both deviations may also
    exceed their bound by 4 * dim * eps * ||A||_F, a round-off allowance for
    the products that form a commutator column, so that an A which vanishes
    on the span is not rejected for round-off.  Every bound scales with A,
    so the verdict does not change when A is scaled.  Boundary j = n is
    vacuously measurable.

    Blind spot: at j = n-1 the span holds only the last increment, one atom
    of the step measure, so norm constancy over a single boundary is vacuous
    and only condition (ii) is tested.  An operator that maps the range of
    P_n into itself passes there whatever it does to the past.  On the Fock
    realization, Wick multiplication by the basis indicator e_n of the last
    cell is accepted at n-1 (checked on 2, 3 and 4 cells), although e_n is
    not adapted there; e_c with c < n is rejected at every j < c, where a
    later increment exposes its norm jump.
    """
    a = _as_operator(a, mart.dim)
    span = future_increment_span(mart, j)
    image, cells = a @ span, mart.span_cells[len(mart.span_cells) - span.shape[1] :]
    firsts = sorted({0, int(np.searchsorted(cells, cells[-1]))}) if len(cells) else []
    norms = tuple(float(np.linalg.svd(image[:, f:], compute_uv=False)[0]) for f in firsts)
    ref, norm_dev = (norms[0], norms[0] - norms[-1]) if norms else (0.0, 0.0)
    # ||P_k A g||^2 summed over k < c and k > c directly; ||A g||^2 less a sum would cancel
    parts = np.array([(np.abs(mart.measure.project(k, image)) ** 2).sum(axis=0) for k in range(mart.grid.n + 1)])
    k = np.arange(mart.grid.n + 1)[:, None]
    worst = np.maximum((parts * (k < cells)).sum(axis=0), (parts * (k > cells)).sum(axis=0))
    comm_dev = float(np.sqrt(worst.max(initial=0.0)))

    # ||A||_F of a SparseOperator is the norm of its stored entries
    frobenius = np.linalg.norm(a.values if isinstance(a, SparseOperator) else a)
    roundoff = float(4 * a.shape[0] * np.finfo(float).eps * frobenius)
    ok = norm_dev <= NORM_RTOL * ref + roundoff and comm_dev <= COMMUTE_TOL * ref + roundoff
    return MeasurabilityReport(ok, j, norm_dev, comm_dev, norms)


def stochastic_integral(proc: OperatorStepProcess, mart: VectorMartingale) -> np.ndarray:
    """sum_k A_k (P_k M).

    The sum is defined for every step process on the martingale's grid;
    whether each A_k is measurable at k-1, which the norm bound needs, is
    what :func:`check_measurable` decides.
    """
    mart.grid.check_same(proc.grid)
    if proc.dim != mart.dim:
        raise ShapeMismatchError(f"expected dimension {mart.dim}, got {proc.dim}")
    out = np.zeros(mart.dim, dtype=complex)
    for k in range(1, mart.grid.n + 1):
        out += proc.operator(k) @ mart.increment(k)
    return out


def integral_norm_bound(
    proc: OperatorStepProcess, mart: VectorMartingale
) -> tuple[float, float, tuple[MeasurabilityReport, ...]]:
    """(||integral||^2, sum_k ||A_k||_{restricted at k-1}^2 * mu(cell k), reports).

    reports[k-1] is check_measurable(A_k, mart, k-1), and the restricted norm
    of cell k is its first restricted norm, the one over the span at k-1 (0
    when that span is empty).  When every report is ok, lhs <= rhs up to
    round-off; both sides scale as rhs does with the operators and vector.
    """
    lhs = float(np.linalg.norm(stochastic_integral(proc, mart)) ** 2)
    reports = tuple(check_measurable(a, mart, j) for j, a in enumerate(proc.operators))
    acc = 0.0
    for k, report in enumerate(reports, start=1):
        norms = report.restricted_norms
        # numpy's power overflows to inf, where a float's raises
        acc += np.float64(norms[0] if norms else 0.0) ** 2 * mart.mu(k)
    return lhs, float(np.sqrt(acc) ** 2), reports


def unitary_transport(
    u: np.ndarray, proc: OperatorStepProcess, mart: VectorMartingale
) -> tuple[np.ndarray, np.ndarray]:
    """Compare U(integral) with the integral of {U A_k U^-1} against (UEU^-1, UM)."""
    measure = _projector_measure(mart, "unitary_transport")
    operators = _matrices(proc, "unitary_transport")
    u = _as_matrix(u, mart.dim)
    if not _is_unitary(u):
        raise ValueError("matrix is not unitary")
    left = u @ stochastic_integral(proc, mart)
    frame = u if measure.frame is None else u @ measure.frame
    transported = VectorMartingale(ProjectorMeasure(mart.grid, measure.labels, frame), u @ mart.vector)
    conj_proc = OperatorStepProcess(proc.grid, tuple(u @ a @ u.conj().T for a in operators))
    right = stochastic_integral(conj_proc, transported)
    return left, right
