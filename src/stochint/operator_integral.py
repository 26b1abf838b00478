"""Stochastic integrals of operator-valued step functions in C^dim.

The data is a step resolution of identity (mutually orthogonal projections
P_0, P_1..P_n summing to the identity, with P_0 the atom at t = 0) and a
fixed vector M.  The curve t -> E_t M, E_t = P_0 + sum_{i<=k(t)} P_i, is a
martingale-like vector path, and the integral of an operator step process
{A_k} against it is

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeasurabilityError, ShapeMismatchError
from .grid import TimeGrid

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


def _check_finite(what: str, arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{what} holds a non-finite number")


def _dense(mart: "VectorMartingale", operation: str) -> "ProjectorMeasure":
    """The martingale's measure, refused unless it is the dense form."""
    if not isinstance(mart.measure, ProjectorMeasure):
        raise TypeError(f"{operation} needs a dense ProjectorMeasure, not a {type(mart.measure).__name__}")
    return mart.measure


def _matrix_json(m: np.ndarray) -> list:
    return [[[v.real, v.imag] for v in row] for row in m]


def _matrix_from_json(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj], dtype=complex)


@dataclass(frozen=True, eq=False)
class ProjectorMeasure:
    """Step projector-valued measure: atom at 0 plus one projection per cell."""

    grid: TimeGrid
    atom: np.ndarray
    cells: tuple[np.ndarray, ...]

    def __post_init__(self):
        atom = _as_matrix(self.atom)
        dim = atom.shape[0]
        cells = tuple(_as_matrix(c, dim) for c in self.cells)
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "cells", cells)
        if len(cells) != self.grid.n:
            raise ShapeMismatchError(f"expected {self.grid.n} cell projections, got {len(cells)}")
        _check_finite("the measure", (atom, *cells))
        self._check_projections()

    def _check_projections(self):
        parts = (self.atom,) + self.cells
        for p in parts:
            if np.linalg.norm(p - p.conj().T) > COMMUTE_TOL:
                raise ValueError("projection is not Hermitian")
            if np.linalg.norm(p @ p - p) > COMMUTE_TOL:
                raise ValueError("projection is not idempotent")
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if np.linalg.norm(parts[i] @ parts[j]) > COMMUTE_TOL:
                    raise ValueError(f"projections {i} and {j} are not orthogonal")
        total = sum(parts[1:], parts[0])
        if np.linalg.norm(total - np.eye(self.dim)) > COMMUTE_TOL:
            raise ValueError("projections do not sum to the identity")

    @property
    def dim(self) -> int:
        return self.atom.shape[0]

    def project(self, k: int, x: np.ndarray) -> np.ndarray:
        """P_k x for a vector or a block of columns."""
        return self.cells[self.grid.check_cell(k) - 1] @ x

    def to_json(self) -> dict:
        return {
            "boundaries": self.grid.to_json(),
            "dim": self.dim,
            "atom": _matrix_json(self.atom),
            "cells": [_matrix_json(c) for c in self.cells],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ProjectorMeasure":
        grid = TimeGrid.from_json(obj["boundaries"])
        atom = _matrix_from_json(obj["atom"])
        cells = tuple(_matrix_from_json(c) for c in obj["cells"])
        measure = cls(grid, atom, cells)
        if obj["dim"] != measure.dim:
            raise ShapeMismatchError(f"dim is {obj['dim']}, but the projections are {measure.dim} x {measure.dim}")
        return measure


@dataclass(frozen=True, eq=False)
class LabelMeasure:
    """Step measure whose parts are coordinate projections: coordinate i lies
    in part labels[i], 0 for the atom and k for cell k, so P_k is a row mask."""

    grid: TimeGrid
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be a 1-d integer array, got {labels.dtype} of shape {labels.shape}")
        if not 0 <= labels.min() <= labels.max() <= self.grid.n:
            raise ValueError(f"labels must lie in 0..{self.grid.n}, got {labels.min()}..{labels.max()}")
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def project(self, k: int, x: np.ndarray) -> np.ndarray:
        """P_k x for a vector or a block of columns."""
        mask = self.labels == self.grid.check_cell(k)
        return np.where(mask.reshape((-1,) + (1,) * (np.ndim(x) - 1)), x, 0)


@dataclass(frozen=True, eq=False)
class VectorMartingale:
    """A fixed vector transported by a projector measure: t -> E_t M.

    ``span_cells`` (read-only, ascending) holds the cells whose increment is
    not degenerate: the cells of the :func:`future_increment_span` columns.
    """

    measure: ProjectorMeasure | LabelMeasure
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
        object.__setattr__(self, "_increments", incs)
        # the normalized non-degenerate increments as columns, and their
        # cells; future_increment_span hands out read-only column suffixes
        cols, cells = [], []
        for k, inc in enumerate(incs, start=1):
            nv = np.linalg.norm(inc)
            if nv >= DEGENERATE_TOL:
                cols.append(inc / nv)
                cells.append(k)
        span = np.column_stack(cols) if cols else np.zeros((len(v), 0), dtype=complex)
        cells = np.array(cells, dtype=int)
        for arr in (span, cells):
            arr.setflags(write=False)
        object.__setattr__(self, "_span", span)
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
        return float(np.linalg.norm(self.increment(k)) ** 2)

    def to_json(self) -> dict:
        return {
            "measure": _dense(self, "to_json").to_json(),
            "vector": [[v.real, v.imag] for v in self.vector],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VectorMartingale":
        measure = ProjectorMeasure.from_json(obj["measure"])
        vector = np.array([complex(re, im) for re, im in obj["vector"]])
        return cls(measure, vector)


@dataclass(frozen=True, eq=False)
class OperatorStepProcess:
    """One operator per grid cell; the value at t = 0 is never read."""

    grid: TimeGrid
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_as_matrix(a) for a in self.operators)
        if len(ops) != self.grid.n:
            raise ShapeMismatchError(f"expected {self.grid.n} operators, got {len(ops)}")
        dims = {a.shape[0] for a in ops}
        if len(dims) > 1:
            raise ShapeMismatchError("operators have mixed dimensions")
        _check_finite("the process", ops)
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def operator(self, k: int) -> np.ndarray:
        return self.operators[self.grid.check_cell(k) - 1]

    def to_json(self) -> dict:
        return {
            "boundaries": self.grid.to_json(),
            "operators": [_matrix_json(a) for a in self.operators],
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
    empty (dim x 0).  The result is a read-only view of the martingale's
    cached basis.
    """
    mart.grid.check_boundary(j)
    return mart._span[:, np.searchsorted(mart.span_cells, j, side="right") :]


def restricted_norm(a: np.ndarray, basis: np.ndarray) -> float:
    """Operator norm of A restricted to the subspace spanned by the basis."""
    a = _as_matrix(a)
    if basis.shape[1] == 0:
        return 0.0
    if basis.shape[0] != a.shape[0]:
        raise ShapeMismatchError("basis dimension does not match the operator")
    return float(np.linalg.norm(a @ basis, 2))


@dataclass(frozen=True)
class MeasurabilityReport:
    """Verdict plus the worst violation of each condition."""

    ok: bool
    boundary: int
    norm_deviation: float
    commutator_deviation: float
    restricted_norms: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_measurable(a: np.ndarray, mart: VectorMartingale, j: int) -> MeasurabilityReport:
    """Decide measurability of `a` at boundary j.

    Condition (i): the restricted norm over the future-increment span is the
    same at every later boundary (relative tolerance NORM_RTOL; boundaries
    whose span is empty are skipped).  Condition (ii): for every basis vector
    g of the span at j and every boundary l >= j,
    ||A E_l g - E_l A g|| <= COMMUTE_TOL * ref, where ref is the largest of
    those restricted norms.  No E_l is formed: each increment lies in the range of
    its own cell's projection, and the parts sum to the identity.  Both
    deviations may also exceed their relative bound by 4 * dim * eps *
    ||A||_F, a round-off allowance for the products that form a commutator
    column, so that an A which vanishes on the span is not rejected for
    round-off.  Every bound scales with A, so the verdict does not change
    when A is scaled.
    Boundary j = n is vacuously measurable.
    """
    a = _as_matrix(a, mart.dim)
    n = mart.grid.n
    if mart.grid.check_boundary(j) == n:
        return MeasurabilityReport(True, j, 0.0, 0.0, ())

    start = np.searchsorted(mart.span_cells, j, side="right")
    basis, cells = mart._span[:, start:], mart.span_cells[start:]
    image = a @ basis
    # one row per boundary l in j..n-1 with a nonempty span: the columns of
    # basis that span the increments after l
    spans = cells > np.arange(j, n)[:, None]
    spans = spans[spans.any(axis=1)]
    norms = np.linalg.svd(image * spans[:, None, :], compute_uv=False).max(axis=1).tolist() if len(spans) else []
    ref = max(norms, default=0.0)
    norm_dev = ref - min(norms, default=0.0)

    # A E_l g is the image column of g if its cell is <= l, else 0; and
    # E_l A g = A g - sum_{k>l} P_k A g, built down from E_n = I (commutator 0)
    comm_dev = 0.0
    if len(cells):
        below = image.copy()
        for l in range(n - 1, j - 1, -1):
            below -= mart.measure.project(l + 1, image)
            comm_dev = max(comm_dev, float(np.linalg.norm(image * (cells <= l) - below, axis=0).max()))

    roundoff = float(4 * a.shape[0] * np.finfo(float).eps * np.linalg.norm(a))
    ok = norm_dev <= NORM_RTOL * ref + roundoff and comm_dev <= COMMUTE_TOL * ref + roundoff
    return MeasurabilityReport(ok, j, norm_dev, comm_dev, tuple(norms))


def stochastic_integral(
    proc: OperatorStepProcess, mart: VectorMartingale, enforce: bool = True
) -> np.ndarray:
    """sum_k A_k (P_k M).  With `enforce`, every A_k must be measurable at k-1."""
    mart.grid.check_same(proc.grid)
    if proc.dim != mart.dim:
        raise ShapeMismatchError("process dimension does not match the martingale")
    out = np.zeros(mart.dim, dtype=complex)
    for k in range(1, mart.grid.n + 1):
        a = proc.operator(k)
        if enforce:
            report = check_measurable(a, mart, k - 1)
            if not report.ok:
                raise MeasurabilityError(k, report)
        out += a @ mart.increment(k)
    return out


def process_quasinorm(proc: OperatorStepProcess, mart: VectorMartingale) -> float:
    """sqrt(sum_k ||A_k||_{restricted at k-1}^2 * mu(cell k))."""
    mart.grid.check_same(proc.grid)
    acc = 0.0
    for k in range(1, mart.grid.n + 1):
        basis = future_increment_span(mart, k - 1)
        acc += restricted_norm(proc.operator(k), basis) ** 2 * mart.mu(k)
    return float(np.sqrt(acc))


def integral_norm_bound(
    proc: OperatorStepProcess, mart: VectorMartingale, enforce: bool = True
) -> tuple[float, float]:
    """(||integral||^2, quasinorm^2); callers assert lhs <= rhs + 1e-10."""
    lhs = float(np.linalg.norm(stochastic_integral(proc, mart, enforce=enforce)) ** 2)
    rhs = process_quasinorm(proc, mart) ** 2
    return lhs, rhs


def unitary_transport(
    u: np.ndarray, proc: OperatorStepProcess, mart: VectorMartingale, enforce: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Compare U(integral) with the integral of {U A_k U^-1} against (UEU^-1, UM)."""
    dense = _dense(mart, "unitary_transport")
    u = _as_matrix(u, mart.dim)
    if np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) >= 1e-10:
        raise ValueError("matrix is not unitary")
    left = u @ stochastic_integral(proc, mart, enforce=enforce)
    uh = u.conj().T
    measure = ProjectorMeasure(mart.grid, u @ dense.atom @ uh, tuple(u @ p @ uh for p in dense.cells))
    transported = VectorMartingale(measure, u @ mart.vector)
    conj_proc = OperatorStepProcess(proc.grid, tuple(u @ a @ uh for a in proc.operators))
    right = stochastic_integral(conj_proc, transported, enforce=enforce)
    return left, right
