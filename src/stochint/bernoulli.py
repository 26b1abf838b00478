"""An exact finite probability model carrying a discrete normal martingale.

The sample space is {-1, +1}^n with uniform probability, one sign coordinate
per grid cell.  The walk with increments xi_k * sqrt(len_k) has conditional
mean 0 and conditional variance len_k exactly, so every identity that holds
for normal martingales holds here to machine precision, with the filtration
realized by averaging out the later coordinates.

The module bridges this model to the operator-integral machinery (the space
is its own step measure, P_k = E_k - E_{k-1}) and to the Fock space via the
discrete chaos expansion: products of distinct scaled coordinates form an
orthogonal basis of L^2, so off-diagonal Fock vectors of degree <= n map
unitarily onto random variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

import numpy as np

from . import symtensor
from .errors import NotAdaptedError, NotRepresentableError, RefusalError, ShapeMismatchError
from .grid import TimeGrid
from .fock import FockVector
from .fock_ito import FockStepProcess, ito_wick
from .operator_integral import OperatorStepProcess, SparseOperator, VectorMartingale, check_measurable, stochastic_integral

#: pointwise tolerance of is_measurable_at, on top of the round-off
#: allowance of the conditional average it compares with
PREDICTABILITY_TOL = 1e-12


def check_size(n: int) -> None:
    """Raise RefusalError if the n x 2^n increment table of n cells would exceed symtensor.MAX_ENTRIES."""
    if n << n > symtensor.MAX_ENTRIES:
        raise RefusalError(f"a sign space on {n} cells has {n << n} increment entries, over the limit {symtensor.MAX_ENTRIES}")


@dataclass(frozen=True, eq=False)
class BernoulliSpace:
    """Uniform sign space {-1,+1}^n attached to a grid (one coordinate per
    cell).  A space that check_size refuses raises RefusalError before any
    array is built."""

    grid: TimeGrid

    def __post_init__(self):
        n = self.grid.n
        size = 1 << n
        check_size(n)
        # row k-1: the increment xi_k * sqrt(len_k), xi_k = +1 where bit k-1 of the point index is 0
        points = np.arange(size)
        incs = np.empty((n, size), dtype=complex)
        for k in range(1, n + 1):
            incs[k - 1] = complex(np.sqrt(self.grid.length(k))) * (1.0 - 2.0 * ((points >> (k - 1)) & 1))
        incs.setflags(write=False)
        object.__setattr__(self, "_increments", incs)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def size(self) -> int:
        return 1 << self.n

    dim = size  # the step-measure name of the point count

    def project(self, k: int, x: np.ndarray) -> np.ndarray:
        """P_k x = E_k x - E_{k-1} x for a vector or a block of columns of
        sample values, and P_0 x = E_0 x: the space is the step measure of
        its own realization."""
        e_k = _average(x, self.n, self.grid.check_boundary(k))
        return e_k - _average(x, self.n, k - 1) if k else e_k

    def xi(self, i: int) -> "RandomVariable":
        """The i-th sign coordinate, i = 1..n."""
        return RandomVariable(self, np.sign(self._increments[self.grid.check_cell(i) - 1].real))

    def walsh(self, cells: Sequence[int]) -> "RandomVariable":
        """Product of the listed distinct sign coordinates (empty = constant 1)."""
        # multiplied as complex numbers, so that even the zero imaginary parts carry their signs
        signs = np.sign(self._increments[[self.grid.check_cell(i) - 1 for i in cells]].real).astype(complex)
        return RandomVariable(self, np.multiply.reduce(signs, axis=0))

    def increment(self, k: int) -> "RandomVariable":
        """Martingale increment over cell k: xi_k * sqrt(len_k) (read-only values)."""
        return RandomVariable(self, self._increments[self.grid.check_cell(k) - 1])

    def walk_at(self, j: int) -> "RandomVariable":
        """The martingale at boundary j: sum of the first j increments."""
        return RandomVariable(self, np.add.reduce(self._increments[: self.grid.check_boundary(j)], axis=0))

    def constant(self, c: complex) -> "RandomVariable":
        return RandomVariable(self, np.full(self.size, complex(c)))


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """A complex function on the sample points, with the E[.] inner product."""

    space: BernoulliSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex).reshape(-1)
        if v.shape[0] != self.space.size:
            raise ShapeMismatchError("value array does not match the sample space")
        object.__setattr__(self, "values", v)

    def inner(self, other: "RandomVariable") -> complex:
        """E[conj(self) * other]."""
        _check_space(self, other)
        return complex(np.vdot(self.values, other.values) / self.space.size)

    def norm2(self) -> float:
        return float(np.vdot(self.values, self.values).real / self.space.size)

    def __add__(self, other):
        if isinstance(other, RandomVariable):
            _check_space(self, other)
            return RandomVariable(self.space, self.values + other.values)
        return RandomVariable(self.space, self.values + complex(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, RandomVariable):
            _check_space(self, other)
            return RandomVariable(self.space, self.values * other.values)
        return RandomVariable(self.space, complex(other) * self.values)

    __rmul__ = __mul__


def _check_space(x: RandomVariable, y: RandomVariable):
    if x.space is not y.space and x.space.grid != y.space.grid:
        raise ShapeMismatchError("random variables live on different spaces")


def _average(values: np.ndarray, n: int, k: int) -> np.ndarray:
    """A copy of `values` (sample values, with an optional trailing column
    axis) with coordinates k+1..n averaged out."""
    if k == n:
        return values.copy()
    # coordinates k+1..n are the high bits of the point index, the rows of
    # a C-order (2^(n-k), -1) view: their sum over m, the arithmetic of
    # mean, repeated back
    m = 1 << (n - k)
    rows = values.reshape(m, -1)
    return np.repeat(np.add.reduce(rows, axis=0, keepdims=True) / m, m, axis=0).reshape(values.shape)


def cond_expect(x: RandomVariable, k: int) -> RandomVariable:
    """Average out coordinates k+1..n: the orthogonal projection onto the
    functions of the first k coordinates.  k = n is the identity, k = 0 the
    plain expectation."""
    return RandomVariable(x.space, _average(x.values, x.space.n, x.space.grid.check_boundary(k)))


def max_abs(x: RandomVariable) -> float:
    return float(np.abs(x.values).max(initial=0.0))


def is_measurable_at(x: RandomVariable, k: int) -> bool:
    """True when x is a function of the first k coordinates, up to
    PREDICTABILITY_TOL pointwise plus 2^(n-k) * eps * max|x|, the round-off
    of the average over 2^(n-k) points that cond_expect takes, so that the
    verdict does not change when x is scaled or the space grows.  A NaN or
    inf in x raises ValueError: no comparison with it decides anything."""
    deviation = max_abs(x - cond_expect(x, k))  # cond_expect checks k
    if deviation <= PREDICTABILITY_TOL:  # within the tolerance alone; skip reading max|x|
        return True
    scale = max_abs(x)
    if not (np.isfinite(deviation) and np.isfinite(scale)):
        raise ValueError("the random variable holds a non-finite number")
    return deviation <= PREDICTABILITY_TOL + (1 << (x.space.n - k)) * np.finfo(float).eps * scale


def discrete_ito(space: BernoulliSpace, integrands: Sequence[RandomVariable]) -> RandomVariable:
    """sum_k F_k * increment_k for a predictable family (F_k fixed by the
    first k-1 coordinates)."""
    if len(integrands) != space.n:
        raise ShapeMismatchError(f"expected {space.n} integrands, got {len(integrands)}")
    out = space.constant(0.0)
    for k, f in enumerate(integrands, start=1):
        _check_space(f, out)
        if not is_measurable_at(f, k - 1):
            raise NotAdaptedError(k)
        out = out + f * space.increment(k)
    return out


def multiplication_operator(f: RandomVariable) -> SparseOperator:
    """Pointwise multiplication by f on the sample basis, as the diagonal
    SparseOperator that keeps f's values alone: A @ X = f[:, None] * X and
    ||A||_F = ||f||."""
    diagonal = np.arange(f.space.size)
    return SparseOperator(f.space.size, diagonal, diagonal, f.values)


def _scale(space: BernoulliSpace) -> float:
    return 1.0 / np.sqrt(space.size)


def classical_realization(space: BernoulliSpace) -> VectorMartingale:
    """The terminal walk value as a martingale vector, transported by the
    space itself as step measure.  The cell measures come out as the cell
    lengths.

    The vector is the value array scaled by 2^(-n/2), so that plain numpy
    inner products agree with E[conj(x) y]; diagonal multiplication
    operators are unchanged by that scaling."""
    return VectorMartingale(space, space.walk_at(space.n).values * _scale(space))


@dataclass(frozen=True)
class MeasurabilityEquivalence:
    """Paired verdicts: classical filtration measurability vs the operator check."""

    classical: bool
    operator: bool
    function_norm: float
    restricted_norms: tuple[float, ...]

    @property
    def agree(self) -> bool:
        return self.classical == self.operator


def measurability_equivalence(f: RandomVariable, k: int, realization: VectorMartingale) -> MeasurabilityEquivalence:
    """Check that multiplication by f is operator-measurable at boundary k
    exactly when f is a function of the first k coordinates; when it is, the
    restricted norms at boundaries >= k all equal ||f||.  `realization` is
    the classical realization of f's space."""
    classical = is_measurable_at(f, k)
    report = check_measurable(multiplication_operator(f), realization, k)
    return MeasurabilityEquivalence(classical, report.ok, float(np.sqrt(f.norm2())), report.restricted_norms)


def multiplication_integral_pair(
    integrands: Sequence[RandomVariable], realization: VectorMartingale
) -> tuple[RandomVariable, RandomVariable]:
    """Integrate a predictable family on the classical realization's space
    two ways: as multiplication operators through the operator integral, and
    directly against the increments.  The two random variables agree
    pointwise.  The operator integral is defined for every family, so
    predictability is checked once, by discrete_ito (it raises
    NotAdaptedError); by the measurability equivalence it is also what makes
    the multiplication operators measurable."""
    space = realization.measure
    proc = OperatorStepProcess(space.grid, tuple(multiplication_operator(f) for f in integrands))
    via_increments = discrete_ito(space, integrands)
    via_operators = RandomVariable(space, stochastic_integral(proc, realization) / _scale(space))
    return via_operators, via_increments


def chaos_map(f: FockVector, space: BernoulliSpace) -> RandomVariable:
    """Discrete chaos expansion: each strict multiset {c_1<...<c_d} with value
    v contributes d! * v * prod_i (xi_{c_i} sqrt(len_{c_i})).

    Only off-diagonal vectors (no repeated cells) are representable; the map
    is then an exact isometry onto L^2 for degrees <= n.
    """
    space.grid.check_same(f.grid)
    # row 0 the running sum, below it one row per stored multiset of the next degree: the sum
    # down the rows adds them one by one, in degree then rank order, one degree at a time
    total = np.full(space.size, complex(f.components[0].vector[0]))
    step = max(1, (1 << 16) // space.size)  # rows whose increments are gathered at once
    for d, comp in enumerate(f.components[1:], start=1):
        if comp.is_zero():
            continue
        ranks = comp.stored()
        cells = symtensor.multisets(space.n, d)[ranks]
        repeated = np.flatnonzero(~symtensor.strict(space.n, d)[ranks])
        if len(repeated):
            raise NotRepresentableError(tuple(cells[repeated[0]].tolist()))
        rows = np.empty((len(ranks) + 1, space.size), dtype=complex)
        rows[0] = total
        rows[1:] = (factorial(d) * comp.vector[ranks])[:, None]
        for s in range(0, len(ranks), step):  # d! * v * inc_{c_1} * inc_{c_2} ..., in place
            block = rows[1 + s : 1 + s + step]
            for c in cells[s : s + step].T - 1:
                block *= space._increments[c]
        total = np.add.reduce(rows, axis=0)
        del rows, block  # freed before the next degree's rows are made
    return RandomVariable(space, total)


def chaos_integral_pair(
    proc: FockStepProcess, space: BernoulliSpace
) -> tuple[RandomVariable, RandomVariable, list[RandomVariable]]:
    """Transport an adapted Fock step process and integrate on both sides.

    Returns (chaos expansion of the Fock integral, discrete integral of the
    transported integrand, the transported per-cell integrands).  The first
    two agree pointwise, and the transported family is predictable.
    """
    left = chaos_map(ito_wick(proc), space)  # raises NotAdaptedError first
    transported = [chaos_map(proc.value(k), space) for k in range(1, space.n + 1)]
    right = discrete_ito(space, transported)
    return left, right, transported
