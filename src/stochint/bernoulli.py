"""An exact finite probability model carrying a discrete normal martingale.

The sample space is {-1, +1}^n with uniform probability, one sign coordinate
per grid cell.  The walk with increments xi_k * sqrt(len_k) has conditional
mean 0 and conditional variance len_k exactly, so every identity that holds
for normal martingales holds here to machine precision, with the filtration
realized by averaging out the later coordinates.

The module bridges this model to the operator-integral machinery (conditional
expectations become a step resolution of identity on C^{2^n}) and to the Fock
space via the discrete chaos expansion: products of distinct scaled
coordinates form an orthogonal basis of L^2, so off-diagonal Fock vectors of
degree <= n map unitarily onto random variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

import numpy as np

from . import symtensor
from .errors import NotAdaptedError, NotRepresentableError, ShapeMismatchError
from .grid import TimeGrid
from .fock import FockVector
from .fock_ito import FockStepProcess, ito_wick
from .operator_integral import (
    OperatorStepProcess,
    ProjectorMeasure,
    VectorMartingale,
    check_measurable,
    stochastic_integral,
)

PREDICTABILITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BernoulliSpace:
    """Uniform sign space {-1,+1}^n attached to a grid (one coordinate per cell)."""

    grid: TimeGrid

    def __post_init__(self):
        n = self.grid.n
        size = 1 << n
        # coordinate i <-> bit i-1 of the sample-point index; +1 for bit 0
        points = np.arange(size)
        signs = np.empty((n, size))
        for i in range(n):
            signs[i] = 1.0 - 2.0 * ((points >> i) & 1)
        signs.setflags(write=False)
        object.__setattr__(self, "_signs", signs)
        # row k-1: the increment xi_k * sqrt(len_k) of cell k
        incs = np.array(
            [complex(np.sqrt(self.grid.length(k))) * signs[k - 1].astype(complex) for k in range(1, n + 1)]
        )
        incs.setflags(write=False)
        object.__setattr__(self, "_increments", incs)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def size(self) -> int:
        return 1 << self.n

    def xi(self, i: int) -> "RandomVariable":
        """The i-th sign coordinate, i = 1..n."""
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate {i} out of range 1..{self.n}")
        return RandomVariable(self, self._signs[i - 1].astype(complex))

    def walsh(self, cells: Sequence[int]) -> "RandomVariable":
        """Product of the listed distinct sign coordinates (empty = constant 1)."""
        vals = np.ones(self.size, dtype=complex)
        for i in cells:
            vals = vals * self.xi(i).values
        return RandomVariable(self, vals)

    def increment(self, k: int) -> "RandomVariable":
        """Martingale increment over cell k: xi_k * sqrt(len_k) (read-only values)."""
        if not 1 <= k <= self.n:
            raise ValueError(f"cell index {k} out of range 1..{self.n}")
        return RandomVariable(self, self._increments[k - 1])

    def walk_at(self, j: int) -> "RandomVariable":
        """The martingale at boundary j: sum of the first j increments."""
        if not 0 <= j <= self.n:
            raise ValueError(f"boundary index {j} out of range 0..{self.n}")
        vals = np.zeros(self.size, dtype=complex)
        for k in range(1, j + 1):
            vals = vals + self.increment(k).values
        return RandomVariable(self, vals)

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

    def conj(self) -> "RandomVariable":
        return RandomVariable(self.space, self.values.conj())

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


def cond_expect(x: RandomVariable, k: int) -> RandomVariable:
    """Average out coordinates k+1..n: the orthogonal projection onto the
    functions of the first k coordinates.  k = n is the identity, k = 0 the
    plain expectation."""
    n = x.space.n
    if not 0 <= k <= n:
        raise ValueError(f"filtration index {k} out of range 0..{n}")
    if k == n:
        return RandomVariable(x.space, x.values.copy())
    # C-order reshape puts coordinate i on axis n-i, so coords k+1..n are axes 0..n-k-1
    tensor = x.values.reshape((2,) * n)
    avg = tensor.mean(axis=tuple(range(n - k)), keepdims=True)
    return RandomVariable(x.space, np.broadcast_to(avg, tensor.shape).reshape(-1).copy())


def max_abs(x: RandomVariable) -> float:
    return float(np.abs(x.values).max(initial=0.0))


def is_measurable_at(x: RandomVariable, k: int) -> bool:
    """True when x is a function of the first k coordinates, up to
    PREDICTABILITY_TOL pointwise."""
    return max_abs(x - cond_expect(x, k)) <= PREDICTABILITY_TOL


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


def multiplication_operator(f: RandomVariable) -> np.ndarray:
    """Pointwise multiplication by f as a diagonal matrix on the sample basis."""
    return np.diag(f.values)


@dataclass(frozen=True, eq=False)
class ClassicalRealization:
    """The sign space rendered as a Hilbert space with a step resolution.

    Vectors are value arrays scaled by 2^(-n/2) so that plain numpy inner
    products agree with E[conj(x) y]; diagonal multiplication operators are
    unchanged by that scaling.
    """

    space: BernoulliSpace
    measure: ProjectorMeasure
    martingale: VectorMartingale
    scale: float

    def to_vector(self, x: RandomVariable) -> np.ndarray:
        return x.values * self.scale

    def to_random_variable(self, vec: np.ndarray) -> RandomVariable:
        return RandomVariable(self.space, np.asarray(vec, dtype=complex) / self.scale)


def classical_realization(space: BernoulliSpace) -> ClassicalRealization:
    """Conditional expectations as projections on C^{2^n}, with the terminal
    walk value as the martingale vector.  The cell measures come out as the
    cell lengths.

    E_k averages over the sample points that share the first k coordinates,
    the low k bits of the point index: with m = 2^(n-k) such points, it is
    the Kronecker product of the constant m x m matrix 1/m with I_{2^k}."""
    n, size = space.n, space.size
    cond_mats = []
    for k in range(n + 1):
        m = 1 << (n - k)
        cond_mats.append(np.kron(np.full((m, m), 1.0 / m), np.eye(1 << k)).astype(complex))
    atom = cond_mats[0]
    cells = tuple(cond_mats[k] - cond_mats[k - 1] for k in range(1, n + 1))
    measure = ProjectorMeasure(space.grid, atom, cells)
    scale = 1.0 / np.sqrt(size)
    martingale = VectorMartingale(measure, space.walk_at(n).values * scale)
    return ClassicalRealization(space, measure, martingale, scale)


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


def measurability_equivalence(
    f: RandomVariable, k: int, realization: ClassicalRealization | None = None
) -> MeasurabilityEquivalence:
    """Check that multiplication by f is operator-measurable at boundary k
    exactly when f is a function of the first k coordinates; when it is, the
    restricted norms at boundaries >= k all equal ||f||."""
    real = classical_realization(f.space) if realization is None else realization
    classical = is_measurable_at(f, k)
    report = check_measurable(multiplication_operator(f), real.martingale, k)
    return MeasurabilityEquivalence(classical, report.ok, float(np.sqrt(f.norm2())), report.restricted_norms)


def multiplication_integral_pair(
    space: BernoulliSpace,
    integrands: Sequence[RandomVariable],
    realization: ClassicalRealization | None = None,
) -> tuple[RandomVariable, RandomVariable]:
    """Integrate a predictable family two ways: as multiplication operators
    through the operator integral, and directly against the increments.
    The two random variables agree pointwise."""
    real = classical_realization(space) if realization is None else realization
    proc = OperatorStepProcess(space.grid, tuple(multiplication_operator(f) for f in integrands))
    via_operators = real.to_random_variable(stochastic_integral(proc, real.martingale))
    via_increments = discrete_ito(space, integrands)
    return via_operators, via_increments


def chaos_map(f: FockVector, space: BernoulliSpace) -> RandomVariable:
    """Discrete chaos expansion: each strict multiset {c_1<...<c_d} with value
    v contributes d! * v * prod_i (xi_{c_i} sqrt(len_{c_i})).

    Only off-diagonal vectors (no repeated cells) are representable; the map
    is then an exact isometry onto L^2 for degrees <= n.
    """
    if f.grid != space.grid:
        raise ShapeMismatchError("Fock vector and sample space use different grids")
    # one row per stored multiset, in degree then rank order, each the
    # running product d! * v * inc_{c_1} * inc_{c_2} ...; the sum down the
    # rows adds them one by one onto the degree-0 value
    rows = [np.full((1, space.size), complex(f.components[0].vector[0]))]
    for d, comp in enumerate(f.components[1:], start=1):
        if comp.is_zero():
            continue
        ranks = comp.stored()
        cells = symtensor.multisets(space.n, d)[ranks]
        repeated = np.flatnonzero(~symtensor.strict(space.n, d)[ranks])
        if len(repeated):
            raise NotRepresentableError(tuple(cells[repeated[0]].tolist()))
        w = (factorial(d) * comp.vector[ranks])[:, None]
        for c in cells.T - 1:
            w = w * space._increments[c]
        rows.append(w)
    return RandomVariable(space, np.add.reduce(np.concatenate(rows), axis=0))


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
