"""Time partitions of [0, T].

Everything in the package is piecewise constant on the cells of a
:class:`TimeGrid`.  Cells are right-closed: cell k is (t_{k-1}, t_k] for
k = 1..n, and t = 0 is a distinguished atom that belongs to no cell.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeMismatchError

#: marker returned by :func:`locate` for t == 0 (cell indices start at 1)
ORIGIN = 0


@dataclass(frozen=True)
class TimeGrid:
    """A partition 0 = t_0 < t_1 < ... < t_n = T of [0, T]."""

    boundaries: tuple[float, ...]

    def __post_init__(self):
        b = tuple(float(t) for t in self.boundaries)
        object.__setattr__(self, "boundaries", b)
        if len(b) < 2:
            raise ValueError("a grid needs at least two boundaries")
        if not np.isfinite(b).all():
            raise ValueError("boundaries must be finite")
        if b[0] != 0.0:
            raise ValueError("first boundary must be 0")
        if any(s >= t for s, t in zip(b, b[1:])):
            raise ValueError("boundaries must be strictly increasing")

    @cached_property
    def n(self) -> int:
        """Number of cells."""
        return len(self.boundaries) - 1

    @property
    def horizon(self) -> float:
        return self.boundaries[-1]

    @cached_property
    def lengths(self) -> tuple[float, ...]:
        return tuple(t - s for s, t in zip(self.boundaries, self.boundaries[1:]))

    def check_cell(self, k: int) -> int:
        """k itself, when it names a cell 1..n; raises ValueError otherwise."""
        if not 1 <= k <= self.n:
            raise ValueError(f"cell index {k} out of range 1..{self.n}")
        return k

    def check_boundary(self, j: int) -> int:
        """j itself, when it names a boundary 0..n; raises ValueError otherwise."""
        if not 0 <= j <= self.n:
            raise ValueError(f"boundary index {j} out of range 0..{self.n}")
        return j

    def check_same(self, other: "TimeGrid") -> None:
        """Raise ShapeMismatchError unless `other` is the same partition."""
        if other is not self and other != self:
            raise ShapeMismatchError("operands live on different grids")

    def length(self, k: int) -> float:
        """Length of cell k, 1-based."""
        return self.boundaries[self.check_cell(k)] - self.boundaries[k - 1]

    def to_json(self) -> list[float]:
        return list(self.boundaries)

    @classmethod
    def from_json(cls, obj) -> "TimeGrid":
        return cls(tuple(json_number(t) for t in obj))


def json_number(value) -> float:
    """A wire-format number as a float; TypeError unless it is a JSON int or float (a bool is neither)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def uniform_grid(horizon: float, cells: int) -> TimeGrid:
    """Uniform partition of [0, horizon] into `cells` equal cells."""
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be positive and finite")
    if cells < 1:
        raise ValueError("need at least one cell")
    return TimeGrid(tuple(np.linspace(0.0, horizon, cells + 1)))


def refine(grid: TimeGrid, factor: int) -> TimeGrid:
    """Split every cell into `factor` equal subcells.

    Original boundaries are kept verbatim, so the old grid is a subset of
    the new one.
    """
    if factor < 1:
        raise ValueError("refinement factor must be >= 1")
    if factor == 1:
        return grid
    out = [0.0]
    for left, right in zip(grid.boundaries, grid.boundaries[1:]):
        step = (right - left) / factor
        out.extend(left + j * step for j in range(1, factor))
        out.append(right)
    return TimeGrid(tuple(out))


def locate(grid: TimeGrid, t: float) -> int:
    """Cell index k with t in (t_{k-1}, t_k], or ORIGIN for t == 0."""
    if not 0 <= t <= grid.horizon:
        raise ValueError(f"t={t} outside [0, {grid.horizon}]")
    if t == 0:
        return ORIGIN
    return bisect_left(grid.boundaries, t)
