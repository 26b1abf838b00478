"""Symmetric piecewise-constant functions on [0, T]^d.

A degree-d symmetric function that is constant on products of grid cells is
stored sparsely as a map from cell multisets to complex values: the multiset
(m_1, ..., m_d) of cell indices (sorted, repeats allowed) carries the value of
the function on every ordered tuple from that block.  The L^2 inner product
over [0, T]^d then becomes a weighted sum,

    <f, g> = sum_alpha w(alpha) conj(f_alpha) g_alpha,
    w(alpha) = d!/prod(mult_i!) * prod(len_i ** mult_i),

where the combinatorial factor counts the ordered tuples in the block and the
product of cell lengths is the block's volume.  This occupation-number storage
costs C(n+d-1, d) entries instead of n^d and keeps all algebra exact up to
floating point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb, factorial, prod
from typing import Iterable, Mapping, Sequence

from .errors import ShapeMismatchError
from .grid import TimeGrid, refine

#: entries with |value| below this are dropped; no other implicit rounding
DROP_EPS = 1e-300

Multiset = tuple[int, ...]


def _clean(values: Mapping[Multiset, complex], degree: int) -> dict[Multiset, complex]:
    out = {}
    for key, val in values.items():
        key = tuple(sorted(int(c) for c in key))
        if len(key) != degree:
            raise ShapeMismatchError(f"multiset {key} does not have degree {degree}")
        v = complex(val)
        if abs(v) >= DROP_EPS:
            out[key] = out.get(key, 0.0 + 0.0j) + v
    return {k: v for k, v in out.items() if abs(v) >= DROP_EPS}


@dataclass(frozen=True, eq=False)
class SymCoeffs:
    """Sparse degree-d symmetric function attached to a grid.

    Treated as immutable; all operations return new objects.
    """

    grid: TimeGrid
    degree: int
    values: dict[Multiset, complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        object.__setattr__(self, "values", _clean(self.values, self.degree))
        n = self.grid.n
        for key in self.values:
            if key and (key[0] < 1 or key[-1] > n):
                raise ValueError(f"cell index in {key} outside 1..{n}")

    def __getitem__(self, key: Iterable[int]) -> complex:
        return self.values.get(tuple(sorted(key)), 0.0 + 0.0j)

    def __add__(self, other: "SymCoeffs") -> "SymCoeffs":
        _check_pair(self, other, same_degree=True)
        merged = dict(self.values)
        accumulate(merged, other.values)
        return SymCoeffs(self.grid, self.degree, merged)

    def __sub__(self, other: "SymCoeffs") -> "SymCoeffs":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "SymCoeffs":
        return SymCoeffs(self.grid, self.degree, {k: scalar * v for k, v in self.values.items()})

    __rmul__ = __mul__

    def conj(self) -> "SymCoeffs":
        return SymCoeffs(self.grid, self.degree, {k: v.conjugate() for k, v in self.values.items()})

    def is_zero(self) -> bool:
        return not self.values

    def is_off_diagonal(self) -> bool:
        """True when no stored multiset repeats a cell."""
        return all(len(set(k)) == len(k) for k in self.values)

    def to_json(self) -> dict:
        entries = [[list(k), v.real, v.imag] for k, v in sorted(self.values.items())]
        return {"degree": self.degree, "entries": entries}

    @classmethod
    def from_json(cls, grid: TimeGrid, obj: dict) -> "SymCoeffs":
        values = {tuple(ms): complex(re, im) for ms, re, im in obj["entries"]}
        return cls(grid, int(obj["degree"]), values)


def accumulate(acc: dict[Multiset, complex], values: Mapping[Multiset, complex]) -> None:
    """Add the entries of a SymCoeffs into acc in place, with the values,
    dropping and key order of SymCoeffs(grid, d, acc) + SymCoeffs(grid, d, values).

    acc must hold cleaned entries too.  A sum below DROP_EPS is removed, so a
    key that comes back later goes to the end, as when the dict is rebuilt.
    Cleaned values have no -0.0 part, and neither has a sum of two of them,
    so no further rounding is needed.
    """
    for key, val in values.items():
        total = acc.get(key, 0.0) + val
        if abs(total) >= DROP_EPS:
            acc[key] = total
        else:
            del acc[key]


def zero(grid: TimeGrid, degree: int) -> SymCoeffs:
    return SymCoeffs(grid, degree, {})


def scalar(grid: TimeGrid, value: complex) -> SymCoeffs:
    """Degree-0 element holding a single complex number."""
    return SymCoeffs(grid, 0, {(): complex(value)})


def cell_indicator(grid: TimeGrid, k: int) -> SymCoeffs:
    """Degree-1 indicator of cell k."""
    if not 1 <= k <= grid.n:
        raise ValueError(f"cell index {k} out of range 1..{grid.n}")
    return SymCoeffs(grid, 1, {(k,): 1.0 + 0.0j})


def ones(grid: TimeGrid, degree: int) -> SymCoeffs:
    """The constant-1 symmetric function of the given degree."""
    from itertools import combinations_with_replacement

    vals = {ms: 1.0 + 0.0j for ms in combinations_with_replacement(range(1, grid.n + 1), degree)}
    return SymCoeffs(grid, degree, vals)


def block_weight(grid: TimeGrid, multiset: Multiset) -> float:
    """Measure of the symmetric block: ordered-tuple count times volume."""
    mults = Counter(multiset)
    d = len(multiset)
    count = factorial(d) // prod(factorial(m) for m in mults.values())
    volume = prod(grid.length(c) ** m for c, m in mults.items())
    return count * volume


def _check_pair(f: SymCoeffs, g: SymCoeffs, same_degree: bool):
    if f.grid != g.grid:
        raise ShapeMismatchError("operands live on different grids")
    if same_degree and f.degree != g.degree:
        raise ShapeMismatchError(f"degree mismatch: {f.degree} vs {g.degree}")


def sym_inner(f: SymCoeffs, g: SymCoeffs) -> complex:
    """L^2([0,T]^d) inner product, conjugate-linear in the first argument."""
    _check_pair(f, g, same_degree=True)
    acc = 0.0 + 0.0j
    small = f if len(f.values) <= len(g.values) else g
    for key in small.values:
        gv = g.values.get(key)
        fv = f.values.get(key)
        if gv is None or fv is None:
            continue
        acc += block_weight(f.grid, key) * fv.conjugate() * gv
    return acc


def norm2(f: SymCoeffs) -> float:
    return sum(block_weight(f.grid, k) * abs(v) ** 2 for k, v in f.values.items())


def sym_tensor(f: SymCoeffs, g: SymCoeffs) -> SymCoeffs:
    """Symmetric tensor product (symmetrization of the ordered product).

    For entries alpha of f and beta of g the pair feeds the multiset
    gamma = alpha + beta with weight prod_i C(gamma_i, alpha_i) / C(p+q, p);
    the binomials count the position choices that the permutation average
    distributes over the block.  Only cells that alpha and beta share have a
    binomial other than 1.
    """
    _check_pair(f, g, same_degree=False)
    p, q = f.degree, g.degree
    total = comb(p + q, p)
    out: dict[Multiset, complex] = {}
    for alpha, va in f.values.items():
        cells = set(alpha)
        for beta, vb in g.values.items():
            gamma = tuple(sorted(alpha + beta))
            ways = prod(comb(alpha.count(c) + beta.count(c), alpha.count(c)) for c in cells.intersection(beta))
            out[gamma] = out.get(gamma, 0.0 + 0.0j) + va * vb * ways / total
    return SymCoeffs(f.grid, p + q, out)


def symmetrize_insert(step_values: Sequence[SymCoeffs]) -> SymCoeffs:
    """Symmetrize a per-cell family u^(c) of degree d-1 into one degree-d function.

    The output value on a block gamma averages, over the d argument slots, the
    value of u at the cell occupying that slot:

        out[gamma] = (1/d) * sum_c gamma_c * u^(c)[gamma - e_c].
    """
    if not step_values:
        raise ShapeMismatchError("need one value per cell")
    grid = step_values[0].grid
    base = step_values[0].degree
    if len(step_values) != grid.n:
        raise ShapeMismatchError(f"expected {grid.n} per-cell values, got {len(step_values)}")
    for u in step_values:
        if u.grid != grid or u.degree != base:
            raise ShapeMismatchError("per-cell values must share grid and degree")
    d = base + 1
    out: dict[Multiset, complex] = {}
    for c, u in enumerate(step_values, start=1):
        for alpha, v in u.values.items():
            gamma = tuple(sorted(alpha + (c,)))
            out[gamma] = out.get(gamma, 0.0 + 0.0j) + (alpha.count(c) + 1) * v / d
    return SymCoeffs(grid, d, out)


def entrywise_distance(f: SymCoeffs, g: SymCoeffs) -> float:
    """Largest |f_alpha - g_alpha| over all stored multisets."""
    _check_pair(f, g, same_degree=True)
    keys = set(f.values) | set(g.values)
    return max((abs(f[k] - g[k]) for k in keys), default=0.0)


def refine_values(f: SymCoeffs, factor: int) -> SymCoeffs:
    """Re-express f on the `factor`-fold refined grid (same function)."""
    from itertools import combinations_with_replacement, product

    fine = refine(f.grid, factor)
    if factor == 1:
        return SymCoeffs(fine, f.degree, dict(f.values))
    out: dict[Multiset, complex] = {}
    for alpha, v in f.values.items():
        mults = Counter(alpha)
        choices = []
        for c, m in sorted(mults.items()):
            children = range((c - 1) * factor + 1, c * factor + 1)
            choices.append(list(combinations_with_replacement(children, m)))
        for combo in product(*choices):
            gamma = tuple(sorted(sum(combo, ())))
            out[gamma] = v
    return SymCoeffs(fine, f.degree, out)
