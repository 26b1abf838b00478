"""Symmetric piecewise-constant functions on [0, T]^d.

A degree-d symmetric function that is constant on products of grid cells is
stored as one dense complex vector, with an entry per cell multiset
(m_1 <= ... <= m_d): the value of the function on every ordered tuple from
that block.  Entry r belongs to the multiset of rank r in
``combinations_with_replacement`` order, which is sorted order, so the vector
has C(n+d-1, d) entries instead of n^d.  The L^2 inner product over [0, T]^d
is then a weighted sum,

    <f, g> = sum_alpha w(alpha) conj(f_alpha) g_alpha,
    w(alpha) = d!/prod(mult_i!) * prod(len_i ** mult_i),

where the combinatorial factor counts the ordered tuples in the block and the
product of cell lengths is the block's volume.

A function stores exactly its nonzero entries, NaN and inf included, so an
overflow propagates to whatever reads the result.  The kernels gather those
entries of their operands and scatter with ``np.bincount``, so they cost
O(nonzeros).  Complex products are rounded as Python's (a*c - b*d) +
(a*d + b*c)i; numpy's complex multiply may fuse a multiply-add and round
differently.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import RefusalError, ShapeMismatchError
from .grid import TimeGrid, refine

#: most entries, C(n+d-1, d), that one coefficient vector may have (64 MiB)
MAX_ENTRIES = 1 << 22
#: highest degree whose multiset table is built: 21! overflows the int64
#: factorials of the block weights
MAX_DEGREE = 20

Multiset = tuple[int, ...]


def size(n: int, degree: int) -> int:
    """C(n+d-1, d), the entries of a degree-d vector on n cells; raises
    RefusalError past MAX_ENTRIES, before anything is allocated."""
    count = comb(n + degree - 1, degree)
    if count > MAX_ENTRIES:
        raise RefusalError(f"a degree-{degree} vector on {n} cells has {count} entries, over the limit {MAX_ENTRIES}")
    return count


@cache
def _table(n: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(cells, factorials), read-only: row r of cells is the multiset of rank
    r in ascending order, and factorials[r] the product of its multiplicities'
    factorials.  The rows that start with cell c continue with the last
    C(n-c+d-1, d-1) rows of degree d-1, those with no cell below c.  Raises
    RefusalError past MAX_DEGREE, before any factorial is formed."""
    if degree > MAX_DEGREE:
        raise RefusalError(f"degree {degree} is over the limit {MAX_DEGREE}: its factorials overflow 64-bit integers")
    cells, fact = np.zeros((1, 0), dtype=np.intp), np.ones(1, dtype=np.intp)
    if degree:
        tail, tail_fact = _table(n, degree - 1)
        counts = [comb(n - c + degree - 1, degree - 1) for c in range(1, n + 1)]
        rows = np.concatenate([np.arange(len(tail) - k, len(tail)) for k in counts])
        cells = np.column_stack([np.repeat(np.arange(1, n + 1), counts), tail[rows]])
        fact = tail_fact[rows] * (cells == cells[:, :1]).sum(axis=1)
    cells.setflags(write=False)
    fact.setflags(write=False)
    return cells, fact


def multisets(n: int, degree: int) -> np.ndarray:
    """(C(n+d-1, d), d) array whose row r is the multiset of rank r."""
    size(n, degree)
    return _table(n, degree)[0]


def strict(n: int, degree: int) -> np.ndarray:
    """Mask of the multisets, by rank, that repeat no cell."""
    size(n, degree)
    return _table(n, degree)[1] == 1


@cache
def _rank_terms(n: int, degree: int) -> np.ndarray:
    """T with rank(m) = sum_i T[i, m_i] for sorted m: the combinatorial number
    system on the increasing m_i + i, C(n+d-1, d) - 1 - sum_i C(n+d-1-m_i-i, d-i)."""
    terms = np.array([[-comb(n + degree - 1 - c - i, degree - i) for c in range(n + 1)] for i in range(degree)])
    terms = terms.reshape(degree, n + 1).astype(np.intp)
    terms[:1] += size(n, degree) - 1
    terms.setflags(write=False)
    return terms


def _rank(n: int, rows: np.ndarray) -> np.ndarray:
    """Ranks of the sorted multisets in the rows of an int array."""
    ranks = np.zeros(len(rows), dtype=np.intp)
    for terms, column in zip(_rank_terms(n, rows.shape[1]), rows.T):
        ranks += terms[column]
    return ranks


def _rank_of(n: int, multiset: Iterable[int]) -> int:
    """Rank of one multiset among those of its size; raises ValueError for a
    cell outside 1..n."""
    key = sorted(multiset)
    if key and not 1 <= key[0] <= key[-1] <= n:
        raise ValueError(f"cell index in {tuple(key)} outside 1..{n}")
    return int(_rank(n, np.array([key], dtype=np.intp))[0])


@cache
def _insertions(n: int, degree: int) -> np.ndarray:
    """Read-only (C(n+d-1, d), n) table: entry [r, c-1] is the rank of the
    degree-(d+1) multiset made of the multiset m of rank r and cell c.

    Sorted, that multiset has entry i = max(m_{i-1}, min(c, m_i)) for
    i = 0..d, with m_{-1} below every cell and m_d above; the table is built
    one cell at a time, each column ranked by _rank, with temporaries of
    O(C(n+d-1, d) * d) entries."""
    size(n, degree + 1)
    cells = _table(n, degree)[0]
    ranks = np.empty((len(cells), n), dtype=np.intp)
    rows = np.empty((len(cells), degree + 1), dtype=np.intp)
    for c in range(1, n + 1):
        np.minimum(cells, c, out=rows[:, :degree])
        rows[:, degree] = c
        np.maximum(rows[:, 1:], cells, out=rows[:, 1:])
        ranks[:, c - 1] = _rank(n, rows)
    ranks.setflags(write=False)
    return ranks


@cache
def _zeros(count: int) -> tuple[np.ndarray, np.ndarray]:
    """A read-only vector of `count` zeros in O(1) memory (stride 0), and its
    empty array of stored ranks."""
    vector = np.lib.stride_tricks.as_strided(np.zeros(1, dtype=complex), (count,), (0,), writeable=False)
    return vector, np.zeros(0, dtype=np.intp)


def _times(x, y) -> np.ndarray:
    """x * y with Python's rounding; x and y are a Python complex and a
    vector, or two vectors of one shape."""
    out = np.empty(np.shape(x) or np.shape(y), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _scatter(count: int, index: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Vector of `count` entries; entry i sums the values at index == i, in
    order and starting from 0, part by part."""
    slots = ((2 * index)[:, None] + np.arange(2)).ravel()
    return np.bincount(slots, values.view(np.float64), minlength=2 * count).view(complex)


class SymCoeffs:
    """Degree-d symmetric function attached to a grid: ``vector`` holds its
    block values in rank order (read-only).

    ``values`` is a vector of size(n, d) entries in rank order, or None for
    the zero function.  Exactly the nonzero entries are stored, NaN and inf
    included; a function with no stored entry shares a zero vector of
    stride 0, so it costs O(1) memory.  Immutable.
    """

    __slots__ = ("grid", "degree", "vector", "_ranks")

    def __init__(self, grid: TimeGrid, degree: int, values: np.ndarray | None = None):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        count = size(grid.n, degree)
        self.grid, self.degree = grid, degree
        self.vector, self._ranks = _zeros(count)
        if values is not None:
            if values.shape != (count,):
                raise ShapeMismatchError(f"expected {count} entries for degree {degree}, got shape {values.shape}")
            vec = values + 0j  # an own complex copy, without -0.0 parts
            ranks = np.flatnonzero(vec)
            if len(ranks):
                vec.setflags(write=False)
                self.vector, self._ranks = vec, ranks

    @property
    def values(self) -> Mapping[Multiset, complex]:
        """Read-only map from each stored multiset to its value, in rank order."""
        keys = map(tuple, _table(self.grid.n, self.degree)[0][self._ranks].tolist())
        return MappingProxyType(dict(zip(keys, self.vector[self._ranks].tolist())))

    def stored(self) -> np.ndarray:
        """Ranks of the stored (nonzero) entries, ascending."""
        return self._ranks

    def __getitem__(self, key: Iterable[int]) -> complex:
        """The value at one multiset; a key whose length is not the degree
        raises ShapeMismatchError, and a cell outside 1..n ValueError."""
        key = tuple(key)
        if len(key) != self.degree:
            raise ShapeMismatchError(f"expected a multiset of {self.degree} cells, got {key}")
        return complex(self.vector[_rank_of(self.grid.n, key)])

    def __add__(self, other: "SymCoeffs") -> "SymCoeffs":
        _check_pair(self, other, same_degree=True)
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        return SymCoeffs(self.grid, self.degree, self.vector + other.vector)

    def __sub__(self, other: "SymCoeffs") -> "SymCoeffs":
        _check_pair(self, other, same_degree=True)
        return self if other.is_zero() else SymCoeffs(self.grid, self.degree, self.vector - other.vector)

    def __mul__(self, scalar: complex) -> "SymCoeffs":
        return self if self.is_zero() else SymCoeffs(self.grid, self.degree, _times(complex(scalar), self.vector))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not len(self._ranks)

    def is_off_diagonal(self) -> bool:
        """True when no stored multiset repeats a cell."""
        return bool(strict(self.grid.n, self.degree)[self._ranks].all())


def zero(grid: TimeGrid, degree: int) -> SymCoeffs:
    return SymCoeffs(grid, degree)


def scalar(grid: TimeGrid, value: complex) -> SymCoeffs:
    """Degree-0 element holding a single complex number."""
    return SymCoeffs(grid, 0, np.array([complex(value)]))


def cell_indicator(grid: TimeGrid, k: int) -> SymCoeffs:
    """Degree-1 indicator of cell k."""
    return SymCoeffs(grid, 1, np.arange(grid.n) == grid.check_cell(k) - 1)


def ones(grid: TimeGrid, degree: int) -> SymCoeffs:
    """The constant-1 symmetric function of the given degree."""
    return SymCoeffs(grid, degree, np.ones(size(grid.n, degree), dtype=complex))


def block_weights(grid: TimeGrid, degree: int, ranks: np.ndarray) -> np.ndarray:
    """Block weights of the degree-d multisets of the given ranks."""
    cells, fact = _table(grid.n, degree)
    volume = np.multiply.reduce(np.asarray(grid.lengths)[cells[ranks] - 1], axis=1)
    return (factorial(degree) // fact[ranks]) * volume


def block_weight(grid: TimeGrid, multiset: Multiset) -> float:
    """Measure of the symmetric block: ordered-tuple count times volume."""
    return float(block_weights(grid, len(multiset), [_rank_of(grid.n, multiset)])[0])


def _check_pair(f: SymCoeffs, g: SymCoeffs, same_degree: bool):
    f.grid.check_same(g.grid)
    if same_degree and f.degree != g.degree:
        raise ShapeMismatchError(f"degree mismatch: {f.degree} vs {g.degree}")


def sym_inner(f: SymCoeffs, g: SymCoeffs) -> complex:
    """L^2([0,T]^d) inner product, conjugate-linear in the first argument,
    summed left to right in rank order (np.sum adds pairwise)."""
    _check_pair(f, g, same_degree=True)
    if f.is_zero() or g.is_zero():
        return 0j
    r = f.stored()
    terms = _times(block_weights(f.grid, f.degree, r) * f.vector[r].conj(), g.vector[r])
    return complex(np.add.accumulate(terms)[-1])


def norm2(f: SymCoeffs) -> float:
    if f.is_zero():
        return 0.0
    r, v = f.stored(), f.vector[f.stored()]
    return float(np.add.accumulate(block_weights(f.grid, f.degree, r) * np.hypot(v.real, v.imag) ** 2)[-1])


def pair_products(f: SymCoeffs, q: int, ranks: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair each stored entry alpha of f with the degree-q multisets beta of
    the given ranks and values: (entries of f, len(ranks)) arrays of the rank
    of gamma = alpha + beta and of va * vb * ways / total.  ways =
    prod_c C(gamma_c, alpha_c), the multiplicity factorials of gamma over
    those of alpha and beta, counts the position choices that the permutation
    average distributes over the block; total = C(p+q, p)."""
    n, p, ia = f.grid.n, f.degree, f.stored()
    gamma = ia[:, None]
    for i, cell in enumerate(_table(n, q)[0][ranks].T):  # add the cells of beta one at a time
        gamma = _insertions(n, p + i)[gamma, cell - 1]
    ways = _table(n, p + q)[1][gamma] // np.multiply.outer(_table(n, p)[1][ia], _table(n, q)[1][ranks])
    # products[a, b, i, j]: part i of va times part j of vb
    products = f.vector[ia].view(np.float64).reshape(-1, 1, 2, 1) * values.view(np.float64).reshape(1, -1, 1, 2)
    parts = np.empty(ways.shape + (2,))
    np.subtract(products[..., 0, 0], products[..., 1, 1], out=parts[..., 0])
    np.add(products[..., 0, 1], products[..., 1, 0], out=parts[..., 1])
    parts *= ways[..., None]
    parts /= comb(p + q, p)
    return gamma, parts.view(complex)[..., 0]


def sym_tensor(f: SymCoeffs, g: SymCoeffs) -> SymCoeffs:
    """Symmetric tensor product (symmetrization of the ordered product): each
    entry gamma sums the pair_products that feed it, in the order (rank of
    alpha, rank of beta).  A degree-0 factor just scales the other one."""
    _check_pair(f, g, same_degree=False)
    p, q = f.degree, g.degree
    count = size(f.grid.n, p + q)
    if f.is_zero() or g.is_zero():
        return zero(f.grid, p + q)
    if not p:
        return SymCoeffs(f.grid, q, _times(complex(f.vector[0]), g.vector))
    if not q:
        return SymCoeffs(f.grid, p, _times(f.vector, complex(g.vector[0])))
    gamma, products = pair_products(f, q, g.stored(), g.vector[g.stored()])
    return SymCoeffs(f.grid, p + q, _scatter(count, gamma.ravel(), products.ravel()))


def symmetrize_insert(step_values: Sequence[SymCoeffs]) -> SymCoeffs:
    """Symmetrize a per-cell family u^(c) of degree d-1 into one degree-d function.

    The output value on a block gamma averages, over the d argument slots, the
    value of u at the cell occupying that slot:

        out[gamma] = (1/d) * sum_c gamma_c * u^(c)[gamma - e_c],

    summed in the order (c, rank of gamma - e_c).
    """
    if not step_values:
        raise ShapeMismatchError("need one value per cell")
    grid, base = step_values[0].grid, step_values[0].degree
    if len(step_values) != grid.n:
        raise ShapeMismatchError(f"expected {grid.n} per-cell values, got {len(step_values)}")
    if any(u.grid != grid or u.degree != base for u in step_values):
        raise ShapeMismatchError("per-cell values must share grid and degree")
    d, ranks = base + 1, [u.stored() for u in step_values]
    count, source = size(grid.n, d), np.concatenate(ranks)
    if not len(source):
        return zero(grid, d)
    cell = np.repeat(np.arange(grid.n), [len(r) for r in ranks])
    vals = np.concatenate([u.vector[r] for u, r in zip(step_values, ranks) if len(r)])
    gamma = _insertions(grid.n, base)[source, cell]
    parts = vals.view(np.float64).reshape(len(vals), 2)  # gamma_c * v / d, part by part
    parts *= (_table(grid.n, d)[1][gamma] // _table(grid.n, base)[1][source])[:, None]
    parts /= d
    return SymCoeffs(grid, d, _scatter(count, gamma, vals))


def entrywise_distance(f: SymCoeffs, g: SymCoeffs) -> float:
    """Largest |f_alpha - g_alpha| over all multisets."""
    _check_pair(f, g, same_degree=True)
    diff = f.vector - g.vector
    return float(np.hypot(diff.real, diff.imag).max())


def refine_values(f: SymCoeffs, factor: int) -> SymCoeffs:
    """Re-express f on the `factor`-fold refined grid (same function): each
    fine multiset takes the value of the multiset of its parent cells."""
    fine = refine(f.grid, factor)
    if f.is_zero():
        return zero(fine, f.degree)
    parents = (multisets(fine.n, f.degree) - 1) // factor + 1
    return SymCoeffs(fine, f.degree, f.vector[_rank(f.grid.n, parents)])
