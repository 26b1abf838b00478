"""Seeded generators for randomized suites and property tests.

Every generator takes an explicit numpy Generator; trial streams are derived
with ``generator(master_seed, trial_index)`` so suites are reproducible and
parallelizable in any order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import TimeGrid, uniform_grid
from . import symtensor
from .fock import FockVector
from .fock_ito import FockStepProcess
from .operator_integral import (
    DEGENERATE_TOL,
    OperatorStepProcess,
    ProjectorMeasure,
    VectorMartingale,
    future_increment_span,
)
from .symtensor import SymCoeffs


def generator(seed: int, *stream: int) -> np.random.Generator:
    words = [s & 0xFFFFFFFFFFFFFFFF for s in (seed, *stream)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def random_grid(rng: np.random.Generator, cells: int) -> TimeGrid:
    """Random partition of [0, 1] with the given number of cells (interior points uniform)."""
    if cells == 1:
        return uniform_grid(1.0, 1)
    interior = np.sort(rng.uniform(0.05, 0.95, size=cells - 1))
    return TimeGrid((0.0, *interior, 1.0))


def random_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projector_measure(rng: np.random.Generator, grid: TimeGrid, dim: int) -> ProjectorMeasure:
    """Random orthogonal splitting of C^dim: a random unitary frame, each column in a random part."""
    v = random_unitary(rng, dim)
    labels = rng.integers(0, grid.n + 1, size=dim)
    return ProjectorMeasure(grid, labels, v)


def random_martingale(rng: np.random.Generator, grid: TimeGrid, dim: int) -> VectorMartingale:
    measure = random_projector_measure(rng, grid, dim)
    m = random_complex(rng, dim)
    m /= np.linalg.norm(m)
    return VectorMartingale(measure, m)


def random_measurable_process(
    rng: np.random.Generator, mart: VectorMartingale, scalar_action: bool = False
) -> OperatorStepProcess:
    """A process that passes the measurability check by construction.

    The value on cell k maps each future increment direction q_i (i >= k)
    into the range of the i-th cell projection, with one common magnitude so
    the restricted norm is the same at every later boundary; the orthogonal
    complement of the increment span carries an arbitrary operator.  With
    ``scalar_action`` the value acts as one scalar on the whole span, the
    family on which the norm bound is an equality.
    """
    dim = mart.dim
    n = mart.grid.n
    ops = []
    cells, basis = mart.span_cells.tolist(), future_increment_span(mart, 0)
    for k in range(1, n + 1):
        directions = [(i, q) for i, q in zip(cells, basis.T) if i >= k]
        a = np.zeros((dim, dim), dtype=complex)
        span = np.zeros((dim, dim), dtype=complex)
        if directions:
            magnitude = float(rng.uniform(0.2, 2.0))
            c = magnitude * np.exp(2j * np.pi * rng.uniform())
            last = directions[-1][0]
            for i, q in directions:
                span += np.outer(q, q.conj())
                if scalar_action:
                    a += c * np.outer(q, q.conj())
                else:
                    w = mart.measure.project(i, random_complex(rng, dim))
                    nw = np.linalg.norm(w)
                    if nw < DEGENERATE_TOL:
                        w = q
                        nw = 1.0
                    # the final direction carries the full magnitude so the
                    # restricted norm is the same at every later boundary;
                    # earlier directions may act with less, making the norm
                    # bound generically strict
                    r = magnitude if i == last else magnitude * float(rng.uniform(0.2, 1.0))
                    a += r * np.outer(w / nw, q.conj())
        b = random_complex(rng, dim, dim)
        a += b @ (np.eye(dim) - span)
        ops.append(a)
    return OperatorStepProcess(mart.grid, tuple(ops))


def random_sym_coeffs(
    rng: np.random.Generator,
    grid: TimeGrid,
    degree: int,
    max_cell: int | None = None,
    strict: bool = False,
    entries: int = 3,
) -> SymCoeffs:
    """Sparse random coefficients supported on cells 1..max_cell: `entries`
    multisets drawn from those (strict ones, with `strict`) in rank order."""
    top = grid.n if max_cell is None else max_cell
    if degree == 0:
        return symtensor.scalar(grid, complex(random_complex(rng)))
    pool = _pool(grid.n, degree, top, strict)
    if not len(pool):
        return symtensor.zero(grid, degree)
    picks = rng.choice(len(pool), size=min(entries, len(pool)), replace=False)
    parts = rng.standard_normal((len(picks), 2))  # the (real, imaginary) pairs, pick by pick
    values = np.zeros(symtensor.size(grid.n, degree), dtype=complex)
    values[pool[picks]] = parts[:, 0] + 1j * parts[:, 1]
    return SymCoeffs(grid, degree, values)


@lru_cache(maxsize=256)
def _pool(n: int, degree: int, top: int, strict: bool) -> np.ndarray:
    """Read-only ranks, ascending, of the degree-d multisets on cells 1..top
    (the strict ones, with `strict`)."""
    allowed = symtensor.multisets(n, degree)[:, -1] <= top
    if strict:
        allowed &= symtensor.strict(n, degree)
    pool = allowed.nonzero()[0]
    pool.setflags(write=False)
    return pool


def random_fock_vector(rng: np.random.Generator, grid: TimeGrid, truncation: int, strict: bool = False) -> FockVector:
    comps = [random_sym_coeffs(rng, grid, d, strict=strict) for d in range(truncation + 1)]
    return FockVector(grid, tuple(comps))


def random_adapted_process(
    rng: np.random.Generator,
    grid: TimeGrid,
    truncation: int,
    max_degree: int,
    off_diagonal: bool = True,
) -> FockStepProcess:
    """Adapted step process: the value on cell k is supported on cells < k."""
    values = []
    for k in range(1, grid.n + 1):
        comps = [symtensor.scalar(grid, complex(random_complex(rng)))]
        for d in range(1, truncation + 1):
            if d <= max_degree and k > 1:
                comps.append(
                    random_sym_coeffs(rng, grid, d, max_cell=k - 1, strict=off_diagonal)
                )
            else:
                comps.append(symtensor.zero(grid, d))
        values.append(FockVector(grid, tuple(comps)))
    return FockStepProcess(grid, tuple(values))


def random_predictable(rng: np.random.Generator, space) -> list:
    """Predictable integrands: the value on cell k is conditioned on k-1."""
    from .bernoulli import RandomVariable, cond_expect

    out = []
    for k in range(1, space.n + 1):
        raw = RandomVariable(space, random_complex(rng, space.size))
        out.append(cond_expect(raw, k - 1))
    return out
