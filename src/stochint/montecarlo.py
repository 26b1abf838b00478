"""Seeded Monte Carlo path ensembles and iterated-integral estimators.

Determinism contract: path p owns a 64-bit SplitMix64 stream.  Its seed is
the SplitMix64 finalizer of (master seed + (p+1)*golden), and its word j
(j >= 1) the finalizer of (path seed + j*golden).  Brownian cell k is drawn
from words 2k-1 and 2k by Box-Muller, Poisson cell k from word k by inverse
CDF.  Stream 0, whose seed is the finalizer of the master seed itself,
belongs to no path: `random_strict_coeffs` draws the Monte Carlo suite's
off-diagonal integrand from it, so the suite needs no numpy.random.

Path ranges: `brownian_ensemble(grid, m, seed, start=s)` (and the Poisson
generator alike) draws paths s..s+m-1 of the seed's ensemble, bit for bit
rows s..s+m-1 of the ensemble that starts at path 0, so a caller can stream
any number of paths through blocks of fixed size (the Monte Carlo suite
does).  The block remembers its first path index in `PathEnsemble.start`.

Block layout: the generators fill the (paths x cells) increment array in
consecutive blocks of whole rows.  A block's scratch arrays (raw words,
shift scratch and uniforms) together hold about _BLOCK_DOUBLES values, and
each block is computed in place and written straight into its rows.  Path
p depends only on (seed, p), whatever the block it falls in, so on one numpy
build and CPU an ensemble is bit-identical for a fixed seed regardless of
block size, ensemble size, or the numpy version's own generator internals.
Across CPUs the Brownian bits may differ in the last place: numpy dispatches
np.log and np.cos to SIMD kernels by CPU feature, and its AVX-512 and AVX2
kernels round differently (README, Determinism).  random_strict_coeffs uses
math.log and math.cos, so it does not depend on numpy's dispatch.
"""

from __future__ import annotations

import itertools
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RefusalError
from .grid import TimeGrid
from . import symtensor
from .symtensor import SymCoeffs, norm2 as sym_norm2

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: path blocks keep their working set near this many doubles (1 MiB), so it stays in a
#: core's L2 cache: generator scratch, iterated_samples' arrays, a block of suites.mc_suite
_BLOCK_DOUBLES = 1 << 17


def _splitmix_block(seeds: np.ndarray, ctr: np.ndarray, bits: np.ndarray, tmp: np.ndarray, out=None) -> None:
    """SplitMix64 finalizer of seeds[:, None] + ctr, in place in the uint64
    array bits (wrapping arithmetic; tmp is uint64 scratch of the same shape).
    With out, the words are also mapped to doubles in (0, 1] there."""
    np.add(seeds[:, None], ctr, out=bits)
    for shift, mix in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(bits, shift, out=tmp)
        bits ^= tmp
        bits *= mix
    np.right_shift(bits, 31, out=tmp)
    bits ^= tmp
    if out is not None:
        np.right_shift(bits, 11, out=bits)
        out[...] = bits
        out += 1.0
        out *= 2.0 ** -53


def _seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The derived seeds of path indices start..stop-1 (index -1 gives the
    seed of stream 0, which belongs to no path)."""
    master = np.array([master_seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    seeds = np.empty((1, stop - start), dtype=np.uint64)
    _splitmix_block(master, np.arange(start + 1, stop + 1, dtype=np.uint64) * _GOLDEN, seeds, np.empty_like(seeds))
    return seeds[0]


def _stream_words(master_seed: int):
    """Words 1, 2, ... of stream 0 of the master seed, the stream that
    belongs to no path, as Python ints: the stream's seed is the finalizer
    of the master seed (index 0), and its words are made as for paths."""
    stream = _seeds(master_seed, -1, 0)
    bits = np.empty((1, 64), dtype=np.uint64)
    for first in itertools.count(1, 64):
        _splitmix_block(stream, np.arange(first, first + 64, dtype=np.uint64) * _GOLDEN, bits, np.empty_like(bits))
        yield from bits[0].tolist()


def random_strict_coeffs(grid: TimeGrid, degree: int, entries: int, seed: int) -> SymCoeffs:
    """A random degree-d function with min(entries, C(n, d)) nonzero
    entries, all on strict multisets (no repeated cell), drawn from stream 0
    of the seed in O(entries) work, without numpy.random.

    Each entry takes its cells 1 + floor((w >> 11) * n / 2^53) from
    successive words w: a cell that repeats in the entry is drawn again, and
    so is the whole entry when its multiset was picked before.  When
    C(n, d) <= entries, every strict multiset is taken, in rank order.  The
    values follow in pick order, each a complex standard normal whose real
    and imaginary parts are sqrt(-2 log u1) * cos(2 pi u2) of the uniforms
    in (0, 1] of the next two words, as in brownian_ensemble.  A degree-d
    vector over the size limit raises RefusalError before anything is
    drawn."""
    n = grid.n
    vector = np.zeros(symtensor.size(n, degree), dtype=complex)
    words = _stream_words(seed)
    if math.comb(n, degree) <= entries:
        picks = list(itertools.combinations(range(1, n + 1), degree))
    else:
        chosen = {}  # insertion-ordered set of the sorted picks
        while len(chosen) < entries:
            cells = set()
            while len(cells) < degree:
                cells.add(1 + ((next(words) >> 11) * n >> 53))
            chosen[tuple(sorted(cells))] = None
        picks = list(chosen)

    def normal() -> float:
        u1, u2 = (((next(words) >> 11) + 1) * 2.0**-53 for _ in range(2))
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    for multiset in picks:
        vector[symtensor._rank_of(n, multiset)] = complex(normal(), normal())
    return SymCoeffs(grid, degree, vector)


def _uniform_blocks(seed: int, paths: int, start: int, ctrs: tuple[np.ndarray, ...]):
    """Yield (rows, uniforms) for consecutive blocks of the paths start..
    start+paths-1: rows is the block's slice of the output, and
    uniforms[i][p, k] the uniform of word j of path start + rows.start + p's
    stream, where ctrs[i][k] = j*golden.

    The two uint64 scratch arrays and the uniforms hold about _BLOCK_DOUBLES
    values together; the next block overwrites the uniforms."""
    n = len(ctrs[0])
    block = min(paths, max(1, _BLOCK_DOUBLES // ((2 + len(ctrs)) * n)))
    bits = np.empty((block, n), dtype=np.uint64)
    tmp = np.empty_like(bits)
    uniforms = np.empty((len(ctrs), block, n))
    for first in range(0, paths, block):
        rows = slice(first, min(first + block, paths))
        seeds = _seeds(seed, start + rows.start, start + rows.stop)
        m = len(seeds)
        for ctr, u in zip(ctrs, uniforms):
            _splitmix_block(seeds, ctr, bits[:m], tmp[:m], u[:m])
        yield rows, uniforms[:, :m]


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Independent martingale increments, one row per path, one column per
    cell; row i holds path start + i of the seed's ensemble."""

    grid: TimeGrid
    increments: np.ndarray
    start: int = 0

    @property
    def paths(self) -> int:
        return self.increments.shape[0]

    def terminal(self) -> np.ndarray:
        return self.increments.sum(axis=1)


def _check_range(paths: int, start: int) -> None:
    if paths < 1:
        raise ValueError("need at least one path")
    if start < 0:
        raise ValueError("the first path index must be non-negative")


def brownian_ensemble(grid: TimeGrid, paths: int, seed: int, start: int = 0) -> PathEnsemble:
    """Gaussian increments with variance equal to the cell lengths, for the
    paths start..start+paths-1: cell k is sqrt(-2 log u1) * cos(2 pi u2) *
    sqrt(len_k), with u1 and u2 the uniforms of words 2k-1 and 2k of the
    path's stream."""
    _check_range(paths, start)
    n = grid.n
    ctr = np.arange(1, 2 * n + 1, dtype=np.uint64) * _GOLDEN
    scale = np.sqrt(np.asarray(grid.lengths))
    inc = np.empty((paths, n))
    for rows, (r, c) in _uniform_blocks(seed, paths, start, (ctr[0::2], ctr[1::2])):
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        c *= 2.0 * np.pi
        np.cos(c, out=c)
        r *= c
        np.multiply(r, scale, out=inc[rows])
    return PathEnsemble(grid, inc, start)


@lru_cache(maxsize=8)
def _poisson_table(grid: TimeGrid, intensity: float) -> tuple[np.ndarray, np.ndarray]:
    """(means, cdf), read-only: the per-cell means intensity * len_k and
    cdf[i] = P(N <= i) per cell, for i below a cap some 40 standard
    deviations past the largest mean.  Cached, so a stream of blocks on one
    grid builds the table once."""
    if not 0.0 < intensity < np.inf:
        raise ValueError("intensity must be positive and finite")
    means = intensity * np.asarray(grid.lengths)
    pmf = np.exp(-means)
    if pmf.min() < np.finfo(float).tiny:
        raise RefusalError(
            f"per-cell Poisson mean intensity * cell length = {means.max():g} is above about 708.4: "
            "exp(-mean) underflows"
        )
    cap = int(np.ceil(means.max() + 40.0 * np.sqrt(means.max()) + 30.0))
    # pmf_i = pmf_{i-1} * (means / i)
    cdf = np.empty((cap, grid.n))
    cdf[0] = pmf
    for i in range(1, cap):
        pmf = pmf * (means / i)
        cdf[i] = cdf[i - 1] + pmf
    means.setflags(write=False)
    cdf.setflags(write=False)
    return means, cdf


def poisson_ensemble(grid: TimeGrid, paths: int, seed: int, intensity: float = 1.0, start: int = 0) -> PathEnsemble:
    """Compensated Poisson increments (N_k - rate*len_k) / sqrt(rate), for
    the paths start..start+paths-1.

    N_k is the inverse CDF of the uniform u of word k of the path's stream:
    #{i < cap : u > cdf_i}.  The table is nondecreasing, so a block counts
    level by level, straight into its rows, until no uniform exceeds the
    level.  A per-cell mean above about 708.4 is refused: exp(-mean), the first
    table entry, would fall below the smallest normal double and the table
    would lose its precision or underflow to 0."""
    _check_range(paths, start)
    means, cdf = _poisson_table(grid, float(intensity))
    n = grid.n
    root = np.sqrt(intensity)
    inc = np.empty((paths, n))
    for rows, (u,) in _uniform_blocks(seed, paths, start, (np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN,)):
        count = inc[rows]
        count[...] = 0.0
        for level in cdf:
            above = u > level
            if not above.any():
                break
            count += above
        count -= means
        count /= root
    return PathEnsemble(grid, inc, start)


def iterated_samples(coeffs: SymCoeffs, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path discrete iterated integral:
    d! * sum over strict multisets {c_1<...<c_d} of v * prod_i dB_{c_i}.

    Diagonal entries do not enter the sum.  Per block of paths, each strict
    term multiplies its rows c_1..c_d, in order, of the increments copied as
    (cells x paths) plus a row of ones (the empty product at degree 0); one
    matrix product with the (2 x terms) real-over-imaginary d! * v sums the
    terms.  Arrays stay near _BLOCK_DOUBLES doubles; no output depends on its block.
    """
    coeffs.grid.check_same(ensemble.grid)
    n, d = coeffs.grid.n, coeffs.degree
    ranks = coeffs.stored()
    ranks = ranks[symtensor.strict(n, d)[ranks]]
    cells = symtensor.multisets(n, d)[ranks] - 1
    first = cells.min(axis=1, initial=n)  # c_1, or row n of ones at degree 0
    vals = math.factorial(d) * coeffs.vector[ranks]
    coef = np.stack([vals.real, vals.imag])
    out = np.empty(ensemble.paths, dtype=complex)
    block = max(1, _BLOCK_DOUBLES // max(n, len(cells)))
    for start in range(0, ensemble.paths, block):
        rows = ensemble.increments[start : start + block]
        cols = np.ones((n + 1, len(rows)))
        cols[:n] = rows.T
        prod = cols[first]
        for c in cells.T[1:]:
            prod *= cols[c]
        part = coef @ prod
        out[start : start + block] = part[0] + 1j * part[1]
    return out


def iterated_ones(ensemble: PathEnsemble, degree: int) -> np.ndarray:
    """Per-path iterated integrals of the constant 1 of every degree up to
    d, as a (d+1, paths) array whose row j is the sum
    iterated_samples(symtensor.ones(grid, j), ensemble) without its
    C(n+j-1, j) coefficient vector: j! * e_j(dB_1, ..., dB_n), with e_j the
    elementary symmetric polynomial of the path's increments.

    The e_j come from the recursion e_j += e_{j-1} * dB_k over the cells k
    (e_0 = 1, j from high to low), O(cells * d) per path, on a transposed
    (cells x paths) copy so that every step adds contiguous rows.  Each
    output depends only on its own path's increments."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    cols = ensemble.increments.T.copy()
    e = np.zeros((degree + 1, ensemble.paths))
    e[0] = 1.0
    term = np.empty(ensemble.paths)
    for k, x in enumerate(cols):
        for j in range(min(k + 1, degree), 0, -1):
            np.multiply(e[j - 1], x, out=term)
            e[j] += term
    e *= np.array([math.factorial(j) for j in range(degree + 1)], dtype=float)[:, None]
    return e


def hermite_polynomial(order: int, x: np.ndarray) -> np.ndarray:
    """Monic (probabilists') Hermite polynomial He_order evaluated elementwise."""
    if order < 0:
        raise ValueError("order must be non-negative")
    prev = np.ones_like(x)
    if order == 0:
        return prev
    cur = x.copy()
    for m in range(1, order):
        prev, cur = cur, x * cur - m * prev
    return cur


def hermite_reference(g: SymCoeffs, order: int, linear: np.ndarray) -> np.ndarray:
    """Closed-form sample of the order-d iterated integral of g^(x d):
    ||g||^d * He_d(W(g)/||g||), with `linear` the per-path W(g) = sum_c g_c
    dB_c (the real part of :func:`linear_samples`).

    Needs a real degree-1 g; this is the independent reference the discrete
    sums are checked against.
    """
    if g.degree != 1:
        raise ValueError("reference needs a degree-1 integrand")
    if np.any(g.vector.imag != 0):
        raise ValueError("reference needs a real-valued integrand")
    if order < 0:
        raise ValueError("order must be non-negative")
    gnorm = float(np.sqrt(sym_norm2(g)))
    if gnorm == 0.0:  # W(0) = 0: ||g||^0 He_0 = 1, and ||g||^d He_d(W(g)/||g||) -> 0 for d > 0
        return np.ones_like(linear) if order == 0 else np.zeros_like(linear)
    return gnorm ** order * hermite_polynomial(order, linear / gnorm)


def linear_samples(g: SymCoeffs, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path value of W(g) = sum_c g_c dB_c for a degree-1 integrand,
    from one matrix product of the dense real-over-imaginary (2 x cells)
    coefficients of g with the transposed increments (a view, so no column
    is gathered).

    The orientation sets the last bits: below about 1e6 multiply-adds
    OpenBLAS picks its kernel by operand layout, and increments @ coef.T
    rounds differently on small ensembles."""
    if g.degree != 1:
        raise ValueError("need a degree-1 integrand")
    coef = np.stack([g.vector.real, g.vector.imag])
    w = coef @ ensemble.increments.T
    return w[0] + 1j * w[1]


@contextmanager
def csv_writer(path):
    """Open `path` for an ensemble in CSV and yield a function that appends
    the rows (path, cell, increment) of one block, path numbered from the
    block's `start`.  The bytes are a csv.writer's: comma-separated,
    CRLF-terminated, floats in repr form.  When the export raises, a regular
    file at `path` is removed, so no truncated export is left behind; any
    other target (a pipe, a symlink such as /dev/fd/N) is left alone."""
    with open(path, "w", newline="") as handle:
        try:
            handle.write("path,cell,increment\r\n")

            def write(ensemble: PathEnsemble) -> None:
                cells = [f",{k}," for k in range(1, ensemble.grid.n + 1)]
                for p, row in enumerate(ensemble.increments.tolist(), ensemble.start):
                    prefix = str(p)
                    handle.write("".join([prefix + cell + repr(v) + "\r\n" for cell, v in zip(cells, row)]))

            yield write
        except BaseException:
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
            raise


@dataclass
class Moments:
    """Count, mean, sum of squared deviations from the mean (M2), minimum and
    maximum of a stream of real samples, added one block at a time.

    A block's own mean and M2 are numpy's (pairwise sums, as np.mean and
    np.var compute them), so one block gives np.mean and
    np.std(ddof=1) / sqrt(n) bit for bit; blocks merge by the pairwise
    update of Chan, Golub and LeVeque (1979)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    low: float = math.inf
    high: float = -math.inf

    def add(self, samples: np.ndarray) -> None:
        """Merge the real part of a 1-d block of samples."""
        x = np.asarray(samples)
        if np.iscomplexobj(x):
            x = x.real
        if len(x) == 0:
            return
        mean = float(x.mean())
        dev = x - mean
        dev *= dev
        self.merge(Moments(len(x), mean, float(dev.sum()), float(x.min()), float(x.max())))

    def merge(self, other: "Moments") -> None:
        """Merge the moments of another stream into these; an empty `other`
        changes nothing.  Merging the Moments of single blocks one after
        another gives the bits of adding the blocks in that order."""
        if other.count == 0:
            return
        if self.count == 0:
            self.mean, self.m2 = other.mean, other.m2
        else:
            n = other.count
            total = self.count + n
            delta = other.mean - self.mean
            self.mean += delta * n / total
            self.m2 += other.m2 + delta * delta * self.count * n / total
        self.count += other.count
        self.low = float(np.minimum(self.low, other.low))
        self.high = float(np.maximum(self.high, other.high))

    def stderr(self) -> float:
        """Standard error of the mean, sqrt(M2 / (count - 1) / count)."""
        if self.count < 2:
            raise ValueError("a standard error needs at least two samples")
        return math.sqrt(self.m2 / (self.count - 1)) / math.sqrt(self.count)
