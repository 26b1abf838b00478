"""Seeded Monte Carlo path ensembles and iterated-integral estimators.

Determinism contract: path p owns a 64-bit SplitMix64 stream.  Its seed is
the SplitMix64 finalizer of (master seed + (p+1)*golden), and its word j
(j >= 1) the finalizer of (path seed + j*golden).  Brownian cell k is drawn
from words 2k-1 and 2k by Box-Muller, Poisson cell k from word k by inverse
CDF.

Block layout: the generators fill the (paths x cells) increment array in
consecutive blocks of whole rows.  A block's scratch arrays (raw words,
shift scratch and uniforms) together hold about _BLOCK_DOUBLES values, and
each block is computed in place and written straight into its rows.  Path
p depends only on (seed, p), whatever the block it falls in, so an ensemble
is bit-identical for a fixed seed regardless of block size, ensemble size,
or the numpy version's own generator internals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from . import symtensor
from .symtensor import SymCoeffs, norm2 as sym_norm2

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: path blocks keep their working set near this many doubles (1 MiB), so it
#: stays in a core's L2 cache: all scratch arrays together in the ensemble
#: generators, each temporary in iterated_samples
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


def path_seeds(master_seed: int, paths: int) -> np.ndarray:
    """One derived 64-bit seed per path index 0..paths-1."""
    return _seeds(master_seed, 0, paths)


def _seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The derived seeds of path indices start..stop-1."""
    master = np.array([master_seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    seeds = np.empty((1, stop - start), dtype=np.uint64)
    _splitmix_block(master, np.arange(start + 1, stop + 1, dtype=np.uint64) * _GOLDEN, seeds, np.empty_like(seeds))
    return seeds[0]


def _uniform_blocks(seed: int, paths: int, ctrs: tuple[np.ndarray, ...]):
    """Yield (rows, uniforms) for consecutive blocks of paths: rows is the
    block's slice of the ensemble, and uniforms[i][p, k] the uniform of word
    j of path rows.start + p's stream, where ctrs[i][k] = j*golden.

    The two uint64 scratch arrays and the uniforms hold about _BLOCK_DOUBLES
    values together; the next block overwrites the uniforms."""
    n = len(ctrs[0])
    block = min(paths, max(1, _BLOCK_DOUBLES // ((2 + len(ctrs)) * n)))
    bits = np.empty((block, n), dtype=np.uint64)
    tmp = np.empty_like(bits)
    uniforms = np.empty((len(ctrs), block, n))
    for start in range(0, paths, block):
        rows = slice(start, min(start + block, paths))
        seeds = _seeds(seed, rows.start, rows.stop)
        m = len(seeds)
        for ctr, u in zip(ctrs, uniforms):
            _splitmix_block(seeds, ctr, bits[:m], tmp[:m], u[:m])
        yield rows, uniforms[:, :m]


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Independent martingale increments, one row per path, one column per cell."""

    grid: TimeGrid
    increments: np.ndarray

    @property
    def paths(self) -> int:
        return self.increments.shape[0]

    def terminal(self) -> np.ndarray:
        return self.increments.sum(axis=1)


def brownian_ensemble(grid: TimeGrid, paths: int, seed: int) -> PathEnsemble:
    """Gaussian increments with variance equal to the cell lengths: cell k
    is sqrt(-2 log u1) * cos(2 pi u2) * sqrt(len_k), with u1 and u2 the
    uniforms of words 2k-1 and 2k of the path's stream."""
    if paths < 1:
        raise ValueError("need at least one path")
    n = grid.n
    ctr = np.arange(1, 2 * n + 1, dtype=np.uint64) * _GOLDEN
    scale = np.sqrt(np.asarray(grid.lengths))
    inc = np.empty((paths, n))
    for rows, (r, c) in _uniform_blocks(seed, paths, (ctr[0::2], ctr[1::2])):
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        c *= 2.0 * np.pi
        np.cos(c, out=c)
        r *= c
        np.multiply(r, scale, out=inc[rows])
    return PathEnsemble(grid, inc)


def poisson_ensemble(grid: TimeGrid, paths: int, seed: int, intensity: float = 1.0) -> PathEnsemble:
    """Compensated Poisson increments (N_k - rate*len_k) / sqrt(rate).

    N_k is the inverse CDF of the uniform u of word k of the path's stream:
    #{i < cap : u > cdf_i}.  The table is nondecreasing, so a block counts
    level by level, straight into its rows, until no uniform exceeds the
    level.  A per-cell mean above about 708.4 is refused: exp(-mean), the first
    table entry, would fall below the smallest normal double and the table
    would lose its precision or underflow to 0."""
    if paths < 1:
        raise ValueError("need at least one path")
    if not 0.0 < intensity < np.inf:
        raise ValueError("intensity must be positive and finite")
    n = grid.n
    means = intensity * np.asarray(grid.lengths)
    pmf = np.exp(-means)
    if pmf.min() < np.finfo(float).tiny:
        raise ValueError(
            f"per-cell Poisson mean intensity * cell length = {means.max():g} is above about 708.4: "
            "exp(-mean) underflows"
        )
    cap = int(np.ceil(means.max() + 40.0 * np.sqrt(means.max()) + 30.0))
    # cdf[i] = P(N <= i) per cell, by pmf_i = pmf_{i-1} * (means / i)
    cdf = np.empty((cap, n))
    cdf[0] = pmf
    for i in range(1, cap):
        pmf = pmf * (means / i)
        cdf[i] = cdf[i - 1] + pmf
    root = np.sqrt(intensity)
    inc = np.empty((paths, n))
    for rows, (u,) in _uniform_blocks(seed, paths, (np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN,)):
        count = inc[rows]
        count[...] = 0.0
        for level in cdf:
            above = u > level
            if not above.any():
                break
            count += above
        count -= means
        count /= root
    return PathEnsemble(grid, inc)


def iterated_samples(coeffs: SymCoeffs, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path discrete iterated integral:
    d! * sum over strict multisets {c_1<...<c_d} of v * prod_i dB_{c_i}.

    Diagonal entries of `coeffs` (repeated cells) do not enter the sum.  The
    sum is evaluated as the Ito recursion I_d(f) = d * sum_k I_{d-1}(f(., k)
    1_{<k}) dB_k: each strict multiset splits into a prefix (c_1..c_{d-1})
    and a last cell c_d, the coefficients are scattered once into a
    (prefixes x last cells) matrix C, and per path

        out_p = sum_prefix prefprod[prefix, p] * (C @ dB[lasts, p])[prefix]

    with prefprod the product of the prefix's increments (1 for the empty
    prefix of degree 1).  Prefix products are built level by level over the
    prefix tree, one gather per node, so a shared prefix is multiplied once
    rather than once per term.  Paths go in blocks that keep every temporary
    near _BLOCK_DOUBLES doubles, so memory does not grow with the ensemble;
    each output depends only on its own path's increments, whatever the
    block it falls in.
    """
    from math import factorial

    if coeffs.grid != ensemble.grid:
        raise ValueError("coefficients and ensemble use different grids")
    d = coeffs.degree
    fac = factorial(d)
    if d == 0:
        value = fac * coeffs[()]
        return np.full(ensemble.paths, value, dtype=complex)
    ranks = coeffs.stored()
    ranks = ranks[symtensor.strict(coeffs.grid.n, d)[ranks]]
    if not len(ranks):
        return np.zeros(ensemble.paths, dtype=complex)

    cells = symtensor.multisets(coeffs.grid.n, d)[ranks] - 1
    vals = fac * coeffs.vector[ranks]
    inc = ensemble.increments
    prefixes, prefix_of = np.unique(cells[:, :-1], axis=0, return_inverse=True)
    lasts, last_of = np.unique(cells[:, -1], return_inverse=True)
    npre = len(prefixes)
    coef = np.zeros((2 * npre, len(lasts)))  # Re C stacked over Im C
    coef[prefix_of, last_of] = vals.real
    coef[npre + prefix_of, last_of] = vals.imag

    # prefix tree below the empty prefix (product 1), one level per step:
    # each node's parent on the level above and the cell it adds
    steps = []
    nodes = prefixes
    while nodes.shape[1] > 0:
        parents, parent_of = np.unique(nodes[:, :-1], axis=0, return_inverse=True)
        steps.append((parent_of, nodes[:, -1]))
        nodes = parents
    steps.reverse()

    # cells x paths layout: every gather below copies contiguous rows
    out = np.empty(ensemble.paths, dtype=complex)
    block = max(1, _BLOCK_DOUBLES // max(inc.shape[1], *coef.shape))
    for start in range(0, ensemble.paths, block):
        cols = inc[start : start + block].T.copy()
        prefprod = np.ones((1, cols.shape[1]))
        for parent_of, cell in steps:
            prefprod = prefprod[parent_of] * cols[cell]
        tail = (coef @ cols[lasts]).reshape(2, npre, -1)
        tail *= prefprod
        part = tail.sum(axis=1)
        out[start : start + block] = part[0] + 1j * part[1]
    return out


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


def hermite_reference(g: SymCoeffs, order: int, ensemble: PathEnsemble) -> np.ndarray:
    """Closed-form sample of the order-d iterated integral of g^(x d):
    ||g||^d * He_d(W(g)/||g||), with W(g) = sum_c g_c dB_c per path.

    Needs a real degree-1 g; this is the independent reference the discrete
    sums are checked against.
    """
    if g.degree != 1:
        raise ValueError("reference needs a degree-1 integrand")
    if np.any(g.vector.imag != 0):
        raise ValueError("reference needs a real-valued integrand")
    gnorm = float(np.sqrt(sym_norm2(g)))
    if gnorm == 0.0:
        return np.zeros(ensemble.paths)
    w = linear_samples(g, ensemble).real
    return gnorm ** order * hermite_polynomial(order, w / gnorm)


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


def export_csv(ensemble: PathEnsemble, path) -> None:
    """Write the ensemble as rows (path, cell, increment), in the bytes of a
    csv.writer: comma-separated, CRLF-terminated, floats in repr form."""
    cells = [f",{k}," for k in range(1, ensemble.grid.n + 1)]
    with open(path, "w", newline="") as handle:
        handle.write("path,cell,increment\r\n")
        for p, row in enumerate(ensemble.increments.tolist()):
            prefix = str(p)
            handle.write("".join([prefix + cell + repr(v) + "\r\n" for cell, v in zip(cells, row)]))


def mean_and_stderr(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean (real part)."""
    x = np.asarray(samples)
    if np.iscomplexobj(x):
        x = x.real
    if len(x) < 2:
        raise ValueError("a standard error needs at least two samples")
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x)))
