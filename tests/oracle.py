"""Brute-force ordered-tensor oracle.

A degree-d function is held as a full n^d array of block values.  Products,
symmetrization, and integrals are computed by direct enumeration over ordered
tuples and permutations, independently of the sparse multiset implementation
under test.  The Monte Carlo path ensembles have a whole-array reference too,
at the end of this module.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from stochint.grid import TimeGrid
from stochint.symtensor import SymCoeffs


def dense_from_sym(f: SymCoeffs) -> np.ndarray:
    """Expand multiset storage to the full ordered array."""
    n = f.grid.n
    out = np.zeros((n,) * f.degree, dtype=complex)
    if f.degree == 0:
        return np.array(f[()], dtype=complex)
    for idx in product(range(n), repeat=f.degree):
        out[idx] = f[tuple(i + 1 for i in idx)]
    return out


def dense_inner(grid: TimeGrid, a: np.ndarray, b: np.ndarray) -> complex:
    """Integral of conj(a)*b over [0,T]^d by summing block volumes."""
    if a.ndim == 0:
        return complex(np.conj(a) * b)
    lengths = np.asarray(grid.lengths)
    vol = np.ones_like(a, dtype=float)
    for axis in range(a.ndim):
        shape = [1] * a.ndim
        shape[axis] = len(lengths)
        vol = vol * lengths.reshape(shape)
    return complex(np.sum(np.conj(a) * b * vol))


def dense_sym_tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ordered tensor product averaged over all permutations of the slots."""
    prod_ab = np.multiply.outer(a, b)
    d = prod_ab.ndim
    if d == 0:
        return prod_ab
    out = np.zeros_like(prod_ab)
    for perm in permutations(range(d)):
        out += np.transpose(prod_ab, perm)
    return out / _fact(d)


def _fact(d: int) -> int:
    out = 1
    for i in range(2, d + 1):
        out *= i
    return out


def dense_symmetrize_insert(per_cell: list[np.ndarray]) -> np.ndarray:
    """(1/d) sum_k u^(cell of slot k) evaluated on the remaining slots."""
    n = len(per_cell)
    base = per_cell[0].ndim
    d = base + 1
    out = np.zeros((n,) * d, dtype=complex)
    for idx in product(range(n), repeat=d):
        acc = 0.0 + 0.0j
        for slot in range(d):
            rest = idx[:slot] + idx[slot + 1 :]
            u = per_cell[idx[slot]]
            acc += u[rest] if base else complex(u)
        out[idx] = acc / d
    return out


# --------------------------------------------------------------------------
# Reference path ensembles: whole-array SplitMix64 streams, Box-Muller and the
# masked inverse-CDF loop, evaluated over all paths at once.  The blocked
# generators in stochint.montecarlo must reproduce these bit for bit.
# --------------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def path_seeds(seed: int, paths: int) -> np.ndarray:
    """Seed of path p: the master seed + (p+1)*golden, mixed."""
    idx = np.arange(1, paths + 1, dtype=np.uint64)
    return _splitmix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN)


def _stream(seed: int, paths: int, count: int) -> np.ndarray:
    """(paths, count) raw words: word j of path p mixes its seed + (j+1)*golden."""
    seeds = path_seeds(seed, paths)
    ctr = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    return _splitmix(seeds[:, None] + ctr[None, :])


def _uniform(bits: np.ndarray) -> np.ndarray:
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53


def brownian_increments(grid: TimeGrid, paths: int, seed: int) -> np.ndarray:
    """Box-Muller on words 2k and 2k+1 of each path's stream, times sqrt(len_k)."""
    bits = _stream(seed, paths, 2 * grid.n)
    u1 = _uniform(bits[:, 0::2])
    u2 = _uniform(bits[:, 1::2])
    normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return normals * np.sqrt(np.asarray(grid.lengths))


def poisson_increments(grid: TimeGrid, paths: int, seed: int, intensity: float) -> np.ndarray:
    """Inverse-CDF Poisson counts from word k of each path's stream, compensated."""
    n = grid.n
    means = intensity * np.asarray(grid.lengths)
    u = _uniform(_stream(seed, paths, n))
    counts = np.zeros((paths, n), dtype=np.int64)
    pmf = np.broadcast_to(np.exp(-means), (paths, n)).copy()
    cdf = pmf.copy()
    cap = int(np.ceil(means.max() + 40.0 * np.sqrt(means.max()) + 30.0))
    for j in range(1, cap + 1):
        unresolved = u > cdf
        if not unresolved.any():
            break
        counts[unresolved] += 1
        pmf = pmf * (means / j)
        cdf = cdf + pmf
    return (counts - means) / np.sqrt(intensity)
