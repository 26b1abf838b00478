"""Brute-force ordered-tensor oracle.

A degree-d function is held as a full n^d array of block values.  Products,
symmetrization, and integrals are computed by direct enumeration over ordered
tuples and permutations, independently of the sparse multiset implementation
under test.  The Monte Carlo path ensembles have a whole-array reference too,
and the Wick, measurability and Bernoulli kernels a straightforward one, at
the end of this module.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product
from math import comb, factorial, prod

import numpy as np

from stochint.bernoulli import BernoulliSpace, RandomVariable
from stochint.errors import TruncationOverflowError
from stochint.fock import FockVector, cell_increment
from stochint.fock_ito import FockStepProcess
from stochint.grid import TimeGrid
from stochint.operator_integral import COMMUTE_TOL, DEGENERATE_TOL, NORM_RTOL, VectorMartingale
from stochint.symtensor import SymCoeffs, zero


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


# --------------------------------------------------------------------------
# Reference kernels, written the plain way: the Wick product as a running
# SymCoeffs sum with Counter-based binomial weights, the Ito sum as a running
# sum of Fock vectors, the measurability check one column and one boundary
# at a time, and the Bernoulli increments rebuilt from the sign coordinates
# on every use.  The in-place, batched and cached kernels in stochint must
# reproduce their values bit for bit and their verdicts exactly.
# --------------------------------------------------------------------------


def sym_tensor(f: SymCoeffs, g: SymCoeffs) -> SymCoeffs:
    p, q = f.degree, g.degree
    total = comb(p + q, p)
    out: dict = {}
    for alpha, va in f.values.items():
        ca = Counter(alpha)
        for beta, vb in g.values.items():
            gamma = tuple(sorted(alpha + beta))
            cg = Counter(gamma)
            ways = prod(comb(cg[c], ca.get(c, 0)) for c in cg)
            out[gamma] = out.get(gamma, 0.0 + 0.0j) + va * vb * ways / total
    return SymCoeffs(f.grid, p + q, out)


def _add(x: SymCoeffs, y: SymCoeffs) -> SymCoeffs:
    merged = dict(x.values)
    for key, val in y.values.items():
        merged[key] = merged.get(key, 0.0 + 0.0j) + val
    return SymCoeffs(x.grid, x.degree, merged)


def wick(f: FockVector, g: FockVector, policy: str = "strict", truncation: int | None = None) -> FockVector:
    out_trunc = max(f.truncation, g.truncation) if truncation is None else truncation
    full = f.truncation + g.truncation
    comps = []
    for n in range(min(out_trunc, full) + 1):
        acc = zero(f.grid, n)
        for m in range(n + 1):
            if m > f.truncation or n - m > g.truncation:
                continue
            fm, gn = f.components[m], g.components[n - m]
            if fm.is_zero() or gn.is_zero():
                continue
            acc = _add(acc, sym_tensor(fm, gn))
        comps.append(acc)
    comps += [zero(f.grid, d) for d in range(len(comps), out_trunc + 1)]
    if policy == "strict":
        for n in range(out_trunc + 1, full + 1):
            acc = zero(f.grid, n)
            for m in range(max(0, n - g.truncation), min(n, f.truncation) + 1):
                fm, gn = f.components[m], g.components[n - m]
                if fm.is_zero() or gn.is_zero():
                    continue
                acc = _add(acc, sym_tensor(fm, gn))
            if not acc.is_zero():
                raise TruncationOverflowError(n)
    return FockVector(f.grid, tuple(comps))


def ito_wick(proc: FockStepProcess) -> FockVector:
    grid = proc.grid
    out_trunc = max(proc.truncation, 1)
    acc = [zero(grid, d) for d in range(out_trunc + 1)]
    for k in range(1, grid.n + 1):
        term = wick(proc.value(k), cell_increment(grid, k), "strict", out_trunc)
        acc = [_add(a, t) for a, t in zip(acc, term.components)]
    return FockVector(grid, tuple(acc))


def future_increment_span(mart: VectorMartingale, j: int) -> np.ndarray:
    cols = []
    for i in range(j + 1, mart.grid.n + 1):
        v = mart.increment(i)
        nv = np.linalg.norm(v)
        if nv >= DEGENERATE_TOL:
            cols.append(v / nv)
    if not cols:
        return np.zeros((mart.dim, 0), dtype=complex)
    return np.column_stack(cols)


def measurability_deviations(a: np.ndarray, mart: VectorMartingale, j: int) -> tuple[list, float, float]:
    """(restricted norms, norm deviation, commutator deviation) at boundary j < n."""
    n = mart.grid.n
    norms = []
    for l in range(j, n):
        basis_l = future_increment_span(mart, l)
        if basis_l.shape[1]:
            norms.append(float(np.linalg.norm(a @ basis_l, 2)))
    basis = future_increment_span(mart, j)
    parts = np.array([mart.measure.atom, *mart.measure.cells])
    comm_dev = 0.0
    for l in range(j, n + 1):
        e = parts[: l + 1].sum(axis=0)
        for g in basis.T:
            comm_dev = max(comm_dev, float(np.linalg.norm(a @ (e @ g) - e @ (a @ g))))
    return norms, max(norms, default=0.0) - min(norms, default=0.0), comm_dev


def is_measurable(a: np.ndarray, mart: VectorMartingale, j: int) -> bool:
    """Both deviations within their tolerance relative to the largest
    restricted norm, plus dim * eps * ||a||_F for round-off."""
    if j == mart.grid.n:
        return True
    norms, norm_dev, comm_dev = measurability_deviations(a, mart, j)
    ref = max(norms, default=0.0)
    roundoff = a.shape[0] * np.finfo(float).eps * np.linalg.norm(a)
    return bool(norm_dev <= NORM_RTOL * ref + roundoff and comm_dev <= COMMUTE_TOL * ref + roundoff)


def bernoulli_increment(space: BernoulliSpace, k: int) -> RandomVariable:
    return np.sqrt(space.grid.length(k)) * space.xi(k)


def chaos_map(f: FockVector, space: BernoulliSpace) -> RandomVariable:
    out = np.zeros(space.size, dtype=complex)
    for d in range(f.truncation + 1):
        for ms, v in f.components[d].values.items():
            w = np.full(space.size, factorial(d) * v)
            for c in ms:
                w = w * bernoulli_increment(space, c).values
            out += w
    return RandomVariable(space, out)


def classical_conditional_expectations(space: BernoulliSpace) -> list[np.ndarray]:
    """E_0..E_n of the sign space built column by column: column p of E_k is
    the conditional expectation of the p-th unit vector."""
    from stochint.bernoulli import cond_expect

    eye = np.eye(space.size, dtype=complex)
    return [
        np.column_stack([cond_expect(RandomVariable(space, eye[:, p]), k).values for p in range(space.size)])
        for k in range(space.n + 1)
    ]
