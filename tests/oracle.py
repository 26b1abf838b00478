"""Brute-force ordered-tensor oracle.

A degree-d function is held as a full n^d array of block values.  Products,
symmetrization, and integrals are computed by direct enumeration over ordered
tuples and permutations, independently of the sparse multiset implementation
under test.  The Monte Carlo path ensembles have a whole-array reference too,
their CSV export a csv.writer one, and the Wick, measurability and Bernoulli
kernels a straightforward one, at the end of this module.
"""

from __future__ import annotations

import csv
from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from math import comb, cos, factorial, log, pi, prod, sqrt

import numpy as np

from stochint.bernoulli import BernoulliSpace, RandomVariable
from stochint.errors import TruncationOverflowError
from stochint.fock import FockVector, cell_increment
from stochint.fock_ito import FockStepProcess
from stochint.grid import TimeGrid
from stochint.operator_integral import COMMUTE_TOL, DEGENERATE_TOL, NORM_RTOL, VectorMartingale
from stochint.symtensor import SymCoeffs, block_weights, pair_products, size, zero


def sym_coeffs(grid: TimeGrid, d: int, mapping: dict) -> SymCoeffs:
    """The degree-d SymCoeffs whose entry at each sorted key of `mapping`
    sums that key's values; keys are placed by their position in
    combinations_with_replacement order, not by the library's ranking."""
    position = {ms: i for i, ms in enumerate(combinations_with_replacement(range(1, grid.n + 1), d))}
    vec = np.zeros(len(position), dtype=complex)
    for key, val in mapping.items():
        vec[position[tuple(sorted(key))]] += val
    return SymCoeffs(grid, d, vec)


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


def _splitmix_int(z: int) -> int:
    """The SplitMix64 finalizer in Python integers, mod 2^64."""
    z &= 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def strict_coeffs(grid: TimeGrid, degree: int, entries: int, seed: int) -> SymCoeffs:
    """Word by word on stream 0 (its seed the mixed master seed, its word j
    the mixed stream seed + j*golden): each entry's distinct cells, a
    repeated multiset skipped, or every strict multiset when there are at
    most `entries`; then per pick a Box-Muller real and imaginary part."""
    n = grid.n
    stream = _splitmix_int(seed)
    j = 0

    def word() -> int:
        nonlocal j
        j += 1
        return _splitmix_int(stream + j * int(_GOLDEN))

    if comb(n, degree) <= entries:
        keys = [key for key in combinations_with_replacement(range(1, n + 1), degree) if len(set(key)) == degree]
    else:
        keys = []
        while len(keys) < entries:
            cells = []
            while len(cells) < degree:
                cell = (word() >> 11) * n // 2**53 + 1
                if cell not in cells:
                    cells.append(cell)
            if tuple(sorted(cells)) not in keys:
                keys.append(tuple(sorted(cells)))

    def normal() -> float:
        u1 = ((word() >> 11) + 1) / 2**53
        u2 = ((word() >> 11) + 1) / 2**53
        return sqrt(-2.0 * log(u1)) * cos(2.0 * pi * u2)

    mapping = {}
    for key in keys:
        re = normal()
        mapping[key] = complex(re, normal())
    return sym_coeffs(grid, degree, mapping)


def export_csv(increments: np.ndarray, path) -> None:
    """A (paths x cells) increment array as csv.writer rows (path, cell,
    increment), one row per (path, cell), paths numbered from 0."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["path", "cell", "increment"])
        for p, row in enumerate(increments):
            for k, value in enumerate(row, start=1):
                writer.writerow([p, k, repr(float(value))])


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
    return sym_coeffs(f.grid, p + q, out)


def _add(x: SymCoeffs, y: SymCoeffs) -> SymCoeffs:
    merged = dict(x.values)
    for key, val in y.values.items():
        merged[key] = merged.get(key, 0.0 + 0.0j) + val
    return sym_coeffs(x.grid, x.degree, merged)


def wick(f: FockVector, g: FockVector) -> FockVector:
    out_trunc = max(f.truncation, g.truncation)
    comps = []
    for n in range(f.truncation + g.truncation + 1):
        acc = zero(f.grid, n)
        for m in range(max(0, n - g.truncation), min(n, f.truncation) + 1):
            fm, gn = f.components[m], g.components[n - m]
            if fm.is_zero() or gn.is_zero():
                continue
            acc = _add(acc, sym_tensor(fm, gn))
        if n <= out_trunc:
            comps.append(acc)
        elif not acc.is_zero():
            raise TruncationOverflowError(n)
    return FockVector(f.grid, tuple(comps))


def ito_wick(proc: FockStepProcess) -> FockVector:
    grid = proc.grid
    acc = [zero(grid, d) for d in range(max(proc.truncation, 1) + 1)]
    for k in range(1, grid.n + 1):
        term = wick(proc.value(k), cell_increment(grid, k))
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


def frame_parts(frame: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """P_0..P_n of an orthonormal frame whose column i lies in part
    labels[i], multiplied out: P_g is the sum of v v^H over the columns v
    labelled g."""
    parts = []
    for g in range(n + 1):
        cols = frame[:, labels == g]
        parts.append(cols @ cols.conj().T)
    return np.array(parts)


def dense_parts(measure) -> np.ndarray:
    """P_0..P_n as dense matrices, built here rather than through the
    measure's ``project``.  A ProjectorMeasure's are its frame multiplied
    out, the 0/1 diagonals of its labels when it has no frame.  The sign
    space's are P_k = E_k - E_{k-1} (P_0 = E_0): E_k averages over the
    points that share the first k coordinates, the low k bits of the point
    index, so with m = 2^(n-k) such points it is the Kronecker product of
    the constant m x m matrix 1/m with I_{2^k}."""
    if isinstance(measure, BernoulliSpace):
        n, cond = measure.n, []
        for k in range(n + 1):
            m = 1 << (n - k)
            cond.append(np.kron(np.full((m, m), 1.0 / m), np.eye(1 << k)))
        return np.array([cond[0], *(cond[k] - cond[k - 1] for k in range(1, n + 1))], dtype=complex)
    frame = np.eye(measure.dim, dtype=complex) if measure.frame is None else measure.frame
    return frame_parts(frame, measure.labels, measure.grid.n)


def input_file(mart: VectorMartingale, proc) -> dict:
    """The ``--input`` layout of the README's "Wire formats" for a martingale
    and a process of dense matrices, the projections written as the
    :func:`dense_parts` of the measure: the library has no writer."""
    pairs = lambda a: np.stack([a.real, a.imag], axis=-1).tolist()
    atom, *cells = map(pairs, dense_parts(mart.measure))
    measure = {"boundaries": list(mart.grid.boundaries), "dim": mart.dim, "atom": atom, "cells": cells}
    return {
        "martingale": {"measure": measure, "vector": pairs(mart.vector)},
        "process": {"boundaries": list(proc.grid.boundaries), "operators": [pairs(a) for a in proc.operators]},
    }


def measurability_deviations(a: np.ndarray, mart: VectorMartingale, j: int) -> tuple[list, float, float]:
    """(restricted norms, norm deviation, commutator deviation) at boundary j < n."""
    n = mart.grid.n
    norms = []
    for l in range(j, n):
        basis_l = future_increment_span(mart, l)
        if basis_l.shape[1]:
            norms.append(float(np.linalg.norm(a @ basis_l, 2)))
    basis = future_increment_span(mart, j)
    parts = dense_parts(mart.measure)
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


def _span_image(a, mart: VectorMartingale, j: int) -> tuple[np.ndarray, np.ndarray]:
    basis = future_increment_span(mart, j)
    return a @ basis, mart.span_cells[len(mart.span_cells) - basis.shape[1] :]


def batched_restricted_norms(a, mart: VectorMartingale, j: int) -> list:
    """The restricted norms at boundaries l = j..n-1 with a nonempty span,
    from one batched SVD of a (boundaries x dim x span) array: the image of
    the span at j, masked to the columns of each later span."""
    image, cells = _span_image(a, mart, j)
    spans = cells > np.arange(j, mart.grid.n)[:, None]
    spans = spans[spans.any(axis=1)]
    return np.linalg.svd(image * spans[:, None, :], compute_uv=False).max(axis=1).tolist() if len(spans) else []


def boundary_loop(a, mart: VectorMartingale, j: int) -> tuple[list, float]:
    """(restricted norms, commutator deviation) at boundary j from one loop
    over the boundaries l = n-1..j: the norm at l is the largest singular
    value of the columns of its own span, a suffix of the image of the span
    at j, and max ||A E_l g - E_l A g|| over that span takes the same pass,
    E_l A g built down from E_n = I."""
    image, cells = _span_image(a, mart, j)
    norms, comm_dev, below = [], 0.0, image.copy()
    for l in range(mart.grid.n - 1, j - 1, -1):
        first = np.searchsorted(cells, l, side="right")
        if first < len(cells):
            norms.insert(0, float(np.linalg.svd(image[:, first:], compute_uv=False)[0]))
        below -= mart.measure.project(l + 1, image)
        comm_dev = max(comm_dev, float(np.linalg.norm(image * (cells <= l) - below, axis=0).max(initial=0.0)))
    return norms, comm_dev


def conditional_average(values: np.ndarray, n: int, k: int) -> np.ndarray:
    """bernoulli._average as it was before its 2-d form: coordinate i on
    axis n-i of a (2,)*n reshape, the axes of coordinates k+1..n averaged
    out in one mean and broadcast back."""
    if k == n:
        return values.copy()
    tensor = values.reshape((2,) * n + values.shape[1:])
    avg = tensor.mean(axis=tuple(range(n - k)), keepdims=True)
    return np.broadcast_to(avg, tensor.shape).reshape(values.shape).copy()


def multiplication_matrix(f: RandomVariable) -> np.ndarray:
    """Pointwise multiplication by f as the dense 2^n x 2^n diagonal matrix
    on the sample basis, the form of bernoulli.multiplication_operator
    before it kept the diagonal alone."""
    return np.diag(f.values)


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


def wick_operator_matrices(proc: FockStepProcess) -> list:
    """The cell operators of fock_ito.wick_operator_process as the dense
    dim x dim matrices it filled column by column before it kept triplets,
    frozen here as the reference for the triplet form."""
    grid = proc.grid
    n_trunc = proc.truncation
    sizes = [size(grid.n, d) for d in range(n_trunc + 1)]
    dim = sum(sizes)
    ranks = [np.arange(s) for s in sizes]
    starts = np.cumsum([0] + sizes)
    scales = np.sqrt(np.concatenate([factorial(d) * block_weights(grid, d, r) for d, r in enumerate(ranks)]))
    # column b of degree q holds the Wick product of value_k with the basis
    # indicator of the multiset of rank b, dropped above the truncation:
    # its degree-(m+q) part is value_k[m] (x) indicator
    operators = []
    for k in range(1, grid.n + 1):
        mat = np.zeros((dim, dim), dtype=complex)
        for m, comp in enumerate(proc.value(k).components[: n_trunc + 1]):
            if comp.is_zero():
                continue
            for q in range(n_trunc - m + 1):
                unit = np.ones(len(ranks[q]), dtype=complex)
                gamma, values = pair_products(comp, q, ranks[q], unit)
                rows, cols = starts[m + q] + gamma, starts[q] + ranks[q]
                mat[rows, cols] = values * scales[rows] / scales[cols]
        operators.append(mat)
    return operators
