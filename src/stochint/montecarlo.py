"""Seeded Monte Carlo path ensembles and iterated-integral estimators.

Determinism contract: each path owns a 64-bit stream seeded by a SplitMix64
mix of (master seed, path index), and all draws are produced from that stream
by Box-Muller (normals) or inverse-CDF (Poisson).  Ensembles are therefore
bit-identical for a fixed seed regardless of execution order, batch size, or
the numpy version's own generator internals.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .symtensor import SymCoeffs, norm2 as sym_norm2

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: path blocks in iterated_samples keep each temporary near this many doubles
#: (1 MiB), so a block's working set stays in a core's L2 cache
_BLOCK_DOUBLES = 1 << 17


def _splitmix(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 (wrapping arithmetic)."""
    z = x.astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def path_seeds(master_seed: int, paths: int) -> np.ndarray:
    """One derived 64-bit seed per path index 0..paths-1."""
    idx = np.arange(1, paths + 1, dtype=np.uint64)
    return _splitmix(np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN)


def _stream(seeds: np.ndarray, count: int) -> np.ndarray:
    """(paths, count) raw 64-bit outputs of each path's SplitMix64 stream."""
    ctr = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
    return _splitmix(seeds[:, None] + ctr[None, :])


def _uniform(bits: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to doubles in (0, 1]."""
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Independent martingale increments, one row per path, one column per cell."""

    grid: TimeGrid
    model: str
    seed: int
    increments: np.ndarray
    intensity: float | None = None

    @property
    def paths(self) -> int:
        return self.increments.shape[0]

    def terminal(self) -> np.ndarray:
        return self.increments.sum(axis=1)


def brownian_ensemble(grid: TimeGrid, paths: int, seed: int) -> PathEnsemble:
    """Gaussian increments with variance equal to the cell lengths."""
    if paths < 1:
        raise ValueError("need at least one path")
    n = grid.n
    bits = _stream(path_seeds(seed, paths), 2 * n)
    u1 = _uniform(bits[:, 0::2])
    u2 = _uniform(bits[:, 1::2])
    normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    inc = normals * np.sqrt(np.asarray(grid.lengths))
    return PathEnsemble(grid, "brownian", seed, inc)


def poisson_ensemble(grid: TimeGrid, paths: int, seed: int, intensity: float = 1.0) -> PathEnsemble:
    """Compensated Poisson increments (N_k - rate*len_k) / sqrt(rate)."""
    if paths < 1:
        raise ValueError("need at least one path")
    if not 0.0 < intensity < np.inf:
        raise ValueError("intensity must be positive and finite")
    n = grid.n
    means = intensity * np.asarray(grid.lengths)
    u = _uniform(_stream(path_seeds(seed, paths), n))
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
    inc = (counts - means) / np.sqrt(intensity)
    return PathEnsemble(grid, "poisson", seed, inc, intensity=intensity)


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
    strict = [(ms, v) for ms, v in coeffs.values.items() if len(set(ms)) == len(ms)]
    if d == 0:
        value = fac * coeffs[()]
        return np.full(ensemble.paths, value, dtype=complex)
    if not strict:
        return np.zeros(ensemble.paths, dtype=complex)

    cells = np.array([ms for ms, _ in strict], dtype=np.intp) - 1
    vals = fac * np.array([v for _, v in strict], dtype=complex)
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
    if any(abs(v.imag) > 0 for v in g.values.values()):
        raise ValueError("reference needs a real-valued integrand")
    gnorm = float(np.sqrt(sym_norm2(g)))
    if gnorm == 0.0:
        return np.zeros(ensemble.paths)
    w = _wiener(g, ensemble).real
    return gnorm ** order * hermite_polynomial(order, w / gnorm)


def linear_samples(g: SymCoeffs, ensemble: PathEnsemble) -> np.ndarray:
    """Per-path value of W(g) = sum_c g_c dB_c for a degree-1 integrand."""
    if g.degree != 1:
        raise ValueError("need a degree-1 integrand")
    return _wiener(g, ensemble)


def _wiener(g: SymCoeffs, ensemble: PathEnsemble) -> np.ndarray:
    """W(g) = sum_c g_c dB_c per path, from one gather of the cells g touches
    and one matrix product with the real and imaginary parts of g."""
    cells = np.array([c for (c,) in g.values], dtype=np.intp) - 1
    vals = np.array(list(g.values.values()), dtype=complex)
    w = ensemble.increments[:, cells] @ np.column_stack([vals.real, vals.imag])
    return w[:, 0] + 1j * w[:, 1]


def export_csv(ensemble: PathEnsemble, path) -> None:
    """Write the ensemble as rows (path, cell, increment)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["path", "cell", "increment"])
        for p in range(ensemble.paths):
            for k in range(1, ensemble.grid.n + 1):
                writer.writerow([p, k, repr(float(ensemble.increments[p, k - 1]))])


def mean_and_stderr(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean (real part)."""
    x = np.asarray(samples)
    if np.iscomplexobj(x):
        x = x.real
    if len(x) < 2:
        raise ValueError("a standard error needs at least two samples")
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(len(x)))
