#!/usr/bin/env python3
# Realizing the Fock-space Ito integral as an operator integral: Wick
# multiplication by the process values on the truncated multiset basis, one
# SparseOperator per cell that keeps only its stored entries (a creation
# operator when the value lies in the past of its cell).  On a process that
# is not adapted the same operator integral is the Skorohod integral.

import numpy as np

from stochint import (
    FockStepProcess,
    cell_increment,
    check_adapted,
    check_measurable,
    ito_wick,
    skorohod_integral,
    stochastic_integral,
    uniform_grid,
    vacuum,
    wick_operator_process,
)
from stochint import fock
from stochint.fock import zero_vector
from stochint.randomgen import generator, random_adapted_process, random_fock_vector, random_grid

g = uniform_grid(1.0, 3)

print("== multiplying by the vacuum is the identity ==")
proc = FockStepProcess(g, (vacuum(g, 1),) * 3)
real = wick_operator_process(proc)
op = real.process.operator(1)
print("basis size:", real.dim, "(all multisets of size <= 1 over 3 cells)")
print("stored entries of the operator on cell 1:", len(op.values), "of", real.dim**2)
# the product with the identity matrix is the operator as a dense matrix
print("operator on cell 1 deviates from identity by:",
      np.linalg.norm(op @ np.eye(real.dim) - np.eye(real.dim)))

print()
print("== a genuine example: integrate the first increment ==")
proc = FockStepProcess(g, (zero_vector(g, 2), cell_increment(g, 1).pad(2), zero_vector(g, 2)))
real = wick_operator_process(proc)
print("basis size:", real.dim)
print("stored entries per cell:", [len(a.values) for a in real.process.operators])
for k in range(1, 4):
    ok = bool(check_measurable(real.process.operator(k), real.martingale, k - 1))
    print(f"operator on cell {k} measurable at boundary {k-1}: {ok}")

vec = stochastic_integral(real.process, real.martingale)
via_operators = real.coords_to_vector(vec)
print("operator-integral result at {1,2}:", via_operators.component(2)[(1, 2)])
print("distance to the direct Ito integral:",
      fock.entrywise_distance(via_operators, ito_wick(proc)))

print()
print("== random adapted processes round-trip exactly ==")
worst = 0.0
for t in range(20):
    rng = generator(505, t)
    grid = random_grid(rng, int(rng.integers(2, 5)))
    max_deg = int(rng.integers(0, 3))
    p = random_adapted_process(rng, grid, max_deg + 1, max_deg)
    r = wick_operator_process(p)
    out = r.coords_to_vector(stochastic_integral(r.process, r.martingale))
    worst = max(worst, fock.entrywise_distance(out, ito_wick(p)))
print("max deviation over 20 trials:", worst)

print()
print("== a process that is not adapted gives the Skorohod integral ==")
# each cell value is a random Fock vector on every cell, padded by one degree
# so that the Wick products keep one degree of headroom
p = FockStepProcess(g, tuple(random_fock_vector(generator(506, k), g, 1).pad(2) for k in range(1, 4)))
print("adapted:", bool(check_adapted(p)))
r = wick_operator_process(p)
out = r.coords_to_vector(stochastic_integral(r.process, r.martingale))
print("distance to the Skorohod integral:", fock.entrywise_distance(out, skorohod_integral(p)))
