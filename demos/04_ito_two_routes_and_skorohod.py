#!/usr/bin/env python3
# The Ito integral of a Fock-valued step process against its definition as a
# sum of Wick products, its exact isometry, and the Skorohod extension beyond
# adaptedness.

from stochint import (
    FockStepProcess,
    cell_increment,
    check_adapted,
    indicator_vector,
    ito_isometry,
    ito_wick,
    skorohod_integral,
    uniform_grid,
    vacuum,
)
from stochint import fock
from stochint.fock import zero_vector
from stochint.randomgen import generator, random_adapted_process, random_grid


def wick_sum(p):
    """The definition: sum_k value_k (Wick) increment_k, through the general Wick product."""
    out = zero_vector(p.grid)
    for k in range(1, p.grid.n + 1):
        out += fock.wick(p.value(k), cell_increment(p.grid, k))
    return out


g = uniform_grid(1.0, 2)

print("== integrating the constant 1 gives the canonical martingale ==")
ones_proc = FockStepProcess(g, (vacuum(g, 1), vacuum(g, 1)))
print("distance to Z:", fock.entrywise_distance(ito_wick(ones_proc), indicator_vector(g)))

print()
print("== the first increment integrated over the second cell ==")
proc = FockStepProcess(g, (zero_vector(g, 2), cell_increment(g, 1).pad(2)))
print("adapted:", check_adapted(proc).ok)
ito = ito_wick(proc)
print("degree-2 value at {1,2}:", ito.component(2)[(1, 2)])
print("distance to the Wick sum:", fock.entrywise_distance(ito, wick_sum(proc)))
print("isometry (lhs, rhs):", ito_isometry(proc))

print()
print("== the integral equals the Wick sum on random adapted processes ==")
worst_def, worst_iso = 0.0, 0.0
for t in range(100):
    rng = generator(404, t)
    grid = random_grid(rng, int(rng.integers(1, 7)))
    p = random_adapted_process(rng, grid, 4, int(rng.integers(0, 4)))
    out = ito_wick(p)
    worst_def = max(worst_def, fock.entrywise_distance(out, wick_sum(p)))
    lhs, rhs = ito_isometry(p)
    worst_iso = max(worst_iso, abs(lhs - rhs) / max(1.0, rhs))
print("max deviation from the Wick sum over 100 trials:", worst_def)
print("max scaled isometry deviation:                  ", worst_iso)

print()
print("== the Skorohod extension handles non-adapted values ==")
# the first increment placed on its own cell is not adapted
bad = FockStepProcess(g, (cell_increment(g, 1), zero_vector(g, 1)))
print("adapted:", check_adapted(bad).ok, "->", check_adapted(bad))
sk = skorohod_integral(bad)
print("Skorohod integral hits the diagonal: value at {1,1} =", sk.component(2)[(1, 1)])
print("Skorohod norm^2:", fock.norm2(sk))
# on adapted inputs the extension coincides with the Ito integral
print("on adapted input, distance to the Ito integral:",
      fock.entrywise_distance(skorohod_integral(proc), ito))
