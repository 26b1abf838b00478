#!/usr/bin/env python3
# The truncated Fock space: weighted norms, Wick products, time projections.

from stochint import (
    cell_increment,
    fock_inner,
    indicator_vector,
    resolution_project,
    uniform_grid,
    vacuum,
    wick,
)
from stochint import fock, symtensor
from stochint.errors import TruncationOverflowError

g = uniform_grid(1.0, 4)

print("== vectors and the weighted norm ==")
vac = vacuum(g, 2)
print("||vacuum||^2 =", fock_inner(vac, vac).real)
z = indicator_vector(g)  # (0, indicator of [0,T], 0, ...)
print("||Z||^2 =", fock_inner(z, z).real, "(the horizon T)")

print()
print("== increments ==")
for k in range(1, 5):
    print(f"||increment {k}||^2 =", fock.norm2(cell_increment(g, k)), "= cell length")
total = cell_increment(g, 1)
for k in range(2, 5):
    total = total + cell_increment(g, k)
print("increments telescope to Z:", fock.entrywise_distance(total, z))

print()
print("== Wick products ==")
zz = wick(z.pad(2), z.pad(2))
print("Z wick Z: degree-2 component equals the constant-1 function:",
      symtensor.entrywise_distance(zz.component(2), symtensor.ones(g, 2)))
print("vacuum is the unit:", fock.entrywise_distance(wick(vacuum(g, 2), zz), zz))

try:
    wick(zz, z.pad(2))
except TruncationOverflowError as err:
    print("the product refuses to drop degree", err.degree)

print()
print("== the time projections ==")
# projecting keeps only multisets supported up to a boundary; on the
# distinguished degree-1 vector this measures elapsed time exactly
for j in range(5):
    val = fock.norm2(resolution_project(z, j))
    print(f"||X_{j} Z||^2 = {val:.2f}  (boundary t_{j} = {g.boundaries[j]:.2f})")
