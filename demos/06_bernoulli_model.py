#!/usr/bin/env python3
# The exact probability model: a scaled sign walk is a discrete normal
# martingale, multiplication operators realize the operator integral, and the
# chaos map carries the Fock picture onto random variables, exactly.

from stochint import (
    BernoulliSpace,
    FockStepProcess,
    cell_increment,
    chaos_integral_pair,
    chaos_map,
    classical_realization,
    cond_expect,
    measurability_equivalence,
    multiplication_integral_pair,
    uniform_grid,
)
from stochint.bernoulli import max_abs
from stochint.fock import zero_vector
from stochint.randomgen import generator, random_adapted_process, random_fock_vector

g = uniform_grid(1.0, 3)
sp = BernoulliSpace(g)
real = classical_realization(sp)
print("sample points:", sp.size, " cells:", sp.n)

print()
print("== discrete normal martingale, exactly ==")
for k in range(1, 4):
    inc = sp.increment(k)
    mean = max_abs(cond_expect(inc, k - 1))
    var = max_abs(cond_expect(inc * inc, k - 1) - sp.constant(g.length(k)))
    print(f"cell {k}: |E[dN|past]| = {mean},  |E[dN^2|past] - length| = {var}")

print()
print("== measurability is filtration measurability ==")
xi1, xi2 = sp.xi(1), sp.xi(2)
for f, name, k in [(xi1, "xi1", 1), (xi2, "xi2", 1), (xi1 * xi2, "xi1*xi2", 2)]:
    v = measurability_equivalence(f, k, real)
    print(f"{name} at boundary {k}: classical={v.classical} operator={v.operator} "
          f"norms={tuple(round(x, 12) for x in v.restricted_norms)}")

print()
print("== two integration routes agree pointwise ==")
integrands = [sp.constant(0.0), sp.increment(1), sp.increment(2)]
via_ops, via_incs = multiplication_integral_pair(integrands, real)
print("max pointwise difference:", max_abs(via_ops - via_incs))

print()
print("== the chaos map is an exact isometry ==")
rng = generator(606)
f = random_fock_vector(rng, g, 3, strict=True)
h = random_fock_vector(rng, g, 3, strict=True)
lhs = chaos_map(f, sp).inner(chaos_map(h, sp))
from stochint.fock import fock_inner
print("E[conj(If) Ih] - <f,h> =", abs(lhs - fock_inner(f, h)))

print()
print("== the chaos map intertwines the two Ito integrals ==")
proc = FockStepProcess(g, (zero_vector(g, 2), cell_increment(g, 1).pad(2), zero_vector(g, 2)))
left, right, transported = chaos_integral_pair(proc, sp)
print("chaos(Fock integral) vs classical integral:", max_abs(left - right))
print("transported integrand on cell 2 equals the first walk increment:",
      max_abs(transported[1] - sp.increment(1)))
worst = 0.0
for t in range(50):
    rng = generator(707, t)
    p = random_adapted_process(rng, g, 3, 2, off_diagonal=True)
    l, r, _ = chaos_integral_pair(p, sp)
    worst = max(worst, max_abs(l - r))
print("max deviation over 50 random adapted processes:", worst)
