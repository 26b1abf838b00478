#!/usr/bin/env python3
# Gaussian-path checks against the closed-form polynomial reference, the
# compensated-Poisson sampler, and the grid-refinement convergence study.

import numpy as np

from stochint import suites, symtensor, uniform_grid
from stochint.montecarlo import (
    brownian_ensemble,
    hermite_reference,
    iterated_samples,
    linear_samples,
    Moments,
    poisson_ensemble,
)

cells, paths, seed = 16, 20_000, 11
grid = uniform_grid(1.0, cells)
print(f"== Brownian ensemble: {cells} cells x {paths} paths, seed {seed} ==")
ens = brownian_ensemble(grid, paths, seed)
print("bitwise deterministic:",
      np.array_equal(ens.increments, brownian_ensemble(grid, paths, seed).increments))

g = symtensor.ones(grid, 1)
w = linear_samples(g, ens).real
for order in (1, 2, 3):
    coeffs = symtensor.ones(grid, order)
    diff = iterated_samples(coeffs, ens).real - hermite_reference(g, order, w)
    m = Moments()
    m.add(diff)
    print(f"order {order}: mean(discrete - reference) = {m.mean:+.2e}  (4se = {4*m.stderr():.2e})")

w2 = np.abs(linear_samples(g, ens)) ** 2
m = Moments()
m.add(w2)
print(f"first-order isometry: E|W(g)|^2 = {m.mean:.4f} vs ||g||^2 = 1  (4se = {4*m.stderr():.2e})")

print()
print("== compensated Poisson increments ==")
pens = poisson_ensemble(grid, paths, seed, intensity=1.0)
m = Moments()
m.add(pens.increments.reshape(-1))
print(f"increment mean {m.mean:+.2e} (4se = {4*m.stderr():.2e})")
m = Moments()
m.add(pens.terminal() ** 2)
print(f"terminal second moment {m.mean:.4f} vs horizon 1.0 (4se = {4*m.stderr():.2e})")

print()
print("== refinement study: integrating the running indicator ==")
rep = suites.refinement_study(start_cells=2, levels=6)
print(f"{'cells':>6} {'norm^2':>10} {'defect':>10} {'step diff^2':>12}")
for row in rep.table:
    step = row.get("step_diff_norm2")
    print(f"{row['cells']:>6} {row['integral_norm2']:>10.6f} {row['defect']:>10.6f} "
          f"{step if step is None else format(step, '>12.6f')}")
print("limit of norm^2 is 0.5; the defect halves with every refinement")
print("all checks pass:", rep.passed)
