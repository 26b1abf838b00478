#!/usr/bin/env python3
# Integrating operator-valued step processes against a projector measure:
# measurability, the norm bound, and unitary transport.

import numpy as np

from stochint import (
    OperatorStepProcess,
    ProjectorMeasure,
    VectorMartingale,
    check_measurable,
    future_increment_span,
    integral_norm_bound,
    stochastic_integral,
    unitary_transport,
    uniform_grid,
)
from stochint.randomgen import (
    generator,
    random_grid,
    random_martingale,
    random_measurable_process,
    random_unitary,
)

print("== a three-dimensional worked example ==")
g = uniform_grid(1.0, 2)
# coordinate 1 lies in cell 1 and coordinates 2 and 3 in cell 2:
# P_1 = diag(1, 0, 0), P_2 = diag(0, 1, 1), no atom
measure = ProjectorMeasure(g, np.array([1, 2, 2]))
mart = VectorMartingale(measure, np.array([1.0, 1.0, 0.0], complex))
print("increment measures:", [mart.mu(k) for k in (1, 2)])

print("future-increment span at boundary 0:")
print(future_increment_span(mart, 0).real)

a2 = np.diag([0.0, 2.0, 0.0]).astype(complex)      # doubles the future direction
a_bad = np.zeros((3, 3), complex); a_bad[0, 1] = 1  # moves it into the past slice
print("scaling operator measurable at 1:", bool(check_measurable(a2, mart, 1)))
print("moving operator measurable at 1:", bool(check_measurable(a_bad, mart, 1)))
print("  restricted norms:", check_measurable(a2, mart, 1).restricted_norms)

proc = OperatorStepProcess(g, (np.eye(3, dtype=complex), a2))
lhs, rhs, _ = integral_norm_bound(proc, mart)
print("integral:", stochastic_integral(proc, mart).real, " quasinorm:", np.sqrt(rhs))
print(f"norm bound: {lhs:.6f} <= {rhs:.6f} (equality: scalar action on the span)")

print()
print("== random processes: the bound is never violated ==")
worst = -np.inf
for t in range(200):
    rng = generator(2024, t)
    mart_t = random_martingale(rng, random_grid(rng, int(rng.integers(1, 7))), int(rng.integers(2, 9)))
    proc_t = random_measurable_process(rng, mart_t, scalar_action=t % 2 == 0)
    lhs, rhs, _ = integral_norm_bound(proc_t, mart_t)
    worst = max(worst, lhs - rhs)
print("max (lhs - rhs) over 200 random measurable processes:", worst)

print()
print("== unitary transport ==")
rng = generator(7)
mart_t = random_martingale(rng, random_grid(rng, 4), 6)
proc_t = random_measurable_process(rng, mart_t)
u = random_unitary(rng, 6)
left, right = unitary_transport(u, proc_t, mart_t)
print("||U(integral) - integral of conjugated process|| =", np.linalg.norm(left - right))
