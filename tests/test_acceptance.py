"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line when it completes (visible with -s or
-rA); under `pytest -v` each criterion also reports as its own line.
"""

import time
from itertools import chain, combinations

import numpy as np
import pytest

import oracle
from stochint import fock, suites
from stochint.bernoulli import (
    BernoulliSpace,
    chaos_integral_pair,
    chaos_map,
    classical_realization,
    is_measurable_at,
    max_abs,
    measurability_equivalence,
    multiplication_integral_pair,
)
from stochint.fock_ito import ito_isometry, ito_wick, wick_operator_process
from stochint.grid import uniform_grid
from stochint.operator_integral import (
    check_measurable,
    integral_norm_bound,
    stochastic_integral,
    unitary_transport,
)
from stochint.randomgen import (
    generator,
    random_adapted_process,
    random_fock_vector,
    random_grid,
    random_martingale,
    random_measurable_process,
    random_predictable,
    random_unitary,
)

SEED = 20240901


def report(name: str):
    print(f"PASS {name}")


def test_criterion_01_norm_bound_1000_trials():
    started = time.perf_counter()
    for t in range(1000):
        rng = generator(SEED, 1, t)
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(2, 9))
        mart = random_martingale(rng, random_grid(rng, n), dim)
        scalar = t % 2 == 1
        proc = random_measurable_process(rng, mart, scalar_action=scalar)
        lhs, rhs = integral_norm_bound(proc, mart, enforce=False)
        assert lhs <= rhs + 1e-10
        if scalar:
            assert abs(lhs - rhs) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(f"criterion 1: norm bound on 1000 random processes ({elapsed:.2f}s)")


def _route_processes():
    for t in range(500):
        rng = generator(SEED, 2, t)
        n = int(rng.integers(1, 7))
        grid = random_grid(rng, n)
        max_deg = int(rng.integers(0, 4))
        yield rng, grid, random_adapted_process(
            rng, grid, 4, max_deg, off_diagonal=bool(rng.integers(0, 2))
        )


def test_criterion_02_route_equivalence_500_processes():
    started = time.perf_counter()
    for _, _, proc in _route_processes():
        # against the definition, sum_k value_k (Wick) increment_k
        dev = fock.entrywise_distance(ito_wick(proc), oracle.ito_wick(proc))
        assert dev <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(f"criterion 2: Ito integral equals the Wick-sum definition on 500 adapted processes ({elapsed:.2f}s)")


def test_criterion_03_isometry_same_processes():
    for _, _, proc in _route_processes():
        lhs, rhs = ito_isometry(proc)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
    report("criterion 3: exact Ito isometry on the same 500 processes")


def test_criterion_04_measurability_equivalence_exhaustive():
    started = time.perf_counter()
    for n in (1, 2, 3):
        sp = BernoulliSpace(uniform_grid(1.0, n))
        realization = classical_realization(sp)
        subsets = chain.from_iterable(combinations(range(1, n + 1), r) for r in range(n + 1))
        for cells in subsets:
            f = sp.walsh(cells)
            for k in range(n + 1):
                v = measurability_equivalence(f, k, realization)
                assert v.agree
                assert v.classical == (max(cells, default=0) <= k)
                if v.classical:
                    for nu in v.restricted_norms:
                        assert abs(nu - v.function_norm) <= 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(f"criterion 4: exhaustive measurability equivalence, n<=3 ({elapsed:.2f}s)")


def test_criterion_05_multiplication_route_200_integrands():
    spaces = {n: BernoulliSpace(uniform_grid(1.0, n)) for n in range(1, 6)}
    realizations = {n: classical_realization(sp) for n, sp in spaces.items()}
    for t in range(200):
        rng = generator(SEED, 5, t)
        n = int(rng.integers(1, 6))
        sp = spaces[n]
        fs = random_predictable(rng, sp)
        via_ops, via_incs = multiplication_integral_pair(fs, realizations[n])
        assert max_abs(via_ops - via_incs) <= 1e-12
    report("criterion 5: operator route equals increment route on 200 integrands")


def test_criterion_06_chaos_intertwining_and_isometry():
    for t in range(200):
        rng = generator(SEED, 6, t)
        n = int(rng.integers(2, 6))
        sp = BernoulliSpace(uniform_grid(1.0, n))
        proc = random_adapted_process(rng, sp.grid, 3, 2, off_diagonal=True)
        left, right, transported = chaos_integral_pair(proc, sp)
        assert max_abs(left - right) <= 1e-12
        for k, f_k in enumerate(transported, start=1):
            assert is_measurable_at(f_k, k - 1)
    for t in range(200):
        rng = generator(SEED, 60, t)
        n = int(rng.integers(1, 6))
        sp = BernoulliSpace(uniform_grid(1.0, n))
        f = random_fock_vector(rng, sp.grid, min(n, 3), strict=True)
        g = random_fock_vector(rng, sp.grid, min(n, 3), strict=True)
        dev = abs(chaos_map(f, sp).inner(chaos_map(g, sp)) - fock.fock_inner(f, g))
        assert dev <= 1e-12
    report("criterion 6: chaos transport of the integral plus exact isometry, 200+200 trials")


def test_criterion_07_wick_operator_bridge_100_processes():
    started = time.perf_counter()
    for t in range(100):
        rng = generator(SEED, 7, t)
        n = int(rng.integers(2, 7))
        grid = random_grid(rng, n)
        max_deg = int(rng.integers(0, 4))
        proc = random_adapted_process(rng, grid, max_deg + 1, max_deg, off_diagonal=False)
        realization = wick_operator_process(proc)
        for k in range(1, n + 1):
            assert check_measurable(
                realization.process.operator(k), realization.martingale, k - 1
            ).ok
        vec = stochastic_integral(realization.process, realization.martingale, enforce=False)
        dev = fock.entrywise_distance(realization.coords_to_vector(vec), ito_wick(proc))
        assert dev <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(f"criterion 7: Wick-operator bridge on 100 processes ({elapsed:.2f}s)")


def test_criterion_08_unitary_transport_200_trials():
    for t in range(200):
        rng = generator(SEED, 8, t)
        n = int(rng.integers(1, 7))
        dim = int(rng.integers(2, 9))
        mart = random_martingale(rng, random_grid(rng, n), dim)
        proc = random_measurable_process(rng, mart, scalar_action=t % 2 == 0)
        left, right = unitary_transport(random_unitary(rng, dim), proc, mart, enforce=False)
        assert np.linalg.norm(left - right) <= 1e-10
    report("criterion 8: unitary transport on 200 random unitaries/processes")


def test_criterion_09_monte_carlo_brownian_suite():
    started = time.perf_counter()
    rep = suites.mc_suite(model="brownian", cells=64, paths=100_000, seed=7)
    elapsed = time.perf_counter() - started
    assert rep.passed, [(c.name, c.lhs, c.rhs, c.tolerance) for c in rep.failures()]
    names = {c.name for c in rep.checks}
    # mean differences against the closed-form reference, second moments with
    # the discretization allowance, isometry, and bitwise determinism
    assert {
        "order1_reference_max_dev",
        "order2_mean_diff",
        "order3_mean_diff",
        "power_second_moment",
        "offdiagonal_second_moment",
        "linear_isometry",
        "ensemble_deterministic",
    } <= names
    assert elapsed < 60.0
    report(f"criterion 9: Brownian Monte Carlo suite, 64 cells x 1e5 paths ({elapsed:.2f}s)")


def test_criterion_10_refinement_defect_halves():
    rep = suites.refinement_study(start_cells=2, levels=6)
    defects = [row["defect"] for row in rep.table]
    assert rep.table[0]["cells"] == 2 and rep.table[-1]["cells"] == 64
    assert all(d > 0 for d in defects)
    for a, b in zip(defects, defects[1:]):
        assert b < a
        assert 1.0 <= a / b <= 4.0
    assert rep.passed
    report("criterion 10: refinement defect positive, monotone, halving 2..64 cells")
