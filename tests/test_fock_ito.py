import numpy as np
import pytest

import oracle
from stochint import fock, symtensor
from stochint.errors import NotAdaptedError, RefusalError, TruncationOverflowError
from stochint.fock import (
    FockVector,
    cell_increment,
    entrywise_distance,
    indicator_vector,
    vacuum,
    zero_vector,
)
from stochint.fock_ito import (
    FockStepProcess,
    check_adapted,
    ito_isometry,
    ito_wick,
    skorohod_integral,
    wick_operator_process,
)
from stochint.grid import uniform_grid
from stochint.operator_integral import check_measurable, stochastic_integral
from stochint.randomgen import generator, random_adapted_process, random_grid

G2 = uniform_grid(1.0, 2)


def constant_process(grid, value: FockVector) -> FockStepProcess:
    return FockStepProcess(grid, (value,) * grid.n)


def test_adapted_verdicts():
    assert check_adapted(constant_process(G2, vacuum(G2, 1))).ok

    own_cell = FockStepProcess(G2, (cell_increment(G2, 1), zero_vector(G2, 1)))
    report = check_adapted(own_cell)
    assert not report.ok
    assert (report.cell, report.degree, report.multiset) == (1, 1, (1,))

    past_cell = FockStepProcess(G2, (zero_vector(G2, 1), cell_increment(G2, 1)))
    assert check_adapted(past_cell).ok


def test_ito_of_constant_one_is_the_indicator():
    out = ito_wick(constant_process(G2, vacuum(G2, 1)))
    assert entrywise_distance(out, indicator_vector(G2)) == 0.0


def test_ito_worked_example():
    proc = FockStepProcess(G2, (zero_vector(G2, 2), cell_increment(G2, 1).pad(2)))
    out = ito_wick(proc)
    assert out.component(2)[(1, 2)] == pytest.approx(0.5)
    assert fock.norm2(out) == pytest.approx(0.25)


def test_ito_zero():
    out = ito_wick(constant_process(G2, zero_vector(G2, 1)))
    assert fock.norm2(out) == 0.0


def test_ito_rejects_non_adapted():
    own_cell = FockStepProcess(G2, (cell_increment(G2, 1), zero_vector(G2, 1)))
    with pytest.raises(NotAdaptedError):
        ito_wick(own_cell)


def test_ito_overflow_without_headroom():
    # nonzero top-degree component cannot absorb the extra increment
    deg1 = FockVector(G2, (symtensor.zero(G2, 0), symtensor.cell_indicator(G2, 1)))
    proc = FockStepProcess(G2, (zero_vector(G2, 1), deg1))
    with pytest.raises(TruncationOverflowError):
        ito_wick(proc)


def test_ito_builds_no_degree_above_its_truncation():
    # the 512-cell indicator process of `refine --levels 9`: a degree-3
    # vector on 512 cells would have C(514, 3) entries, past MAX_ENTRIES
    grid = uniform_grid(1.0, 512)
    proc = FockStepProcess(grid, tuple(indicator_vector(grid, k - 1).pad(2) for k in range(1, 513)))
    with pytest.raises(RefusalError):
        symtensor.size(512, 3)
    out = ito_wick(proc)
    assert out.truncation == 2
    assert fock.norm2(out) == pytest.approx(0.5 - 1 / 1024, abs=1e-12)


def test_symmetrize_route_examples():
    # the Skorohod integral of an adapted process is its Ito integral
    proc = constant_process(G2, vacuum(G2, 1))
    assert entrywise_distance(skorohod_integral(proc), indicator_vector(G2)) == 0.0

    proc = FockStepProcess(G2, (zero_vector(G2, 2), cell_increment(G2, 1).pad(2)))
    assert skorohod_integral(proc).component(2)[(1, 2)] == pytest.approx(0.5)


def test_symmetrize_shifts_degrees():
    g3 = uniform_grid(1.0, 3)
    deg3 = symtensor.SymCoeffs(g3, 3, {(1, 1, 2): 1.0})
    value = FockVector(
        g3,
        (symtensor.zero(g3, 0), symtensor.zero(g3, 1), symtensor.zero(g3, 2), deg3),
    )
    proc = FockStepProcess(g3, (zero_vector(g3, 3), zero_vector(g3, 3), value))
    out = skorohod_integral(proc)
    assert all(out.component(d).is_zero() for d in range(4))
    assert not out.component(4).is_zero()


def test_route_equivalence_random():
    for seed in range(150):
        rng = generator(1200 + seed)
        grid = random_grid(rng, int(rng.integers(1, 7)))
        proc = random_adapted_process(
            rng, grid, 4, int(rng.integers(0, 4)), off_diagonal=bool(rng.integers(0, 2))
        )
        # the definition: sum_k value_k (Wick) increment_k
        assert entrywise_distance(ito_wick(proc), oracle.ito_wick(proc)) < 1e-12


def test_isometry_examples_and_random():
    proc = constant_process(G2, vacuum(G2, 1))
    assert ito_isometry(proc) == (pytest.approx(1.0), pytest.approx(1.0))

    proc = FockStepProcess(G2, (zero_vector(G2, 2), cell_increment(G2, 1).pad(2)))
    lhs, rhs = ito_isometry(proc)
    assert (lhs, rhs) == (pytest.approx(0.25), pytest.approx(0.25))

    zero = constant_process(G2, zero_vector(G2, 1))
    assert ito_isometry(zero) == (0.0, 0.0)

    for seed in range(100):
        rng = generator(1300 + seed)
        grid = random_grid(rng, int(rng.integers(1, 7)))
        proc = random_adapted_process(rng, grid, 4, int(rng.integers(0, 4)))
        lhs, rhs = ito_isometry(proc)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


def test_skorohod_extends_ito():
    for seed in range(50):
        rng = generator(1400 + seed)
        grid = random_grid(rng, int(rng.integers(1, 6)))
        proc = random_adapted_process(rng, grid, 3, int(rng.integers(0, 3)))
        assert entrywise_distance(skorohod_integral(proc), oracle.ito_wick(proc)) <= 1e-15


def test_skorohod_diagonal_example():
    proc = FockStepProcess(G2, (cell_increment(G2, 1), zero_vector(G2, 1)))
    out = skorohod_integral(proc)
    assert out.component(2)[(1, 1)] == pytest.approx(1.0)
    assert out.component(2)[(1, 2)] == 0.0
    assert fock.norm2(out) == pytest.approx(0.5)


def test_skorohod_zero():
    proc = constant_process(G2, zero_vector(G2, 1))
    assert fock.norm2(skorohod_integral(proc)) == 0.0


def test_adapted_off_diagonal_gives_off_diagonal_integral():
    for seed in range(50):
        rng = generator(1500 + seed)
        grid = random_grid(rng, int(rng.integers(2, 7)))
        proc = random_adapted_process(rng, grid, 4, 3, off_diagonal=True)
        out = ito_wick(proc)
        assert all(c.is_off_diagonal() for c in out.components)


def test_wick_operator_identity_for_vacuum():
    proc = constant_process(G2, vacuum(G2, 1))
    realization = wick_operator_process(proc)
    for k in (1, 2):
        np.testing.assert_allclose(
            realization.process.operator(k), np.eye(realization.dim), atol=1e-14
        )
    vec = stochastic_integral(realization.process, realization.martingale, enforce=False)
    out = realization.coords_to_vector(vec)
    assert entrywise_distance(out, indicator_vector(G2)) < 1e-14


def test_wick_operator_worked_example():
    proc = FockStepProcess(G2, (zero_vector(G2, 2), cell_increment(G2, 1).pad(2)))
    realization = wick_operator_process(proc)
    vec = stochastic_integral(realization.process, realization.martingale, enforce=False)
    out = realization.coords_to_vector(vec)
    assert out.component(2)[(1, 2)] == pytest.approx(0.5)
    assert entrywise_distance(out, ito_wick(proc)) < 1e-14


def test_wick_operator_measurability_and_bridge_random():
    for seed in range(20):
        rng = generator(1600 + seed)
        grid = random_grid(rng, int(rng.integers(2, 5)))
        max_deg = int(rng.integers(0, 3))
        proc = random_adapted_process(rng, grid, max_deg + 1, max_deg)
        realization = wick_operator_process(proc)
        for k in range(1, grid.n + 1):
            assert check_measurable(
                realization.process.operator(k), realization.martingale, k - 1
            ).ok
        vec = stochastic_integral(realization.process, realization.martingale, enforce=False)
        assert entrywise_distance(realization.coords_to_vector(vec), ito_wick(proc)) < 1e-12


def test_wick_operator_needs_headroom():
    deg1 = FockVector(G2, (symtensor.zero(G2, 0), symtensor.cell_indicator(G2, 1)))
    proc = FockStepProcess(G2, (zero_vector(G2, 1), deg1))
    with pytest.raises(TruncationOverflowError):
        wick_operator_process(proc)


def test_wick_operator_process_refuses_matrices_past_the_size_limit():
    # 13 cells at truncation 4 have C(17, 4) = 2380 coordinates, and each
    # operator matrix 2380^2 entries: refused before anything is allocated
    proc = random_adapted_process(generator(9), uniform_grid(1.0, 13), 4, 3)
    message = r"^a Wick operator matrix on 13 cells at truncation 4 has 2380\^2 entries, over the limit 4194304$"
    with pytest.raises(ValueError, match=message):
        wick_operator_process(proc)
