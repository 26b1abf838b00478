import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochint.bernoulli import BernoulliSpace, classical_realization
from stochint.errors import MeasurabilityError, ShapeMismatchError
from stochint.fock_ito import wick_operator_process
from stochint.grid import uniform_grid
from stochint.operator_integral import (
    OperatorStepProcess,
    ProjectorMeasure,
    VectorMartingale,
    check_measurable,
    future_increment_span,
    integral_norm_bound,
    process_quasinorm,
    restricted_norm,
    stochastic_integral,
    unitary_transport,
)
from stochint.randomgen import (
    generator,
    random_adapted_process,
    random_complex,
    random_grid,
    random_martingale,
    random_measurable_process,
    random_unitary,
)

G2 = uniform_grid(1.0, 2)


def example_martingale() -> VectorMartingale:
    p1 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 1.0, 1.0]).astype(complex)
    atom = np.zeros((3, 3), dtype=complex)
    measure = ProjectorMeasure(G2, atom, (p1, p2))
    return VectorMartingale(measure, np.array([1.0, 1.0, 0.0], dtype=complex))


def test_measure_invariants_enforced():
    bad = np.array([[1.0, 0.2], [0.0, 0.0]], dtype=complex)  # not Hermitian
    with pytest.raises(ValueError):
        ProjectorMeasure(G2, np.zeros((2, 2), complex), (bad, np.eye(2, dtype=complex) - bad))
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):  # not complete
        ProjectorMeasure(G2, np.zeros((2, 2), complex), (p, p * 0))
    with pytest.raises(ValueError):  # not orthogonal
        ProjectorMeasure(G2, np.zeros((2, 2), complex), (p, p))


def _three_measures() -> tuple[ProjectorMeasure, ...]:
    """A random measure, a Fock realization's and a Bernoulli realization's."""
    rng = generator(4800)
    return (
        random_martingale(rng, random_grid(rng, 4), 7).measure,
        wick_operator_process(random_adapted_process(rng, random_grid(rng, 3), 3, 2)).measure,
        classical_realization(BernoulliSpace(random_grid(rng, 3))).measure,
    )


def test_boundary_projection_is_the_running_sum_of_the_parts():
    for measure in _three_measures():
        running = measure.atom
        assert np.array_equal(measure.boundary_projection(0), running)
        for j, cell in enumerate(measure.cells, start=1):
            running = running + cell
            assert np.array_equal(measure.boundary_projection(j), running)


def test_measure_stores_each_projection_once():
    for measure in _three_measures():
        values = vars(measure).values()
        arrays = [a for v in values for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == (measure.grid.n + 1) * measure.dim**2 * 16


def test_martingale_mass_splits():
    mart = example_martingale()
    total = sum(mart.mu(k) for k in (1, 2))
    atom_mass = float(np.linalg.norm(mart.measure.atom @ mart.vector) ** 2)
    assert total + atom_mass == pytest.approx(float(np.linalg.norm(mart.vector) ** 2))
    with pytest.raises(ValueError):
        VectorMartingale(mart.measure, np.zeros(3))


def test_future_span_worked_example():
    mart = example_martingale()
    b0 = future_increment_span(mart, 0)
    np.testing.assert_allclose(np.abs(b0), np.eye(3)[:, :2], atol=1e-14)
    b1 = future_increment_span(mart, 1)
    np.testing.assert_allclose(np.abs(b1[:, 0]), [0.0, 1.0, 0.0], atol=1e-14)
    assert future_increment_span(mart, 2).shape == (3, 0)


def test_future_span_empty_when_atom_carries_everything():
    p1 = np.zeros((2, 2), complex)
    atom = np.eye(2, dtype=complex)
    measure = ProjectorMeasure(uniform_grid(1.0, 1), atom, (p1,))
    mart = VectorMartingale(measure, np.array([1.0, 0.0]))
    assert future_increment_span(mart, 0).shape == (2, 0)


def test_restricted_norm_examples():
    mart = example_martingale()
    b0, b1 = future_increment_span(mart, 0), future_increment_span(mart, 1)
    eye = np.eye(3, dtype=complex)
    assert restricted_norm(eye, b0) == pytest.approx(1.0)
    assert restricted_norm(2 * eye, b1) == pytest.approx(2.0)
    swap = np.zeros((3, 3), complex)
    swap[0, 1] = 1.0  # e2 -> e1
    assert restricted_norm(swap, b1) == pytest.approx(1.0)
    assert restricted_norm(eye, np.zeros((3, 0), complex)) == 0.0


def test_measurability_worked_examples():
    mart = example_martingale()
    eye = np.eye(3, dtype=complex)
    for j in range(3):
        assert check_measurable(eye, mart, j).ok
    a_scale = np.diag([0.0, 2.0, 0.0]).astype(complex)
    assert check_measurable(a_scale, mart, 1).ok
    a_move = np.zeros((3, 3), complex)
    a_move[0, 1] = 1.0
    report = check_measurable(a_move, mart, 1)
    assert not report.ok
    assert report.commutator_deviation > 0.5


def test_boundary_n_is_vacuous():
    mart = example_martingale()
    anything = np.arange(9, dtype=float).reshape(3, 3).astype(complex)
    assert check_measurable(anything, mart, 2).ok


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(trial=st.integers(0, 100_000), exponent=st.floats(-6.0, 6.0))
def test_measurability_verdict_is_scale_invariant(trial, exponent):
    rng = generator(900, trial)
    n = int(rng.integers(2, 7))
    mart = random_martingale(rng, random_grid(rng, n), int(rng.integers(2, 9)))
    proc = random_measurable_process(rng, mart, scalar_action=trial % 2 == 1)
    scales = (1e-12, 1e-6, 10.0**exponent, 1e6)
    for k in range(1, n + 1):
        a = proc.operator(k)
        verdict = check_measurable(a, mart, k - 1).ok
        assert [check_measurable(s * a, mart, k - 1).ok for s in scales] == [verdict] * len(scales)
    alive = [k for k in range(1, n + 1) if mart.mu(k) > 1e-12]
    if len(alive) >= 2:
        # maps the last live increment direction onto the first: never measurable
        q1, q2 = (mart.increment(i) / np.linalg.norm(mart.increment(i)) for i in (alive[0], alive[-1]))
        bad = np.outer(q1, q2.conj())
        assert not any(check_measurable(s * bad, mart, alive[-1] - 1).ok for s in scales)


@pytest.mark.parametrize("scale", [1e-12, 1e-10, 1e-9, 1e-6, 1.0, 1e6])
def test_norm_drop_rejected_at_every_scale(scale):
    # restricted norms 2s at boundary 0 and s at boundary 1: measurable at 1 only
    mart = example_martingale()
    a = scale * np.diag([2.0, 1.0, 0.0]).astype(complex)
    assert not check_measurable(a, mart, 0).ok
    assert check_measurable(a, mart, 1).ok


def test_operator_vanishing_on_the_future_span_is_measurable_at_every_scale():
    # the example rotated by a random unitary: A acts on the third basis
    # direction only, so A P_k M = 0 up to the round-off of the rotation
    for trial in range(50):
        rng = generator(910, trial)
        u = random_unitary(rng, 3)
        uh = u.conj().T
        base = example_martingale()
        measure = ProjectorMeasure(G2, base.measure.atom, tuple(u @ p @ uh for p in base.measure.cells))
        mart = VectorMartingale(measure, u @ base.vector)
        b = np.zeros((3, 3), dtype=complex)
        b[:, 2] = random_complex(rng, 3)
        a = u @ b @ uh
        for scale in (1e-12, 1.0, 1e6):
            assert all(check_measurable(scale * a, mart, j).ok for j in range(3))


def test_measurability_monotone():
    for seed in range(30):
        rng = generator(800 + seed)
        n = int(rng.integers(1, 6))
        mart = random_martingale(rng, random_grid(rng, n), int(rng.integers(2, 7)))
        proc = random_measurable_process(rng, mart)
        for j in range(1, n + 1):
            assert check_measurable(proc.operator(1), mart, j).ok


def test_integral_worked_example():
    mart = example_martingale()
    a2 = np.diag([0.0, 2.0, 0.0]).astype(complex)
    proc = OperatorStepProcess(G2, (np.eye(3, dtype=complex), a2))
    out = stochastic_integral(proc, mart)
    np.testing.assert_allclose(out, [1.0, 2.0, 0.0], atol=1e-14)
    assert process_quasinorm(proc, mart) == pytest.approx(np.sqrt(5.0))


def test_integral_telescoping_and_zero():
    mart = example_martingale()
    identity = OperatorStepProcess(G2, (np.eye(3, dtype=complex),) * 2)
    out = stochastic_integral(identity, mart)
    expected = mart.vector - mart.measure.atom @ mart.vector
    np.testing.assert_allclose(out, expected, atol=1e-14)
    zero = OperatorStepProcess(G2, (np.zeros((3, 3), complex),) * 2)
    np.testing.assert_allclose(stochastic_integral(zero, mart), np.zeros(3), atol=0)


def test_integral_enforcement_raises():
    mart = example_martingale()
    a_move = np.zeros((3, 3), complex)
    a_move[0, 1] = 1.0
    proc = OperatorStepProcess(G2, (np.eye(3, dtype=complex), a_move))
    with pytest.raises(MeasurabilityError) as err:
        stochastic_integral(proc, mart)
    assert err.value.cell == 2
    stochastic_integral(proc, mart, enforce=False)  # computable without the gate


def test_integral_linearity():
    for seed in range(20):
        rng = generator(900 + seed)
        n = int(rng.integers(1, 6))
        mart = random_martingale(rng, random_grid(rng, n), int(rng.integers(2, 8)))
        p1 = random_measurable_process(rng, mart)
        p2 = random_measurable_process(rng, mart, scalar_action=True)
        a, b = 0.3 - 2.0j, 1.1 + 0.4j
        combined = OperatorStepProcess(
            mart.grid, tuple(a * x + b * y for x, y in zip(p1.operators, p2.operators))
        )
        lhs = stochastic_integral(combined, mart, enforce=False)
        rhs = a * stochastic_integral(p1, mart, enforce=False) + b * stochastic_integral(
            p2, mart, enforce=False
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_norm_bound_random_trials():
    worst = -np.inf
    for seed in range(200):
        rng = generator(1000 + seed)
        n = int(rng.integers(1, 7))
        mart = random_martingale(rng, random_grid(rng, n), int(rng.integers(2, 9)))
        proc = random_measurable_process(rng, mart, scalar_action=seed % 2 == 0)
        lhs, rhs = integral_norm_bound(proc, mart, enforce=False)
        assert lhs <= rhs + 1e-10
        worst = max(worst, lhs - rhs)
        if seed % 2 == 0:
            assert lhs == pytest.approx(rhs, abs=1e-10)
    assert worst <= 1e-10


def test_scalar_equality_identity_case():
    mart = example_martingale()
    identity = OperatorStepProcess(G2, (np.eye(3, dtype=complex),) * 2)
    lhs, rhs = integral_norm_bound(identity, mart)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert rhs == pytest.approx(mart.mu_total(), abs=1e-12)


def test_quasinorm_zero_process():
    mart = example_martingale()
    zero = OperatorStepProcess(G2, (np.zeros((3, 3), complex),) * 2)
    assert process_quasinorm(zero, mart) == 0.0


def test_transport_identity_and_permutation():
    mart = example_martingale()
    a2 = np.diag([0.0, 2.0, 0.0]).astype(complex)
    proc = OperatorStepProcess(G2, (np.eye(3, dtype=complex), a2))
    left, right = unitary_transport(np.eye(3, dtype=complex), proc, mart)
    np.testing.assert_allclose(left, right, atol=1e-14)
    perm = np.eye(3)[[1, 2, 0]].astype(complex)
    left, right = unitary_transport(perm, proc, mart, enforce=False)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_transport_random():
    for seed in range(50):
        rng = generator(1100 + seed)
        n = int(rng.integers(1, 6))
        dim = int(rng.integers(2, 8))
        mart = random_martingale(rng, random_grid(rng, n), dim)
        proc = random_measurable_process(rng, mart)
        left, right = unitary_transport(random_unitary(rng, dim), proc, mart, enforce=False)
        assert np.linalg.norm(left - right) < 1e-10


def test_transport_rejects_non_unitary():
    mart = example_martingale()
    proc = OperatorStepProcess(G2, (np.eye(3, dtype=complex),) * 2)
    with pytest.raises(ValueError):
        unitary_transport(np.diag([1.0, 2.0, 1.0]).astype(complex), proc, mart)


def test_shape_errors():
    mart = example_martingale()
    with pytest.raises(ShapeMismatchError):
        OperatorStepProcess(G2, (np.eye(3, dtype=complex),))
    wrong_dim = OperatorStepProcess(G2, (np.eye(2, dtype=complex),) * 2)
    with pytest.raises(ShapeMismatchError):
        stochastic_integral(wrong_dim, mart)


def test_json_roundtrips():
    rng = generator(31)
    mart = random_martingale(rng, random_grid(rng, 3), 4)
    back = VectorMartingale.from_json(mart.to_json())
    np.testing.assert_allclose(back.vector, mart.vector, atol=0)
    np.testing.assert_allclose(back.measure.atom, mart.measure.atom, atol=0)
    for k in range(1, 4):
        np.testing.assert_allclose(
            back.measure.cell_projection(k), mart.measure.cell_projection(k), atol=0
        )
    proc = random_measurable_process(rng, mart)
    proc_back = OperatorStepProcess.from_json(proc.to_json())
    for k in range(1, 4):
        np.testing.assert_allclose(proc_back.operator(k), proc.operator(k), atol=0)
