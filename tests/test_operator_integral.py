import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochint.bernoulli import BernoulliSpace, classical_realization
from stochint.errors import ShapeMismatchError
from stochint.fock_ito import wick_operator_process
from stochint.grid import uniform_grid
from stochint.operator_integral import (
    OperatorStepProcess,
    ProjectorMeasure,
    SparseOperator,
    VectorMartingale,
    check_measurable,
    future_increment_span,
    integral_norm_bound,
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
    # P_1 = diag(1, 0, 0), P_2 = diag(0, 1, 1), no atom
    measure = ProjectorMeasure(G2, np.array([1, 2, 2]))
    return VectorMartingale(measure, np.array([1.0, 1.0, 0.0], dtype=complex))


def test_measure_invariants_enforced():
    zero = np.zeros((2, 2), complex)
    bad = np.array([[1.0, 0.2], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="^projection is not Hermitian$"):
        ProjectorMeasure.from_projections(G2, zero, (bad, np.eye(2, dtype=complex) - bad))
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="^projections do not sum to the identity$"):
        ProjectorMeasure.from_projections(G2, zero, (p, p * 0))
    with pytest.raises(ValueError, match="^projections 1 and 2 are not orthogonal$"):
        ProjectorMeasure.from_projections(G2, zero, (p, p))
    with pytest.raises(ValueError, match="^projection is not idempotent$"):
        ProjectorMeasure.from_projections(G2, zero, (2 * p, np.eye(2, dtype=complex) - 2 * p))
    with pytest.raises(ShapeMismatchError, match="^expected 2 cell projections, got 1$"):
        ProjectorMeasure.from_projections(G2, zero, (np.eye(2, dtype=complex),))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measure_rejects_non_finite_entries(bad):
    p1 = np.diag([1.0, 0.0]).astype(complex)
    p1[1, 1] = bad  # NaN compares False against every tolerance
    with pytest.raises(ValueError, match="non-finite"):
        ProjectorMeasure.from_projections(G2, np.zeros((2, 2), complex), (p1, np.diag([0.0, 1.0]).astype(complex)))


@pytest.mark.parametrize(
    "frame, error, message",
    [
        (np.diag([1.0, 2.0]), ValueError, "^the frame is not unitary$"),
        (np.eye(3), ShapeMismatchError, "^expected dimension 2, got 3$"),
        (np.eye(2)[:, :1], ShapeMismatchError, r"^expected a square matrix, got shape \(2, 1\)$"),
        (np.diag([1.0, np.nan]), ValueError, "^the frame holds a non-finite number$"),
    ],
    ids=["not_unitary", "wrong_dimension", "not_square", "non_finite"],
)
def test_measure_rejects_a_frame_that_is_not_orthonormal(frame, error, message):
    with pytest.raises(error, match=message):
        ProjectorMeasure(G2, np.array([1, 2]), frame)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_martingale_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        VectorMartingale(example_martingale().measure, np.array([1.0, bad, 0.0], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_process_rejects_non_finite_entries(bad):
    a = np.eye(3, dtype=complex)
    a[0, 2] = complex(0.0, bad)
    with pytest.raises(ValueError, match="non-finite"):
        OperatorStepProcess(G2, (np.eye(3, dtype=complex), a))


def _three_measures() -> tuple:
    """A random measure with a frame, a Fock realization's measure with
    labels only and a Bernoulli realization's measure, the sign space
    itself."""
    rng = generator(4800)
    return (
        random_martingale(rng, random_grid(rng, 4), 7).measure,
        wick_operator_process(random_adapted_process(rng, random_grid(rng, 3), 3, 2)).martingale.measure,
        classical_realization(BernoulliSpace(random_grid(rng, 3))).measure,
    )


def _stored_arrays(measure) -> list:
    values = vars(measure).values()
    return [a for v in values for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]


def test_measure_stores_each_projection_once():
    framed, labels, bernoulli = _three_measures()
    # one part index per frame vector and one dim x dim frame
    assert [a.shape for a in _stored_arrays(framed)] == [(framed.dim,), (framed.dim, framed.dim)]
    # with no frame, one part index per coordinate and nothing else
    assert isinstance(labels, ProjectorMeasure) and labels.frame is None
    assert [a.size for a in _stored_arrays(labels)] == [labels.dim]
    # the sign space stores its increment table alone, one row per cell, and
    # no dim x dim array
    assert isinstance(bernoulli, BernoulliSpace)
    assert [a.shape for a in _stored_arrays(bernoulli)] == [(bernoulli.grid.n, bernoulli.dim)]


def test_martingale_mass_splits():
    mart = example_martingale()
    total = sum(mart.mu(k) for k in (1, 2))
    atom_mass = float(np.linalg.norm(mart.measure.project(0, mart.vector)) ** 2)
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
    measure = ProjectorMeasure(uniform_grid(1.0, 1), np.array([0, 0]))
    mart = VectorMartingale(measure, np.array([1.0, 0.0]))
    assert future_increment_span(mart, 0).shape == (2, 0)


def test_restricted_norm_examples():
    mart = example_martingale()
    eye = np.eye(3, dtype=complex)
    assert check_measurable(eye, mart, 0).restricted_norms[0] == pytest.approx(1.0)
    assert check_measurable(2 * eye, mart, 1).restricted_norms[0] == pytest.approx(2.0)
    swap = np.zeros((3, 3), complex)
    swap[0, 1] = 1.0  # e2 -> e1
    assert check_measurable(swap, mart, 1).restricted_norms[0] == pytest.approx(1.0)
    assert check_measurable(eye, mart, 2).restricted_norms == ()  # the span at 2 is empty


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


def test_martingale_stores_no_span_array():
    # its vector, increments, their norms and the span cells, and no
    # dim x span copy of the normalized increments
    rng = generator(3300)
    mart = random_martingale(rng, random_grid(rng, 5), 6)
    assert future_increment_span(mart, 0).shape[1] > 1
    assert set(vars(mart)) == {"measure", "vector", "_increments", "_norms", "span_cells"}
    assert all(np.ndim(x) <= 1 for x in (mart.vector, mart.span_cells, *mart._increments, *mart._norms))


def test_measurability_check_holds_a_few_images_not_one_per_boundary():
    # 4000 coordinates over 40 cells, labels only, and a diagonal operator:
    # the image of the span at 0 is dim x 40, and one check may hold a few
    # such arrays at a time, not one for each of the 40 later boundaries
    labels = np.arange(4000) % 40 + 1
    mart = VectorMartingale(ProjectorMeasure(uniform_grid(1.0, 40), labels), np.ones(4000))
    a = SparseOperator(4000, np.arange(4000), np.arange(4000), labels.astype(float))
    image_bytes = mart.dim * future_increment_span(mart, 0).shape[1] * 16
    tracemalloc.start()
    try:
        report = check_measurable(a, mart, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the norm on the span after l is the largest label after l, 40 over the
    # whole span and over the last cell's column alike
    assert report.ok and report.restricted_norms == (40.0, 40.0)
    assert peak < 8 * image_bytes


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
        mart = VectorMartingale(ProjectorMeasure(G2, base.measure.labels, u), u @ base.vector)
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
    assert integral_norm_bound(proc, mart)[1] == pytest.approx(5.0)


def test_integral_telescoping_and_zero():
    mart = example_martingale()
    identity = OperatorStepProcess(G2, (np.eye(3, dtype=complex),) * 2)
    out = stochastic_integral(identity, mart)
    expected = mart.vector - mart.measure.project(0, mart.vector)
    np.testing.assert_allclose(out, expected, atol=1e-14)
    zero = OperatorStepProcess(G2, (np.zeros((3, 3), complex),) * 2)
    np.testing.assert_allclose(stochastic_integral(zero, mart), np.zeros(3), atol=0)


def test_nonmeasurable_integral_is_computed_and_its_report_fails():
    mart = example_martingale()
    a_move = np.zeros((3, 3), complex)
    a_move[0, 1] = 1.0
    proc = OperatorStepProcess(G2, (np.eye(3, dtype=complex), a_move))
    # P_1 M = e1 and P_2 M = e2, which a_move sends to e1
    np.testing.assert_allclose(stochastic_integral(proc, mart), [2.0, 0.0, 0.0], atol=1e-14)
    _, _, reports = integral_norm_bound(proc, mart)
    assert [r.boundary for r in reports] == [0, 1]
    assert reports[0].ok and not reports[1].ok


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
        lhs = stochastic_integral(combined, mart)
        rhs = a * stochastic_integral(p1, mart) + b * stochastic_integral(p2, mart)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_norm_bound_random_trials():
    worst = -np.inf
    for seed in range(200):
        rng = generator(1000 + seed)
        n = int(rng.integers(1, 7))
        mart = random_martingale(rng, random_grid(rng, n), int(rng.integers(2, 9)))
        proc = random_measurable_process(rng, mart, scalar_action=seed % 2 == 0)
        lhs, rhs, _ = integral_norm_bound(proc, mart)
        assert lhs <= rhs + 1e-10
        worst = max(worst, lhs - rhs)
        if seed % 2 == 0:
            assert lhs == pytest.approx(rhs, abs=1e-10)
    assert worst <= 1e-10


def test_scalar_equality_identity_case():
    mart = example_martingale()
    identity = OperatorStepProcess(G2, (np.eye(3, dtype=complex),) * 2)
    lhs, rhs, _ = integral_norm_bound(identity, mart)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert rhs == pytest.approx(sum(mart.mu(k) for k in (1, 2)), abs=1e-12)


def test_quasinorm_zero_process():
    mart = example_martingale()
    zero = OperatorStepProcess(G2, (np.zeros((3, 3), complex),) * 2)
    assert integral_norm_bound(zero, mart)[1] == 0.0


def test_transport_identity_and_permutation():
    mart = example_martingale()
    a2 = np.diag([0.0, 2.0, 0.0]).astype(complex)
    proc = OperatorStepProcess(G2, (np.eye(3, dtype=complex), a2))
    left, right = unitary_transport(np.eye(3, dtype=complex), proc, mart)
    np.testing.assert_allclose(left, right, atol=1e-14)
    perm = np.eye(3)[[1, 2, 0]].astype(complex)
    left, right = unitary_transport(perm, proc, mart)
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_transport_random():
    for seed in range(50):
        rng = generator(1100 + seed)
        n = int(rng.integers(1, 6))
        dim = int(rng.integers(2, 8))
        mart = random_martingale(rng, random_grid(rng, n), dim)
        proc = random_measurable_process(rng, mart)
        left, right = unitary_transport(random_unitary(rng, dim), proc, mart)
        assert np.linalg.norm(left - right) < 1e-10


def test_transport_rejects_non_unitary():
    # the frame check's rule: ||U^H U - I|| above COMMUTE_TOL, or not a number
    mart = example_martingale()
    proc = OperatorStepProcess(G2, (np.eye(3, dtype=complex),) * 2)
    for scale in (2.0, 1.0 + 1e-10, np.nan):
        with pytest.raises(ValueError, match="^matrix is not unitary$"):
            unitary_transport(np.diag([1.0, scale, 1.0]).astype(complex), proc, mart)


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
    assert back.measure.to_json() == mart.measure.to_json()
    assert np.array_equal(back.measure.labels, mart.measure.labels)
    proc = random_measurable_process(rng, mart)
    proc_back = OperatorStepProcess.from_json(proc.to_json())
    for k in range(1, 4):
        np.testing.assert_allclose(proc_back.operator(k), proc.operator(k), atol=0)


@pytest.mark.parametrize(
    "labels, message",
    [
        (np.array([0, 1, 7]), r"labels must lie in 0\.\.2, got 0\.\.7"),
        (np.array([-1, 1, 2]), r"labels must lie in 0\.\.2, got -1\.\.2"),
        (np.array([0.0, 1.0, 2.0]), "1-d integer array"),
        (np.array([[0, 1], [2, 2]]), "1-d integer array"),
        (np.array([True, False, True]), "1-d integer array"),
    ],
)
def test_label_measure_rejects_labels_outside_its_parts(labels, message):
    # labels outside 0..n would make parts that do not sum to the identity:
    # the integral of the identity process would drop coordinate 2
    with pytest.raises(ValueError, match=message):
        ProjectorMeasure(uniform_grid(1.0, 2), labels)


def test_transport_and_json_need_a_projector_measure():
    # a measure with labels only transports and writes its 0/1 parts; the
    # Bernoulli realization's sign space has no frame to transport or
    # projections to write
    rng = generator(4801)
    space = BernoulliSpace(random_grid(rng, 3))
    identity = OperatorStepProcess(space.grid, (np.eye(space.dim, dtype=complex),) * space.n)
    mart = classical_realization(space)
    u = random_unitary(rng, space.dim)
    for call, name in ((lambda: unitary_transport(u, identity, mart), "unitary_transport"), (mart.to_json, "to_json")):
        with pytest.raises(TypeError, match=f"^{name} needs a ProjectorMeasure, not a BernoulliSpace$"):
            call()
    labels = np.array([0, 2, 1, 2])
    mart = VectorMartingale(ProjectorMeasure(G2, labels), random_complex(rng, 4))
    proc = random_measurable_process(rng, mart)
    left, right = unitary_transport(random_unitary(rng, 4), proc, mart)
    assert np.linalg.norm(left - right) < 1e-10
    written = mart.to_json()
    for k, part in enumerate([written["measure"]["atom"], *written["measure"]["cells"]]):
        assert np.array_equal([[complex(*v) for v in row] for row in part], np.diag(labels == k))
    assert VectorMartingale.from_json(written).to_json() == written
    # the Fock realization's measure has labels only; its process holds
    # SparseOperators, which transport refuses
    real = wick_operator_process(random_adapted_process(rng, random_grid(rng, 2), 2, 1))
    with pytest.raises(TypeError, match="^unitary_transport needs dense operator matrices, not a SparseOperator$"):
        unitary_transport(random_unitary(rng, real.dim), real.process, real.martingale)


def _random_sparse(rng, dim: int, entries: int) -> tuple[SparseOperator, np.ndarray]:
    """A SparseOperator of `entries` distinct random positions, and its matrix."""
    flat = rng.choice(dim * dim, size=entries, replace=False)
    rows, cols = np.divmod(flat, dim)
    values = random_complex(rng, entries)
    dense = np.zeros((dim, dim), dtype=complex)
    dense[rows, cols] = values
    return SparseOperator(dim, rows, cols, values), dense


def test_sparse_operator_products_match_its_matrix():
    rng = generator(4802)
    for trial in range(60):
        dim = int(rng.integers(1, 9))
        op, dense = _random_sparse(rng, dim, int(rng.integers(0, dim * dim + 1)))
        assert op.shape == dense.shape
        # operands with several nonzeros per column, zero columns, real and complex
        block = random_complex(rng, dim, int(rng.integers(1, 4))) * (rng.random((dim, 1)) < 0.6)
        for x in (block, block[:, 0], block.real, np.eye(dim)):
            got = op @ x
            assert got.shape == x.shape and got.dtype == complex
            np.testing.assert_allclose(got, dense @ x, rtol=1e-14, atol=1e-14)
        # one nonzero per column, as on the Fock realization's spans: bit for bit
        assert np.array_equal(op @ np.eye(dim), dense)
        assert float(np.linalg.norm(op.values)) == pytest.approx(float(np.linalg.norm(dense)), rel=1e-15)


def test_sparse_operator_refuses_bad_entries():
    with pytest.raises(ShapeMismatchError, match="got 2 rows, 1 columns and 2 values"):
        SparseOperator(3, [0, 1], [0], [1.0, 2.0])
    with pytest.raises(ValueError, match=r"entry indices must lie in 0\.\.2"):
        SparseOperator(3, [0, 3], [0, 0], [1.0, 2.0])
    with pytest.raises(ValueError, match="entry indices"):
        SparseOperator(3, [0, -1], [0, 0], [1.0, 2.0])
    with pytest.raises(ValueError, match="an entry is stored twice"):
        SparseOperator(3, [1, 0, 1], [2, 0, 2], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="the operator holds a non-finite number"):
        SparseOperator(3, [0], [0], [np.nan])
    op = SparseOperator(3, [0], [1], [1.0])
    with pytest.raises(ShapeMismatchError, match=r"expected 3 rows, got shape \(2,\)"):
        op @ np.ones(2)
    with pytest.raises(ShapeMismatchError, match="mixed dimensions"):
        OperatorStepProcess(G2, (np.eye(3, dtype=complex), SparseOperator(2, [], [], [])))
    with pytest.raises(ShapeMismatchError, match="expected dimension 3, got 2"):
        check_measurable(SparseOperator(2, [], [], []), example_martingale(), 0)


def test_sparse_operators_refuse_transport_and_json():
    # the triplet form is for products; transport and the wire format need
    # matrices, also when only one operator of the process is sparse
    rng = generator(4803)
    mart = random_martingale(rng, random_grid(rng, 2), 4)
    op, dense = _random_sparse(rng, 4, 5)
    for proc in (OperatorStepProcess(mart.grid, (op, op)), OperatorStepProcess(mart.grid, (dense, op))):
        u = random_unitary(rng, 4)
        for call, name in ((lambda: unitary_transport(u, proc, mart), "unitary_transport"), (proc.to_json, "to_json")):
            with pytest.raises(TypeError, match=f"^{name} needs dense operator matrices, not a SparseOperator$"):
                call()
    # sums and checks take it as they take its matrix
    proc = OperatorStepProcess(mart.grid, (op, op))
    np.testing.assert_allclose(
        stochastic_integral(proc, mart), stochastic_integral(OperatorStepProcess(mart.grid, (dense, dense)), mart), atol=1e-14
    )
