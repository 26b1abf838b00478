"""The in-place Wick merge, the closed-form measurability check, the
cached Bernoulli increments, the sign space's conditional averages and
multiplication operators, the step measures' projections, the labels-only
form of the Fock realization's measure and the triplet form of its Wick
operators against the plain kernels in tests/oracle.py.

Values must agree bit for bit (compared through float.hex, or through the
bits of whole arrays, so the sign of a zero counts, and in dict order),
overflow errors at the same degree, and measurability verdicts exactly.  A
row mask and the product with a 0/1 diagonal differ only in the sign of
zeros, so the labels-only form is compared with == and array_equal instead.
A projection through a frame is compared with its frame multiplied out
within the round-off 4 * dim * eps * ||X||.  A SparseOperator is read as a
matrix through its product with the identity.  The measurability check's
last restricted norm and its deviations come from other sums than the
frozen masked batch's and loop's, so they are compared within 4 * dim * eps
of the largest norm.
"""

import copy

import numpy as np
import pytest

import oracle
from stochint import bernoulli, fock, fock_ito
from stochint.bernoulli import (
    BernoulliSpace,
    RandomVariable,
    chaos_map,
    classical_realization,
    cond_expect,
    multiplication_operator,
)
from stochint.errors import TruncationOverflowError
from stochint.fock import FockVector
from stochint.fock_ito import FockStepProcess, check_adapted, wick_operator_process
from stochint.operator_integral import (
    COMMUTE_TOL,
    DEGENERATE_TOL,
    NORM_RTOL,
    OperatorStepProcess,
    ProjectorMeasure,
    SparseOperator,
    VectorMartingale,
    check_measurable,
    future_increment_span,
    integral_norm_bound,
    stochastic_integral,
)
from stochint.randomgen import (
    generator,
    random_adapted_process,
    random_complex,
    random_fock_vector,
    random_grid,
    random_martingale,
    random_measurable_process,
    random_projector_measure,
    random_unitary,
)

#: small integer values, so that Wick terms cancel exactly and the merge
#: drops their sum
_SMALL = [-2.0, -1.0, 1.0, 2.0]


def _entries(f: FockVector) -> list:
    return [
        [(ms, v.real.hex(), v.imag.hex()) for ms, v in comp.values.items()] for comp in f.components
    ]


def _small_values(rng, f: FockVector) -> FockVector:
    comps = tuple(
        oracle.sym_coeffs(f.grid, c.degree, {ms: complex(_SMALL[int(rng.integers(4))]) for ms in c.values})
        for c in f.components
    )
    return FockVector(f.grid, comps)


def _random_vector(rng, grid, truncation, strict, small):
    f = random_fock_vector(rng, grid, truncation, strict=strict)
    return _small_values(rng, f) if small else f


def _outcome(fn, *args):
    try:
        return _entries(fn(*args))
    except TruncationOverflowError as err:
        return ("overflow", err.degree)


def test_wick_matches_running_sum():
    outcomes = set()
    for trial in range(1500):
        rng = generator(4100, trial)
        grid = random_grid(rng, int(rng.integers(1, 6)))
        strict, small = bool(rng.integers(2)), trial % 3 == 0
        f = _random_vector(rng, grid, int(rng.integers(0, 4)), strict, small)
        g = f if trial % 7 == 0 else _random_vector(rng, grid, int(rng.integers(0, 4)), strict, small)
        got = _outcome(fock.wick, f, g)
        assert got == _outcome(oracle.wick, f, g), trial
        outcomes.add(got[0] if isinstance(got, tuple) else "value")
    assert outcomes == {"overflow", "value"}


def test_ito_wick_matches_running_sum():
    for trial in range(400):
        rng = generator(4200, trial)
        grid = random_grid(rng, int(rng.integers(1, 6)))
        max_deg = int(rng.integers(0, 4))
        truncation = max_deg + int(rng.integers(0, 3))
        proc = random_adapted_process(rng, grid, truncation, max_deg, off_diagonal=trial % 2 == 0)
        if trial % 3 == 0:
            proc = FockStepProcess(grid, tuple(_small_values(rng, v) for v in proc.values))
        assert _outcome(fock_ito.ito_wick, proc) == _outcome(oracle.ito_wick, proc), trial


def _verdicts(a, mart, js) -> list:
    return [(check_measurable(a, mart, j).ok, oracle.is_measurable(a, mart, j)) for j in js]


def test_measurability_verdicts_match_per_column_check():
    verdicts = []
    for trial in range(300):
        rng = generator(4300, trial)
        n = int(rng.integers(1, 6))
        mart = random_martingale(rng, random_grid(rng, n), int(rng.integers(2, 9)))
        proc = random_measurable_process(rng, mart, scalar_action=trial % 2 == 1)
        for k in range(1, n + 1):
            verdicts += _verdicts(proc.operator(k), mart, range(n + 1))
        alive = [k for k in range(1, n + 1) if mart.mu(k) > 1e-12]
        if len(alive) >= 2:
            q1, q2 = (mart.increment(i) / np.linalg.norm(mart.increment(i)) for i in (alive[0], alive[-1]))
            verdicts += _verdicts(np.outer(q1, q2.conj()), mart, range(n + 1))
        verdicts += _verdicts(random_complex(rng, mart.dim, mart.dim), mart, range(n + 1))
    for trial in range(30):
        rng = generator(4400, trial)
        grid = random_grid(rng, int(rng.integers(1, 4)))
        max_deg = int(rng.integers(0, 3))
        real = wick_operator_process(random_adapted_process(rng, grid, max_deg + 1, max_deg))
        for a in real.process.operators:
            dense = a @ np.eye(real.dim)
            for j in range(grid.n + 1):
                verdicts.append((check_measurable(a, real.martingale, j).ok, oracle.is_measurable(dense, real.martingale, j)))
    for n in range(1, 5):
        space = BernoulliSpace(random_grid(generator(4500, n), n))
        real = classical_realization(space)
        rng = generator(4600, n)
        for k in range(n + 1):
            a = multiplication_operator(cond_expect(RandomVariable(space, random_complex(rng, space.size)), k))
            dense = a @ np.eye(space.dim)
            verdicts += [(check_measurable(a, real, j).ok, oracle.is_measurable(dense, real, j)) for j in range(n + 1)]
    assert all(new == ref for new, ref in verdicts)
    assert {ref for _, ref in verdicts} == {True, False}


def _frozen_report(a, mart, j) -> tuple:
    """(ok, commutator deviation, batched norms, loop norms) of the frozen
    checks: the masked batch of norms, and the loop over the boundaries,
    which takes each norm from its own span's columns and the commutator
    deviation in the same pass."""
    batch = oracle.batched_restricted_norms(a, mart, j)
    norms, comm_dev = oracle.boundary_loop(a, mart, j)
    ref = max(batch, default=0.0)
    frobenius = np.linalg.norm(a.values if isinstance(a, SparseOperator) else a)
    roundoff = float(4 * mart.dim * np.finfo(float).eps * frobenius)
    ok = j == mart.grid.n or (ref - min(batch, default=0.0) <= NORM_RTOL * ref + roundoff and comm_dev <= COMMUTE_TOL * ref + roundoff)
    return ok, comm_dev, batch, norms


def _matches_the_batch(a, mart, j) -> tuple[bool, int, int]:
    """Assert that check_measurable agrees with the frozen checks: the
    verdict exactly, the first restricted norm bit for bit with both, the
    last bit for bit with the loop's; the last norm, the norm deviation and
    the commutator deviation within 4 * dim * eps of the largest batched
    norm.  Returns (verdict, checks with a span, moved commutator ones)."""
    report = check_measurable(a, mart, j)
    ok, comm_dev, batch, norms = _frozen_report(a, mart, j)
    assert report.ok == ok
    assert len(batch) == len(norms)
    if not batch:
        assert (report.norm_deviation, report.commutator_deviation, report.restricted_norms) == (0.0, 0.0, ())
        return ok, 0, 0
    first, last = report.restricted_norms[0], report.restricted_norms[-1]
    assert first.hex() == batch[0].hex() == norms[0].hex()
    assert last.hex() == norms[-1].hex()
    allowance = 4 * mart.dim * np.finfo(float).eps * max(batch)
    assert abs(last - batch[-1]) <= allowance
    assert abs(report.norm_deviation - (max(batch) - min(batch))) <= allowance
    assert abs(report.commutator_deviation - comm_dev) <= allowance
    return ok, 1, int(report.commutator_deviation != comm_dev)


def _measurability_cases():
    """(operator, martingale) pairs: the hstoch trial stream of `verify all
    --trials 600 --seed 42` (suite id 0), Wick bridges adapted and not, and
    multiplication operators on sign spaces of 1-5 cells."""
    for t in range(600):
        rng = generator(42, 0, t)
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        mart = random_martingale(rng, random_grid(rng, n), d)
        ops = list(random_measurable_process(rng, mart, scalar_action=t % 2 == 1).operators)
        span = future_increment_span(mart, 0)
        if span.shape[1] >= 2:
            ops.append(np.outer(span[:, 0], span[:, -1].conj()))
        yield from ((a, mart) for a in ops)
    for trial in range(40):
        rng = generator(5500, trial)
        grid = random_grid(rng, int(rng.integers(1, 5)))
        max_deg = int(rng.integers(0, 4))
        if trial % 2:
            proc = random_adapted_process(rng, grid, max_deg + 1, max_deg, off_diagonal=trial % 4 == 1)
        else:
            proc = FockStepProcess(grid, tuple(random_fock_vector(rng, grid, max_deg).pad(max_deg + 1) for _ in range(grid.n)))
        real = wick_operator_process(proc)
        yield from ((a, real.martingale) for a in real.process.operators)
    for n in range(1, 6):
        space = BernoulliSpace(random_grid(generator(5600, n), n))
        real = classical_realization(space)
        rng = generator(5700, n)
        for k in range(n + 1):
            yield multiplication_operator(cond_expect(RandomVariable(space, random_complex(rng, space.size)), k)), real


def test_measurability_matches_the_frozen_batched_norms():
    seen = [_matches_the_batch(a, mart, j) for a, mart in _measurability_cases() for j in range(mart.grid.n + 1)]
    passed, spanned, moved = np.sum(seen, axis=0)
    assert 0 < passed < len(seen)
    assert spanned > 5000 and moved < spanned


def _per_column_deviation(a, mart, j) -> float:
    """max over the span columns g at j, g of cell c, of ||E_{c-1} A g|| and
    ||(I - E_c) A g||, with E_{c-1} and I - E_c summed from the measure's
    dense parts."""
    parts, dense, worst = oracle.dense_parts(mart.measure), a @ np.eye(mart.dim), 0.0
    for c in range(j + 1, mart.grid.n + 1):
        inc = mart.increment(c)
        if np.linalg.norm(inc) >= DEGENERATE_TOL:
            ag = dense @ (inc / np.linalg.norm(inc))
            worst = max(worst, np.linalg.norm(parts[:c].sum(axis=0) @ ag), np.linalg.norm(parts[c + 1 :].sum(axis=0) @ ag))
    return float(worst)


def test_measurability_closed_form_matches_its_dense_statement():
    # the commutator deviation in its per-column form, and the first and
    # last restricted norms bounding every frozen per-boundary one
    # within the check's round-off allowance 4 * dim * eps * ||A||_F
    for a, mart in _measurability_cases():
        roundoff = 4 * mart.dim * np.finfo(float).eps * np.linalg.norm(a @ np.eye(mart.dim))
        for j in range(mart.grid.n + 1):
            report = check_measurable(a, mart, j)
            assert abs(report.commutator_deviation - _per_column_deviation(a, mart, j)) <= roundoff
            norms = oracle.boundary_loop(a, mart, j)[0]
            if norms:
                first, last = report.restricted_norms[0], report.restricted_norms[-1]
                assert last - roundoff <= min(norms) and max(norms) <= first + roundoff


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def _report_hex(report) -> list:
    return [x.hex() for x in (report.norm_deviation, report.commutator_deviation, *report.restricted_norms)]


def test_wick_operator_triplets_match_the_frozen_dense_matrices():
    # processes adapted and not, on 1-4 cells at truncation <= 4
    adapted, verdicts = set(), set()
    for trial in range(240):
        rng = generator(5000, trial)
        grid = random_grid(rng, int(rng.integers(1, 5)))
        max_deg = int(rng.integers(0, 4))
        if trial % 2:
            proc = random_adapted_process(rng, grid, max_deg + 1, max_deg, off_diagonal=trial % 4 == 1)
        else:
            values = (random_fock_vector(rng, grid, max_deg).pad(max_deg + 1) for _ in range(grid.n))
            proc = FockStepProcess(grid, tuple(values))
        adapted.add(check_adapted(proc).ok)
        real, frozen = wick_operator_process(proc), oracle.wick_operator_matrices(proc)
        mart = real.martingale
        for a, matrix in zip(real.process.operators, frozen):
            assert np.array_equal(_bits(a @ np.eye(real.dim)), _bits(matrix)), trial
            for j in range(grid.n + 1):
                sparse, dense = check_measurable(a, mart, j), check_measurable(matrix, mart, j)
                assert sparse.ok == dense.ok, (trial, j)
                assert _report_hex(sparse) == _report_hex(dense), (trial, j)
                verdicts.add(sparse.ok)
        dense_proc = OperatorStepProcess(grid, tuple(frozen))
        assert np.array_equal(_bits(stochastic_integral(real.process, mart)), _bits(stochastic_integral(dense_proc, mart)))
    assert adapted == verdicts == {True, False}


def _per_cell_svd_rhs(proc, mart) -> float:
    """The bound's right side from one SVD of A_k on the span at k-1 per
    cell, summed in cell order, then sqrt-then-square."""
    acc = 0.0
    for k in range(1, mart.grid.n + 1):
        basis = future_increment_span(mart, k - 1)
        norm = float(np.linalg.norm(proc.operator(k) @ basis, 2)) if basis.shape[1] else 0.0
        acc += norm**2 * mart.mu(k)
    return float(np.sqrt(acc)) ** 2


def test_norm_bound_rhs_matches_a_per_cell_svd():
    # the hstoch trial stream of `verify all --trials 600 --seed 42`
    # (suite id 0, 4 cells at most)
    pairs = 0
    for t in range(600):
        rng = generator(42, 0, t)
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 9))
        mart = random_martingale(rng, random_grid(rng, n), d)
        proc = random_measurable_process(rng, mart, scalar_action=t % 2 == 1)
        rhs = integral_norm_bound(proc, mart)[1]
        assert rhs.hex() == _per_cell_svd_rhs(proc, mart).hex(), t
        oracle_norms = [oracle.measurability_deviations(a, mart, j)[0] for j, a in enumerate(proc.operators)]
        ref = sum(norms[0] ** 2 * mart.mu(k) if norms else 0.0 for k, norms in enumerate(oracle_norms, start=1))
        assert abs(rhs - ref) <= 1e-12 * max(1.0, ref), t
        pairs += n
    assert pairs == 1491


def test_future_increment_span_is_a_read_only_cache():
    rng = generator(4700)
    for n in range(1, 6):
        mart = random_martingale(rng, random_grid(rng, n), 6)
        for j in range(n + 1):
            span = future_increment_span(mart, j)
            assert np.array_equal(span, oracle.future_increment_span(mart, j))
            if span.size:
                with pytest.raises(ValueError):
                    span[0, 0] = 7.0
        assert np.array_equal(future_increment_span(mart, 0), oracle.future_increment_span(mart, 0))


def test_label_measure_matches_its_dense_diagonal_parts():
    # a second martingale on the measure recovered, through one
    # eigendecomposition, from the 0/1 parts rebuilt from the labels
    for trial in range(30):
        rng = generator(4900, trial)
        grid = random_grid(rng, int(rng.integers(1, 5)))
        max_deg = int(rng.integers(0, 4))
        proc = random_adapted_process(rng, grid, int(rng.integers(max_deg + 1, 5)), max_deg, off_diagonal=trial % 2 == 0)
        real = wick_operator_process(proc)
        labels, parts = real.martingale.measure, oracle.dense_parts(real.martingale.measure)
        dense = VectorMartingale(ProjectorMeasure.from_projections(grid, parts[0], parts[1:]), real.martingale.vector)
        block = random_complex(rng, labels.dim, 3)
        for k in range(grid.n + 1):
            assert np.array_equal(labels.project(k, block[:, 0]), parts[k] @ block[:, 0])
            assert np.array_equal(labels.project(k, block), parts[k] @ block)
            assert np.array_equal(dense.measure.project(k, block), parts[k] @ block)
        for k in range(1, grid.n + 1):
            assert np.array_equal(real.martingale.increment(k), dense.increment(k))
        for j in range(grid.n + 1):
            assert np.array_equal(future_increment_span(real.martingale, j), future_increment_span(dense, j))
            for a in real.process.operators:
                assert check_measurable(a, real.martingale, j) == check_measurable(a, dense, j)
        assert np.array_equal(
            stochastic_integral(real.process, real.martingale),
            stochastic_integral(real.process, dense),
        )


def _projects_like(measure, parts, rng) -> bool:
    """project(k, X) lies within 4 * dim * eps * ||X|| of the frozen P_k @ X
    at every k, for a vector and for a block of columns."""
    block = random_complex(rng, measure.dim, 3)
    roundoff = 4 * measure.dim * np.finfo(float).eps
    return all(
        np.linalg.norm(measure.project(k, x) - p @ x) <= roundoff * np.linalg.norm(x)
        for k, p in enumerate(parts)
        for x in (block[:, 0], block)
    )


def test_measure_projections_match_the_frozen_parts():
    # random measures against their frame multiplied out from the same
    # draws, the Wick bridge's against 0/1 diagonals, sign spaces against
    # their Kronecker-product parts
    for trial in range(300):
        rng = generator(5200, trial)
        grid = random_grid(rng, int(rng.integers(1, 6)))
        dim = int(rng.integers(2, 9))
        twin = copy.deepcopy(rng)
        measure = random_projector_measure(rng, grid, dim)
        parts = oracle.frame_parts(random_unitary(twin, dim), twin.integers(0, grid.n + 1, size=dim), grid.n)
        assert _projects_like(measure, parts, rng), trial
    for trial in range(30):
        rng = generator(5300, trial)
        grid = random_grid(rng, int(rng.integers(1, 4)))
        max_deg = int(rng.integers(0, 3))
        measure = wick_operator_process(random_adapted_process(rng, grid, max_deg + 1, max_deg)).martingale.measure
        assert _projects_like(measure, oracle.frame_parts(np.eye(measure.dim), measure.labels, grid.n), rng), trial
    for n in range(1, 6):
        rng = generator(5400, n)
        space = BernoulliSpace(random_grid(rng, n))
        assert _projects_like(space, oracle.dense_parts(space), rng), n


def test_bernoulli_increments_and_chaos_map_match_rebuilt_ones():
    for n in range(1, 6):
        rng = generator(4800, n)
        space = BernoulliSpace(random_grid(rng, n))
        for k in range(1, n + 1):
            inc = space.increment(k).values
            assert np.array_equal(inc, oracle.bernoulli_increment(space, k).values)
            with pytest.raises(ValueError):
                inc[0] = 7.0
            assert np.array_equal(space.increment(k).values, oracle.bernoulli_increment(space, k).values)
        for trial in range(40):
            f = random_fock_vector(rng, space.grid, int(rng.integers(0, n + 1)), strict=True)
            assert np.array_equal(chaos_map(f, space).values, oracle.chaos_map(f, space).values)


def test_conditional_average_matches_the_frozen_reshape_mean():
    # a vector and a block on sign spaces of 1-7 cells, at every boundary
    for n in range(1, 8):
        rng = generator(5800, n)
        block = random_complex(rng, 1 << n, 3)
        for x in (block[:, 0].copy(), block):
            for k in range(n + 1):
                assert np.array_equal(_bits(bernoulli._average(x, n, k)), _bits(oracle.conditional_average(x, n, k))), (n, k)


def test_multiplication_operator_matches_the_frozen_dense_diagonal():
    # on sign spaces of 1-7 cells: Walsh products, whose values are +-1, and
    # random functions of the first k coordinates at every k, so that both
    # verdicts occur; the product with a block bit for bit, and every field
    # of the measurability report.  BLAS forms a dense matrix-vector
    # product's complex entries with a fused multiply-add, so a vector is
    # compared bit for bit with numpy's f * x and within eps * |f| * |x| per
    # part of the dense product
    eps, products, verdicts = np.finfo(float).eps, 0, set()
    for n in range(1, 8):
        rng = generator(5900, n)
        space = BernoulliSpace(random_grid(rng, n))
        real = classical_realization(space)
        walsh = [space.walsh(range(1, c + 1)) for c in range(n + 1)]
        adapted = [cond_expect(RandomVariable(space, random_complex(rng, space.size)), k) for k in range(n + 1)]
        block = random_complex(rng, space.size, 3)
        for f in walsh + adapted:
            a, dense = multiplication_operator(f), oracle.multiplication_matrix(f)
            x = block[:, 0].copy()
            got, ref = a @ x, dense @ x
            assert np.array_equal(_bits(got), _bits(f.values * x)), n
            allowance = eps * np.abs(f.values) * np.abs(x)
            assert np.all(np.abs(got.real - ref.real) <= allowance) and np.all(np.abs(got.imag - ref.imag) <= allowance), n
            assert np.array_equal(_bits(a @ block), _bits(dense @ block)), n
            products += 2
            for j in range(n + 1):
                new, ref = check_measurable(a, real, j), check_measurable(dense, real, j)
                assert (new.ok, new.boundary, *_report_hex(new)) == (ref.ok, ref.boundary, *_report_hex(ref)), (n, j)
                verdicts.add(new.ok)
    assert products == 2 * sum(2 * (n + 1) for n in range(1, 8))
    assert verdicts == {True, False}
