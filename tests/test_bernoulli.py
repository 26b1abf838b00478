import tracemalloc

import numpy as np
import pytest

import oracle

from stochint import fock, suites, symtensor
from stochint.bernoulli import (
    PREDICTABILITY_TOL,
    BernoulliSpace,
    RandomVariable,
    chaos_integral_pair,
    chaos_map,
    check_size,
    classical_realization,
    cond_expect,
    discrete_ito,
    is_measurable_at,
    max_abs,
    measurability_equivalence,
    multiplication_integral_pair,
    multiplication_operator,
)
from stochint.errors import NotAdaptedError, NotRepresentableError, RefusalError
from stochint.fock import FockVector, cell_increment, resolution_project, vacuum, zero_vector
from stochint.fock_ito import FockStepProcess
from stochint.grid import uniform_grid
from stochint.operator_integral import future_increment_span
from stochint.randomgen import (
    generator,
    random_adapted_process,
    random_fock_vector,
    random_grid,
    random_predictable,
    random_sym_coeffs,
)

G2 = uniform_grid(1.0, 2)
SP2 = BernoulliSpace(G2)
REAL2 = classical_realization(SP2)


def test_space_basics():
    assert SP2.size == 4
    probs = np.full(SP2.size, 1 / SP2.size)
    assert probs.sum() == 1.0
    assert SP2.constant(1.0).norm2() == pytest.approx(1.0)


def test_normal_martingale_identities_exact():
    for cells in (1, 2, 3, 5):
        rng = generator(42 + cells)
        sp = BernoulliSpace(random_grid(rng, cells))
        for k in range(1, sp.n + 1):
            inc = sp.increment(k)
            assert max_abs(cond_expect(inc, k - 1)) == 0.0
            var = cond_expect(inc * inc, k - 1) - sp.constant(sp.grid.length(k))
            assert max_abs(var) < 1e-15


def test_cond_expect_examples():
    xi1, xi2 = SP2.xi(1), SP2.xi(2)
    assert max_abs(cond_expect(xi2, 1)) == 0.0
    prod = xi1 * xi2
    assert max_abs(cond_expect(prod, 2) - prod) == 0.0
    assert max_abs(cond_expect(xi1 + xi2, 1) - xi1) == 0.0
    assert max_abs(cond_expect(xi1, 0)) == 0.0


def test_cond_expect_projection_properties():
    rng = generator(51)
    sp = BernoulliSpace(uniform_grid(1.0, 4))
    x = RandomVariable(sp, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    y = RandomVariable(sp, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    for k in range(5):
        ck = cond_expect(x, k)
        assert max_abs(cond_expect(ck, k) - ck) < 1e-15
        assert abs(cond_expect(x, k).inner(y) - x.inner(cond_expect(y, k))) < 1e-14
        assert ck.norm2() <= x.norm2() + 1e-14
        for j in range(k):
            assert max_abs(cond_expect(ck, j) - cond_expect(x, j)) < 1e-15
    with pytest.raises(ValueError):
        cond_expect(x, 5)


def test_discrete_ito_constant_one_gives_walk():
    out = discrete_ito(SP2, [SP2.constant(1.0)] * 2)
    assert max_abs(out - SP2.walk_at(2)) == 0.0


def test_discrete_ito_formula_and_increment_integrand():
    xi1, xi2 = SP2.xi(1), SP2.xi(2)
    # literal formula: F_2 = xi_1 integrates to xi_1 xi_2 sqrt(l_2)
    out = discrete_ito(SP2, [SP2.constant(0.0), xi1])
    assert max_abs(out - np.sqrt(0.5) * xi1 * xi2) < 1e-15
    # integrating the first increment gives the half product
    out = discrete_ito(SP2, [SP2.constant(0.0), SP2.increment(1)])
    assert max_abs(out - 0.5 * xi1 * xi2) < 1e-15


def test_discrete_ito_rejects_unpredictable():
    with pytest.raises(NotAdaptedError) as err:
        discrete_ito(SP2, [SP2.xi(1), SP2.constant(0.0)])
    assert err.value.cell == 1


def test_discrete_ito_refuses_a_non_finite_integrand():
    # NaN compares false with every bound, and inf - inf is NaN: neither
    # may read as an integrand that is not adapted
    for bad in (np.nan, np.inf):
        f = RandomVariable(SP2, np.array([1.0, 2.0, bad, 1.0]))
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite") as err:
            discrete_ito(SP2, [SP2.constant(0.0), f])
        assert not isinstance(err.value, NotAdaptedError)


def test_predictability_allows_the_round_off_of_the_average():
    # the transported integrand of cell 2 in the bernoulli suite's trial 3000
    # of seed 1, on 17 cells: a function of the first coordinate whose
    # average over the 2^16 points of each half lands 1.55e-12 from it
    rng = generator(1, suites._BERNOULLI, 3000)
    n = int(rng.integers(2, 18))
    assert n == 17
    space = BernoulliSpace(uniform_grid(1.0, n))
    proc = random_adapted_process(rng, space.grid, 3, 2, off_diagonal=True)
    f = chaos_map(proc.value(2), space)
    assert max_abs(f - cond_expect(f, 1)) > PREDICTABILITY_TOL
    assert is_measurable_at(f, 1) and is_measurable_at(1e6 * f, 1)
    moved = f.values.copy()
    moved[0] += 1e-9 * max_abs(f)
    assert not is_measurable_at(RandomVariable(space, moved), 1)


def test_classical_realization_holds_one_increment_table():
    # the martingale of a 12-cell sign space stores its n increments of
    # 2^n entries each, about one n x 2^n complex array, and no normalized
    # copy of them
    space = BernoulliSpace(uniform_grid(1.0, 12))
    table_bytes = space.n * space.size * 16
    tracemalloc.start()
    try:
        real = classical_realization(space)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert future_increment_span(real, 0).shape == (space.size, space.n)
    assert held < 1.25 * table_bytes


def test_discrete_ito_isometry():
    for seed in range(40):
        rng = generator(1700 + seed)
        sp = BernoulliSpace(random_grid(rng, int(rng.integers(1, 6))))
        fs = random_predictable(rng, sp)
        out = discrete_ito(sp, fs)
        expected = sum(f.norm2() * sp.grid.length(k) for k, f in enumerate(fs, start=1))
        assert out.norm2() == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_multiplication_operator_diagonal_adjoint():
    def matrix(f):
        return multiplication_operator(f) @ np.eye(SP2.dim)

    xi1 = SP2.xi(1)
    np.testing.assert_allclose(matrix(xi1), np.diag(xi1.values), atol=0)
    f = RandomVariable(SP2, np.array([1j, 2.0, -1.0, 0.5j]))
    np.testing.assert_allclose(matrix(f).conj().T, matrix(RandomVariable(SP2, f.values.conj())), atol=0)
    np.testing.assert_allclose(matrix(SP2.constant(1.0)), np.eye(4), atol=0)


def test_classical_realization_measures_cell_lengths():
    rng = generator(61)
    sp = BernoulliSpace(random_grid(rng, 4))
    real = classical_realization(sp)
    assert real.measure is sp
    for k in range(1, 5):
        assert real.mu(k) == pytest.approx(sp.grid.length(k), abs=1e-12)
    # the terminal walk value scaled by 2^(-n/2), so that E[|W|^2] = ||vector||^2
    assert np.array_equal(real.vector * 4, sp.walk_at(4).values)


def test_classical_realization_matches_column_by_column_construction():
    # P_k, the atom P_0 included, applied to the identity block and to one
    # column of it, against the Kronecker-product parts of tests/oracle.py
    for n in range(1, 8):
        sp = BernoulliSpace(random_grid(generator(62, n), n))
        eye = np.eye(sp.size, dtype=complex)
        parts = oracle.dense_parts(sp)
        for k in range(n + 1):
            assert np.array_equal(sp.project(k, eye), parts[k])
            assert np.array_equal(sp.project(k, eye[:, -1]), parts[k][:, -1])


def test_measurability_equivalence_examples():
    xi1, xi2 = SP2.xi(1), SP2.xi(2)
    v = measurability_equivalence(xi1, 1, REAL2)
    assert v.classical and v.operator and v.agree
    assert v.restricted_norms == pytest.approx((1.0,), abs=1e-10)
    assert v.function_norm == pytest.approx(1.0)

    v = measurability_equivalence(xi2, 1, REAL2)
    assert not v.classical and not v.operator and v.agree

    for k in range(3):
        v = measurability_equivalence(SP2.constant(2.5), k, REAL2)
        assert v.classical and v.operator
        for nu in v.restricted_norms:
            assert nu == pytest.approx(2.5, abs=1e-10)


def test_measurability_equivalence_exhaustive_small():
    from itertools import chain, combinations

    for n in (1, 2, 3):
        sp = BernoulliSpace(uniform_grid(1.0, n))
        real = classical_realization(sp)
        subsets = chain.from_iterable(combinations(range(1, n + 1), r) for r in range(n + 1))
        for cells in subsets:
            f = sp.walsh(cells)
            for k in range(n + 1):
                v = measurability_equivalence(f, k, real)
                assert v.agree
                expected = max(cells, default=0) <= k
                assert v.classical == expected
                if v.classical:
                    for nu in v.restricted_norms:
                        assert abs(nu - v.function_norm) < 1e-10


def test_multiplication_route_examples_and_random():
    ops, incs = multiplication_integral_pair([SP2.constant(1.0)] * 2, REAL2)
    assert max_abs(ops - SP2.walk_at(2)) < 1e-14
    assert max_abs(ops - incs) < 1e-14

    ops, incs = multiplication_integral_pair([SP2.constant(0.0), SP2.increment(1)], REAL2)
    assert max_abs(ops - 0.5 * SP2.xi(1) * SP2.xi(2)) < 1e-14
    # a family that is not predictable is refused once, by the increment route
    with pytest.raises(NotAdaptedError) as err:
        multiplication_integral_pair([SP2.xi(1), SP2.constant(1.0)], REAL2)
    assert err.value.cell == 1

    for seed in range(30):
        rng = generator(1800 + seed)
        sp = BernoulliSpace(random_grid(rng, int(rng.integers(1, 6))))
        real = classical_realization(sp)
        fs = random_predictable(rng, sp)
        ops, incs = multiplication_integral_pair(fs, real)
        assert max_abs(ops - incs) < 1e-12


def test_chaos_map_examples():
    assert max_abs(chaos_map(vacuum(G2), SP2) - SP2.constant(1.0)) == 0.0

    f = FockVector(G2, (symtensor.zero(G2, 0), np.sqrt(2.0) * symtensor.cell_indicator(G2, 1)))
    assert max_abs(chaos_map(f, SP2) - SP2.xi(1)) < 1e-15

    f2 = FockVector(
        G2, (symtensor.zero(G2, 0), symtensor.zero(G2, 1), oracle.sym_coeffs(G2, 2, {(1, 2): 0.5}))
    )
    image = chaos_map(f2, SP2)
    assert max_abs(image - 0.5 * SP2.xi(1) * SP2.xi(2)) < 1e-15
    assert image.norm2() == pytest.approx(fock.fock_inner(f2, f2).real, abs=1e-14)


def test_chaos_map_rejects_diagonal():
    diag = FockVector(
        G2, (symtensor.zero(G2, 0), symtensor.zero(G2, 1), oracle.sym_coeffs(G2, 2, {(1, 1): 1.0}))
    )
    with pytest.raises(NotRepresentableError) as err:
        chaos_map(diag, SP2)
    assert err.value.multiset == (1, 1)


def test_chaos_isometry_random_pairs():
    for seed in range(60):
        rng = generator(1900 + seed)
        n = int(rng.integers(1, 6))
        sp = BernoulliSpace(uniform_grid(1.0, n))
        f = random_fock_vector(rng, sp.grid, min(n, 3), strict=True)
        g = random_fock_vector(rng, sp.grid, min(n, 3), strict=True)
        lhs = chaos_map(f, sp).inner(chaos_map(g, sp))
        rhs = fock.fock_inner(f, g)
        assert abs(lhs - rhs) < 1e-12


def test_chaos_map_holds_one_degree_at_a_time():
    # every strict multiset of degrees 1-3 on 12 cells: 12, 66 and 220 rows
    # of 2^12 points; the call may hold the largest degree's rows and a few
    # more, not all of them nor a gathered copy of them
    rng = generator(4900)
    space = BernoulliSpace(random_grid(rng, 12))
    comps = [random_sym_coeffs(rng, space.grid, d, strict=True, entries=symtensor.size(12, d)) for d in range(4)]
    f = FockVector(space.grid, tuple(comps))
    rows = [comp.stored().size for comp in comps[1:]]
    assert rows == [12, 66, 220]
    tracemalloc.start()
    try:
        image = chaos_map(f, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(image.values, oracle.chaos_map(f, space).values)
    assert peak < 1.25 * max(rows) * space.size * 16


def test_chaos_map_is_onto_small_space():
    # off-diagonal multisets count 2^n and map to the orthogonal sign products
    from itertools import chain, combinations

    n = 3
    sp = BernoulliSpace(uniform_grid(1.0, n))
    multisets = list(chain.from_iterable(combinations(range(1, n + 1), d) for d in range(n + 1)))
    assert len(multisets) == sp.size
    images = []
    for ms in multisets:
        d = len(ms)
        comps = [
            oracle.sym_coeffs(sp.grid, deg, {tuple(ms): 1.0} if deg == d else {}) for deg in range(d + 1)
        ]
        images.append(chaos_map(FockVector(sp.grid, tuple(comps)), sp))
    gram = np.array([[a.inner(b) for b in images] for a in images])
    assert np.linalg.matrix_rank(gram) == sp.size


def test_chaos_intertwines_projections():
    for seed in range(20):
        rng = generator(2000 + seed)
        n = int(rng.integers(1, 5))
        sp = BernoulliSpace(uniform_grid(1.0, n))
        f = random_fock_vector(rng, sp.grid, min(n, 2), strict=True)
        for j in range(n + 1):
            a = chaos_map(resolution_project(f, j), sp)
            b = cond_expect(chaos_map(f, sp), j)
            assert max_abs(a - b) < 1e-13


def test_chaos_integral_pair_examples():
    left, right, transported = chaos_integral_pair(
        FockStepProcess(G2, (vacuum(G2, 1), vacuum(G2, 1))), SP2
    )
    assert max_abs(left - SP2.walk_at(2)) < 1e-14
    assert max_abs(left - right) < 1e-14

    proc = FockStepProcess(G2, (zero_vector(G2, 2), cell_increment(G2, 1).pad(2)))
    left, right, transported = chaos_integral_pair(proc, SP2)
    assert max_abs(left - 0.5 * SP2.xi(1) * SP2.xi(2)) < 1e-14
    assert max_abs(left - right) < 1e-14
    assert max_abs(transported[1] - SP2.increment(1)) < 1e-14


def test_chaos_integral_pair_random():
    for seed in range(60):
        rng = generator(2100 + seed)
        n = int(rng.integers(2, 6))
        sp = BernoulliSpace(uniform_grid(1.0, n))
        proc = random_adapted_process(rng, sp.grid, 3, 2, off_diagonal=True)
        left, right, transported = chaos_integral_pair(proc, sp)
        assert max_abs(left - right) < 1e-12
        for k, f_k in enumerate(transported, start=1):
            assert is_measurable_at(f_k, k - 1)


def test_check_size_is_the_rule_the_constructor_refuses_by(monkeypatch):
    check_size(17)
    message = "a sign space on 18 cells has 4718592 increment entries, over the limit 4194304"
    for refused in (lambda: check_size(18), lambda: BernoulliSpace(uniform_grid(1.0, 18))):
        with pytest.raises(RefusalError, match=f"^{message}$"):
            refused()
    # both read the limit at call time: 4 cells hold 64 entries, 5 cells 160
    monkeypatch.setattr(symtensor, "MAX_ENTRIES", 64)
    check_size(4)
    assert BernoulliSpace(uniform_grid(1.0, 4)).size == 16
    for refused in (lambda: check_size(5), lambda: BernoulliSpace(uniform_grid(1.0, 5))):
        with pytest.raises(RefusalError, match="^a sign space on 5 cells has 160 increment entries, over the limit 64$"):
            refused()
