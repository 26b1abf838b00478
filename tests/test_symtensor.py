import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest

from stochint.errors import ShapeMismatchError
from stochint.grid import uniform_grid
from stochint.randomgen import generator, random_grid, random_sym_coeffs
from stochint import fock, symtensor
from stochint.symtensor import (
    SymCoeffs,
    block_weight,
    cell_indicator,
    entrywise_distance,
    norm2,
    ones,
    scalar,
    sym_inner,
    sym_tensor,
    symmetrize_insert,
)

from oracle import dense_from_sym, dense_inner, dense_sym_tensor, dense_symmetrize_insert, sym_coeffs

G2 = uniform_grid(1.0, 2)


def test_block_weights_on_two_cells():
    assert block_weight(G2, (1, 1)) == pytest.approx(0.25)
    assert block_weight(G2, (1, 2)) == pytest.approx(0.5)
    assert block_weight(G2, (2, 2)) == pytest.approx(0.25)


@pytest.mark.parametrize("multiset", [(0, 1), (3,), (1, 2, 3)])
def test_block_weight_refuses_a_cell_outside_the_grid(multiset):
    with pytest.raises(ValueError, match="outside 1..2"):
        block_weight(G2, multiset)


@pytest.mark.parametrize("multiset", [(0, 1), (3, 3), (1, 3)])
def test_coefficient_lookup_refuses_a_cell_outside_the_grid(multiset):
    with pytest.raises(ValueError, match="outside 1..2"):
        ones(G2, 2)[multiset]


@pytest.mark.parametrize("multiset", [(), (1,), (1, 2, 2)])
def test_coefficient_lookup_refuses_a_key_of_another_degree(multiset):
    with pytest.raises(ShapeMismatchError, match="multiset of 2 cells"):
        ones(G2, 2)[multiset]


def test_inner_indicator_norm():
    f = ones(G2, 1)
    assert sym_inner(f, f) == pytest.approx(1.0)


def test_inner_degree2_all_ones():
    f = ones(G2, 2)
    assert sym_inner(f, f) == pytest.approx(1.0)


def test_inner_scalars():
    assert sym_inner(scalar(G2, 2.0), scalar(G2, 3j)) == pytest.approx(6j)


def test_inner_conjugate_linear_first_slot():
    rng = generator(7)
    f = random_sym_coeffs(rng, G2, 2)
    g = random_sym_coeffs(rng, G2, 2)
    assert sym_inner(2j * f, g) == pytest.approx(np.conj(2j) * sym_inner(f, g))
    assert sym_inner(f, 2j * g) == pytest.approx(2j * sym_inner(f, g))


def test_inner_shape_errors():
    with pytest.raises(ShapeMismatchError):
        sym_inner(ones(G2, 1), ones(G2, 2))
    with pytest.raises(ShapeMismatchError):
        sym_inner(ones(G2, 1), ones(uniform_grid(1.0, 3), 1))


def test_tensor_same_cell():
    e1 = cell_indicator(G2, 1)
    assert sym_tensor(e1, e1)[(1, 1)] == pytest.approx(1.0)


def test_tensor_cross_cell():
    out = sym_tensor(cell_indicator(G2, 1), cell_indicator(G2, 2))
    assert out[(1, 2)] == pytest.approx(0.5)
    assert out[(1, 1)] == 0.0


def test_tensor_scalar_unit():
    rng = generator(11)
    f = random_sym_coeffs(rng, G2, 2)
    assert entrywise_distance(sym_tensor(f, scalar(G2, 1.0)), f) == 0.0


def test_tensor_matches_dense_oracle():
    for seed in range(40):
        rng = generator(100 + seed)
        grid = random_grid(rng, int(rng.integers(1, 5)))
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 4 - p)) if p < 3 else 0
        f = random_sym_coeffs(rng, grid, p, entries=4)
        g = random_sym_coeffs(rng, grid, q, entries=4)
        got = dense_from_sym(sym_tensor(f, g))
        want = dense_sym_tensor(dense_from_sym(f), dense_from_sym(g))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_inner_matches_dense_oracle():
    for seed in range(20):
        rng = generator(200 + seed)
        grid = random_grid(rng, int(rng.integers(1, 5)))
        d = int(rng.integers(0, 4))
        f = random_sym_coeffs(rng, grid, d, entries=5)
        g = random_sym_coeffs(rng, grid, d, entries=5)
        want = dense_inner(grid, dense_from_sym(f), dense_from_sym(g))
        assert sym_inner(f, g) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_cross_norm_inequality():
    for seed in range(30):
        rng = generator(300 + seed)
        grid = random_grid(rng, int(rng.integers(1, 5)))
        f = random_sym_coeffs(rng, grid, int(rng.integers(0, 3)), entries=4)
        g = random_sym_coeffs(rng, grid, int(rng.integers(0, 3)), entries=4)
        assert norm2(sym_tensor(f, g)) <= norm2(f) * norm2(g) * (1 + 1e-12) + 1e-15


def test_inner_positive_definite():
    rng = generator(17)
    for _ in range(20):
        grid = random_grid(rng, int(rng.integers(1, 5)))
        f = random_sym_coeffs(rng, grid, int(rng.integers(0, 4)), entries=4)
        v = sym_inner(f, f)
        assert abs(v.imag) < 1e-14
        assert v.real >= 0.0
        if not f.is_zero():
            assert v.real > 0.0
    assert sym_inner(symtensor.zero(G2, 2), symtensor.zero(G2, 2)) == 0.0


def test_symmetrize_degree_one_is_step_function():
    out = symmetrize_insert([scalar(G2, 2.0), scalar(G2, -1.0)])
    assert out.degree == 1
    assert out[(1,)] == pytest.approx(2.0)
    assert out[(2,)] == pytest.approx(-1.0)


def test_symmetrize_worked_example():
    out = symmetrize_insert([symtensor.zero(G2, 1), cell_indicator(G2, 1)])
    assert out[(1, 2)] == pytest.approx(0.5)
    assert out[(1, 1)] == 0.0
    assert out[(2, 2)] == 0.0


def test_symmetrize_zero():
    out = symmetrize_insert([symtensor.zero(G2, 1), symtensor.zero(G2, 1)])
    assert out.is_zero()


def test_symmetrize_matches_dense_oracle():
    for seed in range(25):
        rng = generator(400 + seed)
        grid = random_grid(rng, int(rng.integers(1, 5)))
        base = int(rng.integers(0, 3))
        per_cell = [random_sym_coeffs(rng, grid, base, entries=4) for _ in range(grid.n)]
        got = dense_from_sym(symmetrize_insert(per_cell))
        want = dense_symmetrize_insert([dense_from_sym(u) for u in per_cell])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_symmetrize_shape_errors():
    with pytest.raises(ShapeMismatchError):
        symmetrize_insert([scalar(G2, 1.0), cell_indicator(G2, 1)])
    with pytest.raises(ShapeMismatchError):
        symmetrize_insert([scalar(G2, 1.0)])


def test_adapted_off_diagonal_family_stays_off_diagonal():
    # families below their own cell with off-diagonal values produce
    # off-diagonal symmetrizations
    for seed in range(20):
        rng = generator(500 + seed)
        grid = random_grid(rng, 4)
        per_cell = [
            random_sym_coeffs(rng, grid, 2, max_cell=c - 1, strict=True) if c > 1 else symtensor.zero(grid, 2)
            for c in range(1, 5)
        ]
        assert symmetrize_insert(per_cell).is_off_diagonal()


def test_diagonal_counterexample_needs_off_diagonal_hypothesis():
    # support strictly below the cell is not enough on its own
    g = uniform_grid(1.0, 2)
    diag = sym_coeffs(g, 2, {(1, 1): 1.0})
    out = symmetrize_insert([symtensor.zero(g, 2), diag])
    assert not out.is_off_diagonal()
    assert out[(1, 1, 2)] != 0.0


def test_zero_dropping():
    # exact zeros, of either sign, are not stored
    assert SymCoeffs(G2, 1, np.array([0.0, -0.0])).is_zero()
    assert sym_coeffs(G2, 1, {(1,): 0.0, (2,): -0.0j}).is_zero()


def test_nan_entry_is_stored():
    f = SymCoeffs(G2, 1, np.array([np.nan, 1.0]))
    assert f.stored().tolist() == [0, 1]
    assert np.isnan(norm2(f))
    big = SymCoeffs(G2, 1, np.array([np.inf, 0.0]))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which is stored
        assert (big - big).stored().tolist() == [0]
    tiny = SymCoeffs(G2, 1, np.array([0.0, 1e-301]))
    assert tiny.stored().tolist() == [1] and tiny[(2,)] == 1e-301


def test_rank_order_is_combinations_with_replacement_order():
    for n in range(1, 6):
        for d in range(5):
            table = symtensor.multisets(n, d)
            assert [tuple(row) for row in table.tolist()] == list(combinations_with_replacement(range(1, n + 1), d))
            assert symtensor.size(n, d) == len(table)
            assert not table.flags.writeable
            f = random_sym_coeffs(generator(600 + n, d), uniform_grid(1.0, n), d, entries=4)
            assert list(f.values) == sorted(f.values)
            for r, ms in enumerate(table.tolist()):
                assert f[ms] == f.vector[r]


def _insertions_by_sorting(n: int, d: int) -> np.ndarray:
    """The insertion table from its definition alone: each multiset plus
    each cell, sorted and looked up by its position in
    combinations_with_replacement order."""
    rank = {m: r for r, m in enumerate(combinations_with_replacement(range(1, n + 1), d + 1))}
    rows = combinations_with_replacement(range(1, n + 1), d)
    return np.array([[rank[tuple(sorted(m + (c,)))] for c in range(1, n + 1)] for m in rows]).reshape(-1, n)


def test_insertion_table_matches_the_sorting_construction():
    for n, d in [(n, d) for n in range(1, 9) for d in range(6)] + [(64, 2)]:
        table = symtensor._insertions(n, d)
        assert np.array_equal(table, _insertions_by_sorting(n, d)), (n, d)
        assert not table.flags.writeable
        assert symtensor._insertions(n, d) is table


def test_insertion_table_builds_without_a_per_cell_temporary():
    # the sorting construction holds (d+1) int rows per (multiset, cell)
    # pair, 11 times the table at n=20, d=4
    symtensor.multisets(20, 4)
    symtensor._insertions.cache_clear()
    tracemalloc.start()
    try:
        table = symtensor._insertions(20, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.nbytes


def test_values_view_is_read_only_and_holds_stored_entries():
    f = sym_coeffs(G2, 2, {(2, 1): 0.5 + 0.25j, (2, 2): 0.0})
    assert dict(f.values) == {(1, 2): 0.5 + 0.25j}
    assert f.stored().tolist() == [1]
    with pytest.raises(TypeError):
        f.values[(1, 1)] = 1.0
    with pytest.raises(ValueError):
        f.vector[0] = 1.0


def test_zero_component_costs_constant_memory():
    grid = uniform_grid(1.0, 1000)
    z = symtensor.zero(grid, 2)
    assert z.is_zero() and z.vector.shape == (symtensor.size(1000, 2),)
    assert z.vector.strides == (0,)
    assert not z.vector.flags.writeable
    assert (2.0 * z).is_zero() and (z + z).is_zero()
    assert SymCoeffs(grid, 2, np.zeros(symtensor.size(1000, 2), dtype=complex)).vector.strides == (0,)


def test_size_guard_raises_before_allocating():
    n = _first_cells_over_limit(2)
    grid = uniform_grid(1.0, n)
    tracemalloc.start()
    try:
        for build in (symtensor.zero, symtensor.ones):
            with pytest.raises(ValueError, match="over the limit"):
                build(grid, 2)
        for build in (lambda: symtensor.multisets(n, 2), lambda: fock.vacuum(grid, 2)):
            with pytest.raises(ValueError, match="over the limit"):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert symtensor.size(n - 1, 2) <= symtensor.MAX_ENTRIES


def _first_cells_over_limit(degree: int) -> int:
    """The fewest cells whose degree-d vector exceeds MAX_ENTRIES."""
    from math import comb

    n = 1
    while comb(n + degree - 1, degree) <= symtensor.MAX_ENTRIES:
        n += 1
    return n
