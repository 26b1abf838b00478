import numpy as np
import pytest

from stochint import fock, symtensor
from stochint.errors import ShapeMismatchError, TruncationOverflowError
from stochint.fock import (
    FockVector,
    cell_increment,
    entrywise_distance,
    fock_inner,
    indicator_vector,
    norm2,
    resolution_project,
    vacuum,
    wick,
)
from stochint.grid import uniform_grid
from stochint.randomgen import generator, random_fock_vector, random_grid
from stochint.symtensor import ones

G2 = uniform_grid(1.0, 2)


def test_vacuum_normalized():
    v = vacuum(G2, 2)
    assert fock_inner(v, v) == pytest.approx(1.0)


def test_indicator_norm():
    z = indicator_vector(G2)
    assert fock_inner(z, z) == pytest.approx(1.0)


def test_degree2_weighted_norm():
    f = FockVector(G2, (symtensor.zero(G2, 0), symtensor.zero(G2, 1), ones(G2, 2)))
    assert fock_inner(f, f) == pytest.approx(2.0)  # 2! * 1.0


def test_basis_vector_is_one_hot_at_its_multiset():
    g3 = uniform_grid(1.0, 3)
    f = fock.basis_vector(g3, (3, 1))
    assert f.truncation == 2 and f.max_degree() == 2
    assert dict(f.components[2].values) == {(1, 3): 1.0}
    assert fock.basis_vector(g3, ()).components[0][()] == 1.0
    for outside in [(0, 1), (4,), (1, 2, 4)]:
        with pytest.raises(ValueError, match="outside 1..3"):
            fock.basis_vector(g3, outside)


def test_entrywise_distance_keeps_a_nan_in_any_degree():
    # degree 0 differs by 1 and degree 1 by NaN; the builtin max would keep the 1
    nan = FockVector(G2, (symtensor.zero(G2, 0), symtensor.SymCoeffs(G2, 1, np.array([np.nan, 0.0]))))
    assert np.isnan(entrywise_distance(nan, vacuum(G2, 1)))


def test_inner_mixed_truncations():
    f = vacuum(G2, 0)
    g = vacuum(G2, 3)
    assert fock_inner(f, g) == pytest.approx(1.0)


def test_inner_grid_mismatch():
    with pytest.raises(ShapeMismatchError):
        fock_inner(vacuum(G2), vacuum(uniform_grid(1.0, 3)))


def test_wick_square_of_indicator():
    z = indicator_vector(G2).pad(2)
    out = wick(z, z)
    assert out.component(0).is_zero()
    assert out.component(1).is_zero()
    assert symtensor.entrywise_distance(out.component(2), ones(G2, 2)) == 0.0


def test_wick_vacuum_unit():
    rng = generator(3)
    f = random_fock_vector(rng, G2, 2)
    assert entrywise_distance(wick(vacuum(G2, 2), f), f) == 0.0


def test_wick_strict_overflow():
    f = FockVector(G2, (symtensor.zero(G2, 0), symtensor.zero(G2, 1), ones(G2, 2)))
    g = indicator_vector(G2).pad(2)
    with pytest.raises(TruncationOverflowError) as err:
        wick(f, g)
    assert err.value.degree == 3


def test_wick_strict_overflow_forms_no_degree_past_the_truncation():
    # the degree-7 product on 27 cells would have C(33, 7) entries, past
    # MAX_ENTRIES; the overflow is decided without forming it
    grid = uniform_grid(1.0, 27)
    full = FockVector(grid, tuple(symtensor.zero(grid, d) for d in range(6)) + (ones(grid, 6),))
    with pytest.raises(TruncationOverflowError) as err:
        wick(full, cell_increment(grid, 1))
    assert err.value.degree == 7


def test_wick_bilinear_commutative_associative():
    for seed in range(25):
        rng = generator(600 + seed)
        grid = random_grid(rng, int(rng.integers(1, 5)))
        f = random_fock_vector(rng, grid, 1).pad(6)
        g = random_fock_vector(rng, grid, 1).pad(6)
        h = random_fock_vector(rng, grid, 1).pad(6)
        fg = wick(f, g)
        assert entrywise_distance(fg, wick(g, f)) < 1e-12
        assert entrywise_distance(wick(fg, h), wick(f, wick(g, h))) < 1e-12
        a, b = 1.5 - 0.5j, -0.25j
        assert entrywise_distance(wick(a * f + b * g, h), a * wick(f, h) + b * wick(g, h)) < 1e-12


def test_cell_increment_norm_and_telescoping():
    g4 = uniform_grid(2.0, 4)
    for k in range(1, 5):
        assert norm2(cell_increment(g4, k)) == pytest.approx(g4.length(k))
    total = cell_increment(g4, 1)
    for k in range(2, 5):
        total = total + cell_increment(g4, k)
    assert entrywise_distance(total, indicator_vector(g4)) == 0.0
    with pytest.raises(ValueError):
        cell_increment(g4, 5)


def test_projection_boundary_cases():
    rng = generator(5)
    f = random_fock_vector(rng, G2, 2)
    assert entrywise_distance(resolution_project(f, G2.n), f) == 0.0
    low = resolution_project(f, 0)
    assert symtensor.entrywise_distance(low.component(0), f.component(0)) == 0.0
    assert low.component(1).is_zero() and low.component(2).is_zero()


def test_projection_indicator_cut():
    f = FockVector(G2, (symtensor.zero(G2, 0), ones(G2, 1)))
    cut = resolution_project(f, 1)
    assert symtensor.entrywise_distance(cut.component(1), symtensor.cell_indicator(G2, 1)) == 0.0


def test_projection_is_orthogonal_and_monotone():
    for seed in range(10):
        rng = generator(700 + seed)
        grid = random_grid(rng, int(rng.integers(1, 6)))
        f = random_fock_vector(rng, grid, 3)
        g = random_fock_vector(rng, grid, 3)
        for j in range(grid.n + 1):
            pf = resolution_project(f, j)
            assert entrywise_distance(resolution_project(pf, j), pf) == 0.0
            assert abs(fock_inner(pf, g) - fock_inner(f, resolution_project(g, j))) < 1e-12
            for j2 in range(j, grid.n + 1):
                assert (
                    entrywise_distance(resolution_project(resolution_project(f, j2), j), pf) == 0.0
                )


def test_projected_indicator_measures_time():
    g5 = uniform_grid(1.0, 5)
    z = indicator_vector(g5)
    for j in range(6):
        assert norm2(resolution_project(z, j)) == pytest.approx(g5.boundaries[j], abs=1e-12)


def test_projection_index_range():
    with pytest.raises(ValueError):
        resolution_project(vacuum(G2), 3)


def test_refine_preserves_norm_and_products():
    rng = generator(13)
    f = random_fock_vector(rng, G2, 2).pad(4)
    g = random_fock_vector(rng, G2, 2).pad(4)
    rf, rg = fock.refine_vector(f, 3), fock.refine_vector(g, 3)
    assert fock_inner(rf, rg) == pytest.approx(fock_inner(f, g), rel=1e-12, abs=1e-13)
    assert entrywise_distance(fock.refine_vector(wick(f, g), 3), wick(rf, rg)) < 1e-12
