import numpy as np
import pytest

from stochint.grid import ORIGIN, TimeGrid, locate, refine, uniform_grid


def test_uniform_split():
    g = uniform_grid(1.0, 2)
    assert g.boundaries == (0.0, 0.5, 1.0)
    assert g.n == 2
    assert g.horizon == 1.0


def test_single_cell():
    g = uniform_grid(1.0, 1)
    assert g.boundaries == (0.0, 1.0)
    assert g.length(1) == 1.0


def test_uniform_lengths():
    g = uniform_grid(2.0, 4)
    assert g.lengths == (0.5, 0.5, 0.5, 0.5)
    assert sum(g.lengths) == pytest.approx(2.0, abs=1e-15)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        uniform_grid(0.0, 2)
    with pytest.raises(ValueError):
        uniform_grid(-1.0, 2)
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid((0.0, 0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        TimeGrid((0.1, 0.5, 1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_boundaries_and_times_are_rejected(bad):
    with pytest.raises(ValueError, match="^boundaries must be finite$"):
        TimeGrid((0.0, 0.5, bad))
    with pytest.raises(ValueError, match="^horizon must be positive and finite$"):
        uniform_grid(bad, 2)
    with pytest.raises(ValueError, match="outside"):
        locate(uniform_grid(1.0, 2), bad)


def test_refine_uniform():
    assert refine(uniform_grid(1.0, 2), 2).boundaries == uniform_grid(1.0, 4).boundaries


def test_refine_identity():
    g = TimeGrid((0.0, 0.3, 1.0))
    assert refine(g, 1) is g


def test_refine_midpoints():
    g = TimeGrid((0.0, 0.3, 1.0))
    assert refine(g, 2).boundaries == pytest.approx((0.0, 0.15, 0.3, 0.65, 1.0), abs=1e-15)


def test_refine_keeps_original_boundaries_exactly():
    g = TimeGrid((0.0, 0.2837, 0.61, 1.0))
    fine = refine(g, 3)
    for b in g.boundaries:
        assert b in fine.boundaries


def test_refine_composes():
    g = TimeGrid((0.0, 0.3, 1.0))
    once = refine(refine(g, 2), 3)
    direct = refine(g, 6)
    np.testing.assert_allclose(once.boundaries, direct.boundaries, rtol=1e-15, atol=1e-15)


def test_refine_rejects_zero():
    with pytest.raises(ValueError):
        refine(uniform_grid(1.0, 2), 0)


def test_locate_right_closed():
    g = uniform_grid(1.0, 2)
    assert locate(g, 0.5) == 1
    assert locate(g, 0.50001) == 2
    assert locate(g, 0.0) == ORIGIN
    assert locate(g, 1.0) == 2


def test_locate_boundaries_consistent():
    g = TimeGrid((0.0, 0.1, 0.4, 0.75, 1.0))
    for k in range(1, g.n + 1):
        assert locate(g, g.boundaries[k]) == k


def test_locate_out_of_range():
    g = uniform_grid(1.0, 2)
    with pytest.raises(ValueError):
        locate(g, -0.1)
    with pytest.raises(ValueError):
        locate(g, 1.1)


def test_json_roundtrip():
    g = TimeGrid((0.0, 0.25, 0.7, 1.5))
    assert TimeGrid.from_json(g.to_json()) == g
