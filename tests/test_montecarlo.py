import csv
import tracemalloc
from itertools import combinations
from functools import partial
from math import factorial, prod

import numpy as np
import pytest

import oracle
from stochint import montecarlo
from stochint.errors import RefusalError
from stochint.grid import TimeGrid, uniform_grid
from stochint.montecarlo import (
    brownian_ensemble,
    hermite_polynomial,
    hermite_reference,
    Moments,
    iterated_ones,
    iterated_samples,
    linear_samples,
    poisson_ensemble,
)
from stochint.randomgen import generator, random_sym_coeffs
from stochint import symtensor

G8 = uniform_grid(1.0, 8)


def test_same_seed_bitwise_identical():
    a = brownian_ensemble(G8, 500, 7)
    b = brownian_ensemble(G8, 500, 7)
    assert np.array_equal(a.increments, b.increments)


def test_different_seeds_differ():
    a = brownian_ensemble(G8, 100, 7)
    b = brownian_ensemble(G8, 100, 8)
    assert not np.array_equal(a.increments, b.increments)


def test_paths_are_order_independent():
    # path p depends only on (seed, p): a larger ensemble extends a smaller one
    small = brownian_ensemble(G8, 50, 3)
    large = brownian_ensemble(G8, 500, 3)
    assert np.array_equal(small.increments, large.increments[:50])
    small_p = poisson_ensemble(G8, 50, 3)
    large_p = poisson_ensemble(G8, 500, 3)
    assert np.array_equal(small_p.increments, large_p.increments[:50])


def test_path_seed_mix_spreads():
    seeds = montecarlo._seeds(0, 0, 1000)
    assert len(np.unique(seeds)) == 1000
    assert np.array_equal(seeds, oracle.path_seeds(0, 1000))
    assert np.array_equal(montecarlo._seeds(-5, 0, 3), oracle.path_seeds(-5, 3))
    assert np.array_equal(montecarlo._seeds(-5, 400, 1000), oracle.path_seeds(-5, 1000)[400:])


ORACLE_GRIDS = [uniform_grid(1.0, n) for n in (1, 5, 17, 64)] + [TimeGrid((0.0, 0.05, 0.3, 0.31, 1.2, 2.0, 3.5))]


@pytest.mark.parametrize("block_doubles", [None, 200, 1])
@pytest.mark.parametrize("seed", [7, 123])
@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: f"{g.n}cells")
def test_ensembles_match_whole_array_reference(grid, seed, block_doubles, monkeypatch):
    # default blocks hold 2**17 // (4n) Brownian or 2**17 // (3n) Poisson
    # paths, so 100_000 // n + 1 paths span several blocks and end in a
    # partial one; 200 splits 37 paths into blocks of a few paths, 1 into
    # one-path blocks
    if block_doubles is None:
        paths = 100_000 // grid.n + 1
    else:
        monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", block_doubles)
        paths = 37
    got = brownian_ensemble(grid, paths, seed).increments
    assert np.array_equal(got, oracle.brownian_increments(grid, paths, seed))
    for intensity in (0.3, 1.0, 2.5, 50.0):
        got = poisson_ensemble(grid, paths, seed, intensity=intensity).increments
        assert np.array_equal(got, oracle.poisson_increments(grid, paths, seed, intensity))


@pytest.mark.parametrize("block_doubles", [None, 200])
@pytest.mark.parametrize("grid", [G8, ORACLE_GRIDS[-1]], ids=lambda g: f"{g.n}cells")
def test_path_range_is_a_slice_of_the_ensemble(grid, block_doubles, monkeypatch):
    if block_doubles is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", block_doubles)
    for make in (brownian_ensemble, partial(poisson_ensemble, intensity=2.5)):
        full = make(grid, 700, 5).increments
        for start, paths in ((0, 700), (1, 1), (123, 456), (699, 1)):
            part = make(grid, paths, 5, start=start)
            assert part.start == start
            assert np.array_equal(part.increments, full[start : start + paths])
        with pytest.raises(ValueError):
            make(grid, 10, 5, start=-1)


def test_poisson_large_means_exact_or_refused():
    # exp(-700) is a normal double, exp(-760) underflows to 0 and would make
    # every count the table length
    grid = uniform_grid(1.0, 1)
    got = poisson_ensemble(grid, 2000, 1, intensity=700.0).increments
    assert np.array_equal(got, oracle.poisson_increments(grid, 2000, 1, 700.0))
    for intensity in (760.0, 1e9):
        with pytest.raises(ValueError, match="underflows"):
            poisson_ensemble(grid, 2000, 1, intensity=intensity)
    with pytest.raises(ValueError, match="underflows"):
        poisson_ensemble(uniform_grid(1.0, 2), 10, 1, intensity=1500.0)


@pytest.mark.parametrize("make", [brownian_ensemble, poisson_ensemble])
def test_ensemble_peak_memory_is_the_result(make):
    # blocks are generated in place, so only the increments themselves scale
    # with the ensemble
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ens = make(uniform_grid(1.0, 64), 100_000, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ens.increments.nbytes


def test_brownian_moments():
    ens = brownian_ensemble(uniform_grid(1.0, 4), 200_000, 11)
    for k in range(4):
        col = ens.increments[:, k]
        assert abs(col.mean()) < 5 * col.std() / np.sqrt(len(col))
        assert col.var() == pytest.approx(0.25, rel=0.02)


def test_poisson_moments():
    ens = poisson_ensemble(uniform_grid(1.0, 4), 200_000, 11, intensity=2.0)
    for k in range(4):
        col = ens.increments[:, k]
        assert abs(col.mean()) < 5 * col.std() / np.sqrt(len(col))
        assert col.var() == pytest.approx(0.25, rel=0.05)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        brownian_ensemble(G8, 0, 1)
    for intensity in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            poisson_ensemble(G8, 10, 1, intensity=intensity)
    with pytest.raises(ValueError):
        one_block(np.ones(1)).stderr()


def test_hermite_values():
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(hermite_polynomial(0, x), np.ones_like(x))
    np.testing.assert_allclose(hermite_polynomial(1, x), x)
    np.testing.assert_allclose(hermite_polynomial(2, x), x**2 - 1)
    np.testing.assert_allclose(hermite_polynomial(3, x), x**3 - 3 * x)


def test_hermite_reference_of_a_zero_integrand():
    # ||g||^0 He_0 = 1 whatever g is, and a negative order is refused for a
    # zero g as for a nonzero one
    zero, linear = symtensor.zero(G8, 1), np.zeros(5)
    assert np.array_equal(hermite_reference(zero, 0, linear), np.ones(5))
    assert np.array_equal(hermite_reference(zero, 2, linear), np.zeros(5))
    for g in (zero, symtensor.ones(G8, 1)):
        with pytest.raises(ValueError, match="non-negative"):
            hermite_reference(g, -1, linear)


def test_first_order_reference_is_exact():
    ens = brownian_ensemble(G8, 2000, 5)
    g = symtensor.ones(G8, 1)
    diff = iterated_samples(g, ens).real - hermite_reference(g, 1, linear_samples(g, ens).real)
    assert np.abs(diff).max() < 1e-12


def test_second_order_difference_is_the_quadratic_variation_defect():
    ens = brownian_ensemble(G8, 2000, 5)
    g = symtensor.ones(G8, 1)
    disc = iterated_samples(symtensor.sym_tensor(g, g), ens).real
    oracle = hermite_reference(g, 2, linear_samples(g, ens).real)
    total = ens.terminal()
    qv = (ens.increments**2).sum(axis=1)
    np.testing.assert_allclose(disc, total**2 - qv, atol=1e-10)
    np.testing.assert_allclose(oracle, total**2 - 1.0, atol=1e-10)


def _brute_force_iterated(coeffs, ensemble):
    """d! * sum over c_1<...<c_d of v * prod dB, one ordered tuple at a time."""
    d = coeffs.degree
    out = np.zeros(ensemble.paths, dtype=complex)
    for cells in combinations(range(1, ensemble.grid.n + 1), d):
        v = coeffs[cells]
        if v:
            out += factorial(d) * v * prod((ensemble.increments[:, c - 1] for c in cells), start=1.0)
    return out


@pytest.mark.parametrize("n", [1, 5, 13, 17])
def test_iterated_matches_brute_force_across_path_blocks(n, monkeypatch):
    # tiny blocks make every ensemble below span many path blocks
    monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", 256)
    rng = generator(2024, n)
    grid = uniform_grid(1.0, n)
    big = brownian_ensemble(grid, 900, 41)
    small = brownian_ensemble(grid, 317, 41)
    for degree in range(5):
        for strict in (True, False):
            # sparse coefficients on a non-contiguous subset of the cells
            cells = sorted(rng.choice(np.arange(1, n + 1), size=max(1, (2 * n) // 3), replace=False))
            keys = [tuple(sorted(rng.choice(cells, size=degree))) for _ in range(16)]
            if strict:
                keys = [k for k in keys if len(set(k)) == degree]
            values = {k: complex(*rng.standard_normal(2)) for k in keys}
            coeffs = oracle.sym_coeffs(grid, degree, values)
            got = iterated_samples(coeffs, big)
            want = _brute_force_iterated(coeffs, big)
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(got - want).max()) <= 1e-12 * scale
            # path p depends only on (seed, p), never on the ensemble size
            assert np.array_equal(iterated_samples(coeffs, small), got[: small.paths])


@pytest.mark.parametrize("grid", [uniform_grid(1.0, 24), ORACLE_GRIDS[-1]], ids=lambda g: f"{g.n}cells")
def test_iterated_ones_is_the_sum_against_ones(grid):
    ens = brownian_ensemble(grid, 3000, 23)
    got = iterated_ones(ens, 3)
    assert got.shape == (4, ens.paths)
    assert np.array_equal(got[0], np.ones(ens.paths))
    for d in (1, 2, 3):
        want = iterated_samples(symtensor.ones(grid, d), ens).real
        assert float(np.abs(got[d] - want).max()) <= 1e-14 * float(np.abs(want).max())
    # more factors than cells: no strict multiset, the sum is empty
    one = brownian_ensemble(uniform_grid(1.0, 1), 5, 23)
    assert np.array_equal(iterated_ones(one, 2)[2], np.zeros(5))


def test_iterated_memory_stays_near_the_block_budget():
    # 2024 strict degree-3 terms: without path blocks the (terms x paths) product alone takes 49 MB
    grid = uniform_grid(1.0, 24)
    coeffs = symtensor.ones(grid, 3)
    ens = brownian_ensemble(grid, 3000, 5)
    iterated_samples(coeffs, brownian_ensemble(grid, 2, 5))  # fill the table caches
    tracemalloc.start()
    try:
        out = iterated_samples(coeffs, ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * montecarlo._BLOCK_DOUBLES * 8 + out.nbytes


def test_iterated_skips_diagonal_entries():
    ens = brownian_ensemble(G8, 100, 5)
    diag = oracle.sym_coeffs(G8, 2, {(1, 1): 3.0})
    assert np.abs(iterated_samples(diag, ens)).max() == 0.0


def one_block(samples: np.ndarray) -> Moments:
    moments = Moments()
    moments.add(samples)
    return moments


def test_iterated_second_moment_matches_weighted_norm():
    rng = generator(77)
    grid = uniform_grid(1.0, 16)
    ens = brownian_ensemble(grid, 200_000, 13)
    f2 = random_sym_coeffs(rng, grid, 2, strict=True, entries=6)
    samples = np.abs(iterated_samples(f2, ens)) ** 2
    target = 2.0 * symtensor.norm2(f2)
    moments = one_block(samples)
    assert abs(moments.mean - target) < 5 * moments.stderr()


#: (cells, seed) -> stored ranks and values of random_strict_coeffs(grid, 2, 6, seed)
STRICT_FROZEN = {
    (6, 0): ([1, 5, 9, 10, 13, 14], [
        -0.29875086906384485 - 0.18257765152432234j, 0.11167402579706229 + 0.9933159516900556j,
        -0.4785138014801503 - 0.02685384434109239j, 0.8624821952531748 + 0.0710383941890003j,
        2.4365698120122516 - 0.5327979001494179j, -1.0693534511478893 - 0.8250643933262541j]),
    (6, 3): ([4, 10, 12, 13, 16, 19], [
        0.35159492508730905 + 1.788938407510449j, 1.239794607838265 + 1.159243069890236j,
        1.3303190642999754 + 1.2638556152769522j, -0.9177483265062053 + 0.8170364052735506j,
        1.1475237298683567 + 1.5234932406484036j, -1.09812346446245 + 1.133547282754041j]),
    (6, 7): ([4, 8, 9, 10, 12, 17], [
        -0.8323772358589623 - 0.047688111489942474j, 0.7657485759257473 + 1.620874031950361j,
        0.5285827795416512 - 0.9628630845669689j, 2.4547332363155574 - 0.051076624790017615j,
        0.6168541985891045 - 0.18200712145195563j, 0.06877633033885096 + 0.23220585568632987j]),
    (64, 7): ([356, 643, 1059, 1197, 1313, 2048], [
        -0.8323772358589623 - 0.047688111489942474j, 2.4547332363155574 - 0.051076624790017615j,
        -0.09802629800145653 + 0.5261608545978363j, 0.06877633033885096 + 0.23220585568632987j,
        0.6168541985891045 - 0.18200712145195563j, 0.7657485759257473 + 1.620874031950361j]),
}


@pytest.mark.parametrize("cells, seed", sorted(STRICT_FROZEN))
def test_random_strict_coeffs_keeps_its_frozen_draws(cells, seed):
    f = montecarlo.random_strict_coeffs(uniform_grid(1.0, cells), 2, 6, seed)
    ranks, values = STRICT_FROZEN[cells, seed]
    assert f.stored().tolist() == ranks
    assert f.vector[f.stored()].tolist() == values


@pytest.mark.parametrize("seed", [0, 1, 7, -3, 2**64 + 5])
@pytest.mark.parametrize("cells, degree, entries", [(1, 2, 6), (2, 2, 6), (3, 2, 6), (4, 2, 6), (5, 2, 6), (9, 3, 5), (40, 2, 6), (4, 0, 2), (3, 4, 2)])
def test_random_strict_coeffs_matches_its_word_by_word_reference(cells, degree, entries, seed):
    grid = uniform_grid(1.0, cells)
    f = montecarlo.random_strict_coeffs(grid, degree, entries, seed)
    assert np.array_equal(f.vector, oracle.strict_coeffs(grid, degree, entries, seed).vector)


@pytest.mark.parametrize("seed", range(20))
def test_random_strict_coeffs_picks_distinct_strict_multisets(seed):
    # C(n, 2) strict pairs on n cells: fewer than 6 are all taken
    for cells, count in [(1, 0), (2, 1), (3, 3), (4, 6), (5, 6), (64, 6)]:
        f = montecarlo.random_strict_coeffs(uniform_grid(1.0, cells), 2, 6, seed)
        keys = list(f.values)
        assert len(keys) == count == len(set(keys))
        assert all(a < b for a, b in keys)
        assert np.all(symtensor.strict(cells, 2)[f.stored()])


def test_random_strict_coeffs_refuses_an_oversized_vector_before_drawing():
    with pytest.raises(RefusalError, match="a degree-2 vector on 2896 cells has 4194856 entries"):
        montecarlo.random_strict_coeffs(uniform_grid(1.0, 2896), 2, 6, 1)


def test_linear_samples_isometry():
    ens = brownian_ensemble(uniform_grid(1.0, 8), 200_000, 17)
    g = symtensor.ones(G8, 1)
    w2 = np.abs(linear_samples(g, ens)) ** 2
    moments = one_block(w2)
    assert abs(moments.mean - 1.0) < 5 * moments.stderr()


@pytest.mark.parametrize(
    "samples",
    [
        np.random.default_rng(3).standard_normal(100_000) + 2.0,
        np.random.default_rng(4).exponential(size=777) * 3.0,
        np.arange(5.0),
        np.array([1.5, 1.5]),
    ],
    ids=["normal", "exponential", "range", "equal"],
)
def test_moments_one_block_is_numpy_and_blocks_merge(samples):
    moments = one_block(samples)
    mean, se = moments.mean, moments.stderr()
    assert mean == float(samples.mean())
    assert se == float(samples.std(ddof=1) / np.sqrt(len(samples)))
    # each merge rounds the mean once more; up to 100 blocks (the suite's
    # default run has 49) stay within 1e-15
    for blocks in (7, 49, 100):
        block = -(-len(samples) // blocks)
        merged = Moments()
        for start in range(0, len(samples), block):
            merged.add(samples[start : start + block])
        assert merged.count == len(samples)
        assert (merged.low, merged.high) == (samples.min(), samples.max())
        assert abs(merged.mean - mean) <= 1e-15 * abs(mean)
        assert abs(merged.stderr() - se) <= 1e-15 * se


def serial_moments(blocks) -> tuple:
    """(count, mean, m2, low, high) of blocks added one after another by
    Chan's update, written out as the suite's serial loop computed it."""
    count, mean, m2, low, high = 0, 0.0, 0.0, np.inf, -np.inf
    for x in blocks:
        n = len(x)
        block_mean = float(x.mean())
        block_m2 = float(((x - block_mean) ** 2).sum())
        if count == 0:
            mean, m2 = block_mean, block_m2
        else:
            total = count + n
            delta = block_mean - mean
            mean += delta * n / total
            m2 += block_m2 + delta * delta * count * n / total
        count += n
        low, high = float(np.minimum(low, x.min())), float(np.maximum(high, x.max()))
    return count, mean, m2, low, high


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_moments_merged_block_by_block_are_the_serial_bits(seed):
    # uneven splits, one-sample blocks included: folding each block's own
    # Moments in block order gives the serial add loop's bits
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(5000) * 3.0 + 1.0
    for _ in range(20):
        cuts = np.sort(rng.choice(np.arange(1, len(samples)), size=int(rng.integers(1, 60)), replace=False))
        blocks = np.split(samples, cuts)
        added, merged = Moments(), Moments()
        for block in blocks:
            added.add(block)
            merged.merge(one_block(block))
        count, *values = serial_moments(blocks)
        assert merged.count == added.count == count == len(samples)
        for moments in (merged, added):
            got = [moments.mean, moments.m2, moments.low, moments.high]
            assert [v.hex() for v in got] == [v.hex() for v in values]


def test_merging_empty_moments_changes_nothing():
    moments = one_block(np.array([1.0, -2.0, 0.5]))
    before = vars(moments).copy()
    moments.merge(Moments())
    assert vars(moments) == before
    empty = Moments()
    empty.merge(Moments())
    assert vars(empty) == vars(Moments())


def test_csv_export(tmp_path):
    ens = brownian_ensemble(uniform_grid(1.0, 3), 4, 19)
    out = tmp_path / "paths.csv"
    with montecarlo.csv_writer(out) as write:
        write(ens)
    with open(out) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["path", "cell", "increment"]
    assert len(rows) == 1 + 4 * 3
    assert float(rows[1][2]) == ens.increments[0, 0]

    # the same bytes as one csv.writer row per (path, cell)
    ens = poisson_ensemble(uniform_grid(2.0, 5), 12, 3, intensity=0.7)
    assert (ens.increments < 0).any() and (ens.increments > 0).any()
    with montecarlo.csv_writer(out) as write:
        write(ens)
    reference = tmp_path / "reference.csv"
    oracle.export_csv(ens.increments, reference)
    assert out.read_bytes() == reference.read_bytes()
