"""Seeded generators: values frozen from the draws of earlier versions.

`random_sym_coeffs` draws its picks with `rng.choice` and then one
(real, imaginary) pair of standard normals per pick, in pick order; a
change to how it draws must keep these values, since every randomized suite
builds its coefficients through it.
"""

import hashlib
import itertools

import numpy as np
import pytest

from stochint import randomgen
from stochint.grid import uniform_grid
from stochint.randomgen import generator, random_sym_coeffs

#: draws one after another from generator(11) on 4 cells, entries=3
FROZEN_DRAWS = [
    ((2, None, True), {(1, 2): -0.5103070767876675 - 0.2979695111064471j,
                       (2, 4): -0.056064439045617594 + 0.7468856162565439j,
                       (3, 4): -0.5273841930334252 + 0.5697263575719601j}),
    ((3, 3, False), {(1, 2, 3): -0.13656633397682774 - 0.3790985670748533j,
                     (2, 2, 2): 0.46311015859758675 + 0.824513527530113j,
                     (2, 3, 3): -0.09643216015562055 + 0.6803784532741461j}),
    ((0, None, False), {(): -0.20252987069345152 - 0.15278617857019708j}),
    ((2, 1, True), {}),
]

#: sha256 of the vectors of two successive draws per case of the sweep below
SWEEP_SHA256 = "7c8dded7958e69cb9bc574b56700c63f189f3490ee669db79fd2302cb164664f"


def test_random_sym_coeffs_keeps_its_frozen_draws():
    rng = generator(11)
    for (degree, top, strict), expected in FROZEN_DRAWS:
        f = random_sym_coeffs(rng, uniform_grid(1.0, 4), degree, max_cell=top, strict=strict, entries=3)
        assert dict(f.values) == expected


def test_random_sym_coeffs_keeps_its_draws_on_a_sweep_of_small_cases():
    digest = hashlib.sha256()
    cases = 0
    for n, d, strict, entries in itertools.product(range(1, 6), range(4), (False, True), (1, 4)):
        grid = uniform_grid(1.0, n)
        for top in range(1, n + 1):
            rng = generator(n, d, top, strict, entries)
            for _ in range(2):
                f = random_sym_coeffs(rng, grid, d, max_cell=top, strict=strict, entries=entries)
                digest.update(np.ascontiguousarray(f.vector).tobytes())
            cases += 1
    assert cases == 240
    assert digest.hexdigest() == SWEEP_SHA256


def test_the_cached_pool_is_read_only():
    pool = randomgen._pool(4, 2, 3, True)
    assert pool is randomgen._pool(4, 2, 3, True)
    assert pool.tolist() == [1, 2, 5]  # (1, 2), (1, 3), (2, 3)
    with pytest.raises(ValueError):
        pool[0] = 0
