"""File-level round trips through real JSON text for every wire format."""

import json

import numpy as np

from stochint import fock, symtensor
from stochint.fock import FockVector, entrywise_distance
from stochint.fock_ito import FockStepProcess
from stochint.grid import TimeGrid
from stochint.operator_integral import OperatorStepProcess, ProjectorMeasure, VectorMartingale
from stochint.randomgen import (
    generator,
    random_adapted_process,
    random_fock_vector,
    random_grid,
    random_martingale,
    random_measurable_process,
    random_sym_coeffs,
)
from stochint.symtensor import SymCoeffs


def through_json(obj):
    return json.loads(json.dumps(obj))


def test_grid_file_roundtrip():
    rng = generator(1)
    grid = random_grid(rng, 5)
    back = TimeGrid.from_json(through_json(grid.to_json()))
    assert back == grid


def test_sym_coeffs_file_roundtrip():
    rng = generator(2)
    grid = random_grid(rng, 4)
    f = random_sym_coeffs(rng, grid, 3, entries=5)
    back = SymCoeffs.from_json(grid, through_json(f.to_json()))
    assert symtensor.entrywise_distance(f, back) == 0.0


def test_fock_vector_file_roundtrip():
    rng = generator(3)
    grid = random_grid(rng, 4)
    f = random_fock_vector(rng, grid, 3)
    back = FockVector.from_json(grid, through_json(f.to_json()))
    assert entrywise_distance(f, back) == 0.0


def test_step_process_file_roundtrip():
    rng = generator(4)
    grid = random_grid(rng, 4)
    proc = random_adapted_process(rng, grid, 3, 2)
    back = FockStepProcess.from_json(grid, through_json(proc.to_json()))
    for k in range(1, 5):
        assert entrywise_distance(proc.value(k), back.value(k)) == 0.0


def test_measure_and_martingale_file_roundtrip():
    rng = generator(5)
    mart = random_martingale(rng, random_grid(rng, 3), 6)
    back = VectorMartingale.from_json(through_json(mart.to_json()))
    np.testing.assert_array_equal(back.vector, mart.vector)
    np.testing.assert_array_equal(back.measure.atom, mart.measure.atom)
    for k in range(1, 4):
        np.testing.assert_array_equal(back.measure.cells[k - 1], mart.measure.cells[k - 1])
    # validation runs on load
    assert ProjectorMeasure.from_json(through_json(mart.measure.to_json())).dim == 6


def test_operator_process_file_roundtrip():
    rng = generator(6)
    mart = random_martingale(rng, random_grid(rng, 3), 5)
    proc = random_measurable_process(rng, mart)
    back = OperatorStepProcess.from_json(through_json(proc.to_json()))
    for k in range(1, 4):
        np.testing.assert_array_equal(back.operator(k), proc.operator(k))
