"""The ``--input`` readers on real JSON text, written by ``oracle.input_file``
from ``oracle.dense_parts``, which shares no code with them."""

import json

import numpy as np
import pytest

import oracle
from stochint.grid import TimeGrid, json_number
from stochint.operator_integral import COMMUTE_TOL, OperatorStepProcess, ProjectorMeasure, VectorMartingale
from stochint.randomgen import generator, random_grid, random_martingale, random_measurable_process


def through_json(obj):
    return json.loads(json.dumps(obj))


def test_grid_file_roundtrip():
    rng = generator(1)
    grid = random_grid(rng, 5)
    back = TimeGrid.from_json(through_json(list(grid.boundaries)))
    assert back == grid


def test_measure_and_martingale_file_roundtrip():
    rng = generator(5)
    mart = random_martingale(rng, random_grid(rng, 3), 6)
    written = through_json(oracle.input_file(mart, random_measurable_process(rng, mart))["martingale"])
    back = VectorMartingale.from_json(written)
    # the vector loads bit for bit; the recovered frame's projections lie
    # within COMMUTE_TOL of the file's
    assert np.array_equal(back.vector, mart.vector)
    for got, part in zip(oracle.dense_parts(back.measure), [written["measure"]["atom"], *written["measure"]["cells"]]):
        assert np.linalg.norm(got - np.array([[complex(*v) for v in row] for row in part])) <= COMMUTE_TOL
    # validation runs on load
    assert ProjectorMeasure.from_json(written["measure"]).dim == 6


def test_operator_process_file_roundtrip():
    rng = generator(6)
    mart = random_martingale(rng, random_grid(rng, 3), 5)
    proc = random_measurable_process(rng, mart)
    back = OperatorStepProcess.from_json(through_json(oracle.input_file(mart, proc)["process"]))
    for k in range(1, 4):
        np.testing.assert_array_equal(back.operator(k), proc.operator(k))


@pytest.mark.parametrize("value", ["0.5", True, False, None, [1.0], {"re": 1.0}])
def test_json_number_refuses_anything_but_an_int_or_a_float(value):
    with pytest.raises(TypeError, match="expected a number"):
        json_number(value)


@pytest.mark.parametrize("where", ["boundary", "atom", "vector", "dim", "operator"])
@pytest.mark.parametrize("value", ["0.0", False])
def test_every_reader_refuses_a_string_or_a_boolean(where, value):
    rng = generator(7)
    mart = random_martingale(rng, random_grid(rng, 2), 3)
    proc = random_measurable_process(rng, mart)
    data = through_json(oracle.input_file(mart, proc))
    measure = data["martingale"]["measure"]
    if where == "boundary":
        measure["boundaries"][0] = value
    elif where == "atom":
        measure["atom"][0][0][1] = value
    elif where == "vector":
        data["martingale"]["vector"][0][0] = value
    elif where == "dim":
        measure["dim"] = value
    else:
        data["process"]["operators"][0][0][0][0] = value
    with pytest.raises(TypeError, match="expected a number"):
        if where == "operator":
            OperatorStepProcess.from_json(data["process"])
        else:
            VectorMartingale.from_json(data["martingale"])
