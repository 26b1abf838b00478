"""Every accessor states the grid's own index and identity rules.

Cells are 1..n and boundaries 0..n on a :class:`TimeGrid`; the grid raises
the one message for each, and ShapeMismatchError for operands on different
grids, whichever layer the call enters through.
"""

import numpy as np
import pytest

from stochint import bernoulli, fock, montecarlo, operator_integral, symtensor
from stochint.errors import ShapeMismatchError
from stochint.fock_ito import FockStepProcess
from stochint.grid import TimeGrid, uniform_grid
from stochint.randomgen import generator, random_martingale

GRID = uniform_grid(1.0, 3)
OTHER = TimeGrid((0.0, 0.25, 0.5, 1.0))  # as many cells, other boundaries

SPACE = bernoulli.BernoulliSpace(GRID)
MART = random_martingale(generator(0, 0, 0), GRID, 4)
LABELS = operator_integral.ProjectorMeasure(GRID, np.arange(4))
PROC = operator_integral.OperatorStepProcess(GRID, (np.eye(4),) * 3)
OTHER_PROC = operator_integral.OperatorStepProcess(OTHER, (np.eye(4),) * 3)
VEC, OTHER_VEC = fock.vacuum(GRID, 1), fock.vacuum(OTHER, 1)
FOCK_PROC = FockStepProcess(GRID, (VEC,) * 3)
ENSEMBLE = montecarlo.brownian_ensemble(GRID, 4, 1)

CELL = "cell index {} out of range 1..3"
BOUNDARY = "boundary index {} out of range 0..3"

INDEX_CASES = {
    "TimeGrid.length": (lambda k: GRID.length(k), CELL),
    "BernoulliSpace.xi": (lambda k: SPACE.xi(k), CELL),
    "BernoulliSpace.increment": (lambda k: SPACE.increment(k), CELL),
    "VectorMartingale.increment": (lambda k: MART.increment(k), CELL),
    "OperatorStepProcess.operator": (lambda k: PROC.operator(k), CELL),
    "FockStepProcess.value": (lambda k: FOCK_PROC.value(k), CELL),
    "cell_indicator": (lambda k: symtensor.cell_indicator(GRID, k), CELL),
    "BernoulliSpace.walk_at": (lambda j: SPACE.walk_at(j), BOUNDARY),
    "ProjectorMeasure.project": (lambda j: MART.measure.project(j, np.ones(4)), BOUNDARY),
    # the labels-only measure (a ProjectorMeasure with no frame), under its old case id
    "LabelMeasure.project": (lambda j: LABELS.project(j, np.ones(4)), BOUNDARY),
    "BernoulliSpace.project": (lambda j: SPACE.project(j, np.ones(8)), BOUNDARY),
    "cond_expect": (lambda j: bernoulli.cond_expect(SPACE.xi(1), j), BOUNDARY),
    "indicator_vector": (lambda j: fock.indicator_vector(GRID, j), BOUNDARY),
    "resolution_project": (lambda j: fock.resolution_project(VEC, j), BOUNDARY),
    "future_increment_span": (lambda j: operator_integral.future_increment_span(MART, j), BOUNDARY),
    "check_measurable": (lambda j: operator_integral.check_measurable(np.eye(4), MART, j), BOUNDARY),
}

GRID_CASES = {
    "FockVector": lambda: fock.FockVector(GRID, (symtensor.zero(OTHER, 0),)),
    "FockVector.__add__": lambda: VEC + OTHER_VEC,
    "fock_inner": lambda: fock.fock_inner(VEC, OTHER_VEC),
    "fock.entrywise_distance": lambda: fock.entrywise_distance(VEC, OTHER_VEC),
    "wick": lambda: fock.wick(VEC, OTHER_VEC),
    "FockStepProcess": lambda: FockStepProcess(GRID, (OTHER_VEC,) * 3),
    "chaos_map": lambda: bernoulli.chaos_map(OTHER_VEC, SPACE),
    "iterated_samples": lambda: montecarlo.iterated_samples(symtensor.ones(OTHER, 1), ENSEMBLE),
    "stochastic_integral": lambda: operator_integral.stochastic_integral(OTHER_PROC, MART),
    "integral_norm_bound": lambda: operator_integral.integral_norm_bound(OTHER_PROC, MART),
    "sym_inner": lambda: symtensor.sym_inner(symtensor.ones(GRID, 1), symtensor.ones(OTHER, 1)),
}


@pytest.mark.parametrize(
    "name, index",
    [(name, index) for name, (_, message) in INDEX_CASES.items() for index in ((0, 4) if message == CELL else (-1, 4))],
)
def test_out_of_range_index_raises_the_grid_message(name, index):
    call, message = INDEX_CASES[name]
    with pytest.raises(ValueError) as err:
        call(index)
    assert str(err.value) == message.format(index)


@pytest.mark.parametrize("name", list(GRID_CASES))
def test_operands_on_different_grids_raise_shape_mismatch(name):
    with pytest.raises(ShapeMismatchError) as err:
        GRID_CASES[name]()
    assert str(err.value) == "operands live on different grids"
