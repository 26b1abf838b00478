"""Grid-based stochastic integration of operator-valued step functions.

The package realizes, in finite dimensions, the stochastic integral of an
operator-valued step process against a vector transported by a step
projector-valued measure, together with its two classical specializations:
the Ito integral in a truncated symmetric Fock space (with the Skorohod
extension) and the discrete Ito integral on an exact Bernoulli probability
model.  Randomized and exact verification suites for every structural
identity live in :mod:`stochint.suites` and behind the ``stochint`` CLI.
"""

from .errors import (
    NotAdaptedError,
    NotRepresentableError,
    RefusalError,
    ShapeMismatchError,
    TruncationOverflowError,
)
from .grid import ORIGIN, TimeGrid, locate, refine, uniform_grid
from .symtensor import (
    SymCoeffs,
    block_weight,
    cell_indicator,
    ones,
    scalar,
    sym_inner,
    sym_tensor,
    symmetrize_insert,
)
from .fock import (
    FockVector,
    cell_increment,
    fock_inner,
    indicator_vector,
    resolution_project,
    vacuum,
    wick,
)
from .operator_integral import (
    MeasurabilityReport,
    OperatorStepProcess,
    ProjectorMeasure,
    VectorMartingale,
    check_measurable,
    future_increment_span,
    integral_norm_bound,
    stochastic_integral,
    unitary_transport,
)
from .fock_ito import (
    FockStepProcess,
    check_adapted,
    ito_isometry,
    ito_wick,
    skorohod_integral,
    wick_operator_process,
)
from .bernoulli import (
    BernoulliSpace,
    RandomVariable,
    chaos_integral_pair,
    chaos_map,
    classical_realization,
    cond_expect,
    discrete_ito,
    measurability_equivalence,
    multiplication_integral_pair,
    multiplication_operator,
)
from .montecarlo import (
    PathEnsemble,
    brownian_ensemble,
    hermite_reference,
    iterated_ones,
    iterated_samples,
    poisson_ensemble,
)

__version__ = "0.1.0"
