"""Randomized and exact verification suites.

Each suite builds a :class:`~stochint.reports.SuiteReport` whose checks carry
explicit tolerances; the CLI and the acceptance tests both run through these
entry points.  Tolerances can be overridden per check family via the
``tolerances`` mapping (see :data:`DEFAULT_TOLERANCES` for the known keys).
Trial streams derive from (seed, suite id, trial index), so results do not
depend on execution order.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from collections import defaultdict
from collections.abc import Sequence
from contextlib import nullcontext
from functools import partial
from itertools import chain, combinations

import numpy as np

from . import bernoulli as brn
from . import fock, fock_ito, montecarlo, symtensor
from .errors import NotAdaptedError, RefusalError, TruncationOverflowError
from .fock import FockVector
from .fock_ito import FockStepProcess
from .grid import uniform_grid
from .operator_integral import (
    OperatorStepProcess,
    VectorMartingale,
    check_measurable,
    future_increment_span,
    integral_norm_bound,
    stochastic_integral,
    unitary_transport,
)
from .randomgen import (
    generator,
    random_adapted_process,
    random_complex,
    random_fock_vector,
    random_grid,
    random_martingale,
    random_measurable_process,
    random_predictable,
    random_unitary,
)
from .reports import CheckResult, SuiteReport, Tracker, bound, count_zero, equality, merge_reports

DEFAULT_TOLERANCES = {
    "bound": 1e-10,
    "scalar_equality": 1e-10,
    "linearity": 1e-10,
    "transport": 1e-10,
    "telescoping": 1e-12,
    "route_equivalence": 1e-12,
    "isometry": 1e-12,
    "skorohod_match": 1e-15,
    "wick_algebra": 1e-12,
    "projection": 1e-12,
    "bridge": 1e-12,
    "pointwise": 1e-12,
    "norm_identity": 1e-10,
    "martingale_exact": 1e-12,
    "chaos_isometry": 1e-12,
}

# suite ids keep the per-trial seed streams of different suites disjoint; _MC
# is reserved: mc draws from montecarlo's own streams, not from generator()
_OPERATOR, _FOCK_ITO, _BERNOULLI, _MC, _BRIDGE, _WICK, _TRANSPORT = range(7)

#: the operator suite draws martingales in C^2..C^_MAX_DIM
_MAX_DIM = 8


class _WorkerTraceback(Exception):
    """The traceback text of an error raised in a worker process; the error
    is raised here with it as __cause__, so the worker's frames print first."""


def _work(fn, item, write: int):
    """The body of a forked worker: write the pickled (ok, value) of fn(item)
    to the pipe end `write` and leave by os._exit, with status 0 once the
    whole outcome is written.  On an error, value is (exception, traceback
    text).  An outcome that does not survive a pickle round trip is replaced
    by a pickle.PicklingError that names its type."""
    status = 1
    try:
        try:
            outcome = True, fn(item)
        except BaseException as exc:
            import traceback

            outcome = False, (exc, traceback.format_exc())
        try:
            data = pickle.dumps(outcome)
            pickle.loads(data)
        except Exception as exc:
            ok, value = outcome
            kind, culprit = ("result", value) if ok else ("exception", value[0])
            error = pickle.PicklingError(
                f"the {kind} of the worker for item {item!r}, of type {type(culprit).__qualname__}, "
                f"cannot be pickled: {exc}"
            )
            data = pickle.dumps((False, (error, "")))
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)  # no atexit handler runs, and no inherited stdio buffer is flushed


def _outcome(item, data: bytes, status: int):
    """The result a reaped worker sent for `item`, or its error raised here."""
    code = os.waitstatus_to_exitcode(status)
    if code or not data:
        how = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(f"the worker for item {item!r} {how} without a complete result")
    ok, value = pickle.loads(data)
    if ok:
        return value
    exc, text = value
    raise exc from (_WorkerTraceback(text) if text else None)


def _in_workers(fn, items: Sequence) -> list:
    """[fn(item) for item in items], one forked worker process per item; a
    single item, or any items on a platform other than Linux, run in this
    process.

    Each worker sends its outcome down its own pipe and leaves by os._exit.
    Results come back in item order.  The error of the first item that
    raised, in item order, is raised here with its type and fields and with
    the worker's traceback text as __cause__.  A worker that ends without a
    complete outcome, by a signal or a nonzero status, raises RuntimeError
    naming its item and how it ended; an outcome that cannot be pickled
    raises pickle.PicklingError naming its type.  When anything is raised
    here, a KeyboardInterrupt included, the workers still running are
    killed; every worker is reaped before this returns or raises.  The
    workers share this process's pages until they write to them, so the
    peak resident memory of a run is that of its largest process."""
    if len(items) == 1 or sys.platform != "linux":
        return [fn(item) for item in items]
    pipes, pids = [], []  # pids: the workers not yet reaped, in item order
    try:
        for item in items:
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, item, write)
            finally:
                os.close(write)  # only the parent gets here: _work never returns
            pids.append(pid)
        results = []
        for item, pipe in zip(items, pipes):
            data = pipe.read()
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            results.append(_outcome(item, data, status))
        return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _cpus() -> int:
    """The number of CPUs this process may run on (all of the machine's
    where the platform cannot restrict that)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _contiguous(n: int, count: int) -> list[range]:
    """range(n) cut into `count` consecutive ranges whose lengths differ by at most one."""
    size, extra = divmod(n, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _tolerances(overrides: dict | None) -> dict:
    return {**DEFAULT_TOLERANCES, **(overrides or {})}


# --------------------------------------------------------------------------
# operator-integral suite ("hstoch")
# --------------------------------------------------------------------------


def verify_operator_suite(cells: int, trials: int, seed: int, tolerances: dict | None = None) -> SuiteReport:
    """Norm bound, linearity, measurability and transport on random data;
    the transport section runs min(200, trials) trials."""
    report = SuiteReport(
        "hstoch", seed, f"random grids, cells<={cells}, dim<={_MAX_DIM}, trials={trials}"
    )
    tracker = Tracker(_tolerances(tolerances))
    self_check_failures = tracker.count("measurability_self_check_failures")
    bound_violation = tracker.bound("isometry_bound_max_violation", "bound")
    scalar_dev = tracker.eq("scalar_family_max_equality_dev", "scalar_equality")
    linearity_dev = tracker.eq("linearity_max_dev", "linearity")
    monotone_violations = tracker.count("measurability_monotone_violations")
    negative_misses = tracker.count("nonmeasurable_detected_misses")
    telescoping_dev = tracker.eq("telescoping_max_dev", "telescoping")
    transport_dev = tracker.eq("unitary_transport_max_dev", "transport")

    for t in range(trials):
        rng = generator(seed, _OPERATOR, t)
        n = int(rng.integers(1, cells + 1))
        d = int(rng.integers(2, _MAX_DIM + 1))
        grid = random_grid(rng, n)
        mart = random_martingale(rng, grid, d)
        scalar = t % 2 == 1
        proc = random_measurable_process(rng, mart, scalar_action=scalar)

        lhs, rhs, reports = integral_norm_bound(proc, mart)
        for r in reports:
            self_check_failures.count(not r.ok)
        bound_violation.observe(lhs - rhs)
        if scalar:
            scalar_dev.observe(abs(lhs - rhs))

        if t % 5 == 0:
            other = random_measurable_process(rng, mart, scalar_action=not scalar)
            a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            combined = OperatorStepProcess(
                grid,
                tuple(a * x + b * y for x, y in zip(proc.operators, other.operators)),
            )
            direct = stochastic_integral(combined, mart)
            split = a * stochastic_integral(proc, mart) + b * stochastic_integral(other, mart)
            linearity_dev.observe(float(np.linalg.norm(direct - split)))

        if t % 10 == 0:
            # measurable at j stays measurable at every later boundary
            for j in range(1, n + 1):
                monotone_violations.count(not check_measurable(proc.operator(1), mart, j))
            # an operator moving one future increment direction into an
            # earlier spectral slice must be flagged
            span = future_increment_span(mart, 0)
            if span.shape[1] >= 2:
                bad = np.outer(span[:, 0], span[:, -1].conj())
                negative_misses.count(check_measurable(bad, mart, int(mart.span_cells[-1]) - 1))
            identity = OperatorStepProcess(grid, tuple(np.eye(d) for _ in range(n)))
            tele = stochastic_integral(identity, mart)
            expected = mart.vector - mart.measure.project(0, mart.vector)
            telescoping_dev.observe(float(np.linalg.norm(tele - expected)))

    for t in range(min(200, trials)):
        rng = generator(seed, _TRANSPORT, t)
        n = int(rng.integers(1, cells + 1))
        d = int(rng.integers(2, _MAX_DIM + 1))
        mart = random_martingale(rng, random_grid(rng, n), d)
        proc = random_measurable_process(rng, mart, scalar_action=t % 2 == 0)
        left, right = unitary_transport(random_unitary(rng, d), proc, mart)
        transport_dev.observe(float(np.linalg.norm(left - right)))

    tracker.emit(report)
    return report


def verify_input_file(data: dict, tolerances: dict | None = None) -> list[CheckResult]:
    """Measurability and the norm bound for a serialized martingale and process.

    `data` holds ``"martingale"`` and ``"process"`` in their ``to_json``
    forms.  Malformed data, including non-finite numbers, finite ones whose
    norm bound overflows and a process and a martingale that differ in grid
    or dimension, raises ``KeyError``, ``TypeError`` or ``ValueError``.  The
    bound's slack scales with the data: the ``bound`` tolerance times rhs,
    plus 4 * dim * eps * (sum_k ||A_k||_F ||P_k M||)^2 of round-off.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mart = VectorMartingale.from_json(data["martingale"])
        proc = OperatorStepProcess.from_json(data["process"])
        lhs, rhs, reports = integral_norm_bound(proc, mart)
        operands = sum(np.linalg.norm(a) * np.linalg.norm(mart.increment(k)) for k, a in enumerate(proc.operators, 1))
        slack = _tolerances(tolerances)["bound"] * rhs + 4 * mart.dim * np.finfo(float).eps * operands**2
    if not np.isfinite([lhs, rhs, slack]).all():
        raise ValueError(f"the norm bound overflows: lhs={lhs!r}, rhs={rhs!r}")
    failures = sum(not r.ok for r in reports)
    return [
        count_zero("file_measurability_failures", failures),
        bound("file_isometry_bound", lhs, rhs, slack),
    ]


# --------------------------------------------------------------------------
# Fock-space Ito suite ("fock-ito")
# --------------------------------------------------------------------------


def verify_fock_ito_suite(
    cells: int, degree: int, trials: int, seed: int, tolerances: dict | None = None
) -> SuiteReport:
    """Ito and Skorohod integrals against the Wick-product definition,
    isometry, Wick algebra, projection family, and the operator realization
    of Wick multiplication (min(100, trials) bridge trials)."""
    report = SuiteReport(
        "fock-ito",
        seed,
        f"random grids, cells<={cells}, degree<={degree}, trials={trials}",
    )
    tracker = Tracker(_tolerances(tolerances))
    route_dev = tracker.eq("route_equivalence_max_dev", "route_equivalence")
    isometry_dev = tracker.eq("isometry_max_scaled_dev", "isometry")
    skorohod_dev = tracker.eq("skorohod_extends_ito_max_dev", "skorohod_match")
    offdiag_violations = tracker.count("offdiagonal_output_violations")
    wick_dev = tracker.eq("wick_algebra_max_dev", "wick_algebra")
    overflow_misses = tracker.count("strict_overflow_misses")
    proj_dev = tracker.eq("projection_family_max_dev", "projection")
    lebesgue_dev = tracker.eq("projected_indicator_measure_max_dev", "projection")
    bridge_dev = tracker.eq("wick_operator_bridge_max_dev", "bridge")
    bridge_failures = tracker.count("wick_operator_measurability_failures")
    nonadapted_misses = tracker.count("wick_nonadapted_detected_misses")

    for t in range(trials):
        rng = generator(seed, _FOCK_ITO, t)
        n = int(rng.integers(1, cells + 1))
        grid = random_grid(rng, n)
        max_deg = int(rng.integers(0, degree + 1))
        off_diag = bool(rng.integers(0, 2))
        proc = random_adapted_process(rng, grid, degree + 1, max_deg, off_diagonal=off_diag)

        # each library integral against the definition, sum_k value_k (Wick)
        # increment_k through the general Wick product
        iw = fock_ito.ito_wick(proc)
        via_wick = fock.zero_vector(grid, iw.truncation)
        for k in range(1, n + 1):
            via_wick += fock.wick(proc.value(k), fock.cell_increment(grid, k))
        route_dev.observe(fock.entrywise_distance(iw, via_wick))

        # the isometry of iw itself: fock_ito.ito_isometry would integrate again
        lhs = fock.norm2(iw)
        rhs = sum(fock.norm2(proc.value(k)) * grid.length(k) for k in range(1, n + 1))
        isometry_dev.observe(abs(lhs - rhs) / max(1.0, rhs))

        # on an adapted process the Skorohod extension is the Ito integral
        skorohod_dev.observe(fock.entrywise_distance(fock_ito.skorohod_integral(proc), via_wick))

        if off_diag:
            for comp in iw.components:
                offdiag_violations.count(not comp.is_off_diagonal())

    # Wick algebra on random vectors with enough headroom for triple products
    for t in range(max(1, trials // 5)):
        rng = generator(seed, _WICK, t)
        n = int(rng.integers(1, cells + 1))
        grid = random_grid(rng, n)
        f = random_fock_vector(rng, grid, 1).pad(6)
        g = random_fock_vector(rng, grid, 1).pad(6)
        h = random_fock_vector(rng, grid, 1).pad(6)
        fg = fock.wick(f, g)
        wick_dev.observe(fock.entrywise_distance(fg, fock.wick(g, f)))
        wick_dev.observe(fock.entrywise_distance(fock.wick(fg, h), fock.wick(f, fock.wick(g, h))))
        a, b = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
        lin = fock.wick(a * f + b * g, h)
        split = a * fock.wick(f, h) + b * fock.wick(g, h)
        wick_dev.observe(fock.entrywise_distance(lin, split))
        wick_dev.observe(fock.entrywise_distance(fock.wick(fock.vacuum(grid, 6), f), f))
        # the product must refuse to drop a nonzero top component
        top = symtensor.cell_indicator(grid, 1)
        full = FockVector(grid, tuple(symtensor.zero(grid, d) for d in range(6)) + (symtensor.ones(grid, 6),))
        try:
            fock.wick(full, FockVector(grid, (symtensor.zero(grid, 0), top)))
            overflow_misses.count(True)
        except TruncationOverflowError:
            pass

    # the projection family at boundaries: idempotent, self-adjoint,
    # monotone, and with the squared norm of the projected indicator equal to
    # the boundary time
    for t in range(20):
        rng = generator(seed, _WICK, 10_000 + t)
        n = int(rng.integers(1, cells + 1))
        grid = random_grid(rng, n)
        f = random_fock_vector(rng, grid, 2)
        g = random_fock_vector(rng, grid, 2)
        z = fock.indicator_vector(grid)
        for j in range(n + 1):
            pf = fock.resolution_project(f, j)
            proj_dev.observe(fock.entrywise_distance(fock.resolution_project(pf, j), pf))
            proj_dev.observe(
                abs(fock.fock_inner(pf, g) - fock.fock_inner(f, fock.resolution_project(g, j)))
            )
            for j2 in range(j, n + 1):
                both = fock.resolution_project(fock.resolution_project(f, j2), j)
                proj_dev.observe(fock.entrywise_distance(both, pf))
            lebesgue_dev.observe(abs(fock.norm2(fock.resolution_project(z, j)) - grid.boundaries[j]))

    # operator realization of Wick multiplication
    for t in range(min(100, trials)):
        rng = generator(seed, _BRIDGE, t)
        n = int(rng.integers(2, max(2, cells) + 1))
        grid = random_grid(rng, n)
        max_deg = int(rng.integers(0, min(3, degree) + 1))
        proc = random_adapted_process(rng, grid, max_deg + 1, max_deg, off_diagonal=False)
        realization = fock_ito.wick_operator_process(proc)
        for k in range(1, n + 1):
            bridge_failures.count(
                not check_measurable(realization.process.operator(k), realization.martingale, k - 1)
            )
        vec = stochastic_integral(realization.process, realization.martingale)
        via_operators = realization.coords_to_vector(vec)
        bridge_dev.observe(fock.entrywise_distance(via_operators, fock_ito.ito_wick(proc)))
        if t < 5:
            # a value whose support reaches its own cell yields an operator
            # that must fail the measurability check one boundary earlier
            shifted = fock_ito.FockStepProcess(
                grid,
                tuple(
                    fock.cell_increment(grid, k - 1).pad(2) if k > 1 else fock.vacuum(grid, 2)
                    for k in range(1, n + 1)
                ),
            )
            shifted_real = fock_ito.wick_operator_process(shifted)
            k_bad = 2  # operator multiplies by the cell-1 increment
            nonadapted_misses.count(
                check_measurable(shifted_real.process.operator(k_bad), shifted_real.martingale, k_bad - 2)
            )

    tracker.emit(report)
    report.notes.append(
        "wick-operator bridge checks are finite-grid numerical evidence, not a proof"
    )
    report.notes.append(
        "Wick products above the realization truncation are dropped from the bridge operators"
    )
    return report


# --------------------------------------------------------------------------
# Bernoulli suite ("bernoulli")
# --------------------------------------------------------------------------


def verify_bernoulli_suite(cells: int, trials: int, seed: int, tolerances: dict | None = None) -> SuiteReport:
    """Exact identities on the sign space: martingale structure, the
    measurability equivalence, both integral transports, and the chaos map,
    on sign spaces of up to `cells` cells; past the sign space's size limit
    BernoulliSpace raises RefusalError before anything is built."""
    report = SuiteReport("bernoulli", seed, f"sign spaces, cells<={cells}, trials={trials}")
    tracker = Tracker(_tolerances(tolerances))
    mart_mean = tracker.eq("martingale_mean_max", "martingale_exact")
    mart_var = tracker.eq("martingale_variance_max", "martingale_exact")
    cond_dev = tracker.eq("conditional_projection_max_dev", "martingale_exact")
    contraction_violations = tracker.count("conditional_contraction_violations")
    agreement_violations = tracker.count("measurability_equivalence_violations")
    norm_identity_dev = tracker.eq("restricted_norm_identity_max_dev", "norm_identity")
    route_dev = tracker.eq("multiplication_route_max_dev", "pointwise")
    chaos_dev = tracker.eq("chaos_isometry_max_dev", "chaos_isometry")
    intertwine_dev = tracker.eq("chaos_ito_intertwine_max_dev", "pointwise")
    predictability_violations = tracker.count("transported_predictability_violations")
    proj_intertwine_dev = tracker.eq("chaos_projection_intertwine_max_dev", "pointwise")
    gram_dev = tracker.eq("chaos_basis_gram_max_dev", "chaos_isometry")

    rng = generator(seed, _BERNOULLI, 0)
    space = brn.BernoulliSpace(random_grid(rng, max(2, cells)))
    for k in range(1, space.n + 1):
        inc = space.increment(k)
        mart_mean.observe(brn.max_abs(brn.cond_expect(inc, k - 1)))
        var = brn.cond_expect(inc * inc, k - 1) - space.constant(space.grid.length(k))
        mart_var.observe(brn.max_abs(var))

    for t in range(20):
        rng = generator(seed, _BERNOULLI, 100 + t)
        x = brn.RandomVariable(space, random_complex(rng, space.size))
        y = brn.RandomVariable(space, random_complex(rng, space.size))
        for k in range(space.n + 1):
            ck = brn.cond_expect(x, k)
            cond_dev.observe(brn.max_abs(brn.cond_expect(ck, k) - ck))
            cond_dev.observe(abs(brn.cond_expect(x, k).inner(y) - x.inner(brn.cond_expect(y, k))))
            contraction_violations.count(ck.norm2() > x.norm2() + 1e-12)
            for j in range(k + 1):
                nested = brn.cond_expect(ck, j)
                cond_dev.observe(brn.max_abs(nested - brn.cond_expect(x, j)))

    # one uniform sign space and realization per size, shared by every
    # section below; the exhaustive and Gram sections need up to three cells
    spaces = {n: brn.BernoulliSpace(uniform_grid(1.0, n)) for n in range(1, max(cells, 3) + 1)}
    realizations = {n: brn.classical_realization(sp) for n, sp in spaces.items()}

    # exhaustive equivalence on the sign-product basis for small n
    for n in (1, 2, 3):
        subsets = chain.from_iterable(combinations(range(1, n + 1), r) for r in range(n + 1))
        for cells_in_product in subsets:
            f = spaces[n].walsh(cells_in_product)
            for k in range(n + 1):
                verdicts = brn.measurability_equivalence(f, k, realizations[n])
                agreement_violations.count(not verdicts.agree)
                if verdicts.classical:
                    for nu in verdicts.restricted_norms:
                        norm_identity_dev.observe(abs(nu - verdicts.function_norm))

    # integrating a predictable family as multiplication operators agrees with
    # the plain increment sum
    for t in range(trials):
        rng = generator(seed, _BERNOULLI, 1000 + t)
        n = int(rng.integers(1, cells + 1))
        sp = spaces[n]
        integrands = random_predictable(rng, sp)
        via_ops, via_incs = brn.multiplication_integral_pair(integrands, realizations[n])
        route_dev.observe(brn.max_abs(via_ops - via_incs))

    # chaos map: isometry on off-diagonal pairs
    for t in range(trials):
        rng = generator(seed, _BERNOULLI, 2000 + t)
        n = int(rng.integers(1, cells + 1))
        sp = spaces[n]
        f = random_fock_vector(rng, sp.grid, min(n, 3), strict=True)
        g = random_fock_vector(rng, sp.grid, min(n, 3), strict=True)
        lhs = brn.chaos_map(f, sp).inner(brn.chaos_map(g, sp))
        rhs = fock.fock_inner(f, g)
        chaos_dev.observe(abs(lhs - rhs))

    # transport of the Ito integral through the chaos map
    for t in range(trials):
        rng = generator(seed, _BERNOULLI, 3000 + t)
        n = int(rng.integers(2, max(2, cells) + 1))
        sp = spaces[n]
        proc = random_adapted_process(rng, sp.grid, 3, 2, off_diagonal=True)
        # the discrete integral raises on an integrand that is not predictable
        try:
            left, right, _ = brn.chaos_integral_pair(proc, sp)
        except NotAdaptedError:
            predictability_violations.count(True)
        else:
            intertwine_dev.observe(brn.max_abs(left - right))
        vec = random_fock_vector(rng, sp.grid, min(n, 2), strict=True)
        image = brn.chaos_map(vec, sp)
        for j in range(n + 1):
            a = brn.chaos_map(fock.resolution_project(vec, j), sp)
            proj_intertwine_dev.observe(brn.max_abs(a - brn.cond_expect(image, j)))

    # full chaos basis on three cells: gram matrix matches, dimensions count
    n = 3
    sp = spaces[n]
    multisets = list(chain.from_iterable(combinations(range(1, n + 1), d) for d in range(n + 1)))
    basis = [fock.basis_vector(sp.grid, ms) for ms in multisets]
    images = [brn.chaos_map(f, sp) for f in basis]
    for fa, xa in zip(basis, images):
        for fb, xb in zip(basis, images):
            gram_dev.observe(abs(xa.inner(xb) - fock.fock_inner(fa, fb)))

    tracker.emit(report)
    report.add(equality("chaos_dimension_count", float(len(multisets)), float(sp.size), 0.0))
    return report


# --------------------------------------------------------------------------
# Monte Carlo suite ("mc")
# --------------------------------------------------------------------------


def _mean_check(
    report: SuiteReport, name: str, moments: montecarlo.Moments, target: float, allowance: float = 0.0
) -> None:
    """Add the check that the sample mean is within four standard errors,
    plus `allowance`, of `target`.  Samples that are all equal have no
    spread to judge by: a check on them that would pass is left out with a
    note, one that would fail raises RefusalError (a usage error)."""
    check = equality(name, moments.mean, target, 4.0 * moments.stderr() + allowance)
    if moments.high != moments.low:
        report.add(check)
    elif check.passed:
        report.notes.append(f"{name}: all {moments.count} samples are equal, so the check was not run")
    else:
        raise RefusalError(f"{name}: all {moments.count} samples are equal, so their standard error cannot judge the check")


def _brownian_samples(block: montecarlo.PathEnsemble, g: symtensor.SymCoeffs, f2: symtensor.SymCoeffs) -> dict:
    """The per-path samples of the Brownian checks on one block of paths."""
    w = montecarlo.linear_samples(g, block).real
    order1 = montecarlo.iterated_samples(g, block).real - montecarlo.hermite_reference(g, 1, w)
    _, _, square, cube = montecarlo.iterated_ones(block, 3)  # of g's symmetric powers
    return {
        "order1_reference_max_dev": np.abs(order1),
        "order2_mean_diff": square - montecarlo.hermite_reference(g, 2, w),
        "order3_mean_diff": cube - montecarlo.hermite_reference(g, 3, w),
        "power_second_moment": square**2,
        "offdiagonal_second_moment": np.abs(montecarlo.iterated_samples(f2, block)) ** 2,
        "linear_isometry": w**2,
    }


def _poisson_samples(block: montecarlo.PathEnsemble, g: symtensor.SymCoeffs) -> dict:
    """The per-path (per-increment for the mean) samples of the Poisson checks on one block."""
    return {
        "increment_mean": block.increments.reshape(-1),
        "linear_isometry": montecarlo.linear_samples(g, block).real ** 2,
        "terminal_second_moment": block.terminal() ** 2,
    }


def _mc_blocks(blocks: range, generate, samples, grid, paths: int, seed: int, step: int, csv: str | None):
    """Draw the path blocks in `blocks` (block i holds paths i*step..
    i*step+step-1, up to paths), draw each again for the determinism check,
    and return one Moments per block and check, in block order, with the
    number of blocks whose two draws differ.  With `csv`, the blocks are
    also written there (:func:`montecarlo.csv_writer`)."""
    per_block = []
    differ = 0
    with montecarlo.csv_writer(csv) if csv else nullcontext() as write:
        for i in blocks:
            start = i * step
            size = min(step, paths - start)
            block = generate(grid, size, seed, start=start)
            differ += not np.array_equal(block.increments, generate(grid, size, seed, start=start).increments)
            moments = defaultdict(montecarlo.Moments)
            for name, values in samples(block).items():
                moments[name].add(values)
            per_block.append(moments)
            if write:
                write(block)
    return per_block, differ


def mc_suite(
    model: str = "brownian",
    cells: int = 64,
    paths: int = 100_000,
    seed: int = 0,
    intensity: float = 1.0,
    csv: str | None = None,
) -> SuiteReport:
    """Statistical checks at four standard errors against closed-form
    references; the Gaussian model also checks the iterated-sum second
    moments with an O(max cell length) discretization allowance.

    The paths stream through blocks of about montecarlo._BLOCK_DOUBLES
    increments: each block is drawn, drawn again for `ensemble_deterministic`
    and compared, and its samples give one :class:`montecarlo.Moments` per
    check, so memory does not grow with `paths`.  The blocks are split into
    contiguous ranges, one forked worker process per available CPU and at
    most one per block (:func:`_in_workers`).  One range, or any run off
    Linux, stays in this process; two or more all run in workers while this
    process waits, and the run's peak resident memory is its largest
    process's.  The per-block Moments are merged here in block order, the
    serial sequence of updates, so the report does not depend on the number
    of workers.  With `csv`, all blocks run as one range in this process and
    are also written there: the file holds the ensemble the checks ran on."""
    grid = uniform_grid(1.0, cells)
    report = SuiteReport(f"mc-{model}", seed, f"uniform grid, cells={cells}, paths={paths}")
    g = symtensor.ones(grid, 1)
    isometry = ("linear_isometry", symtensor.norm2(g), 0.0)

    # (check, target, allowance) of every mean check, in report order
    if model == "brownian":
        generate = montecarlo.brownian_ensemble
        f2 = montecarlo.random_strict_coeffs(grid, 2, entries=6, seed=seed)
        samples = partial(_brownian_samples, g=g, f2=f2)
        allowance = 4.0 * max(grid.lengths)  # per unit of a second-moment target
        power = 2.0 * grid.horizon**2  # E[I_2(1)^2] = 2 ||ones(grid, 2)||^2 = 2 T^2
        offdiagonal = 2.0 * symtensor.norm2(f2)
        means = [
            ("order2_mean_diff", 0.0, 0.0),
            ("order3_mean_diff", 0.0, 0.0),
            ("power_second_moment", power, allowance * power),
            ("offdiagonal_second_moment", offdiagonal, allowance * offdiagonal),
            isometry,
        ]
    elif model == "poisson":
        generate = partial(montecarlo.poisson_ensemble, intensity=intensity)
        samples = partial(_poisson_samples, g=g)
        means = [("increment_mean", 0.0, 0.0), isometry, ("terminal_second_moment", grid.horizon, 0.0)]
    else:
        raise ValueError(f"unknown model {model!r}")

    step = max(1, montecarlo._BLOCK_DOUBLES // cells)
    blocks = -(-paths // step)
    ranges = _contiguous(blocks, 1 if csv else min(_cpus(), blocks))
    run = partial(_mc_blocks, generate=generate, samples=samples, grid=grid, paths=paths, seed=seed, step=step, csv=csv)
    results = _in_workers(run, ranges)

    moments = defaultdict(montecarlo.Moments)
    differ = 0
    for per_block, range_differ in results:
        differ += range_differ
        for block in per_block:
            for name, part in block.items():
                moments[name].merge(part)

    report.add(count_zero("ensemble_deterministic", differ))
    if model == "brownian":
        report.add(equality("order1_reference_max_dev", moments["order1_reference_max_dev"].high, 0.0, 1e-12))
    for name, target, allowance in means:
        _mean_check(report, name, moments[name], target, allowance)
    return report


# --------------------------------------------------------------------------
# grid-refinement study ("refine")
# --------------------------------------------------------------------------


def refinement_study(start_cells: int = 2, levels: int = 6, seed: int = 0) -> SuiteReport:
    """Integrate the left-endpoint indicator process (the canonical non-step
    target) on doubling grids.  The squared-norm defect against the limit
    value T^2/2 is an explicit left-Riemann-sum error: positive, monotone,
    and halving per refinement."""
    report = SuiteReport("refine", seed, f"uniform grids, cells {start_cells}..{start_cells * 2 ** (levels - 1)}")
    limit = 0.5  # T = 1

    rows = []
    defects = []
    step_diffs = []
    previous = None
    cells = start_cells
    for _ in range(levels):
        grid = uniform_grid(1.0, cells)
        proc = FockStepProcess(
            grid,
            tuple(fock.indicator_vector(grid, k - 1).pad(2) for k in range(1, grid.n + 1)),
        )
        integral = fock_ito.ito_wick(proc)
        value = fock.norm2(integral)
        defect = limit - value
        row = {"cells": cells, "integral_norm2": value, "defect": defect}
        if previous is not None:
            diff2 = fock.norm2(fock.refine_vector(previous, 2) - integral)
            step_diffs.append(diff2)
            row["step_diff_norm2"] = diff2
        rows.append(row)
        defects.append(defect)
        previous = integral
        cells *= 2

    report.table = rows
    report.add(count_zero("defect_positive_violations", sum(1 for d in defects if d <= 0.0)))
    report.add(
        count_zero(
            "defect_monotone_violations",
            sum(1 for a, b in zip(defects, defects[1:]) if b >= a),
        )
    )
    ratios = [a / b for a, b in zip(defects, defects[1:])]
    report.add(count_zero("defect_halving_violations", sum(1 for r in ratios if not 1.0 <= r <= 4.0)))
    closed = max(abs(d - 1.0 / (2.0 * row_cells)) for d, row_cells in zip(defects, (start_cells * 2 ** j for j in range(levels))))
    report.add(equality("defect_closed_form_max_dev", closed, 0.0, 1e-12))
    if step_diffs:
        report.add(
            count_zero(
                "step_diff_monotone_violations",
                sum(1 for a, b in zip(step_diffs, step_diffs[1:]) if b >= a),
            )
        )
        sratios = [a / b for a, b in zip(step_diffs, step_diffs[1:])]
        report.add(count_zero("step_diff_rate_violations", sum(1 for r in sratios if not 1.0 <= r <= 4.0)))
    return report


def verify(suite: str, cells: int, degree: int, trials: int, seed: int, tolerances: dict | None = None) -> SuiteReport:
    """Run one of :data:`VERIFY_SUITES` as the command line does; the CLI
    owns the default values.  Each suite caps its own sections: the
    transport and bridge trials, and the size of the Bernoulli sign spaces."""
    if suite == "hstoch":
        return verify_operator_suite(cells, trials, seed, tolerances)
    if suite == "fock-ito":
        return verify_fock_ito_suite(cells, degree, trials, seed, tolerances)
    if suite == "bernoulli":
        return verify_bernoulli_suite(cells, trials, seed, tolerances)
    if suite == "all":
        return verify_all(cells, degree, trials, seed, tolerances)
    raise ValueError(f"unknown suite {suite!r}")


#: the suite names :func:`verify` accepts; the last, "all", merges the others
VERIFY_SUITES = ("hstoch", "fock-ito", "bernoulli", "all")


def verify_all(cells: int, degree: int, trials: int, seed: int, tolerances: dict | None = None) -> SuiteReport:
    """Run the three verification suites, one forked worker process each
    (in this process on a platform other than Linux), and flatten them into
    one report.

    The suites share no random state, so the merged report is byte-identical
    to running them one after another in this process.  An error raised in a
    worker is raised here, the first in suite order, with the worker's
    traceback as its __cause__.  The peak resident memory of the run is that
    of its largest process (see :func:`_in_workers`).
    """
    run = partial(verify, cells=cells, degree=degree, trials=trials, seed=seed, tolerances=tolerances)
    parts = _in_workers(run, VERIFY_SUITES[:-1])
    return merge_reports("all", seed, f"cells<={cells}, degree<={degree}, trials={trials}", parts)
