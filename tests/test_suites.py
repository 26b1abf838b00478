import os
import pickle
import signal
import sys
import threading
import time
import tracemalloc

import pytest

import oracle
from children import assert_no_child_left
from stochint import bernoulli, fock, fock_ito, montecarlo, suites
from stochint.grid import uniform_grid
from stochint.errors import (
    NotAdaptedError,
    NotRepresentableError,
    RefusalError,
    TruncationOverflowError,
)
from stochint.fock import FockVector
from stochint.reports import merge_reports, render_json
from stochint.symtensor import SymCoeffs


def test_operator_suite_small():
    rep = suites.verify_operator_suite(cells=4, trials=60, seed=5)
    assert rep.passed, [c.name for c in rep.failures()]
    names = {c.name for c in rep.checks}
    assert "isometry_bound_max_violation" in names
    assert "unitary_transport_max_dev" in names


def test_operator_suite_handles_zero_trials():
    rep = suites.verify_operator_suite(cells=3, trials=0, seed=1)
    assert rep.passed
    # every maximum is noted; the three violation counters are not
    unseen = [c.name for c in rep.checks if not c.name.startswith(("measurability_", "nonmeasurable_"))]
    assert len(unseen) == 5
    assert rep.notes == [f"{name}: no value was observed, so it reports 0" for name in unseen]


def test_a_maximum_that_observed_nothing_is_noted():
    # the scalar family runs on odd trials only, so one trial never reaches it
    rep = suites.verify("hstoch", cells=4, degree=3, trials=1, seed=0)
    assert rep.passed
    assert rep.notes == ["scalar_family_max_equality_dev: no value was observed, so it reports 0"]
    assert suites.verify("hstoch", cells=4, degree=3, trials=2, seed=0).notes == []


def test_fock_ito_suite_small():
    rep = suites.verify_fock_ito_suite(cells=4, degree=2, trials=40, seed=5)
    assert rep.passed, [c.name for c in rep.failures()]
    assert any("bridge" in c.name for c in rep.checks)
    assert rep.notes  # the bridge evidence note


def test_bernoulli_suite_small():
    rep = suites.verify_bernoulli_suite(cells=4, trials=40, seed=5)
    assert rep.passed, [c.name for c in rep.failures()]
    names = {c.name for c in rep.checks}
    assert "measurability_equivalence_violations" in names
    assert "chaos_ito_intertwine_max_dev" in names


def test_tolerance_override_fails_checks():
    rep = suites.verify_operator_suite(cells=3, trials=5, seed=5, tolerances={"scalar_equality": -1.0})
    assert not rep.passed
    assert any(c.name == "scalar_family_max_equality_dev" for c in rep.failures())


def test_mc_suite_brownian_small():
    rep = suites.mc_suite(model="brownian", cells=16, paths=20_000, seed=7)
    assert rep.passed, [(c.name, c.lhs, c.rhs, c.tolerance) for c in rep.failures()]
    names = {c.name for c in rep.checks}
    assert "order2_mean_diff" in names
    assert "ensemble_deterministic" in names


def test_mc_suite_poisson_small():
    rep = suites.mc_suite(model="poisson", cells=16, paths=20_000, seed=7)
    assert rep.passed, [(c.name, c.lhs, c.rhs, c.tolerance) for c in rep.failures()]


@pytest.mark.parametrize("model", ["brownian", "poisson"])
def test_mc_suite_memory_stays_below_one_ensemble(model, monkeypatch):
    # the path ranges run here one after another instead of in worker
    # processes, so tracemalloc sees every block the workers would draw
    ranges = []

    def in_process(fn, items):
        ranges.extend(items)
        return [fn(item) for item in items]

    monkeypatch.setattr(suites, "_in_workers", in_process)
    monkeypatch.setattr(suites, "_cpus", lambda: 2)
    cells, paths = 64, 20_000
    suites.mc_suite(model=model, cells=cells, paths=200, seed=7)  # fill the table caches
    ranges.clear()
    tracemalloc.start()
    try:
        rep = suites.mc_suite(model=model, cells=cells, paths=paths, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < paths * cells * 8
    assert [len(blocks) for blocks in ranges] == [5, 5]  # 2048-path blocks


@pytest.mark.parametrize("model", ["brownian", "poisson"])
def test_mc_suite_streams_blocks(model, tmp_path, monkeypatch):
    # 7-path blocks: the CSV is the whole ensemble, and only the last bits
    # of the merged statistics depend on the block size
    args = dict(model=model, cells=5, paths=300, seed=9)
    whole = suites.mc_suite(**args)
    monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", 35)
    streamed = suites.mc_suite(**args, csv=str(tmp_path / "paths.csv"))
    reference = tmp_path / "reference.csv"
    make = getattr(montecarlo, f"{model}_ensemble")
    oracle.export_csv(make(uniform_grid(1.0, 5), 300, 9).increments, reference)
    assert (tmp_path / "paths.csv").read_bytes() == reference.read_bytes()
    assert [(c.name, c.passed) for c in streamed.checks] == [(c.name, c.passed) for c in whole.checks]
    for a, b in zip(streamed.checks, whole.checks):
        assert a.lhs == pytest.approx(b.lhs, rel=1e-12, abs=1e-15)
        assert a.tolerance == pytest.approx(b.tolerance, rel=1e-12)


def _deterministic(rep) -> float:
    return next(c.lhs for c in rep.checks if c.name == "ensemble_deterministic")


def _wrap_generator(monkeypatch, model, change, cpus):
    """Run mc_suite on 40-path blocks (240 doubles at 6 cells) with the
    model's generator passed through `change(ensemble, call)`, call counting
    this process's draws from 1."""
    name = f"{model}_ensemble"
    draw, calls = getattr(montecarlo, name), []

    def changed(*args, **kwargs):
        calls.append(None)
        return change(draw(*args, **kwargs), len(calls))

    monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", 240)
    monkeypatch.setattr(montecarlo, name, changed)
    monkeypatch.setattr(suites, "_cpus", lambda: cpus)


def _last_row_moved(ensemble, call):
    if ensemble.paths > 1:
        ensemble.increments[-1] += 1.0
    return ensemble


def _call_added(ensemble, call):
    ensemble.increments[:] += call
    return ensemble


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("model", ["brownian", "poisson"])
@pytest.mark.parametrize("change", [_last_row_moved, _call_added])
def test_ensemble_deterministic_sees_a_path_that_depends_on_its_block(monkeypatch, model, change, cpus):
    # a block's last path drawn alone differs from its row in the block, or
    # every draw differs from every other: each of the 10 blocks counts
    _wrap_generator(monkeypatch, model, change, cpus)
    rep = suites.mc_suite(model=model, cells=6, paths=400, seed=3)
    assert _deterministic(rep) == 10
    assert not rep.passed
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("model", ["brownian", "poisson"])
def test_ensemble_deterministic_passes_a_last_block_of_one_path(monkeypatch, model, cpus):
    # 401 paths: ten 40-path blocks and one of path 400 alone
    _wrap_generator(monkeypatch, model, lambda ensemble, call: ensemble, cpus)
    rep = suites.mc_suite(model=model, cells=6, paths=401, seed=3)
    assert _deterministic(rep) == 0
    assert rep.passed, [c.name for c in rep.failures()]


def test_mc_suite_unknown_model():
    with pytest.raises(ValueError):
        suites.mc_suite(model="levy", cells=4, paths=10, seed=1)


def test_refinement_study():
    rep = suites.refinement_study(start_cells=2, levels=6)
    assert rep.passed, [c.name for c in rep.failures()]
    assert rep.table is not None and len(rep.table) == 6
    assert rep.table[0]["cells"] == 2 and rep.table[-1]["cells"] == 64
    defects = [row["defect"] for row in rep.table]
    assert all(d > 0 for d in defects)
    for a, b in zip(defects, defects[1:]):
        assert a / b == pytest.approx(2.0, rel=1e-9)


def test_verify_all_has_thirty_checks():
    rep = suites.verify_all(cells=3, degree=2, trials=12, seed=3)
    assert rep.passed, [c.name for c in rep.failures()]
    assert len(rep.checks) >= 30


@pytest.mark.parametrize("tolerances", [None, {"transport": 1e-30}])
def test_verify_all_matches_the_suites_run_one_after_another(tolerances):
    cells, degree, trials, seed = 3, 2, 12, 3
    pooled = suites.verify_all(cells, degree, trials, seed, tolerances)
    assert_no_child_left()
    parts = [suites.verify(name, cells, degree, trials, seed, tolerances) for name in suites.VERIFY_SUITES[:-1]]
    in_process = merge_reports("all", seed, f"cells<={cells}, degree<={degree}, trials={trials}", parts)
    assert render_json(pooled) == render_json(in_process)
    failed = [] if tolerances is None else ["hstoch/unitary_transport_max_dev"]
    assert [c.name for c in pooled.failures()] == failed


@pytest.mark.parametrize(
    "error",
    [
        RefusalError("too large"),
        TruncationOverflowError(3),
        NotAdaptedError(2, 1, (0, 1)),
        NotRepresentableError((1, 1)),
    ],
    ids=lambda error: type(error).__name__,
)
def test_errors_pickle_with_their_fields(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert vars(back) == vars(error)


def test_verify_all_raises_a_worker_error_with_its_fields(monkeypatch):
    # the workers are forked, so they run the patched fock_ito module
    def broken(proc):
        raise NotAdaptedError(3, 1, (1, 2))

    monkeypatch.setattr(fock_ito, "ito_wick", broken)
    with pytest.raises(NotAdaptedError, match=r"not adapted at cell 3, degree 1, multiset \(1, 2\)") as err:
        suites.verify_all(cells=3, degree=2, trials=4, seed=1)
    assert (err.value.cell, err.value.degree, err.value.multiset) == (3, 1, (1, 2))
    assert_no_child_left()


def test_verify_all_refuses_an_oversized_sign_space_before_it_forks(monkeypatch):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    message = "a sign space on 30 cells has 32212254720 increment entries, over the limit 4194304"
    with pytest.raises(RefusalError, match=f"^{message}$"):
        suites.verify_all(30, 3, 5, 1)


forked = pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")


def test_in_workers_runs_a_single_item_here_and_forks_for_more():
    assert suites._in_workers(lambda item: os.getpid(), ["a"]) == [os.getpid()]
    if sys.platform == "linux":
        pids = suites._in_workers(lambda item: os.getpid(), ["a", "b"])
        assert os.getpid() not in pids and len(set(pids)) == 2
    assert_no_child_left()


@forked
def test_in_workers_names_a_killed_worker_and_kills_the_rest():
    def work(item):
        if item == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        if item == 2:
            time.sleep(60)
        return item

    started = time.monotonic()
    with pytest.raises(RuntimeError, match="the worker for item 1 was killed by SIGKILL without a complete result"):
        suites._in_workers(work, [0, 1, 2])
    assert time.monotonic() - started < 30
    assert_no_child_left()


class _Holder:
    def __init__(self):
        self.lock = threading.Lock()


class _TwoFieldError(Exception):
    # BaseException pickles self.args, (message,), which this __init__ cannot take back
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@forked
@pytest.mark.parametrize(
    "outcome, kind, name",
    [(_Holder, "result", "_Holder"), (lambda: _TwoFieldError(1, 2), "exception", "_TwoFieldError")],
    ids=["result", "exception"],
)
def test_in_workers_names_the_type_of_an_outcome_that_cannot_be_pickled(outcome, kind, name):
    def work(item):
        if item == 0:
            return item
        value = outcome()
        if isinstance(value, BaseException):
            raise value
        return value

    with pytest.raises(pickle.PicklingError, match=f"the {kind} of the worker for item 1, of type {name},"):
        suites._in_workers(work, [0, 1, 2])
    assert_no_child_left()


@forked
def test_in_workers_returns_results_past_the_pipe_buffer():
    # 4 MiB each, far past a 64 KiB pipe buffer: the workers block on their
    # writes until the parent reads their pipes in item order
    results = suites._in_workers(lambda item: bytes([item]) * (4 << 20), [1, 2, 3])
    assert results == [bytes([item]) * (4 << 20) for item in (1, 2, 3)]
    assert_no_child_left()


@forked
def test_in_workers_raises_the_first_error_in_item_order_with_the_worker_traceback():
    def _deep_fault(item):
        raise ValueError(f"fault in item {item}")

    def work(item):
        if item == 1:
            time.sleep(0.3)  # item 2 raises first in time
        if item:
            _deep_fault(item)
        return item

    with pytest.raises(ValueError, match="fault in item 1") as err:
        suites._in_workers(work, [0, 1, 2])
    cause = str(err.value.__cause__)
    assert "Traceback (most recent call last)" in cause
    assert "in _deep_fault" in cause and "ValueError: fault in item 1" in cause
    assert_no_child_left()


@forked
def test_in_workers_kills_and_reaps_its_workers_on_keyboard_interrupt():
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    started = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            suites._in_workers(lambda item: time.sleep(60), [0, 1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30
    assert_no_child_left()


@pytest.mark.parametrize(
    "integral, moved",
    [("ito_wick", "route_equivalence_max_dev"), ("skorohod_integral", "skorohod_extends_ito_max_dev")],
)
def test_each_integral_check_reads_its_own_function(monkeypatch, integral, moved):
    # both checks compare with the Wick-product definition, so a fault in
    # one library integral moves its own check and not the other
    original = getattr(fock_ito, integral)

    def perturbed(proc):
        out = original(proc)
        comps = list(out.components)
        vec = comps[1].vector.copy()
        vec[0] += 1e-14
        comps[1] = SymCoeffs(out.grid, 1, vec)
        return FockVector(out.grid, tuple(comps))

    monkeypatch.setattr(fock_ito, integral, perturbed)
    rep = suites.verify_fock_ito_suite(cells=3, degree=2, trials=10, seed=5)
    checks = {c.name: c.lhs for c in rep.checks}
    both = ("route_equivalence_max_dev", "skorohod_extends_ito_max_dev")
    assert [checks[name] > 0 for name in both] == [name == moved for name in both]


def test_bernoulli_suite_counts_an_unpredictable_transport(monkeypatch):
    original = bernoulli.chaos_integral_pair
    calls = []

    def flaky(proc, space):
        calls.append(proc)
        if len(calls) == 3:
            raise NotAdaptedError(2)
        return original(proc, space)

    monkeypatch.setattr(bernoulli, "chaos_integral_pair", flaky)
    rep = suites.verify_bernoulli_suite(cells=3, trials=6, seed=5)
    checks = {c.name: c for c in rep.checks}
    assert checks["transported_predictability_violations"].lhs == 1.0
    assert [c.name for c in rep.failures()] == ["transported_predictability_violations"]


def test_bernoulli_suite_builds_one_realization_per_size(monkeypatch):
    original = bernoulli.classical_realization
    sizes = []

    def counted(space):
        sizes.append(space.n)
        return original(space)

    monkeypatch.setattr(bernoulli, "classical_realization", counted)
    rep = suites.verify_bernoulli_suite(cells=4, trials=10, seed=5)
    assert rep.passed, [c.name for c in rep.failures()]
    assert sizes == [1, 2, 3, 4]


def test_fock_ito_suite_pads_wick_operands_to_their_products_degree(monkeypatch):
    # operands of degree <= 1 need truncation 3 for a triple product, and the
    # overflow probe's degree-3 top overflows at degree 4
    original = fock.wick
    truncations = []

    def recorded(f, g):
        truncations.extend((f.truncation, g.truncation))
        return original(f, g)

    monkeypatch.setattr(fock, "wick", recorded)
    rep = suites.verify_fock_ito_suite(cells=4, degree=1, trials=5, seed=0)
    assert rep.passed, [c.name for c in rep.failures()]
    assert max(truncations) == 3
