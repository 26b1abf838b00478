import multiprocessing
import pickle
import tracemalloc

import pytest

import oracle
from stochint import bernoulli, fock_ito, montecarlo, suites
from stochint.grid import uniform_grid
from stochint.errors import (
    MeasurabilityError,
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
    assert multiprocessing.active_children() == []
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
        MeasurabilityError(3),
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
        raise MeasurabilityError(3)

    monkeypatch.setattr(fock_ito, "ito_wick", broken)
    with pytest.raises(MeasurabilityError, match="not measurable at boundary 2") as err:
        suites.verify_all(cells=3, degree=2, trials=4, seed=1)
    assert err.value.cell == 3
    assert multiprocessing.active_children() == []


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
