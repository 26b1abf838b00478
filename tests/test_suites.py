import pytest

from stochint import bernoulli, fock_ito, suites
from stochint.errors import NotAdaptedError
from stochint.fock import FockVector
from stochint.symtensor import SymCoeffs


def test_operator_suite_small():
    rep = suites.verify_operator_suite(cells=4, dim=6, trials=60, transport_trials=20, seed=5)
    assert rep.passed, [c.name for c in rep.failures()]
    names = {c.name for c in rep.checks}
    assert "isometry_bound_max_violation" in names
    assert "unitary_transport_max_dev" in names


def test_operator_suite_handles_zero_trials():
    rep = suites.verify_operator_suite(cells=3, trials=0, transport_trials=0, seed=1)
    assert rep.passed


def test_fock_ito_suite_small():
    rep = suites.verify_fock_ito_suite(cells=4, degree=2, trials=40, bridge_trials=10, seed=5)
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
    rep = suites.verify_operator_suite(
        cells=3, trials=5, transport_trials=0, seed=5, tolerances={"scalar_equality": -1.0}
    )
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


def test_skorohod_check_compares_with_the_wick_route(monkeypatch):
    original = fock_ito.ito_wick

    def perturbed(proc):
        out = original(proc)
        comps = list(out.components)
        vec = comps[1].vector.copy()
        vec[0] += 1e-14
        comps[1] = SymCoeffs(out.grid, 1, vec)
        return FockVector(out.grid, tuple(comps))

    monkeypatch.setattr(fock_ito, "ito_wick", perturbed)
    rep = suites.verify_fock_ito_suite(cells=3, degree=2, trials=10, bridge_trials=0, seed=5)
    checks = {c.name: c for c in rep.checks}
    assert checks["skorohod_extends_ito_max_dev"].lhs > 0
    assert checks["route_equivalence_max_dev"].lhs > 0


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
