"""The Monte Carlo suite's reports against frozen digests.

The Poisson digests were frozen before the path blocks moved to worker
processes.  The Brownian ones were frozen again, from the one-process run,
when the off-diagonal integrand f2 of `offdiagonal_second_moment` moved to
SplitMix64 stream 0 (`montecarlo.random_strict_coeffs`); that check is the
only one of those reports that moved.

Each case runs on 6 cells and 401 paths with _BLOCK_DOUBLES at 240, so the
suite streams 11 blocks of 40 paths and one of 1.  The number of available
CPUs is set to 1, 2 and 3, so the blocks run in one process or are split
into two or three ranges of worker processes; the per-block moments are
merged in block order in every case, and the sha256 of the rendered report
must not move.  A run with a CSV export keeps its blocks in one range: its
report has the same digest, and the file is the csv.writer reference.
"""

import hashlib

import pytest

import oracle
from children import assert_no_child_left
from stochint import montecarlo, suites
from stochint.grid import uniform_grid
from stochint.reports import render_json

#: sha256 of render_json(mc_suite(model, cells=6, paths=401, seed)) with 240-double blocks
FROZEN = {
    ("brownian", 0): "b9f5eb85679e55aaaf2584956c625c7d065a6ee4efd5f00a14de5e7b17e8acb9",
    ("brownian", 3): "7480acc01265358ef328955bcd78268e234366e604c96337f3e86dfc4c267098",
    ("brownian", 7): "3e2b045cf7906e3b2b5d9160352c7fe39faf5a3d3fb3f84c9947a4c8e79ce94f",
    ("poisson", 0): "2f01711fb84113665f8506e76afa949f28b244601de830e16819017873fe7a59",
    ("poisson", 3): "4d4d37776989cd0838ea1020eaa5fe366d8a6ca25089faa10a6d843eddf6ae5f",
    ("poisson", 7): "c5349c38c391a55b8467a3c88df74f6d54d4b320e827caf28902bc888ad6e4ef",
}


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("model, seed", sorted(FROZEN))
def test_mc_report_bytes_do_not_depend_on_the_workers(model, seed, cpus, monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", 240)
    monkeypatch.setattr(suites, "_cpus", lambda: cpus)
    report = suites.mc_suite(model=model, cells=6, paths=401, seed=seed)
    assert_no_child_left()
    assert hashlib.sha256(render_json(report).encode()).hexdigest() == FROZEN[model, seed]


@pytest.mark.parametrize("model, seed", sorted(FROZEN))
def test_mc_csv_run_keeps_the_report_and_exports_the_ensemble(model, seed, tmp_path, monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", 240)
    monkeypatch.setattr(suites, "_cpus", lambda: 3)
    out, reference = tmp_path / "paths.csv", tmp_path / "reference.csv"
    report = suites.mc_suite(model=model, cells=6, paths=401, seed=seed, csv=str(out))
    assert hashlib.sha256(render_json(report).encode()).hexdigest() == FROZEN[model, seed]
    oracle.export_csv(getattr(montecarlo, f"{model}_ensemble")(uniform_grid(1.0, 6), 401, seed).increments, reference)
    assert out.read_bytes() == reference.read_bytes()
