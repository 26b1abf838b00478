"""The Monte Carlo suite's reports against digests frozen before its path
blocks moved to worker processes.

Each case runs on 6 cells and 401 paths with _BLOCK_DOUBLES at 240, so the
suite streams 11 blocks of 40 paths and one of 1.  The number of available
CPUs is set to 1, 2 and 3, so the blocks run in one process or are split
into two or three ranges of worker processes; the per-block moments are
merged in block order in every case, and the sha256 of the rendered report
must not move.  A run with a CSV export keeps its blocks in one range: its
report has the same digest, and the file is the csv.writer reference.
"""

import hashlib
import multiprocessing

import pytest

import oracle
from stochint import montecarlo, suites
from stochint.grid import uniform_grid
from stochint.reports import render_json

#: sha256 of render_json(mc_suite(model, cells=6, paths=401, seed)) with 240-double blocks
FROZEN = {
    ("brownian", 0): "db3d1bb2d5a3176b22ed1c4b84f30fbea8f6c679f551b5d8a70262964aadb362",
    ("brownian", 3): "1031b8a77e9197485f2f510dcac2b6a287644c088a448cd3b428c8a3654c784f",
    ("brownian", 7): "113638193d0ac228a0581b89a90ff8b885660c0ac573aff4194407666924e34e",
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
    assert multiprocessing.active_children() == []
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
