import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from children import assert_no_child_left
from stochint import bernoulli, fock_ito, montecarlo, suites, symtensor
from stochint.cli import main
from stochint.grid import uniform_grid
from stochint.operator_integral import OperatorStepProcess
from stochint.randomgen import generator, random_complex, random_grid, random_martingale, random_measurable_process


def run(argv):
    return main(argv)


def test_verify_all_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(
        ["verify", "all", "--cells", "3", "--trials", "12", "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["schema"] == 1
    assert obj["suite"] == "all"
    assert len(obj["checks"]) >= 30
    assert all(c["pass"] for c in obj["checks"])
    err = capsys.readouterr().err
    assert "PASS" in err
    # the CLI times the suite call it makes
    assert re.fullmatch(r"all: PASS in \d+\.\d{3}s", err.strip().splitlines()[0])


def test_verify_stdout_when_no_out(capsys):
    code = run(["verify", "bernoulli", "--cells", "3", "--trials", "5", "--seed", "1"])
    assert code == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["suite"] == "bernoulli"
    names = {c["name"] for c in obj["checks"]}
    assert "measurability_equivalence_violations" in names  # exhaustive small-n block


def test_verify_bernoulli_runs_the_cells_asked_for(capsys):
    assert run(["verify", "bernoulli", "--cells", "7", "--trials", "5", "--seed", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["grid"] == "sign spaces, cells<=7, trials=5"
    assert all(c["pass"] for c in obj["checks"])


def test_verify_bernoulli_past_the_sign_space_limit_is_usage_error(capsys):
    # refused before the 18-cell increment table (75 MB) is built
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as err:
            run(["verify", "bernoulli", "--cells", "18", "--trials", "1", "--seed", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.code == 2
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert [line for line in captured.err.splitlines() if line.startswith("stochint: error:")] == [
        "stochint: error: a sign space on 18 cells has 4718592 increment entries, over the limit 4194304"
    ]


def test_verify_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        run(["verify", "hstoch", "--cells", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["verify", "nonsense"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["verify", "hstoch", "--tol", "unknown=1"])
    assert err.value.code == 2
    for value in ("nan", "inf", "-inf", "-1"):
        with pytest.raises(SystemExit) as err:
            run(["verify", "hstoch", "--trials", "2", "--tol", f"bound={value}"])
        assert err.value.code == 2


def test_mc_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        run(["mc", "--paths", "0", "--seed", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["mc", "--paths", "10"])  # seed is required
    assert err.value.code == 2


def test_mc_single_path_is_usage_error(capsys):
    # one path has no standard error, so the statistical checks cannot run
    with pytest.raises(SystemExit) as err:
        run(["mc", "--paths", "1", "--seed", "1"])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip().splitlines()[-1]
    assert "--paths must be at least 2" in message


@pytest.mark.parametrize("intensity", ["0", "-1", "nan", "inf"])
def test_mc_intensity_must_be_finite_positive(intensity, capsys):
    with pytest.raises(SystemExit) as err:
        run(["mc", "--model", "poisson", "--paths", "10", "--seed", "1", "--intensity", intensity])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip().splitlines()[-1]
    assert "expected a finite positive number" in message


def test_mc_poisson_mean_that_underflows_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run(["mc", "--model", "poisson", "--cells", "1", "--intensity", "760", "--paths", "2000", "--seed", "1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1].startswith("stochint: error: per-cell Poisson mean")


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "--model", "poisson", "--cells", "1", "--intensity", "0.001", "--paths", "1000", "--seed", "3"],
        ["mc", "--model", "poisson", "--cells", "1", "--paths", "2", "--seed", "1"],
    ],
)
def test_mc_degenerate_sample_is_usage_error(argv, capsys):
    # every sample is equal, so four standard errors of round-off cannot
    # judge the check: a usage error, not a failed identity
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert re.fullmatch(r"stochint: error: \w+: all \d+ samples are equal, .*", captured.err.strip().splitlines()[-1])


def test_mc_sample_without_spread_is_noted_not_passed(capsys):
    # on one cell the strict square and the strict off-diagonal function
    # vanish, so both second-moment samples are all zeros
    assert run(["mc", "--cells", "1", "--paths", "200", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {c["name"] for c in report["checks"]}
    assert not names & {"power_second_moment", "offdiagonal_second_moment"}
    assert {"order2_mean_diff", "linear_isometry"} <= names
    for name in ("power_second_moment", "offdiagonal_second_moment"):
        assert f"{name}: all 200 samples are equal, so the check was not run" in report["notes"]


def test_wick_bridge_past_the_size_limit_is_usage_error(capsys):
    # the first bridge trial draws 36 cells at truncation 4, whose operators
    # would store 4298438 entries, just past the limit
    with pytest.raises(SystemExit) as err:
        run(["verify", "fock-ito", "--cells", "40", "--trials", "1", "--seed", "205"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, *message = captured.err.splitlines()
    assert usage.startswith("usage: stochint")
    assert message == [
        "stochint: error: the Wick operators on 36 cells at truncation 4 store 4298438 entries, over the limit 4194304"
    ]


def test_wick_bridge_refusal_comes_before_every_other_section(capsys, monkeypatch):
    # the bridge trials are drawn and sized first: the refused 36-cell run
    # never reaches the Ito section, which took 30 s before it
    calls = []
    ito_wick = fock_ito.ito_wick
    monkeypatch.setattr(fock_ito, "ito_wick", lambda proc: calls.append(proc) or ito_wick(proc))
    with pytest.raises(SystemExit) as err:
        run(["verify", "fock-ito", "--cells", "36", "--trials", "200", "--seed", "1"])
    assert err.value.code == 2
    assert calls == []
    assert capsys.readouterr().err.splitlines()[-1] == (
        "stochint: error: the Wick operators on 36 cells at truncation 4 store 4298438 entries, over the limit 4194304"
    )


def test_degree_past_the_limit_is_usage_error(capsys):
    # degree 20 integrates to degree 21, whose factorials overflow 64-bit
    # integers: exit 2 with one line, not an OverflowError traceback (exit 1);
    # degree 19, whose Skorohod output has an all-zero degree-21 component, passes
    argv = ["verify", "fock-ito", "--cells", "2", "--trials", "100", "--seed", "0", "--degree"]
    assert run(argv + ["19"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        run(argv + ["20"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[1:] == [
        "stochint: error: degree 21 is over the limit 20: its factorials overflow 64-bit integers"
    ]


def test_fault_inside_a_suite_is_not_a_usage_error(monkeypatch):
    # only deliberate refusals exit 2; a plain ValueError is a program fault
    def broken(coeffs, ensemble):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(montecarlo, "iterated_samples", broken)
    with pytest.raises(ValueError, match="could not be broadcast"):
        run(["mc", "--cells", "2", "--paths", "10", "--seed", "1"])


def test_nan_inside_a_suite_is_a_fault_not_a_pass(monkeypatch):
    # a NaN deviation raises out of main with its traceback (exit 1), not as a usage error
    monkeypatch.setattr(bernoulli, "max_abs", lambda x: float("nan"))
    with pytest.raises(FloatingPointError, match="check martingale_mean_max observed NaN"):
        run(["verify", "bernoulli", "--trials", "2", "--seed", "1"])


def test_nan_coefficient_reaches_the_check_that_reads_it(monkeypatch):
    # a Fock Ito kernel whose entries overflowed to NaN: they are stored, so
    # the first check that reads them raises instead of seeing zeros
    symmetrize_insert = symtensor.symmetrize_insert

    def overflowed(step_values):
        out = symmetrize_insert(step_values)
        return symtensor.SymCoeffs(out.grid, out.degree, out.vector * np.nan)

    monkeypatch.setattr(symtensor, "symmetrize_insert", overflowed)
    with pytest.raises(FloatingPointError, match="check route_equivalence_max_dev observed NaN"):
        run(["verify", "fock-ito", "--trials", "2", "--seed", "1"])


def test_verify_all_refusal_in_a_worker_is_usage_error(capsys, monkeypatch):
    # a limit that admits the 4-cell sign space (64 entries) but not the first
    # bridge trial, so only the forked fock-ito worker refuses; a worker still
    # running is killed
    monkeypatch.setattr(symtensor, "MAX_ENTRIES", 64)
    with pytest.raises(SystemExit) as err:
        run(["verify", "all", "--cells", "4", "--trials", "1", "--seed", "0"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.strip().splitlines()[-1] == (
        "stochint: error: the Wick operators on 3 cells at truncation 4 store 221 entries, over the limit 64"
    )
    assert_no_child_left()


def test_fault_inside_a_verify_all_worker_is_not_a_usage_error(monkeypatch):
    # the workers are forked, so they run the patched bernoulli module
    def broken(x, j):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(bernoulli, "cond_expect", broken)
    with pytest.raises(ValueError, match="could not be broadcast"):
        run(["verify", "all", "--trials", "2", "--seed", "1"])
    assert_no_child_left()


def test_mc_refusal_in_a_worker_is_usage_error(capsys, monkeypatch):
    # three path blocks of one cell over two worker processes, each refusing the table
    monkeypatch.setattr(suites, "_cpus", lambda: 2)
    with pytest.raises(SystemExit) as err:
        run(["mc", "--model", "poisson", "--cells", "1", "--intensity", "760", "--paths", "300000", "--seed", "1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.strip().splitlines()[-1] == (
        "stochint: error: per-cell Poisson mean intensity * cell length = 760 is above about 708.4: "
        "exp(-mean) underflows"
    )
    assert_no_child_left()


def test_fault_inside_an_mc_worker_is_not_a_usage_error(monkeypatch):
    # four path blocks of two cells over two forked workers, which run the patched module
    def broken(coeffs, ensemble):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(suites, "_cpus", lambda: 2)
    monkeypatch.setattr(montecarlo, "iterated_samples", broken)
    with pytest.raises(ValueError, match="could not be broadcast"):
        run(["mc", "--cells", "2", "--paths", "200000", "--seed", "1"])
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_mc_csv_to_a_directory_that_takes_no_new_entry(tmp_path, monkeypatch):
    # /dev/fd/N names an open file, and no process can create anything beside it;
    # the run has 12 blocks and 2 CPUs, so only the export keeps it to one range
    monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", 240)
    monkeypatch.setattr(suites, "_cpus", lambda: 2)
    target, fresh = tmp_path / "paths.csv", tmp_path / "fresh.csv"
    args = ["mc", "--cells", "6", "--paths", "401", "--seed", "3", "--out", str(tmp_path / "r.json")]
    with open(target, "w") as handle:
        assert run(args + ["--csv", f"/dev/fd/{handle.fileno()}"]) == 0
    oracle.export_csv(montecarlo.brownian_ensemble(uniform_grid(1.0, 6), 401, 3).increments, fresh)
    assert target.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "paths.csv", "r.json"]


def test_refused_mc_csv_leaves_no_file(tmp_path, capsys):
    # a per-cell Poisson mean of 760 is refused after the export has begun
    target = tmp_path / "paths.csv"
    args = ["mc", "--model", "poisson", "--cells", "1", "--intensity", "760", "--paths", "300000", "--seed", "1"]
    with pytest.raises(SystemExit) as err:
        run(args + ["--csv", str(target)])
    assert err.value.code == 2
    assert "underflows" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def _fail_on_second_block(monkeypatch):
    """Make the full draw of the second Brownian block (paths 40..79 of
    240-double blocks at 6 cells) raise, after one block is exported."""
    draw = montecarlo.brownian_ensemble

    def failing(grid, paths, seed, start=0):
        if start == 40 and paths > 1:
            raise RuntimeError("fault in the middle of the export")
        return draw(grid, paths, seed, start=start)

    monkeypatch.setattr(montecarlo, "_BLOCK_DOUBLES", 240)
    monkeypatch.setattr(montecarlo, "brownian_ensemble", failing)


def test_fault_in_the_middle_of_an_mc_csv_export_removes_the_file(tmp_path, monkeypatch):
    _fail_on_second_block(monkeypatch)
    target = tmp_path / "paths.csv"
    with pytest.raises(RuntimeError, match="middle of the export"):
        run(["mc", "--cells", "6", "--paths", "401", "--seed", "3", "--csv", str(target)])
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_fault_in_an_mc_csv_export_leaves_a_dev_fd_target_alone(tmp_path, monkeypatch):
    _fail_on_second_block(monkeypatch)
    target = tmp_path / "paths.csv"
    with open(target, "w") as handle:
        with pytest.raises(RuntimeError, match="middle of the export"):
            run(["mc", "--cells", "6", "--paths", "401", "--seed", "3", "--csv", f"/dev/fd/{handle.fileno()}"])
    assert os.listdir(tmp_path) == ["paths.csv"]
    assert target.read_text().startswith("path,cell,increment\n0,1,")


def test_importing_the_cli_loads_no_process_pool():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys, stochint.cli; print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
    # nor does a run that forks: mc on 2 of its 12 blocks' ranges, then verify all on 3 suites
    code = (
        "import os, sys; from stochint import montecarlo, suites; "
        "forks = []; os.register_at_fork(after_in_parent=lambda: forks.append(1)); "
        "suites._cpus = lambda: 2; montecarlo._BLOCK_DOUBLES = 240; "
        "assert suites.mc_suite('brownian', cells=6, paths=401, seed=3).passed; "
        "assert suites.verify_all(3, 2, 4, 1).passed; "
        "print(len(forks), [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "5 []"


def test_the_mc_suite_loads_no_numpy_random():
    # mc draws every number from montecarlo's SplitMix64 streams
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; from stochint import suites; "
        "report = suites.mc_suite('brownian', cells=6, paths=401, seed=3); "
        "print(report.passed, 'numpy.random' in sys.modules)"
    )
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "True False"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "hstoch", "--trials", "2", "--seed", "1"], "--out"),
        (["mc", "--cells", "2", "--paths", "10", "--seed", "1"], "--csv"),
    ],
)
def test_unwritable_output_path_is_usage_error(tmp_path, capsys, argv, flag):
    path = tmp_path / "missing" / "r.out"
    with pytest.raises(SystemExit) as err:
        run(argv + [flag, str(path)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    message = captured.err.strip().splitlines()[-1]
    assert message.startswith("stochint: error: ") and str(path) in message


def test_refine_usage_errors_exit_2():
    with pytest.raises(SystemExit) as err:
        run(["refine", "--levels", "1"])
    assert err.value.code == 2


def test_refine_past_the_size_limit_is_usage_error(capsys):
    from math import comb

    from stochint.symtensor import MAX_ENTRIES

    # the coarsest grid's degree-2 integral already has more entries than the limit
    cells = next(n for n in range(2, 10_000) if comb(n + 1, 2) > MAX_ENTRIES)
    with pytest.raises(SystemExit) as err:
        run(["refine", "--cells", str(cells), "--levels", "2"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert lines[-1].startswith("stochint: error: a degree-2 vector on")
    assert not any("Traceback" in line for line in lines)


def test_failure_exit_code_and_report_still_written(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        [
            "verify",
            "hstoch",
            "--trials", "4",
            "--seed", "1",
            "--tol", "scalar_equality=1e-30",
            "--out", str(out),
        ]
    )
    assert code == 1
    obj = json.loads(out.read_text())
    failed = [c for c in obj["checks"] if not c["pass"]]
    assert any(c["name"] == "scalar_family_max_equality_dev" for c in failed)


def test_identical_seed_and_flags_give_identical_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["mc", "--model", "brownian", "--cells", "8", "--paths", "2000", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mc_csv_export(tmp_path):
    csv_path = tmp_path / "paths.csv"
    out = tmp_path / "r.json"
    code = run(
        [
            "mc",
            "--model", "poisson",
            "--cells", "4",
            "--paths", "50",
            "--seed", "3",
            "--csv", str(csv_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "path,cell,increment"
    assert len(lines) == 1 + 50 * 4


@pytest.mark.parametrize("model", ["brownian", "poisson"])
def test_mc_csv_exports_the_ensemble_the_report_used(tmp_path, monkeypatch, model):
    # each path is drawn in full once; the determinism check draws the
    # first and the last path of each block again, one path per call
    calls = {"brownian": [], "poisson": []}

    def counted(name):
        original = getattr(montecarlo, f"{name}_ensemble")

        def generate(grid, paths, seed, start=0, **kwargs):
            calls[name].append((paths, start))
            return original(grid, paths, seed, start=start, **kwargs)

        return generate

    for name in calls:
        monkeypatch.setattr(montecarlo, f"{name}_ensemble", counted(name))
    csv_path, fresh = tmp_path / "paths.csv", tmp_path / "fresh.csv"
    args = ["mc", "--model", model, "--cells", "5", "--paths", "300", "--seed", "9"]
    assert run(args + ["--csv", str(csv_path), "--out", str(tmp_path / "r.json")]) == 0
    other = "poisson" if model == "brownian" else "brownian"
    assert calls[other] == []
    full = [(paths, start) for paths, start in calls[model] if paths > 1]
    assert sum(paths for paths, _ in full) == 300
    redraws = [start for paths, start in calls[model] if paths == 1]
    assert sorted(redraws) == sorted(p for paths, start in full for p in (start, start + paths - 1))
    oracle.export_csv(getattr(montecarlo, f"{model}_ensemble")(uniform_grid(1.0, 5), 300, 9).increments, fresh)
    assert csv_path.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("suite", ["fock-ito", "bernoulli", "all"])
def test_verify_runs_with_one_cell(tmp_path, suite):
    # bridge and transport trials need two cells and draw 2-cell grids
    out = tmp_path / "r.json"
    assert run(["verify", suite, "--cells", "1", "--trials", "20", "--seed", "42", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert checks and all(c["pass"] for c in checks)


def test_refine_report_table(tmp_path):
    out = tmp_path / "refine.json"
    code = run(["refine", "--cells", "2", "--levels", "5", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert [row["cells"] for row in obj["table"]] == [2, 4, 8, 16, 32]
    defects = [row["defect"] for row in obj["table"]]
    assert all(d > 0 for d in defects)


def input_payload() -> dict:
    rng = generator(123)
    mart = random_martingale(rng, random_grid(rng, 3), 5)
    return oracle.input_file(mart, random_measurable_process(rng, mart))


def test_verify_hstoch_consumes_input_file(tmp_path):
    in_path = tmp_path / "data.json"
    in_path.write_text(json.dumps(input_payload()))
    out = tmp_path / "r.json"
    code = run(
        [
            "verify", "hstoch",
            "--trials", "2",
            "--seed", "1",
            "--input", str(in_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    names = {c["name"] for c in obj["checks"]}
    assert "file_measurability_failures" in names
    assert "file_isometry_bound" in names


def test_input_rejected_for_other_suites(tmp_path):
    in_path = tmp_path / "data.json"
    in_path.write_text("{}")
    with pytest.raises(SystemExit) as err:
        run(["verify", "bernoulli", "--input", str(in_path)])
    assert err.value.code == 2


def test_verify_all_appends_input_checks_like_hstoch(tmp_path):
    in_path = tmp_path / "data.json"
    in_path.write_text(json.dumps(input_payload()))
    reports = {}
    for suite in ("hstoch", "all"):
        out = tmp_path / f"{suite}.json"
        argv = ["verify", suite, "--trials", "3", "--seed", "2", "--input", str(in_path), "--out", str(out)]
        assert run(argv) == 0
        reports[suite] = json.loads(out.read_text())["checks"]
    file_checks = reports["hstoch"][-2:]
    assert [c["name"] for c in file_checks] == ["file_measurability_failures", "file_isometry_bound"]
    assert reports["all"][-2:] == file_checks
    assert not any(c["name"].startswith("file_") for c in reports["all"][:-2])


def _scaled_payload(seed: int, scale: float, dense: bool = False) -> dict:
    """CI's --input recipe on generator(seed) with every operator times
    `scale`; with `dense`, a random dense process in place of a measurable one."""
    rng = generator(seed)
    mart = random_martingale(rng, random_grid(rng, 3), 4)
    if dense:
        operators = tuple(random_complex(rng, 4, 4) for _ in range(3))
    else:
        operators = random_measurable_process(rng, mart).operators
    return oracle.input_file(mart, OperatorStepProcess(mart.grid, tuple(scale * a for a in operators)))


def test_file_norm_bound_slack_scales_with_the_data(tmp_path):
    # measurable files whose bound held to 3e-16 relative, and failed the
    # absolute slack 1e-10 once scaled up
    for seed, scale in [(11, 1e3), (11, 1e6), (11, 1e8), (11, 1e10), (16, 1e6), (16, 1e8), (16, 1e10), (17, 1e10)]:
        measurable, bound_check = suites.verify_input_file(_scaled_payload(seed, scale))
        assert measurable.passed and bound_check.passed, (seed, scale)
        assert bound_check.tolerance > 1e-10 * bound_check.rhs
    # a dense process that breaks the bound by 16% still fails scaled down,
    # where lhs - rhs = 7.6e-13 passed the absolute slack
    for scale in (1.0, 1e-6):
        bound_check = suites.verify_input_file(_scaled_payload(1, scale, dense=True))[1]
        assert not bound_check.passed and bound_check.lhs > 1.1 * bound_check.rhs
    in_path = tmp_path / "data.json"
    in_path.write_text(json.dumps(_scaled_payload(1, 1e-6, dense=True)))
    assert run(["verify", "hstoch", "--trials", "2", "--seed", "1", "--input", str(in_path)]) == 1


def _break_payload(payload: dict, case: str):
    """The text of a broken --input file, or None for a missing one."""
    measure = payload["martingale"]["measure"]
    if case == "missing_file":
        return None
    if case == "malformed_json":
        return json.dumps(payload)[:-7]
    if case == "deeply_nested":
        return "[" * 100000 + "]" * 100000
    if case == "missing_key":
        del payload["martingale"]
    elif case == "not_an_object":
        payload = [payload]
    elif case == "bad_shape":
        payload["process"]["operators"][0].pop()
    elif case == "dimension_mismatch":
        payload["process"]["operators"] = [[row[:4] for row in op[:4]] for op in payload["process"]["operators"]]
    elif case == "grid_mismatch":
        payload["process"]["boundaries"] = payload["process"]["boundaries"][:-1]
        payload["process"]["operators"].pop()
    elif case == "wrong_dim":
        measure["dim"] = 7
    elif case == "not_a_projection":
        measure["atom"][0][1] = [0.5, 0.0]
    elif case == "non_finite":
        payload["martingale"]["vector"][0] = [float("nan"), 0.0]
    elif case.startswith("non_finite_boundary"):
        for grid in (measure, payload["process"]):
            grid["boundaries"][-1] = float(case.rsplit("_", 1)[1])
    elif case == "string_number":
        for grid in (measure, payload["process"]):
            grid["boundaries"] = [repr(t) for t in grid["boundaries"]]
    elif case == "boolean_number":
        for grid in (measure, payload["process"]):
            grid["boundaries"][0] = False
    elif case == "huge_number":
        payload["martingale"]["vector"][0] = [10**400, 0]
    elif case == "scaled_vector":
        payload["martingale"]["vector"] = [[re * 1e200, im * 1e200] for re, im in payload["martingale"]["vector"]]
    elif case == "huge_operator":
        payload["process"]["operators"][0] = [[[1e308, 0.0] for _ in row] for row in payload["process"]["operators"][0]]
    elif case == "scaled_operator":
        payload["process"]["operators"][0] = [[[re * 1e200, im * 1e200] for re, im in row] for row in payload["process"]["operators"][0]]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "case",
    [
        "missing_file",
        "malformed_json",
        "deeply_nested",
        "missing_key",
        "not_an_object",
        "bad_shape",
        "dimension_mismatch",
        "grid_mismatch",
        "not_a_projection",
        "wrong_dim",
        "non_finite",
        "non_finite_boundary_nan",
        "non_finite_boundary_inf",
        "string_number",
        "boolean_number",
        "huge_number",
        "scaled_vector",
        "huge_operator",
        "scaled_operator",
    ],
)
def test_bad_input_file_is_usage_error(tmp_path, capsys, case):
    in_path = tmp_path / "data.json"
    text = _break_payload(input_payload(), case)
    if text is not None:
        in_path.write_text(text)
    with pytest.raises(SystemExit) as err:
        run(["verify", "hstoch", "--trials", "2", "--input", str(in_path)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = captured.err.strip().splitlines()[-1]
    assert message.startswith("stochint: error: --input ")
    if case.startswith(("scaled_", "huge_operator")):
        # finite numbers whose norm bound overflows: one line, no warnings
        assert "ValueError: the norm bound overflows: lhs=inf" in message
        assert captured.err.count("\n") == 2
