import json

import numpy as np
import pytest

from stochint import montecarlo
from stochint.cli import main
from stochint.grid import uniform_grid
from stochint.randomgen import generator, random_grid, random_martingale, random_measurable_process


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


def test_verify_stdout_when_no_out(capsys):
    code = run(["verify", "bernoulli", "--cells", "3", "--trials", "5", "--seed", "1"])
    assert code == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["suite"] == "bernoulli"
    names = {c["name"] for c in obj["checks"]}
    assert "measurability_equivalence_violations" in names  # exhaustive small-n block


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
    for value in ("nan", "inf", "-inf"):
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
            "--tol", "scalar_equality=-1",
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
    # two generator calls per run: the ensemble and its determinism check
    calls = {"brownian": 0, "poisson": 0}

    def counted(name):
        original = getattr(montecarlo, f"{name}_ensemble")

        def generate(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return generate

    for name in calls:
        monkeypatch.setattr(montecarlo, f"{name}_ensemble", counted(name))
    csv_path, fresh = tmp_path / "paths.csv", tmp_path / "fresh.csv"
    args = ["mc", "--model", model, "--cells", "5", "--paths", "300", "--seed", "9"]
    assert run(args + ["--csv", str(csv_path), "--out", str(tmp_path / "r.json")]) == 0
    assert calls == {"brownian": 0, "poisson": 0, model: 2}
    montecarlo.export_csv(getattr(montecarlo, f"{model}_ensemble")(uniform_grid(1.0, 5), 300, 9), fresh)
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
    proc = random_measurable_process(rng, mart)
    return {"martingale": mart.to_json(), "process": proc.to_json()}


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


def _break_payload(payload: dict, case: str):
    """The text of a broken --input file, or None for a missing one."""
    measure = payload["martingale"]["measure"]
    if case == "missing_file":
        return None
    if case == "malformed_json":
        return json.dumps(payload)[:-7]
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
    elif case == "not_a_projection":
        measure["atom"][0][1] = [0.5, 0.0]
    elif case == "non_finite":
        payload["martingale"]["vector"][0] = [float("nan"), 0.0]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "case",
    [
        "missing_file",
        "malformed_json",
        "missing_key",
        "not_an_object",
        "bad_shape",
        "dimension_mismatch",
        "grid_mismatch",
        "not_a_projection",
        "non_finite",
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
