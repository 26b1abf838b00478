"""Benchmark of the stochint command line, end to end and per layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each workload (``workloads.json``) is one or more CLI
commands, each a fresh ``python -m stochint.cli`` process run one after the
other, with BLAS pinned to one thread.

``--trace 0`` times the package import (``setup_s``, the median of several
fresh interpreters), then runs the workload again and again for about
``--seconds`` and reports the median ``wall_s`` and ``peak_rss_mb``.
``--trace 1`` runs the workload the same way untraced, then once more with
every layer wrapped in spans (``tracer.py``), and reports per-layer self
time and work counts.

Every run checks every report: exit code 0, every check passed, and check
names equal to those recorded in ``workloads.json``.  A traced report must be
byte-identical to the untraced one.  Human-readable lines go first; the last
line of stdout is one JSON object with ``correct``, ``attempted`` (checks
run), ``failed`` (checks failed) and ``metrics``.  Details, provenance and
the raw samples go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, MAX_COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
BLAS_THREADS = "1"
SETUP_REPEATS = 9
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")
CHILD_TIMEOUT_S = 150
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    OPENBLAS_NUM_THREADS=BLAS_THREADS,
    OMP_NUM_THREADS=BLAS_THREADS,
)
# imports read cached bytecode, as for an installed package, whatever the
# caller's environment says; the probe writes the cache
ENV.pop("PYTHONDONTWRITEBYTECODE", None)
# run once before setup is timed: warms bytecode and file caches, and reads
# what provenance needs from the interpreter that runs the program
PROBE = """
import json, platform, numpy, stochint.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"stochint": stochint.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}"}))
"""


class ProgramMissing(RuntimeError):
    """The checkout holds no importable stochint under src/."""


@dataclass(frozen=True)
class Child:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    exit_code: int
    stdout: bytes


def run_child(argv: list[str], name: str) -> Child:
    """Run one process to its end; resources come from wait4 on that child alone."""
    with open(OUT / f"{name}.out", "wb") as out, open(OUT / f"{name}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Child(wall, usage.ru_maxrss / 1024, cpu, proc.returncode, (OUT / f"{name}.out").read_bytes())


def measure_setup(repeats: int) -> tuple[list[float], dict]:
    """Probe once, then time `repeats` fresh interpreters importing stochint.cli."""
    child = run_child([sys.executable, "-c", PROBE], "setup")
    if child.exit_code != 0:
        raise ProgramMissing(f"importing stochint.cli failed; see {OUT / 'setup.err'}")
    probe = json.loads(child.stdout)
    if not Path(probe["stochint"]).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"stochint was imported from {probe['stochint']}, not from {SRC}")
    times = []
    for _ in range(repeats):
        child = run_child([sys.executable, "-c", "import stochint.cli"], "setup")
        if child.exit_code != 0:
            raise ProgramMissing(f"importing stochint.cli failed; see {OUT / 'setup.err'}")
        times.append(child.wall_s)
    return times, probe


def check_report(child: Child, expected: list[str]) -> tuple[int, int, list[str]]:
    """(checks run, checks failed, problems) for one command's report."""
    try:
        checks = json.loads(child.stdout)["checks"]
    except (ValueError, KeyError):
        return len(expected), len(expected), [f"no report (exit code {child.exit_code})"]
    failed = sum(not c["pass"] for c in checks)
    problems = [f"failed: {c['name']}" for c in checks if not c["pass"]]
    if [c["name"] for c in checks] != expected:
        problems.append("check names differ from workloads.json")
    if child.exit_code != (1 if failed else 0):
        problems.append(f"exit code {child.exit_code} with {failed} failed checks")
    return len(checks), failed, problems


@dataclass
class Iteration:
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    checks_run: int = 0
    checks_failed: int = 0
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)  # sha256 of each command's report


def run_iteration(workload: str, seed: int, traced: bool = False) -> Iteration:
    it = Iteration()
    for i, command in enumerate(WORKLOADS[workload]["commands"]):
        args = [a.format(seed=seed) for a in command["args"]]
        name = f"{workload}-{i}{'-traced' if traced else ''}"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), "trace", str(OUT / f"{name}.trace.json"), "--"]
        else:
            argv = [sys.executable, "-m", "stochint.cli"]
        child = run_child(argv + args, name)
        run, failed, problems = check_report(child, command["checks"])
        it.wall_s += child.wall_s
        it.peak_rss_mb = max(it.peak_rss_mb, child.peak_rss_mb)
        it.cpu_s += child.cpu_s
        it.checks_run += run
        it.checks_failed += failed
        it.problems += [f"{' '.join(args)}: {p}" for p in problems]
        it.digests.append(hashlib.sha256(child.stdout).hexdigest())
    return it


def merge_traces(traces: list[dict]) -> dict:
    """Sum spans and counters over a workload's commands (maxima stay maxima)."""
    spans, counters = {}, {}
    for trace in traces:
        for name, span in trace["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += span["calls"]
            into["self_s"] += span["self_s"]
        for name, value in trace["counters"].items():
            combine = max if name in MAX_COUNTERS else (lambda a, b: a + b)
            counters[name] = combine(counters.get(name, 0), value)
    return {"spans": spans, "counters": counters}


def per_layer_metrics(trace: dict, cpu_s: float, overhead_s: float) -> dict:
    """Every per-layer metric, by name, from one workload's merged trace."""
    spans, counters = trace["spans"], trace["counters"]

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    out = {f"{layer}.self_s": sum((s["self_s"] for n, s in spans.items() if n.split(".")[0] == layer), 0.0) for layer in LAYERS}
    out.update(counters)
    for name in (
        "symtensor.sym_tensor",
        "fock.wick",
        "fock_ito.ito_wick",
        "fock_ito.wick_operator_process",
        "operator_integral.check_measurable",
        "operator_integral.stochastic_integral",
        "montecarlo.iterated_samples",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in (
        "symtensor.symmetrize_insert",
        "symtensor.refine_values",
        "fock.resolution_project",
        "fock_ito.ito_symmetrize",
        "bernoulli.classical_realization",
        "bernoulli.chaos_map",
        "reports.render_json",
        "montecarlo.hermite_reference",
    ):
        out[f"{name}.self_s"] = self_s(name)
    out["symtensor.coeffs_built"] = calls("symtensor.SymCoeffs.__init__")
    out["fock.vector_add.calls"] = calls("fock.FockVector.__add__")
    out["fock.vector_add.self_s"] = self_s("fock.FockVector.__add__")
    out["operator_integral.restricted_norm.calls"] = calls("operator_integral.restricted_norm")
    out["operator_integral.measure_build.calls"] = calls("operator_integral.ProjectorMeasure.__init__")
    out["operator_integral.measure_build.self_s"] = self_s("operator_integral.ProjectorMeasure.__init__")
    out["bernoulli.cond_expect.calls"] = calls("bernoulli.cond_expect")
    out["randomgen.calls"] = sum(s["calls"] for n, s in spans.items() if n.startswith("randomgen."))
    out["montecarlo.ensemble.self_s"] = self_s("montecarlo.brownian_ensemble", "montecarlo.poisson_ensemble")
    out["cli.cpu_s"] = cpu_s
    out["trace.overhead_s"] = overhead_s
    return dict(sorted(out.items()))


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("bytes"):
        return "bytes_computed"
    return "count"


def provenance(probe: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=dict(ENV, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": probe["python"],
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "blas_threads": BLAS_THREADS,
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f} q3 {q3:.4f} n={len(values)}"


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result that the last stdout line reports."""
    setup_times, probe = measure_setup(0 if trace else SETUP_REPEATS)
    start = time.perf_counter()
    reps = [run_iteration(workload, seed)]
    # start another repetition while at least half of one still fits, so a
    # run takes about `seconds` whatever the length of one repetition
    while time.perf_counter() - start + statistics.median(r.wall_s for r in reps) / 2 < seconds:
        reps.append(run_iteration(workload, seed))
    walls = [r.wall_s for r in reps]
    samples = dict(zip(END_TO_END, (walls, [r.peak_rss_mb for r in reps], setup_times)))
    problems = [p for r in reps for p in r.problems]
    if any(r.digests != reps[0].digests for r in reps):
        problems.append("reports differ between runs of the same seed")
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "provenance": provenance(probe)}

    if trace:
        cpu_s = statistics.median(r.cpu_s for r in reps)
        traced = run_iteration(workload, seed, traced=True)
        reps.append(traced)
        problems += traced.problems
        if traced.digests != reps[0].digests:
            problems.append("traced report bytes differ from the untraced report")
        commands = range(len(WORKLOADS[workload]["commands"]))
        merged = merge_traces([json.loads((OUT / f"{workload}-{i}-traced.trace.json").read_text()) for i in commands])
        metrics = per_layer_metrics(merged, cpu_s, traced.wall_s - statistics.median(walls))
        detail["trace_spans"] = merged["spans"]
        for name, value in metrics.items():
            print(f"{workload} {name} {value} {unit(name)}")
    else:
        metrics = {name: statistics.median(values) for name, values in samples.items()}
        for name, values in samples.items():
            print(f"{workload} {name} median {metrics[name]:.4f} {unit(name)} {quartiles(values)}")

    attempted = sum(r.checks_run for r in reps)
    failed = sum(r.checks_failed for r in reps)
    print(f"{workload} checks_failed_ratio {failed}/{attempted} = {failed / attempted:g}")
    for problem in problems:
        print(f"{workload} PROBLEM {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    detail.update(result=result, samples=samples, report_sha256=reps[0].digests, problems=problems)
    (OUT / f"results-{workload}-trace{int(trace)}.json").write_text(json.dumps(detail, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, help="workload seed (default: each workload's canonical seed)")
    parser.add_argument("--seconds", type=float, default=55.0, help="how long to repeat the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {}
        for name in names:
            seed = WORKLOADS[name]["default_seed"] if args.seed is None else args.seed
            results[name] = bench(name, seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
