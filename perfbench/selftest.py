"""Self-test of the tracer and of the metric list, on a small run.

    python3 perfbench/selftest.py

On ``verify all --trials 20`` it checks that:

1. the traced call count of every wrapped function equals cProfile's
   ``ncalls`` for the same code object, so no alias bound with
   ``from ... import`` escapes the tracer;
2. two traced runs give identical call counts and work counters;
3. the traced and the profiled report bytes equal the untraced report's;
4. the metric names and units ``run.py`` reports equal those declared in
   ``BENCHMARK.json``.

Exits 0 when all hold and 1 otherwise, naming each mismatch.
"""

from __future__ import annotations

import json
import sys

from run import END_TO_END, HERE, OUT, ROOT, merge_traces, per_layer_metrics, run_child, unit

SMALL = ["verify", "all", "--trials", "20", "--seed", "42"]


def traced_cli(mode: str, name: str):
    out = OUT / f"{name}.json"
    child = run_child([sys.executable, str(HERE / "traced_cli.py"), mode, str(out), "--", *SMALL], name)
    return child, json.loads(out.read_text())


def main() -> int:
    OUT.mkdir(exist_ok=True)
    problems = []
    plain = run_child([sys.executable, "-m", "stochint.cli", *SMALL], "selftest-plain")
    first, trace = traced_cli("trace", "selftest-trace-1")
    second, again = traced_cli("trace", "selftest-trace-2")
    profiled, profile = traced_cli("profile", "selftest-profile")
    for child in (plain, first, second, profiled):
        if child.exit_code != 0:
            problems.append(f"a run exited with {child.exit_code}")
        if child.stdout != plain.stdout:
            problems.append("report bytes differ between plain, traced and profiled runs")

    spans = trace["spans"]
    for name, ncalls in sorted(profile["calls"].items()):
        traced = spans.get(name, {}).get("calls", 0)
        if traced != ncalls:
            problems.append(f"{name}: traced {traced} calls, cProfile {ncalls}")
    calls = {name: span["calls"] for name, span in spans.items()}
    if calls != {name: span["calls"] for name, span in again["spans"].items()}:
        problems.append("call counts differ between two traced runs")
    if trace["counters"] != again["counters"]:
        problems.append("work counters differ between two traced runs")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = per_layer_metrics(merge_traces([trace]), 0.0, 0.0)
    for kind, names in (("per_layer", reported), ("end_to_end", END_TO_END)):
        want = {m["name"]: m["unit"] for m in declared[kind]}
        if want != {name: unit(name) for name in names}:
            problems.append(f"{kind} metrics and units differ from BENCHMARK.json")

    compared = len(profile["calls"])
    print(f"{compared} wrapped functions compared with cProfile, {sum(calls.values())} traced calls")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
