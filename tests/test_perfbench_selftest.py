"""The benchmark's self-test runs in tier-1, so a rename in the package that
breaks the tracer hooks or the metric list fails here first."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    child = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert "selftest passed" in child.stdout
