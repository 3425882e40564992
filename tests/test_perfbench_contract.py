"""The benchmark's traced self-test still passes against this checkout.

perfbench/run.py wraps the engine's layer functions by name and requires a
recorded call for each; an engine refactor that renames or bypasses one of
them fails here instead of only when the benchmark runs.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_benchmark_self_test_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_adam", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
