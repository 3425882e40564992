"""The benchmark's traced self-test still passes against this checkout.

perfbench/run.py wraps the engine's layer functions by name and requires a
recorded call for each; an engine refactor that renames or bypasses one of
them fails here instead of only when the benchmark runs.
"""

import importlib.util
import inspect
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


def perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_expects_is_traced():
    # The span names Tracer.install gives: the public functions each layer
    # module defines, plus the methods _methods() lists.
    tracer, workloads = perfbench_module("tracer"), perfbench_module("workloads")
    names = set()
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"picardopt.{layer}")
        names |= {f"{layer}.{attr}" for attr, obj in vars(module).items()
                  if not attr.startswith("_") and inspect.isfunction(obj)
                  and obj.__module__ == module.__name__}
    for cls, attr, name in tracer._methods():
        assert attr in vars(cls), f"{cls.__name__}.{attr}, traced as {name}, is gone"
        names.add(name)
    for expected in (workloads.ALWAYS_CALLED, *(w.called for w in workloads.WORKLOADS.values())):
        assert set(expected) <= names, sorted(set(expected) - names)
