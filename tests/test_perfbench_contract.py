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
from collections import Counter
from pathlib import Path

import pytest

import picardopt as po
from picardopt import config, engine

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


@pytest.mark.parametrize("rule,settings", [
    (po.make_rule("adam", po.make_problem("quadratic", dim=50), 0.05, total_steps=60),
     engine.EngineSettings(window=5, workers=2)),
    # at threshold 0 most of its rounds end early, at a drift failing at a guess
    (po.make_rule("sgd", po.make_problem("splat2d", data_seed=5), 0.01, total_steps=60),
     engine.EngineSettings(window=7, workers=2, threshold=0.0)),
])
def test_each_round_calls_the_spans_the_benchmark_pairs_once(rule, settings):
    # tracer.solve_layers pairs each round's picard_round span with its
    # advance_window span for engine.round_ms_p50/p99, so each must run once
    # per round, and so must compute_skip.
    tracer = perfbench_module("tracer").Tracer()
    with tracer:
        result = engine.run(rule, settings)
    calls = Counter(span[3] for span in tracer.spans)
    assert calls["engine.run"] == 1 and result.report.rounds > 1
    for name in ("engine.picard_round", "engine.advance_window", "engine.compute_skip"):
        assert calls[name] == result.report.rounds, name


def traced_calls(fn):
    """Span name -> calls recorded while ``fn()`` runs under perfbench's Tracer."""
    tracer = perfbench_module("tracer").Tracer()
    with tracer:
        fn()
    return Counter(span[3] for span in tracer.spans)


def test_a_scheduled_run_records_the_schedule_layer():
    # exact_splat's self-test requires both calls; they are made where the
    # window's guesses are carried through the schedule and by the rollouts.
    schedule = [po.ScheduleAction(5, "split", (0,)), po.ScheduleAction(12, "prune", (1,))]
    rule = po.make_rule("split_prune_sgd", po.make_problem("splat2d", points=2, data_seed=5),
                        0.01, total_steps=30, schedule=schedule)
    calls = traced_calls(lambda: engine.run(rule, engine.EngineSettings(window=7, workers=2,
                                                                        threshold=0.0)))
    assert calls["schedule.reconcile_vector"] > 0 and calls["schedule.apply_action"] > 0


def test_a_scheduled_adam_run_records_the_schedule_and_adam_layers():
    schedule = [po.ScheduleAction(5, "split", (0,)), po.ScheduleAction(12, "prune", (1,))]
    rule = po.make_rule("adam", po.make_problem("splat2d", points=2, data_seed=5),
                        0.01, total_steps=30, schedule=schedule)
    calls = traced_calls(lambda: engine.run(rule, engine.EngineSettings(window=7, workers=2,
                                                                        threshold=0.0)))
    for name in ("schedule.reconcile_vector", "schedule.apply_action", "kernels.adam_apply"):
        assert calls[name] > 0, name


@pytest.mark.parametrize("workload", ["wide_adam", "costly_lsq"])
def test_a_run_without_a_schedule_records_no_schedule_call(workload):
    # Those workloads' self-tests allow no schedule.* call, config build included.
    w = perfbench_module("workloads").WORKLOADS[workload]

    def build_and_run():
        cfg = config.load_config(None, {**w.config_overrides(1), "dim": 16, "steps": 20,
                                        "injected_cost_ms": 0.0})
        engine.run(config.build_rule(cfg, config.build_problem(cfg)), config.engine_settings(cfg))

    calls = traced_calls(build_and_run)
    assert calls["config.build_rule"] == 1 and calls["engine.run"] == 1
    assert [name for name in calls if name.startswith("schedule.")] == []


@pytest.mark.parametrize("name", ["exact_splat", "wide_adam", "costly_lsq"])
def test_every_workload_configuration_builds(name):
    # Tier-1 solves no workload at its full size; building each one's
    # configuration still checks its overrides against the config layer.
    workloads = perfbench_module("workloads")
    w = workloads.WORKLOADS[name]
    rule, settings = workloads.build(w, 1)
    assert (rule.problem.kind, rule.total_steps) == (w.overrides["problem_kind"],
                                                     w.overrides["steps"])
    assert (settings.window, settings.workers) == (w.overrides["window"], w.overrides["workers"])
    assert len(rule.schedule) == len(w.overrides.get("schedule", "").split())
