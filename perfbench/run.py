"""picardopt benchmark: end-to-end metrics per workload, or a traced per-layer
breakdown.

    python3 perfbench/run.py --workload exact_splat --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a picardopt checkout; the package is imported from its
``src`` directory.  ``--trace 0`` measures with tracing off and reports the
end-to-end metrics.  ``--trace 1`` spends half of ``--seconds`` on untraced
solves and half on traced ones, reports the per-layer metrics and writes the
spans to ``perfbench/out/spans-<workload>.json``.  ``--workload all`` runs
every workload in one process.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when a correctness check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 9
MIN_SOLVES = 3
WORKLOADS = ("exact_splat", "wide_adam", "costly_lsq")

# Reported in the JSON line: the end-to-end metrics (--trace 0) ...
END_TO_END = ("solve_ms", "seq_ms", "rounds", "drift_evals", "peak_rss_mb", "setup_s")
# ... and the per-layer ones (--trace 1).  Layer times that are 0 by
# construction on some workload (adam, splat and schedule calls) are printed
# but kept out of the JSON line; their call counts are in it.
PER_LAYER = (
    "pool.gather_calls", "pool.gather_ms", "pool.dispatch_ms", "pool.slowest_worker_ms",
    "pool.worker_busy_ms", "pool.worker_idle_ms", "pool.work_amplification",
    "pool.useful_ratio", "pool.start_ms", "engine.round_self_ms", "engine.control_ms",
    "engine.loop_other_ms", "engine.distance_ms", "engine.round_ms_p50",
    "engine.round_ms_p99", "engine.model_gap_ms", "engine.wall_speedup",
    "telemetry.finalize_ms", "rules.rollout_calls", "rules.rollout_ms", "rules.drift_calls",
    "rules.drift_ms", "rules.reconcile_calls", "problems.grad_calls", "problems.grad_ms",
    "kernels.adam_apply_bytes", "kernels.splat_loss_grad_calls", "state.constructions",
    "state.construct_ms", "schedule.reconcile_calls", "schedule.apply_action_calls",
    "config.build_ms", "bench.trace_overhead_pct",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer reading, from its name."""
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_calls", "constructions")):
        return "count"
    return "ratio"


def import_picardopt() -> None:
    """Import picardopt from this checkout's sources, never from elsewhere."""
    if not (SRC / "picardopt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no picardopt sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import picardopt

    if SRC.resolve() not in Path(picardopt.__file__).resolve().parents:
        raise SystemExit(f"perfbench: picardopt imported from {picardopt.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    from picardopt import kernels

    return {"nproc": os.cpu_count(), "numpy": numpy.__version__,
            "kernel_path": kernels.kernel_path(), "python": platform.python_version()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(overrides: dict) -> float:
    """Cold set-up seconds in a fresh interpreter (see setup_probe.py)."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), json.dumps(overrides)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def traced_phase(session, seconds: float):
    """Traced solves of the session's workload; returns the tracer and the
    successful solves by solve id.  Rebuilds the config under tracing so its
    cost is a span too."""
    from tracer import Tracer
    from workloads import build, solve

    tracer = Tracer()
    solves = {}
    with tracer:
        rule, settings = build(session.workload, session.seed)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or tracer.solve_id < MIN_SOLVES:
            tracer.solve_id += 1
            session.attempted += 1
            try:
                solves[tracer.solve_id] = solve(rule, settings)[0]
            except Exception as exc:  # a raised error is a failed solve
                session.fail(f"traced {type(exc).__name__}: {exc}")
    return tracer, solves


def self_test(session, tracer, traced) -> None:
    """Every expected layer call was recorded, none unexpected, and tracing
    changed no result."""
    from workloads import ALWAYS_CALLED

    counts = Counter(s[3] for s in tracer.spans)
    w = session.workload
    for name in ALWAYS_CALLED + w.called:
        if counts[name] == 0:
            session.fail(f"self-test: no {name} call recorded on {w.name}")
    for prefix in w.not_called:
        seen = sum(c for n, c in counts.items() if n.startswith(prefix))
        if seen:
            session.fail(f"self-test: {seen} {prefix}* calls recorded on {w.name}, expected none")
    ref = session.reference
    for s in traced.values():
        if (s.checksum, s.rounds, s.drift_evals) != (ref.checksum, ref.rounds, ref.drift_evals):
            session.fail(f"self-test: traced solve gave {s.checksum:016x}/{s.rounds}/{s.drift_evals}, "
                         f"untraced {ref.checksum:016x}/{ref.rounds}/{ref.drift_evals}")


def layer_metrics(session, tracer, traced) -> dict:
    """name -> (value, unit, samples): median over the traced solves of each
    per-layer reading, plus the readings derived against the untraced run."""
    from tracer import solve_layers

    spans, gathers = defaultdict(list), defaultdict(list)
    for s in tracer.spans:
        spans[s[2]].append(s)
    for g in tracer.gathers:
        gathers[g[0]].append(g)
    per_solve = [solve_layers(spans[k], gathers[k], session.rule.total_steps) for k in traced]
    n = len(per_solve)
    out = {name: (statistics.median(d[name] for d in per_solve), unit_of(name), n)
           for name in per_solve[0]}
    config_ms = sum(s[5] - s[4] for s in spans[0] if s[1] == 0 and s[3].startswith("config.")) / 1e6
    out["config.build_ms"] = (config_ms, "ms", 1)
    untraced = statistics.median(s.wall_ms for s in session.solves)
    seq = statistics.median(session.seq_ms)
    traced_ms = statistics.median(s.wall_ms for s in traced.values())
    out["engine.wall_speedup"] = (seq / untraced, "x", len(session.solves))
    out["bench.trace_overhead_pct"] = (100.0 * (traced_ms / untraced - 1.0), "%", n)
    return out


def write_spans(path: Path, session, tracer, env: dict) -> None:
    """Spans as rows; times in microseconds from the first span."""
    t0 = min((s[4] for s in tracer.spans), default=0)
    threads = {}
    rows = [[s[0], s[1], s[2], s[3], (s[4] - t0) / 1e3, (s[5] - s[4]) / 1e3,
             threads.setdefault(s[6], len(threads)), s[7]] for s in tracer.spans]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": session.workload.name, "seed": session.seed, "env": env,
                   "columns": ["id", "parent", "solve", "name", "start_us", "dur_us", "thread",
                               "extra"], "spans": rows}, f, separators=(",", ":"))


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit:<6} n={n}")


def run_workload(name: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    import workloads

    workload = workloads.WORKLOADS[name]
    print(f"== {name}  seed={seed}  trace={trace}  seconds={seconds:g}")
    session = workloads.Session(workload, seed)
    # Set-up probes are spread over the run, one per iteration, so their
    # median sees the same machine load as the solves.
    setup = []

    def probe():
        setup.append(measure_setup(workload.config_overrides(seed)))

    session.run_for(seconds / 2 if trace else seconds, MIN_SOLVES, between=probe)
    while len(setup) < SETUP_REPEATS:
        probe()
    rss = peak_rss_mb()
    if trace:
        tracer, traced = traced_phase(session, seconds / 2)
    session.check_threads()
    metrics = {}
    if session.solves:
        e2e = session.end_to_end()
        e2e["setup_s"] = (statistics.median(setup), "s", len(setup))
        e2e["peak_rss_mb"] = (rss, "MB", 1)
        print_table("end to end (untraced; wall_speedup = seq_ms / solve_ms, final_loss_rel_err = "
                    "|final_loss - seq_final_loss| / |seq_final_loss|, work_amplification = "
                    f"drift_evals / T, T = {session.rule.total_steps}):", e2e)
        metrics = {k: e2e[k] for k in END_TO_END}
    if trace and session.solves and traced:
        self_test(session, tracer, traced)
        layers = layer_metrics(session, tracer, traced)
        print_table("per layer (traced, median per solve; useful_ratio = T / drift_evals, "
                    "trace_overhead_pct against the untraced solve_ms):", layers)
        path = HERE / "out" / f"spans-{name}.json"
        write_spans(path, session, tracer, env)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(HERE.parent)}")
        metrics = {k: layers[k] for k in PER_LAYER}
    for message in session.failures:
        print(f"FAILED {name}: {message}")
    return {"correct": not session.failures, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_picardopt()
    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, args.trace, env) for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}
    result["metrics"] = {k: {"value": v[0], "unit": v[1]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
