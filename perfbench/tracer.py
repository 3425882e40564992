"""In-memory span tracing of picardopt's layers, for the benchmark's traced run.

``Tracer.install()`` wraps every public function of the layer modules and the
few methods the engine reaches through objects (``WorkerPool``, the problem
classes, the state constructors).  A wrapped function is replaced at every
name a picardopt module binds it to, so ``engine.rollout_one`` (imported by
name) and ``rules.drift`` (called through the module) are both caught.  Each
call records a span ``(id, parent, solve, name, start_ns, end_ns, thread,
extra)``; ``uninstall()`` puts the originals back.

A call on a pool worker thread has no enclosing span on its own thread; its
parent is the gather that dispatched it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("engine", "pool", "rules", "problems", "kernels", "state", "schedule",
          "telemetry", "config")
GATHER = "pool.gather_drifts"

# Computed minimum bytes an Adam apply moves: reads values, m1, m2, g and
# writes values, m1, m2, all float64 of the same length.
EXTRA = {"kernels.adam_apply": lambda args: 7 * args[0].nbytes}


def _methods():
    """(class, attribute, span name) for the methods the engine calls on objects."""
    from picardopt import pool, problems, state

    out = [(pool.WorkerPool, "__init__", "pool.WorkerPool"),
           (pool.WorkerPool, "gather_drifts", GATHER),
           (pool.WorkerPool, "timing_report", "pool.timing_report"),
           (pool.WorkerPool, "close", "pool.close")]
    for cls in (state.ParamState, state.MomentState, state.Drift):
        out.append((cls, "__init__", f"state.{cls.__name__}"))
    for cls in (problems.Problem, *problems.PROBLEM_KINDS.values()):
        for attr in ("loss", "grad", "ode_drift", "initial_values", "render"):
            if attr in vars(cls):
                out.append((cls, attr, f"problems.{attr}"))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        # (solve, n_slots, per-worker busy ms) for each gather, in call order
        self.gathers: list[tuple[int, int, list[float]]] = []
        self.solve_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._dispatching = 0  # id of the open gather span, parent of worker spans
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        extra = EXTRA.get(name)

        # list.append and next() on a count are single C calls, so worker
        # threads may record spans without a lock.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = next(self._ids)
            parent = stack[-1] if stack else self._dispatching
            stack.append(span)
            if name == GATHER:
                self._dispatching = span
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if name == GATHER:
                    self._dispatching = 0
                self.spans.append((span, parent, self.solve_id, name, start, end,
                                   threading.get_ident(), extra(args) if extra else None))

        return traced

    def _gather_busy(self, traced_gather, timing_report):
        """Around each gather, record the busy time each worker added."""

        @functools.wraps(traced_gather)
        def gather(pool, rule, states):
            before = timing_report(pool)["busy_ms"]
            try:
                return traced_gather(pool, rule, states)
            finally:
                after = timing_report(pool)["busy_ms"]
                self.gathers.append((self.solve_id, len(states),
                                     [b - a for a, b in zip(before, after)]))

        return gather

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from picardopt.pool import WorkerPool

        timing_report = WorkerPool.timing_report
        modules = {layer: importlib.import_module(f"picardopt.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) \
                        and obj.__module__ == mod.__name__:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "picardopt"]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for cls, attr, name in _methods():
            original = vars(cls)[attr]
            traced = self._wrap(name, original)
            if name == GATHER:
                traced = self._gather_busy(traced, timing_report)
            self._set(cls, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _covered_ns(start, end, children) -> int:
    """Length of [start, end] covered by the union of the children's spans."""
    total, reach = 0, start
    for c_start, c_end in sorted((max(c[4], start), min(c[5], end)) for c in children):
        if c_end > reach:
            total += c_end - max(c_start, reach)
            reach = c_end
    return total


def solve_layers(spans, gathers, total_steps: int) -> dict:
    """Per-layer readings (name -> value) for the spans of one traced solve."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[3]].append(s)
        children[s[1]].append(s)

    def calls(name):
        return len(by_name[name])

    def ms(*names):
        return sum(s[5] - s[4] for n in names for s in by_name[n]) / 1e6

    def self_ms(name):
        return sum(s[5] - s[4] - _covered_ns(s[4], s[5], children[s[0]])
                   for s in by_name[name]) / 1e6

    (run,) = by_name["engine.run"]
    solve_ms = (run[5] - run[4]) / 1e6
    gather_ms = [(s[5] - s[4]) / 1e6 for s in sorted(by_name[GATHER], key=lambda s: s[4])]
    busy = [b for _, _, b in gathers]
    slowest = [max(b) for b in busy]
    rollout_mean = ms("rules.rollout_one") / calls("rules.rollout_one")
    model_ms = sum(w + p * rollout_mean for w, (_, p, _) in zip(slowest, gathers))
    rounds = [a[5] - r[4] for r, a in zip(sorted(by_name["engine.picard_round"], key=lambda s: s[4]),
                                          sorted(by_name["engine.advance_window"], key=lambda s: s[4]))]
    round_q = statistics.quantiles(rounds, n=100, method="inclusive")
    drift_evals = calls("rules.drift")
    n_workers = len(busy[0])
    constructors = ("state.ParamState", "state.MomentState", "state.Drift")
    return {
        "pool.gather_calls": calls(GATHER),
        "pool.gather_ms": sum(gather_ms),
        "pool.dispatch_ms": sum(g - w for g, w in zip(gather_ms, slowest)),
        "pool.slowest_worker_ms": sum(slowest),
        "pool.worker_busy_ms": sum(map(sum, busy)),
        "pool.worker_idle_ms": sum(n_workers * g - sum(b) for g, b in zip(gather_ms, busy)),
        "pool.work_amplification": drift_evals / total_steps,
        "pool.useful_ratio": total_steps / drift_evals,
        "pool.start_ms": ms("pool.WorkerPool"),
        "engine.round_self_ms": self_ms("engine.picard_round"),
        "engine.control_ms": ms("engine.compute_skip", "engine.update_threshold",
                                "engine.advance_window"),
        "engine.loop_other_ms": self_ms("engine.run"),
        "engine.distance_ms": ms("engine.fixed_point_distance"),
        "engine.round_ms_p50": round_q[49] / 1e6,
        "engine.round_ms_p99": round_q[98] / 1e6,
        "engine.model_gap_ms": solve_ms - model_ms,
        "telemetry.finalize_ms": ms("telemetry.finalize_report"),
        "rules.rollout_calls": calls("rules.rollout_one"),
        "rules.rollout_ms": ms("rules.rollout_one"),
        "rules.drift_calls": drift_evals,
        "rules.drift_ms": ms("rules.drift"),
        "rules.reconcile_calls": calls("rules.reconcile_payload"),
        "rules.reconcile_ms": ms("rules.reconcile_payload"),
        "problems.grad_calls": calls("problems.grad"),
        "problems.grad_ms": ms("problems.grad"),
        "kernels.adam_apply_ms": ms("kernels.adam_apply"),
        "kernels.adam_apply_bytes": sum(s[7] for s in by_name["kernels.adam_apply"]),
        "kernels.splat_loss_grad_calls": calls("kernels.splat_loss_grad"),
        "kernels.splat_loss_grad_ms": ms("kernels.splat_loss_grad"),
        "state.constructions": sum(calls(n) for n in constructors),
        "state.construct_ms": ms(*constructors),
        "schedule.reconcile_calls": calls("schedule.reconcile_vector"),
        "schedule.reconcile_ms": ms("schedule.reconcile_vector"),
        "schedule.apply_action_calls": calls("schedule.apply_action"),
        "schedule.apply_action_ms": ms("schedule.apply_action"),
    }

