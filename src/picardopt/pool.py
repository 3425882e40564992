"""Worker pool simulating one-model-per-device drift evaluation.

Workers are threads in this process.  Slot j of a batch is always served by
worker ``j mod n_workers`` (deterministic round-robin, independent of timing),
and results come back ordered by slot.  An optional injected per-drift sleep
emulates heavy accelerator workloads so wall-clock speedup curves are
observable at desk scale.

In the adaptive-guidance mode each worker owns a private gradient predictor;
no predictor is ever touched by two workers.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from . import rules
from .state import Drift, ParamState


class AuxModel:
    """Worker-local EMA gradient predictor (control variate), decay 0.95."""

    DECAY = 0.95

    def __init__(self, dim: int):
        self.ema_grad = np.zeros(dim)
        self.updates_seen = 0

    def predict(self) -> np.ndarray:
        return self.ema_grad.copy()

    def update(self, g: np.ndarray) -> None:
        self.ema_grad = self.DECAY * self.ema_grad + (1.0 - self.DECAY) * g
        self.updates_seen += 1


class WorkerPool:
    def __init__(self, n_workers: int, seed_offset: int = 0,
                 injected_cost_ms: float = 0.0, aux_dim: int | None = None):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if seed_offset < 0:
            raise ValueError("seed_offset must be >= 0")
        self.n_workers = n_workers
        self.seed_offset = seed_offset
        self.injected_cost_ms = injected_cost_ms
        self.aux_models = [AuxModel(aux_dim) for _ in range(n_workers)] if aux_dim else None
        self._busy_s = [0.0] * n_workers
        self._drift_counts = [0] * n_workers
        self._gather_wall_s = 0.0
        self._executor = ThreadPoolExecutor(max_workers=n_workers)

    def close(self):
        self._executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @staticmethod
    def assignment(n_slots: int, n_workers: int) -> list[int]:
        """Worker id for each slot index: j -> j mod n_workers."""
        return [j % n_workers for j in range(n_slots)]

    def gather_drifts(self, rule: rules.UpdateRule, states: list[ParamState]) -> list[Drift]:
        """Evaluate drifts for all states in parallel; results ordered by slot.

        Each state's seed is ``state.step + seed_offset``.  Blocks until every
        drift finished (round barrier); the first failure by slot index is
        re-raised after the barrier.
        """
        if not states:
            raise ValueError("gather_drifts needs at least one state")
        steps = [s.step for s in states]
        if len(set(steps)) != len(steps):
            raise ValueError("gather_drifts states must have distinct steps")

        n = len(states)
        results: list[Drift | None] = [None] * n
        failures: list[tuple[int, Exception]] = []
        sleep_s = self.injected_cost_ms / 1000.0

        def work(worker_id: int, slots: list[int]) -> None:
            aux = self.aux_models[worker_id] if self.aux_models is not None else None
            t0 = time.perf_counter()
            try:
                for j in slots:
                    state = states[j]
                    if sleep_s > 0.0:
                        time.sleep(sleep_s)
                    seed = state.step + self.seed_offset
                    try:
                        results[j] = rules.drift(rule, state, seed, aux=aux, worker_id=worker_id)
                        self._drift_counts[worker_id] += 1
                    except Exception as exc:  # surfaced after the barrier
                        failures.append((j, exc))
                        return
            finally:
                self._busy_s[worker_id] += time.perf_counter() - t0

        by_worker: dict[int, list[int]] = {}
        for j, w in enumerate(self.assignment(n, self.n_workers)):
            by_worker.setdefault(w, []).append(j)

        t_start = time.perf_counter()
        futures = [self._executor.submit(work, w, slots) for w, slots in by_worker.items()]
        wait(futures)
        self._gather_wall_s += time.perf_counter() - t_start
        for f in futures:
            f.result()  # re-raise unexpected submit-level errors
        if failures:
            failures.sort(key=lambda item: item[0])
            raise failures[0][1]
        return results  # type: ignore[return-value]

    def timing_report(self) -> dict:
        """Accumulated per-worker busy/idle time and drift counts for the run.

        Idle is the gather wall time a worker spent not computing drifts.
        """
        busy_ms = [1000.0 * s for s in self._busy_s]
        wall_ms = 1000.0 * self._gather_wall_s
        return {
            "n_workers": self.n_workers,
            "busy_ms": busy_ms,
            "idle_ms": [max(0.0, wall_ms - b) for b in busy_ms],
            "drifts_served": list(self._drift_counts),
            "gather_wall_ms": wall_ms,
        }
