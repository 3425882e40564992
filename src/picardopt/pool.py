"""Worker pool simulating one-model-per-device drift evaluation.

Workers are single-thread FIFO lanes in this process.  Every drift the pool
starts takes the next dispatch index, counted over the pool's lifetime, and
runs on lane ``dispatch index mod n_workers``: deterministic, independent of
timing, and balanced across rounds.  A gather returns the drifts ordered by
slot, and reading slot j waits for slot j alone, so the caller can consume
early slots while later ones still run.  Drifts may be submitted ahead of the
gather that needs them; that gather then reuses the drift in flight.  An
optional injected per-drift sleep emulates heavy accelerator workloads so
wall-clock speedup curves are observable at desk scale.

In the adaptive-guidance mode each lane owns a private gradient predictor;
no predictor is ever touched by two lanes.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import Future, ThreadPoolExecutor

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


class DriftView(Sequence):
    """The drifts of one gather, ordered by slot.

    Item j waits for slot j only and re-raises that drift's error.  Time spent
    waiting is added to the pool's ``wait_ms``.
    """

    def __init__(self, pool: WorkerPool, futures: list[Future]):
        self._pool = pool
        self._futures = futures

    def __len__(self) -> int:
        return len(self._futures)

    def _wait(self, j: int) -> Future:
        future = self._futures[j]
        if not future.done():
            t0 = time.perf_counter()
            future.exception()  # blocks until done
            self._pool._wait_s += time.perf_counter() - t0
        return future

    def __getitem__(self, j: int) -> Drift:
        return self._wait(j).result()

    def first_failure(self) -> BaseException | None:
        """Wait for every slot; the error of the smallest failing slot, or None."""
        for j in range(len(self._futures)):
            exc = self._wait(j).exception()
            if exc is not None:
                return exc
        return None


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
        # Each lane writes only its own entries, so no lock is needed.
        self._busy_s = [0.0] * n_workers
        self._drift_counts = [0] * n_workers
        self._wait_s = 0.0
        self._dispatched = 0
        # id(state) -> (state, future) for drifts submitted but not yet gathered;
        # holding the state keeps its id from being reused.
        self._in_flight: dict[int, tuple[ParamState, Future]] = {}
        self._lanes = [ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"picardopt-lane{w}")
                       for w in range(n_workers)]

    def close(self):
        self._in_flight.clear()
        for lane in self._lanes:
            lane.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _serve(self, lane: int, rule: rules.UpdateRule, state: ParamState) -> Drift:
        aux = self.aux_models[lane] if self.aux_models is not None else None
        t0 = time.perf_counter()
        try:
            if self.injected_cost_ms > 0.0:
                time.sleep(self.injected_cost_ms / 1000.0)
            d = rules.drift(rule, state, state.step + self.seed_offset, aux=aux, worker_id=lane)
            self._drift_counts[lane] += 1
            return d
        finally:
            self._busy_s[lane] += time.perf_counter() - t0

    def submit(self, rule: rules.UpdateRule, state: ParamState) -> Future:
        """Start the drift at ``state`` (seed ``state.step + seed_offset``) on
        the next lane; a state already in flight keeps its drift."""
        held = self._in_flight.get(id(state))
        if held is not None:
            return held[1]
        lane = self._dispatched % self.n_workers
        self._dispatched += 1
        future = self._lanes[lane].submit(self._serve, lane, rule, state)
        self._in_flight[id(state)] = (state, future)
        return future

    def gather_drifts(self, rule: rules.UpdateRule, states: list[ParamState]) -> DriftView:
        """Drifts for all states, ordered by slot, without waiting for them.

        States not already in flight are submitted in slot order.  Reading
        the returned view waits per slot and re-raises that slot's error.
        """
        if not states:
            raise ValueError("gather_drifts needs at least one state")
        steps = [s.step for s in states]
        if len(set(steps)) != len(steps):
            raise ValueError("gather_drifts states must have distinct steps")
        futures = [self.submit(rule, s) for s in states]
        for s in states:
            del self._in_flight[id(s)]
        return DriftView(self, futures)

    def drain(self) -> None:
        """Wait until every lane has finished all work submitted so far, and
        forget the drifts submitted ahead of a gather."""
        for lane in self._lanes:
            lane.submit(lambda: None).result()
        self._in_flight.clear()

    def timing_report(self) -> dict:
        """Accumulated per-lane busy time and drift counts for the pool's
        lifetime, plus the time callers spent waiting on gathered drifts."""
        return {
            "n_workers": self.n_workers,
            "busy_ms": [1000.0 * s for s in self._busy_s],
            "drifts_served": list(self._drift_counts),
            "wait_ms": 1000.0 * self._wait_s,
        }
