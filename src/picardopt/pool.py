"""Worker pool simulating one-model-per-device drift evaluation.

Workers are single-thread FIFO lanes in this process.  Every drift the pool
starts takes the next dispatch index, counted from the last ``reset``, and
runs on lane ``dispatch index mod n_workers``: deterministic, independent of
timing, and balanced across rounds.  A gather returns each slot's future in
slot order, and ``result`` waits for one future alone, so the caller can
consume early slots while later ones still run; ``wait`` waits for several.
``submit`` alone starts drifts; a state whose drift input is already in
flight (submitted ahead, or for an earlier slot of the same gather) takes
that drift's future instead, computed at another state with the same values.  An optional injected
per-drift sleep emulates heavy accelerator workloads so wall-clock speedup
curves are observable at desk scale.  ``WorkerPool.check_settings`` is the
one check of the dispatch settings, for the pool, ``EngineSettings`` and the
oracle alike.

Each lane passes every drift its own gradient predictor, made by ``reset``,
which only the adaptive-guidance drift reads; no two lanes share one.
"""

from __future__ import annotations

import numbers
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

from . import rules
from .errors import ArgumentError
from .state import Drift, ParamState


class WorkerPool:
    def __init__(self, n_workers: int, seed_offset: int = 0, injected_cost_ms: float = 0.0):
        self.check_settings(n_workers, seed_offset, injected_cost_ms)
        self.n_workers = n_workers
        self.seed_offset = seed_offset
        self.injected_cost_ms = injected_cost_ms
        # id(input) -> (input, future) for drifts not yet gathered (``submit``);
        # holding the input keeps its id from being reused.
        self._in_flight: dict[int, tuple[object, Future]] = {}
        self._lanes = [ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"picardopt-lane{w}")
                       for w in range(n_workers)]
        self.reset()

    @staticmethod
    def check_settings(workers, seed_offset, injected_cost_ms) -> None:
        """Raise an ArgumentError naming the first setting a pool cannot run.
        ``time.sleep`` adds the cost to the monotonic clock (the uptime, on
        Linux) and fails past ``threading.TIMEOUT_MAX`` seconds, so a cost
        may take half of that, leaving the other half to the uptime."""
        for name, value, low in (("workers", workers, 1), ("seed_offset", seed_offset, 0)):
            if not isinstance(value, numbers.Integral) or value < low:
                raise ArgumentError(name, f"{name} must be an integer >= {low}")
        cost_max = 500.0 * threading.TIMEOUT_MAX
        if not 0.0 <= injected_cost_ms <= cost_max:
            raise ArgumentError("injected_cost_ms",
                                f"injected_cost_ms must lie in [0, {cost_max:g}]")

    def reset(self) -> None:
        """Start over as a fresh pool: wait for and forget submitted work, give
        each lane a new predictor, and restart the dispatch index and the
        busy, served and wait counters at 0."""
        self.drain()
        # Each lane writes only its own entries, so no lock is needed.
        self.aux_models = [rules.AuxModel() for _ in range(self.n_workers)]
        self._busy_s = [0.0] * self.n_workers
        self._drift_counts = [0] * self.n_workers
        self._wait_s = 0.0
        self._dispatched = 0

    def close(self):
        self._in_flight.clear()
        for lane in self._lanes:
            lane.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _serve(self, lane: int, rule: rules.UpdateRule, state: ParamState) -> Drift:
        t0 = time.perf_counter()
        try:
            if self.injected_cost_ms > 0.0:
                time.sleep(self.injected_cost_ms / 1000.0)
            return rules.drift(rule, state, state.step + self.seed_offset,
                               aux=self.aux_models[lane])
        finally:  # a drift that raises is counted and timed too
            self._drift_counts[lane] += 1
            self._busy_s[lane] += time.perf_counter() - t0

    def submit(self, rule: rules.UpdateRule, state: ParamState) -> Future:
        """Start the drift at ``state`` (seed ``state.step + seed_offset``) on
        the next lane, unless its input is already in flight: then return that
        drift, computed at another state.  The input
        is the values array when the rule's drift ignores the step
        (``UpdateRule.step_invariant``), else the state itself.  States share
        a values array only as ``with_step`` clones, or as a guess
        (``without_moments``) and the full state it was cut from; such a
        drift reads the values alone, so the same values give the same
        drift, and matching by identity is exact."""
        key = state.values if rule.step_invariant else state
        held = self._in_flight.get(id(key))
        if held is not None:
            return held[1]
        lane = self._dispatched % self.n_workers
        self._dispatched += 1
        future = self._lanes[lane].submit(self._serve, lane, rule, state)
        self._in_flight[id(key)] = (key, future)
        return future

    def gather_drifts(self, rule: rules.UpdateRule, states: list[ParamState]) -> list[Future]:
        """The future of each state's drift, in slot order, without waiting.

        Each slot is submitted in slot order, so it takes a drift already in
        flight for its input, or else starts one; then the table is emptied.
        A slot that took another state's drift has that drift's future.
        """
        if not states:
            raise ValueError("gather_drifts needs at least one state")
        if len({s.step for s in states}) != len(states):
            raise ValueError("gather_drifts states must have distinct steps")
        futures = [self.submit(rule, s) for s in states]
        self._in_flight.clear()
        return futures

    def wait(self, futures) -> None:
        """Block until every drift in ``futures`` is done, raising none of
        their errors; the time blocked is added to ``wait_ms``."""
        t0 = time.perf_counter()
        for future in futures:
            future.exception()  # blocks until done
        self._wait_s += time.perf_counter() - t0

    def result(self, future: Future) -> Drift:
        """Wait for a drift (``wait``) and return it, or re-raise its error."""
        if not future.done():
            self.wait((future,))
        return future.result()

    def drain(self) -> None:
        """Wait until every lane has finished all work submitted so far, and
        forget the drifts submitted ahead of a gather."""
        for lane in self._lanes:
            lane.submit(lambda: None).result()
        self._in_flight.clear()

    def timing_report(self) -> dict:
        """Per-lane busy time and counts of drifts evaluated since the last
        ``reset``, plus the time callers spent blocked on drifts."""
        return {
            "busy_ms": [1000.0 * s for s in self._busy_s],
            "drifts_served": list(self._drift_counts),
            "wait_ms": 1000.0 * self._wait_s,
        }
