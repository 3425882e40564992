"""Ground-truth sequential execution and equivalence checking.

The oracle iterates the same ``sequential_step`` the engine rolls out, so
equivalence tests isolate the window/skip scheduling rather than duplicated
arithmetic; independently coded update formulas live in the unit tests.
"""

from __future__ import annotations

import ctypes
import functools
import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .errors import PicardoptError, PoisonedDrift
from .problems import Problem
from .pool import WorkerPool
from .rules import AuxModel, UpdateRule, initial_state, sequential_step
from .state import ParamState, finite_checked, states_equal_bits


@dataclass(frozen=True)
class SequentialRun:
    """What a sequential solve keeps: its terminal state and its T + 1 losses."""

    terminal: ParamState
    losses: list[float]

    @property
    def states(self) -> tuple[ParamState]:
        # The terminal state alone, for perfbench/workloads.py, which reads states[-1].
        return (self.terminal,)


@finite_checked
def checked_loss(problem: Problem, state: ParamState, seed_offset: int = 0) -> float:
    """Loss at ``state`` under seed ``step + seed_offset``; a non-finite loss
    is numerical failure (PoisonedDrift)."""
    seed = state.step + seed_offset
    loss = problem.loss(state.values, seed)
    if not np.isfinite(loss):
        raise PoisonedDrift(state.step, seed, "loss is not finite")
    return loss


@functools.cache
def keep_freed_heap() -> None:
    """Let freed state arrays stay in the heap, once per process, on glibc;
    both solvers call it before their clocks start, to time the same heap.

    glibc serves a block of 128 KiB or more from mmap until the first one is
    freed; it then raises its mmap threshold to that block's size and its
    trim threshold to twice it, so a round that frees a window of large states
    hands the top of the heap back to the OS and the next round's rollouts
    grow it again on fresh zero pages.  Setting both thresholds to the
    ceilings the dynamic ones can reach keeps those pages.  (Setting one
    alone freezes the other where it stands, possibly at 128 KiB.)  The
    change is process-wide.  It is skipped without glibc's ``mallopt`` and
    when the environment already sets glibc malloc tunables
    (``GLIBC_TUNABLES=glibc.malloc.*`` or a ``MALLOC_*_`` variable).
    """
    if "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "") or any(
            name.startswith("MALLOC_") and name.endswith("_") for name in os.environ):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD (malloc.h), at the ceilings the
    # dynamic thresholds reach on 64-bit builds.
    if mallopt(-3, 32 << 20):
        mallopt(-1, 64 << 20)


def solve_sequential(rule: UpdateRule, seed_offset: int = 0, injected_cost_ms: float = 0.0,
                     observer: Callable[[ParamState], None] | None = None,
                     ) -> tuple[SequentialRun, float]:
    """Iterate the sequential update from step 0 to the horizon, keeping only
    the current state and the losses; returns (run, wall_time_ms).

    ``observer(state)`` is called once per state, steps 0..T in order.  Only
    the step loop is timed, with the optional injected per-step sleep
    mirroring the worker pool's, for fair wall-clock baselines; each state's
    loss, under seed step + seed_offset, and the observer run outside the
    clock.  A failed step raises at once; a failed loss is raised only once
    every step has succeeded, the first in step order.  The first solve in a
    process tunes glibc's allocator (``keep_freed_heap``).  The offset and
    the cost are checked first, as a pool's (``WorkerPool.check_settings``).
    """
    WorkerPool.check_settings(1, seed_offset, injected_cost_ms)
    keep_freed_heap()
    state = initial_state(rule)
    aux = AuxModel()
    sleep_s = injected_cost_ms / 1000.0
    losses, loss_error = [], None
    t_start = time.perf_counter()
    for tau in range(rule.total_steps + 1):
        if tau > 0:
            if sleep_s > 0.0:
                time.sleep(sleep_s)
            state = sequential_step(rule, state, tau - 1 + seed_offset, aux)
        t_untimed = time.perf_counter()
        try:
            losses.append(checked_loss(rule.problem, state, seed_offset))
        except PicardoptError as err:
            loss_error = loss_error or err
        if observer is not None:
            observer(state)
        t_start += time.perf_counter() - t_untimed  # not the solve's time
    wall_ms = 1000.0 * (time.perf_counter() - t_start)
    if loss_error is not None:
        raise loss_error
    return SequentialRun(state, losses), wall_ms


class StepComparison:
    """Bitwise comparison (values, moments, tags) with the reference states,
    read one at a time, plus the per-step max |delta| over values.  ``extend``
    compares states in step order from step 0, and keeps none of them."""

    def __init__(self, reference: Iterable[ParamState]):
        self.reference = iter(reference)
        self.first_divergence: int | None = None
        self.per_step_max_delta: list[float] = []

    @property
    def passed(self) -> bool:
        return self.first_divergence is None

    @property
    def max_delta(self) -> float:
        return max(self.per_step_max_delta, default=0.0)

    def extend(self, states) -> None:
        for state in states:
            tau = len(self.per_step_max_delta)
            if state.step != tau:
                raise ValueError(f"got step {state.step}, wanted {tau}")
            ref = next(self.reference, None)
            if ref is None or ref.step != tau:
                raise ValueError(f"the reference has no state at step {tau}")
            delta = (float("inf") if ref.dim != state.dim
                     else float(np.max(np.abs(ref.values - state.values), initial=0.0)))
            self.per_step_max_delta.append(delta)
            if self.passed and not states_equal_bits(ref, state):
                self.first_divergence = tau

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key)
                for key in ("passed", "first_divergence", "max_delta", "per_step_max_delta")}
