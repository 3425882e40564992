"""Windowed fixed-point iteration over a sequential computation.

A window is a list of candidate states, slot j holding step
``window[0].step + j``: slot 0 is the converged anchor, final and never
recomputed, with moments for Adam; the later slots are guesses, which may
carry none.  Every slot has its step's dimension: ``rules.carried`` makes
each guess from the state before it as a rollout makes a successor, through
the schedule's action at that state's step, so no round lifts a state or a
drift payload.  Each round evaluates all drifts in parallel at the previous
iterate, rolls the successors out strictly left to right from the anchor,
measures per-slot normalized squared errors against the previous iterate,
slides the window to the first slot whose error exceeds the threshold,
refills its tail, and adapts the threshold by an EMA of each round's median
error.

Rounds are pipelined: a slot is rolled out as soon as its drift arrives, and
once the window stops sliding each newly rolled-out state is submitted at
once, so the next round's drifts run while this round finishes.  Which
drifts run, and every bit of the result, is unchanged.

With a zero threshold the result is bitwise equal to direct sequential
execution: the anchor only ever advances onto slots whose recomputation
reproduced the previous iterate exactly, so the prefix stays exact and every
round still advances at least one step (rounds <= total steps).  A drift,
rollout or distance that fails past the anchor's own step ends the round
there, not the run, since its drift was taken at a guess; at the anchor's
step, the one sequential execution takes, it fails the run.

A round holds only what a later step reads.  It refines its window in
place: as soon as a slot's error is measured, the round's new state replaces
the guess there.  Once a slot's successor is rolled out and the slot is
accepted but is not the next anchor, it leaves the window's front, so the
window ends the round at its new anchor.  A state past the skip is a guess
for the next round, which reads only its values, so an Adam guess is kept
without moments.  If a round fails, the window is left as slid and refined
so far, starting at the newest accepted state, every slot a valid candidate
for its step.

The engine keeps no trajectory: ``run``'s observer sees each round's accepted
states and the window after it, and keeps what its caller needs.
"""

from __future__ import annotations

import math
import numbers
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .errors import ArgumentError, DimensionError, ObjectiveError, PicardoptError, PoisonedDrift
from .oracle import checked_loss, keep_freed_heap
from .pool import WorkerPool
from .rules import ADAPTIVE_GUIDANCE, UpdateRule, carried, initial_state, rollout_one
from .state import ParamState, finite_checked, without_moments
from .telemetry import RoundRecord, RunReport, finalize_report

DOT_BLOCK = 8192


@finite_checked
def fixed_point_distance(new: ParamState, old: ParamState) -> float:
    """Normalized squared distance (1/D) * ||new - old||^2 over values, D the
    dimension both states have at their step.

    Moments are excluded.  A distance that overflows between two finite
    states is ``inf``: not converged, above any threshold.
    """
    if new.step != old.step:
        raise ValueError(f"distance across steps {new.step} != {old.step}")
    n = new.dim
    if old.dim != n:
        raise DimensionError(f"distance across dimensions {n} != {old.dim} at step {new.step}")
    # np.dot over fixed blocks of the difference, summed in block order: BLAS
    # runs a dot this short on one thread, so the bits do not depend on its
    # thread count.  Each block is subtracted into one reused buffer.
    buf = np.empty(min(n, DOT_BLOCK))
    total = 0.0
    for i in range(0, n, DOT_BLOCK):
        block = np.subtract(new.values[i : i + DOT_BLOCK], old.values[i : i + DOT_BLOCK],
                            out=buf[: min(DOT_BLOCK, n - i)])
        total += float(np.dot(block, block))
    return total / n


def compute_skip(errors: Sequence[float], threshold: float) -> int:
    """Smallest slot whose error exceeds the threshold, else the window size.

    Always in [1, p]: the window advances at least one step per round.
    """
    for j, err in enumerate(errors, start=1):
        if err > threshold:
            return j
    return len(errors)


def update_threshold(e: float, gamma: float, median: float) -> float:
    """The next round's threshold: an EMA, with decay ``gamma``, of each
    round's median error.  A median that overflowed (``inf``) leaves it
    unchanged."""
    if not math.isfinite(median):
        return e
    return gamma * e + (1.0 - gamma) * median


def picard_round(window: list[ParamState], rule: UpdateRule, pool: WorkerPool, threshold: float,
                 accepted: list[ParamState] | None = None) -> tuple[float, ...]:
    """One fixed-point refinement of ``window``, in place: parallel drifts at
    the previous iterate, then strict left-to-right rollout from slot 0.

    Returns the errors of the slots it measured, 1..p unless a failure ended
    the round early.  Slot j is rolled out and its error measured as soon as
    its drift arrives, and the round's state for that step replaces the
    guess there; the state being rolled from is held apart from the window.
    Every slot has its step's dimension, so every drift's payload has its
    rolling state's; a drift shared from another slot's state, which has the
    same values, is rolled out as computed.

    While every error so far is within ``threshold``, the window slides:
    slot j, accepted and not the next anchor, leaves its front once slot
    j + 1 is rolled out, and slot j + 1 is appended to ``accepted`` when it
    is a list.  The window so ends at the new anchor, the slot
    ``compute_skip`` picks, short by the skip.  Once it stops sliding, each
    state the round places is submitted for the next round if its step is
    below the horizon, and each state past the anchor is a guess, kept
    without moments (``without_moments``).

    A ``PoisonedDrift`` or ``ObjectiveError`` while producing slot j + 1 for
    j >= 1 (reading drift j, or its rollout)
    ends the round at slot j, once the drifts not yet read have finished:
    drift j was taken at a guess, which sequential execution need not visit.
    At j = 0 the drift is the anchor's own, the step sequential execution
    takes, and the error fails the round, as any other error does at any
    slot: every submitted drift is drained, and the window is left as slid
    and refined so far.
    """
    p = len(window) - 1
    if p < 1:
        raise ValueError("picard_round needs a window of size >= 1")
    futures = pool.gather_drifts(rule, window[:p])
    rolling = window[0]
    errors = []
    sliding = True  # every error so far is within the threshold, and a slot is left
    try:
        for j in range(p):
            try:
                d = pool.result(futures[j])
                futures[j] = None  # a drift a later slot shares lives until that slot is read
                refined = rollout_one(rule, d.payload, rolling)
                del d
                errors.append(fixed_point_distance(refined, window[refined.step - window[0].step]))
            except (ObjectiveError, PoisonedDrift):
                if j == 0:
                    raise
                pool.wait(futures[j + 1:])  # so what ran does not depend on timing
                break
            if sliding:
                del window[0]  # slot j, accepted and not the next anchor, leaves the front
                window[0] = placed = refined
                if accepted is not None:
                    accepted.append(refined)
                sliding = errors[-1] <= threshold and j + 1 < p
            else:
                placed = without_moments(refined)  # the next round reads its values alone
                window[refined.step - window[0].step] = placed
            if not sliding and placed.step < rule.total_steps:
                pool.submit(rule, placed)
            rolling = refined
    except BaseException:
        pool.drain()
        raise
    return tuple(errors)


def advance_window(window: list[ParamState], skip: int, rule: UpdateRule) -> list[ParamState]:
    """The window a round slid forward by ``skip``, its tail refilled in place
    to the size it had before the slide (``_filled``)."""
    if skip < 1:
        raise ValueError(f"skip {skip} is below 1")
    return _filled(window, len(window) - 1 + skip, rule)


def _filled(window: list[ParamState], size: int, rule: UpdateRule) -> list[ParamState]:
    """``window``, grown in place to ``size`` slots past its anchor, clamped
    so it never extends past the horizon, each new slot a guess carried on
    from the slot before it (``rules.carried``)."""
    size = min(size, rule.total_steps - window[0].step)
    while len(window) <= size:
        window.append(carried(rule, window[-1]))
    return window


@dataclass(frozen=True)
class EngineSettings:
    """The engine's settings, and the one place their defaults live.

    An unset ``window`` is ``workers - 1`` (at least 1); an unset ``gamma``
    is 1.0 at threshold 0, the exact mode, so the threshold stays frozen
    there unless asked to adapt, and 0.9 otherwise.  Frozen, so every value
    a run reads passed ``__post_init__``'s checks (an ``ArgumentError``
    names the field); the pool's settings (``workers``, ``seed_offset``,
    ``injected_cost_ms``) are checked by ``WorkerPool.check_settings``.
    """

    window: int | None = None
    workers: int = 8
    threshold: float = 1e-6
    gamma: float | None = None
    seed_offset: int = 0
    injected_cost_ms: float = 0.0

    def __post_init__(self):
        WorkerPool.check_settings(self.workers, self.seed_offset, self.injected_cost_ms)
        if self.window is None:
            object.__setattr__(self, "window", max(1, self.workers - 1))
        if self.gamma is None:
            object.__setattr__(self, "gamma", 1.0 if self.threshold == 0.0 else 0.9)
        if not isinstance(self.window, numbers.Integral) or self.window < 1:
            raise ArgumentError("window", "window must be an integer >= 1")
        if not 0.0 <= self.threshold < math.inf:
            raise ArgumentError("threshold", "threshold must be finite and >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ArgumentError("gamma", "gamma must lie in [0, 1]")

    def is_exact(self, rule: UpdateRule) -> bool:
        """Threshold frozen at 0: the engine must match the oracle bitwise.

        Never for ``adaptive_guidance``: its lane-local predictors see the
        engine's drifts, the oracle's predictor only the sequential ones.
        """
        return rule.kind != ADAPTIVE_GUIDANCE and self.threshold == 0.0 and self.gamma == 1.0


@dataclass
class EngineResult:
    """A run's report, round records and the window it ended with: a finished
    run's terminal state alone, or as the failure left it (see ``run``)."""

    report: RunReport
    records: list[RoundRecord]
    window: list[ParamState]

    @property
    def terminal(self) -> ParamState:
        """The state at the horizon, once the run has finished."""
        return self.window[0]


def _config_echo(rule: UpdateRule, settings: EngineSettings) -> dict:
    """The report's echo of a run's settings, each read from the object built
    with it, so every value is the one that ran."""
    echo_rule = {"kind": rule.kind, "step_size": rule.step_size,
                 "schedule": " ".join(str(action) for action in rule.schedule)}
    if rule.adam is not None:
        echo_rule.update(asdict(rule.adam))
    return {
        "problem": {"kind": rule.problem.kind, **rule.problem.settings()},
        "rule": echo_rule,
        "engine": {"steps": rule.total_steps, **asdict(settings)},
        "kernel_path": kernels.kernel_path(),
    }


def run(rule: UpdateRule, settings: EngineSettings, pool: WorkerPool | None = None,
        observer: Callable[[Sequence[ParamState], list[ParamState]], None] | None = None,
        ) -> EngineResult:
    """Drive the windowed iteration from step 0 to the horizon.

    The window is a list, slot j holding step ``window[0].step + j``; it
    starts as the initial state and guesses carried on from it.
    Per round: slide and refine the window in place, skip, record telemetry,
    adapt the threshold (after the skip decision, preserving the reference
    ordering), refill the window's tail.  A failure past the anchor's step
    only ends its round (see ``picard_round``).  When a round or the final
    loss fails, the raised error's ``partial`` is the run's partial result
    (the partial report, the finished rounds' records and the window, for a
    failed round as slid and refined so far), for checkpointing.  A pool
    created here is closed however the run ends; a pool passed in must agree
    with ``settings`` on workers, seed offset and injected cost, and is reset
    first, so it gives the bits and counters of a fresh pool.  The report's
    drift count, busy and wait times are the pool's counters; the wait time
    is what the rounds spent blocked on drifts, rounds ended early and
    aborted included.  The report's ``config_echo`` holds the problem, rule
    and engine settings that ran and the kernel path (``_config_echo``).

    ``observer(accepted, window)`` is called after each round with the states
    it accepted past the old anchor (from step 0 in the first round), the new
    anchor last, moments included, and the new window: in order, the
    accepted states are the trajectory, which the run does not keep.  Only
    with an observer does a round keep the states it rolls past, for the
    observer.  The next round slides and refines that window in place, so an
    observer that keeps it must copy it (``list(window)``).  The
    observer's time is not in the report's ``wall_time_ms``.  As a sequential
    solve does, it first tunes glibc's allocator (``oracle.keep_freed_heap``).
    """
    keep_freed_heap()
    if pool is not None and (pool.n_workers, pool.seed_offset, pool.injected_cost_ms) != (
            settings.workers, settings.seed_offset, settings.injected_cost_ms):
        raise ValueError(
            f"pool (workers {pool.n_workers}, seed_offset {pool.seed_offset}, injected_cost_ms "
            f"{pool.injected_cost_ms}) disagrees with the settings (workers {settings.workers}, "
            f"seed_offset {settings.seed_offset}, injected_cost_ms {settings.injected_cost_ms})")
    T = rule.total_steps
    window = _filled([initial_state(rule)], settings.window, rule)
    threshold = settings.threshold

    records: list[RoundRecord] = []
    echo = _config_echo(rule, settings)

    own_pool = pool is None
    if own_pool:
        pool = WorkerPool(settings.workers, settings.seed_offset, settings.injected_cost_ms)
    else:
        pool.reset()

    t_start = time.perf_counter()
    try:
        while window[0].step < T:
            base = window[0].step
            accepted = None if observer is None else [] if records else [window[0]]
            errors = picard_round(window, rule, pool, threshold, accepted)
            skip = compute_skip(errors, threshold)
            median = statistics.median(errors)
            records.append(RoundRecord(len(records) + 1, base, skip, threshold,
                                       min(errors), median, max(errors)))
            threshold = update_threshold(threshold, settings.gamma, median)
            advance_window(window, skip, rule)
            if observer is not None:
                t_observer = time.perf_counter()
                observer(accepted, window)
                t_start += time.perf_counter() - t_observer  # not the run's time
        wall_ms = 1000.0 * (time.perf_counter() - t_start)
        final_loss = checked_loss(rule.problem, window[0], settings.seed_offset)
    except PicardoptError as err:
        wall_ms = 1000.0 * (time.perf_counter() - t_start)
        report = _report(records, T, echo, pool, wall_ms)
        err.partial = EngineResult(report, records, window)  # type: ignore[attr-defined]
        raise
    finally:
        if own_pool:
            pool.close()

    return EngineResult(_report(records, T, echo, pool, wall_ms, final_loss), records, window)


def _report(records, T: int, echo: dict, pool: WorkerPool, wall_ms: float,
            final_loss: float | None = None) -> RunReport:
    """The run's report, partial when ``final_loss`` is None.  Its drift
    count, busy times and ``drift_wait_ms`` (time blocked on drifts) are
    the pool's counters, which start at 0 with the run."""
    counts = pool.timing_report()
    return finalize_report(records, T, echo, final_loss, wall_ms,
                           worker_busy_ms=counts["busy_ms"],
                           drift_evals=sum(counts["drifts_served"]),
                           drift_wait_ms=counts["wait_ms"])
