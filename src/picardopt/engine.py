"""Windowed fixed-point iteration over a sequential computation.

Each round takes the current window of candidate states, evaluates all drifts
in parallel at the previous iterate, rolls the successors out strictly left to
right from the window anchor (slot 0, which is final and never recomputed),
measures per-slot normalized squared errors against the previous iterate,
advances the window by the skip rule, and adapts the acceptance threshold by
an EMA of each round's median error.

Rounds are pipelined: a slot is rolled out as soon as its drift arrives, and
once the skip is known each newly rolled-out state that the next window will
hold is submitted at once, so the next round's drifts run while this round
finishes.  Which drifts run, and every bit of the result, is unchanged.

With a zero threshold the result is bitwise equal to direct sequential
execution: the anchor only ever advances onto slots whose recomputation
reproduced the previous iterate exactly, so the prefix stays exact and every
round still advances at least one step (rounds <= total steps).

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

import ctypes
import functools
import math
import os
import statistics
import time
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import kernels
from .errors import PicardoptError, PoisonedDrift
from .oracle import checked_loss
from .pool import WorkerPool
from .rules import ADAPTIVE_GUIDANCE, UpdateRule, initial_state, reconcile_payload, rollout_one
from .schedule import reconcile_vector
from .state import ParamState, finite_checked, with_step, without_moments
from .telemetry import RoundRecord, RunReport, finalize_report

DOT_BLOCK = 8192


@dataclass
class Window:
    """Contiguous run of candidate states: slot 0 is the converged anchor,
    with moments for Adam; the later slots are guesses, which may carry none.

    ``states`` is a list, slot j holding step ``base_step + j``, that
    ``picard_round`` slides and refines in place and ``advance_window``
    refills; a caller that keeps a window's states past the next round must
    copy the list.
    """

    base_step: int
    states: list[ParamState]

    def __post_init__(self):
        self.states = list(self.states)
        for j, s in enumerate(self.states):
            if s.step != self.base_step + j:
                raise ValueError(f"window slot {j} holds step {s.step}, wanted {self.base_step + j}")

    @property
    def size(self) -> int:
        return len(self.states) - 1


@finite_checked
def fixed_point_distance(new: ParamState, old: ParamState, rule: UpdateRule) -> float:
    """Normalized squared distance (1/D) * ||new - lift(old)||^2 over values.

    Moments are excluded.  When dimensions differ, the stale state is mapped
    through the schedule actions it missed (splits apply the real offset
    clone), and D is the larger of the two dimensions.
    """
    if new.step != old.step:
        raise ValueError(f"distance across steps {new.step} != {old.step}")
    lifted = old.values
    if old.dim != new.dim or old.dim_tag != new.dim_tag:
        lifted = reconcile_vector(
            old.values, rule.schedule, new.step, old.dim_tag, new.dim_tag,
            rule.problem.point_width, with_offset=True,
        )
    # np.dot over fixed blocks of the difference, summed in block order: BLAS
    # runs a dot this short on one thread, so the bits do not depend on its
    # thread count.  Each block is subtracted into one reused buffer.
    n = new.dim
    if len(lifted) != n:
        raise ValueError(f"distance across dimensions {n} != {len(lifted)}")
    buf = np.empty(min(n, DOT_BLOCK))
    total = 0.0
    for i in range(0, n, DOT_BLOCK):
        block = np.subtract(new.values[i : i + DOT_BLOCK], lifted[i : i + DOT_BLOCK],
                            out=buf[: min(DOT_BLOCK, n - i)])
        total += float(np.dot(block, block))
    dist = total / max(new.dim, old.dim)
    if not np.isfinite(dist):
        raise PoisonedDrift(new.step, -1, "fixed-point distance is not finite")
    return dist


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
    round's median error."""
    return gamma * e + (1.0 - gamma) * median


def picard_round(window: Window, rule: UpdateRule, pool: WorkerPool, threshold: float,
                 accepted: list[ParamState] | None = None) -> tuple[float, ...]:
    """One fixed-point refinement of ``window``, in place: parallel drifts at
    the previous iterate, then strict left-to-right rollout anchored at slot 0.

    Returns the per-slot errors for slots 1..p.  As soon as slot j's error is
    measured, the round's state for step base + j replaces the guess there,
    and nothing keeps the guess.  The state being rolled from is held apart
    from the window.  Drift payloads produced at stale-dimension guesses are
    mapped to the rolling state's dimension before rollout, and a drift
    shared from another slot's state takes this slot's step (its seed stays
    the one it was computed with).

    Slot j is rolled out and its error measured as soon as its drift arrives.
    Given the ``threshold`` the caller will skip by, the first slot whose
    error exceeds it fixes the skip s (as ``compute_skip``).  Until then,
    once slot j + 1 is rolled out, slot j (accepted, and not the next anchor)
    leaves the window's front, ``base_step`` moves up by one, and the slot
    is appended to ``accepted`` when it is a list; so on return the window
    starts at the new anchor, slot s, and is short by s slots.  Each state
    past the skip is a guess for the next round, kept without moments
    (``without_moments``), and each new state at slot s + k is submitted as
    slot k of the next window, never past that window's size, so never at or
    past the horizon.  On failure all submitted drifts are drained first; the
    error of the smallest failing drift of this round wins over a rollout
    error.  The window is then as slid and refined so far: slot 0 the newest
    accepted state, each later slot whose error was measured the round's
    state, the rest the previous guesses.
    """
    p = window.size
    if p < 1:
        raise ValueError("picard_round needs a window of size >= 1")
    states = window.states
    base = window.base_step
    stale_tags = [s.dim_tag for s in states[:p]]  # each drift's payload has its guess's dimension
    futures = pool.gather_drifts(rule, states[:p])
    rolling = states[0]
    errors = []
    skip = None
    next_size = 0
    try:
        for j in range(p):
            d = pool.result(futures[j])
            futures[j] = None  # a drift a later slot shares lives until that slot is read
            if d.step != base + j:
                d = d.relabelled(base + j)
            if len(d.payload) != rolling.dim:
                lifted = reconcile_payload(rule, d.payload, stale_tags[j], rolling.dim_tag, rolling.step)
                d = replace(d, payload=lifted)
            refined = rollout_one(rule, d, rolling)
            del d
            slot = base + j + 1 - window.base_step  # where slot j + 1 sits in the window
            errors.append(fixed_point_distance(refined, states[slot], rule))
            if skip is None:
                # Errors 1..j are within the threshold: slot j is accepted and
                # is not the next anchor, so it leaves the window's front.
                if accepted is not None:
                    accepted.append(states[0])
                del states[0]
                window.base_step += 1
                slot -= 1
                states[slot] = refined
                if errors[-1] > threshold or j + 1 == p:
                    skip = j + 1
                    # the next window's size, as advance_window clamps it
                    next_size = min(p, rule.total_steps - base - skip)
            else:
                states[slot] = without_moments(refined)  # the next round reads its values alone
            if skip is not None and j + 1 - skip < next_size:
                pool.submit(rule, states[slot])
            rolling = refined
    except BaseException as err:
        for future in futures:  # the futures not yet read: the smallest failing slot's error wins
            if future is not None:
                try:
                    pool.result(future)
                except BaseException as exc:
                    err = exc
                    break
        pool.drain()
        raise err
    return tuple(errors)


def advance_window(window: Window, skip: int, total_steps: int) -> Window:
    """Refill the tail of a window that a round slid forward by ``skip``.

    The round left the window at its new anchor, ``skip`` slots short; the
    tail is refilled with clones of the window's last state, without moments
    (step re-indexed), up to the size it had, clamped so the window never
    extends past the horizon.  Returns the window, refilled in place.
    """
    if skip < 1:
        raise ValueError(f"skip {skip} is below 1")
    states = window.states
    size = min(window.size + skip, total_steps - window.base_step)
    guess = without_moments(states[-1])
    while len(states) < size + 1:
        states.append(with_step(guess, window.base_step + len(states)))
    return window


@dataclass(frozen=True)
class EngineSettings:
    """The engine's settings, and the one place their defaults live.

    An unset ``window`` is ``workers - 1`` (at least 1); an unset ``gamma``
    is 1.0 at threshold 0, the exact mode, so the threshold stays frozen
    there unless asked to adapt, and 0.9 otherwise.  Frozen, so every value
    a run reads passed ``__post_init__``'s checks.
    """

    window: int | None = None
    workers: int = 8
    threshold: float = 1e-6
    gamma: float | None = None
    seed_offset: int = 0
    injected_cost_ms: float = 0.0

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.window is None:
            object.__setattr__(self, "window", max(1, self.workers - 1))
        if self.gamma is None:
            object.__setattr__(self, "gamma", 1.0 if self.threshold == 0.0 else 0.9)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.seed_offset < 0:
            raise ValueError("seed_offset must be >= 0")
        if not 0.0 <= self.injected_cost_ms < math.inf:
            raise ValueError("injected_cost_ms must be finite and >= 0")
        if not 0.0 <= self.threshold < math.inf:
            raise ValueError("threshold must be finite and >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")

    def is_exact(self, rule: UpdateRule) -> bool:
        """Threshold frozen at 0: the engine must match the oracle bitwise.

        Never for ``adaptive_guidance``: its lane-local predictors see the
        engine's drifts, the oracle's predictor only the sequential ones.
        """
        return rule.kind != ADAPTIVE_GUIDANCE and self.threshold == 0.0 and self.gamma == 1.0


@dataclass
class EngineResult:
    terminal: ParamState
    report: RunReport
    records: list[RoundRecord]


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


@functools.cache
def _keep_freed_heap() -> None:
    """Let freed state arrays stay in the heap for the next round, once per
    process, on glibc.

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


def run(rule: UpdateRule, settings: EngineSettings, pool: WorkerPool | None = None,
        echo_extra: dict | None = None,
        observer: Callable[[Sequence[ParamState], Window], None] | None = None) -> EngineResult:
    """Drive the windowed iteration from step 0 to the horizon.

    All window slots start as clones of the initial state, the guesses
    without moments.  Per round: slide and refine the window in place, skip,
    record telemetry, adapt the threshold (after the skip decision,
    preserving the reference ordering), refill the window's tail.  When a
    round or the final loss fails, the partial report and the window (for a
    failed round, as slid and refined so far; see ``picard_round``) are
    attached to the raised error for checkpointing.  A pool created here is
    closed however the run ends; a pool passed in must agree with
    ``settings`` on workers, seed offset and injected cost, and is reset
    first, so it gives the bits of a fresh pool.  The report's drift count, busy and wait times
    are this run's share of the pool's counters; the wait time is what its
    rounds spent blocked in ``pool.result``, aborted rounds included.
    ``echo_extra`` adds keys to the report's ``config_echo``.

    ``observer(accepted, window)`` is called after each round with the states
    it accepted (from step 0 in the first round), moments included, and the
    new window: in order, the accepted states are the trajectory, which the
    run does not keep.  Only with an observer does a round keep the states
    it rolls past, for the observer.  The next round slides and refines that
    window in place, so an observer that keeps it must copy its states.  The
    observer's time is not in the report's ``wall_time_ms``.  The first run
    in a process tunes glibc's allocator (see ``_keep_freed_heap``).
    """
    _keep_freed_heap()
    if pool is not None and (pool.n_workers, pool.seed_offset, pool.injected_cost_ms) != (
            settings.workers, settings.seed_offset, settings.injected_cost_ms):
        raise ValueError(
            f"pool (workers {pool.n_workers}, seed_offset {pool.seed_offset}, injected_cost_ms "
            f"{pool.injected_cost_ms}) disagrees with the settings (workers {settings.workers}, "
            f"seed_offset {settings.seed_offset}, injected_cost_ms {settings.injected_cost_ms})")
    T = rule.total_steps
    window = _first_window(rule, min(settings.window, T))
    threshold = settings.threshold

    records: list[RoundRecord] = []
    echo = {**_config_echo(rule, settings), **(echo_extra or {})}

    own_pool = pool is None
    if own_pool:
        pool = WorkerPool(settings.workers, settings.seed_offset, settings.injected_cost_ms)
    pool.reset()

    counters = pool.timing_report()
    t_start = time.perf_counter()
    try:
        while window.base_step < T:
            base = window.base_step
            accepted = None if observer is None else []
            errors = picard_round(window, rule, pool, threshold, accepted)
            skip = compute_skip(errors, threshold)
            median = statistics.median(errors)
            records.append(RoundRecord(len(records) + 1, base, skip, threshold,
                                       min(errors), median, max(errors)))
            threshold = update_threshold(threshold, settings.gamma, median)
            window = advance_window(window, skip, T)
            if observer is not None:
                # The round kept the states it rolled past, the old anchor
                # (reported last round, unless it is step 0) first.
                if base > 0:
                    del accepted[0]
                accepted.append(window.states[0])
                t_observer = time.perf_counter()
                observer(accepted, window)
                t_start += time.perf_counter() - t_observer  # not the run's time
        wall_ms = 1000.0 * (time.perf_counter() - t_start)
        terminal = window.states[0]
        final_loss = checked_loss(rule.problem, terminal, settings.seed_offset)
    except PicardoptError as err:
        wall_ms = 1000.0 * (time.perf_counter() - t_start)
        err.partial_report = _report(records, T, echo, pool, counters, wall_ms)  # type: ignore[attr-defined]
        err.partial_window = window  # type: ignore[attr-defined]
        raise
    finally:
        if own_pool:
            pool.close()

    report = _report(records, T, echo, pool, counters, wall_ms, final_loss)
    return EngineResult(terminal, report, records)


def _first_window(rule: UpdateRule, size: int) -> Window:
    """The initial state and ``size`` clones of it as guesses, without moments."""
    theta0 = initial_state(rule)
    guess = without_moments(theta0)
    return Window(0, [theta0] + [with_step(guess, j) for j in range(1, size + 1)])


def _report(records, T: int, echo: dict, pool: WorkerPool, counters: dict, wall_ms: float,
            final_loss: float | None = None) -> RunReport:
    """The run's report, partial when ``final_loss`` is None.  Its drift
    count, busy times and ``drift_wait_ms`` (time blocked in ``pool.result``)
    are what the pool's counters grew by since ``counters``, the pool's
    ``timing_report()`` at the start of the run."""
    now = pool.timing_report()
    return finalize_report(
        records, T, echo, final_loss=final_loss, wall_time_ms=wall_ms,
        worker_busy_ms=[b - a for a, b in zip(counters["busy_ms"], now["busy_ms"])],
        partial=final_loss is None,
        drift_evals=sum(now["drifts_served"]) - sum(counters["drifts_served"]),
        drift_wait_ms=now["wait_ms"] - counters["wait_ms"],
    )
