"""Windowed fixed-point iteration over a sequential computation.

Each round takes the current window of candidate states, evaluates all drifts
in parallel at the previous iterate, rolls the successors out strictly left to
right from the window anchor (slot 0, which is final and never recomputed),
measures per-slot normalized squared errors against the previous iterate,
advances the window by the skip rule, and adapts the acceptance threshold by
an EMA of the round's errors.

Rounds are pipelined: a slot is rolled out as soon as its drift arrives, and
once the skip is known each newly rolled-out state that the next window will
hold is submitted at once, so the next round's drifts run while this round
finishes.  Which drifts run, and every bit of the result, is unchanged.

With a zero threshold the result is bitwise equal to direct sequential
execution: the anchor only ever advances onto slots whose recomputation
reproduced the previous iterate exactly, so the prefix stays exact and every
round still advances at least one step (rounds <= total steps).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import kernels
from .errors import PicardoptError, PoisonedDrift
from .oracle import checked_losses
from .pool import WorkerPool
from .rules import ADAPTIVE_GUIDANCE, UpdateRule, initial_state, reconcile_payload, rollout_one
from .schedule import reconcile_vector
from .state import ParamState, finite_checked, with_step
from .telemetry import RoundRecord, RunReport, finalize_report

AGGREGATIONS = ("mean", "median")
DOT_BLOCK = 8192


@dataclass(frozen=True)
class Window:
    """Contiguous run of candidate states: slot 0 is the converged anchor."""

    base_step: int
    states: tuple[ParamState, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        for j, s in enumerate(self.states):
            if s.step != self.base_step + j:
                raise ValueError(f"window slot {j} holds step {s.step}, wanted {self.base_step + j}")

    @property
    def size(self) -> int:
        return len(self.states) - 1


@dataclass(frozen=True)
class ThresholdState:
    e: float
    gamma: float
    agg: str = "median"

    def __post_init__(self):
        if self.e < 0.0:
            raise ValueError("threshold must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.agg not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")


@dataclass(frozen=True)
class RoundErrors:
    per_slot: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_slot", tuple(float(e) for e in self.per_slot))
        if any(e < 0.0 or not np.isfinite(e) for e in self.per_slot):
            raise ValueError("round errors must be finite and >= 0")


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
    delta = new.values - lifted
    # np.dot over fixed blocks, summed in block order: BLAS runs a dot this
    # short on one thread, so the bits do not depend on its thread count.
    total = 0.0
    for i in range(0, len(delta), DOT_BLOCK):
        block = delta[i : i + DOT_BLOCK]
        total += float(np.dot(block, block))
    dist = total / max(new.dim, old.dim)
    if not np.isfinite(dist):
        raise PoisonedDrift(new.step, -1, "fixed-point distance is not finite")
    return dist


def compute_skip(errors: RoundErrors, threshold: float) -> int:
    """Smallest slot whose error exceeds the threshold, else the window size.

    Always in [1, p]: the window advances at least one step per round.
    """
    for j, err in enumerate(errors.per_slot, start=1):
        if err > threshold:
            return j
    return len(errors.per_slot)


def update_threshold(ts: ThresholdState, errors: RoundErrors) -> ThresholdState:
    agg = np.median if ts.agg == "median" else np.mean
    e_next = ts.gamma * ts.e + (1.0 - ts.gamma) * float(agg(errors.per_slot))
    return replace(ts, e=e_next)


def picard_round(window: Window, rule: UpdateRule, pool: WorkerPool,
                 threshold: float) -> tuple[Window, RoundErrors]:
    """One fixed-point refinement: parallel drifts at the previous iterate,
    then strict left-to-right rollout anchored at slot 0 (which is final and
    passes through unchanged).

    Returns the next-iteration window candidate (same base) plus per-slot
    errors for slots 1..p.  Drift payloads produced at stale-dimension guesses
    are mapped to the rolling state's dimension before rollout.

    Slot j is rolled out and its error measured as soon as its drift arrives.
    Given the ``threshold`` the caller will skip by, the first slot whose
    error exceeds it fixes the skip s (as ``compute_skip``), and from then on
    each new state ``new[s + k]`` is submitted as slot k of the next window,
    never past that window's size, so never at or past the horizon.  On
    failure all submitted drifts are drained first; the error of the
    smallest failing drift of this round wins over a rollout error.
    """
    p = window.size
    if p < 1:
        raise ValueError("picard_round needs a window of size >= 1")
    old = window.states
    base = window.base_step
    drifts = pool.gather_drifts(rule, list(old[:p]))
    new = [old[0]]
    errors = []
    skip = None
    next_size = 0
    try:
        for j in range(p):
            d = drifts[j]
            rolling = new[j]
            if len(d.payload) != rolling.dim:
                lifted = reconcile_payload(rule, d.payload, old[j].dim_tag, rolling.dim_tag, rolling.step)
                d = replace(d, payload=lifted)
            new.append(rollout_one(rule, d, rolling))
            errors.append(fixed_point_distance(new[j + 1], old[j + 1], rule))
            if skip is None and (errors[-1] > threshold or j + 1 == p):
                skip = j + 1
                next_size = min(p, rule.total_steps - base - skip)  # as advance_window clamps it
            if skip is not None and j + 1 - skip < next_size:
                pool.submit(rule, new[j + 1])
    except BaseException:
        failure = drifts.first_failure()
        pool.drain()
        if failure is not None:
            raise failure
        raise
    return Window(base, tuple(new)), RoundErrors(tuple(errors))


def advance_window(window: Window, new_states, skip: int, total_steps: int) -> Window:
    """Slide the window forward by ``skip`` and refill the tail.

    ``new_states`` are the round's computed states for steps base..base+p.
    Slots beyond the old horizon are clones of the last computed state
    (moments included, step re-indexed); the size is clamped so the window
    never extends past the horizon.
    """
    p = window.size
    if not 1 <= skip <= p:
        raise ValueError(f"skip {skip} outside [1, {p}]")
    new_base = window.base_step + skip
    new_size = min(p, total_steps - new_base)
    kept = list(new_states[skip : skip + new_size + 1])
    last = new_states[-1]
    while len(kept) < new_size + 1:
        kept.append(with_step(last, new_base + len(kept)))
    return Window(new_base, tuple(kept))


@dataclass
class EngineSettings:
    window: int
    workers: int
    threshold0: float
    gamma: float
    aggregation: str = "median"
    seed_offset: int = 0
    injected_cost_ms: float = 0.0
    record_trajectory: bool = True
    record_snapshots: bool = False

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed_offset < 0:
            raise ValueError("seed_offset must be >= 0")
        if self.injected_cost_ms < 0:
            raise ValueError("injected_cost_ms must be >= 0")
        if self.record_snapshots and not self.record_trajectory:
            raise ValueError("snapshots need the finalized trajectory recorded")
        ThresholdState(self.threshold0, self.gamma, self.aggregation)  # validates


@dataclass
class EngineResult:
    terminal: ParamState
    report: RunReport
    records: list[RoundRecord]
    trajectory: list[ParamState] | None = None
    snapshots: list[list[ParamState]] | None = None


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
        "engine": {"steps": rule.total_steps, "window": settings.window,
                   "workers": settings.workers, "threshold": settings.threshold0,
                   "gamma": settings.gamma, "aggregation": settings.aggregation,
                   "seed_offset": settings.seed_offset,
                   "injected_cost_ms": settings.injected_cost_ms},
        "kernel_path": kernels.kernel_path(),
    }


def run(rule: UpdateRule, settings: EngineSettings, pool: WorkerPool | None = None,
        echo_extra: dict | None = None) -> EngineResult:
    """Drive the windowed iteration from step 0 to the horizon.

    All window slots start as clones of the initial state.  Per round:
    refine, skip, record telemetry, adapt the threshold (after the skip
    decision, preserving the reference ordering), advance.  When a round or
    the final loss fails, the partial report and current window are attached
    to the raised error for checkpointing.  A pool created here is closed
    however the run ends; a pool passed in must agree with ``settings`` on
    workers, seed offset and injected cost.  ``echo_extra`` adds keys to the
    report's ``config_echo``.
    """
    if pool is not None and (pool.n_workers, pool.seed_offset, pool.injected_cost_ms) != (
            settings.workers, settings.seed_offset, settings.injected_cost_ms):
        raise ValueError(
            f"pool (workers {pool.n_workers}, seed_offset {pool.seed_offset}, injected_cost_ms "
            f"{pool.injected_cost_ms}) disagrees with the settings (workers {settings.workers}, "
            f"seed_offset {settings.seed_offset}, injected_cost_ms {settings.injected_cost_ms})")
    T = rule.total_steps
    theta0 = initial_state(rule)
    size0 = min(settings.window, T)
    window = Window(0, [theta0] + [with_step(theta0, j) for j in range(1, size0 + 1)])
    ts = ThresholdState(settings.threshold0, settings.gamma, settings.aggregation)

    records: list[RoundRecord] = []
    trajectory: list[ParamState] | None = [theta0] if settings.record_trajectory else None
    snapshots: list[list[ParamState]] | None = [] if settings.record_snapshots else None

    echo = {**_config_echo(rule, settings), **(echo_extra or {})}

    own_pool = pool is None
    if own_pool:
        aux_dim = theta0.dim if rule.kind == ADAPTIVE_GUIDANCE else None
        pool = WorkerPool(settings.workers, settings.seed_offset, settings.injected_cost_ms, aux_dim)

    drift_evals = 0
    wait_ms0 = pool.timing_report()["wait_ms"]
    t_start = time.perf_counter()
    try:
        while window.base_step < T:
            candidate, errors = picard_round(window, rule, pool, ts.e)
            new_states = candidate.states
            skip = compute_skip(errors, ts.e)
            records.append(
                RoundRecord(
                    round_index=len(records) + 1,
                    base_step=window.base_step,
                    skip=skip,
                    threshold=ts.e,
                    err_min=min(errors.per_slot),
                    err_med=float(np.median(errors.per_slot)),
                    err_max=max(errors.per_slot),
                )
            )
            if trajectory is not None:
                trajectory.extend(new_states[1 : skip + 1])
            drift_evals += window.size
            ts = update_threshold(ts, errors)
            window = advance_window(window, new_states, skip, T)
            if snapshots is not None:
                snapshots.append(list(trajectory) + list(window.states[1:]))
        wall_ms = 1000.0 * (time.perf_counter() - t_start)
        terminal = window.states[0]
        (final_loss,) = checked_losses(rule.problem, [terminal], settings.seed_offset)
    except PicardoptError as err:
        wall_ms = 1000.0 * (time.perf_counter() - t_start)
        timing = pool.timing_report()
        err.partial_report = finalize_report(  # type: ignore[attr-defined]
            records, T, echo, final_loss=None, wall_time_ms=wall_ms,
            worker_busy_ms=timing["busy_ms"], partial=True, drift_evals=drift_evals,
            drift_wait_ms=timing["wait_ms"] - wait_ms0,
        )
        err.partial_window = window  # type: ignore[attr-defined]
        raise
    finally:
        if own_pool:
            pool.close()

    timing = pool.timing_report()
    report = finalize_report(
        records, T, echo, final_loss=final_loss, wall_time_ms=wall_ms,
        worker_busy_ms=timing["busy_ms"], partial=False, drift_evals=drift_evals,
        drift_wait_ms=timing["wait_ms"] - wait_ms0,
    )
    return EngineResult(terminal, report, records, trajectory, snapshots)
