"""Windowed fixed-point iteration over a sequential computation.

Each round takes the current window of candidate states, evaluates all drifts
in parallel at the previous iterate, rolls the successors out strictly left to
right from the window anchor (slot 0, which is final and never recomputed),
measures per-slot normalized squared errors against the previous iterate,
advances the window by the skip rule, and adapts the acceptance threshold by
an EMA of the round's errors.

With a zero threshold the result is bitwise equal to direct sequential
execution: the anchor only ever advances onto slots whose recomputation
reproduced the previous iterate exactly, so the prefix stays exact and every
round still advances at least one step (rounds <= total steps).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import PicardoptError, PoisonedDrift
from .pool import WorkerPool
from .rules import ADAPTIVE_GUIDANCE, UpdateRule, initial_state, reconcile_payload, rollout_one
from .schedule import reconcile_vector
from .state import ParamState, finite_checked, with_step
from .telemetry import RoundRecord, RunReport, finalize_report

AGGREGATIONS = ("mean", "median")


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
    dist = float(np.dot(delta, delta)) / max(new.dim, old.dim)
    if not np.isfinite(dist):
        raise PoisonedDrift(new.step, -1, "fixed-point distance is not finite")
    return dist


@finite_checked
def _final_loss(rule: UpdateRule, terminal: ParamState, seed: int) -> float:
    """Loss at the terminal state; a non-finite loss is numerical failure."""
    loss = rule.problem.loss(terminal.values, seed)
    if not np.isfinite(loss):
        raise PoisonedDrift(terminal.step, seed, "final loss is not finite")
    return loss


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


def picard_round(window: Window, rule: UpdateRule, pool: WorkerPool) -> tuple[Window, RoundErrors]:
    """One fixed-point refinement: parallel drifts at the previous iterate,
    then strict left-to-right rollout anchored at slot 0 (which is final and
    passes through unchanged).

    Returns the next-iteration window candidate (same base) plus per-slot
    errors for slots 1..p.  Drift payloads produced at stale-dimension guesses
    are mapped to the rolling state's dimension before rollout.
    """
    p = window.size
    if p < 1:
        raise ValueError("picard_round needs a window of size >= 1")
    old = window.states
    drifts = pool.gather_drifts(rule, list(old[:p]))
    new = [old[0]]
    for j in range(p):
        d = drifts[j]
        rolling = new[j]
        if len(d.payload) != rolling.dim:
            lifted = reconcile_payload(rule, d.payload, old[j].dim_tag, rolling.dim_tag, rolling.step)
            d = replace(d, payload=lifted)
        new.append(rollout_one(rule, d, rolling))
    errors = RoundErrors(tuple(fixed_point_distance(new[j], old[j], rule) for j in range(1, p + 1)))
    return Window(window.base_step, tuple(new)), errors


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


def run(rule: UpdateRule, settings: EngineSettings, pool: WorkerPool | None = None,
        config_echo: dict | None = None) -> EngineResult:
    """Drive the windowed iteration from step 0 to the horizon.

    All window slots start as clones of the initial state.  Per round:
    refine, skip, record telemetry, adapt the threshold (after the skip
    decision, preserving the reference ordering), advance.  When a round or
    the final loss fails, the partial report and current window are attached
    to the raised error for checkpointing.  A pool created here is closed
    however the run ends.
    """
    T = rule.total_steps
    theta0 = initial_state(rule)
    size0 = min(settings.window, T)
    window = Window(0, [theta0] + [with_step(theta0, j) for j in range(1, size0 + 1)])
    ts = ThresholdState(settings.threshold0, settings.gamma, settings.aggregation)

    records: list[RoundRecord] = []
    trajectory: list[ParamState] | None = [theta0] if settings.record_trajectory else None
    snapshots: list[list[ParamState]] | None = [] if settings.record_snapshots else None

    if config_echo is None:
        config_echo = {
            "problem": rule.problem.kind,
            "rule": rule.kind,
            "steps": T,
            "window": settings.window,
            "workers": settings.workers,
            "threshold0": settings.threshold0,
            "gamma": settings.gamma,
            "aggregation": settings.aggregation,
            "seed_offset": settings.seed_offset,
            "kernel_path": kernels.kernel_path(),
        }

    own_pool = pool is None
    if own_pool:
        aux_dim = theta0.dim if rule.kind == ADAPTIVE_GUIDANCE else None
        pool = WorkerPool(settings.workers, settings.seed_offset, settings.injected_cost_ms, aux_dim)

    t_start = time.perf_counter()
    try:
        while window.base_step < T:
            candidate, errors = picard_round(window, rule, pool)
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
            ts = update_threshold(ts, errors)
            window = advance_window(window, new_states, skip, T)
            if snapshots is not None:
                snapshots.append(list(trajectory) + list(window.states[1:]))
        wall_ms = 1000.0 * (time.perf_counter() - t_start)
        terminal = window.states[0]
        final_loss = _final_loss(rule, terminal, T + settings.seed_offset)
    except PicardoptError as err:
        wall_ms = 1000.0 * (time.perf_counter() - t_start)
        err.partial_report = finalize_report(  # type: ignore[attr-defined]
            records, T, config_echo, final_loss=None, wall_time_ms=wall_ms,
            worker_busy_ms=pool.timing_report()["busy_ms"], partial=True,
        )
        err.partial_window = window  # type: ignore[attr-defined]
        raise
    finally:
        if own_pool:
            pool.close()

    report = finalize_report(
        records, T, config_echo, final_loss=final_loss, wall_time_ms=wall_ms,
        worker_busy_ms=pool.timing_report()["busy_ms"], partial=False,
    )
    return EngineResult(terminal, report, records, trajectory, snapshots)
