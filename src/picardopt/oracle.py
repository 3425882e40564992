"""Ground-truth sequential execution and equivalence checking.

The oracle iterates the same ``sequential_step`` the engine rolls out, so
equivalence tests isolate the window/skip scheduling rather than duplicated
arithmetic; independently coded update formulas live in the unit tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import PoisonedDrift
from .problems import Problem
from .rules import ADAPTIVE_GUIDANCE, AuxModel, UpdateRule, initial_state, sequential_step
from .state import ParamState, finite_checked, states_equal_bits, with_step


@dataclass
class Trajectory:
    states: list[ParamState]
    losses: list[float]

    def __post_init__(self):
        for tau, s in enumerate(self.states):
            if s.step != tau:
                raise ValueError(f"trajectory slot {tau} holds step {s.step}")

    @property
    def total_steps(self) -> int:
        return len(self.states) - 1


@finite_checked
def checked_losses(problem: Problem, states, seed_offset: int = 0) -> list[float]:
    """Loss at each state under seed ``step + seed_offset``; a non-finite
    loss is numerical failure (PoisonedDrift)."""
    losses = []
    for s in states:
        seed = s.step + seed_offset
        loss = problem.loss(s.values, seed)
        if not np.isfinite(loss):
            raise PoisonedDrift(s.step, seed, "loss is not finite")
        losses.append(loss)
    return losses


def solve_sequential(rule: UpdateRule, theta0: ParamState | None = None,
                     seed_offset: int = 0, injected_cost_ms: float = 0.0) -> tuple[Trajectory, float]:
    """Iterate the sequential update from step 0 to the horizon.

    Returns (trajectory, wall_time_ms).  Only the step loop is timed, with the
    optional injected per-step sleep mirroring the worker pool's, for fair
    wall-clock baselines.  Loss at step tau is evaluated after the clock
    stops, under seed tau + seed_offset.
    """
    if theta0 is None:
        theta0 = initial_state(rule)
    elif theta0.step != 0:
        theta0 = with_step(theta0, 0)
    aux = AuxModel(theta0.dim) if rule.kind == ADAPTIVE_GUIDANCE else None
    sleep_s = injected_cost_ms / 1000.0
    states = [theta0]
    t0 = time.perf_counter()
    for tau in range(rule.total_steps):
        if sleep_s > 0.0:
            time.sleep(sleep_s)
        states.append(sequential_step(rule, states[-1], tau + seed_offset, aux))
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    losses = checked_losses(rule.problem, states, seed_offset)
    return Trajectory(states, losses), wall_ms


class StepComparison:
    """Bitwise comparison (values, moments, tags) with a ``reference``
    trajectory, plus the per-step max |delta| over values.  ``extend``
    compares states in step order from step 0, and keeps none of them."""

    def __init__(self, reference: Trajectory):
        self.reference = reference
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
            if tau > self.reference.total_steps or state.step != tau:
                raise ValueError(f"got step {state.step}, wanted {tau} of {self.reference.total_steps}")
            ref = self.reference.states[tau]
            delta = (float("inf") if ref.dim != state.dim
                     else float(np.max(np.abs(ref.values - state.values), initial=0.0)))
            self.per_step_max_delta.append(delta)
            if self.passed and not states_equal_bits(ref, state, include_moments=True):
                self.first_divergence = tau

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key)
                for key in ("passed", "first_divergence", "max_delta", "per_step_max_delta")}


def compare_trajectories(a: Trajectory, b: Trajectory) -> StepComparison:
    """``StepComparison`` of ``b``'s states, in order, with ``a``."""
    if a.total_steps != b.total_steps:
        raise ValueError(f"trajectory lengths differ: {a.total_steps} vs {b.total_steps}")
    comparison = StepComparison(a)
    comparison.extend(b.states)
    return comparison


@dataclass
class PrefixReport:
    passed: bool
    rounds_checked: int
    first_failure: tuple[int, int] | None  # (round, step)


def prefix_check(oracle_traj: Trajectory, snapshots: list[list[ParamState]]) -> PrefixReport:
    """Verify that after round k the recorded states for steps <= k match the
    sequential solution bitexactly (the inductive prefix property)."""
    first_failure = None
    for k, snap in enumerate(snapshots, start=1):
        horizon = min(k, oracle_traj.total_steps)
        for tau in range(horizon + 1):
            if tau >= len(snap) or not states_equal_bits(snap[tau], oracle_traj.states[tau]):
                first_failure = (k, tau)
                break
        if first_failure:
            break
    return PrefixReport(first_failure is None, len(snapshots), first_failure)
