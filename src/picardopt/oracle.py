"""Ground-truth sequential execution and equivalence checking.

The oracle iterates the same ``sequential_step`` the engine rolls out, so
equivalence tests isolate the window/skip scheduling rather than duplicated
arithmetic; independently coded update formulas live in the unit tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .pool import AuxModel
from .rules import ADAPTIVE_GUIDANCE, UpdateRule, initial_state, sequential_step
from .state import ParamState, states_equal_bits, with_step


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
    losses = [rule.problem.loss(s.values, s.step + seed_offset) for s in states]
    return Trajectory(states, losses), wall_ms


@dataclass
class ComparisonReport:
    mode: str
    tol: float
    passed: bool
    first_divergence: int | None
    max_delta: float
    per_step_max_delta: list[float]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "tol": self.tol,
            "passed": self.passed,
            "first_divergence": self.first_divergence,
            "max_delta": self.max_delta,
            "per_step_max_delta": self.per_step_max_delta,
        }


def compare_trajectories(a: Trajectory, b: Trajectory, mode: str = "bitexact",
                         tol: float = 0.0) -> ComparisonReport:
    """Per-step max |delta| over values; moments compared only in bitexact mode."""
    if mode not in ("bitexact", "tolerance"):
        raise ValueError(f"unknown comparison mode {mode!r}")
    if a.total_steps != b.total_steps:
        raise ValueError(f"trajectory lengths differ: {a.total_steps} vs {b.total_steps}")
    deltas: list[float] = []
    first_div: int | None = None
    for tau, (sa, sb) in enumerate(zip(a.states, b.states)):
        if sa.dim != sb.dim:
            delta = float("inf")
            step_ok = False
        else:
            delta = float(np.max(np.abs(sa.values - sb.values))) if sa.dim else 0.0
            if mode == "bitexact":
                step_ok = states_equal_bits(sa, sb, include_moments=True)
            else:
                step_ok = delta <= tol
        deltas.append(delta)
        if not step_ok and first_div is None:
            first_div = tau
    return ComparisonReport(
        mode=mode,
        tol=tol,
        passed=first_div is None,
        first_divergence=first_div,
        max_delta=max(deltas) if deltas else 0.0,
        per_step_max_delta=deltas,
    )


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
