"""Sequential update rules split into a parallelizable unit and its rollout.

Each rule factors one sequential step ``state -> next state`` into

* ``drift``: the expensive, parallelizable computation (ODE drift or a seeded
  loss gradient), a pure function of (state values, seed) except for the
  adaptive-guidance mode's worker-local predictor, and
* ``rollout_one``: the cheap sequential reconstruction of the successor state
  from a drift's payload and the current state (Euler step, SGD step or
  bias-corrected Adam apply), carried through the rule's split/prune
  schedule, if it has one, at that step, as ``carried`` carries each guess.

``sequential_step`` composes the two; it is the ground truth the oracle
iterates and the identity the fixed-point engine converges to: rolling out the
drift computed *at* a state reproduces that state's direct sequential update
exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ArgumentError, DimensionError, PoisonedDrift
from .problems import Problem
from .schedule import ScheduleAction, reconcile_moments, reconcile_vector, validate_schedule
from .state import (Drift, MomentState, ParamState, all_finite, finite_checked, with_step,
                    without_moments)

EULER_ODE = "euler_ode"
SGD = "sgd"
ADAM = "adam"
ADAPTIVE_GUIDANCE = "adaptive_guidance"

RULE_KINDS = (EULER_ODE, SGD, ADAM, ADAPTIVE_GUIDANCE)


@dataclass(frozen=True)
class AdamParams:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ArgumentError(name, f"adam betas must lie in [0, 1), not {name} "
                                          f"{getattr(self, name)!r}")
        if not 0.0 < self.eps < math.inf:
            raise ArgumentError("eps", "adam eps must be finite and > 0")


@dataclass(frozen=True)
class UpdateRule:
    kind: str
    step_size: float
    problem: Problem
    total_steps: int
    adam: AdamParams | None = None
    schedule: tuple[ScheduleAction, ...] = ()

    @property
    def step_invariant(self) -> bool:
        """The drift depends on the state's values alone, not on its step or
        seed, so states that share a values array share their drift:
        ``euler_ode`` (``ode_drift`` reads no seed) on any problem, and every
        other rule but ``adaptive_guidance`` (its drift updates one lane's
        predictor) on a seed-free problem."""
        return self.kind == EULER_ODE or self.kind != ADAPTIVE_GUIDANCE and self.problem.seed_free


def make_rule(kind: str, problem: Problem, step_size: float, total_steps: int,
              adam: AdamParams | None = None,
              schedule=()) -> UpdateRule:
    """The rule, checked.  ``split_prune_sgd`` is a spelling of ``sgd``; a
    split/prune ``schedule`` is taken by ``sgd`` and ``adam`` on a problem of
    points (``point_width > 1``), the one kind whose size may change."""
    kind = SGD if kind == "split_prune_sgd" else kind
    if kind not in RULE_KINDS:
        raise ArgumentError("kind", f"unknown rule kind {kind!r}; have {RULE_KINDS}")
    if not isinstance(total_steps, numbers.Integral) or total_steps < 1:
        raise ArgumentError("total_steps", "total_steps must be an integer >= 1")
    if not 0.0 < step_size < math.inf:
        raise ArgumentError("step_size", "step_size must be finite and > 0")
    if kind == ADAM:
        adam = adam or AdamParams()
    elif adam is not None:
        raise ArgumentError("adam", f"adam parameters (beta1, beta2, eps) are only valid for "
                                    f"the adam rule, not {kind!r}")
    schedule = tuple(schedule)
    if schedule:
        if kind not in (SGD, ADAM):
            raise ArgumentError("schedule", f"dimension schedules are only valid for sgd and "
                                            f"adam, not {kind!r}")
        if problem.point_width == 1:
            raise ArgumentError("schedule", f"problem {problem.kind!r} has a fixed size; "
                                            f"dimension schedules need a problem of points")
        schedule = validate_schedule(schedule, total_steps, problem.initial_dim_tag())
    if kind == EULER_ODE and not hasattr(problem, "ode_drift"):
        raise ArgumentError("kind", f"problem {problem.kind!r} does not define an ODE drift")
    return UpdateRule(kind, float(step_size), problem, total_steps, adam, schedule)


def initial_state(rule: UpdateRule) -> ParamState:
    values = rule.problem.initial_values()
    moments = MomentState.zeros(len(values)) if rule.kind == ADAM else None
    return ParamState(0, values, rule.problem.initial_dim_tag(), moments)


class AuxModel:
    """Worker-local EMA gradient predictor (control variate), decay 0.95; it
    starts at 0.0, with a zero array's bits, and is sized by its first update."""

    DECAY = 0.95

    def __init__(self):
        self.ema_grad = 0.0

    def update(self, g: np.ndarray) -> None:
        self.ema_grad = self.DECAY * self.ema_grad + (1.0 - self.DECAY) * g


@finite_checked
def drift(rule: UpdateRule, state: ParamState, seed: int, aux=None) -> Drift:
    """Evaluate the parallelizable unit at ``state`` under a per-step seed;
    a non-finite payload raises PoisonedDrift naming that step and seed."""
    if state.step >= rule.total_steps:
        raise ValueError(f"state step {state.step} is at or past the horizon {rule.total_steps}")
    if rule.kind == EULER_ODE:
        payload = rule.problem.ode_drift(state.values)
    elif rule.kind == ADAPTIVE_GUIDANCE:
        if aux is None:
            raise ValueError("adaptive_guidance drift needs an auxiliary predictor")
        g = rule.problem.grad(state.values, seed)
        payload = g - aux.ema_grad
        aux.update(g)
    else:
        payload = rule.problem.grad(state.values, seed)
    if not all_finite(payload):
        raise PoisonedDrift(state.step, seed, "drift payload contains NaN/Inf")
    return Drift(payload)


@finite_checked
def rollout_one(rule: UpdateRule, payload: np.ndarray, state: ParamState) -> ParamState:
    """Reconstruct the successor state at step+1 from a drift's payload and a
    state.  The payload may have been computed at another state with the
    same values (a shared drift)."""
    if len(payload) != state.dim:
        raise DimensionError(
            f"drift payload length {len(payload)} does not match state dimension {state.dim}"
        )
    eta = rule.step_size
    moments = state.moments

    if rule.kind == EULER_ODE:
        vn = state.values + (eta / rule.total_steps) * payload
    elif rule.kind in (SGD, ADAPTIVE_GUIDANCE):
        vn = state.values - eta * payload
    elif rule.kind == ADAM:
        if moments is None:
            raise ValueError("adam rollout requires moment state")
        p = rule.adam
        vn, m1, m2 = kernels.adam_apply(state.values, moments.m1, moments.m2, payload,
                                        state.step + 1, p.beta1, p.beta2, p.eps, eta)
        moments = MomentState._from_adam(m1, m2)
    else:  # pragma: no cover - guarded by make_rule
        raise ValueError(f"unknown rule kind {rule.kind!r}")
    vn, moments, dim_tag = _crossed(rule, state.step, vn, moments, state.dim_tag)
    # ParamState construction raises PoisonedDrift on non-finite values.
    return ParamState(state.step + 1, vn, dim_tag, moments)


def carried(rule: UpdateRule, state: ParamState) -> ParamState:
    """The engine's guess for the step after ``state``'s: its values, without
    moments, carried on as ``rollout_one`` carries a successor; between
    actions, ``state`` relabelled, sharing its values array and so its drift."""
    values, _, dim_tag = _crossed(rule, state.step, state.values, None, state.dim_tag)
    if values is state.values:
        return with_step(without_moments(state), state.step + 1)
    return ParamState(state.step + 1, values, dim_tag)


def _crossed(rule: UpdateRule, step: int, values: np.ndarray, moments: MomentState | None,
             dim_tag: int) -> tuple[np.ndarray, MomentState | None, int]:
    """The one crossing of a split or prune: ``values``, ``moments`` (if any)
    and their point count ``dim_tag``, carried through the schedule's action
    at ``step``; the same objects when no action fires there."""
    if any(action.step == step for action in rule.schedule):
        width = rule.problem.point_width
        values = reconcile_vector(values, rule.schedule, step, step + 1, width)
        if moments is not None:
            moments = reconcile_moments(moments, rule.schedule, step, step + 1, width)
        dim_tag = len(values) // width
    return values, moments, dim_tag


def sequential_step(rule: UpdateRule, state: ParamState, seed: int, aux=None) -> ParamState:
    """One direct sequential update: rollout_one(rule, drift(...).payload, state)."""
    return rollout_one(rule, drift(rule, state, seed, aux).payload, state)

