"""Sequential update rules split into a parallelizable unit and its rollout.

Each rule factors one sequential step ``state -> next state`` into

* ``drift``: the expensive, parallelizable computation (ODE drift or a seeded
  loss gradient), a pure function of (state values, seed) except for the
  adaptive-guidance mode's worker-local predictor, and
* ``rollout_one``: the cheap sequential reconstruction of the successor state
  from a drift and the current state (Euler step, SGD step, bias-corrected
  Adam apply, or SGD followed by a scheduled split/prune).

``sequential_step`` composes the two; it is the ground truth the oracle
iterates and the identity the fixed-point engine converges to: rolling out the
drift computed *at* a state reproduces that state's direct sequential update
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError
from .problems import Problem
from .schedule import ScheduleAction, apply_action, reconcile_vector, validate_schedule
from .state import Drift, MomentState, ParamState, finite_checked

EULER_ODE = "euler_ode"
SGD = "sgd"
ADAM = "adam"
SPLIT_PRUNE_SGD = "split_prune_sgd"
ADAPTIVE_GUIDANCE = "adaptive_guidance"

RULE_KINDS = (EULER_ODE, SGD, ADAM, SPLIT_PRUNE_SGD, ADAPTIVE_GUIDANCE)


@dataclass(frozen=True)
class AdamParams:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("adam betas must lie in [0, 1)")
        if self.eps <= 0.0:
            raise ValueError("adam eps must be > 0")


@dataclass(frozen=True)
class UpdateRule:
    kind: str
    step_size: float
    problem: Problem
    total_steps: int
    adam: AdamParams | None = None
    schedule: tuple[ScheduleAction, ...] = ()

    @property
    def uses_moments(self) -> bool:
        return self.kind == ADAM

    def action_at(self, step: int) -> ScheduleAction | None:
        for a in self.schedule:
            if a.step == step:
                return a
        return None


def make_rule(kind: str, problem: Problem, step_size: float, total_steps: int,
              adam: AdamParams | None = None,
              schedule=()) -> UpdateRule:
    if kind not in RULE_KINDS:
        raise ValueError(f"unknown rule kind {kind!r}; have {RULE_KINDS}")
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    if kind == ADAM:
        adam = adam or AdamParams()
    elif adam is not None:
        raise ValueError(f"adam parameters (beta1, beta2, eps) are only valid for the adam rule, "
                         f"not {kind!r}")
    if kind == SPLIT_PRUNE_SGD:
        schedule = validate_schedule(schedule, total_steps, problem.initial_dim_tag())
    elif schedule:
        raise ValueError(f"dimension schedules are only valid for split_prune_sgd, not {kind!r}")
    else:
        schedule = ()
    if kind == EULER_ODE and not hasattr(problem, "ode_drift"):
        raise ValueError(f"problem {problem.kind!r} does not define an ODE drift")
    return UpdateRule(kind, float(step_size), problem, total_steps, adam, schedule)


def initial_state(rule: UpdateRule) -> ParamState:
    values = rule.problem.initial_values()
    moments = MomentState.zeros(len(values)) if rule.uses_moments else None
    return ParamState(0, values, rule.problem.initial_dim_tag(), moments)


@finite_checked
def drift(rule: UpdateRule, state: ParamState, seed: int, aux=None, worker_id: int = -1) -> Drift:
    """Evaluate the parallelizable unit at ``state`` under a per-step seed."""
    if state.step >= rule.total_steps:
        raise ValueError(f"state step {state.step} is at or past the horizon {rule.total_steps}")
    if rule.kind == EULER_ODE:
        payload = rule.problem.ode_drift(state.values, state.step / rule.total_steps)
        aux_version = 0
    elif rule.kind == ADAPTIVE_GUIDANCE:
        if aux is None:
            raise ValueError("adaptive_guidance drift needs an auxiliary predictor")
        g = rule.problem.grad(state.values, seed)
        payload = g - aux.predict()
        aux.update(g)
        aux_version = aux.updates_seen
    else:
        payload = rule.problem.grad(state.values, seed)
        aux_version = 0
    # Drift construction raises PoisonedDrift on non-finite payloads.
    return Drift(state.step, payload, seed, worker_id, aux_version)


@finite_checked
def rollout_one(rule: UpdateRule, d: Drift, state: ParamState) -> ParamState:
    """Reconstruct the successor state at step+1 from a drift and a state."""
    if d.step != state.step:
        raise ValueError(f"drift step {d.step} != state step {state.step}")
    if len(d.payload) != state.dim:
        raise DimensionError(
            f"drift payload length {len(d.payload)} does not match state dimension {state.dim}"
        )
    eta = rule.step_size
    moments = state.moments
    dim_tag = state.dim_tag

    if rule.kind == EULER_ODE:
        vn = state.values + (1.0 / rule.total_steps) * d.payload
    elif rule.kind in (SGD, ADAPTIVE_GUIDANCE):
        vn = state.values - eta * d.payload
    elif rule.kind == ADAM:
        if moments is None:
            raise ValueError("adam rollout requires moment state")
        p = rule.adam
        t_next = moments.t + 1
        vn, m1, m2 = kernels.adam_apply(
            state.values, moments.m1, moments.m2, d.payload, t_next, p.beta1, p.beta2, p.eps, eta
        )
        moments = MomentState(m1, m2, t_next)
    elif rule.kind == SPLIT_PRUNE_SGD:
        vn = state.values - eta * d.payload
        action = rule.action_at(state.step)
        if action is not None:
            vn = apply_action(vn, action, rule.problem.point_width, with_offset=True)
            dim_tag = dim_tag + action.delta
    else:  # pragma: no cover - guarded by make_rule
        raise ValueError(f"unknown rule kind {rule.kind!r}")

    # ParamState construction raises PoisonedDrift on non-finite values.
    return ParamState(state.step + 1, vn, dim_tag, moments, d.aux_version)


def sequential_step(rule: UpdateRule, state: ParamState, seed: int, aux=None) -> ParamState:
    """One direct sequential update: rollout_one(rule, drift(...), state)."""
    return rollout_one(rule, drift(rule, state, seed, aux), state)


def reconcile_payload(rule: UpdateRule, payload: np.ndarray, have_points: int,
                      want_points: int, step: int) -> np.ndarray:
    """Map a stale drift payload onto the correct dimension at ``step``.

    Missed splits duplicate the parent rows (no positional offset: the payload
    is a tangent vector); missed prunes drop the deleted rows.
    """
    return reconcile_vector(
        payload, rule.schedule, step, have_points, want_points,
        rule.problem.point_width, with_offset=False,
    )
