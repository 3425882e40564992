"""Pre-declared dimension-change schedules: split-and-clone / prune of points.

A schedule is a sorted tuple of actions, each firing during the transition
from its ``step`` to ``step + 1``.  ``split`` appends one child per listed
parent index at the end of the point list; ``prune`` deletes the listed
indices.  Split children are offset from the parent by a fixed deterministic
perturbation (magnitude SPLIT_OFFSET, direction hashed from the parent index).

``reconcile_vector`` carries a vector from one step to a later one through
the actions that fire between them, and ``reconcile_moments`` Adam's moments.
``rules`` carries each rollout's successor and each engine guess (``carried``)
through the action at its step with them, so every state, and every drift
taken at one, has its step's dimension: no drift payload is lifted.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ScheduleError
from .state import MomentState

SPLIT_OFFSET = 1e-2

SPLIT = "split"
PRUNE = "prune"


@dataclass(frozen=True)
class ScheduleAction:
    step: int
    kind: str  # "split" | "prune"
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (SPLIT, PRUNE):
            raise ScheduleError(f"unknown schedule action {self.kind!r}")
        if len(self.indices) == 0:
            raise ScheduleError("schedule action needs at least one point index")
        if len(set(self.indices)) != len(self.indices):
            raise ScheduleError("schedule action indices must be distinct")
        if not isinstance(self.step, numbers.Integral):
            raise ScheduleError(f"schedule action step must be an integer, not {self.step!r}")
        if not all(isinstance(i, numbers.Integral) and i >= 0 for i in self.indices):
            raise ScheduleError("schedule action indices must be integers >= 0")

    def __str__(self) -> str:
        """The config-file form ``step:action:i[,j...]``."""
        return f"{self.step}:{self.kind}:{','.join(map(str, self.indices))}"

    @property
    def delta(self) -> int:
        """Signed change in point count when the action fires."""
        return len(self.indices) if self.kind == SPLIT else -len(self.indices)


def validate_schedule(actions, total_steps: int, points: int) -> tuple[ScheduleAction, ...]:
    """Check step order and range, then walk the schedule from ``points``
    points at step 0 and check every index names an existing point and no
    prune leaves none."""
    acts = tuple(actions)
    steps = [a.step for a in acts]
    if any(s2 <= s1 for s1, s2 in zip(steps, steps[1:])):
        raise ScheduleError("schedule steps must be strictly increasing")
    if acts and (steps[0] < 0 or steps[-1] >= total_steps):
        raise ScheduleError(f"schedule steps must lie in [0, {total_steps})")
    n = points
    for a in acts:
        if max(a.indices) >= n:
            raise ScheduleError(f"{a.kind} at step {a.step} references point "
                                f"{max(a.indices)}, but only {n} exist")
        n += a.delta
        if n < 1:
            raise ScheduleError(f"prune at step {a.step} leaves no points")
    return acts


def split_offset(parent_index: int, width: int) -> np.ndarray:
    """Deterministic per-parent offset: SPLIT_OFFSET * unit direction."""
    rng = np.random.default_rng(((parent_index + 1) * 2654435761) % 2**32)
    d = rng.standard_normal(width)
    return SPLIT_OFFSET * d / np.linalg.norm(d)


def apply_action(vec: np.ndarray, action: ScheduleAction, width: int) -> np.ndarray:
    """Apply one action to a flat point vector; returns a new flat vector."""
    if len(vec) % width:
        raise DimensionError(f"vector length {len(vec)} not a multiple of width {width}")
    pts = vec.reshape(-1, width)
    n = pts.shape[0]
    if any(i >= n for i in action.indices):
        raise ScheduleError(f"action at step {action.step} references point beyond {n - 1}")
    if action.kind == SPLIT:
        children = pts[list(action.indices)].copy()
        for row, parent in enumerate(action.indices):
            children[row] += split_offset(parent, width)
        return np.concatenate([pts, children]).reshape(-1)
    return np.delete(pts, list(action.indices), axis=0).reshape(-1)


def reconcile_vector(vec: np.ndarray, schedule, from_step: int, to_step: int,
                     width: int) -> np.ndarray:
    """Carry a flat point vector at ``from_step`` to ``to_step`` through the
    actions that fire between them, in order; ``vec`` itself when none does."""
    out = vec
    for a in schedule:
        if from_step <= a.step < to_step:
            out = apply_action(out, a, width)
    return out


def reconcile_moments(moments: MomentState, schedule, from_step: int, to_step: int,
                      width: int) -> MomentState:
    """Carry Adam's moments as ``reconcile_vector`` carries the values, the
    way the 3D Gaussian Splatting reference code's densification treats its
    optimiser state: a split appends zero rows for its new points, a prune
    deletes the pruned points' rows, and the update count (the step) is
    unchanged.  ``moments`` itself when no action fires."""
    m1, m2 = moments.m1, moments.m2
    for a in schedule:
        if from_step <= a.step < to_step:
            if a.kind == SPLIT:
                zeros = np.zeros(len(a.indices) * width)
                m1, m2 = np.concatenate([m1, zeros]), np.concatenate([m2, zeros])
            else:
                m1, m2 = apply_action(m1, a, width), apply_action(m2, a, width)
    return moments if m1 is moments.m1 else MomentState(m1, m2)
