"""Pre-declared dimension-change schedules: split-and-clone / prune of points.

A schedule is a sorted tuple of actions, each firing during the transition
from its ``step`` to ``step + 1``.  ``split`` appends one child per listed
parent index at the end of the point list; ``prune`` deletes the listed
indices.  Split children of *parameter* vectors are offset from the parent by
a fixed deterministic perturbation (magnitude SPLIT_OFFSET, direction hashed
from the parent index); lifted *drift* payloads duplicate the parent rows
without the positional offset, since they are tangent vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ScheduleError

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
        if any(i < 0 for i in self.indices):
            raise ScheduleError("schedule action indices must be >= 0")

    def __str__(self) -> str:
        """The config-file form ``step:action:i[,j...]``."""
        return f"{self.step}:{self.kind}:{','.join(map(str, self.indices))}"

    @property
    def delta(self) -> int:
        """Signed change in point count when the action fires."""
        return len(self.indices) if self.kind == SPLIT else -len(self.indices)


def validate_schedule(actions, total_steps: int,
                      points: int | None = None) -> tuple[ScheduleAction, ...]:
    """Check step order and range; given the point count at step 0, also walk
    the schedule and check every index names an existing point and no prune
    leaves none."""
    acts = tuple(actions)
    steps = [a.step for a in acts]
    if any(s2 <= s1 for s1, s2 in zip(steps, steps[1:])):
        raise ScheduleError("schedule steps must be strictly increasing")
    if acts and (steps[0] < 0 or steps[-1] >= total_steps):
        raise ScheduleError(f"schedule steps must lie in [0, {total_steps})")
    if points is None:
        return acts
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


def apply_action(vec: np.ndarray, action: ScheduleAction, width: int, with_offset: bool) -> np.ndarray:
    """Apply one action to a flat point vector; returns a new flat vector."""
    if len(vec) % width:
        raise DimensionError(f"vector length {len(vec)} not a multiple of width {width}")
    pts = vec.reshape(-1, width)
    n = pts.shape[0]
    if any(i >= n for i in action.indices):
        raise ScheduleError(f"action at step {action.step} references point beyond {n - 1}")
    if action.kind == SPLIT:
        children = pts[list(action.indices)].copy()
        if with_offset:
            for row, parent in enumerate(action.indices):
                children[row] += split_offset(parent, width)
        return np.concatenate([pts, children]).reshape(-1)
    return np.delete(pts, list(action.indices), axis=0).reshape(-1)


def missed_actions(schedule, step: int, have_points: int, want_points: int):
    """Actions a stale state at ``step`` skipped, reconstructed by walking the
    schedule backwards from the correct count until it matches the stale one.

    Returns the missed actions in firing order; raises DimensionError when no
    suffix of the schedule explains the gap.
    """
    prior = [a for a in schedule if a.step < step]
    c = want_points
    missed = []
    for a in reversed(prior):
        if c == have_points:
            break
        c -= a.delta
        missed.append(a)
    if c != have_points:
        raise DimensionError(
            f"irreconcilable dimensions at step {step}: have {have_points} points, "
            f"want {want_points}, schedule cannot explain the gap"
        )
    return list(reversed(missed))


def reconcile_vector(vec: np.ndarray, schedule, step: int, have_points: int,
                     want_points: int, width: int, with_offset: bool) -> np.ndarray:
    """Lift/project a stale flat vector to the correct dimension at ``step``."""
    if have_points == want_points:
        return vec
    out = vec
    for a in missed_actions(schedule, step, have_points, want_points):
        out = apply_action(out, a, width, with_offset)
    return out
