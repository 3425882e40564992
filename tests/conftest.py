import ctypes
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from picardopt.oracle import keep_freed_heap, solve_sequential
from picardopt.problems import Problem
from picardopt.state import ParamState, states_equal_bits
from picardopt.telemetry import strip_wall_fields

# pyproject's ``pythonpath`` puts src/ on this process's path; Python
# subprocesses started by tests import the package from the same checkout.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# Independently coded naive update formulas: the second route for the
# update-rule unit tests.  These must never call picardopt.kernels.


def naive_sgd(values, grad, eta):
    return values - eta * grad


def naive_euler(values, drift, total_steps):
    return values + drift / total_steps


def naive_adam(values, m1, m2, grad, t_prev, beta1, beta2, eps, eta):
    t = t_prev + 1
    m1n = beta1 * m1 + (1 - beta1) * grad
    m2n = beta2 * m2 + (1 - beta2) * grad * grad
    m1h = m1n / (1 - beta1**t)
    m2h = m2n / (1 - beta2**t)
    return values - eta * m1h / (np.sqrt(m2h) + eps), m1n, m2n, t


def naive_carry_moment(moment, action, width):
    """One Adam moment buffer carried through a split or prune, point by
    point: a split's new points start at zero, a pruned point's rows go."""
    points = [moment[i:i + width] for i in range(0, len(moment), width)]
    if action.kind == "split":
        points += [np.zeros(width) for _ in action.indices]
    else:
        points = [p for i, p in enumerate(points) if i not in action.indices]
    return np.concatenate(points)


class DecayOde(Problem):
    """f(x) = -x with theta0 = 1...: the hand-checkable Picard testbed."""

    kind = "decay_ode"

    def __init__(self, dim=1, data_seed=0, noise=0.0):
        super().__init__(dim, data_seed, noise)

    def ode_drift(self, values):
        return -self._check(values)

    def _base_loss(self, v):
        return 0.5 * float(np.dot(v, v))

    def _base_grad(self, v):
        return v.copy()

    def initial_values(self):
        return np.ones(self.dim)


class Snapshots:
    """An ``engine.run`` observer that keeps the trajectory so far and, after
    each round, the snapshot ``trajectory + window[1:]``."""

    def __init__(self):
        self.trajectory = []
        self.snapshots = []

    def __call__(self, accepted, window):
        self.trajectory.extend(accepted)
        self.snapshots.append(self.trajectory + window[1:])


@dataclass
class Trajectory:
    """The sequential trajectory, every state kept, for tests that index it."""

    states: list[ParamState]
    losses: list[float]

    @property
    def total_steps(self) -> int:
        return len(self.states) - 1


def sequential_trajectory(rule, **kwargs) -> Trajectory:
    """``solve_sequential(rule, **kwargs)`` with every state it sees kept."""
    states = []
    run, _ = solve_sequential(rule, observer=states.append, **kwargs)
    return Trajectory(states, run.losses)


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


def reports_equal_excluding_wall(json_a: str, json_b: str) -> bool:
    a = strip_wall_fields(json.loads(json_a))
    b = strip_wall_fields(json.loads(json_b))
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.fixture
def decay_ode():
    return DecayOde()


class FakeLibc:
    """Stands in for ``ctypes.CDLL(None)``; records each ``mallopt`` call."""

    def __init__(self, calls):
        self.calls = calls

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


@pytest.fixture
def mallopt_calls(monkeypatch):
    """The ``mallopt`` calls ``keep_freed_heap`` makes, into a fake libc, with
    no malloc tunables set; the helper's once-per-process cache is cleared
    before and after, so no other test sees the fake's result."""
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc(calls))
    for name in [n for n in os.environ if n.startswith("MALLOC_") or n == "GLIBC_TUNABLES"]:
        monkeypatch.delenv(name)
    keep_freed_heap.cache_clear()
    yield calls
    keep_freed_heap.cache_clear()
