import time

import numpy as np
import pytest
from conftest import DecayOde, Snapshots

import picardopt as po
from picardopt.engine import EngineSettings, run
from picardopt.oracle import (StepComparison, Trajectory, compare_trajectories,
                              prefix_check, solve_sequential)
from picardopt.rules import make_rule
from picardopt.state import MomentState, ParamState


def test_euler_hand_iterated_trajectory():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    traj, _ = solve_sequential(rule)
    got = [s.values[0] for s in traj.states]
    assert got == [1.0, 0.75, 0.5625, 0.421875, 0.31640625]


def test_minimal_horizon_yields_two_states():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=1)
    traj, _ = solve_sequential(rule)
    assert len(traj.states) == 2
    assert traj.total_steps == 1


def test_sgd_geometric_decay():
    prob = po.make_problem("quadratic", dim=1, data_seed=0)
    rule = make_rule("sgd", prob, 0.1, total_steps=6)
    theta0 = ParamState(0, np.array([1.0]), 1)
    traj, _ = solve_sequential(rule, theta0)
    for tau, s in enumerate(traj.states):
        assert s.values[0] == pytest.approx(0.9**tau)


def test_solve_sequential_reproducible():
    prob = po.make_problem("stochastic_lsq", dim=6, data_seed=5, noise=0.75)
    rule = make_rule("adam", prob, 0.05, total_steps=30)
    a, _ = solve_sequential(rule, seed_offset=3)
    b, _ = solve_sequential(rule, seed_offset=3)
    rep = compare_trajectories(a, b)
    assert rep.passed and rep.max_delta == 0.0


def test_compare_self_bitexact():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    traj, _ = solve_sequential(rule)
    rep = compare_trajectories(traj, traj)
    assert rep.passed and rep.first_divergence is None and rep.max_delta == 0.0


def test_compare_tiny_perturbation_modes():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    traj, _ = solve_sequential(rule)
    states = list(traj.states)
    v = states[2].values.copy()
    v[0] += 1e-15
    states[2] = ParamState(2, v, 1)
    other = Trajectory(states, list(traj.losses))
    bit = compare_trajectories(traj, other)
    assert not bit.passed and bit.first_divergence == 2


def test_compare_moments_only_in_bitexact():
    prob = po.make_problem("quadratic", dim=2, data_seed=0)
    rule = make_rule("adam", prob, 0.02, total_steps=3)
    traj, _ = solve_sequential(rule)
    states = list(traj.states)
    m = states[1].moments
    states[1] = ParamState(1, states[1].values, 2, MomentState(m.m1 + 1.0, m.m2, m.t))
    other = Trajectory(states, list(traj.losses))
    rep = compare_trajectories(traj, other)
    assert not rep.passed and rep.first_divergence == 1 and rep.max_delta == 0.0


def test_compare_length_mismatch_raises():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    traj, _ = solve_sequential(rule)
    short = Trajectory(traj.states[:-1], traj.losses[:-1])
    with pytest.raises(ValueError):
        compare_trajectories(traj, short)


def test_step_comparison_takes_states_in_step_order():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    traj, _ = solve_sequential(rule)
    comparison = StepComparison(traj)
    comparison.extend(traj.states[:2])
    comparison.extend(traj.states[2:])
    assert comparison.passed and comparison.per_step_max_delta == [0.0] * 5
    with pytest.raises(ValueError, match="wanted 5 of 4"):
        comparison.extend(traj.states[4:])
    with pytest.raises(ValueError, match="wanted 0 of 4"):
        StepComparison(traj).extend(traj.states[1:])


def test_prefix_check_full_horizon_zero_threshold():
    prob = po.make_problem("linear_ode", dim=4, data_seed=2)
    T = 64
    rule = make_rule("euler_ode", prob, 1.0, total_steps=T)
    traj, _ = solve_sequential(rule)
    seen = Snapshots()
    res = run(rule, EngineSettings(window=T, workers=4, threshold=0.0, gamma=1.0),
              observer=seen)
    rep = prefix_check(traj, seen.snapshots)
    assert rep.passed, rep.first_failure
    assert rep.rounds_checked == res.report.rounds


def test_prefix_check_flags_divergence():
    prob = po.make_problem("linear_ode", dim=2, data_seed=2)
    rule = make_rule("euler_ode", prob, 1.0, total_steps=4)
    traj, _ = solve_sequential(rule)
    bad = list(traj.states)
    v = bad[1].values.copy()
    v[0] += 1.0
    bad[1] = ParamState(1, v, 2)
    rep = prefix_check(traj, [bad])
    assert not rep.passed and rep.first_failure == (1, 1)


def test_losses_recorded_per_step():
    prob = po.make_problem("quadratic", dim=2, data_seed=0)
    rule = make_rule("sgd", prob, 0.1, total_steps=5)
    traj, _ = solve_sequential(rule)
    assert len(traj.losses) == 6
    assert traj.losses == sorted(traj.losses, reverse=True)


def test_wall_time_excludes_loss_evaluation():
    class SlowLoss(DecayOde):
        def loss(self, values, seed):
            time.sleep(0.02)
            return super().loss(values, seed)

    rule = make_rule("sgd", SlowLoss(), 0.1, total_steps=10)
    traj, wall_ms = solve_sequential(rule)
    assert len(traj.losses) == 11
    assert wall_ms < 20.0  # below the sleep of a single loss call
