import time
import tracemalloc

import numpy as np
import pytest
from conftest import DecayOde, Snapshots, prefix_check, sequential_trajectory

import picardopt as po
from picardopt.engine import EngineSettings, run
from picardopt.errors import ArgumentError
from picardopt.oracle import StepComparison, solve_sequential
from picardopt.rules import make_rule
from picardopt.state import MomentState, ParamState


def test_euler_hand_iterated_trajectory():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    traj = sequential_trajectory(rule)
    got = [s.values[0] for s in traj.states]
    assert got == [1.0, 0.75, 0.5625, 0.421875, 0.31640625]


def test_minimal_horizon_yields_two_states():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=1)
    states = []
    result, _ = solve_sequential(rule, observer=states.append)
    assert [s.step for s in states] == [0, 1]
    assert len(result.losses) == 2 and result.terminal is states[-1]


@pytest.mark.parametrize("setting,value", [
    ("seed_offset", -1), ("seed_offset", 1.5),
    ("injected_cost_ms", -5.0), ("injected_cost_ms", float("nan")), ("injected_cost_ms", 1e13),
])
def test_solve_sequential_checks_its_settings_as_a_pool_does(setting, value):
    # Each would otherwise fail inside numpy's seeding (-1, 1.5), sleep
    # a negative or NaN cost away, or overflow time.sleep (1e13).
    rule = make_rule("sgd", po.make_problem("quadratic", dim=4, noise=0.1), 0.1, total_steps=3)
    with pytest.raises(ArgumentError) as info:
        solve_sequential(rule, **{setting: value})
    assert info.value.argument == setting


def test_sgd_geometric_decay():
    prob = po.make_problem("quadratic", dim=1, data_seed=0)
    rule = make_rule("sgd", prob, 0.1, total_steps=6)
    x0 = prob.initial_values()[0]
    traj = sequential_trajectory(rule)
    for tau, s in enumerate(traj.states):
        assert s.values[0] == pytest.approx(0.9**tau * x0)


def test_solve_sequential_reproducible():
    prob = po.make_problem("stochastic_lsq", dim=6, data_seed=5, noise=0.75)
    rule = make_rule("adam", prob, 0.05, total_steps=30)
    a = sequential_trajectory(rule, seed_offset=3)
    rep = StepComparison(a.states)
    solve_sequential(rule, seed_offset=3, observer=lambda state: rep.extend([state]))
    assert rep.passed and rep.max_delta == 0.0
    assert len(rep.per_step_max_delta) == 31


def test_compare_self_bitexact():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    traj = sequential_trajectory(rule)
    rep = StepComparison(traj.states)
    rep.extend(traj.states)
    assert rep.passed and rep.first_divergence is None and rep.max_delta == 0.0


def test_compare_tiny_perturbation_modes():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    traj = sequential_trajectory(rule)
    states = list(traj.states)
    v = states[2].values.copy()
    v[0] += 1e-15
    states[2] = ParamState(2, v, 1)
    bit = StepComparison(traj.states)
    bit.extend(states)
    assert not bit.passed and bit.first_divergence == 2


def test_compare_moments_only_in_bitexact():
    prob = po.make_problem("quadratic", dim=2, data_seed=0)
    rule = make_rule("adam", prob, 0.02, total_steps=3)
    traj = sequential_trajectory(rule)
    states = list(traj.states)
    m = states[1].moments
    states[1] = ParamState(1, states[1].values, 2, MomentState(m.m1 + 1.0, m.m2))
    rep = StepComparison(traj.states)
    rep.extend(states)
    assert not rep.passed and rep.first_divergence == 1 and rep.max_delta == 0.0


def test_compare_length_mismatch_raises():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    traj = sequential_trajectory(rule)
    with pytest.raises(ValueError, match="no state at step 4"):
        StepComparison(traj.states[:-1]).extend(traj.states)


def test_step_comparison_takes_states_in_step_order():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    traj = sequential_trajectory(rule)
    comparison = StepComparison(traj.states)
    comparison.extend(traj.states[:2])
    comparison.extend(traj.states[2:])
    assert comparison.passed and comparison.per_step_max_delta == [0.0] * 5
    with pytest.raises(ValueError, match="wanted 5"):
        comparison.extend(traj.states[4:])
    with pytest.raises(ValueError, match="wanted 0"):
        StepComparison(traj.states).extend(traj.states[1:])


def test_prefix_check_full_horizon_zero_threshold():
    prob = po.make_problem("linear_ode", dim=4, data_seed=2)
    T = 64
    rule = make_rule("euler_ode", prob, 1.0, total_steps=T)
    traj = sequential_trajectory(rule)
    seen = Snapshots()
    res = run(rule, EngineSettings(window=T, workers=4, threshold=0.0, gamma=1.0),
              observer=seen)
    rep = prefix_check(traj, seen.snapshots)
    assert rep.passed, rep.first_failure
    assert rep.rounds_checked == res.report.rounds


def test_prefix_check_flags_divergence():
    prob = po.make_problem("linear_ode", dim=2, data_seed=2)
    rule = make_rule("euler_ode", prob, 1.0, total_steps=4)
    traj = sequential_trajectory(rule)
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


def test_observer_sees_each_state_outside_the_clock():
    rule = make_rule("sgd", DecayOde(dim=3), 0.1, total_steps=10)
    seen = []

    def slow_observer(state):
        time.sleep(0.02)
        seen.append(state)

    result, wall_ms = solve_sequential(rule, observer=slow_observer)
    assert [s.step for s in seen] == list(range(11))
    assert result.terminal is seen[-1] and result.states == (seen[-1],)
    assert wall_ms < 20.0  # below the sleep of a single observer call


class Fails(DecayOde):
    """Loss inf once values[0] < ``loss_below``; gradient NaN once it is
    below ``grad_below``."""

    def __init__(self, loss_below, grad_below):
        super().__init__()
        self.loss_below, self.grad_below = loss_below, grad_below

    def loss(self, values, seed):
        return float("inf") if values[0] < self.loss_below else super().loss(values, seed)

    def grad(self, values, seed):
        return values * (np.nan if values[0] < self.grad_below else 1.0)


@pytest.mark.parametrize("grad_below,step", [(0.7, 4), (0.0, 2)])
def test_a_step_error_wins_over_an_earlier_loss_error(grad_below, step):
    # SGD at 0.1 from 1: 1, 0.9, 0.81, 0.729, 0.6561, ...  The loss fails from
    # step 2 on; with grad_below 0.7 the drift at step 4 fails too, and wins.
    rule = make_rule("sgd", Fails(loss_below=0.85, grad_below=grad_below), 0.1, total_steps=6)
    with pytest.raises(po.PoisonedDrift) as caught:
        solve_sequential(rule)
    assert caught.value.step == step
    assert ("loss" in str(caught.value)) == (step == 2)


def test_streaming_solve_keeps_one_state():
    # 100000 values with Adam moments are 2.4 MB a state: the T + 1 = 51
    # states of this solve would take about 120 MB if they were kept.
    rule = make_rule("adam", po.make_problem("quadratic", dim=100_000), 0.05, total_steps=50)
    tracemalloc.start()
    try:
        result, _ = solve_sequential(rule, observer=lambda state: None)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert len(result.losses) == 51
    assert peak_mb < 16.0, f"tracemalloc peak {peak_mb:.1f} MB"


def test_solve_sequential_alone_tunes_the_allocator(mallopt_calls):
    # The sequential baseline is timed on the heap the engine's rounds get:
    # the allocator is tuned before the first step, with no engine run.
    tuned_at_step_0 = []
    rule = make_rule("adam", po.make_problem("quadratic"), 0.05, total_steps=3)
    solve_sequential(rule, observer=lambda state: tuned_at_step_0.append(list(mallopt_calls)))
    assert mallopt_calls == tuned_at_step_0[0] == [(-3, 32 << 20), (-1, 64 << 20)]
