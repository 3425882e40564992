import threading

import numpy as np
import pytest
from conftest import DecayOde
from hypothesis import given
from hypothesis import strategies as st

import picardopt as po
from picardopt.engine import (EngineSettings, RoundErrors, ThresholdState,
                              Window, advance_window, compute_skip,
                              fixed_point_distance, picard_round, run,
                              update_threshold)
from picardopt.errors import DimensionError
from picardopt.pool import WorkerPool
from picardopt.rules import initial_state, make_rule, sequential_step
from picardopt.schedule import ScheduleAction, apply_action
from picardopt.state import ParamState, states_equal_bits, with_step


def quad_rule(dim=4, T=50, kind="sgd", eta=0.1, noise=0.0, seed=0):
    prob = po.make_problem("quadratic", dim=dim, data_seed=seed, noise=noise)
    return make_rule(kind, prob, eta, total_steps=T)


# --- compute_skip -------------------------------------------------------------


def test_skip_first_exceedance():
    errors = RoundErrors((1e-9, 1e-9, 2e-3, 1e-9))
    assert compute_skip(errors, 1e-6) == 3


def test_skip_all_below_threshold():
    assert compute_skip(RoundErrors((1e-9, 1e-9)), 1e-6) == 2


def test_skip_forced_minimum_progress():
    assert compute_skip(RoundErrors((5e-6,)), 1e-6) == 1


@given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=12),
       st.floats(min_value=0, max_value=1e3))
def test_skip_always_in_range_and_first(errors, threshold):
    skip = compute_skip(RoundErrors(tuple(errors)), threshold)
    assert 1 <= skip <= len(errors)
    assert all(e <= threshold for e in errors[: skip - 1])
    if skip < len(errors) or (errors and errors[skip - 1] > threshold):
        assert errors[skip - 1] > threshold or skip == len(errors)


# --- update_threshold ----------------------------------------------------------


def test_threshold_ema_formula():
    ts = ThresholdState(1e-4, 0.9, "median")
    out = update_threshold(ts, RoundErrors((2e-4, 2e-4, 2e-4)))
    assert out.e == pytest.approx(1.1e-4)


def test_threshold_gamma_one_frozen():
    ts = ThresholdState(5e-5, 1.0, "mean")
    assert update_threshold(ts, RoundErrors((9.0, 9.0))).e == 5e-5


def test_threshold_gamma_zero_full_adaptation():
    ts = ThresholdState(5e-5, 0.0, "mean")
    assert update_threshold(ts, RoundErrors((2.0, 4.0))).e == 3.0


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=10),
       st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=8))
def test_threshold_stays_nonnegative(gamma, e0, errors):
    ts = ThresholdState(e0, gamma, "median")
    assert update_threshold(ts, RoundErrors(tuple(errors))).e >= 0.0


def test_threshold_validation():
    with pytest.raises(ValueError):
        ThresholdState(-1.0, 0.9, "median")
    with pytest.raises(ValueError):
        ThresholdState(0.0, 1.5, "median")
    with pytest.raises(ValueError):
        ThresholdState(0.0, 0.9, "mode")


# --- fixed_point_distance -------------------------------------------------------


def test_distance_identical_states():
    rule = quad_rule()
    s = ParamState(3, np.ones(4), 4)
    assert fixed_point_distance(s, s, rule) == 0.0


def test_distance_direct_formula():
    rule = quad_rule()
    a = ParamState(0, np.array([0.1, 0.0, 0.0, 0.0]), 4)
    b = ParamState(0, np.zeros(4), 4)
    assert fixed_point_distance(a, b, rule) == pytest.approx(0.0025)


def test_distance_excludes_moments():
    rule = quad_rule(kind="adam", eta=0.02)
    v = np.ones(4)
    a = ParamState(0, v, 4, po.MomentState(np.ones(4), np.ones(4), 5))
    b = ParamState(0, v, 4, po.MomentState.zeros(4))
    assert fixed_point_distance(a, b, rule) == 0.0


def test_distance_lifts_old_through_split():
    prob = po.make_problem("splat2d", data_seed=4, points=2)
    sched = (ScheduleAction(4, "split", (0,)),)
    rule = make_rule("split_prune_sgd", prob, 3e-4, total_steps=20, schedule=sched)
    old_v = prob.initial_values()
    old = ParamState(7, old_v, 2)  # stale clone that missed the split
    new_v = apply_action(old_v, sched[0], 4, with_offset=True) + 0.01
    new = ParamState(7, new_v, 3)
    got = fixed_point_distance(new, old, rule)
    lifted = apply_action(old_v, sched[0], 4, with_offset=True)
    expect = float(np.sum((new_v - lifted) ** 2)) / 12  # brute-force elementwise sum
    assert got == pytest.approx(expect, rel=1e-15)


def test_distance_irreconcilable_dims():
    rule = quad_rule()
    with pytest.raises(DimensionError):
        fixed_point_distance(ParamState(0, np.zeros(4), 4), ParamState(0, np.zeros(3), 3), rule)


def test_distance_step_mismatch():
    rule = quad_rule()
    with pytest.raises(ValueError):
        fixed_point_distance(ParamState(0, np.zeros(4), 4), ParamState(1, np.zeros(4), 4), rule)


# --- picard_round ----------------------------------------------------------------


def test_round_size_one_equals_sequential():
    rule = quad_rule(T=10)
    theta0 = initial_state(rule)
    w = Window(0, [theta0, with_step(theta0, 1)])
    with WorkerPool(2) as pool:
        cand, errors = picard_round(w, rule, pool)
    expect = sequential_step(rule, theta0, 0)
    assert states_equal_bits(cand.states[1], expect)
    assert len(errors.per_slot) == 1


def test_round_constant_guess_unrolls_euler():
    # f(x) = -x, theta0 = 1, T = 4: after one full-window round slot tau holds 1 - tau/4
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    theta0 = initial_state(rule)
    w = Window(0, [theta0] + [with_step(theta0, j) for j in (1, 2, 3, 4)])
    with WorkerPool(4) as pool:
        cand, _ = picard_round(w, rule, pool)
    for tau in range(5):
        assert cand.states[tau].values[0] == pytest.approx(1.0 - tau / 4)


def test_round_exact_anchor_propagates_one_step():
    rule = quad_rule(T=10)
    anchor = sequential_step(rule, initial_state(rule), 0)  # exact theta*_1
    junk = ParamState(2, np.full(4, 9.0), 4)
    w = Window(1, [anchor, junk])
    with WorkerPool(1) as pool:
        cand, _ = picard_round(w, rule, pool)
    assert states_equal_bits(cand.states[1], sequential_step(rule, anchor, 1))


# --- advance_window ----------------------------------------------------------------


def window_of(rule, base, size):
    s = with_step(initial_state(rule), base)
    return Window(base, [with_step(s, base + j) for j in range(size + 1)])


def test_advance_full_skip_refills_from_last():
    rule = quad_rule(T=100)
    w = window_of(rule, 0, 3)
    new_states = [ParamState(j, np.full(4, float(j)), 4) for j in range(4)]
    out = advance_window(w, new_states, skip=3, total_steps=100)
    assert out.base_step == 3 and out.size == 3
    assert out.states[0] is new_states[3]
    for j in range(1, 4):
        assert np.all(out.states[j].values == 3.0)
        assert out.states[j].step == 3 + j


def test_advance_skip_one_shifts_and_appends():
    rule = quad_rule(T=100)
    w = window_of(rule, 0, 3)
    new_states = [ParamState(j, np.full(4, float(j)), 4) for j in range(4)]
    out = advance_window(w, new_states, skip=1, total_steps=100)
    assert out.base_step == 1
    assert [s.values[0] for s in out.states] == [1.0, 2.0, 3.0, 3.0]


def test_advance_clamps_near_horizon():
    rule = quad_rule(T=5)
    w = window_of(rule, 2, 3)  # covers 2..5
    new_states = [ParamState(2 + j, np.full(4, float(j)), 4) for j in range(4)]
    out = advance_window(w, new_states, skip=2, total_steps=5)
    assert out.base_step == 4
    assert out.size == 1  # clamped to T - base
    assert [s.step for s in out.states] == [4, 5]


def test_advance_rejects_bad_skip():
    rule = quad_rule(T=100)
    w = window_of(rule, 0, 3)
    new_states = list(w.states)
    with pytest.raises(ValueError):
        advance_window(w, new_states, skip=0, total_steps=100)


# --- run ---------------------------------------------------------------------------


def test_run_p1_equals_oracle_exactly():
    rule = quad_rule(T=10)
    traj, _ = po.solve_sequential(rule)
    res = run(rule, EngineSettings(window=1, workers=1, threshold0=0.0, gamma=1.0))
    assert res.report.rounds == 10
    assert states_equal_bits(res.terminal, traj.states[-1])
    assert res.report.skip_histogram == {1: 10}


def test_run_zero_threshold_bitexact_any_window():
    rule = quad_rule(T=40, kind="adam", eta=0.02)
    traj, _ = po.solve_sequential(rule)
    for p, w in ((3, 4), (7, 2)):
        res = run(rule, EngineSettings(window=p, workers=w, threshold0=0.0, gamma=1.0))
        assert states_equal_bits(res.terminal, traj.states[-1])
        assert res.report.rounds <= 40


def test_run_trajectory_covers_all_steps():
    rule = quad_rule(T=23)
    res = run(rule, EngineSettings(window=5, workers=2, threshold0=1e-6, gamma=0.9))
    assert [s.step for s in res.trajectory] == list(range(24))
    assert sum(k * v for k, v in res.report.skip_histogram.items()) == 23


def test_run_anchor_monotone_in_telemetry():
    rule = quad_rule(T=30, noise=0.1)
    res = run(rule, EngineSettings(window=4, workers=2, threshold0=1e-5, gamma=0.8,
                                   record_snapshots=True))
    # once a step is finalized its state never changes across later snapshots
    for k, snap in enumerate(res.snapshots[:-1]):
        later = res.snapshots[-1]
        base_k = res.records[k].base_step + res.records[k].skip
        for tau in range(base_k + 1):
            assert states_equal_bits(snap[tau], later[tau])


def test_run_worker_count_invariance():
    rule = quad_rule(T=60, noise=0.1)
    terminals = set()
    for w in (1, 2, 8):
        res = run(rule, EngineSettings(window=6, workers=w, threshold0=1e-6, gamma=0.9))
        terminals.add(po.state_checksum(res.terminal))
    assert len(terminals) == 1


def test_run_progress_and_round_bound():
    rule = quad_rule(T=37, noise=0.1)
    res = run(rule, EngineSettings(window=5, workers=4, threshold0=1e-3, gamma=0.5))
    assert res.report.rounds <= 37
    assert all(r.skip >= 1 for r in res.records)


def test_run_threshold_recorded_before_update():
    rule = quad_rule(T=10, noise=0.1)
    res = run(rule, EngineSettings(window=3, workers=2, threshold0=7e-7, gamma=0.9))
    assert res.records[0].threshold == 7e-7


def test_run_poisoned_attaches_partial_report():
    prob = po.make_problem("rosenbrock", dim=4)
    rule = make_rule("sgd", prob, 1e6, total_steps=50)  # diverges fast
    with pytest.raises(po.PoisonedDrift) as exc:
        run(rule, EngineSettings(window=3, workers=2, threshold0=0.0, gamma=1.0))
    assert exc.value.partial_report.partial
    assert exc.value.partial_window is not None


def test_run_closes_own_pool_on_non_package_error():
    class Broken(DecayOde):
        def grad(self, values, seed):
            raise RuntimeError("objective crashed")

    rule = make_rule("sgd", Broken(), 0.1, total_steps=10)
    before = threading.active_count()
    with pytest.raises(RuntimeError):
        run(rule, EngineSettings(window=3, workers=4, threshold0=0.0, gamma=1.0))
    assert threading.active_count() == before


def test_run_window_one_at_T_one():
    rule = quad_rule(T=1)
    res = run(rule, EngineSettings(window=7, workers=2, threshold0=1e-6, gamma=0.9))
    assert res.report.rounds == 1
    assert res.terminal.step == 1
