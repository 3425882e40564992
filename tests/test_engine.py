import ctypes
import dataclasses
import json
import operator
import platform
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import DecayOde, Snapshots, sequential_trajectory
from hypothesis import given, settings
from hypothesis import strategies as st

import picardopt as po
import picardopt.engine as engine_mod
from picardopt import cli
from picardopt.engine import (DOT_BLOCK, EngineSettings, advance_window,
                              compute_skip, fixed_point_distance, picard_round,
                              run, update_threshold)
from picardopt.errors import ArgumentError, DimensionError
from picardopt.oracle import keep_freed_heap
from picardopt.pool import WorkerPool
from picardopt.rules import initial_state, make_rule, rollout_one, sequential_step
from picardopt.schedule import ScheduleAction, apply_action, reconcile_vector
from picardopt.state import MomentState, ParamState, states_equal_bits, with_step


def quad_rule(dim=4, T=50, kind="sgd", eta=0.1, noise=0.0, seed=0):
    prob = po.make_problem("quadratic", dim=dim, data_seed=seed, noise=noise)
    return make_rule(kind, prob, eta, total_steps=T)


# --- compute_skip -------------------------------------------------------------


def test_skip_first_exceedance():
    errors = (1e-9, 1e-9, 2e-3, 1e-9)
    assert compute_skip(errors, 1e-6) == 3


def test_skip_all_below_threshold():
    assert compute_skip((1e-9, 1e-9), 1e-6) == 2


def test_skip_forced_minimum_progress():
    assert compute_skip((5e-6,), 1e-6) == 1


@given(st.lists(st.floats(min_value=0, max_value=1e3), min_size=1, max_size=12),
       st.floats(min_value=0, max_value=1e3))
def test_skip_always_in_range_and_first(errors, threshold):
    skip = compute_skip(tuple(errors), threshold)
    assert 1 <= skip <= len(errors)
    assert all(e <= threshold for e in errors[: skip - 1])
    if skip < len(errors) or (errors and errors[skip - 1] > threshold):
        assert errors[skip - 1] > threshold or skip == len(errors)


# --- update_threshold ----------------------------------------------------------


def round_median(errors):
    """The median ``engine.run`` takes of a round's errors."""
    return engine_mod.statistics.median(errors)


def test_threshold_ema_formula():
    out = update_threshold(1e-4, 0.9, round_median((2e-4, 2e-4, 2e-4)))
    assert out == pytest.approx(1.1e-4)


def test_threshold_gamma_one_frozen():
    assert update_threshold(5e-5, 1.0, round_median((9.0, 9.0))) == 5e-5


def test_threshold_gamma_zero_full_adaptation():
    assert update_threshold(5e-5, 0.0, round_median((2.0, 4.0))) == 3.0


@pytest.mark.parametrize("gamma", [1.0, 0.9])
def test_threshold_ignores_a_round_whose_median_overflowed(gamma):
    # At gamma 1, 1.0 * e + 0.0 * inf would be NaN, a threshold every slot passes.
    inf = float("inf")
    for errors in ((1e-9, inf, inf), (inf, inf), (inf,)):
        assert update_threshold(5e-5, gamma, round_median(errors)) == 5e-5


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=10),
       st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=8))
def test_threshold_stays_nonnegative(gamma, e0, errors):
    assert update_threshold(e0, gamma, round_median(tuple(errors))) >= 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7])
def test_round_median_equals_np_median_bitwise(n):
    rng = np.random.default_rng(n)
    choices = np.array([0.0, 5e-324, 1e-300, 3e-7, 0.1, 1.0 / 3.0, 2.5e10, 1e300])
    for trial in range(200):
        if trial % 2:  # ties
            errors = rng.choice(choices, size=n)
        else:
            errors = np.exp(rng.uniform(-700.0, 690.0, size=n))
        got = round_median(tuple(errors.tolist()))
        assert got.hex() == float(np.median(errors)).hex(), errors


def test_threshold_validation():
    for kwargs in (dict(threshold=-1.0), dict(threshold=float("nan")),
                   dict(threshold=float("inf")), dict(threshold=0.0, gamma=1.5),
                   dict(threshold=0.0, gamma=float("nan"))):
        with pytest.raises(ValueError):
            EngineSettings(**kwargs)
    # a count must be an integer, not only a number in range
    for name in ("window", "workers", "seed_offset"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            EngineSettings(**{name: 2.5})


def test_every_bad_engine_setting_raises_an_argument_error_naming_it():
    # The one way a settings object rejects a value: config names the key
    # from ``argument`` alone.
    bad = dict(window=0, workers=0, threshold=float("nan"), gamma=1.5, seed_offset=-1,
               injected_cost_ms=float("nan"))
    assert set(bad) == {f.name for f in dataclasses.fields(EngineSettings)}
    for name, value in bad.items():
        with pytest.raises(ArgumentError) as info:
            EngineSettings(**{name: value})
        assert info.value.argument == name


# --- fixed_point_distance -------------------------------------------------------


def test_distance_identical_states():
    s = ParamState(3, np.ones(4), 4)
    assert fixed_point_distance(s, s) == 0.0


def test_distance_direct_formula():
    a = ParamState(0, np.array([0.1, 0.0, 0.0, 0.0]), 4)
    b = ParamState(0, np.zeros(4), 4)
    assert fixed_point_distance(a, b) == pytest.approx(0.0025)


def test_distance_excludes_moments():
    v = np.ones(4)
    a = ParamState(0, v, 4, po.MomentState(np.ones(4), np.ones(4)))
    b = ParamState(0, v, 4, po.MomentState.zeros(4))
    assert fixed_point_distance(a, b) == 0.0


def test_distance_bits_equal_the_full_difference_blockwise():
    # Several blocks and a ragged tail: the bits of a block-by-block sum of
    # np.dot over the whole difference vector, taken in block order.
    d = 3 * DOT_BLOCK + 5
    for seed in range(3):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(d) * 10.0 ** rng.uniform(-5, 5, d)
        b = a + rng.standard_normal(d) * 1e-3
        delta = a - b
        total = 0.0
        for i in range(0, d, DOT_BLOCK):
            total += float(np.dot(delta[i : i + DOT_BLOCK], delta[i : i + DOT_BLOCK]))
        got = fixed_point_distance(ParamState(4, a, d), ParamState(4, b, d))
        assert got.hex() == (total / d).hex()


def test_distance_that_overflows_between_finite_states_is_inf():
    a = ParamState(2, np.array([1e200, -1e200]), 2)
    b = ParamState(2, np.array([-1e200, 1e200]), 2)
    assert fixed_point_distance(a, b) == float("inf")
    assert compute_skip((fixed_point_distance(a, b),), 1e300) == 1


def test_distance_lifts_old_through_split():
    # The old state is lifted through the split when its guess is made, by
    # reconcile_vector; the distance is then taken on equal dimensions.
    old_v = po.make_problem("splat2d", data_seed=4, points=2).initial_values()
    sched = (ScheduleAction(4, "split", (0,)),)
    new_v = apply_action(old_v, sched[0], 4) + 0.01
    new = ParamState(7, new_v, 3)
    lifted = reconcile_vector(old_v, sched, 3, 7, 4)
    got = fixed_point_distance(new, ParamState(7, lifted, 3))
    expect = float(np.sum((new_v - apply_action(old_v, sched[0], 4)) ** 2)) / 12
    assert got == pytest.approx(expect, rel=1e-15)
    # fixed_point_distance itself lifts nothing: a clone that missed the
    # split does not have its step's dimension.
    with pytest.raises(DimensionError):
        fixed_point_distance(new, ParamState(7, old_v, 2))


def test_distance_irreconcilable_dims():
    with pytest.raises(DimensionError):
        fixed_point_distance(ParamState(0, np.zeros(4), 4), ParamState(0, np.zeros(3), 3))


def test_distance_step_mismatch():
    with pytest.raises(ValueError):
        fixed_point_distance(ParamState(0, np.zeros(4), 4), ParamState(1, np.zeros(4), 4))


# --- picard_round ----------------------------------------------------------------


def test_round_size_one_equals_sequential():
    rule = quad_rule(T=10)
    theta0 = initial_state(rule)
    w = [theta0, with_step(theta0, 1)]
    accepted = []
    with WorkerPool(2) as pool:
        errors = picard_round(w, rule, pool, 0.0, accepted)
    expect = sequential_step(rule, theta0, 0)
    # the window slid onto its new anchor, and the old one left its front
    assert w[0].step == 1 and len(w) == 1
    assert states_equal_bits(w[0], expect)
    assert len(accepted) == 1 and accepted[0] is w[0]
    assert len(errors) == 1


def test_round_constant_guess_unrolls_euler():
    # f(x) = -x, theta0 = 1, T = 4: after one full-window round slot tau holds
    # 1 - tau/4.  Every error is positive, so the round skips by one: slot 0
    # leaves the window, which then holds slots 1..4.
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    theta0 = initial_state(rule)
    w = [theta0] + [with_step(theta0, j) for j in (1, 2, 3, 4)]
    accepted = []
    with WorkerPool(4) as pool:
        picard_round(w, rule, pool, 0.0, accepted)
    assert accepted == [w[0]] and w[0].step == 1
    slots = [theta0] + w
    assert len(slots) == 5
    for tau in range(5):
        assert slots[tau].step == tau
        assert slots[tau].values[0] == pytest.approx(1.0 - tau / 4)


def test_round_exact_anchor_propagates_one_step():
    rule = quad_rule(T=10)
    anchor = sequential_step(rule, initial_state(rule), 0)  # exact theta*_1
    junk = ParamState(2, np.full(4, 9.0), 4)
    w = [anchor, junk]
    with WorkerPool(1) as pool:
        picard_round(w, rule, pool, 0.0)
    assert w[0].step == 2 and len(w) == 1
    assert states_equal_bits(w[0], sequential_step(rule, anchor, 1))


# --- advance_window ----------------------------------------------------------------


def slid_window(base, skip, size):
    """A window as a round of ``size`` slots at ``base`` that skipped by
    ``skip`` leaves it: slots skip..size, slot j holding values all equal to
    j, the anchor with Adam moments."""
    anchor = ParamState(base + skip, np.full(4, float(skip)), 4, MomentState.zeros(4))
    return [anchor] + [ParamState(base + j, np.full(4, float(j)), 4)
                       for j in range(skip + 1, size + 1)]


def test_advance_full_skip_refills_from_last():
    w = slid_window(0, 3, 3)
    anchor = w[0]
    out = advance_window(w, skip=3, rule=quad_rule(T=100))
    assert out is w and out[0].step == 3 and len(out) == 4
    assert out[0] is anchor and anchor.moments is not None
    for j in range(1, 4):
        assert np.all(out[j].values == 3.0)
        assert out[j].step == 3 + j
        # a refilled slot is a guess: the anchor's values, without its moments
        assert out[j].values is anchor.values and out[j].moments is None


def test_advance_skip_one_shifts_and_appends():
    w = slid_window(0, 1, 3)
    out = advance_window(w, skip=1, rule=quad_rule(T=100))
    assert out[0].step == 1
    assert [s.values[0] for s in out] == [1.0, 2.0, 3.0, 3.0]


def test_advance_clamps_near_horizon():
    w = slid_window(2, 2, 3)  # covered 2..5, now 4..5
    out = advance_window(w, skip=2, rule=quad_rule(T=5))
    assert out[0].step == 4
    assert len(out) == 2  # clamped to T - base
    assert [s.step for s in out] == [4, 5]
    # a full skip refills the tail only up to the horizon
    out = advance_window(slid_window(0, 3, 3), skip=3, rule=quad_rule(T=5))
    assert [s.step for s in out] == [3, 4, 5]


def test_advance_rejects_bad_skip():
    w = slid_window(0, 1, 3)
    with pytest.raises(ValueError):
        advance_window(w, skip=0, rule=quad_rule(T=100))


# --- run ---------------------------------------------------------------------------


def test_run_p1_equals_oracle_exactly():
    rule = quad_rule(T=10)
    oracle, _ = po.solve_sequential(rule)
    res = run(rule, EngineSettings(window=1, workers=1, threshold=0.0, gamma=1.0))
    assert res.report.rounds == 10
    assert states_equal_bits(res.terminal, oracle.terminal)
    assert res.report.skip_histogram == {1: 10}


def test_run_zero_threshold_bitexact_any_window():
    rule = quad_rule(T=40, kind="adam", eta=0.02)
    oracle, _ = po.solve_sequential(rule)
    for p, w in ((3, 4), (7, 2)):
        res = run(rule, EngineSettings(window=p, workers=w, threshold=0.0, gamma=1.0))
        assert states_equal_bits(res.terminal, oracle.terminal)
        assert res.report.rounds <= 40


def test_run_trajectory_covers_all_steps():
    rule = quad_rule(T=23)
    seen = Snapshots()
    res = run(rule, EngineSettings(window=5, workers=2, threshold=1e-6, gamma=0.9),
              observer=seen)
    assert [s.step for s in seen.trajectory] == list(range(24))
    assert sum(k * v for k, v in res.report.skip_histogram.items()) == 23


def test_observer_sees_each_round_and_its_time_is_not_the_runs():
    # Window 1: each round accepts one state, the first round step 0 too.
    accepted_counts = []

    def slow(accepted, window):
        accepted_counts.append(len(accepted))
        assert window[0] is accepted[-1]
        time.sleep(0.05)

    res = run(quad_rule(T=10), EngineSettings(window=1, workers=1, threshold=0.0),
              observer=slow)
    assert accepted_counts == [2] + [1] * 9
    assert res.report.wall_time_ms < 250  # the observer slept 500 ms


def test_run_anchor_monotone_in_telemetry():
    rule = quad_rule(T=30, noise=0.1)
    seen = Snapshots()
    res = run(rule, EngineSettings(window=4, workers=2, threshold=1e-5, gamma=0.8),
              observer=seen)
    # once a step is finalized its state never changes across later snapshots
    for k, snap in enumerate(seen.snapshots[:-1]):
        later = seen.snapshots[-1]
        base_k = res.records[k].base_step + res.records[k].skip
        for tau in range(base_k + 1):
            assert states_equal_bits(snap[tau], later[tau])


def test_run_worker_count_invariance():
    rule = quad_rule(T=60, noise=0.1)
    terminals = set()
    for w in (1, 2, 8):
        res = run(rule, EngineSettings(window=6, workers=w, threshold=1e-6, gamma=0.9))
        terminals.add(po.state_checksum(res.terminal))
    assert len(terminals) == 1


def test_run_progress_and_round_bound():
    rule = quad_rule(T=37, noise=0.1)
    res = run(rule, EngineSettings(window=5, workers=4, threshold=1e-3, gamma=0.5))
    assert res.report.rounds <= 37
    assert all(r.skip >= 1 for r in res.records)


def test_run_threshold_recorded_before_update():
    rule = quad_rule(T=10, noise=0.1)
    res = run(rule, EngineSettings(window=3, workers=2, threshold=7e-7, gamma=0.9))
    assert res.records[0].threshold == 7e-7


def test_run_poisoned_attaches_partial_report():
    prob = po.make_problem("rosenbrock", dim=4)
    rule = make_rule("sgd", prob, 1e6, total_steps=50)  # diverges fast
    with pytest.raises(po.PoisonedDrift) as exc:
        run(rule, EngineSettings(window=3, workers=2, threshold=0.0, gamma=1.0))
    partial = exc.value.partial
    assert partial.report.partial and partial.report.rounds == len(partial.records)
    assert partial.window is not None


def test_run_closes_own_pool_on_non_package_error():
    class Broken(DecayOde):
        def grad(self, values, seed):
            raise RuntimeError("objective crashed")

    rule = make_rule("sgd", Broken(), 0.1, total_steps=10)
    before = threading.active_count()
    with pytest.raises(RuntimeError):
        run(rule, EngineSettings(window=3, workers=4, threshold=0.0, gamma=1.0))
    assert threading.active_count() == before


def test_run_window_one_at_T_one():
    rule = quad_rule(T=1)
    res = run(rule, EngineSettings(window=7, workers=2, threshold=1e-6, gamma=0.9))
    assert res.report.rounds == 1
    assert res.terminal.step == 1


@pytest.mark.parametrize("pool_args", [
    dict(n_workers=3), dict(n_workers=2, seed_offset=5), dict(n_workers=2, injected_cost_ms=1.0),
])
def test_run_rejects_pool_that_disagrees_with_settings(pool_args):
    rule = quad_rule(T=10, noise=0.1)
    settings = EngineSettings(window=3, workers=2, threshold=0.0, gamma=1.0)
    before = threading.active_count()
    with WorkerPool(**pool_args) as pool:
        with pytest.raises(ValueError, match="disagrees with the settings"):
            run(rule, settings, pool)
        assert sum(pool.timing_report()["drifts_served"]) == 0
    assert threading.active_count() == before


def test_adaptive_guidance_runs_on_a_passed_pool():
    # Each lane has the predictor the pool's reset made, as on the run's own pool.
    rule = quad_rule(T=40, kind="adaptive_guidance", noise=0.1)
    settings = EngineSettings(window=3, workers=2)
    with WorkerPool(2) as pool:
        passed = run(rule, settings, pool)
    own = run(rule, settings)
    assert po.state_checksum(passed.terminal) == po.state_checksum(own.terminal)


@pytest.mark.parametrize("kwargs,expected", [
    ({}, (7, 8, 1e-6, 0.9)),
    (dict(workers=1, threshold=0.0), (1, 1, 0.0, 1.0)),
])
def test_engine_settings_own_the_defaults(kwargs, expected):
    s = EngineSettings(**kwargs)
    assert (s.window, s.workers, s.threshold, s.gamma) == expected


def test_engine_settings_are_frozen():
    # __post_init__ is the only check, so no field may change after it ran:
    # a NaN threshold set afterwards would accept every window whole.
    s = EngineSettings(window=7, workers=2)
    for field in dataclasses.fields(EngineSettings):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, field.name, float("nan"))
    assert (s.window, s.workers, s.threshold, s.gamma) == (7, 2, 1e-6, 0.9)


# --- pipelined dispatch --------------------------------------------------------


class Trap(DecayOde):
    """Gradient x, except a huge finite drift at the seeds in ``huge`` (its
    rollout overflows), a finite spike ``x - 1e200`` at the seeds in
    ``spike``, and an ObjectiveError at the seeds in ``fail``.  With
    ``moved_only`` the error is raised only once the state there has left
    its initial value, so from the second visit of that step on.  The error
    is ``error``'s.  The loss, sum tanh(x)^2, stays finite on finite states."""

    seed_free = False
    error = po.ObjectiveError

    def __init__(self, huge=(), fail=(), moved_only=False, spike=()):
        super().__init__(dim=2)
        self.huge, self.fail, self.moved_only, self.spike = huge, fail, moved_only, spike

    def grad(self, values, seed):
        if seed in self.huge:
            return np.full(self.dim, 1e308)
        if seed in self.fail and not (self.moved_only and np.all(values == 1.0)):
            raise self.error(f"drift failed at seed {seed}")
        return values - 1e200 if seed in self.spike else values.copy()

    def _base_loss(self, v):
        return float(np.sum(np.tanh(v) ** 2))


def recording_pool(n, **kwargs):
    """A pool that records (step, inside a gather) for every drift submitted."""
    pool = WorkerPool(n, **kwargs)
    log, gathering = [], []
    submit, gather = pool.submit, pool.gather_drifts

    def recorded_submit(rule, state):
        log.append((state.step, bool(gathering)))
        return submit(rule, state)

    def recorded_gather(rule, states):
        gathering.append(True)
        try:
            return gather(rule, states)
        finally:
            gathering.pop()

    pool.submit, pool.gather_drifts = recorded_submit, recorded_gather
    return pool, log


@pytest.mark.parametrize("threshold,gamma", [(0.0, 1.0), (1e-6, 0.9)])
def test_pipelined_run_reuses_prefetched_drifts(threshold, gamma):
    T, p = 40, 7
    rule = quad_rule(T=T, noise=0.1)
    settings = EngineSettings(window=p, workers=2, threshold=threshold, gamma=gamma)
    pool, log = recording_pool(2)
    with pool:
        res = run(rule, settings, pool)
        served = pool.timing_report()["drifts_served"]
    assert any(not in_gather for _, in_gather in log), "no drift started ahead of its gather"
    # every drift ran once: the prefetched ones were reused by the next gather
    report = res.report.to_json_dict()
    assert sum(served) == report["drift_evals"] == sum(min(p, T - r.base_step) for r in res.records)
    assert report["work_amplification"] == sum(served) / T
    assert report["drift_wait_ms"] >= 0.0
    # 7 slots a round on 2 lanes: the odd slot rotates between the lanes
    assert max(served) - min(served) <= 1
    # the result does not depend on the pool (one worker, fresh pool)
    ref = run(rule, EngineSettings(window=p, workers=1, threshold=threshold, gamma=gamma))
    assert po.state_checksum(res.terminal) == po.state_checksum(ref.terminal)


def test_pipelined_submits_nothing_at_or_past_horizon():
    for T, p in ((1, 7), (5, 7), (12, 4), (9, 9)):
        rule = quad_rule(T=T, noise=0.1)
        pool, log = recording_pool(3)
        with pool:
            res = run(rule, EngineSettings(window=p, workers=3, threshold=0.0, gamma=1.0), pool)
        assert all(step < T for step, _ in log)
        assert len(log) - res.report.drift_evals == sum(1 for _, g in log if not g)


def same_objects(states, others):
    return len(states) == len(others) and all(map(operator.is_, states, others))


@pytest.mark.parametrize("threshold", [0.0, 1e9])
def test_round_ends_at_its_first_failing_slot(threshold):
    # Round 1, window of 5 at steps 0..4: the drift at the guess for step 2
    # is huge, so slot 3's rollout overflows, and the drift at step 4 raises.
    # Both fail at a guess's step, not the anchor's: the round ends at slot 2
    # without raising, having measured slots 1 and 2.  At 20 ms a drift, the
    # drift at step 4 is still running then.
    rule = make_rule("sgd", Trap(huge=(2,), fail=(4,)), 10.0, total_steps=10)
    theta0 = initial_state(rule)
    w = [theta0] + [with_step(theta0, j) for j in range(1, 6)]
    guesses = list(w)
    accepted = []
    with WorkerPool(2, injected_cost_ms=20.0) as pool:
        errors = picard_round(w, rule, pool, threshold, accepted)
        served = sum(pool.timing_report()["drifts_served"])
    assert len(errors) == 2
    slot1 = sequential_step(rule, theta0, 0)
    slot2 = rollout_one(rule, po.drift(rule, guesses[1], 1).payload, slot1)
    if threshold == 0.0:
        # slot 1 missed its guess, so it is the new anchor; slot 2 is the
        # next round's guess for step 2, and the later slots keep theirs
        assert compute_skip(errors, threshold) == 1 and accepted == [w[0]]
        assert states_equal_bits(w[0], slot1) and states_equal_bits(w[1], slot2)
        assert same_objects(w[2:], guesses[3:])
        assert served >= 5
    else:
        # both slots were accepted; every drift the round started has finished
        assert compute_skip(errors, threshold) == 2
        assert len(accepted) == 2 and accepted[1] is w[0]
        assert states_equal_bits(accepted[0], slot1) and states_equal_bits(w[0], slot2)
        assert same_objects(w[1:], guesses[3:])
        assert served == 5


@pytest.mark.parametrize("trap,error", [(Trap(huge=(0,)), po.PoisonedDrift),
                                        (Trap(fail=(0,)), po.ObjectiveError)])
def test_round_fails_at_its_anchors_step(trap, error):
    # Slot 1 is the step sequential execution takes from the anchor: its
    # failure fails the round, after every drift is drained, and leaves the
    # window as it was.
    rule = make_rule("sgd", trap, 10.0, total_steps=10)
    theta0 = initial_state(rule)
    with pytest.raises(error):
        sequential_step(rule, theta0, 0)
    w = [theta0] + [with_step(theta0, j) for j in range(1, 6)]
    guesses = list(w)
    with WorkerPool(2) as pool:
        with pytest.raises(error):
            picard_round(w, rule, pool, 0.0)
        assert sum(pool.timing_report()["drifts_served"]) == 5
    assert same_objects(w, guesses)


def test_a_round_ended_early_counts_its_wait_for_the_later_drifts():
    # Slot 1's drift (seed 1) fails at a guess, so the round ends there and
    # waits for slots 2..6; sliding until then, it submits nothing ahead.
    # Two lanes serve 4 and 3 drifts of 30 ms each, so the last is done
    # 120 ms after the gather; the round blocks for all but its own
    # sub-millisecond work, the wait for slot 0's drift (30 ms) and the early
    # end's (90 ms) alike.
    rule = make_rule("sgd", Trap(fail=(1,)), 0.1, total_steps=10)
    theta0 = initial_state(rule)
    w = [theta0] + [with_step(theta0, j) for j in range(1, 8)]
    with WorkerPool(2, injected_cost_ms=30.0) as pool:
        errors = picard_round(w, rule, pool, 1.0)
        report = pool.timing_report()
    assert len(errors) == 1 and report["drifts_served"] == [4, 3]
    assert report["wait_ms"] >= 90.0


class LateTrap(Trap):
    """Fails at step 3 once the state there has moved: from round 2 on at
    threshold 0."""

    def __init__(self, data_seed=0):  # the CLI always sets a data seed
        super().__init__(fail=(3,), moved_only=True)


class LateFault(LateTrap):
    """LateTrap raising an error that fails a round at any slot."""

    error = DimensionError


def test_failed_round_checkpoints_its_window_as_refined(tmp_path, monkeypatch):
    # Round 1 (base 0, skip 1) leaves window w at steps 1..5; round 2 reads
    # the drifts at w[0] and w[1] and fails on w[2]'s.  Round 2's slot 1
    # (step 2) missed w[1], so it is the new anchor: w[0] left the window's
    # front, slot 2 was refined and slots 3 and 4 still hold w's guesses.
    rule = make_rule("sgd", LateFault(), 0.1, total_steps=10)
    settings = EngineSettings(window=4, workers=2, threshold=0.0, gamma=1.0)
    windows = []
    with pytest.raises(DimensionError, match="seed 3") as exc:
        run(rule, settings, observer=lambda accepted, window: windows.append(list(window)))
    (w,) = windows
    partial = exc.value.partial.window
    assert exc.value.partial.report.rounds == 1
    assert [s.step for s in w] == [1, 2, 3, 4, 5]
    assert [s.step for s in partial] == [2, 3, 4, 5]
    assert states_equal_bits(w[0], sequential_step(rule, initial_state(rule), 0))
    anchor = partial[0]
    assert states_equal_bits(anchor, sequential_step(rule, w[0], 1))
    assert not states_equal_bits(anchor, w[1])
    slot2 = rollout_one(rule, po.drift(rule, w[1], 2).payload, anchor)
    assert states_equal_bits(partial[1], slot2)
    assert not states_equal_bits(partial[1], w[2])
    assert partial[2] is w[3] and partial[3] is w[4]
    # the CLI writes that window to abort_window.bin and exits 1
    monkeypatch.setitem(po.problems.PROBLEM_KINDS, "late_fault", LateFault)
    args = ["--rule", "sgd", "--step-size", "0.1", "--steps", "10", "--window", "4",
            "--workers", "2", "--threshold", "0"]
    code = cli.main(["run", "--problem", "late_fault", *args, "--out", str(tmp_path / "fault")])
    assert code == 1
    saved = list(po.iter_states(tmp_path / "fault" / "abort_window.bin"))
    assert len(saved) == 4 and all(map(states_equal_bits, saved, partial))
    # An ObjectiveError at a guess's step only ends its round: rounds 2 and 3
    # end at step 3, and round 4, anchored there, fails before refining
    # anything, so the window checkpointed is the one round 3 left.
    rule = make_rule("sgd", LateTrap(), 0.1, total_steps=10)
    windows = []
    with pytest.raises(po.ObjectiveError, match="seed 3") as exc:
        run(rule, settings, observer=lambda accepted, window: windows.append(list(window)))
    partial = exc.value.partial.window
    assert exc.value.partial.report.rounds == len(windows) == 3
    assert [s.step for s in partial] == [3, 4, 5, 6, 7] and same_objects(partial, windows[-1])
    sequential = initial_state(rule)
    for tau in range(3):
        sequential = sequential_step(rule, sequential, tau)
    assert states_equal_bits(partial[0], sequential)
    monkeypatch.setitem(po.problems.PROBLEM_KINDS, "late_trap", LateTrap)
    code = cli.main(["run", "--problem", "late_trap", *args, "--out", str(tmp_path / "trap")])
    assert code == 3
    saved = list(po.iter_states(tmp_path / "trap" / "abort_window.bin"))
    assert len(saved) == 5 and all(map(states_equal_bits, saved, partial))


def test_aborted_run_drains_prefetched_work():
    # Threshold 0 prefetches every round.  The drift at step 3 fails on every
    # visit after its first: in rounds 2 and 3 at a guess's step, which ends
    # the round, and in round 4 at the anchor's, while that round's later
    # drifts are in flight.
    rule = make_rule("sgd", Trap(fail=(3,), moved_only=True), 0.1, total_steps=20)
    settings = EngineSettings(window=5, workers=2, threshold=0.0, gamma=1.0,
                              injected_cost_ms=10.0)
    pool, log = recording_pool(2, injected_cost_ms=10.0)
    with pool:
        with pytest.raises(po.ObjectiveError) as exc:
            run(rule, settings, pool)
        assert any(not in_gather for _, in_gather in log)
        served = sum(pool.timing_report()["drifts_served"])
        busy = sum(pool.timing_report()["busy_ms"])
        assert not pool._in_flight
        time.sleep(0.05)
        # nothing was still running when the error surfaced
        assert sum(pool.timing_report()["drifts_served"]) == served
        assert sum(pool.timing_report()["busy_ms"]) == busy
    assert exc.value.partial.report.partial
    assert exc.value.partial.report.rounds == 3
    before = threading.active_count()
    with pytest.raises(po.ObjectiveError):
        run(rule, settings)
    assert threading.active_count() == before


def sequential_failure(rule):
    """(type, step, message) of the first error a plain sequential_step loop
    raises, or None."""
    state = initial_state(rule)
    for tau in range(rule.total_steps):
        try:
            state = sequential_step(rule, state, tau)
        except po.PicardoptError as err:
            return type(err), tau, str(err)
    return None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fail=st.sets(st.integers(0, 14), max_size=3), huge=st.sets(st.integers(0, 14), max_size=2),
       spike=st.sets(st.integers(0, 14), max_size=2),
       steps=st.integers(1, 12), window=st.integers(1, 6), workers=st.integers(1, 3))
def test_exact_run_fails_where_the_sequential_run_fails(fail, huge, spike, steps, window,
                                                         workers):
    # ObjectiveErrors on moved states, overflowing rollouts and finite spikes
    # (whose distance from a guess overflows) at the chosen seeds: the engine
    # fails if and only if the sequential loop fails, with the same error at
    # the same step, its window anchored there.
    rule = make_rule("sgd", Trap(huge=huge, fail=fail, moved_only=True, spike=spike), 10.0,
                     total_steps=steps)
    expected = sequential_failure(rule)
    try:
        run(rule, EngineSettings(window=window, workers=workers, threshold=0.0))
    except po.PicardoptError as err:
        assert (type(err), err.partial.window[0].step, str(err)) == expected
    else:
        assert expected is None


class Spike(DecayOde):
    """Gradient 0.5 x, except x - 1e200 at seed 3, and the bounded loss sum
    tanh(x)^2: every state is finite, but the guesses' distance from the
    states after the spike overflows."""

    seed_free = False

    def grad(self, values, seed):
        return values - 1e200 if seed == 3 else 0.5 * values

    def _base_loss(self, v):
        return float(np.sum(np.tanh(v) ** 2))


@pytest.mark.parametrize("threshold,gamma", [(0.0, 1.0), (1e-6, 0.9)])
def test_a_distance_that_overflows_does_not_fail_the_run(threshold, gamma):
    rule = make_rule("sgd", Spike(dim=2), 1.0, total_steps=10)
    oracle, _ = po.solve_sequential(rule)
    res = run(rule, EngineSettings(window=3, workers=2, threshold=threshold, gamma=gamma))
    assert states_equal_bits(res.terminal, oracle.terminal)
    assert res.report.final_loss == oracle.losses[-1]
    # a round whose median error overflowed leaves the threshold as it was
    overflowed = [(r, nxt) for r, nxt in zip(res.records, res.records[1:])
                  if r.err_med == float("inf")]
    assert overflowed
    assert all(nxt.threshold == r.threshold for r, nxt in overflowed)
    json.loads(res.report.to_json(), parse_constant=lambda name: pytest.fail(name))


def test_adaptive_guidance_reproducible_for_fixed_workers():
    rule = quad_rule(T=80, kind="adaptive_guidance", noise=0.1)
    for workers in (2, 3):
        runs = [run(rule, EngineSettings(window=7, workers=workers, threshold=1e-6,
                                         gamma=0.9)) for _ in range(2)]
        assert [r.csv_line() for r in runs[0].records] == [r.csv_line() for r in runs[1].records]
        assert po.state_checksum(runs[0].terminal) == po.state_checksum(runs[1].terminal)


def test_a_reused_pool_gives_a_fresh_pools_bits():
    # Lane predictors and the dispatch index start over with each run.
    rule = quad_rule(T=40, kind="adaptive_guidance", noise=0.1)
    settings = EngineSettings(window=3, workers=2)
    with WorkerPool(2) as pool:
        runs = [run(rule, settings, pool) for _ in range(2)]
    fresh = run(rule, settings)
    assert {po.state_checksum(r.terminal) for r in runs} == {po.state_checksum(fresh.terminal)}


def test_a_reused_pools_report_counts_its_own_run():
    # The run resets the pool, so the report's counters are the pool's.
    rule = quad_rule(T=30, noise=0.1)
    settings = EngineSettings(window=5, workers=2, injected_cost_ms=2.0)
    fresh = run(rule, settings).report
    with WorkerPool(2, injected_cost_ms=2.0) as pool:
        for _ in range(2):
            report = run(rule, settings, pool).report
            counters = pool.timing_report()
            assert report.worker_busy_ms == counters["busy_ms"]
            assert report.drift_wait_ms == counters["wait_ms"]
            assert report.drift_evals == sum(counters["drifts_served"]) == fresh.drift_evals


class FailsAtSeed9(po.problems.QuadraticProblem):
    """A quadratic whose gradient fails at seed 9, so it declares it reads the
    seed; it appends the seed of every call to ``calls``."""

    seed_free = False
    calls: list[int]

    def grad(self, values, seed):
        self.calls.append(seed)
        if seed == 9:
            raise po.ObjectiveError("gradient failed at seed 9")
        return super().grad(values, seed)


def test_aborted_run_counts_every_drift_served():
    # Drifts served in the failing round and prefetched for it count, and so
    # do those that raise.  At threshold 0 each round skips one step and runs
    # five drifts; rounds 6 to 9 end at the failing drift at step 9, and
    # round 10, anchored there, fails.
    problem = FailsAtSeed9(dim=4)
    problem.calls = []
    rule = make_rule("sgd", problem, 0.1, total_steps=30)
    with WorkerPool(2) as pool:
        with pytest.raises(po.ObjectiveError) as exc:
            run(rule, EngineSettings(window=5, workers=2, threshold=0.0), pool)
        served = sum(pool.timing_report()["drifts_served"])
    assert problem.calls.count(9) == 5 and exc.value.partial.report.rounds == 9
    assert exc.value.partial.report.drift_evals == served == len(problem.calls) == 50


# --- shared drifts --------------------------------------------------------------


class SeededQuadratic(po.problems.QuadraticProblem):
    """A quadratic that declares its gradient seed-dependent, so no slot shares."""

    seed_free = False


def served_run(rule, settings):
    with WorkerPool(settings.workers) as pool:
        res = run(rule, settings, pool)
        return res, sum(pool.timing_report()["drifts_served"])


@pytest.mark.parametrize("kind,cls,control,eta", [
    ("adam", po.problems.QuadraticProblem, SeededQuadratic, 0.05),
], ids=["quadratic-adam"])
def test_clones_share_drifts_with_the_same_bits(kind, cls, control, eta):
    # The control declares the same drift seed-dependent, so it shares none.
    settings = EngineSettings(window=7, workers=2)
    results = []
    for problem_cls in (cls, control):
        rule = make_rule(kind, problem_cls(dim=1000), eta, total_steps=300)
        assert rule.step_invariant == (problem_cls is cls)
        results.append(served_run(rule, settings))
    (shared, shared_served), (own, own_served) = results
    assert po.telemetry.rounds_csv_text(shared.records) == po.telemetry.rounds_csv_text(own.records)
    assert po.state_checksum(shared.terminal) == po.state_checksum(own.terminal)
    assert shared_served < own_served
    assert shared_served == shared.report.drift_evals
    assert own_served == own.report.drift_evals


def test_euler_ode_shares_drifts_on_a_noisy_problem():
    # ode_drift reads no seed, so noise changes no drift of euler_ode: its
    # clones share drifts at any noise, with the same rounds and bits.
    settings = EngineSettings(window=7, workers=2)
    results = []
    for noise in (0.0, 0.1):
        rule = make_rule("euler_ode", po.make_problem("linear_ode", noise=noise), 1.0, 300)
        assert rule.step_invariant
        results.append(served_run(rule, settings))
    (quiet, quiet_served), (noisy, noisy_served) = results
    assert po.telemetry.rounds_csv_text(quiet.records) == po.telemetry.rounds_csv_text(noisy.records)
    assert po.state_checksum(quiet.terminal) == po.state_checksum(noisy.terminal)
    assert quiet_served == noisy_served == quiet.report.drift_evals == noisy.report.drift_evals


SPLIT_PRUNE = [ScheduleAction(3, "split", (0,)), ScheduleAction(9, "prune", (1,)),
               ScheduleAction(10, "split", (1,)), ScheduleAction(17, "split", (0, 2)),
               ScheduleAction(25, "prune", (3, 0))]


def points_at(rule, step):
    """The schedule's point count at ``step``: the initial count plus the
    change of every action that fired before it."""
    return rule.problem.initial_dim_tag() + sum(a.delta for a in rule.schedule if a.step < step)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("threshold,gamma", [(0.0, 1.0), (1e-6, 0.9)])
def test_every_window_slot_has_its_steps_point_count(threshold, gamma, workers):
    rule = make_rule("split_prune_sgd", po.make_problem("splat2d", points=2, data_seed=5), 0.01,
                     total_steps=30, schedule=SPLIT_PRUNE)
    wrong = []

    def observer(accepted, window):
        wrong.extend((s.step, s.dim_tag, s.dim) for s in window
                     if s.dim_tag != points_at(rule, s.step) or s.dim != 4 * s.dim_tag)

    res = run(rule, EngineSettings(window=7, workers=workers, threshold=threshold, gamma=gamma),
              observer=observer)
    assert res.report.rounds > 1 and wrong == []


ADAM_SCHEDULE = [ScheduleAction(60, "split", (0,)), ScheduleAction(120, "split", (1,)),
                 ScheduleAction(180, "split", (2,)), ScheduleAction(240, "prune", (1,))]


@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("workers,window", [(2, 7), (4, 3)])
def test_adam_with_a_schedule_is_exact_at_threshold_zero(workers, window, noise):
    # Splats trained with Adam while points split and prune: the moments are
    # carried through each action, and the terminal state is the oracle's.
    rule = make_rule("adam", po.make_problem("splat2d", points=2, noise=noise), 0.01,
                     total_steps=300, schedule=ADAM_SCHEDULE)
    oracle, _ = po.solve_sequential(rule)
    res = run(rule, EngineSettings(window=window, workers=workers, threshold=0.0, gamma=1.0))
    assert res.report.rounds < 300
    assert res.terminal.dim_tag == oracle.terminal.dim_tag == 4
    assert res.terminal.step == oracle.terminal.step == 300
    assert states_equal_bits(res.terminal, oracle.terminal)


def test_clones_share_one_array_between_actions():
    # Slots carried across no action are one values array, so a step-invariant
    # drift is run once for them; a slot carried past an action has a new one.
    rule = make_rule("split_prune_sgd", po.make_problem("splat2d", points=2, data_seed=4), 0.01,
                     total_steps=20, schedule=[ScheduleAction(5, "split", (0,)),
                                               ScheduleAction(7, "prune", (1,))])
    assert rule.step_invariant
    anchor = ParamState(3, rule.problem.initial_values(), 2)
    w = advance_window([anchor], skip=6, rule=rule)
    assert [s.step for s in w] == list(range(3, 10))
    assert [s.dim_tag for s in w] == [2, 2, 2, 3, 3, 2, 2]
    arrays = [s.values for s in w]
    assert arrays[0] is arrays[1] is arrays[2]
    assert arrays[3] is arrays[4] and arrays[5] is arrays[6]
    assert len({id(a) for a in arrays}) == 3
    np.testing.assert_array_equal(arrays[3], apply_action(anchor.values, rule.schedule[0], 4))
    np.testing.assert_array_equal(arrays[5], apply_action(arrays[3], rule.schedule[1], 4))
    with WorkerPool(2) as pool:
        for future in pool.gather_drifts(rule, w):
            pool.result(future)
        assert sum(pool.timing_report()["drifts_served"]) == 3


@pytest.mark.parametrize("rule", [
    quad_rule(T=60, kind="adam", eta=0.05, noise=0.1),
    quad_rule(T=60, kind="adaptive_guidance"),
    quad_rule(T=60, noise=0.1),
])
def test_no_sharing_without_a_step_invariant_drift(rule):
    assert not rule.step_invariant
    res, served = served_run(rule, EngineSettings(window=5, workers=2))
    assert served == res.report.drift_evals == sum(min(5, 60 - r.base_step) for r in res.records)


class Boom(DecayOde):
    """A seed-free objective whose gradient always fails."""

    def grad(self, values, seed):
        raise po.ObjectiveError(f"objective failed at seed {seed}")


def test_shared_slots_raise_their_sources_error(tmp_path, monkeypatch, capsys):
    rule = make_rule("sgd", Boom(), 0.1, total_steps=10)
    theta0 = initial_state(rule)
    states = [theta0] + [with_step(theta0, j) for j in (1, 2, 3)]
    with WorkerPool(2) as pool:
        futures = pool.gather_drifts(rule, states)
        assert all(f is futures[0] for f in futures)
        errors = []
        for f in futures:
            with pytest.raises(po.ObjectiveError, match="seed 0") as exc:
                pool.result(f)
            errors.append(exc.value)
        assert all(e is errors[0] for e in errors)
    # through the CLI: exit 3 with a partial report
    monkeypatch.setitem(po.problems.PROBLEM_KINDS, "boom", Boom)
    code = cli.main(["run", "--problem", "boom", "--rule", "sgd", "--step-size", "0.1",
                     "--steps", "10", "--window", "3", "--workers", "2", "--out", str(tmp_path)])
    assert code == 3 and "objective failed" in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["partial"] is True and report["rounds"] == 0
    assert (tmp_path / "abort_window.bin").exists()


# --- fixed_point_distance and BLAS threads -------------------------------------


def test_distance_small_dim_equals_plain_dot():
    rng = np.random.default_rng(5)
    for d in (1, 4, 1000, 8192):
        a, b = rng.standard_normal(d), rng.standard_normal(d)
        got = fixed_point_distance(ParamState(0, a, d), ParamState(0, b, d))
        assert got == float(np.dot(a - b, a - b)) / d


DISTANCE_BITS = """
import numpy as np
import picardopt as po
from picardopt.engine import fixed_point_distance
n = 100_000
zero = po.ParamState(1, np.zeros(n), n)
for seed in range(10):
    x = np.random.default_rng(seed).standard_normal(n)
    print(fixed_point_distance(po.ParamState(1, x, n), zero).hex())
"""


def test_distance_bits_independent_of_blas_threads():
    import os
    import subprocess
    import sys

    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", DISTANCE_BITS], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        outs.append(done.stdout)
    assert outs[0] == outs[1]


# --- working set ------------------------------------------------------------------


def test_accepted_states_are_freed_before_the_next_round(monkeypatch):
    # A frozen, huge threshold accepts every window whole: each round rolls
    # past its anchor and its new slots 1..p-1, which leave the window, so
    # the next window (based at slot p) holds none of them.  They are gone
    # when the round returns, and so still when the next one starts.
    rule = quad_rule(dim=1000, T=40)
    settings = EngineSettings(window=5, workers=2, threshold=1e9, gamma=1.0)
    accepted: list[weakref.ref] = []
    rolled: list[weakref.ref] = []
    alive_at_end, alive_at_start = [], []

    def watched_rollout(rule, payload, state):
        out = rollout_one(rule, payload, state)
        rolled.append(weakref.ref(out))
        return out

    def watched(window, rule, pool, threshold, kept=None):
        alive_at_start.append(sum(ref() is not None for ref in accepted))
        rolled.clear()
        anchor = weakref.ref(window[0])
        errors = picard_round(window, rule, pool, threshold, kept)
        skip = compute_skip(errors, threshold)
        assert len(rolled) == skip and rolled[-1]() is window[0]
        accepted[:] = [anchor] + rolled[:-1]
        alive_at_end.append(sum(ref() is not None for ref in accepted))
        return errors

    monkeypatch.setattr(engine_mod, "rollout_one", watched_rollout)
    monkeypatch.setattr(engine_mod, "picard_round", watched)
    res = run(rule, settings)
    assert res.report.rounds == 8 and set(res.report.skip_histogram) == {5}
    assert alive_at_end == [0] * 8
    assert alive_at_start == [0] * 8


@pytest.mark.parametrize("threshold,gamma,noise", [(0.0, 1.0, 0.0), (1e-6, 0.9, 0.1),
                                                   (1e9, 1.0, 0.0)])
def test_a_round_holds_only_what_a_later_step_reads(monkeypatch, threshold, gamma, noise):
    # Adam, no observer.  At each rollout, every state rolled from or out so
    # far with a step behind the state being rolled from is gone, unless it
    # is the window's anchor: the accepted states left the window as the
    # round rolled past them, and a guess keeps only the values of the full
    # state it was cut from.  One lane, so a finished drift's input is let
    # go before the next drift is served.
    rule = quad_rule(dim=1000, T=40, kind="adam", eta=0.02, noise=noise)
    settings = EngineSettings(window=5, workers=1, threshold=threshold, gamma=gamma)
    windows: list[list[ParamState]] = []
    seen: list[tuple[int, weakref.ref]] = []
    behind, alive, moments = [], [], []

    def only_the_anchor_has_moments(window):
        return (window[0].moments is not None
                and all(s.moments is None for s in window[1:]))

    def watched_rollout(rule, payload, state):
        front = windows[0][0]
        refs = [ref for step, ref in seen if step < state.step]
        behind.append(len(refs))
        alive.append(sum(ref() is not None and ref() is not front for ref in refs))
        out = rollout_one(rule, payload, state)
        seen.extend([(state.step, weakref.ref(state)), (out.step, weakref.ref(out))])
        return out

    def watched(window, rule, pool, threshold, accepted=None):
        assert accepted is None
        windows[:] = [window]
        moments.append(only_the_anchor_has_moments(window))
        errors = picard_round(window, rule, pool, threshold, accepted)
        moments.append(only_the_anchor_has_moments(window))
        return errors

    monkeypatch.setattr(engine_mod, "rollout_one", watched_rollout)
    monkeypatch.setattr(engine_mod, "picard_round", watched)
    res = run(rule, settings)
    assert len(alive) == sum(min(5, 40 - r.base_step) for r in res.records)
    assert sum(behind) > len(behind) and not any(alive)
    assert len(moments) == 2 * res.report.rounds and all(moments)
    ref = run(rule, settings)  # unwatched: the same bits
    assert po.state_checksum(res.terminal) == po.state_checksum(ref.terminal)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("problem,settings,eta", [
    ("quadratic", dict(dim=20), 0.02),
    ("tiny_mlp", dict(noise=0.5), 0.01),
])
def test_observer_gets_the_oracles_states_with_moments(problem, settings, eta, workers):
    rule = make_rule("adam", po.make_problem(problem, **settings), eta, total_steps=60)
    traj = sequential_trajectory(rule)
    got, guesses = [], []

    def observer(accepted, window):
        got.extend(accepted)
        assert window[0] is accepted[-1]
        guesses.extend(s.moments is None for s in window[1:])

    res = run(rule, EngineSettings(window=7, workers=workers, threshold=0.0), observer=observer)
    assert res.report.rounds < 60
    assert [s.step for s in got] == list(range(61))
    assert all(s.moments is not None for s in got)
    assert all(map(states_equal_bits, got, traj.states))
    assert guesses and all(guesses)  # the window's guesses carry no moments


def test_consumed_drifts_are_freed_slot_by_slot(monkeypatch):
    # Noise > 0: no slot shares a drift.  One lane: the lane has let go of
    # drift j by the time drift j + 1, which it runs next, has arrived.
    rule = quad_rule(dim=1000, T=40, noise=0.1)
    settings = EngineSettings(window=5, workers=1, threshold=1e-6, gamma=0.9)
    previous: list[weakref.ref] = []
    alive = []

    def watched(rule, payload, state):
        alive.extend(ref() is not None for ref in previous)
        previous[:] = [weakref.ref(payload)]
        return rollout_one(rule, payload, state)

    monkeypatch.setattr(engine_mod, "rollout_one", watched)
    res = run(rule, settings)
    assert len(alive) == sum(min(5, 40 - r.base_step) for r in res.records) - 1
    assert not any(alive)


def test_replaced_guesses_are_freed_slot_by_slot(monkeypatch):
    # Noise > 0: no slot shares a drift.  One lane: slot j's guess is gone,
    # from the window and from the lane that ran its drift, by the time slot
    # j + 1's error is measured, in this round or as the next round's slot 1.
    rule = quad_rule(dim=1000, T=40, noise=0.1)
    settings = EngineSettings(window=5, workers=1, threshold=1e-6, gamma=0.9)
    previous: list[weakref.ref] = []
    alive = []

    def watched(new, old):
        alive.extend(ref() is not None for ref in previous)
        previous[:] = [weakref.ref(old)]
        return fixed_point_distance(new, old)

    monkeypatch.setattr(engine_mod, "fixed_point_distance", watched)
    res = run(rule, settings)
    assert len(alive) == sum(min(5, 40 - r.base_step) for r in res.records) - 1
    assert not any(alive)


def test_shared_drifts_are_freed_after_their_last_slot(monkeypatch):
    # Noise 0: slots holding clones of one state share its drift.  A payload
    # lives until the last slot sharing it is rolled out; by the time another
    # drift, run later on the one lane, is rolled out (in this round or as
    # the next round's slot 0), it is gone.
    rule = quad_rule(dim=1000, T=40)
    settings = EngineSettings(window=5, workers=1, threshold=1e-6, gamma=0.9)
    rolled: list[weakref.ref] = []
    shared, stale = [], []

    def watched(rule, payload, state):
        shared.append(sum(ref() is payload for ref in rolled))
        stale.append(sum(ref() is not None and ref() is not payload for ref in rolled))
        rolled.append(weakref.ref(payload))
        return rollout_one(rule, payload, state)

    monkeypatch.setattr(engine_mod, "rollout_one", watched)
    res = run(rule, settings)
    assert len(rolled) == sum(min(5, 40 - r.base_step) for r in res.records)
    assert shared[:5] == [0, 1, 2, 3, 4]  # the first window holds clones of the initial state
    assert not any(stale)


def test_a_wide_adam_solve_peaks_under_sixteen_arrays():
    # At its peak a solve holds the window's p + 1 = 8 values arrays, three
    # moment pairs (the anchor, the state rolled from and its successor) and
    # the Adam apply's scratch array: 15 arrays of 8·d bytes, plus a
    # finiteness mask or two of d bytes, whichever lanes are busy.  A drift
    # of the identity gradient holds none: its payload is its state's
    # values.  The first solve warms up what a process builds once.
    d = 50_000
    rule = quad_rule(dim=d, T=60, kind="adam")
    settings = EngineSettings(window=7, workers=2, threshold=1e-6)
    run(rule, settings)
    tracemalloc.start()
    try:
        run(rule, settings)
        arrays = tracemalloc.get_traced_memory()[1] / (8 * d)
    finally:
        tracemalloc.stop()
    assert arrays < 16, f"tracemalloc peak {arrays:.2f} arrays of 8·d bytes"


# --- the freed heap -----------------------------------------------------------


def test_keep_freed_heap_sets_both_thresholds_once_per_process(mallopt_calls):
    for _ in range(2):
        run(quad_rule(kind="adam", T=5), EngineSettings(window=2, workers=1))
    keep_freed_heap()
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h.
    assert mallopt_calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_keep_freed_heap_without_mallopt_does_nothing(mallopt_calls, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    run(quad_rule(kind="adam", T=5), EngineSettings(window=2, workers=1))
    assert mallopt_calls == []


@pytest.mark.parametrize("name, value", [
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1048576"),
    ("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=512:glibc.malloc.arena_max=2"),
    ("MALLOC_TRIM_THRESHOLD_", "1048576"),
    ("MALLOC_TOP_PAD_", "0"),
])
def test_keep_freed_heap_leaves_set_tunables_alone(mallopt_calls, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    keep_freed_heap()
    assert mallopt_calls == []


def test_keep_freed_heap_ignores_other_tunables(mallopt_calls, monkeypatch):
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=512")
    keep_freed_heap()
    assert len(mallopt_calls) == 2


HEAP_FAULTS = """
import resource
import picardopt as po
from picardopt.engine import EngineSettings, run
rule = po.make_rule("adam", po.make_problem("quadratic", dim=100_000), 0.05, total_steps=60)
settings = EngineSettings(window=7, workers=2)
run(rule, settings)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(rule, settings)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator only")
def test_wide_adam_run_reuses_the_freed_heap():
    # Without the helper each round gives the freed top of the heap back and
    # the next round's 0.8 MB arrays fault in fresh pages: about 15,000 to
    # 19,000 minor faults for this run on glibc 2.36.
    import os
    import subprocess
    import sys

    env = {name: value for name, value in os.environ.items()
           if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"}
    done = subprocess.run([sys.executable, "-c", HEAP_FAULTS], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert int(done.stdout) < 2000
