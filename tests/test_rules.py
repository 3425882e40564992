import tracemalloc

import numpy as np
import pytest
from conftest import DecayOde, naive_adam, naive_carry_moment, naive_euler, naive_sgd

import picardopt as po
from picardopt.errors import ArgumentError, DimensionError, PoisonedDrift
from picardopt.rules import (carried, drift, initial_state, make_rule, rollout_one,
                             sequential_step)
from picardopt.schedule import ScheduleAction, split_offset
from picardopt.state import MomentState, ParamState


def quad(dim=2, noise=0.0, seed=0):
    return po.make_problem("quadratic", dim=dim, data_seed=seed, noise=noise)


def test_euler_drift_linear():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    d = drift(rule, ParamState(0, np.array([1.0]), 1), seed=0)
    np.testing.assert_array_equal(d.payload, [-1.0])


def test_sgd_drift_is_gradient():
    rule = make_rule("sgd", quad(), 0.1, total_steps=10)
    d = drift(rule, ParamState(0, np.array([3.0, -4.0]), 2), seed=0)
    np.testing.assert_array_equal(d.payload, [3.0, -4.0])


@pytest.mark.parametrize("kind", ["quadratic", "linear_ode"])
def test_an_identity_gradients_drift_is_its_states_values(kind):
    # At noise 0 the gradient is the values themselves: the drift's payload
    # is the state's read-only array, so the drift allocates far less than
    # a copy's 8·d bytes.
    n = 100_000
    rule = make_rule("sgd", po.make_problem(kind, dim=n), 0.1, total_steps=10)
    state = initial_state(rule)
    tracemalloc.start()
    try:
        d = drift(rule, state, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.payload is state.values
    assert not d.payload.flags.writeable
    assert peak < 8 * n, f"tracemalloc peak {peak} B"


def test_a_drifts_finiteness_check_allocates_no_mask():
    # The payload is checked through its minimum and maximum, not through a
    # mask of d bytes.
    n = 100_000
    rule = make_rule("sgd", quad(dim=n), 0.1, total_steps=10)
    state = initial_state(rule)
    tracemalloc.start()
    try:
        drift(rule, state, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n // 10, f"tracemalloc peak {peak} B"


def test_drift_deterministic_for_same_seed():
    prob = po.make_problem("stochastic_lsq", dim=4, data_seed=1, noise=0.75)
    rule = make_rule("sgd", prob, 0.1, total_steps=10)
    s = ParamState(3, np.array([0.5, -0.5, 1.0, 0.0]), 4)
    a = drift(rule, s, seed=3)
    b = drift(rule, s, seed=3)
    c = drift(rule, s, seed=4)
    assert a.payload.tobytes() == b.payload.tobytes()
    assert a.payload.tobytes() != c.payload.tobytes()


def test_drift_rejects_horizon_overrun():
    rule = make_rule("sgd", quad(), 0.1, total_steps=4)
    with pytest.raises(ValueError):
        drift(rule, ParamState(4, np.zeros(2), 2), seed=4)


def test_poisoned_drift_identifies_step_and_seed():
    prob = po.make_problem("rosenbrock", dim=4)
    rule = make_rule("sgd", prob, 0.1, total_steps=10)
    with pytest.raises(PoisonedDrift) as exc:
        drift(rule, ParamState(2, np.full(4, 1e200), 4), seed=2)
    assert exc.value.step == 2
    assert exc.value.seed == 2


def test_adam_zero_gradient_fixed_point():
    rule = make_rule("adam", quad(), 0.1, total_steps=10)
    s = ParamState(0, np.array([1.0, -2.0]), 2, MomentState.zeros(2))
    out = rollout_one(rule, np.zeros(2), s)
    np.testing.assert_array_equal(out.values, s.values)
    assert out.step == 1 and not out.moments.m1.any() and not out.moments.m2.any()


def test_adam_first_step_hand_derived():
    # beta1=0.9, beta2=0.999, eps=1e-8, eta=0.1, g=1: theta' = theta - 0.1/(1+1e-8)
    rule = make_rule("adam", quad(dim=1), 0.1, total_steps=10)
    s = ParamState(0, np.array([0.5]), 1, MomentState.zeros(1))
    out = rollout_one(rule, np.array([1.0]), s)
    assert out.values[0] == pytest.approx(0.5 - 0.0999999990, abs=1e-12)
    assert out.step == 1
    np.testing.assert_allclose(out.moments.m1, [0.1])
    np.testing.assert_allclose(out.moments.m2, [0.001])


def test_adam_matches_naive_bitwise():
    rng = np.random.default_rng(7)
    rule = make_rule("adam", quad(dim=6), 0.03, total_steps=100)
    v = rng.standard_normal(6)
    m1 = rng.standard_normal(6)
    m2 = np.abs(rng.standard_normal(6))
    g = rng.standard_normal(6)
    for t_prev in (0, 1, 17):  # the state's step is its moments' update count
        s = ParamState(t_prev, v, 6, MomentState(m1, m2))
        out = rollout_one(rule, g, s)
        ev, em1, em2, et = naive_adam(v, m1, m2, g, t_prev, 0.9, 0.999, 1e-8, 0.03)
        np.testing.assert_array_equal(out.values, ev)
        np.testing.assert_array_equal(out.moments.m1, em1)
        np.testing.assert_array_equal(out.moments.m2, em2)
        assert out.step == et


def test_adam_rollout_builds_its_moments_unscanned(monkeypatch):
    rule = make_rule("adam", quad(), 0.1, total_steps=10)
    s = ParamState(0, np.array([1.0, -2.0]), 2, MomentState.zeros(2))

    def rescan(self):
        raise AssertionError("MomentState.__post_init__ ran")

    monkeypatch.setattr(MomentState, "__post_init__", rescan)
    out = rollout_one(rule, np.array([0.5, -3.0]), s)
    m = out.moments
    assert type(m) is MomentState and out.step == 1
    assert not m.m1.flags.writeable and not m.m2.flags.writeable
    np.testing.assert_allclose(m.m2, [0.00025, 0.009])
    with pytest.raises(AttributeError):
        m.m1 = m.m2


def test_adam_rollout_with_nan_second_moment_is_poisoned():
    # beta2 = 0 with an inf second moment gives 0 * inf = NaN: the unscanned
    # moments pass it on, and the successor's NaN values reject it.
    rule = make_rule("adam", quad(), 0.1, total_steps=10, adam=po.AdamParams(beta2=0.0))
    s = ParamState(1, np.array([1.0, -2.0]), 2, MomentState(np.zeros(2), np.array([np.inf, 1.0])))
    with pytest.raises(PoisonedDrift):
        rollout_one(rule, np.array([0.5, -3.0]), s)


def test_adam_moments_monotone_over_run():
    rule = make_rule("adam", quad(dim=3), 0.05, total_steps=30)
    s = initial_state(rule)
    for tau in range(30):
        s2 = sequential_step(rule, s, tau)
        assert s2.step == s.step + 1
        assert np.all(s2.moments.m2 >= 0.0)
        s = s2


def test_sgd_rollout_matches_naive():
    rule = make_rule("sgd", quad(), 0.1, total_steps=10)
    s = ParamState(0, np.array([1.0, 2.0]), 2)
    out = rollout_one(rule, np.array([0.5, -0.5]), s)
    np.testing.assert_array_equal(out.values, naive_sgd(s.values, np.array([0.5, -0.5]), 0.1))


def test_euler_rollout_matches_naive():
    rule = make_rule("euler_ode", DecayOde(), 1.0, total_steps=4)
    s = ParamState(0, np.array([1.0]), 1)
    out = rollout_one(rule, np.array([-1.0]), s)
    np.testing.assert_array_equal(out.values, naive_euler(s.values, np.array([-1.0]), 4))
    assert out.values[0] == 0.75


def test_sequential_step_is_composition():
    prob = po.make_problem("stochastic_lsq", dim=5, data_seed=3, noise=0.75)
    rule = make_rule("sgd", prob, 0.05, total_steps=200)
    rng = np.random.default_rng(1)
    for trial in range(100):
        s = ParamState(trial % 100, rng.standard_normal(5), 5)
        direct = sequential_step(rule, s, trial)
        composed = rollout_one(rule, drift(rule, s, trial).payload, s)
        assert direct.values.tobytes() == composed.values.tobytes()


def test_sequential_sgd_geometric_decay():
    rule = make_rule("sgd", quad(dim=1), 0.1, total_steps=5)
    s = ParamState(0, np.array([1.0]), 1)
    for tau in range(5):
        s = sequential_step(rule, s, tau)
    assert s.values[0] == pytest.approx(0.9**5)


def test_pseudo_inverse_law_random_states():
    # rollout(drift(state), state) equals the direct update formula exactly
    rng = np.random.default_rng(5)
    prob = quad(dim=4)
    for kind, eta in (("sgd", 0.1), ("adam", 0.02)):
        rule = make_rule(kind, prob, eta, total_steps=500)
        for trial in range(100):
            v = rng.standard_normal(4)
            m = MomentState(rng.standard_normal(4), np.abs(rng.standard_normal(4))) \
                if kind == "adam" else None
            s = ParamState(trial, v, 4, m)
            g = prob.grad(v, trial)
            out = sequential_step(rule, s, trial)
            if kind == "sgd":
                expect = naive_sgd(v, g, eta)
            else:
                expect, _, _, _ = naive_adam(v, m.m1, m.m2, g, trial, 0.9, 0.999, 1e-8, eta)
            np.testing.assert_array_equal(out.values, expect)


# --- dimension-changing rule ------------------------------------------------


def splat_rule(T=100, schedule=()):
    prob = po.make_problem("splat2d", data_seed=4, points=2)
    return prob, make_rule("split_prune_sgd", prob, 3e-4, total_steps=T, schedule=schedule)


def test_split_rollout_appends_offset_child():
    prob, rule = splat_rule(schedule=[ScheduleAction(3, "split", (0,))])
    v = prob.initial_values()
    s = ParamState(3, v, 2)
    out = rollout_one(rule, np.zeros(8), s)
    assert out.dim_tag == 3
    assert len(out.values) == 12
    np.testing.assert_array_equal(out.values[:8], v)
    np.testing.assert_allclose(out.values[8:], v[:4] + split_offset(0, 4))


def test_prune_rollout_removes_point():
    prob, rule = splat_rule(schedule=[ScheduleAction(3, "prune", (0,))])
    v = prob.initial_values()
    out = rollout_one(rule, np.zeros(8), ParamState(3, v, 2))
    assert out.dim_tag == 1
    np.testing.assert_array_equal(out.values, v[4:])


def test_rollout_dimension_mismatch_raises():
    prob, rule = splat_rule()
    with pytest.raises(DimensionError):
        rollout_one(rule, np.zeros(4), ParamState(0, prob.initial_values(), 2))


def test_split_prune_sgd_is_a_spelling_of_sgd():
    prob, rule = splat_rule(schedule=[ScheduleAction(3, "split", (0,))])
    assert rule.kind == "sgd" and "split_prune_sgd" not in po.RULE_KINDS
    assert rule == make_rule("sgd", prob, 3e-4, total_steps=100, schedule=rule.schedule)


def test_adam_rollout_carries_its_moments_through_the_schedule():
    prob = po.make_problem("splat2d", data_seed=4, points=2)
    split, prune = ScheduleAction(3, "split", (0,)), ScheduleAction(4, "prune", (0,))
    rule = make_rule("adam", prob, 0.01, total_steps=10, schedule=[split, prune])
    rng = np.random.default_rng(0)
    m = MomentState(rng.standard_normal(8), rng.random(8))
    g = rng.standard_normal(8)
    out = rollout_one(rule, g, ParamState(3, prob.initial_values(), 2, m))
    v, m1, m2, t = naive_adam(prob.initial_values(), m.m1, m.m2, g, 3, 0.9, 0.999, 1e-8, 0.01)
    assert (out.dim_tag, out.step) == (3, t)
    np.testing.assert_array_equal(out.values[:8], v)
    np.testing.assert_array_equal(out.moments.m1, naive_carry_moment(m1, split, 4))
    np.testing.assert_array_equal(out.moments.m2, naive_carry_moment(m2, split, 4))
    after = rollout_one(rule, np.zeros(12), out)
    assert (after.dim_tag, after.dim, len(after.moments.m1)) == (2, 8, 8)


def test_a_guess_crosses_an_action_as_a_rollout_does():
    # The premise of exactness at threshold 0: at an action's step, the guess
    # carried on from a state is that state's rollout under a zero drift;
    # between actions it shares the state's values array, and so its drift.
    prob, rule = splat_rule(T=12, schedule=[ScheduleAction(3, "split", (1,)),
                                            ScheduleAction(7, "prune", (0,))])
    s = initial_state(rule)
    for step in range(rule.total_steps):
        guess = carried(rule, s)
        assert (guess.step, guess.moments) == (step + 1, None)
        if step in (3, 7):
            rolled = rollout_one(rule, np.zeros(s.dim), s)
            assert guess.values.tobytes() == rolled.values.tobytes()
            assert guess.dim_tag == rolled.dim_tag != s.dim_tag
        else:
            assert guess.values is s.values and guess.dim_tag == s.dim_tag
        s = sequential_step(rule, s, seed=step)


@pytest.mark.parametrize("steps", [2.5, 3.0, "3", 0])
def test_total_steps_is_an_integer_of_at_least_one(steps):
    with pytest.raises(ArgumentError, match="total_steps must be an integer >= 1") as exc:
        make_rule("sgd", quad(), 0.1, steps)
    assert exc.value.argument == "total_steps"


@pytest.mark.parametrize("kind,problem", [("euler_ode", "linear_ode"),
                                          ("adaptive_guidance", "splat2d")])
def test_a_schedule_is_only_for_sgd_and_adam(kind, problem):
    with pytest.raises(ArgumentError, match="only valid for sgd and adam") as exc:
        make_rule(kind, po.make_problem(problem), 0.1, 10,
                  schedule=[ScheduleAction(1, "split", (0,))])
    assert exc.value.argument == "schedule"


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_a_schedule_needs_a_problem_of_points(kind):
    with pytest.raises(ArgumentError, match="fixed size") as exc:
        make_rule(kind, quad(), 0.1, 10, schedule=[ScheduleAction(1, "split", (0,))])
    assert exc.value.argument == "schedule"


def test_rule_validation():
    prob = quad()
    with pytest.raises(ValueError):
        make_rule("sgd", prob, 0.1, 10, adam=po.AdamParams())
    with pytest.raises(ValueError):
        make_rule("adam", prob, 0.1, 10, schedule=[ScheduleAction(1, "split", (0,))])
    with pytest.raises(ValueError):
        make_rule("euler_ode", prob, 1.0, 10)  # quadratic has no ODE drift
    with pytest.raises(ValueError):
        make_rule("sgd", prob, -0.1, 10)


def test_adaptive_guidance_uses_and_updates_aux():
    prob = quad(dim=3)
    rule = make_rule("adaptive_guidance", prob, 0.1, total_steps=10)
    aux = po.AuxModel()
    s = ParamState(0, np.array([1.0, 2.0, 3.0]), 3)
    d1 = drift(rule, s, 0, aux=aux)
    np.testing.assert_array_equal(d1.payload, s.values)  # first prediction is zero
    np.testing.assert_allclose(aux.ema_grad, 0.05 * s.values)
    d2 = drift(rule, s, 0, aux=aux)
    np.testing.assert_allclose(d2.payload, s.values - 0.05 * s.values)
    with pytest.raises(ValueError):
        drift(rule, s, 0)  # aux required
