import math
import threading
import time

import numpy as np
import pytest

import picardopt as po
from picardopt.pool import WorkerPool
from picardopt.rules import AuxModel, make_rule
from picardopt.state import ParamState, with_step


def quad_rule(T=100, kind="sgd", noise=0.0):
    prob = po.make_problem("quadratic", dim=4, data_seed=0, noise=noise)
    return make_rule(kind, prob, 0.1, total_steps=T)


def states_for(rule, n, start=0):
    rng = np.random.default_rng(3)
    return [ParamState(start + j, rng.standard_normal(4), 4) for j in range(n)]


def drifts_of(pool, rule, states):
    """Each slot's drift, gathered and read through ``pool.result`` in slot order."""
    return [pool.result(f) for f in pool.gather_drifts(rule, states)]


class LaneRecording(po.problems.QuadraticProblem):
    """A quadratic whose gradient records, by seed, the thread that ran it."""

    def __init__(self):
        super().__init__(dim=4)
        self.threads = {}

    def grad(self, values, seed):
        self.threads[seed] = threading.current_thread().name
        return super().grad(values, seed)


def test_round_robin_assignment():
    # the lane is the dispatch index (counted over the pool's life) mod
    # workers; lane w is one thread, named picardopt-lane{w}_0
    problem = LaneRecording()
    rule = make_rule("sgd", problem, 0.1, total_steps=100)
    with WorkerPool(4) as pool:
        drifts_of(pool, rule, states_for(rule, 7))
        first = [problem.threads[seed] for seed in range(7)]
        drifts_of(pool, rule, states_for(rule, 3, start=7))
        second = [problem.threads[seed] for seed in range(7, 10)]
    assert first == [f"picardopt-lane{w}_0" for w in (0, 1, 2, 3, 0, 1, 2)]
    assert second == [f"picardopt-lane{w}_0" for w in (3, 0, 1)]


def test_worker_ids_follow_assignment():
    # a fresh pool puts state i on lane i mod workers, whatever the count
    problem = LaneRecording()
    rule = make_rule("sgd", problem, 0.1, total_steps=100)
    with WorkerPool(3) as pool:
        drifts_of(pool, rule, states_for(rule, 7))
    lanes = [problem.threads[seed] for seed in range(7)]
    assert lanes == [f"picardopt-lane{w}_0" for w in (0, 1, 2, 0, 1, 2, 0)]


def test_results_ordered_by_step_with_correct_seeds():
    # slot j's payload is its state's gradient under seed step + seed_offset
    rule = quad_rule(noise=0.1)
    states = states_for(rule, 5, start=20)
    with WorkerPool(3, seed_offset=11) as pool:
        drifts = drifts_of(pool, rule, states)
    for s, d in zip(states, drifts, strict=True):
        assert d.payload.tobytes() == rule.problem.grad(s.values, s.step + 11).tobytes()


def test_purity_across_worker_counts():
    rule = quad_rule(noise=0.1)
    states = states_for(rule, 8)
    payloads = []
    for n in (1, 8):
        with WorkerPool(n) as pool:
            payloads.append(b"".join(d.payload.tobytes() for d in drifts_of(pool, rule, states)))
    assert payloads[0] == payloads[1]


def test_failure_surfaces_smallest_slot():
    prob = po.make_problem("rosenbrock", dim=4, noise=0.1)
    rule = make_rule("sgd", prob, 0.1, total_steps=100)
    good = ParamState(0, np.ones(4), 4)
    bad1 = ParamState(1, np.full(4, 1e200), 4)
    bad2 = ParamState(2, np.full(4, 1e200), 4)
    with WorkerPool(2, seed_offset=3) as pool:
        futures = pool.gather_drifts(rule, [good, bad1, bad2])
        assert pool.result(futures[0]).payload.tobytes() == prob.grad(good.values, 3).tobytes()
        with pytest.raises(po.PoisonedDrift) as exc:
            [pool.result(f) for f in futures]
        assert futures[1].exception() is exc.value
        assert futures[2].exception().step == 2
    assert exc.value.step == 1


def test_busy_time_accounts_injected_cost():
    rule = quad_rule()
    with WorkerPool(1, injected_cost_ms=5.0) as pool:
        drifts_of(pool, rule, states_for(rule, 6))
        report = pool.timing_report()
    assert report["drifts_served"] == [6]
    assert report["busy_ms"][0] >= 6 * 5.0 * 0.9


def test_reset_starts_the_counters_at_zero():
    rule = quad_rule()
    with WorkerPool(2, injected_cost_ms=1.0) as pool:
        fresh = pool.timing_report()
        drifts_of(pool, rule, states_for(rule, 4))
        assert sum(pool.timing_report()["drifts_served"]) == 4
        pool.reset()
        assert pool.timing_report() == fresh == {
            "busy_ms": [0.0, 0.0], "drifts_served": [0, 0], "wait_ms": 0.0}


def test_balanced_workload_busy_ratio():
    # 16 drifts of at least 5 ms over 4 lanes: each lane serves 4, so it is
    # busy for at least 20 ms, and only while the two gathers run.  (How
    # evenly the host schedules the sleeps is not the pool's to promise.)
    rule = quad_rule()
    with WorkerPool(4, injected_cost_ms=5.0) as pool:
        t0 = time.perf_counter()
        for _ in range(2):
            drifts_of(pool, rule, states_for(rule, 8))
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        report = pool.timing_report()
    assert report["drifts_served"] == [4, 4, 4, 4]
    assert all(4 * 5.0 <= busy <= wall_ms for busy in report["busy_ms"])


def test_aux_models_isolated_and_counted():
    rule = quad_rule(kind="adaptive_guidance")
    dispatched = []
    with WorkerPool(2) as pool:
        assert [aux.ema_grad for aux in pool.aux_models] == [0.0, 0.0]  # each lane has its own
        for r in range(2):
            states = states_for(rule, 5, start=5 * r)
            drifts_of(pool, rule, states)
            dispatched += states
    # 10 drifts in dispatch order over 2 lanes: the fifth slot of the first
    # gather goes to lane 0, the first slot of the second to lane 1.  Each
    # lane's predictor is the EMA of the gradients its lane served, in order.
    for lane in (0, 1):
        ema = np.zeros(4)
        for s in dispatched[lane::2]:
            ema = 0.95 * ema + (1 - 0.95) * rule.problem.grad(s.values, s.step)
        np.testing.assert_allclose(pool.aux_models[lane].ema_grad, ema, rtol=1e-12, atol=1e-15)


def test_aux_model_decay():
    aux = AuxModel()
    aux.update(np.array([1.0, 0.0]))
    aux.update(np.array([1.0, 0.0]))
    np.testing.assert_allclose(aux.ema_grad, [0.05 * 0.95 + 0.05, 0.0])


def test_distinct_steps_required():
    rule = quad_rule()
    s = states_for(rule, 1)[0]
    with WorkerPool(2) as pool:
        with pytest.raises(ValueError):
            pool.gather_drifts(rule, [s, with_step(s, s.step)])


def test_lanes_balanced_across_gathers():
    rule = quad_rule()
    with WorkerPool(2) as pool:
        for r in range(5):
            drifts_of(pool, rule, states_for(rule, 7, start=7 * r))
        served = pool.timing_report()["drifts_served"]
    assert sum(served) == 35
    assert max(served) - min(served) <= 1


def test_submitted_state_is_reused_by_gather():
    rule = quad_rule()
    states = states_for(rule, 4)
    with WorkerPool(2) as pool:
        early = pool.submit(rule, states[1])
        assert pool.submit(rule, states[1]) is early
        futures = pool.gather_drifts(rule, states)
        assert futures[1] is early
        drifts = [pool.result(f) for f in futures]
        assert drifts[1] is early.result()
        assert sum(pool.timing_report()["drifts_served"]) == 4
        # once gathered, the state is no longer in flight: a new gather recomputes
        drifts_of(pool, rule, states[:1])
        assert sum(pool.timing_report()["drifts_served"]) == 5


@pytest.mark.parametrize("noise,served", [(0.0, 1), (0.1, 4)])
def test_clones_share_one_drift_relabelled(noise, served):
    # A seed-free gradient ignores the step, so with_step clones of one state
    # take its drift: the same object, whose payload is every clone's
    # gradient.
    rule = quad_rule(noise=noise)
    s = states_for(rule, 1, start=5)[0]
    states = [s] + [with_step(s, 5 + j) for j in (1, 2, 3)]
    with WorkerPool(2, seed_offset=11) as pool:
        futures = pool.gather_drifts(rule, states)
        drifts = [pool.result(f) for f in futures]
        assert sum(pool.timing_report()["drifts_served"]) == served
    assert len({id(f) for f in futures}) == len({id(d) for d in drifts}) == served
    for state, d in zip(states, drifts, strict=True):
        assert d.payload.tobytes() == rule.problem.grad(state.values, state.step + 11).tobytes()


def test_submitted_clone_serves_every_slot_holding_its_values():
    # One table keyed by the drift's input: a clone submitted ahead holds the
    # values' drift in flight, so the earlier slots with those values take it.
    rule = quad_rule()
    s = states_for(rule, 1)[0]
    states = [s, with_step(s, 1), with_step(s, 2)]
    with WorkerPool(2) as pool:
        early = pool.submit(rule, states[2])
        futures = pool.gather_drifts(rule, states)
        assert all(f is early for f in futures)
        assert pool.result(early).payload.tobytes() == rule.problem.grad(s.values, 2).tobytes()
        assert sum(pool.timing_report()["drifts_served"]) == 1


@pytest.mark.parametrize("cost", [math.inf, math.nan, -3.0, 1e13])
def test_rejects_a_cost_that_is_not_finite_and_non_negative(cost):
    before = threading.active_count()
    with pytest.raises(ValueError, match="injected_cost_ms"):
        WorkerPool(2, injected_cost_ms=cost)
    assert threading.active_count() == before


@pytest.mark.parametrize("setting,value", [
    ("workers", 0), ("workers", 2.5), ("seed_offset", -1), ("seed_offset", 1.0),
    ("injected_cost_ms", -1.0), ("injected_cost_ms", math.nan), ("injected_cost_ms", math.inf),
    ("injected_cost_ms", 1e13),
])
def test_pool_and_engine_settings_reject_the_same_dispatch_settings(setting, value):
    bad = {"workers": 2, "seed_offset": 0, "injected_cost_ms": 0.0, setting: value}
    before = threading.active_count()
    with pytest.raises(ValueError, match=setting):
        WorkerPool(bad["workers"], bad["seed_offset"], bad["injected_cost_ms"])
    with pytest.raises(ValueError, match=setting):
        po.EngineSettings(**bad)
    assert threading.active_count() == before


def test_a_cost_may_take_half_the_longest_timeout():
    # time.sleep adds the cost to the monotonic clock; the other half is the uptime's.
    longest = 500.0 * threading.TIMEOUT_MAX
    WorkerPool.check_settings(1, 0, longest)
    with pytest.raises(ValueError, match="injected_cost_ms"):
        WorkerPool.check_settings(1, 0, 2 * longest)


def test_drain_waits_for_submitted_work():
    rule = quad_rule()
    with WorkerPool(2, injected_cost_ms=20.0) as pool:
        futures = [pool.submit(rule, s) for s in states_for(rule, 4)]
        pool.drain()
        assert all(f.done() for f in futures)
        # drained drifts are forgotten, so a gather submits them again
        drifts_of(pool, rule, states_for(rule, 1))
        assert sum(pool.timing_report()["drifts_served"]) == 5


def test_close_joins_lanes():
    rule = quad_rule()
    before = threading.active_count()
    pool = WorkerPool(3)
    pool.submit(rule, states_for(rule, 1)[0])
    drifts_of(pool, rule, states_for(rule, 3, start=1))
    assert threading.active_count() > before
    pool.close()
    assert threading.active_count() == before


def test_wait_time_counts_blocking_reads():
    rule = quad_rule()
    with WorkerPool(1, injected_cost_ms=20.0) as pool:
        drifts_of(pool, rule, states_for(rule, 2))
        wait_ms = pool.timing_report()["wait_ms"]
    assert 20.0 <= wait_ms


def test_lane_counters_under_contention():
    # More lanes than cores and a tiny switch interval: a lost update to a
    # lane's counters or a drift served twice would break the exact counts.
    import sys

    rule = quad_rule(T=1000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WorkerPool(8) as pool:
            for r in range(20):
                states = states_for(rule, 7, start=7 * r)
                pool.submit(rule, states[3])
                assert len(drifts_of(pool, rule, states)) == 7
            served = pool.timing_report()["drifts_served"]
    finally:
        sys.setswitchinterval(interval)
    assert served == [18, 18, 18, 18, 17, 17, 17, 17]
