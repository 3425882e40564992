import math
import threading
import weakref

import numpy as np
import pytest

import picardopt as po
from picardopt.pool import WorkerPool
from picardopt.rules import AuxModel, initial_state, make_rule
from picardopt.state import ParamState, with_step


def quad_rule(T=100, kind="sgd", noise=0.0):
    prob = po.make_problem("quadratic", dim=4, data_seed=0, noise=noise)
    return make_rule(kind, prob, 0.1, total_steps=T)


def states_for(rule, n, start=0):
    rng = np.random.default_rng(3)
    return [ParamState(start + j, rng.standard_normal(4), 4) for j in range(n)]


def test_round_robin_assignment():
    # the lane is the dispatch index (counted over the pool's life) mod workers
    rule = quad_rule()
    with WorkerPool(4) as pool:
        first = [d.worker_id for d in pool.gather_drifts(rule, states_for(rule, 7))]
        second = [d.worker_id for d in pool.gather_drifts(rule, states_for(rule, 3, start=7))]
    assert first == [0, 1, 2, 3, 0, 1, 2]
    assert second == [3, 0, 1]


def test_worker_ids_follow_assignment():
    rule = quad_rule()
    with WorkerPool(4) as pool:
        drifts = pool.gather_drifts(rule, states_for(rule, 7))
    assert [d.worker_id for d in drifts] == [0, 1, 2, 3, 0, 1, 2]


def test_results_ordered_by_step_with_correct_seeds():
    rule = quad_rule()
    with WorkerPool(3, seed_offset=11) as pool:
        drifts = pool.gather_drifts(rule, states_for(rule, 5, start=20))
    assert [d.step for d in drifts] == [20, 21, 22, 23, 24]
    assert all(d.seed == d.step + 11 for d in drifts)


def test_purity_across_worker_counts():
    rule = quad_rule(noise=0.1)
    states = states_for(rule, 8)
    payloads = []
    for n in (1, 8):
        with WorkerPool(n) as pool:
            payloads.append(b"".join(d.payload.tobytes() for d in pool.gather_drifts(rule, states)))
    assert payloads[0] == payloads[1]


def test_failure_surfaces_smallest_slot():
    prob = po.make_problem("rosenbrock", dim=4)
    rule = make_rule("sgd", prob, 0.1, total_steps=100)
    good = ParamState(0, np.ones(4), 4)
    bad1 = ParamState(1, np.full(4, 1e200), 4)
    bad2 = ParamState(2, np.full(4, 1e200), 4)
    with WorkerPool(2) as pool:
        drifts = pool.gather_drifts(rule, [good, bad1, bad2])
        assert drifts[0].step == 0
        with pytest.raises(po.PoisonedDrift) as exc:
            list(drifts)
        assert drifts.first_failure() is exc.value
    assert exc.value.step == 1


def test_busy_time_accounts_injected_cost():
    rule = quad_rule()
    with WorkerPool(1, injected_cost_ms=5.0) as pool:
        list(pool.gather_drifts(rule, states_for(rule, 6)))
        report = pool.timing_report()
    assert report["drifts_served"] == [6]
    assert report["busy_ms"][0] >= 6 * 5.0 * 0.9


def test_balanced_workload_busy_ratio():
    rule = quad_rule()
    with WorkerPool(4, injected_cost_ms=5.0) as pool:
        for _ in range(2):
            list(pool.gather_drifts(rule, states_for(rule, 8)))
        busy = pool.timing_report()["busy_ms"]
    assert max(busy) / min(busy) < 1.5


def test_aux_models_isolated_and_counted():
    rule = quad_rule(kind="adaptive_guidance")
    with WorkerPool(2) as pool:
        assert pool.aux_models == [None, None]  # each lane makes its own at its first drift
        for r in range(2):
            list(pool.gather_drifts(rule, states_for(rule, 5, start=5 * r)))
    # 10 drifts in dispatch order over 2 lanes: the fifth slot of the first
    # gather goes to lane 0, the first slot of the second to lane 1
    assert pool.aux_models[0].updates_seen == 5
    assert pool.aux_models[1].updates_seen == 5


def test_aux_model_decay():
    aux = AuxModel(2)
    aux.update(np.array([1.0, 0.0]))
    aux.update(np.array([1.0, 0.0]))
    np.testing.assert_allclose(aux.ema_grad, [0.05 * 0.95 + 0.05, 0.0])
    assert aux.updates_seen == 2


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
            list(pool.gather_drifts(rule, states_for(rule, 7, start=7 * r)))
        served = pool.timing_report()["drifts_served"]
    assert sum(served) == 35
    assert max(served) - min(served) <= 1


def test_submitted_state_is_reused_by_gather():
    rule = quad_rule()
    states = states_for(rule, 4)
    with WorkerPool(2) as pool:
        early = pool.submit(rule, states[1])
        assert pool.submit(rule, states[1]) is early
        drifts = pool.gather_drifts(rule, states)
        assert drifts[1] is early.result()
        list(drifts)
        assert sum(pool.timing_report()["drifts_served"]) == 4
        # once gathered, the state is no longer in flight: a new gather recomputes
        list(pool.gather_drifts(rule, states[:1]))
        assert sum(pool.timing_report()["drifts_served"]) == 5


@pytest.mark.parametrize("noise,served", [(0.0, 1), (0.1, 4)])
def test_clones_share_one_drift_relabelled(noise, served):
    # A seed-free gradient ignores the step, so with_step clones of one state
    # take its drift, relabelled with their own step and seed.
    rule = quad_rule(noise=noise)
    s = states_for(rule, 1, start=5)[0]
    states = [s] + [with_step(s, 5 + j) for j in (1, 2, 3)]
    with WorkerPool(2, seed_offset=11) as pool:
        drifts = list(pool.gather_drifts(rule, states))
        assert sum(pool.timing_report()["drifts_served"]) == served
    assert [d.step for d in drifts] == [5, 6, 7, 8]
    assert [d.seed for d in drifts] == [16, 17, 18, 19]
    assert all((d.payload is drifts[0].payload) == (noise == 0.0) for d in drifts[1:])


def test_released_drift_lives_while_a_later_slot_shares_it():
    rule = quad_rule()
    theta0 = initial_state(rule)
    states = [theta0] + [with_step(theta0, j) for j in (1, 2)]
    with WorkerPool(1) as pool:
        drifts = pool.gather_drifts(rule, states)
        payload = weakref.ref(drifts[0].payload)
        drifts.release(0)
        drifts.release(1)
        pool.drain()  # the lane has let go of its work item
        assert drifts[2].payload is payload()
        with pytest.raises(LookupError, match="released"):
            drifts[0]
        drifts.release(2)
        assert payload() is None
        assert drifts.first_failure() is None


def test_submitted_clone_serves_every_slot_holding_its_values():
    # One table keyed by the drift's input: a clone submitted ahead holds the
    # values' drift in flight, so the earlier slots with those values take it.
    rule = quad_rule()
    s = states_for(rule, 1)[0]
    states = [s, with_step(s, 1), with_step(s, 2)]
    with WorkerPool(2) as pool:
        early = pool.submit(rule, states[2])
        drifts = pool.gather_drifts(rule, states)
        assert drifts[2] is early.result()
        assert all(d.payload is drifts[2].payload for d in drifts)
        assert [d.step for d in drifts] == [0, 1, 2]
        assert sum(pool.timing_report()["drifts_served"]) == 1


@pytest.mark.parametrize("cost", [math.inf, math.nan, -3.0])
def test_rejects_a_cost_that_is_not_finite_and_non_negative(cost):
    before = threading.active_count()
    with pytest.raises(ValueError, match="injected_cost_ms"):
        WorkerPool(2, injected_cost_ms=cost)
    assert threading.active_count() == before


def test_drain_waits_for_submitted_work():
    rule = quad_rule()
    with WorkerPool(2, injected_cost_ms=20.0) as pool:
        futures = [pool.submit(rule, s) for s in states_for(rule, 4)]
        pool.drain()
        assert all(f.done() for f in futures)
        # drained drifts are forgotten, so a gather submits them again
        list(pool.gather_drifts(rule, states_for(rule, 1)))
        assert sum(pool.timing_report()["drifts_served"]) == 5


def test_close_joins_lanes():
    rule = quad_rule()
    before = threading.active_count()
    pool = WorkerPool(3)
    pool.submit(rule, states_for(rule, 1)[0])
    list(pool.gather_drifts(rule, states_for(rule, 3, start=1)))
    assert threading.active_count() > before
    pool.close()
    assert threading.active_count() == before


def test_wait_time_counts_blocking_reads():
    rule = quad_rule()
    with WorkerPool(1, injected_cost_ms=20.0) as pool:
        list(pool.gather_drifts(rule, states_for(rule, 2)))
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
                assert len(list(pool.gather_drifts(rule, states))) == 7
            served = pool.timing_report()["drifts_served"]
    finally:
        sys.setswitchinterval(interval)
    assert served == [18, 18, 18, 18, 17, 17, 17, 17]
