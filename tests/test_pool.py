import numpy as np
import pytest

import picardopt as po
from picardopt.pool import AuxModel, WorkerPool
from picardopt.rules import make_rule
from picardopt.state import ParamState, with_step


def quad_rule(T=100, kind="sgd", noise=0.0):
    prob = po.make_problem("quadratic", dim=4, data_seed=0, noise=noise)
    return make_rule(kind, prob, 0.1, total_steps=T)


def states_for(rule, n, start=0):
    rng = np.random.default_rng(3)
    return [ParamState(start + j, rng.standard_normal(4), 4) for j in range(n)]


def test_round_robin_assignment():
    assert WorkerPool.assignment(7, 4) == [0, 1, 2, 3, 0, 1, 2]


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
        with pytest.raises(po.PoisonedDrift) as exc:
            pool.gather_drifts(rule, [good, bad1, bad2])
    assert exc.value.step == 1


def test_busy_time_accounts_injected_cost():
    rule = quad_rule()
    with WorkerPool(1, injected_cost_ms=5.0) as pool:
        pool.gather_drifts(rule, states_for(rule, 6))
        report = pool.timing_report()
    assert report["drifts_served"] == [6]
    assert report["busy_ms"][0] >= 6 * 5.0 * 0.9


def test_balanced_workload_busy_ratio():
    rule = quad_rule()
    with WorkerPool(4, injected_cost_ms=5.0) as pool:
        for _ in range(2):
            pool.gather_drifts(rule, states_for(rule, 8))
        busy = pool.timing_report()["busy_ms"]
    assert max(busy) / min(busy) < 1.5


def test_aux_models_isolated_and_counted():
    rule = quad_rule(kind="adaptive_guidance")
    with WorkerPool(2, aux_dim=4) as pool:
        for r in range(2):
            pool.gather_drifts(rule, states_for(rule, 5, start=5 * r))
    # slots 0..4 round-robin over 2 workers: worker0 serves 3, worker1 serves 2, per round
    assert pool.aux_models[0].updates_seen == 6
    assert pool.aux_models[1].updates_seen == 4


def test_aux_model_decay():
    aux = AuxModel(2)
    aux.update(np.array([1.0, 0.0]))
    aux.update(np.array([1.0, 0.0]))
    np.testing.assert_allclose(aux.predict(), [0.05 * 0.95 + 0.05, 0.0])
    assert aux.updates_seen == 2


def test_distinct_steps_required():
    rule = quad_rule()
    s = states_for(rule, 1)[0]
    with WorkerPool(2) as pool:
        with pytest.raises(ValueError):
            pool.gather_drifts(rule, [s, with_step(s, s.step)])
