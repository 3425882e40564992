import numpy as np
import pytest
from conftest import naive_carry_moment

from picardopt.errors import DimensionError, ScheduleError
from picardopt.schedule import (SPLIT_OFFSET, ScheduleAction, apply_action, reconcile_moments,
                                reconcile_vector, split_offset, validate_schedule)
from picardopt.state import MomentState


def test_split_appends_children_with_offset():
    vec = np.array([1.0, 2.0, 3.0, 4.0])  # 2 points, width 2
    out = apply_action(vec, ScheduleAction(5, "split", (0,)), width=2)
    assert len(out) == 6
    np.testing.assert_array_equal(out[:4], vec)
    np.testing.assert_allclose(out[4:], vec[:2] + split_offset(0, 2))


def test_split_offsets_each_child_from_its_parent():
    vec = np.array([1.0, 2.0, 3.0, 4.0])
    out = apply_action(vec, ScheduleAction(5, "split", (1, 0)), width=2)
    np.testing.assert_array_equal(out[4:6], vec[2:4] + split_offset(1, 2))
    np.testing.assert_array_equal(out[6:], vec[0:2] + split_offset(0, 2))


def test_prune_deletes_points_in_order():
    vec = np.arange(6, dtype=float)  # 3 points, width 2
    out = apply_action(vec, ScheduleAction(5, "prune", (1,)), width=2)
    np.testing.assert_array_equal(out, [0.0, 1.0, 4.0, 5.0])


def test_out_of_range_index_raises():
    with pytest.raises(ScheduleError):
        apply_action(np.zeros(4), ScheduleAction(0, "split", (5,)), 2)


def test_split_offset_is_deterministic_unit_scaled():
    a = split_offset(3, 4)
    b = split_offset(3, 4)
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(SPLIT_OFFSET)
    assert not np.allclose(split_offset(2, 4), a)


def test_validate_schedule_ordering():
    acts = [ScheduleAction(3, "split", (0,)), ScheduleAction(7, "prune", (1,))]
    assert validate_schedule(acts, 10, points=2) == tuple(acts)
    with pytest.raises(ScheduleError):
        validate_schedule(list(reversed(acts)), 10, points=2)
    with pytest.raises(ScheduleError):
        validate_schedule(acts, 7, points=2)  # action at 7 not < 7


def test_reconcile_vector_applies_the_actions_between_its_steps():
    # An action at step s fires from s to s + 1: carrying from s includes it,
    # carrying to s does not.
    sched = (ScheduleAction(3, "split", (0,)), ScheduleAction(6, "split", (1,)))
    vec = np.arange(4, dtype=float)  # 2 points, width 2
    assert reconcile_vector(vec, sched, 0, 3, width=2) is vec
    np.testing.assert_array_equal(reconcile_vector(vec, sched, 3, 4, width=2),
                                  apply_action(vec, sched[0], 2))
    np.testing.assert_array_equal(reconcile_vector(vec, sched, 4, 8, width=2),
                                  apply_action(vec, sched[1], 2))
    np.testing.assert_array_equal(reconcile_vector(vec, sched, 0, 8, width=2),
                                  apply_action(apply_action(vec, sched[0], 2), sched[1], 2))


def test_reconcile_vector_rejects_a_vector_the_schedule_cannot_act_on():
    sched = (ScheduleAction(3, "split", (2,)),)
    with pytest.raises(ScheduleError):
        reconcile_vector(np.zeros(4), sched, 0, 8, width=2)  # 2 points, no point 2
    with pytest.raises(DimensionError):
        reconcile_vector(np.zeros(5), sched, 0, 8, width=2)


def test_proj_then_unproj_restores_length():
    vec = np.arange(6, dtype=float)  # 3 points, width 2
    pruned = apply_action(vec, ScheduleAction(2, "prune", (1,)), 2)
    lifted = apply_action(pruned, ScheduleAction(5, "split", (0,)), 2)
    assert len(lifted) == len(vec)


def test_reconcile_vector_carries_through_cancelling_actions():
    # A prune and a split of one point each: the count is 3 before and after,
    # yet a vector carried from step 2 to 7 goes through both.
    sched = (ScheduleAction(2, "prune", (1,)), ScheduleAction(5, "split", (0,)))
    vec = np.arange(6, dtype=float)  # 3 points, width 2
    out = reconcile_vector(vec, sched, 2, 7, width=2)
    np.testing.assert_array_equal(out, np.concatenate([[0.0, 1.0, 4.0, 5.0],
                                                       [0.0, 1.0] + split_offset(0, 2)]))
    pruned = np.array([0.0, 1.0, 4.0, 5.0])  # a vector at step 3 saw the prune only
    np.testing.assert_array_equal(reconcile_vector(pruned, sched, 3, 7, width=2), out)


def test_reconcile_moments_zeroes_split_rows_and_drops_pruned_ones():
    sched = (ScheduleAction(3, "split", (2, 0)), ScheduleAction(6, "prune", (1, 3)))
    rng = np.random.default_rng(1)
    moments = MomentState(rng.standard_normal(12), rng.random(12))  # 3 points, width 4
    assert reconcile_moments(moments, sched, 0, 3, width=4) is moments
    split = reconcile_moments(moments, sched, 3, 4, width=4)
    assert len(split.m1) == len(split.m2) == 20
    assert not split.m1[12:].any() and not split.m2[12:].any()
    both = reconcile_moments(moments, sched, 0, 8, width=4)
    assert len(both.m1) == len(both.m2) == 12
    for got, m in ((both.m1, moments.m1), (both.m2, moments.m2)):
        expected = naive_carry_moment(naive_carry_moment(m, sched[0], 4), sched[1], 4)
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("step,indices", [(1.5, (0,)), (1.0, (0,)), (1, (0.5,)), (1, (0, 1.0))])
def test_an_action_takes_only_integer_steps_and_indices(step, indices):
    with pytest.raises(ScheduleError, match="integer"):
        ScheduleAction(step, "split", indices)
