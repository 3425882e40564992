import numpy as np
import pytest

from picardopt.errors import DimensionError, ScheduleError
from picardopt.schedule import (SPLIT_OFFSET, ScheduleAction, apply_action,
                                missed_actions, reconcile_vector, split_offset,
                                validate_schedule)


def test_split_appends_children_with_offset():
    vec = np.array([1.0, 2.0, 3.0, 4.0])  # 2 points, width 2
    out = apply_action(vec, ScheduleAction(5, "split", (0,)), width=2, with_offset=True)
    assert len(out) == 6
    np.testing.assert_array_equal(out[:4], vec)
    np.testing.assert_allclose(out[4:], vec[:2] + split_offset(0, 2))


def test_split_without_offset_duplicates():
    vec = np.array([1.0, 2.0, 3.0, 4.0])
    out = apply_action(vec, ScheduleAction(5, "split", (1,)), width=2, with_offset=False)
    np.testing.assert_array_equal(out[4:], vec[2:4])


def test_prune_deletes_points_in_order():
    vec = np.arange(6, dtype=float)  # 3 points, width 2
    out = apply_action(vec, ScheduleAction(5, "prune", (1,)), width=2, with_offset=False)
    np.testing.assert_array_equal(out, [0.0, 1.0, 4.0, 5.0])


def test_out_of_range_index_raises():
    with pytest.raises(ScheduleError):
        apply_action(np.zeros(4), ScheduleAction(0, "split", (5,)), 2, True)


def test_split_offset_is_deterministic_unit_scaled():
    a = split_offset(3, 4)
    b = split_offset(3, 4)
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(SPLIT_OFFSET)
    assert not np.allclose(split_offset(2, 4), a)


def test_validate_schedule_ordering():
    acts = [ScheduleAction(3, "split", (0,)), ScheduleAction(7, "prune", (1,))]
    assert validate_schedule(acts, 10) == tuple(acts)
    with pytest.raises(ScheduleError):
        validate_schedule(list(reversed(acts)), 10)
    with pytest.raises(ScheduleError):
        validate_schedule(acts, 7)  # action at 7 not < 7


def test_missed_actions_recovers_suffix():
    sched = (ScheduleAction(3, "split", (0,)), ScheduleAction(6, "split", (1,)))
    # stale clone from step <= 3 has 2 points; at step 8 it should have 4
    missed = missed_actions(sched, 8, have_points=2, want_points=4)
    assert [a.step for a in missed] == [3, 6]
    missed = missed_actions(sched, 8, have_points=3, want_points=4)
    assert [a.step for a in missed] == [6]
    assert missed_actions(sched, 8, 4, 4) == []


def test_missed_actions_irreconcilable():
    sched = (ScheduleAction(3, "split", (0,)),)
    with pytest.raises(DimensionError):
        missed_actions(sched, 8, have_points=7, want_points=3)


def test_proj_then_unproj_restores_length():
    vec = np.arange(6, dtype=float)  # 3 points, width 2
    pruned = apply_action(vec, ScheduleAction(2, "prune", (1,)), 2, False)
    lifted = apply_action(pruned, ScheduleAction(5, "split", (0,)), 2, False)
    assert len(lifted) == len(vec)


def test_reconcile_vector_applies_missed_suffix():
    sched = (ScheduleAction(2, "prune", (1,)), ScheduleAction(5, "split", (0,)))
    vec = np.arange(6, dtype=float)  # stale clone from step <= 2: 3 points
    out = reconcile_vector(vec, sched, 7, have_points=3, want_points=3, width=2, with_offset=False)
    # earliest dim match wins: 3 == 3 means nothing was missed
    np.testing.assert_array_equal(out, vec)
    stale = np.arange(4, dtype=float)  # clone that only saw the prune: 2 points
    out = reconcile_vector(stale, sched, 7, have_points=2, want_points=3, width=2, with_offset=False)
    np.testing.assert_array_equal(out, [0.0, 1.0, 2.0, 3.0, 0.0, 1.0])
