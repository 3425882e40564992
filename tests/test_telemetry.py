import json

import pytest
from conftest import reports_equal_excluding_wall

from picardopt.errors import InternalConsistencyError
from picardopt.telemetry import (CSV_HEADER, RoundRecord, finalize_report, rounds_csv_text,
                                 strip_wall_fields)


def rec(i, base, skip, e=1e-6):
    return RoundRecord(i, base, skip, e, 1e-9, 1e-8, 1e-7)


def test_p1_run_histogram_and_speedup():
    records = [rec(i + 1, i, 1) for i in range(10)]
    rep = finalize_report(records, 10, {}, final_loss=0.5, wall_time_ms=1.0)
    assert rep.rounds == 10
    assert rep.speedup_rounds == 1.0
    assert rep.skip_histogram == {1: 10}


def test_all_skip_p_run():
    records = [rec(i + 1, 4 * i, 4) for i in range(5)]
    rep = finalize_report(records, 20, {}, final_loss=0.0, wall_time_ms=1.0)
    assert rep.rounds == 5
    assert rep.speedup_rounds == 4.0
    assert rep.skip_histogram == {4: 5}


def test_skip_sum_invariant_enforced():
    records = [rec(1, 0, 3), rec(2, 3, 2)]
    with pytest.raises(InternalConsistencyError):
        finalize_report(records, 6, {}, final_loss=0.0, wall_time_ms=1.0)


def test_partial_run_skips_invariant():
    rep = finalize_report([rec(1, 0, 3)], 100, {}, final_loss=None, wall_time_ms=1.0)
    assert rep.partial and rep.final_loss is None


def test_a_partial_reports_speedup_counts_the_steps_its_rounds_covered():
    # Six rounds of skip 1 out of a horizon of 50 advanced one step a round.
    rep = finalize_report([rec(i + 1, i, 1) for i in range(6)], 50, {}, final_loss=None,
                          wall_time_ms=1.0)
    assert rep.speedup_rounds == 1.0 and rep.work_amplification == 0.0
    assert finalize_report([], 50, {}, None, wall_time_ms=1.0).speedup_rounds == 0.0


def test_csv_schema_and_precision():
    text = rounds_csv_text([rec(1, 0, 2, e=1.25e-6)])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "round,base_step,skip,e,err_min,err_med,err_max"
    assert lines[1] == "1,0,2,1.25e-06,1e-09,1e-08,1e-07"


def test_refinalize_is_pure_excluding_wall():
    records = [rec(1, 0, 2), rec(2, 2, 1)]
    a = finalize_report(records, 3, {"x": 1}, 0.25, wall_time_ms=5.0)
    b = finalize_report(records, 3, {"x": 1}, 0.25, wall_time_ms=9.0)
    assert reports_equal_excluding_wall(a.to_json(), b.to_json())
    assert a.to_json() != b.to_json()


def test_strip_wall_fields_recursive():
    obj = {"wall_time_ms": 3, "nested": [{"oracle_wall_time_ms": 1, "keep": 2}], "ok": 0}
    assert strip_wall_fields(obj) == {"nested": [{"keep": 2}], "ok": 0}


def test_json_histogram_keys_are_strings():
    rep = finalize_report([rec(1, 0, 2)], 2, {}, 0.0, wall_time_ms=1.0)
    data = json.loads(rep.to_json())
    assert data["skip_histogram"] == {"2": 1}
    assert data["schema_version"] == 1
