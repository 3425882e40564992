"""The CLI's contract: flag names, the ``--mode both`` rule and exit codes."""

import contextlib
import io
import json
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardopt import cli
from picardopt.config import DEFAULT_STEP_SIZES
from picardopt.state import ParamState

# Every flag ``run`` accepted before flags were generated from the config
# schema, a value for it, and the RunConfig field and value it must set.
RUN_FLAGS = [
    ("--problem", "splat2d", "problem_kind", "splat2d"),
    ("--dim", "12", "dim", 12),
    ("--data-seed", "5", "data_seed", 5),
    ("--noise", "0.25", "noise", 0.25),
    ("--points", "3", "points", 3),
    ("--n-targets", "4", "n_targets", 4),
    ("--n-rows", "40", "n_rows", 40),
    ("--rule", "sgd", "rule_kind", "sgd"),
    ("--step-size", "0.02", "step_size", 0.02),
    ("--schedule", "3:split:0", "schedule", "3:split:0"),
    ("--steps", "30", "steps", 30),
    ("--window", "2", "window", 2),
    ("--workers", "3", "workers", 3),
    ("--threshold", "0.001", "threshold", 0.001),
    ("--gamma", "0.5", "gamma", 0.5),
    ("--aggregation", "mean", "aggregation", "mean"),
    ("--seed-offset", "4", "seed_offset", 4),
    ("--injected-cost-ms", "1.5", "injected_cost_ms", 1.5),
    ("--mode", "oracle", "mode", "oracle"),
    ("--out", "elsewhere", "out_dir", "elsewhere"),
]
SWEEP_FLAGS = [
    ("--axis", "gamma", "sweep_axis", "gamma"),
    ("--values", "0.5,0.9", "sweep_values", [0.5, 0.9]),
]


def parsed_config(monkeypatch, verb, *args):
    """The RunConfig ``picardopt <verb> <args>`` builds, without running it."""
    seen = []
    monkeypatch.setattr(cli, f"cmd_{verb}", lambda cfg: seen.append(cfg) or 0)
    assert cli.main([verb, *args]) == 0
    return seen[0]


@pytest.mark.parametrize("flag,text,name,value", RUN_FLAGS)
@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_run_flag_sets_same_field(monkeypatch, verb, flag, text, name, value):
    axis = ["--axis", "window", "--values", "1"] if verb == "sweep" else []
    cfg = parsed_config(monkeypatch, verb, flag, text, *axis)
    assert getattr(cfg, name) == value


@pytest.mark.parametrize("flag,text,name,value", SWEEP_FLAGS)
def test_sweep_flag_sets_same_field(monkeypatch, flag, text, name, value):
    args = ["--axis", "gamma", "--values", "0.5,0.9"]
    cfg = parsed_config(monkeypatch, "sweep", flag, text, *args)
    assert getattr(cfg, name) == value


@pytest.mark.parametrize("flag,text", [("--compare-mode", "tolerance"), ("--compare-tol", "1e-3")])
def test_compare_flags_rejected(flag, text, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", flag, text])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_run_rejects_sweep_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--axis", "window"])
    assert exc.value.code == 2


# --- --mode both ----------------------------------------------------------


def test_adaptive_both_reports_deltas_and_exits_0(tmp_path):
    code = cli.main(["run", "--problem", "quadratic", "--rule", "adam", "--steps", "100",
                     "--mode", "both", "--out", str(tmp_path)])
    assert code == 0
    compare = json.loads((tmp_path / "compare.json").read_text())
    assert compare["passed"] is False and compare["mode"] == "bitexact"
    assert compare["max_delta"] > 0


def test_exact_both_that_differs_exits_1(tmp_path, monkeypatch, capsys):
    real_run = cli.engine_run

    def shifted_run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        last = result.trajectory[-1]
        result.trajectory[-1] = ParamState(last.step, last.values + 1.0, last.dim_tag,
                                           last.moments)
        return result

    monkeypatch.setattr(cli, "engine_run", shifted_run)
    code = cli.main(["run", "--problem", "quadratic", "--rule", "sgd", "--steps", "20",
                     "--threshold", "0", "--mode", "both", "--out", str(tmp_path)])
    assert code == 1
    compare = json.loads((tmp_path / "compare.json").read_text())
    assert compare["passed"] is False and compare["first_divergence"] == 20
    assert "comparison failed" in capsys.readouterr().err


# --- one route to a sweep -------------------------------------------------


def test_run_mode_sweep_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--mode", "sweep", "--out", str(tmp_path)]) == 2
    assert "output.mode" in capsys.readouterr().err


def test_config_mode_sweep_exits_2(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text("[output]\nmode = sweep\n[sweep]\naxis = window\nvalues = 1, 3\n")
    assert cli.main(["sweep", "--config", str(ini), "--out", str(tmp_path)]) == 2
    assert "output.mode" in capsys.readouterr().err


def test_sweep_without_axis_exits_2(tmp_path, capsys):
    assert cli.main(["sweep", "--steps", "10", "--out", str(tmp_path)]) == 2
    assert "sweep.axis" in capsys.readouterr().err


def test_sweep_from_config_file(tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text("[problem]\nkind = quadratic\nnoise = 0.1\n[rule]\nkind = sgd\n"
                   "[engine]\nsteps = 40\nworkers = 4\n[sweep]\naxis = window\nvalues = 1, 3\n")
    assert cli.main(["sweep", "--config", str(ini), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert [line.split(",")[:3] for line in lines[1:]] == [["window", "1", "40"],
                                                           ["window", "3", "15"]]


# --- exit codes -----------------------------------------------------------

BAD_SCHEDULES = ["50:split:0 10:split:0", "10:bogus:0", "10:split:5", "10:prune:0,1"]


@pytest.mark.parametrize("schedule", BAD_SCHEDULES)
@pytest.mark.parametrize("mode", ["engine", "both"])
def test_bad_schedule_exits_2(tmp_path, capsys, schedule, mode):
    code = cli.main(["run", "--problem", "splat2d", "--rule", "split_prune_sgd",
                     "--schedule", schedule, "--mode", mode, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "schedule" in err and "Traceback" not in err


@pytest.mark.parametrize("steps", ["6", "2"])
def test_degenerate_objective_exits_3_with_partial_report(tmp_path, capsys, steps):
    # The step size drives the splat weights' sum below zero: in a round at
    # 6 steps, in the final loss at 2.
    code = cli.main(["run", "--problem", "splat2d", "--rule", "sgd", "--step-size", "0.05",
                     "--steps", steps, "--threshold", "0", "--out", str(tmp_path)])
    assert code == 3
    assert "normalization" in capsys.readouterr().err
    assert json.loads((tmp_path / "report.json").read_text())["partial"] is True
    assert (tmp_path / "abort_window.bin").exists()


def test_degenerate_objective_in_oracle_exits_3(tmp_path):
    code = cli.main(["run", "--problem", "splat2d", "--rule", "sgd", "--step-size", "0.05",
                     "--steps", "6", "--threshold", "0", "--mode", "both",
                     "--out", str(tmp_path)])
    assert code == 3


def test_unreadable_manifest_exits_2(tmp_path, capsys):
    assert cli.main(["verify", "--manifest", str(tmp_path / "missing.ini")]) == 2
    assert "manifest" in capsys.readouterr().err


# Every problem/rule pair make_rule accepts; split_prune_sgd gets a schedule below.
PAIRS = [(p, r) for p in ("quadratic", "rosenbrock", "stochastic_lsq", "tiny_mlp",
                          "splat2d", "linear_ode")
         for r in ("sgd", "adam", "adaptive_guidance")]
PAIRS += [("splat2d", "split_prune_sgd"), ("linear_ode", "euler_ode")]


def default_step_size(problem, rule):
    if rule == "adaptive_guidance":
        return DEFAULT_STEP_SIZES.get((problem, "sgd"), 0.05)
    return DEFAULT_STEP_SIZES.get((problem, rule), 0.05)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pair=st.sampled_from(PAIRS), scale=st.floats(min_value=0.0, max_value=6.0),
       steps=st.integers(1, 30), window=st.integers(1, 7), workers=st.integers(1, 4),
       threshold=st.sampled_from(["0", "1e-6"]))
def test_fuzz_exit_codes(pair, scale, steps, window, workers, threshold):
    problem, rule = pair
    step_size = default_step_size(problem, rule) * 10.0**scale
    args = ["run", "--problem", problem, "--rule", rule, "--step-size", repr(step_size),
            "--steps", str(steps), "--window", str(window), "--workers", str(workers),
            "--threshold", threshold]
    if rule == "split_prune_sgd":
        first, second = steps // 3, 2 * steps // 3
        schedule = f"{first}:split:0" + (f" {second}:prune:1" if second > first else "")
        args += ["--schedule", schedule]
    before = threading.active_count()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = cli.main([*args, "--out", out])
        if code == 3:
            report = json.loads((Path(out) / "report.json").read_text())
            assert report["partial"] is True
            assert (Path(out) / "abort_window.bin").exists()
    assert code in (0, 3), err.getvalue()
    assert threading.active_count() == before
    assert "Traceback" not in err.getvalue()


def test_removed_compare_section_exits_2(tmp_path, capsys):
    ini = tmp_path / "old.ini"
    ini.write_text("[compare]\nmode = tolerance\ntol = 1e-3\n")
    assert cli.main(["run", "--config", str(ini), "--out", str(tmp_path)]) == 2
    assert "compare" in capsys.readouterr().err
