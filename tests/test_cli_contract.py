"""The CLI's contract: flag names, the ``--mode both`` rule and exit codes."""

import contextlib
import dataclasses
import io
import json
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import picardopt as po
from picardopt import cli
from picardopt.config import DEFAULT_STEP_SIZES, SECTIONS, RunConfig
from picardopt.state import ParamState, read_states

# Flags of ``run``, a value for each, and the RunConfig field and value it
# must set (``test_schema_lists_every_field_once`` checks the schema itself).
RUN_FLAGS = [
    ("--problem", "splat2d", "problem_kind", "splat2d"),
    ("--dim", "12", "dim", 12),
    ("--data-seed", "5", "data_seed", 5),
    ("--noise", "0.25", "noise", 0.25),
    ("--points", "3", "points", 3),
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
    assert compare["passed"] is False
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


def test_exact_adaptive_guidance_both_is_not_judged(tmp_path):
    # Its lane predictors see the engine's drifts, the oracle's predictor the
    # sequential ones, so it differs from the oracle even at threshold 0.
    code = cli.main(["run", "--problem", "quadratic", "--rule", "adaptive_guidance",
                     "--steps", "60", "--window", "3", "--workers", "2", "--threshold", "0",
                     "--mode", "both", "--out", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "compare.json").read_text())["passed"] is False


# --- one owner per setting --------------------------------------------------


def test_schema_lists_every_field_once():
    names = [name for keys in SECTIONS.values() for name in keys.values()]
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_splat_points_set_the_size_and_the_echo(tmp_path):
    code = cli.main(["run", "--problem", "splat2d", "--rule", "sgd", "--points", "3",
                     "--steps", "5", "--workers", "2", "--out", str(tmp_path)])
    assert code == 0
    echo = json.loads((tmp_path / "report.json").read_text())["config_echo"]
    assert echo["problem"] == {"kind": "splat2d", "dim": 12, "data_seed": 0, "noise": 0.0,
                               "points": 3, "n_targets": 3}
    assert read_states(tmp_path / "final_state.bin")[0].dim == 12


@pytest.mark.parametrize("args,field", [
    (["--problem", "quadratic", "--points", "3"], "problem.points"),
    (["--problem", "stochastic_lsq", "--points", "2"], "problem.points"),
    (["--problem", "splat2d", "--points", "3", "--dim", "8"], "points"),
    (["--rule", "sgd", "--beta1", "0.5"], "beta1"),
    (["--rule", "split_prune_sgd", "--problem", "splat2d", "--eps", "1e-6"], "eps"),
    (["--rule", "adam", "--beta2", "1.5"], "betas"),
])
def test_setting_not_taken_exits_2_naming_it(tmp_path, capsys, args, field):
    code = cli.main(["run", *args, "--steps", "5", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and field in err and "Traceback" not in err


def test_cli_and_library_echo_the_same_values(tmp_path):
    code = cli.main(["run", "--problem", "quadratic", "--rule", "adam", "--steps", "20",
                     "--window", "3", "--workers", "2", "--out", str(tmp_path)])
    assert code == 0
    cli_echo = json.loads((tmp_path / "report.json").read_text())["config_echo"]
    rule = po.make_rule("adam", po.make_problem("quadratic"), 0.05, total_steps=20)
    result = po.run(rule, po.EngineSettings(window=3, workers=2, threshold0=1e-6, gamma=0.9))
    library_echo = json.loads(json.dumps(result.report.config_echo))
    assert cli_echo.pop("mode") == "engine"
    assert cli_echo == library_echo
    assert library_echo["rule"] == {"kind": "adam", "step_size": 0.05, "schedule": "",
                                    "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}


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


@pytest.mark.parametrize("mode", ["oracle", "both"])
def test_overflowing_oracle_loss_exits_3_without_warning(tmp_path, capsys, mode):
    # The sequential states stay finite, but the loss at step 5 overflows.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--problem", "rosenbrock", "--rule", "sgd", "--step-size", "0.01",
                         "--steps", "5", "--threshold", "0", "--mode", mode,
                         "--out", str(tmp_path)])
    assert code == 3
    assert "step 5" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "oracle_losses.csv").exists()


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
       threshold=st.sampled_from(["0", "1e-6"]), mode=st.sampled_from(["engine", "oracle", "both"]))
def test_fuzz_exit_codes(pair, scale, steps, window, workers, threshold, mode):
    problem, rule = pair
    step_size = default_step_size(problem, rule) * 10.0**scale
    args = ["run", "--problem", problem, "--rule", rule, "--step-size", repr(step_size),
            "--steps", str(steps), "--window", str(window), "--workers", str(workers),
            "--threshold", threshold, "--mode", mode]
    if rule == "split_prune_sgd":
        first, second = steps // 3, 2 * steps // 3
        schedule = f"{first}:split:0" + (f" {second}:prune:1" if second > first else "")
        args += ["--schedule", schedule]
    before = threading.active_count()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = cli.main([*args, "--out", out])
        # The engine runs after an oracle that succeeded (its losses written).
        engine_ran = mode == "engine" or (mode == "both" and (Path(out) / "oracle_losses.csv").exists())
        if code == 3 and engine_ran:
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
