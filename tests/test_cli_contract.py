"""The CLI's contract: flag names, the ``--mode both`` rule and exit codes."""

import contextlib
import dataclasses
import io
import json
import tempfile
import threading
import warnings
import weakref
from pathlib import Path
from unittest import mock

import pytest
from conftest import reports_equal_excluding_wall
from hypothesis import given, settings
from hypothesis import strategies as st

import picardopt as po
from picardopt import cli, engine
from picardopt.config import DEFAULT_STEP_SIZES, SECTIONS, RunConfig
from picardopt.state import ParamState, iter_states

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


@pytest.mark.parametrize("flag,text", [("--compare-mode", "tolerance"), ("--compare-tol", "1e-3"),
                                       ("--aggregation", "mean")])
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

    def shifted_run(rule, settings, observer=None, **kwargs):
        def shifted(accepted, window):
            *kept, last = accepted
            if last.step == rule.total_steps:
                last = ParamState(last.step, last.values + 1.0, last.dim_tag, last.moments)
            observer([*kept, last], window)

        return real_run(rule, settings, observer=shifted, **kwargs)

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


@pytest.mark.parametrize("mode,observed", [("engine", False), ("both", True)])
def test_only_mode_both_passes_an_observer(tmp_path, monkeypatch, mode, observed):
    # The engine's states are seen only to compare them with the oracle's.
    real_run, seen = cli.engine_run, []

    def recorded_run(rule, settings, observer=None, **kwargs):
        seen.append(observer is not None)
        return real_run(rule, settings, observer=observer, **kwargs)

    monkeypatch.setattr(cli, "engine_run", recorded_run)
    code = cli.main(["run", "--problem", "quadratic", "--rule", "adam", "--steps", "20",
                     "--window", "3", "--workers", "2", "--threshold", "0", "--mode", mode,
                     "--out", str(tmp_path)])
    assert code == 0
    assert seen == [observed]
    if mode == "both":
        compare = json.loads((tmp_path / "compare.json").read_text())
        assert compare["passed"] is True and compare["first_divergence"] is None
        assert len(compare["per_step_max_delta"]) == 21


def test_mode_both_holds_no_state_past_its_window(tmp_path, monkeypatch):
    # A frozen, huge threshold accepts every window whole, so round r's new
    # slots 1..p-1 are accepted and the next window (based at slot p) holds
    # none of them.  The round keeps them for the observer, before its new
    # anchor: the comparison must have let them go.
    real_round, accepted, alive_at_start = engine.picard_round, [], []

    def watched(window, rule, pool, threshold, kept):
        alive_at_start.append(sum(ref() is not None for ref in accepted))
        errors = real_round(window, rule, pool, threshold, kept)
        skip = engine.compute_skip(errors, threshold)
        steps = list(range(window[0].step - skip + 1, window[0].step + 1))
        assert [s.step for s in kept[-skip:]] == steps and kept[-1] is window[0]
        accepted[:] = [weakref.ref(s) for s in kept[-skip:-1]]
        return errors

    monkeypatch.setattr(engine, "picard_round", watched)
    code = cli.main(["run", "--problem", "quadratic", "--rule", "sgd", "--dim", "1000",
                     "--steps", "40", "--window", "5", "--workers", "2", "--threshold", "1e9",
                     "--gamma", "1", "--mode", "both", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rounds"] == 8 and report["skip_histogram"] == {"5": 8}
    assert alive_at_start == [0] * 8
    compare = json.loads((tmp_path / "compare.json").read_text())
    assert len(compare["per_step_max_delta"]) == 41


# --- one owner per setting --------------------------------------------------


def test_schema_lists_every_field_once():
    names = [name for keys in SECTIONS.values() for name in keys.values()]
    assert sorted(names) == sorted(f.name for f in dataclasses.fields(RunConfig))


def test_splat_points_set_the_size_and_the_echo(tmp_path):
    code = cli.main(["run", "--problem", "splat2d", "--rule", "sgd", "--points", "3",
                     "--steps", "5", "--workers", "2", "--out", str(tmp_path)])
    assert code == 0
    echo = json.loads((tmp_path / "report.json").read_text())["config_echo"]
    assert echo["problem"] == {"kind": "splat2d", "data_seed": 0, "noise": 0.0, "points": 3}
    assert next(iter_states(tmp_path / "final_state.bin")).dim == 12


@pytest.mark.parametrize("args,field", [
    (["--problem", "quadratic", "--points", "3"], "problem.points"),
    (["--problem", "stochastic_lsq", "--points", "2"], "problem.points"),
    (["--problem", "splat2d", "--points", "3", "--dim", "8"], "problem.dim"),
    (["--rule", "sgd", "--beta1", "0.5"], "beta1"),
    (["--rule", "split_prune_sgd", "--problem", "splat2d", "--eps", "1e-6"], "eps"),
    (["--rule", "adam", "--beta2", "1.5"], "betas"),
    (["--rule", "adam", "--eps", "nan"], "eps"),
    (["--threshold", "nan"], "threshold"),
    (["--injected-cost-ms", "nan"], "injected_cost_ms"),
    (["--injected-cost-ms", "inf"], "injected_cost_ms"),
    (["--step-size", "nan"], "step_size"),
    (["--problem", "stochastic_lsq", "--noise", "nan"], "noise"),
    (["--noise", "-0.5"], "noise"),
    (["--data-seed", "-1"], "data_seed"),
    (["--steps", "0"], "steps"),
    (["--problem", "nope"], "problem.kind"),
    (["--rule", "nope"], "rule kind"),
    (["--rule", "euler_ode"], "ODE drift"),
    # rule errors name the key that was set
    (["--steps", "0"], "engine.steps"),
    (["--rule", "nope"], "rule.kind"),
    (["--step-size", "0"], "rule.step_size"),
    (["--rule", "adam", "--beta1", "1.5"], "rule.beta1"),
    (["--problem", "tiny_mlp", "--dim", "25"], "problem.dim"),
    (["--injected-cost-ms", "1e13"], "injected_cost_ms"),
    # every value a settings object rejects names its section.key
    (["--noise", "-0.5"], "problem.noise"),
    (["--problem", "splat2d", "--points", "0"], "problem.points"),
    (["--window", "0"], "engine.window"),
    (["--threshold", "nan"], "engine.threshold"),
    (["--workers", "0"], "engine.workers"),
])
def test_setting_not_taken_exits_2_naming_it(tmp_path, capsys, args, field):
    code = cli.main(["run", "--steps", "5", *args, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and field in err and "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("args", [["--problem", "splat2d", "--dim", "12"], ["--rule", "nope"]])
def test_a_run_rejected_for_its_configuration_makes_no_directory(tmp_path, capsys, args):
    out = tmp_path / "d"
    assert cli.main(["run", *args, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("mode", ["engine", "oracle"])
def test_a_cost_beyond_the_longest_sleep_exits_2_and_makes_no_directory(tmp_path, capsys, mode):
    # 1e13 ms overflows time.sleep; the check stops it before any drift runs.
    out = tmp_path / "o"
    code = cli.main(["run", "--problem", "quadratic", "--rule", "sgd", "--steps", "5",
                     "--workers", "2", "--injected-cost-ms", "1e13", "--mode", mode,
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "injected_cost_ms" in err and err.count("\n") == 1
    assert not out.exists()


def test_split_prune_sgd_takes_sgds_default_step_size(tmp_path):
    a, b = tmp_path / "sgd", tmp_path / "split_prune_sgd"
    for out in (a, b):
        assert cli.main(["run", "--problem", "quadratic", "--rule", out.name, "--steps", "20",
                         "--workers", "2", "--out", str(out)]) == 0
    assert (a / "final_state.bin").read_bytes() == (b / "final_state.bin").read_bytes()
    assert reports_equal_excluding_wall((a / "report.json").read_text(),
                                        (b / "report.json").read_text())


def test_cli_and_library_echo_the_same_values(tmp_path):
    code = cli.main(["run", "--problem", "quadratic", "--rule", "adam", "--steps", "20",
                     "--window", "3", "--workers", "2", "--out", str(tmp_path)])
    assert code == 0
    cli_echo = json.loads((tmp_path / "report.json").read_text())["config_echo"]
    rule = po.make_rule("adam", po.make_problem("quadratic"), 0.05, total_steps=20)
    result = po.run(rule, po.EngineSettings(window=3, workers=2, threshold=1e-6, gamma=0.9))
    library_echo = json.loads(json.dumps(result.report.config_echo))
    assert cli_echo.pop("mode") == "engine"
    assert cli_echo == library_echo
    assert library_echo["rule"] == {"kind": "adam", "step_size": 0.05, "schedule": "",
                                    "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}

    # With no engine flag, the CLI runs EngineSettings' own defaults.
    out = tmp_path / "defaults"
    assert cli.main(["run", "--problem", "quadratic", "--rule", "adam", "--out", str(out)]) == 0
    cli_engine = json.loads((out / "report.json").read_text())["config_echo"]["engine"]
    rule = po.make_rule("adam", po.make_problem("quadratic"), 0.05, total_steps=200)
    library_engine = po.run(rule, po.EngineSettings()).report.config_echo["engine"]
    assert cli_engine == json.loads(json.dumps(library_engine))


# --- one route to a sweep -------------------------------------------------


def test_run_mode_sweep_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--mode", "sweep", "--out", str(tmp_path)]) == 2
    assert "output.mode" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [("axis = window\nvalues = 1, 3\n", "sweep.axis"),
                                         ("values = 1, 3\n", "sweep.values")],
                         ids=["axis", "values"])
def test_run_with_a_sweep_section_exits_2_and_makes_no_directory(tmp_path, capsys, section, key):
    # A run runs once: a [sweep] section it took would be ignored.
    ini = tmp_path / "c.ini"
    ini.write_text("[sweep]\n" + section)
    out = tmp_path / "o"
    code = cli.main(["run", "--config", str(ini), "--problem", "quadratic", "--rule", "sgd",
                     "--steps", "20", "--workers", "2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and key in err and err.count("\n") == 1
    assert not out.exists()


def test_config_mode_sweep_exits_2(tmp_path, capsys):
    ini = tmp_path / "sweep.ini"
    ini.write_text("[output]\nmode = sweep\n[sweep]\naxis = window\nvalues = 1, 3\n")
    assert cli.main(["sweep", "--config", str(ini), "--out", str(tmp_path)]) == 2
    assert "output.mode" in capsys.readouterr().err


def test_sweep_with_a_shared_config_error_exits_2_and_runs_no_value(tmp_path, capsys):
    code = cli.main(["sweep", "--problem", "quadratic", "--points", "3", "--axis", "window",
                     "--values", "1,3", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and "problem.points" in err and err.count("\n") == 1
    assert not (tmp_path / "runs").exists() and not (tmp_path / "sweep.csv").exists()


def test_sweep_window_values_must_be_integers(tmp_path, capsys):
    code = cli.main(["sweep", "--axis", "window", "--values", "2.5,3", "--out", str(tmp_path)])
    assert code == 2 and "sweep.values" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("axis,values", [("cost", "nan,1"), ("gamma", "1.5"), ("window", "3,0")])
def test_sweep_value_that_cannot_run_exits_2(tmp_path, capsys, axis, values):
    code = cli.main(["sweep", "--steps", "10", "--axis", axis, "--values", values,
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and "sweep.values" in err and err.count("\n") == 1
    assert not (tmp_path / "runs").exists() and not (tmp_path / "sweep.csv").exists()


def test_sweep_without_axis_exits_2(tmp_path, capsys):
    assert cli.main(["sweep", "--steps", "10", "--out", str(tmp_path)]) == 2
    assert "sweep.axis" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["oracle", "both"])
def test_sweep_in_a_mode_it_does_not_run_exits_2(tmp_path, capsys, mode):
    # A sweep runs the engine for each value, so another mode would be echoed, not obeyed.
    out = tmp_path / "sw"
    code = cli.main(["sweep", "--problem", "quadratic", "--rule", "sgd", "--steps", "30",
                     "--workers", "2", "--axis", "window", "--values", "1,3", "--mode", mode,
                     "--out", str(out)])
    assert code == 2 and "output.mode" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_from_config_file(tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text("[problem]\nkind = quadratic\nnoise = 0.1\n[rule]\nkind = sgd\n"
                   "[engine]\nsteps = 40\nworkers = 4\n[sweep]\naxis = window\nvalues = 1, 3\n")
    assert cli.main(["sweep", "--config", str(ini), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert [line.split(",")[:3] for line in lines[1:]] == [["window", "1", "40"],
                                                           ["window", "3", "15"]]


def test_a_failed_sweep_value_writes_what_a_failed_run_writes(tmp_path, capsys):
    # The engine fails at window 7 only: that value keeps its partial run, as
    # `run` does.  When the shared oracle fails, no value runs the engine, so
    # no run directory is made.
    sweep = ["sweep", "--problem", "rosenbrock", "--rule", "sgd", "--workers", "2",
             "--axis", "window", "--values", "1,7"]
    engine_fails, oracle_fails = tmp_path / "engine", tmp_path / "oracle"
    assert cli.main([*sweep, "--step-size", "0.002", "--steps", "60", "--threshold", "100",
                     "--gamma", "1", "--out", str(engine_fails)]) == 0
    assert cli.main([*sweep, "--step-size", "0.01", "--steps", "50", "--threshold", "0",
                     "--out", str(oracle_fails)]) == 0
    assert capsys.readouterr().err.count("failed: non-finite numerics") == 3
    runs = engine_fails / "runs"
    common = {"rounds.csv", "report.json"}
    assert {f.name for f in (runs / "window_1").iterdir()} == common | {"final_state.bin"}
    assert {f.name for f in (runs / "window_7").iterdir()} == common | {"abort_window.bin"}
    status = [row.split(",")[-1] for row in (engine_fails / "sweep.csv").read_text().split()]
    assert status == ["status", "ok", "error"]
    assert not (oracle_fails / "runs").exists()
    status = [row.split(",")[-1] for row in (oracle_fails / "sweep.csv").read_text().split()]
    assert status == ["status", "error", "error"]


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


def test_a_schedule_on_a_fixed_size_problem_exits_2(tmp_path, capsys):
    # Rejected when the rule is built, not when the first split fires.
    code = cli.main(["run", "--problem", "quadratic", "--rule", "split_prune_sgd",
                     "--schedule", "5:split:0", "--steps", "20", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "rule.schedule" in err and "fixed size" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


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


def test_a_failing_drift_at_a_guess_does_not_fail_an_exact_run(tmp_path):
    # The drift at a guess the sequential run never visits raises an
    # ObjectiveError (the splat weights' sum turns negative); it only ends
    # its round, and the run matches the oracle bitwise.
    code = cli.main(["run", "--problem", "splat2d", "--rule", "sgd", "--step-size", "0.01",
                     "--steps", "60", "--window", "7", "--workers", "2", "--threshold", "0",
                     "--data-seed", "5", "--mode", "both", "--out", str(tmp_path)])
    assert code == 0
    assert json.loads((tmp_path / "compare.json").read_text())["passed"] is True
    assert not (tmp_path / "abort_window.bin").exists()


@pytest.mark.parametrize("mode", ["oracle", "both"])
def test_overflowing_oracle_loss_exits_3_without_warning(tmp_path, capsys, mode):
    # The sequential states stay finite up to step 5, but the loss at step 5
    # overflows.  Over 50 steps the drift at step 6 fails too, and a step
    # error wins over a loss error.
    for steps, failed in (("5", "step 5"), ("50", "step 6")):
        out = tmp_path / steps
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", "--problem", "rosenbrock", "--rule", "sgd", "--step-size",
                             "0.01", "--steps", steps, "--threshold", "0", "--mode", mode,
                             "--out", str(out)])
        assert code == 3
        assert failed in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "oracle_losses.csv").exists()
        assert not (out / "oracle_trajectory.bin").exists()
        assert list(out.iterdir()) == []


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_an_overflowing_distance_fails_the_run_where_the_oracle_does(tmp_path, capsys):
    # Before the drift at step 6 fails, the distances of the guesses from the
    # growing states overflow: they are inf, written so to rounds.csv, and
    # the run fails where, and as, the sequential run does.
    errors = {}
    for mode in ("engine", "oracle"):
        code = cli.main(["run", "--problem", "rosenbrock", "--rule", "sgd", "--step-size", "0.01",
                         "--steps", "50", "--threshold", "0", "--window", "7", "--workers", "2",
                         "--mode", mode, "--out", str(tmp_path / mode)])
        assert code == 3
        errors[mode] = capsys.readouterr().err
    assert errors["engine"] == errors["oracle"] and "step 6 (seed 6)" in errors["oracle"]
    last = (tmp_path / "engine" / "rounds.csv").read_text().splitlines()[-1]
    assert last.split(",")[-3:] == ["inf", "inf", "inf"]
    report = json.loads((tmp_path / "engine" / "report.json").read_text(),
                        parse_constant=reject_constant)
    assert report["partial"] is True


ROSENBROCK_OVERFLOW = ["--problem", "rosenbrock", "--rule", "sgd", "--step-size", "0.01",
                       "--steps", "50", "--threshold", "0", "--window", "7", "--workers", "2"]


def test_a_finished_and_a_failed_run_write_the_same_files_but_their_states(tmp_path, capsys):
    # Each per-round fact has one home, rounds.csv, also for a failed run;
    # report.json holds the report's fields and nothing else.
    assert cli.main(["run", "--steps", "20", "--workers", "2", "--out", str(tmp_path / "ok")]) == 0
    assert cli.main(["run", *ROSENBROCK_OVERFLOW, "--out", str(tmp_path / "failed")]) == 3
    assert "step 6 (seed 6)" in capsys.readouterr().err
    common = {"rounds.csv", "report.json"}
    assert {f.name for f in (tmp_path / "ok").iterdir()} == common | {"final_state.bin"}
    assert {f.name for f in (tmp_path / "failed").iterdir()} == common | {"abort_window.bin"}
    rows = (tmp_path / "failed" / "rounds.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 and rows[-1].split(",")[4:] == ["inf", "inf", "inf"]
    fields = {field.name for field in dataclasses.fields(po.telemetry.RunReport)}
    for name in ("ok", "failed"):
        report = json.loads((tmp_path / name / "report.json").read_text(),
                            parse_constant=reject_constant)
        assert set(report) == fields
    assert (report["rounds"], report["speedup_rounds"], report["partial"]) == (6, 1.0, True)


def test_a_failed_runs_partial_report_echoes_its_mode(tmp_path, capsys):
    assert cli.main(["run", *ROSENBROCK_OVERFLOW, "--out", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["partial"] is True and report["config_echo"]["mode"] == "engine"


def test_unreadable_manifest_exits_2(tmp_path, capsys):
    assert cli.main(["verify", "--manifest", str(tmp_path / "missing.ini")]) == 2
    assert "manifest" in capsys.readouterr().err


def test_manifest_without_cases_exits_2(tmp_path, capsys):
    # A config INI is readable but has no [case:...] section: nothing passed.
    manifest = tmp_path / "config.ini"
    manifest.write_text("[problem]\nkind = quadratic\n")
    assert cli.main(["verify", "--manifest", str(manifest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "manifest" in captured.err
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_unwritable_out_exits_1_with_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = cli.main(["run", "--steps", "5", "--out", str(blocker / "x")])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("checksum", [None, "not-hex", "-1", "10000000000000000"])
def test_bad_manifest_checksum_exits_2(tmp_path, capsys, checksum):
    manifest = tmp_path / "manifest.ini"
    lines = ["[case:tiny]", "problem = quadratic", "rule = sgd", "steps = 5"]
    if checksum is not None:
        lines.append(f"expected_checksum = {checksum}")
    manifest.write_text("\n".join(lines) + "\n")
    assert cli.main(["verify", "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert "case:tiny.expected_checksum" in err and "Traceback" not in err


@pytest.mark.parametrize("key,value", [("problem_kind", "quadratic"), ("mode", "oracle"),
                                       ("axis", "gamma"), ("values", "0.5"), ("out", "nowhere")])
def test_a_manifest_key_no_case_takes_exits_2_and_runs_no_case(tmp_path, capsys, monkeypatch,
                                                                key, value):
    # A case takes the options of [problem], [rule] and [engine], spelled as flags.
    manifest = tmp_path / "manifest.ini"
    manifest.write_text(f"[case:q]\nproblem = quadratic\nrule = sgd\nsteps = 5\n"
                        f"{key} = {value}\nexpected_checksum = 0\n")
    monkeypatch.setattr(cli, "engine_run", mock.Mock(side_effect=AssertionError("case ran")))
    assert cli.main(["verify", "--manifest", str(manifest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"case:q.{key}" in captured.err
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# Every problem/rule pair make_rule accepts; split_prune_sgd gets a schedule below.
PAIRS = [(p, r) for p in ("quadratic", "rosenbrock", "stochastic_lsq", "tiny_mlp",
                          "splat2d", "linear_ode")
         for r in ("sgd", "adam", "adaptive_guidance")]
PAIRS += [("splat2d", "split_prune_sgd"), ("linear_ode", "euler_ode")]


class RecordedPool(po.WorkerPool):
    """A pool that keeps the last one made, to read its counters after a run."""

    last = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RecordedPool.last = self


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
    RecordedPool.last = None
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            mock.patch.object(engine, "WorkerPool", RecordedPool):
        code = cli.main([*args, "--out", out])
        # The engine runs after an oracle that succeeded (its losses written).
        engine_ran = mode == "engine" or (mode == "both" and (Path(out) / "oracle_losses.csv").exists())
        if code in (0, 3) and engine_ran:
            report = json.loads((Path(out) / "report.json").read_text())
            if code == 3:
                assert report["partial"] is True
                assert (Path(out) / "abort_window.bin").exists()
            # a run counts exactly the drifts its pool served, aborted rounds included
            assert report["drift_evals"] == sum(RecordedPool.last.timing_report()["drifts_served"])
    assert code in (0, 3), err.getvalue()
    assert threading.active_count() == before
    assert "Traceback" not in err.getvalue()


def test_removed_compare_section_exits_2(tmp_path, capsys):
    for text, key in (("[compare]\nmode = tolerance\ntol = 1e-3\n", "compare"),
                      ("[engine]\naggregation = median\n", "engine.aggregation")):
        ini = tmp_path / "old.ini"
        ini.write_text(text)
        assert cli.main(["run", "--config", str(ini), "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
