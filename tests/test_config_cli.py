import json
import re
import threading
from pathlib import Path

import pytest
from conftest import reports_equal_excluding_wall

from picardopt.cli import main
from picardopt.config import build_problem, build_rule, engine_settings, load_config
from picardopt.errors import ConfigError
from picardopt.state import iter_states

CONFIG = """
# example configuration
[problem]
kind = quadratic
dim = 6
data_seed = 3
noise = 0.1

[rule]
kind = sgd
step_size = 0.1

[engine]
steps = 40            ; horizon
window = 3
workers = 2
threshold = 1e-6
gamma = 0.9

[output]
mode = engine
"""


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(CONFIG)
    return p


def test_config_file_parsed_with_comments(config_file):
    cfg = load_config(str(config_file))
    assert cfg.problem_kind == "quadratic"
    assert cfg.steps == 40
    assert cfg.noise == 0.1
    assert cfg.window == 3


def test_readme_ini_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.ini"
    path.write_text(example)
    cfg = load_config(str(path))
    rule = build_rule(cfg, build_problem(cfg))
    assert (rule.problem.kind, rule.kind, rule.total_steps) == ("splat2d", "sgd", 300)


def test_flag_overrides_file(config_file):
    cfg = load_config(str(config_file), {"steps": 10, "gamma": 0.5})
    assert cfg.steps == 10 and cfg.gamma == 0.5


def test_window_defaults_to_workers_minus_one():
    cfg = load_config(None, {"workers": 4})
    assert cfg.window is None
    assert engine_settings(cfg).window == 3


def test_threshold_default_per_family():
    cfg = load_config(None, {"problem_kind": "quadratic"})
    assert cfg.threshold is None
    assert engine_settings(cfg).threshold == 1e-6


def test_invalid_gamma_names_field():
    with pytest.raises(ConfigError) as exc:
        load_config(None, {"gamma": 1.5})
    assert "gamma" in str(exc.value)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[engine]\nturbo = yes\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(p))
    assert "turbo" in str(exc.value)


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("PICARDOPT_OUT_DIR", str(tmp_path / "envout"))
    cfg = load_config(None, {})
    assert cfg.out_dir == str(tmp_path / "envout")


# --- CLI ----------------------------------------------------------------------


def run_cli(*args):
    return main(list(args))


def test_engine_settings_takes_only_a_false_record_trajectory():
    # The benchmark still passes record_trajectory=False; the engine keeps no
    # trajectory, so True has nothing to turn on.
    cfg = load_config(None, {"window": 3, "workers": 2})
    settings = engine_settings(cfg, record_trajectory=False)
    assert (settings.window, settings.workers) == (3, 2)
    with pytest.raises(ValueError, match="observer"):
        engine_settings(cfg, record_trajectory=True)


def test_cli_invalid_gamma_exits_2(tmp_path, capsys):
    code = run_cli("run", "--problem", "quadratic", "--gamma", "1.5", "--out", str(tmp_path))
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_cli_equivalence_run_verbatim(tmp_path):
    # threshold 0 without an explicit gamma resolves to the frozen exact mode
    code = run_cli("run", "--problem", "quadratic", "--rule", "adam", "--steps", "200",
                   "--window", "7", "--workers", "8", "--threshold", "0",
                   "--mode", "both", "--out", str(tmp_path))
    assert code == 0
    compare = json.loads((tmp_path / "compare.json").read_text())
    assert compare["passed"]


def test_cli_run_both_bitexact_exit0(tmp_path):
    code = run_cli(
        "run", "--problem", "quadratic", "--rule", "adam", "--steps", "50",
        "--window", "7", "--workers", "8", "--threshold", "0", "--gamma", "1.0",
        "--mode", "both", "--out", str(tmp_path),
    )
    assert code == 0
    compare = json.loads((tmp_path / "compare.json").read_text())
    assert compare["passed"]
    assert set(compare) == {"passed", "first_divergence", "max_delta", "per_step_max_delta",
                            "oracle_final_loss", "engine_final_loss", "final_loss_rel_diff"}
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["total_steps"] == 50
    assert (tmp_path / "rounds.csv").exists()
    assert len(list(iter_states(tmp_path / "final_state.bin"))) == 1
    assert (tmp_path / "oracle_trajectory.bin").exists()


def test_cli_oracle_mode_artifacts(tmp_path):
    code = run_cli("run", "--problem", "quadratic", "--rule", "sgd", "--steps", "12",
                   "--mode", "oracle", "--out", str(tmp_path))
    assert code == 0
    states = list(iter_states(tmp_path / "oracle_trajectory.bin"))
    assert len(states) == 13
    lines = (tmp_path / "oracle_losses.csv").read_text().strip().split("\n")
    assert lines[0] == "step,loss" and len(lines) == 14
    assert not (tmp_path / "report.json").exists()


def test_cli_numeric_poisoning_exits_3(tmp_path, capsys):
    code = run_cli("run", "--problem", "rosenbrock", "--rule", "sgd", "--step-size", "1e6",
                   "--steps", "30", "--threshold", "0", "--gamma", "1.0",
                   "--out", str(tmp_path))
    assert code == 3
    # abort checkpoint and partial report written
    assert (tmp_path / "abort_window.bin").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["partial"] is True


def test_cli_overflowing_distance_exits_3_without_leaking_threads(tmp_path, capsys):
    # States stay finite but the fixed-point distance overflows to inf.
    before = threading.active_count()
    code = run_cli("run", "--problem", "rosenbrock", "--rule", "sgd", "--step-size", "0.01",
                   "--steps", "50", "--threshold", "1e-6", "--out", str(tmp_path))
    assert code == 3
    assert (tmp_path / "abort_window.bin").exists()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["partial"] is True
    assert threading.active_count() == before


def test_cli_determinism_byte_identical(tmp_path):
    args = ["run", "--problem", "stochastic_lsq", "--rule", "adam", "--steps", "60",
            "--window", "5", "--noise", "0.75", "--threshold", "1e-6", "--gamma", "0.9"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(*args, "--workers", "4", "--out", str(out)) == 0
        outs.append(out)
    csv_a = (outs[0] / "rounds.csv").read_bytes()
    csv_b = (outs[1] / "rounds.csv").read_bytes()
    assert csv_a == csv_b
    assert reports_equal_excluding_wall((outs[0] / "report.json").read_text(),
                                        (outs[1] / "report.json").read_text())
    # and across worker counts
    out_w1 = tmp_path / "w1"
    assert run_cli(*args, "--workers", "1", "--out", str(out_w1)) == 0
    assert (out_w1 / "rounds.csv").read_bytes() == csv_a
    assert (out_w1 / "final_state.bin").read_bytes() == (outs[0] / "final_state.bin").read_bytes()


def test_cli_sweep_writes_combined_csv(tmp_path):
    code = run_cli("sweep", "--problem", "quadratic", "--rule", "sgd", "--steps", "40",
                   "--workers", "4", "--noise", "0.1", "--axis", "window",
                   "--values", "1,3", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "axis,value,rounds,speedup_rounds,wall_speedup,final_loss,status"
    assert len(lines) == 3
    assert all(line.endswith("ok") for line in lines[1:])
    # each run's per-round trace is kept, in its rounds.csv
    assert {f.name for f in (tmp_path / "runs" / "window_1").iterdir()} == {
        "rounds.csv", "report.json", "final_state.bin"}


def test_cli_sweep_records_failures_and_continues(tmp_path):
    code = run_cli("sweep", "--problem", "rosenbrock", "--rule", "sgd", "--step-size", "1e6",
                   "--steps", "20", "--workers", "2", "--axis", "window",
                   "--values", "1,2", "--out", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert all(line.endswith("error") for line in lines[1:])


def test_cli_plotdata_empty_dir(tmp_path):
    out_csv = tmp_path / "plot.csv"
    (tmp_path / "empty").mkdir()
    code = run_cli("plotdata", "--reports", str(tmp_path / "empty"), "--out", str(out_csv))
    assert code == 0
    assert out_csv.read_text().strip() == "report,metric,value"


def test_cli_plotdata_without_a_reports_directory_exits_2(tmp_path, capsys):
    out_csv = tmp_path / "plot.csv"
    code = run_cli("plotdata", "--reports", str(tmp_path / "none"), "--out", str(out_csv))
    err = capsys.readouterr().err
    assert code == 2 and "config field 'reports'" in err and "Traceback" not in err
    assert not out_csv.exists()


def test_cli_plotdata_roundtrip_and_malformed(tmp_path, capsys):
    src = tmp_path / "reports"
    src.mkdir()
    assert run_cli("run", "--problem", "quadratic", "--rule", "sgd", "--steps", "15",
                   "--workers", "2", "--out", str(src / "r1")) == 0
    (src / "junk.json").write_text("{not json")
    out_csv = tmp_path / "plot.csv"
    assert run_cli("plotdata", "--reports", str(src), "--out", str(out_csv)) == 0
    assert "skipping" in capsys.readouterr().err
    lines = out_csv.read_text().strip().split("\n")
    assert len(lines) == 6  # header + 5 metrics for the one valid report
    report = json.loads((src / "r1" / "report.json").read_text())
    row = {l.split(",")[1]: l.split(",", 2)[2] for l in lines[1:]}
    assert float(row["rounds"]) == report["rounds"]
    assert float(row["final_loss"]) == report["final_loss"]


def test_cli_plotdata_skips_a_report_missing_a_metric_whole(tmp_path, capsys):
    # A report whose rounds and total_steps come before the missing metric
    # adds none of its rows.
    src = tmp_path / "reports"
    src.mkdir()
    (src / "partial.json").write_text(json.dumps({"schema_version": 1, "rounds": 3,
                                                  "total_steps": 10}))
    out_csv = tmp_path / "plot.csv"
    assert run_cli("plotdata", "--reports", str(src), "--out", str(out_csv)) == 0
    assert "skipping" in capsys.readouterr().err
    assert out_csv.read_text() == "report,metric,value\n"


def test_cli_plotdata_skips_a_failed_runs_partial_report(tmp_path, capsys):
    # A failed run's report has no final loss and covers part of the horizon.
    src = tmp_path / "reports"
    assert run_cli("run", "--problem", "rosenbrock", "--rule", "sgd", "--step-size", "0.01",
                   "--steps", "50", "--threshold", "0", "--window", "7", "--workers", "2",
                   "--out", str(src / "failed")) == 3
    capsys.readouterr()
    out_csv = tmp_path / "plot.csv"
    assert run_cli("plotdata", "--reports", str(src), "--out", str(out_csv)) == 0
    assert capsys.readouterr().err.startswith("warning: skipping")
    assert out_csv.read_text() == "report,metric,value\n"


def test_cli_verify_manifest_passes(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("PASS") >= 7


def test_cli_verify_detects_checksum_drift(tmp_path, capsys):
    from picardopt.cli import default_manifest_path

    text = default_manifest_path().read_text()
    tampered = tmp_path / "manifest.ini"
    lines = []
    flipped = False
    for line in text.split("\n"):
        if not flipped and line.startswith("expected_checksum"):
            key, val = line.split(" = ")
            bad = f"{(int(val, 16) ^ 1):016x}"
            line = f"{key} = {bad}"
            flipped = True
        lines.append(line)
    tampered.write_text("\n".join(lines))
    assert run_cli("verify", "--manifest", str(tampered)) == 1
    assert "FAIL" in capsys.readouterr().out
