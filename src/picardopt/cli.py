"""Command-line harness: single runs, oracle comparisons, ablation sweeps.

Verbs:
    run       execute one configuration (engine / oracle / both)
    sweep     one-axis ablation (window | gamma | cost), combined CSV
    plotdata  tidy a directory of report JSONs into long-format CSV
    verify    run the pinned suite manifest and check state checksums

``run`` takes one flag per key of every config section but ``[sweep]``;
``sweep`` takes all of them (see ``picardopt.config.OPTIONS``).

Exit codes are a stable contract, mapped in ``main`` alone: 0 ok, 2 config
or schedule error, 3 non-finite numerics or a degenerate objective, 1 any
other failure, including a failed verification or an exact ``--mode both``
run that differs from the oracle.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import (OPTIONS, SWEEP_AXES, RunConfig, build_problem, build_rule,
                     engine_settings, load_config)
from .engine import run as engine_run
from .errors import ConfigError, ObjectiveError, PicardoptError, PoisonedDrift
from .oracle import Trajectory, checked_losses, compare_trajectories, solve_sequential
from .state import state_checksum, states_equal_bits, write_states
from .telemetry import write_report_json, write_rounds_csv

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# The exit code of each error that ends a verb; the first matching class wins.
EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    ((PoisonedDrift, ObjectiveError), EXIT_NUMERIC),
    (PicardoptError, EXIT_FAIL),
)


def _add_config_flags(p: argparse.ArgumentParser, sweep: bool) -> None:
    """``--config`` plus one flag per schema entry; ``[sweep]`` only if asked."""
    p.add_argument("--config", default=None, help="INI config file")
    for option, (section, key, name) in OPTIONS.items():
        if section != "sweep" or sweep:
            p.add_argument("--" + option.replace("_", "-"), dest=name, default=None,
                           metavar=key.upper(), help=f"overrides [{section}] {key}")


def _engine_trajectory(states, problem, seed_offset: int) -> Trajectory:
    return Trajectory(list(states), checked_losses(problem, states, seed_offset))


def _write_losses_csv(path, traj: Trajectory) -> None:
    lines = ["step,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(traj.losses)]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_run(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = build_problem(cfg)
    rule = build_rule(cfg, problem)

    oracle_traj = None
    oracle_wall = None
    if cfg.mode in ("oracle", "both"):
        oracle_traj, oracle_wall = solve_sequential(
            rule, seed_offset=cfg.seed_offset, injected_cost_ms=cfg.injected_cost_ms
        )
        write_states(out / "oracle_trajectory.bin", oracle_traj.states)
        _write_losses_csv(out / "oracle_losses.csv", oracle_traj)

    if cfg.mode == "oracle":
        return EXIT_OK

    try:
        result = engine_run(rule, engine_settings(cfg), echo_extra={"mode": cfg.mode})
    except PicardoptError as err:
        report = getattr(err, "partial_report", None)
        if report is not None:
            write_report_json(out / "report.json", report)
        window = getattr(err, "partial_window", None)
        if window is not None:
            write_states(out / "abort_window.bin", list(window.states))
        raise

    result.report.oracle_wall_time_ms = oracle_wall
    write_rounds_csv(out / "rounds.csv", result.records)
    write_report_json(out / "report.json", result.report)
    write_states(out / "final_state.bin", [result.terminal])

    if cfg.mode == "both":
        engine_traj = _engine_trajectory(result.trajectory, problem, cfg.seed_offset)
        comparison = compare_trajectories(oracle_traj, engine_traj)
        payload = comparison.to_json_dict()
        lo, le = oracle_traj.losses[-1], engine_traj.losses[-1]
        payload["oracle_final_loss"] = lo
        payload["engine_final_loss"] = le
        payload["final_loss_rel_diff"] = abs(le - lo) / max(abs(lo), 1e-300)
        (out / "compare.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        # Only the exact mode promises the oracle's bits; an adaptive run's
        # deltas are reported, not judged.
        if cfg.is_exact() and not comparison.passed:
            print(
                f"comparison failed: first divergence at step "
                f"{comparison.first_divergence}, max delta {comparison.max_delta:g}",
                file=sys.stderr,
            )
            return EXIT_FAIL
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.sweep_axis is None:
        raise ConfigError("sweep.axis", f"the sweep verb needs one of {SWEEP_AXES}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    axis = cfg.sweep_axis
    rows = ["axis,value,rounds,speedup_rounds,wall_speedup,final_loss,status"]
    oracle_wall_cache: dict[float, float] = {}

    for value in cfg.sweep_values:
        if axis == "window":
            sub = replace(cfg, window=int(value))
        elif axis == "gamma":
            sub = replace(cfg, gamma=float(value))
        else:
            sub = replace(cfg, injected_cost_ms=float(value))
        run_dir = out / "runs" / f"{axis}_{value:g}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            problem = build_problem(sub)
            rule = build_rule(sub, problem)
            cost = sub.injected_cost_ms
            if cost not in oracle_wall_cache:
                _, oracle_wall_cache[cost] = solve_sequential(
                    rule, seed_offset=sub.seed_offset, injected_cost_ms=cost
                )
            oracle_wall = oracle_wall_cache[cost]
            result = engine_run(rule, engine_settings(sub, record_trajectory=False),
                                echo_extra={"mode": sub.mode})
            result.report.oracle_wall_time_ms = oracle_wall
            write_report_json(run_dir / "report.json", result.report)
            wall_speedup = oracle_wall / result.report.wall_time_ms
            rows.append(
                f"{axis},{value:g},{result.report.rounds},"
                f"{result.report.speedup_rounds!r},{wall_speedup!r},"
                f"{result.report.final_loss!r},ok"
            )
        except PicardoptError as err:
            print(f"sweep value {value:g} failed: {err}", file=sys.stderr)
            rows.append(f"{axis},{value:g},,,,,error")
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    return EXIT_OK


PLOT_METRICS = ("rounds", "total_steps", "speedup_rounds", "final_loss", "wall_time_ms")


def cmd_plotdata(reports_dir: str, out_path: str) -> int:
    rows = ["report,metric,value"]
    root = Path(reports_dir)
    files = sorted(root.rglob("*.json")) if root.is_dir() else []
    for f in files:
        try:
            data = json.loads(f.read_text())
            if not isinstance(data, dict) or "schema_version" not in data:
                raise ValueError("not a run report")
            name = f.relative_to(root).with_suffix("").as_posix()
            for metric in PLOT_METRICS:
                rows.append(f"{name},{metric},{data[metric]!r}")
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {f}: {exc}", file=sys.stderr)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    Path(out_path).write_text("\n".join(rows) + "\n")
    return EXIT_OK


def default_manifest_path() -> Path:
    return Path(__file__).parent / "data" / "suite_manifest.ini"


def cmd_verify(manifest_path: str | None) -> int:
    path = Path(manifest_path) if manifest_path else default_manifest_path()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not parser.read(path):
        raise ConfigError("manifest", f"cannot read manifest {path}")

    fields = {option: name for option, (_, _, name) in OPTIONS.items()}
    all_ok = True
    for section in parser.sections():
        if not section.startswith("case:"):
            continue
        name = section.removeprefix("case:")
        items = dict(parser.items(section))
        expected = int(items.pop("expected_checksum"), 16)
        overrides = {fields.get(k, k): v for k, v in items.items()}
        cfg = load_config(None, overrides)
        problem = build_problem(cfg)
        rule = build_rule(cfg, problem)
        oracle_traj, _ = solve_sequential(rule, seed_offset=cfg.seed_offset)
        result = engine_run(rule, engine_settings(cfg, record_trajectory=False))
        got = state_checksum(result.terminal)
        exact = states_equal_bits(result.terminal, oracle_traj.states[-1])
        ok = exact and got == expected
        all_ok &= ok
        detail = f"checksum {got:016x}"
        if not exact:
            detail += " (engine != oracle)"
        if got != expected:
            detail += f" (pinned {expected:016x})"
        print(f"case {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    return EXIT_OK if all_ok else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="picardopt", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute one configuration")
    _add_config_flags(p_run, sweep=False)

    p_sweep = sub.add_parser("sweep", help="one-axis ablation sweep")
    _add_config_flags(p_sweep, sweep=True)

    p_plot = sub.add_parser("plotdata", help="tidy report JSONs into long CSV")
    p_plot.add_argument("--reports", required=True)
    p_plot.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run the pinned suite manifest")
    p_verify.add_argument("--manifest", default=None)

    args = parser.parse_args(argv)

    try:
        if args.verb in ("run", "sweep"):
            overrides = {k: v for k, v in vars(args).items() if k not in ("verb", "config")}
            cfg = load_config(args.config, overrides)
            return cmd_run(cfg) if args.verb == "run" else cmd_sweep(cfg)
        if args.verb == "plotdata":
            return cmd_plotdata(args.reports, args.out)
        return cmd_verify(args.manifest)
    except PicardoptError as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
