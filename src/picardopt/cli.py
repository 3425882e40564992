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
from pathlib import Path

from .config import (OPTIONS, SWEEP_AXES, RunConfig, build_problem, build_rule,
                     engine_settings, load_config, sweep_points)
from .engine import EngineResult, run as engine_run
from .errors import ConfigError, ObjectiveError, PicardoptError, PoisonedDrift
from .oracle import StepComparison, solve_sequential
from .state import iter_states, state_checksum, state_writer, states_equal_bits, write_states
from .telemetry import rounds_csv_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# The exit code of each error that ends a verb; the first matching class wins.
EXIT_CODES = (
    (ConfigError, EXIT_CONFIG),
    ((PoisonedDrift, ObjectiveError), EXIT_NUMERIC),
    ((PicardoptError, OSError), EXIT_FAIL),
)


def _add_config_flags(p: argparse.ArgumentParser, sweep: bool) -> None:
    """``--config`` plus one flag per schema entry; ``[sweep]`` only if asked."""
    p.add_argument("--config", default=None, help="INI config file")
    for option, (section, key, name) in OPTIONS.items():
        if section != "sweep" or sweep:
            p.add_argument("--" + option.replace("_", "-"), dest=name, default=None,
                           metavar=key.upper(), help=f"overrides [{section}] {key}")


def _write_run(out: Path, result: EngineResult, mode: str, window_file: str) -> None:
    """An engine run's files: rounds, report (its echo gains ``mode``) and window
    states, the terminal state of a finished run or a failed one's checkpoint."""
    result.report.config_echo["mode"] = mode
    out.mkdir(parents=True, exist_ok=True)
    (out / "rounds.csv").write_text(rounds_csv_text(result.records))
    (out / "report.json").write_text(result.report.to_json())
    write_states(out / window_file, result.window)


def _run_engine(out: Path, rule, settings, mode: str, oracle_wall: float | None,
                observer=None) -> EngineResult:
    """Run the engine and write its files to ``out``, a failed run's partial
    result included; a finished report carries the oracle's wall time."""
    try:
        result = engine_run(rule, settings, observer=observer)
    except PicardoptError as err:
        partial = getattr(err, "partial", None)
        if partial is not None:
            _write_run(out, partial, mode, "abort_window.bin")
        raise
    result.report.oracle_wall_time_ms = oracle_wall
    _write_run(out, result, mode, "final_state.bin")
    return result


def cmd_run(cfg: RunConfig) -> int:
    if cfg.sweep_axis is not None or cfg.sweep_values:
        key = "sweep.axis" if cfg.sweep_axis is not None else "sweep.values"
        raise ConfigError(key, "the run verb takes no [sweep] section; the sweep verb runs one")
    # Built first, so a run rejected for its configuration leaves no directory.
    problem = build_problem(cfg)
    rule = build_rule(cfg, problem)
    settings = engine_settings(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    oracle = oracle_wall = None
    trajectory_path = out / "oracle_trajectory.bin"
    if cfg.mode in ("oracle", "both"):
        # Written one state at a time; a failed oracle leaves no file.
        with state_writer(trajectory_path, rule.total_steps + 1) as write:
            oracle, oracle_wall = solve_sequential(
                rule, seed_offset=settings.seed_offset,
                injected_cost_ms=settings.injected_cost_ms, observer=write)
        lines = ["step,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(oracle.losses)]
        (out / "oracle_losses.csv").write_text("\n".join(lines) + "\n")

    if cfg.mode == "oracle":
        return EXIT_OK

    # --mode both compares each state as the engine accepts it with the
    # oracle's, read back from its file; neither side is kept.
    comparison = StepComparison(iter_states(trajectory_path)) if cfg.mode == "both" else None
    observer = None if comparison is None else lambda accepted, _: comparison.extend(accepted)
    result = _run_engine(out, rule, settings, cfg.mode, oracle_wall, observer)

    if comparison is not None:
        payload = comparison.to_json_dict()
        lo, le = oracle.losses[-1], result.report.final_loss
        payload.update(oracle_final_loss=lo, engine_final_loss=le,
                       final_loss_rel_diff=abs(le - lo) / max(abs(lo), 1e-300))
        (out / "compare.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        # Only the exact mode promises the oracle's bits; an adaptive run's
        # deltas are reported, not judged.
        if settings.is_exact(rule) and not comparison.passed:
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
    if cfg.mode != "engine":
        raise ConfigError("output.mode", f"the sweep verb runs the engine only, not {cfg.mode!r}")
    # The axes change engine settings only, so the problem and rule are
    # shared, and an error in them fails the whole sweep.
    problem = build_problem(cfg)
    rule = build_rule(cfg, problem)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    axis = cfg.sweep_axis
    rows = ["axis,value,rounds,speedup_rounds,wall_speedup,final_loss,status"]
    oracle_wall_cache: dict[float, float] = {}

    for value, sub in sweep_points(cfg):
        # validate_config has built every value's settings, so only the run can fail.
        settings = engine_settings(sub)
        try:
            cost = settings.injected_cost_ms
            if cost not in oracle_wall_cache:
                _, oracle_wall_cache[cost] = solve_sequential(
                    rule, seed_offset=settings.seed_offset, injected_cost_ms=cost
                )
            oracle_wall = oracle_wall_cache[cost]
            result = _run_engine(out / "runs" / f"{axis}_{value:g}", rule, settings,
                                 sub.mode, oracle_wall)
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
    if not root.is_dir():
        raise ConfigError("reports", f"no reports directory {root}")
    for f in sorted(root.rglob("*.json")):
        try:
            data = json.loads(f.read_text())
            if not isinstance(data, dict) or "schema_version" not in data:
                raise ValueError("not a run report")
            if data.get("partial"):
                raise ValueError("the partial report of a failed run")
            name = f.relative_to(root).with_suffix("").as_posix()
            # Every metric is read before any row is kept: a skipped report adds none.
            rows += [f"{name},{metric},{data[metric]!r}" for metric in PLOT_METRICS]
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

    cases = [section for section in parser.sections() if section.startswith("case:")]
    if not cases:
        raise ConfigError("manifest", f"manifest {path} has no [case:...] section")

    fields = {option: name for option, (sec, _, name) in OPTIONS.items()
              if sec in ("problem", "rule", "engine")}
    all_ok = True
    for section in cases:
        name = section.removeprefix("case:")
        items = dict(parser.items(section))
        raw = items.pop("expected_checksum", None)
        try:
            expected = int(raw, 16)
        except (TypeError, ValueError):
            expected = None
        if expected is None or not 0 <= expected < 2**64:
            raise ConfigError(f"{section}.expected_checksum", f"not a 64-bit hex checksum: {raw!r}")
        for key in items:
            if key not in fields:
                raise ConfigError(f"{section}.{key}", "not a [problem], [rule] or [engine] option")
        overrides = {fields[k]: v for k, v in items.items()}
        cfg = load_config(None, overrides)
        problem = build_problem(cfg)
        rule = build_rule(cfg, problem)
        settings = engine_settings(cfg)
        oracle, _ = solve_sequential(rule, seed_offset=settings.seed_offset)
        result = engine_run(rule, settings)
        got = state_checksum(result.terminal)
        exact = states_equal_bits(result.terminal, oracle.terminal)
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
    except (PicardoptError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(err, kind))


if __name__ == "__main__":
    sys.exit(main())
