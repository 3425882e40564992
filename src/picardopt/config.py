"""Run configuration: flat INI-style files with per-module sections, overlaid
by command-line flags (flags > file > built-in defaults).

``SECTIONS`` is the one description of a run's settings: it maps each
``[section] key`` to its ``RunConfig`` field.  Everything else is derived
from it and from the field annotations:

* the CLI flag and manifest key of an entry (``OPTIONS``) is the key itself,
  written ``--data-seed`` as a flag, except that ``kind`` is named after its
  section (``--problem``, ``--rule``) and ``[output] dir`` is ``--out``;
* ``_coerce`` converts a text value to the field's annotated type.

A field left at ``None`` is unset: the object it configures supplies the
default (a problem class its size and noise, ``AdamParams`` the Adam
constants, ``EngineSettings`` the engine's).  It rejects a bad value, or a
setting it does not take, with an ``ArgumentError``, which ``_named`` turns
into a ``ConfigError`` naming the ``section.key``.
The report echoes the values the run was built with (``engine.run``).

``schedule`` is space-separated ``step:action:i[,j...]`` entries, e.g.
``60:split:0 240:prune:1``.  The PICARDOPT_OUT_DIR environment variable
overrides the output directory (flag still wins).
"""

from __future__ import annotations

import configparser
import os
import types
import typing
from dataclasses import dataclass, field, replace

from .engine import EngineSettings
from .errors import ArgumentError, ConfigError, ScheduleError
from .problems import Problem, make_problem
from .rules import AdamParams, UpdateRule, make_rule
from .schedule import ScheduleAction

MODES = ("engine", "oracle", "both")
SWEEP_AXES = ("window", "gamma", "cost")

# Calibrated per-family step sizes.
DEFAULT_STEP_SIZES: dict[tuple[str, str], float] = {
    ("quadratic", "sgd"): 0.1,
    ("quadratic", "adam"): 0.05,
    ("rosenbrock", "sgd"): 3e-4,
    ("rosenbrock", "adam"): 0.02,
    ("stochastic_lsq", "sgd"): 0.1,
    ("stochastic_lsq", "adam"): 0.05,
    ("tiny_mlp", "sgd"): 0.05,
    ("tiny_mlp", "adam"): 0.01,
    ("splat2d", "sgd"): 3e-4,
    ("splat2d", "adam"): 0.01,
    ("splat2d", "split_prune_sgd"): 3e-4,
    ("linear_ode", "euler_ode"): 1.0,
}


@dataclass
class RunConfig:
    problem_kind: str = "quadratic"
    dim: int | None = None
    data_seed: int = 0
    noise: float | None = None
    points: int | None = None

    rule_kind: str = "adam"
    step_size: float | None = None
    beta1: float | None = None
    beta2: float | None = None
    eps: float | None = None
    schedule: str = ""

    steps: int = 200
    window: int | None = None
    workers: int | None = None
    threshold: float | None = None
    gamma: float | None = None
    seed_offset: int | None = None
    injected_cost_ms: float | None = None

    out_dir: str = "out"
    mode: str = "engine"

    sweep_axis: str | None = None
    sweep_values: list[float] = field(default_factory=list)

    def resolved_step_size(self) -> float:
        """The step size given, else the table's for the problem and the rule
        as ``make_rule`` reads it: ``split_prune_sgd`` is ``sgd``, and
        ``adaptive_guidance`` takes ``sgd``'s."""
        if self.step_size is not None:
            return self.step_size
        kind = self.rule_kind
        kind = "sgd" if kind in ("split_prune_sgd", "adaptive_guidance") else kind
        return DEFAULT_STEP_SIZES.get((self.problem_kind, kind), 0.05)


SECTIONS = {
    "problem": {"kind": "problem_kind", "dim": "dim", "data_seed": "data_seed",
                "noise": "noise", "points": "points"},
    "rule": {"kind": "rule_kind", "step_size": "step_size", "beta1": "beta1",
             "beta2": "beta2", "eps": "eps", "schedule": "schedule"},
    "engine": {"steps": "steps", "window": "window", "workers": "workers",
               "threshold": "threshold", "gamma": "gamma", "seed_offset": "seed_offset",
               "injected_cost_ms": "injected_cost_ms"},
    "output": {"dir": "out_dir", "mode": "mode"},
    "sweep": {"axis": "sweep_axis", "values": "sweep_values"},
}

# Option name (flag without ``--``, manifest key) -> (section, key, field).
OPTIONS = {
    {"kind": section, "dir": "out"}.get(key, key): (section, key, name)
    for section, keys in SECTIONS.items() for key, name in keys.items()
}

_FIELD_TYPES = typing.get_type_hints(RunConfig)
_KEY_OF = {name: f"{section}.{key}" for section, key, name in OPTIONS.values()}


def _coerce(name: str, raw: str):
    """Convert a text value to the annotated type of field ``name``."""
    hint = _FIELD_TYPES[name]
    if isinstance(hint, types.UnionType):  # ``T | None``
        hint = next(arg for arg in typing.get_args(hint) if arg is not type(None))
    try:
        if typing.get_origin(hint) is list:
            (item,) = typing.get_args(hint)
            return [item(tok) for tok in raw.replace(",", " ").split()]
        return hint(raw.strip())
    except ValueError as exc:
        raise ConfigError(_KEY_OF[name], f"cannot parse {raw!r}: {exc}") from exc


def _parse_schedule(text: str) -> list[ScheduleAction]:
    actions = []
    for entry in text.split():
        parts = entry.split(":")
        if len(parts) != 3:
            raise ConfigError("rule.schedule", f"bad entry {entry!r}; want step:action:i[,j...]")
        try:
            actions.append(ScheduleAction(int(parts[0]), parts[1],
                                          tuple(int(tok) for tok in parts[2].split(","))))
        except (ValueError, ScheduleError) as exc:
            raise ConfigError("rule.schedule", f"bad entry {entry!r}: {exc}") from exc
    return actions


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from an optional file plus overrides keyed
    by field name (text values are converted, typed ones taken as they are)."""
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        if not parser.read(path):
            raise ConfigError("config", f"cannot read config file {path!r}")
        for section in parser.sections():
            if section not in SECTIONS:
                raise ConfigError(section, "unknown section")
            keys = SECTIONS[section]
            for key, value in parser.items(section):
                if key not in keys:
                    raise ConfigError(f"{section}.{key}", "unknown key")
                setattr(cfg, keys[key], _coerce(keys[key], value))
    env_out = os.environ.get("PICARDOPT_OUT_DIR")
    if env_out:
        cfg.out_dir = env_out
    for name, value in (overrides or {}).items():
        if value is None:
            continue
        if name not in _FIELD_TYPES:
            raise ConfigError(name, "unknown override")
        setattr(cfg, name, _coerce(name, value) if isinstance(value, str) else value)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    """Checks that no constructor makes: the output mode and the ``[sweep]``
    fields.  ``engine_settings`` checks the engine section, and each sweep
    value's; ``build_problem`` and ``build_rule`` check the rest when a verb
    builds them."""
    if cfg.mode not in MODES:
        raise ConfigError("output.mode", f"must be one of {MODES}")
    if cfg.sweep_axis is not None:
        if cfg.sweep_axis not in SWEEP_AXES:
            raise ConfigError("sweep.axis", f"must be one of {SWEEP_AXES}")
        if not cfg.sweep_values:
            raise ConfigError("sweep.values", "sweep needs at least one value")
        if cfg.sweep_axis == "window" and not all(float(v).is_integer() for v in cfg.sweep_values):
            raise ConfigError("sweep.values", "window values must be integers")
    engine_settings(cfg)
    if cfg.sweep_axis is not None:
        for value, sub in sweep_points(cfg):
            try:
                engine_settings(sub)
            except ConfigError as exc:
                raise ConfigError("sweep.values", f"value {value:g}: {exc.__cause__}") from exc


def sweep_points(cfg: RunConfig) -> list[tuple[float, RunConfig]]:
    """Each ``[sweep]`` value with the config that runs it."""
    field_name, kind = {"window": ("window", int), "gamma": ("gamma", float),
                        "cost": ("injected_cost_ms", float)}[cfg.sweep_axis]
    return [(value, replace(cfg, **{field_name: kind(value)})) for value in cfg.sweep_values]


def _named(section: str, build, renames: dict[str, str] | None = None):
    """``build()``, whose ``ArgumentError`` becomes a ``ConfigError`` naming
    ``<section>.<argument>``, or the key ``renames`` gives the argument."""
    try:
        return build()
    except ArgumentError as exc:
        key = (renames or {}).get(exc.argument, f"{section}.{exc.argument}")
        raise ConfigError(key, str(exc)) from exc


def build_problem(cfg: RunConfig) -> Problem:
    settings = {key: getattr(cfg, name) for key, name in SECTIONS["problem"].items()
                if key != "kind" and getattr(cfg, name) is not None}
    return _named("problem", lambda: make_problem(cfg.problem_kind, **settings))


def build_rule(cfg: RunConfig, problem: Problem) -> UpdateRule:
    """The rule; an error names the key that set the failing argument."""
    betas = {key: getattr(cfg, key) for key in ("beta1", "beta2", "eps")
             if getattr(cfg, key) is not None}
    renames = {"total_steps": "engine.steps", "adam": f"rule.{next(iter(betas), 'beta1')}"}
    try:
        return _named("rule", lambda: make_rule(
            cfg.rule_kind, problem, cfg.resolved_step_size(), cfg.steps,
            adam=AdamParams(**betas) if betas else None, schedule=_parse_schedule(cfg.schedule),
        ), renames)
    except ScheduleError as exc:
        raise ConfigError("rule.schedule", str(exc)) from exc


def engine_settings(cfg: RunConfig, *, record_trajectory: bool = False) -> EngineSettings:
    """The ``[engine]`` fields that are set (``steps`` is the rule's);
    ``EngineSettings`` supplies the rest.  ``record_trajectory`` takes only
    False, which the benchmark passes: the engine keeps no trajectory, and a
    caller that wants the accepted states passes ``engine.run`` an observer."""
    if record_trajectory is not False:
        raise ValueError("record_trajectory is gone: pass engine.run an observer")
    settings = {key: getattr(cfg, name) for key, name in SECTIONS["engine"].items()
                if key != "steps" and getattr(cfg, name) is not None}
    return _named("engine", lambda: EngineSettings(**settings))
