"""Structured run metrics: per-round CSV records and the final JSON report.

Reports are pure functions of the recorded events; re-finalizing identical
events yields identical JSON except for wall-clock fields, all of which end in
``_ms`` so they can be stripped for byte-level comparisons.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import InternalConsistencyError

SCHEMA_VERSION = 1

CSV_HEADER = "round,base_step,skip,e,err_min,err_med,err_max"


@dataclass(frozen=True)
class RoundRecord:
    round_index: int
    base_step: int
    skip: int
    threshold: float
    err_min: float
    err_med: float
    err_max: float

    def csv_line(self) -> str:
        return (
            f"{self.round_index},{self.base_step},{self.skip},"
            f"{self.threshold!r},{self.err_min!r},{self.err_med!r},{self.err_max!r}"
        )


@dataclass
class RunReport:
    schema_version: int
    rounds: int
    total_steps: int
    speedup_rounds: float
    wall_time_ms: float
    skip_histogram: dict[int, int]
    error_trace: list[tuple[float, float, float]]
    threshold_trace: list[float]
    final_loss: float | None
    config_echo: dict
    partial: bool = False
    oracle_wall_time_ms: float | None = None
    worker_busy_ms: list[float] | None = None
    drift_evals: int = 0
    work_amplification: float = 0.0
    drift_wait_ms: float | None = None

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["skip_histogram"] = {str(k): v for k, v in sorted(self.skip_histogram.items())}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def finalize_report(records, total_steps: int, config_echo: dict, final_loss: float | None,
                    wall_time_ms: float, oracle_wall_time_ms: float | None = None,
                    worker_busy_ms: list[float] | None = None, partial: bool = False,
                    drift_evals: int = 0, drift_wait_ms: float | None = None) -> RunReport:
    """Aggregate round records; validates the skip-sum invariant on full runs.

    ``drift_evals`` is the number of drifts the recorded rounds gathered (the
    sum of their window sizes); ``work_amplification`` is that over the
    horizon, the compute traded for fewer rounds.
    """
    hist: dict[int, int] = {}
    for r in records:
        hist[r.skip] = hist.get(r.skip, 0) + 1
    if not partial:
        covered = sum(k * v for k, v in hist.items())
        if covered != total_steps:
            raise InternalConsistencyError(
                f"skip histogram covers {covered} steps, run declared {total_steps}"
            )
    rounds = len(records)
    return RunReport(
        schema_version=SCHEMA_VERSION,
        rounds=rounds,
        total_steps=total_steps,
        speedup_rounds=(total_steps / rounds) if rounds else 0.0,
        wall_time_ms=wall_time_ms,
        skip_histogram=hist,
        error_trace=[(r.err_min, r.err_med, r.err_max) for r in records],
        threshold_trace=[r.threshold for r in records],
        final_loss=final_loss,
        config_echo=config_echo,
        partial=partial,
        oracle_wall_time_ms=oracle_wall_time_ms,
        worker_busy_ms=worker_busy_ms,
        drift_evals=drift_evals,
        work_amplification=drift_evals / total_steps,
        drift_wait_ms=drift_wait_ms,
    )


def rounds_csv_text(records) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_line() for r in records]) + "\n"


def write_rounds_csv(path, records) -> None:
    with open(path, "w") as f:
        f.write(rounds_csv_text(records))


def write_report_json(path, report: RunReport) -> None:
    with open(path, "w") as f:
        f.write(report.to_json())


def strip_wall_fields(obj):
    """Recursively drop dict keys ending in ``_ms`` (the non-deterministic ones)."""
    if isinstance(obj, dict):
        return {k: strip_wall_fields(v) for k, v in obj.items() if not k.endswith("_ms")}
    if isinstance(obj, list):
        return [strip_wall_fields(v) for v in obj]
    return obj


def reports_equal_excluding_wall(json_a: str, json_b: str) -> bool:
    a = strip_wall_fields(json.loads(json_a))
    b = strip_wall_fields(json.loads(json_b))
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
