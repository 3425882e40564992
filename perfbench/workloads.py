"""The benchmark's workloads and the closed loop that measures one of them.

Each workload is a fixed picardopt configuration plus the one input the
benchmark seed draws.  A run builds the configuration through
``picardopt.config``, then solves it back to back: every iteration times one
``engine.run`` solve and one honest sequential baseline, and checks both.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass, field

from picardopt import config, engine, oracle, rules
from picardopt.pool import WorkerPool
from picardopt.state import state_checksum, states_equal_bits

# Layer calls the traced run must record on every workload (run.self_test).
ALWAYS_CALLED = (
    "engine.run", "engine.picard_round", "engine.fixed_point_distance",
    "engine.compute_skip", "engine.update_threshold", "engine.advance_window",
    "pool.WorkerPool", "pool.gather_drifts", "rules.drift", "rules.rollout_one",
    "rules.initial_state", "problems.grad", "problems.loss", "state.ParamState",
    "state.Drift", "state.with_step", "telemetry.finalize_report",
    "kernels.kernel_path", "config.load_config", "config.build_problem",
    "config.build_rule", "config.engine_settings",
)


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict          # picardopt.config fields, without the seeded one
    seed_field: str          # the config field the benchmark seed sets
    exact: bool              # terminal state must equal the oracle's bitwise
    called: tuple[str, ...]  # layer calls expected on top of ALWAYS_CALLED
    not_called: tuple[str, ...]  # span-name prefixes that must record no call

    def config_overrides(self, seed: int) -> dict:
        return {**self.overrides, self.seed_field: seed % 2**31}


# Why each workload is in the benchmark: perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact_splat",
            overrides=dict(problem_kind="splat2d", rule_kind="split_prune_sgd", points=2,
                           noise=0.01, data_seed=5, steps=500, window=7, workers=2,
                           threshold=0.0, gamma=1.0, injected_cost_ms=1.0,
                           schedule="100:split:0 200:split:1 300:split:2 400:prune:1"),
            # The 1 ms cost keeps its times steady; without it thread hand-offs
            # dominate and follow the host's load (README.md).
            seed_field="seed_offset",
            exact=True,
            # rules.reconcile_payload may be 0 here: skips of one never roll
            # out a drift taken at a stale dimension.
            called=("schedule.reconcile_vector", "schedule.apply_action",
                    "kernels.splat_loss_grad"),
            not_called=("kernels.adam_apply", "state.MomentState"),
        ),
        Workload(
            name="wide_adam",
            overrides=dict(problem_kind="quadratic", rule_kind="adam", dim=100_000,
                           steps=300, window=7, workers=2, threshold=1e-6, gamma=0.9),
            seed_field="data_seed",
            exact=False,
            called=("kernels.adam_apply", "state.MomentState"),
            not_called=("schedule.", "rules.reconcile_payload", "kernels.splat_loss_grad"),
        ),
        Workload(
            name="costly_lsq",
            overrides=dict(problem_kind="stochastic_lsq", rule_kind="sgd", dim=16,
                           noise=0.75, data_seed=7, steps=400, window=4, workers=2,
                           threshold=1e-6, gamma=0.9, injected_cost_ms=5.0),
            seed_field="seed_offset",
            exact=False,
            called=(),
            not_called=("schedule.", "rules.reconcile_payload", "kernels.adam_apply",
                        "kernels.splat_loss_grad", "state.MomentState"),
        ),
    )
}


def build(workload: Workload, seed: int):
    """Config, rule and engine settings for one seeded workload."""
    cfg = config.load_config(None, workload.config_overrides(seed))
    problem = config.build_problem(cfg)
    rule = config.build_rule(cfg, problem)
    settings = config.engine_settings(cfg, record_trajectory=False)
    return rule, settings


@dataclass
class Solve:
    """One engine solve: wall time, the counts behind it and its result."""

    wall_ms: float
    rounds: int
    drift_evals: int
    checksum: int
    final_loss: float


def solve(rule, settings) -> tuple[Solve, object]:
    """Time one ``engine.run`` on a fresh pool; the pool starts and closes
    outside the clock.  Returns the measured solve and the terminal state."""
    gc.collect()  # start every timed region from the same heap state
    pool = WorkerPool(settings.workers, settings.seed_offset, settings.injected_cost_ms)
    try:
        t0 = time.perf_counter()
        result = engine.run(rule, settings, pool)
        wall_ms = 1000.0 * (time.perf_counter() - t0)
    finally:
        pool.close()
    evals = sum(pool.timing_report()["drifts_served"])
    terminal = result.terminal
    return Solve(wall_ms, result.report.rounds, evals, state_checksum(terminal),
                 result.report.final_loss), terminal


def sequential(rule, settings) -> tuple[float, object]:
    """Honest sequential baseline: only the ``sequential_step`` loop (with the
    pool's injected sleep per step) is timed; no per-step loss."""
    sleep_s = settings.injected_cost_ms / 1000.0
    state = rules.initial_state(rule)
    gc.collect()
    t0 = time.perf_counter()
    for tau in range(rule.total_steps):
        if sleep_s > 0.0:
            time.sleep(sleep_s)
        state = rules.sequential_step(rule, state, tau + settings.seed_offset)
    return 1000.0 * (time.perf_counter() - t0), state


@dataclass
class Session:
    """Checked, back-to-back solves of one seeded workload."""

    workload: Workload
    seed: int
    solves: list[Solve] = field(default_factory=list)
    seq_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    reference: Solve | None = None

    def __post_init__(self):
        self.rule, self.settings = build(self.workload, self.seed)
        self.oracle_terminal = None
        if self.workload.exact:
            trajectory, _ = oracle.solve_sequential(self.rule, seed_offset=self.settings.seed_offset)
            self.oracle_terminal = trajectory.states[-1]
        self.seq_terminal = None
        self.seq_loss = None
        self.threads_at_start = threading.active_count()

    def fail(self, message: str) -> None:
        self.failures.append(f"solve {self.attempted}: {message}")

    def step(self, timed: bool = True) -> None:
        """One iteration: a checked engine solve, then the checked sequential
        baseline.  Untimed iterations are checked but not sampled."""
        self.attempted += 1
        try:
            s, terminal = solve(self.rule, self.settings)
            seq_ms, seq_state = sequential(self.rule, self.settings)
        except Exception as exc:  # a raised error is a failed solve, not a crash
            self.fail(f"{type(exc).__name__}: {exc}")
            return
        ref = self.reference = self.reference or s
        if self.seq_terminal is None:
            self.seq_terminal = seq_state
            self.seq_loss = self.rule.problem.loss(
                seq_state.values, self.rule.total_steps + self.settings.seed_offset)
        expected = self.oracle_terminal if self.workload.exact else self.seq_terminal
        if (s.checksum, s.rounds, s.drift_evals) != (ref.checksum, ref.rounds, ref.drift_evals):
            self.fail(f"checksum/rounds/evals {s.checksum:016x}/{s.rounds}/{s.drift_evals} "
                      f"differ from the first solve's {ref.checksum:016x}/{ref.rounds}/{ref.drift_evals}")
        elif self.workload.exact and not states_equal_bits(terminal, expected):
            self.fail("engine terminal state differs from oracle.solve_sequential bitwise")
        elif not states_equal_bits(seq_state, expected):
            self.fail("sequential baseline differs from the oracle or from its first repeat")
        elif timed:
            self.solves.append(s)
            self.seq_ms.append(seq_ms)

    def run_for(self, seconds: float, min_solves: int, between) -> None:
        """Closed loop: a warm-up iteration on first use, then iterations back
        to back until ``seconds`` have passed and ``min_solves`` were tried.
        ``between`` runs after every iteration, outside the timed regions."""
        if self.attempted == 0:
            self.step(timed=False)
            between()
        start = self.attempted
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or self.attempted - start < min_solves:
            self.step()
            between()

    def check_threads(self) -> None:
        """A worker thread still alive after the workload fails it."""
        now = threading.active_count()
        if now != self.threads_at_start:
            self.failures.append(f"thread leak: {now} threads alive, {self.threads_at_start} at start")

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.failures))

    def end_to_end(self) -> dict:
        """name -> (value, unit, samples): the end-to-end metrics the engine
        solves give, plus the derived readings.  Needs one timed solve."""
        ref = self.reference
        T = self.rule.total_steps
        n = len(self.solves)
        solve_ms = statistics.median(s.wall_ms for s in self.solves)
        seq_ms = statistics.median(self.seq_ms)
        return {
            "solve_ms": (solve_ms, "ms", n),
            "seq_ms": (seq_ms, "ms", n),
            "rounds": (ref.rounds, "count", n),
            "drift_evals": (ref.drift_evals, "count", n),
            "final_loss": (ref.final_loss, "loss", n),
            "seq_final_loss": (self.seq_loss, "loss", n),
            "final_loss_rel_err": (abs(ref.final_loss - self.seq_loss) / abs(self.seq_loss), "ratio", n),
            "fail_ratio": (self.failed / self.attempted, "ratio", self.attempted),
            "wall_speedup": (seq_ms / solve_ms, "x", n),
            "work_amplification": (ref.drift_evals / T, "x", n),
        }
