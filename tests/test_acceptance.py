"""Acceptance suite: one test per criterion, printed pass lines included.

Run with `pytest tests/test_acceptance.py -v -s`.  Derived tolerances were
calibrated once through the harness and are pinned here.
"""

import json

import numpy as np
import pytest
from conftest import Snapshots, prefix_check, reports_equal_excluding_wall, sequential_trajectory

import picardopt as po
from picardopt.cli import main as cli_main
from picardopt.config import DEFAULT_STEP_SIZES
from picardopt.engine import EngineSettings, run
from picardopt.oracle import solve_sequential
from picardopt.rules import make_rule
from picardopt.schedule import ScheduleAction
from picardopt.state import states_equal_bits

WINDOWS = (1, 3, 7)
WORKER_COUNTS = (1, 4, 8)
HORIZONS = (64, 500)


def split_prune_schedule(T):
    return [
        ScheduleAction(int(T * 0.2), "split", (0,)),
        ScheduleAction(int(T * 0.4), "split", (1,)),
        ScheduleAction(int(T * 0.6), "split", (2,)),
        ScheduleAction(int(T * 0.8), "prune", (1,)),
    ]


def build_pair(problem_kind, rule_kind, T, data_seed=0):
    problem = po.make_problem(problem_kind, data_seed=data_seed)
    schedule = split_prune_schedule(T) if rule_kind == "split_prune_sgd" else ()
    eta = DEFAULT_STEP_SIZES[(problem_kind, rule_kind)]
    return make_rule(rule_kind, problem, eta, total_steps=T, schedule=schedule)


DETERMINISTIC_PAIRS = [
    ("quadratic", "sgd"), ("quadratic", "adam"),
    ("rosenbrock", "sgd"), ("rosenbrock", "adam"),
    ("stochastic_lsq", "sgd"), ("stochastic_lsq", "adam"),
    ("tiny_mlp", "sgd"), ("tiny_mlp", "adam"),
    ("splat2d", "sgd"), ("splat2d", "adam"), ("splat2d", "split_prune_sgd"),
    ("linear_ode", "euler_ode"),
]


@pytest.mark.parametrize("problem_kind,rule_kind", DETERMINISTIC_PAIRS)
def test_criterion_01_zero_threshold_exactness(problem_kind, rule_kind):
    for T in HORIZONS:
        rule = build_pair(problem_kind, rule_kind, T)
        oracle, _ = solve_sequential(rule)
        for p in WINDOWS:
            for workers in WORKER_COUNTS:
                res = run(rule, EngineSettings(window=p, workers=workers, threshold=0.0,
                                               gamma=1.0))
                assert states_equal_bits(res.terminal, oracle.terminal), \
                    f"{problem_kind}+{rule_kind} T={T} p={p} w={workers} not bitexact"
                assert res.report.rounds <= T
    print(f"ACCEPTANCE 1 [{problem_kind}+{rule_kind}]: zero-threshold bitexact for "
          f"p in {WINDOWS}, workers in {WORKER_COUNTS}, T in {HORIZONS}: PASS")


@pytest.mark.parametrize("problem_kind,rule_kind,eta", [
    ("linear_ode", "euler_ode", 1.0),
    ("quadratic", "adam", 0.02),
])
def test_criterion_02_prefix_induction(problem_kind, rule_kind, eta):
    T = 64
    problem = po.make_problem(problem_kind, data_seed=0)
    rule = make_rule(rule_kind, problem, eta, total_steps=T)
    oracle = sequential_trajectory(rule)
    seen = Snapshots()
    run(rule, EngineSettings(window=T, workers=8, threshold=0.0, gamma=1.0), observer=seen)
    rep = prefix_check(oracle, seen.snapshots)
    assert rep.passed, f"prefix mismatch at (round, step) {rep.first_failure}"
    print(f"ACCEPTANCE 2 [{problem_kind}+{rule_kind}]: full-horizon prefix exact for all "
          f"{rep.rounds_checked} rounds: PASS")


def test_criterion_03_vanilla_picard_convergence():
    T = 256
    problem = po.make_problem("linear_ode", data_seed=1)
    rule = make_rule("euler_ode", problem, 1.0, total_steps=T)
    oracle = sequential_trajectory(rule)
    seen = Snapshots()
    run(rule, EngineSettings(window=T, workers=8, threshold=0.0, gamma=1.0), observer=seen)
    K = None
    for k, snap in enumerate(seen.snapshots, start=1):
        err = max(float(np.max(np.abs(s.values - t.values)))
                  for s, t in zip(snap, oracle.states))
        if err <= 1e-9:
            K = k
            break
    assert K is not None and K <= T // 4, f"K={K} exceeds {T // 4}"
    print(f"ACCEPTANCE 3: full-window fixed point reaches 1e-9 in K={K} <= T/4={T // 4} rounds: PASS")


# Pins calibrated via the harness: seeded per-step stochasticity (the regime the
# engine exists for), sgd rule; see the criterion-4 rows of the suite manifest docs.
CRITERION4_PINS = [
    ("quadratic", "sgd", 0.1, 0.1, 0),
    ("tiny_mlp", "sgd", 0.05, 0.5, 1),
]


@pytest.mark.parametrize("problem_kind,rule_kind,eta,noise,data_seed", CRITERION4_PINS)
def test_criterion_04_round_count_speedup(problem_kind, rule_kind, eta, noise, data_seed):
    T = 1000
    problem = po.make_problem(problem_kind, data_seed=data_seed, noise=noise)
    rule = make_rule(rule_kind, problem, eta, total_steps=T)
    oracle, _ = solve_sequential(rule)
    res = run(rule, EngineSettings(window=7, workers=8, threshold=1e-6, gamma=0.9))
    speedup = T / res.report.rounds
    lo = oracle.losses[-1]
    rel = abs(res.report.final_loss - lo) / abs(lo)
    assert speedup >= 2.0, f"speedup {speedup:.2f} < 2"
    assert rel <= 0.05, f"final loss off by {rel:.1%}"
    print(f"ACCEPTANCE 4 [{problem_kind}]: T/K={speedup:.2f} >= 2.0, "
          f"final loss within {rel:.2%} <= 5%: PASS")


def test_criterion_05_dimension_change_correctness():
    T = 300
    problem = po.make_problem("splat2d", data_seed=5)
    rule = make_rule("split_prune_sgd", problem, 3e-4, total_steps=T,
                     schedule=split_prune_schedule(T))
    oracle, _ = solve_sequential(rule)
    res = run(rule, EngineSettings(window=7, workers=8, threshold=0.0, gamma=1.0))
    assert res.terminal.dim_tag == oracle.terminal.dim_tag
    assert states_equal_bits(res.terminal, oracle.terminal)
    print(f"ACCEPTANCE 5: 3 splits + 1 prune over T={T}: dim_tag "
          f"{res.terminal.dim_tag} matches oracle, terminal bitexact: PASS")


def test_criterion_06_window_size_ablation_shape():
    T = 300
    problem = po.make_problem("quadratic", data_seed=0, noise=0.1)
    rule = make_rule("sgd", problem, 0.1, total_steps=T)
    _, oracle_wall = solve_sequential(rule, injected_cost_ms=20.0)
    speedups = {}
    for p in (1, 3, 5, 7, 9, 11):
        res = run(rule, EngineSettings(window=p, workers=8, threshold=1e-6, gamma=0.9,
                                       injected_cost_ms=20.0))
        speedups[p] = oracle_wall / res.report.wall_time_ms
    best = max(speedups, key=speedups.get)
    assert best == 7, f"wall speedup peaked at p={best}: {speedups}"
    assert speedups[11] < speedups[7]
    pretty = {p: round(s, 2) for p, s in speedups.items()}
    print(f"ACCEPTANCE 6: wall speedup by window {pretty}, peak at 7, p=11 < p=7: PASS")


def test_criterion_07_ema_robustness():
    T = 600
    problem = po.make_problem("quadratic", data_seed=0, noise=0.1)
    rule = make_rule("adaptive_guidance", problem, 0.1, total_steps=T)
    e_default = 1e-6
    base = run(rule, EngineSettings(window=7, workers=8, threshold=e_default, gamma=0.9))
    kb = base.report.rounds
    ratios = {}
    for gamma in (0.2, 0.4, 0.6, 0.8):
        res = run(rule, EngineSettings(window=7, workers=8, threshold=e_default * 0.01,
                                       gamma=gamma))
        ratios[gamma] = res.report.rounds / kb
        assert ratios[gamma] <= 1.5, f"gamma={gamma} took {ratios[gamma]:.2f}x baseline"
    frozen = run(rule, EngineSettings(window=7, workers=8, threshold=e_default * 0.01,
                                      gamma=1.0))
    ratio1 = frozen.report.rounds / kb
    assert ratio1 > 3.0, f"gamma=1.0 only {ratio1:.2f}x baseline"
    pretty = {g: round(r, 2) for g, r in ratios.items()}
    print(f"ACCEPTANCE 7: baseline K={kb}; adaptive ratios {pretty} all <= 1.5; "
          f"frozen gamma=1.0 ratio {ratio1:.2f} > 3: PASS")


def test_criterion_08_determinism(tmp_path):
    args = ["run", "--problem", "stochastic_lsq", "--rule", "adam", "--steps", "80",
            "--window", "7", "--noise", "0.75", "--threshold", "1e-6", "--gamma", "0.9",
            "--data-seed", "2"]
    outs = {}
    for tag, workers in (("a", 8), ("b", 8), ("w1", 1)):
        out = tmp_path / tag
        assert cli_main(args + ["--workers", str(workers), "--out", str(out)]) == 0
        outs[tag] = out
    assert (outs["a"] / "rounds.csv").read_bytes() == (outs["b"] / "rounds.csv").read_bytes()
    assert reports_equal_excluding_wall((outs["a"] / "report.json").read_text(),
                                        (outs["b"] / "report.json").read_text())
    assert (outs["a"] / "final_state.bin").read_bytes() == (outs["b"] / "final_state.bin").read_bytes()
    # identical across 1 vs 8 workers
    assert (outs["a"] / "rounds.csv").read_bytes() == (outs["w1"] / "rounds.csv").read_bytes()
    assert (outs["a"] / "final_state.bin").read_bytes() == (outs["w1"] / "final_state.bin").read_bytes()
    print("ACCEPTANCE 8: byte-identical CSV/JSON (wall fields excluded) across reruns "
          "and across workers {1, 8}: PASS")


@pytest.mark.parametrize("kind", sorted(po.PROBLEM_KINDS))
def test_criterion_09_gradient_correctness(kind):
    problem = po.make_problem(kind, data_seed=3)
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(50):
        if kind == "splat2d":
            n = problem.dim // 4
            pts = np.column_stack([
                rng.uniform(0.1, 0.9, n), rng.uniform(0.1, 0.9, n),
                np.log(rng.uniform(0.1, 0.4, n)), rng.uniform(0.5, 1.5, n),
            ])
            v = pts.reshape(-1)
        else:
            v = rng.uniform(-2.0, 2.0, problem.dim)
        seed = 1000 + trial
        g = problem.grad(v, seed)
        fd = np.empty_like(v)
        h = 1e-6
        for i in range(len(v)):
            up, dn = v.copy(), v.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (problem.loss(up, seed) - problem.loss(dn, seed)) / (2 * h)
        rel = float(np.max(np.abs(g - fd))) / max(1.0, float(np.max(np.abs(g))))
        worst = max(worst, rel)
    assert worst <= 1e-5
    print(f"ACCEPTANCE 9 [{kind}]: max relative FD error {worst:.2e} <= 1e-5 "
          f"over 50 points: PASS")


def test_criterion_10_progress_and_termination():
    rng = np.random.default_rng(2024)
    for i in range(200):
        T = int(rng.integers(1, 201))
        p = int(rng.integers(1, 11))
        workers = int(rng.choice([1, 2, 4]))
        gamma = float(rng.uniform(0.0, 1.0))
        e0 = float(10.0 ** rng.uniform(-9, -2))
        kind = ["quadratic", "stochastic_lsq"][int(rng.integers(2))]
        noise = float(rng.choice([0.0, 0.5])) if kind == "stochastic_lsq" else \
            float(rng.choice([0.0, 0.1]))
        rule_kind = ["sgd", "adam"][int(rng.integers(2))]
        problem = po.make_problem(kind, dim=6, data_seed=i, noise=noise)
        eta = DEFAULT_STEP_SIZES[(kind, rule_kind)]
        rule = make_rule(rule_kind, problem, eta, total_steps=T)
        res = run(rule, EngineSettings(window=p, workers=workers, threshold=e0,
                                       gamma=gamma))
        assert res.report.rounds <= T
        covered = sum(k * v for k, v in res.report.skip_histogram.items())
        assert covered == T
        assert res.terminal.step == T
    print("ACCEPTANCE 10: 200 fuzzed configs all terminated with sum(skip)=T, rounds<=T: PASS")
