import numpy as np
import pytest

import picardopt as po
from picardopt.errors import DimensionError, ObjectiveError
from picardopt.problems import PROBLEM_KINDS, Splat2dProblem, make_problem
from picardopt.schedule import ScheduleAction, apply_action

ALL_KINDS = sorted(PROBLEM_KINDS)


def random_point(problem, rng):
    if problem.kind == "splat2d":
        n = problem.dim // 4
        pts = np.empty((n, 4))
        pts[:, 0] = rng.uniform(0.1, 0.9, n)
        pts[:, 1] = rng.uniform(0.1, 0.9, n)
        pts[:, 2] = np.log(rng.uniform(0.1, 0.4, n))
        pts[:, 3] = rng.uniform(0.5, 1.5, n)
        return pts.reshape(-1)
    return rng.uniform(-2.0, 2.0, problem.dim)


def central_difference(problem, values, seed, h=1e-6):
    g = np.empty_like(values)
    for i in range(len(values)):
        up = values.copy()
        dn = values.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (problem.loss(up, seed) - problem.loss(dn, seed)) / (2 * h)
    return g


def test_quadratic_closed_forms():
    p = make_problem("quadratic", dim=2)
    assert p.loss(np.zeros(2), 0) == 0.0
    np.testing.assert_array_equal(p.grad(np.array([2.0, -1.0]), 0), [2.0, -1.0])


def test_rosenbrock_minimum():
    p = make_problem("rosenbrock", dim=5)
    assert p.loss(np.ones(5), 0) == 0.0
    np.testing.assert_array_equal(p.grad(np.ones(5), 0), np.zeros(5))


def test_stochastic_lsq_seeding_contract():
    p = make_problem("stochastic_lsq", dim=6, data_seed=2, noise=0.75)
    v = np.linspace(-1, 1, 6)
    assert p.loss(v, 3) == p.loss(v, 3)
    np.testing.assert_array_equal(p.grad(v, 7), p.grad(v, 7))
    assert not np.array_equal(p.grad(v, 7), p.grad(v, 8))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_noise_zero_is_seed_independent(kind):
    p = make_problem(kind, data_seed=1, noise=0.0)
    rng = np.random.default_rng(0)
    v = random_point(p, rng)
    losses = {p.loss(v, s) for s in range(10)}
    assert len(losses) == 1
    g0 = p.grad(v, 0)
    for s in range(1, 10):
        np.testing.assert_array_equal(p.grad(v, s), g0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_central_differences(kind):
    p = make_problem(kind, data_seed=3)
    rng = np.random.default_rng(11)
    for trial in range(5):
        v = random_point(p, rng)
        seed = 100 + trial
        g = p.grad(v, seed)
        fd = central_difference(p, v, seed)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert np.max(np.abs(g - fd)) / scale <= 1e-5


def test_dimension_mismatch_raises():
    p = make_problem("quadratic", dim=4)
    with pytest.raises(DimensionError):
        p.loss(np.zeros(5), 0)
    with pytest.raises(DimensionError):
        p.grad(np.zeros(3), 0)


def test_splat_exact_target_has_zero_loss():
    p = make_problem("splat2d", data_seed=9, points=1, n_targets=1)
    v = p.target_points.reshape(-1)
    assert p.loss(v, 0) == pytest.approx(0.0, abs=1e-24)
    assert p.render(v).loss == pytest.approx(0.0, abs=1e-24)


def test_splat_render_matches_bruteforce_grid():
    p = make_problem("splat2d", data_seed=4, points=3)
    rng = np.random.default_rng(5)
    v = random_point(p, rng)
    render = p.render(v)
    pts = v.reshape(-1, 4)
    total = 0.0
    for j in range(16):
        for k in range(16):
            f = 0.0
            for x, y, s, w in pts:
                d2 = (p.grid_x[k] - x) ** 2 + (p.grid_y[j] - y) ** 2
                f += w * np.exp(-d2 / (2.0 * np.exp(s) ** 2))
            total += (f - p.target[j, k]) ** 2
            assert render.field[j, k] == pytest.approx(f, rel=1e-12)
    assert render.loss == pytest.approx(total, rel=1e-12)
    assert p.loss(v, 0) == pytest.approx(total, rel=1e-12)


def test_splat_split_offset_changes_loss_boundedly():
    p = make_problem("splat2d", data_seed=4, points=2)
    v = p.initial_values()
    dup = apply_action(v, ScheduleAction(0, "split", (0,)), 4, with_offset=False)
    off = apply_action(v, ScheduleAction(0, "split", (0,)), 4, with_offset=True)
    delta = abs(p.loss(off, 0) - p.loss(dup, 0))
    lipschitz = float(np.max(np.abs(p.grad(dup, 0)))) * 4  # crude local bound
    assert delta <= max(lipschitz, 1.0) * 1e-2


def test_splat_gradient_tracks_dim_tag():
    p = make_problem("splat2d", data_seed=4, points=2)
    grown = apply_action(p.initial_values(), ScheduleAction(0, "split", (1,)), 4, True)
    g = p.grad(grown, 0)
    assert len(g) == len(grown) == 12


def test_splat_nonpositive_weight_sum_raises():
    p = make_problem("splat2d", data_seed=4, points=1)
    bad = p.initial_values()
    bad = bad.copy()
    bad[3] = -1.0
    with pytest.raises(ObjectiveError):
        p.loss(bad, 0)


@pytest.mark.parametrize("kind,dim,noise", [
    ("quadratic", 16, 0.0), ("rosenbrock", 16, 0.0), ("stochastic_lsq", 16, 0.75),
    ("tiny_mlp", 25, 0.0), ("splat2d", 8, 0.0), ("linear_ode", 8, 0.0),
])
def test_each_problem_owns_its_defaults(kind, dim, noise):
    settings = make_problem(kind).settings()
    assert (settings["dim"], settings["data_seed"], settings["noise"]) == (dim, 0, noise)


def test_splat_points_set_the_dim():
    p = make_problem("splat2d", points=3)
    assert p.dim == len(p.initial_values()) == 12 and p.initial_dim_tag() == 3
    assert p.settings() == {"dim": 12, "data_seed": 0, "noise": 0.0, "points": 3, "n_targets": 3}
    assert make_problem("splat2d", dim=12).points == 3
    assert make_problem("splat2d", dim=12, points=3).dim == 12
    with pytest.raises(ValueError, match="not 4 \\* points"):
        make_problem("splat2d", dim=8, points=3)
    with pytest.raises(ValueError, match="not 4 \\* points"):
        make_problem("splat2d", dim=10)


@pytest.mark.parametrize("kind", ["stochastic_lsq", "tiny_mlp"])
def test_subsampled_noise_below_one(kind):
    with pytest.raises(ValueError, match=r"noise must be in \[0, 1\)"):
        make_problem(kind, noise=1.0)


def test_linear_ode_analytic_solution():
    p = make_problem("linear_ode", dim=4, data_seed=8)
    t = 0.7
    np.testing.assert_allclose(p.analytic_solution(t), p.initial_values() * np.exp(p.rates * t))
    np.testing.assert_array_equal(p.ode_drift(p.initial_values(), 0.0), p.rates * p.initial_values())


def test_euler_approaches_analytic():
    p = make_problem("linear_ode", dim=4, data_seed=8)
    T = 512
    rule = po.make_rule("euler_ode", p, step_size=1.0, total_steps=T)
    traj, _ = po.solve_sequential(rule)
    err = np.max(np.abs(traj.states[-1].values - p.analytic_solution(1.0)))
    assert err < 5.0 / T


SANITY = [
    ("quadratic", "sgd", 0.1),
    ("quadratic", "adam", 0.02),
    ("rosenbrock", "sgd", 3e-4),
    ("rosenbrock", "adam", 0.02),
    ("stochastic_lsq", "sgd", 0.1),
    ("stochastic_lsq", "adam", 0.05),
    ("tiny_mlp", "sgd", 0.05),
    ("tiny_mlp", "adam", 0.01),
    ("splat2d", "sgd", 3e-4),
    ("splat2d", "adam", 0.01),
]


@pytest.mark.parametrize("kind,rule_kind,eta", SANITY)
def test_loss_decreases_under_tuned_rate(kind, rule_kind, eta):
    p = make_problem(kind, data_seed=0)
    rule = po.make_rule(rule_kind, p, step_size=eta, total_steps=200)
    traj, _ = po.solve_sequential(rule)
    assert traj.losses[-1] < traj.losses[0]
