"""Synthetic seeded loss/gradient oracles with known optima.

Every problem exposes ``loss(values, seed)`` and ``grad(values, seed)`` that
are deterministic functions of (values, seed), and with ``noise == 0`` are
seed-independent.  Datasets are regenerated from ``data_seed``; nothing is
shipped as files.

Stochasticity models the per-step randomness of heavy guidance losses:
``stochastic_lsq`` and ``tiny_mlp`` subsample their rows per step seed, the
other problems add a seeded linear tilt ``noise * <z(seed), values>`` to the
loss (so grad stays the exact gradient of loss under the same seed).

A problem's settings are its constructor's arguments, and each class owns
their defaults (its size and noise); ``settings()`` reports the values a
problem was built with.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError, ObjectiveError


class Problem:
    kind: str = "?"
    point_width: int = 1
    # Noise is the fraction of rows left out of each step's minibatch (below 1).
    subsampled: bool = False

    def __init__(self, dim: int = 16, data_seed: int = 0, noise: float = 0.0):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if noise < 0:
            raise ValueError("noise must be >= 0")
        if self.subsampled and noise >= 1.0:
            raise ValueError(f"{self.kind} noise must be in [0, 1)")
        self.dim = dim
        self.data_seed = data_seed
        self.noise = noise

    # -- API ---------------------------------------------------------------
    def loss(self, values: np.ndarray, seed: int) -> float:
        values = self._check(values)
        base = self._base_loss(values)
        if self.noise:
            base += self.noise * float(np.dot(self._tilt(seed, len(values)), values))
        return base

    def grad(self, values: np.ndarray, seed: int) -> np.ndarray:
        values = self._check(values)
        g = self._base_grad(values)
        if self.noise:
            g = g + self.noise * self._tilt(seed, len(values))
        return g

    def initial_values(self) -> np.ndarray:
        raise NotImplementedError

    def initial_dim_tag(self) -> int:
        return self.dim // self.point_width

    @classmethod
    def setting_names(cls) -> tuple[str, ...]:
        """The settings this problem takes: its constructor's arguments."""
        return tuple(inspect.signature(cls).parameters)

    def settings(self) -> dict:
        """The value of each setting this problem was built with."""
        return {name: getattr(self, name) for name in self.setting_names()}

    # -- internals ----------------------------------------------------------
    def _check(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or len(values) != self.dim:
            raise DimensionError(f"{self.kind}: expected {self.dim} values, got shape {values.shape}")
        return values

    def _tilt(self, seed: int, n: int) -> np.ndarray:
        return np.random.default_rng(seed).standard_normal(n)

    def _batch(self, seed: int, *arrays):
        """The step's minibatch of the rows of ``arrays``: all of them at noise
        0, else round(rows * (1 - noise)) rows drawn without replacement."""
        if self.noise == 0.0:
            return arrays
        rows = len(arrays[0])
        size = max(1, int(round(rows * (1.0 - self.noise))))
        idx = np.random.default_rng(seed).choice(rows, size=size, replace=False)
        return tuple(a[idx] for a in arrays)

    def _base_loss(self, values) -> float:
        raise NotImplementedError

    def _base_grad(self, values) -> np.ndarray:
        raise NotImplementedError


class QuadraticProblem(Problem):
    """L = 0.5 ||v||^2; minimum 0 at the origin."""

    kind = "quadratic"

    def _base_loss(self, v):
        return 0.5 * float(np.dot(v, v))

    def _base_grad(self, v):
        return v.copy()

    def initial_values(self):
        return np.random.default_rng(self.data_seed).standard_normal(self.dim)


class RosenbrockProblem(Problem):
    """N-dimensional Rosenbrock; global minimum 0 at (1, ..., 1)."""

    kind = "rosenbrock"

    def _base_loss(self, v):
        xi = v[:-1]
        xn = v[1:]
        return float(np.sum(100.0 * (xn - xi * xi) ** 2 + (1.0 - xi) ** 2))

    def _base_grad(self, v):
        return kernels.rosenbrock_grad(v)

    def initial_values(self):
        v = np.empty(self.dim)
        v[0::2] = -1.2
        v[1::2] = 1.0
        return v


class StochasticLsqProblem(Problem):
    """Least squares over a fixed random design, minibatched per step seed.

    ``noise`` sets the subsampling intensity: batch = round(rows * (1-noise)),
    so noise=0 is the deterministic full batch.
    """

    kind = "stochastic_lsq"
    subsampled = True
    N_ROWS = 64

    def __init__(self, dim: int = 16, data_seed: int = 0, noise: float = 0.75):
        super().__init__(dim, data_seed, noise)
        rng = np.random.default_rng(data_seed)
        self.design = rng.standard_normal((self.N_ROWS, dim)) / np.sqrt(dim)
        x_true = rng.standard_normal(dim)
        self.targets = self.design @ x_true + 0.1 * rng.standard_normal(self.N_ROWS)

    def loss(self, values, seed):
        values = self._check(values)
        a, b = self._batch(seed, self.design, self.targets)
        r = a @ values - b
        return 0.5 * float(np.dot(r, r)) / len(b)

    def grad(self, values, seed):
        values = self._check(values)
        a, b = self._batch(seed, self.design, self.targets)
        r = a @ values - b
        return (a.T @ r) / len(b)

    def initial_values(self):
        return np.zeros(self.dim)


class TinyMlpProblem(Problem):
    """One-hidden-layer tanh regressor (1 -> 8 -> 1) on a fixed 64-sample set.

    Parameters pack as [W1(8), b1(8), W2(8), b2(1)], 25 values total.  Enough
    nonconvexity that nearby trajectories can settle in slightly different,
    equally valid optima.  ``noise`` subsamples the training pairs per step
    seed, exactly like stochastic_lsq.
    """

    kind = "tiny_mlp"
    subsampled = True
    HIDDEN = 8
    N_SAMPLES = 64

    def __init__(self, dim: int = 25, data_seed: int = 0, noise: float = 0.0):
        if dim != 25:
            raise ValueError("tiny_mlp has a fixed parameter dimension of 25")
        super().__init__(25, data_seed, noise)
        rng = np.random.default_rng(data_seed)
        self.inputs = rng.uniform(-2.0, 2.0, size=(self.N_SAMPLES, 1))
        clean = np.sin(2.5 * self.inputs[:, 0])
        self.labels = clean + 0.05 * rng.standard_normal(self.N_SAMPLES)
        self._init = 0.5 * rng.standard_normal(25)

    def _unpack(self, v):
        w1 = v[0:8].reshape(8, 1)
        b1 = v[8:16]
        w2 = v[16:24].reshape(1, 8)
        b2 = v[24]
        return w1, b1, w2, b2

    def _forward(self, v, inputs):
        w1, b1, w2, b2 = self._unpack(v)
        pre = inputs @ w1.T + b1
        h = np.tanh(pre)
        yhat = (h @ w2.T)[:, 0] + b2
        return h, yhat

    def loss(self, values, seed):
        values = self._check(values)
        inputs, labels = self._batch(seed, self.inputs, self.labels)
        _, yhat = self._forward(values, inputs)
        r = yhat - labels
        return 0.5 * float(np.dot(r, r)) / len(labels)

    def grad(self, values, seed):
        values = self._check(values)
        inputs, labels = self._batch(seed, self.inputs, self.labels)
        w1, b1, w2, b2 = self._unpack(values)
        h, yhat = self._forward(values, inputs)
        dy = (yhat - labels) / len(labels)
        dw2 = dy @ h
        db2 = float(np.sum(dy))
        dh = np.outer(dy, w2[0])
        dpre = dh * (1.0 - h * h)
        dw1 = dpre.T @ inputs
        db1 = np.sum(dpre, axis=0)
        return np.concatenate([dw1.reshape(-1), db1, dw2.reshape(-1), [db2]])

    def initial_values(self):
        return self._init.copy()


@dataclass
class SplatRender:
    field: np.ndarray
    residuals: np.ndarray
    loss: float


class Splat2dProblem(Problem):
    """2-D point-splat fit: a mixture of isotropic Gaussians vs a fixed target
    density on a 16x16 grid; loss is the sum of squared residuals.

    Each point carries (x, y, log-scale, weight), so the value vector has
    4 * dim_tag entries and gradients track dimension changes; ``points`` is
    the initial point count (2 by default), and ``dim`` if given must be 4 *
    points.  The target is itself a splat render of ``n_targets`` points drawn
    from ``data_seed``, so a point set matching the target exactly reaches
    loss 0.
    """

    kind = "splat2d"
    point_width = 4
    GRID = 16

    def __init__(self, dim: int | None = None, data_seed: int = 0, noise: float = 0.0,
                 points: int | None = None, n_targets: int = 3):
        if points is None:
            points = 2 if dim is None else dim // 4
        if dim is None:
            dim = 4 * points
        if dim != 4 * points:
            raise ValueError(f"splat2d dim {dim} is not 4 * points ({points})")
        super().__init__(dim, data_seed, noise)
        self.points = points
        self.n_targets = n_targets
        centers = (np.arange(self.GRID) + 0.5) / self.GRID
        self.grid_x = centers
        self.grid_y = centers
        rng = np.random.default_rng(data_seed)
        k = n_targets
        tp = np.empty((k, 4))
        tp[:, 0] = rng.uniform(0.25, 0.75, k)
        tp[:, 1] = rng.uniform(0.25, 0.75, k)
        tp[:, 2] = np.log(rng.uniform(0.12, 0.3, k))
        tp[:, 3] = rng.uniform(0.6, 1.2, k)
        self.target_points = tp
        self.target = kernels.splat_field(tp, self.grid_x, self.grid_y)
        p0 = dim // 4
        init = np.empty((p0, 4))
        init[:, 0] = rng.uniform(0.2, 0.8, p0)
        init[:, 1] = rng.uniform(0.2, 0.8, p0)
        init[:, 2] = np.log(0.2)
        init[:, 3] = 0.8
        self._init = init.reshape(-1)

    def _check(self, values) -> np.ndarray:
        # dimension is allowed to differ from self.dim here: the point count
        # changes under split/prune schedules.
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or len(values) % 4:
            raise DimensionError(f"splat2d: values length {values.shape} not a multiple of 4")
        pts = values.reshape(-1, 4)
        if float(np.sum(pts[:, 3])) <= 0.0:
            raise ObjectiveError("splat2d mixture normalization (sum of weights) is non-positive")
        return values

    def render(self, values) -> SplatRender:
        values = self._check(values)
        field = kernels.splat_field(values.reshape(-1, 4), self.grid_x, self.grid_y)
        residuals = field - self.target
        return SplatRender(field, residuals, float(np.sum(residuals * residuals)))

    def _base_loss(self, v):
        loss, _ = kernels.splat_loss_grad(v.reshape(-1, 4), self.grid_x, self.grid_y, self.target)
        return loss

    def _base_grad(self, v):
        _, grad = kernels.splat_loss_grad(v.reshape(-1, 4), self.grid_x, self.grid_y, self.target)
        return grad.reshape(-1)

    def initial_values(self):
        return self._init.copy()


class LinearOdeProblem(Problem):
    """theta' = a * theta with diagonal decay rates; analytic solution exposed
    for engine-vs-truth error measurement.  loss is the energy 0.5 ||v||^2 (a
    diagnostic; the Euler rule consumes ode_drift, not grad)."""

    kind = "linear_ode"

    def __init__(self, dim: int = 8, data_seed: int = 0, noise: float = 0.0):
        super().__init__(dim, data_seed, noise)
        rng = np.random.default_rng(data_seed)
        self.rates = rng.uniform(-2.0, -0.5, dim)
        self._init = rng.uniform(0.5, 1.5, dim)

    def ode_drift(self, values: np.ndarray, u: float) -> np.ndarray:
        values = self._check(values)
        return self.rates * values

    def analytic_solution(self, t: float) -> np.ndarray:
        return self._init * np.exp(self.rates * t)

    def _base_loss(self, v):
        return 0.5 * float(np.dot(v, v))

    def _base_grad(self, v):
        return v.copy()

    def initial_values(self):
        return self._init.copy()


PROBLEM_KINDS = {
    "quadratic": QuadraticProblem,
    "rosenbrock": RosenbrockProblem,
    "stochastic_lsq": StochasticLsqProblem,
    "tiny_mlp": TinyMlpProblem,
    "splat2d": Splat2dProblem,
    "linear_ode": LinearOdeProblem,
}


def make_problem(kind: str, **settings) -> Problem:
    """The ``kind`` problem built from the given settings; the class supplies
    the rest."""
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {kind!r}; have {sorted(PROBLEM_KINDS)}")
    return PROBLEM_KINDS[kind](**settings)
