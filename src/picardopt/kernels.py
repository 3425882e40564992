"""Hot numeric kernels, in plain numpy.

Bit-compatibility notes, relied on by the checksum manifest:

* ``adam_apply`` and ``rosenbrock_grad`` are purely elementwise.
* ``splat_field`` / ``splat_loss_grad`` reduce over grid cells with numpy's
  pairwise summation; the pinned checksums depend on that reduction order.

Matrix-product gradients (least squares, the small MLP) stay in plain numpy
too: BLAS already runs them at native speed.  ``python3 perfbench/run.py
--trace 1`` times each kernel inside full solves.
"""

from __future__ import annotations

import numpy as np


def kernel_path() -> str:
    """Name of the kernel implementation, echoed in run reports."""
    return "numpy"


def adam_apply(values, m1, m2, g, t_next, beta1, beta2, eps, lr):
    """One bias-corrected Adam update; returns (values', m1', m2').

    The IEEE operations and their order are those of the textbook expression
    ``m1' = b1*m1 + (1-b1)*g``, ``m2' = b2*m2 + (1-b2)*(g*g)`` and
    ``values' = values - lr*(m1'/c1) / (sqrt(m2'/c2) + eps)``, so the bits are
    too, but only the three outputs and one scratch array are allocated.
    """
    c1 = 1.0 - beta1**t_next
    c2 = 1.0 - beta2**t_next
    a = np.multiply(g, 1.0 - beta1)
    m1n = np.multiply(m1, beta1)
    np.add(m1n, a, out=m1n)
    np.multiply(g, g, out=a)
    np.multiply(a, 1.0 - beta2, out=a)
    m2n = np.multiply(m2, beta2)
    np.add(m2n, a, out=m2n)
    np.divide(m2n, c2, out=a)
    np.sqrt(a, out=a)
    np.add(a, eps, out=a)
    b = np.divide(m1n, c1)
    np.multiply(b, lr, out=b)
    np.divide(b, a, out=b)
    vn = np.subtract(values, b, out=a)
    return vn, m1n, m2n


def rosenbrock_grad(x):
    g = np.zeros_like(x)
    xi = x[:-1]
    xn = x[1:]
    g[:-1] = -400.0 * xi * (xn - xi * xi) - 2.0 * (1.0 - xi)
    g[1:] = g[1:] + 200.0 * (xn - xi * xi)
    return g


def _splat(points, grid_x, grid_y):
    """(field, d2, e, dx, dy, sig2, w) of Gaussian splats on the grid."""
    x = points[:, 0]
    y = points[:, 1]
    sig2 = np.exp(points[:, 2]) ** 2
    w = points[:, 3]
    # d2[i, j, k] = squared distance from point i to cell (row j, col k)
    dx = grid_x[None, None, :] - x[:, None, None]
    dy = grid_y[None, :, None] - y[:, None, None]
    d2 = dx * dx + dy * dy
    e = np.exp(-d2 / (2.0 * sig2[:, None, None]))
    return np.sum(w[:, None, None] * e, axis=0), d2, e, dx, dy, sig2, w


def splat_field(points, grid_x, grid_y):
    return _splat(points, grid_x, grid_y)[0]


def splat_loss_grad(points, grid_x, grid_y, target):
    field, d2, e, dx, dy, sig2, w = _splat(points, grid_x, grid_y)
    resid = field - target
    loss = float(np.sum(resid * resid))
    r = 2.0 * resid
    grad = np.empty_like(points)
    re = r[None, :, :] * e
    grad[:, 0] = np.sum(re * (w[:, None, None] * dx / sig2[:, None, None]), axis=(1, 2))
    grad[:, 1] = np.sum(re * (w[:, None, None] * dy / sig2[:, None, None]), axis=(1, 2))
    grad[:, 2] = np.sum(re * (w[:, None, None] * d2 / sig2[:, None, None]), axis=(1, 2))
    grad[:, 3] = np.sum(re, axis=(1, 2))
    return loss, grad
