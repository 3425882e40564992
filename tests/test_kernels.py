import numpy as np
import pytest

from picardopt import kernels


def _adam_inputs(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n), rng.standard_normal(n),
            np.abs(rng.standard_normal(n)), rng.standard_normal(n))


def test_adam_matches_scalar_reference():
    v, m1, m2, g = _adam_inputs(8)
    vn, m1n, m2n = kernels.adam_apply(v, m1, m2, g, 3, 0.9, 0.999, 1e-8, 0.1)
    i = 5
    em1 = 0.9 * m1[i] + 0.1 * g[i]
    em2 = 0.999 * m2[i] + 0.001 * g[i] ** 2
    ev = v[i] - 0.1 * (em1 / (1 - 0.9**3)) / (np.sqrt(em2 / (1 - 0.999**3)) + 1e-8)
    assert vn[i] == pytest.approx(ev, rel=1e-15)
    assert m1n[i] == pytest.approx(em1, rel=1e-15)
    assert m2n[i] == pytest.approx(em2, rel=1e-15)


@pytest.mark.parametrize("t_next", [1, 300])
def test_adam_bits_equal_the_textbook_expression(t_next):
    # Several of fixed_point_distance's 8192-value blocks, and a ragged tail.
    v, m1, m2, g = _adam_inputs(3 * 8192 + 5, seed=t_next)
    for arr in (v, m1, m2, g):
        arr.setflags(write=False)  # as in a state: the kernel writes only its outputs
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    c1, c2 = 1.0 - beta1**t_next, 1.0 - beta2**t_next
    em1 = beta1 * m1 + (1.0 - beta1) * g
    em2 = beta2 * m2 + (1.0 - beta2) * (g * g)
    ev = v - lr * (em1 / c1) / (np.sqrt(em2 / c2) + eps)
    got = kernels.adam_apply(v, m1, m2, g, t_next, beta1, beta2, eps, lr)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in (ev, em1, em2)]


def test_rosenbrock_grad_matches_difference_quotient():
    x = np.random.default_rng(3).standard_normal(6)
    g = kernels.rosenbrock_grad(x)

    def loss(y):
        return float(np.sum(100.0 * (y[1:] - y[:-1] ** 2) ** 2 + (1.0 - y[:-1]) ** 2))

    h = 1e-7
    for i in range(6):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        assert g[i] == pytest.approx((loss(up) - loss(dn)) / (2 * h), rel=1e-4, abs=1e-4)
