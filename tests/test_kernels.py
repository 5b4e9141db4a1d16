"""The sinusoidal-model fit kernels: exactness, optimality and the 3x3 solve."""

import numpy as np

from gauss_tomo import _kernels


def make_problem(rng, m=10, n_per=1000):
    th = np.sort(rng.uniform(0.0, np.pi, m))
    c2, s2 = np.cos(2.0 * th), np.sin(2.0 * th)
    a0 = rng.uniform(1.0, 8.0)
    a1 = rng.uniform(-0.6, 0.6) * a0
    a2 = rng.uniform(-0.6, 0.6) * a0
    s = a0 + a1 * c2 + a2 * s2
    assert np.all(s > 0)
    v = s * rng.chisquare(n_per - 1, m) / (n_per - 1)
    n = np.full(m, float(n_per))
    return v, n, c2, s2


def test_loglik_rejects_nonpositive_variance():
    rng = np.random.default_rng(11)
    v, n, c2, s2 = make_problem(rng)
    # a1 large enough to push the model variance negative at some angle
    assert _kernels.loglik(1.0, 2.0, 0.0, v, n, c2, s2) == -np.inf


def test_ml_exact_on_noiseless_input():
    rng = np.random.default_rng(14)
    th = np.arange(12) * np.pi / 12
    c2, s2 = np.cos(2.0 * th), np.sin(2.0 * th)
    n = np.full(12, 500.0)
    a_true = np.array([4.0, 1.5, -2.0])
    v = a_true[0] + a_true[1] * c2 + a_true[2] * s2
    a, lik, iters, conv = _kernels.ml_fit(v, n, c2, s2, 10_000, 1e-10)
    assert conv
    np.testing.assert_allclose(a, a_true, rtol=1e-10)
    a_wls, ok = _kernels.wls_fit(v, n, c2, s2)
    assert ok
    np.testing.assert_allclose(a_wls, a_true, rtol=1e-10)


def test_ml_recovers_wls_start_gradient_zero():
    # at the ML solution the scoring gradient vanishes
    rng = np.random.default_rng(15)
    v, n, c2, s2 = make_problem(rng)
    a, lik, iters, conv = _kernels.ml_fit(v, n, c2, s2, 10_000, 1e-12)
    assert conv
    s = a[0] + a[1] * c2 + a[2] * s2
    w = n / (2.0 * s * s)
    grad = np.array(
        [np.sum(w * (v - s)), np.sum(w * (v - s) * c2), np.sum(w * (v - s) * s2)]
    )
    scale = np.sum(n / (2.0 * s * s))
    assert np.max(np.abs(grad)) < 1e-6 * scale


def test_solve3_matches_numpy():
    rng = np.random.default_rng(16)
    for _ in range(100):
        a = rng.normal(size=(3, 3))
        m = a @ a.T + 0.1 * np.eye(3)
        b = rng.normal(size=3)
        x0, x1, x2, ok = _kernels._solve3(
            m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2], b[0], b[1], b[2]
        )
        assert ok
        np.testing.assert_allclose([x0, x1, x2], np.linalg.solve(m, b), rtol=1e-8)


def test_solve3_flags_singular():
    x0, x1, x2, ok = _kernels._solve3(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert not ok
