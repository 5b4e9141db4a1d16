"""Fit kernels for the sinusoidal quadrature-variance model.

The model is sigma^2(theta) = a0 + a1*cos(2*theta) + a2*sin(2*theta).
Kernels work on precomputed cos(2*theta), sin(2*theta) arrays and
per-angle sample variances, and know nothing about covariance matrices:

    loglik(a0, a1, a2, v, n, c2, s2)      -> float (-inf off the feasible set)
    wls_fit(v, n, c2, s2)                 -> (a, ok)
    ml_fit(v, n, c2, s2, max_iter, tol)   -> (a, loglik, niter, converged)

with float64 arrays throughout and counts passed as float64.
"""

import numpy as np


def _solve3(m00, m01, m02, m11, m12, m22, b0, b1, b2):
    # Cramer solve of a symmetric 3x3 system; ok=False on (near-)singular input.
    det = (
        m00 * (m11 * m22 - m12 * m12)
        - m01 * (m01 * m22 - m12 * m02)
        + m02 * (m01 * m12 - m11 * m02)
    )
    big = max(abs(m00), abs(m01), abs(m02), abs(m11), abs(m12), abs(m22))
    if not abs(det) > 1e-13 * big * big * big:
        return 0.0, 0.0, 0.0, False
    x0 = (
        b0 * (m11 * m22 - m12 * m12)
        - m01 * (b1 * m22 - m12 * b2)
        + m02 * (b1 * m12 - m11 * b2)
    ) / det
    x1 = (
        m00 * (b1 * m22 - m12 * b2)
        - b0 * (m01 * m22 - m12 * m02)
        + m02 * (m01 * b2 - b1 * m02)
    ) / det
    x2 = (
        m00 * (m11 * b2 - b1 * m12)
        - m01 * (m01 * b2 - b1 * m02)
        + b0 * (m01 * m12 - m11 * m02)
    ) / det
    return x0, x1, x2, True


def loglik(a0, a1, a2, v, n, c2, s2):
    # Gaussian log-likelihood of per-angle sample variances, constants dropped.
    s = a0 + a1 * c2 + a2 * s2
    if np.any(s <= 0.0):
        return -np.inf
    return float(np.sum(-0.5 * n * (np.log(s) + v / s)))


def wls_fit(v, n, c2, s2):
    # Weighted least squares with Var(v) = 2*sigma^4/n approximated by 2*v^2/n.
    if np.any(v <= 0.0):
        return np.zeros(3), False
    w = n / (2.0 * v * v)
    cols = (np.ones_like(c2), c2, s2)
    m = [float(np.sum(w * cols[j] * cols[k])) for j in range(3) for k in range(j, 3)]
    b = [float(np.sum(w * v * cols[j])) for j in range(3)]
    x0, x1, x2, ok = _solve3(m[0], m[1], m[2], m[3], m[4], m[5], b[0], b[1], b[2])
    return np.array([x0, x1, x2]), ok


def ml_fit(v, n, c2, s2, max_iter, tol):
    # Fisher scoring with backtracking line search on the exact likelihood.
    a, ok = wls_fit(v, n, c2, s2)
    lik = loglik(a[0], a[1], a[2], v, n, c2, s2) if ok else -np.inf
    if not ok or lik == -np.inf:
        # isotropic fallback start, always feasible for positive mean variance
        den = float(np.sum(n))
        num = float(np.sum(n * v))
        if den <= 0.0 or num <= 0.0:
            return np.zeros(3), -np.inf, 0, False
        a = np.array([num / den, 0.0, 0.0])
        lik = loglik(a[0], a[1], a[2], v, n, c2, s2)

    cols = (np.ones_like(c2), c2, s2)
    converged = False
    niter = 0
    for it in range(max_iter):
        s = a[0] + a[1] * c2 + a[2] * s2
        w = n / (2.0 * s * s)
        r = v - s
        m = [float(np.sum(w * cols[j] * cols[k])) for j in range(3) for k in range(j, 3)]
        g = [float(np.sum(w * r * cols[j])) for j in range(3)]
        d0, d1, d2, ok = _solve3(m[0], m[1], m[2], m[3], m[4], m[5], g[0], g[1], g[2])
        if not ok:
            break
        delta = np.array([d0, d1, d2])
        step = 1.0
        new_lik = -np.inf
        accepted = False
        for _ in range(60):
            cand = a + step * delta
            new_lik = loglik(cand[0], cand[1], cand[2], v, n, c2, s2)
            if new_lik >= lik:
                a = cand
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        niter = it + 1
        if abs(new_lik - lik) < tol * max(1.0, abs(lik)):
            lik = new_lik
            converged = True
            break
        lik = new_lik
    return a, lik, niter, converged
