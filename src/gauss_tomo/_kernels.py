"""Fit kernels for the sinusoidal quadrature-variance model, on rows.

The model is sigma^2(theta) = a0 + a1*cos(2*theta) + a2*sin(2*theta).
Every kernel fits R independent problems at once: row r holds the
per-angle sample variances v[r], counts n and design columns
c2[r] = cos(2*theta[r]), s2[r] = sin(2*theta[r]), all broadcastable to
(R, m) and summed over the last axis.  The kernels know nothing about
covariance matrices:

    loglik_rows(a, v, n, c2, s2)                -> (R,) (-inf off the feasible set)
    wls_fit_rows(v, n, c2, s2)                  -> (a, ok)
    ml_fit_rows(v, n, c2, s2, max_iter, tol)    -> (a, loglik, niter, converged)

with a of shape (R, 3), float64 arrays throughout and counts passed as
float64.  Each row's result is the one it gets when fitted alone.
"""

import numpy as np


def _solve3(m00, m01, m02, m11, m12, m22, b0, b1, b2):
    # Cramer solve of symmetric 3x3 systems, elementwise over rows;
    # ok=False (and x = 0) on (near-)singular rows.
    det = (
        m00 * (m11 * m22 - m12 * m12)
        - m01 * (m01 * m22 - m12 * m02)
        + m02 * (m01 * m12 - m11 * m02)
    )
    big = np.maximum.reduce([np.abs(x) for x in (m00, m01, m02, m11, m12, m22)])
    ok = np.abs(det) > 1e-13 * big * big * big
    det = np.where(ok, det, 1.0)
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
    return np.where(ok, x0, 0.0), np.where(ok, x1, 0.0), np.where(ok, x2, 0.0), ok


def _normal_equations(n, v, r, c2, s2):
    # Normal equations of the design (1, c2, s2), weights n / (2 v^2) and
    # right-hand side r, as the six matrix and three vector row sums.  Each
    # row's v, then its weights, are scaled by the power of two of their
    # largest entry: the solution keeps its bits, v * v cannot overflow and
    # the determinant cannot underflow.
    v = np.ldexp(v, -np.frexp(np.max(v, axis=-1, keepdims=True))[1])
    w = n / (2.0 * v * v)
    w = np.ldexp(w, -np.frexp(np.max(w, axis=-1, keepdims=True))[1])
    wc, ws = w * c2, w * s2
    m = [np.sum(x, axis=-1) for x in (w, wc, ws, wc * c2, wc * s2, ws * s2)]
    b = [np.sum(w * r * col, axis=-1) for col in (1.0, c2, s2)]
    return _solve3(*m, *b)


def loglik_rows(a, v, n, c2, s2):
    # Gaussian log-likelihood of per-angle sample variances, constants dropped.
    s = a[:, 0:1] + a[:, 1:2] * c2 + a[:, 2:3] * s2
    bad = np.any(s <= 0.0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lik = np.sum(-0.5 * n * (np.log(s) + v / s), axis=-1)
    return np.where(bad, -np.inf, lik)


def wls_fit_rows(v, n, c2, s2):
    # Weighted least squares with Var(v) = 2*sigma^4/n approximated by 2*v^2/n.
    ok = np.all(v > 0.0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x0, x1, x2, solved = _normal_equations(n, v, v, c2, s2)
    ok &= solved
    a = np.where(ok[:, None], np.stack([x0, x1, x2], axis=-1), 0.0)
    return a, ok


def ml_fit_rows(v, n, c2, s2, max_iter, tol):
    # Fisher scoring with a per-row backtracking line search on the exact
    # likelihood.  Rows leave the working set as soon as they stop, so
    # converged rows cost nothing.
    v, c2, s2 = np.broadcast_arrays(v, c2, s2)
    n = np.broadcast_to(n, v.shape)
    rows = v.shape[0]
    a, ok = wls_fit_rows(v, n, c2, s2)
    lik = loglik_rows(a, v, n, c2, s2)
    lik[~ok] = -np.inf
    niter = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)

    # isotropic fallback start, always feasible for positive mean variance
    redo = lik == -np.inf
    den = np.sum(n[redo], axis=-1)
    num = np.sum(n[redo] * v[redo], axis=-1)
    start = (den > 0.0) & (num > 0.0)
    iso = np.zeros((den.size, 3))
    iso[start, 0] = num[start] / den[start]
    a[redo] = iso
    lik[redo] = np.where(start, loglik_rows(iso, v[redo], n[redo], c2[redo], s2[redo]), -np.inf)
    # rows without a start are returned as (0, -inf, 0, False)
    live = ~redo
    live[np.flatnonzero(redo)[start]] = True
    idx = np.flatnonzero(live)

    for it in range(max_iter):
        if idx.size == 0:
            break
        va, na, ca, sa, aa, la = v[idx], n[idx], c2[idx], s2[idx], a[idx], lik[idx]
        s = aa[:, 0:1] + aa[:, 1:2] * ca + aa[:, 2:3] * sa
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d0, d1, d2, ok = _normal_equations(na, s, va - s, ca, sa)
        delta = np.stack([d0, d1, d2], axis=-1)
        step = np.ones(idx.size)
        new_lik = np.full(idx.size, -np.inf)
        accepted = np.zeros(idx.size, dtype=bool)
        pending = np.flatnonzero(ok)
        for _ in range(60):
            if pending.size == 0:
                break
            cand = aa[pending] + step[pending, None] * delta[pending]
            cand_lik = loglik_rows(cand, va[pending], na[pending], ca[pending], sa[pending])
            take = cand_lik >= la[pending]
            hit = pending[take]
            aa[hit] = cand[take]
            new_lik[hit] = cand_lik[take]
            accepted[hit] = True
            pending = pending[~take]
            step[pending] *= 0.5
        # a row that found no step has new_lik = -inf and is not done
        done = np.abs(new_lik - la) < tol * np.maximum(1.0, np.abs(la))
        niter[idx[accepted]] = it + 1
        converged[idx[done]] = True
        a[idx[accepted]] = aa[accepted]
        lik[idx[accepted]] = new_lik[accepted]
        idx = idx[accepted & ~done]
    return a, lik, niter, converged
