"""Fit kernels for the sinusoidal quadrature-variance model, on rows.

The model is sigma^2(theta) = a0 + a1*cos(2*theta) + a2*sin(2*theta).
Every kernel fits R independent problems at once: row r holds the
per-angle sample variances v[r], counts n and design columns
c2[r] = cos(2*theta[r]), s2[r] = sin(2*theta[r]), all broadcastable to
(R, m) and summed over the last axis.  The kernels know nothing about
covariance matrices:

    qr_rows(var, n, c2, s2)                     -> (w, q, r, k, ok)
    loglik_rows(a, v, n, c2, s2)                -> (R,) deviance (-inf off the feasible set)
    wls_fit_rows(v, n, c2, s2)                  -> (a, ok)
    ml_fit_rows(v, n, c2, s2, max_iter, tol)    -> (a, loglik, niter, converged)

with a of shape (R, 3), float64 arrays throughout and counts passed as
float64.  Each row's result is the one it gets when fitted alone.

Every 3-parameter solve goes through one factorization, qr_rows, of the
whitened design sqrt(n/2)/sigma^2 (1, c2, s2): the WLS fit and each
Fisher-scoring step solve R x = Q^T b on it, and the analytic homodyne
error reads its inverse Fisher information (R^T R)^-1 from R.
"""

import numpy as np


def qr_rows(var, n, c2, s2):
    """QR factor of the whitened design w (1, c2, s2), w = sqrt(n/2)/var, row by row.

    var, n, c2 and s2 broadcast to (..., m); the last axis is the angle.
    Each row's var is first scaled by 2^-k, k the exponent of its
    smallest entry, so that the scaled design 2^k w (1, c2, s2) has the
    same bits at any brightness.  It is factored as Q R by classical
    Gram-Schmidt with one reorthogonalization (CGS2: Golub and Van Loan,
    Matrix Computations, sec. 5.2; Giraud, Langou and Rozloznik, Comput.
    Math. Appl. 50 (2005) 1069), elementwise over rows, so no per-matrix
    LAPACK call is made.  Returns (w, q, r, k, ok): w the scaled weights
    2^k sqrt(n/2)/var, q the three orthonormal columns of Q, r =
    (r00, r01, r02, r11, r12, r22) the entries of R, k the exponents and
    ok False on a row whose smallest |R_jj| is at most 1e-13 of its
    largest, or not finite.
    """
    k = np.frexp(np.min(var, axis=-1, keepdims=True))[1]
    w = np.sqrt(0.5 * n) / np.ldexp(var, -k)
    q, r = [], []
    for p in (w, w * c2, w * s2):
        rj = [0.0] * len(q)
        for _ in range(2):  # classical Gram-Schmidt, then once more
            t = [np.add.reduce(qi * p, axis=-1, keepdims=True) for qi in q]
            for i, (qi, ti) in enumerate(zip(q, t)):
                p = p - ti * qi
                rj[i] = rj[i] + ti
        norm = np.sqrt(np.add.reduce(p * p, axis=-1, keepdims=True))
        q.append(p / norm)
        r.append(rj + [norm])
    (r00,), (r01, r11), (r02, r12, r22) = ([x[..., 0] for x in rj] for rj in r)
    diag = np.stack([r00, r11, r22])
    ok = np.min(diag, axis=0) > 1e-13 * np.max(diag, axis=0)
    return w, q, (r00, r01, r02, r11, r12, r22), k[..., 0], ok


def _lstsq_rows(var, n, y, c2, s2):
    # The least-squares x of (1, c2, s2) x = y under weights n / (2 var^2):
    # R x = Q^T (w y) on the factor of the whitened design; x = 0 where not ok.
    w, q, (r00, r01, r02, r11, r12, r22), _, ok = qr_rows(var, n, c2, s2)
    b = w * y
    b0, b1, b2 = (np.add.reduce(qi * b, axis=-1) for qi in q)
    x2 = b2 / r22
    x1 = (b1 - r12 * x2) / r11
    x0 = (b0 - r01 * x1 - r02 * x2) / r00
    return np.where(ok[:, None], np.stack([x0, x1, x2], axis=-1), 0.0), ok


def loglik_rows(a, v, n, c2, s2):
    # Gaussian log-likelihood of per-angle sample variances in deviance form,
    # -n/2 (log(s/v) + v/s - 1): the maximizer of the plain form, and a
    # value that keeps its bits when s and v change units by a power of two.
    s = a[:, 0:1] + a[:, 1:2] * c2 + a[:, 2:3] * s2
    bad = np.any(s <= 0.0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = v / s
        lik = np.add.reduce(-0.5 * n * (x - 1.0 - np.log(x)), axis=-1)
    return np.where(bad, -np.inf, lik)


def wls_fit_rows(v, n, c2, s2):
    # Weighted least squares with Var(v) = 2*sigma^4/n approximated by 2*v^2/n.
    ok = np.all(v > 0.0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, solved = _lstsq_rows(v, n, v, c2, s2)
    ok &= solved
    return np.where(ok[:, None], a, 0.0), ok


def ml_fit_rows(v, n, c2, s2, max_iter, tol):
    # Fisher scoring with a per-row backtracking line search on the exact
    # likelihood.  A row stops when a step changes its deviance by less
    # than tol * sum(n) / 2, the size of the plain log-likelihood at unit
    # variances, so the test reads no units.  Rows leave the working set as
    # soon as they stop, so converged rows cost nothing.
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
            delta, ok = _lstsq_rows(s, na, va - s, ca, sa)
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
        done = np.abs(new_lik - la) < tol * 0.5 * np.sum(na, axis=-1)
        niter[idx[accepted]] = it + 1
        converged[idx[done]] = True
        a[idx[accepted]] = aa[accepted]
        lik[idx[accepted]] = new_lik[accepted]
        idx = idx[accepted & ~done]
    return a, lik, niter, converged
