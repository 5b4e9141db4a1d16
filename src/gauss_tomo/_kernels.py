"""Fit kernels for the sinusoidal quadrature-variance model, on rows.

The model is sigma^2(theta) = a0 + a1*cos(2*theta) + a2*sin(2*theta).
Every kernel fits R independent problems at once.  The angle axis leads:
problem r is column r of the per-angle sample variances v, counts n and
design columns c2 = cos(2*theta), s2 = sin(2*theta), all broadcastable
to (m, R) (or to (m, ...) for a grid of problems) and summed over axis 0,
and every per-problem value is an (R,) vector.  The kernels know nothing
about covariance matrices:

    qr_rows(var, n, c2, s2)                     -> (w, q, r, k, ok)
    loglik_rows(a, v, n, c2, s2)                -> (R,) deviance (-inf off the feasible set)
    wls_fit_rows(v, n, c2, s2)                  -> (a, ok)
    ml_fit_rows(v, n, c2, s2, max_iter, tol)    -> (a, loglik, niter, converged)

with a of shape (R, 3), float64 arrays throughout and counts passed as
float64.  Each row's result is the one it gets when fitted alone.

The layout rule, for the fits and for the analytic homodyne error alike:
below _SLAB_ANGLES angles the arrays are C-contiguous, angle axis
outermost, so a sum over the angles is m slab adds, in angle order, for
every problem at once; from _SLAB_ANGLES angles on each problem's column
is contiguous (angle_major lays an array out either way), summed pairwise
on its own, whose rounding grows as log m, not m.  numpy sums a single
column pairwise even when it is C-contiguous, so _angle_sum sums that
case in angle order itself: a problem's sums, and so its bits, never
depend on how many problems share the call.  From 8 angles on the two
orders differ in the last bits.

Every 3-parameter solve goes through one factorization, qr_rows, of the
whitened design sqrt(n/2)/sigma^2 (1, c2, s2): the WLS fit and each
Fisher-scoring step solve R x = Q^T b on it, and the analytic homodyne
error reads its inverse Fisher information (R^T R)^-1 from R.
"""

import numpy as np

_SLAB_ANGLES = 128  # from this many angles on, each problem's column is contiguous


def angle_major(x, cols=None):
    """x, with the angle axis first, or its columns cols (axis 1), in the
    layout of the module docstring.  x[:, cols] itself would not be
    C-contiguous."""
    if len(x) < _SLAB_ANGLES:
        return np.ascontiguousarray(x) if cols is None else np.take(x, cols, axis=1)
    return np.asfortranarray(x if cols is None else x[:, cols])


def _angle_sum(x):
    # the sum over axis 0 in the order of the layout rule; a single column is
    # accumulated in angle order, as a slab of two or more columns is summed
    if x.size == len(x) < _SLAB_ANGLES:
        return np.add.accumulate(x, axis=0)[-1]
    return np.add.reduce(x, axis=0)


def qr_rows(var, n, c2, s2):
    """QR factor of the whitened design w (1, c2, s2), w = sqrt(n/2)/var, by problem.

    var, n, c2 and s2 broadcast to (m, ...); axis 0 is the angle.  Each
    problem's var is first scaled by 2^-k, k the exponent of its smallest
    entry, so that the scaled design 2^k w (1, c2, s2) has the same bits
    at any brightness.  It is factored as Q R by classical Gram-Schmidt
    with one reorthogonalization (CGS2: Golub and Van Loan, Matrix
    Computations, sec. 5.2; Giraud, Langou and Rozloznik, Comput. Math.
    Appl. 50 (2005) 1069), elementwise over problems, so no per-matrix
    LAPACK call is made.  Returns (w, q, r, k, ok): w the scaled weights
    2^k sqrt(n/2)/var, q the three orthonormal columns of Q, r = (r00,
    r01, r02, r11, r12, r22) the entries of R, k the exponents and ok
    False on a problem whose smallest |R_jj| is at most 1e-13 of its
    largest, or not finite.
    """
    return _qr(var, np.sqrt(0.5 * n), c2, s2)


def _qr(var, root_n, c2, s2):
    # qr_rows on root_n = sqrt(n/2), which the fits form once per call
    k = np.frexp(np.min(var, axis=0))[1]
    w = root_n / np.ldexp(var, -k)
    q, r = [], []
    for p in (w, w * c2, w * s2):
        rj = [0.0] * len(q)
        for _ in range(2):  # classical Gram-Schmidt, then once more
            t = [_angle_sum(qi * p) for qi in q]
            for i, (qi, ti) in enumerate(zip(q, t)):
                p = p - ti * qi
                rj[i] = rj[i] + ti
        norm = np.sqrt(_angle_sum(p * p))
        q.append(p / norm)
        r.append(rj + [norm])
    (r00,), (r01, r11), (r02, r12, r22) = r
    ok = np.minimum(np.minimum(r00, r11), r22) > 1e-13 * np.maximum(np.maximum(r00, r11), r22)
    return w, q, (r00, r01, r02, r11, r12, r22), k, ok


def _lstsq_rows(var, root_n, y, c2, s2):
    # The least-squares x, shape (3, R), of (1, c2, s2) x = y under weights
    # n / (2 var^2): R x = Q^T (w y) on the factor of the whitened design;
    # x = 0 where not ok.
    w, q, (r00, r01, r02, r11, r12, r22), _, ok = _qr(var, root_n, c2, s2)
    b = w * y
    b0, b1, b2 = (_angle_sum(qi * b) for qi in q)
    x2 = b2 / r22
    x1 = (b1 - r12 * x2) / r11
    x0 = (b0 - r01 * x1 - r02 * x2) / r00
    return np.where(ok, np.stack([x0, x1, x2]), 0.0), ok


def loglik_rows(a, v, n, c2, s2):
    # Gaussian log-likelihood of per-angle sample variances in deviance form,
    # -n/2 (log(s/v) + v/s - 1): the maximizer of the plain form, and a
    # value that keeps its bits when s and v change units by a power of two.
    return _deviance(np.transpose(a), v, -0.5 * n, c2, s2)


def _deviance(a, v, half_n, c2, s2):
    # loglik_rows on a of shape (3, R) and half_n = -n/2
    s = a[0] + a[1] * c2 + a[2] * s2
    bad = np.any(s <= 0.0, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = v / s
        lik = _angle_sum(half_n * (x - 1.0 - np.log(x)))
    return np.where(bad, -np.inf, lik)


def wls_fit_rows(v, n, c2, s2):
    # Weighted least squares with Var(v) = 2*sigma^4/n approximated by 2*v^2/n.
    ok = np.all(v > 0.0, axis=0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, solved = _lstsq_rows(v, np.sqrt(0.5 * n), v, c2, s2)
    ok &= solved
    return np.where(ok, a, 0.0).T, ok


def ml_fit_rows(v, n, c2, s2, max_iter, tol):
    # Fisher scoring with a per-row backtracking line search on the exact
    # likelihood.  A row stops when a step changes its deviance by less
    # than tol * sum(n) / 2, the size of the plain log-likelihood at unit
    # variances, so the test reads no units.  The inputs are laid out once
    # (angle_major), and sqrt(n/2), -n/2 and the stop sizes are formed once
    # for all passes.  Rows leave the working set as soon as they stop, so
    # converged rows cost nothing; the set is gathered anew only when it
    # shrinks, as are the line search's pending rows.
    v, n, c2, s2 = (angle_major(x) for x in np.broadcast_arrays(v, n, c2, s2))
    rows = v.shape[1]
    root_n, half_n = np.sqrt(0.5 * n), -0.5 * n
    stop = tol * 0.5 * _angle_sum(n)
    a, ok = wls_fit_rows(v, n, c2, s2)
    a = a.T  # (3, R), the layout of the loop
    lik = _deviance(a, v, half_n, c2, s2)
    lik[~ok] = -np.inf
    niter = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)

    # isotropic fallback start, always feasible for positive mean variance
    live = lik != -np.inf
    redo = np.flatnonzero(~live)
    if redo.size:
        nr, vr, hr, cr, sr = (angle_major(x, redo) for x in (n, v, half_n, c2, s2))
        den = _angle_sum(nr)
        num = _angle_sum(nr * vr)
        start = (den > 0.0) & (num > 0.0)
        iso = np.zeros((3, redo.size))
        iso[0, start] = num[start] / den[start]
        a[:, redo] = iso
        lik[redo] = np.where(start, _deviance(iso, vr, hr, cr, sr), -np.inf)
        # rows without a start are returned as (0, -inf, 0, False)
        live[redo[start]] = True
    idx = np.flatnonzero(live)

    # the working set: (v, -n/2, c2, s2), the deviance's arguments, and sqrt(n/2)
    work = [v, half_n, c2, s2, root_n]
    if idx.size < rows:
        work = [angle_major(x, idx) for x in work]
    aw, lw, sw = a[:, idx], lik[idx], stop[idx]
    for it in range(max_iter):
        if idx.size == 0:
            break
        vw, _, cw, s2w, rw = work
        s = aw[0] + aw[1] * cw + aw[2] * s2w
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            delta, ok = _lstsq_rows(s, rw, vw - s, cw, s2w)
        step = np.ones(idx.size)
        new_lik = np.full(idx.size, -np.inf)
        accepted = np.zeros(idx.size, dtype=bool)
        pending = np.flatnonzero(ok)
        trial = work[:4]
        if pending.size < idx.size:
            trial = [angle_major(x, pending) for x in trial]
        for _ in range(60):
            if pending.size == 0:
                break
            cand = aw[:, pending] + step[pending] * delta[:, pending]
            cand_lik = _deviance(cand, *trial)
            take = cand_lik >= lw[pending]
            hit = pending[take]
            aw[:, hit] = cand[:, take]
            new_lik[hit] = cand_lik[take]
            accepted[hit] = True
            if take.any():
                pending = pending[~take]
                trial = [angle_major(x, np.flatnonzero(~take)) for x in trial]
            step[pending] *= 0.5
        # a row that found no step has new_lik = -inf and is not done
        done = np.abs(new_lik - lw) < sw
        niter[idx[accepted]] = it + 1
        converged[idx[done]] = True
        a[:, idx] = aw
        lik[idx[accepted]] = new_lik[accepted]
        keep = accepted & ~done
        lw = new_lik
        if not keep.all():
            kept = np.flatnonzero(keep)
            idx, aw, lw, sw = idx[kept], aw[:, kept], lw[kept], sw[kept]
            work = [angle_major(x, kept) for x in work]
    return a.T, lik, niter, converged
