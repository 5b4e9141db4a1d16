"""The sinusoidal-model fit kernels on rows: exactness, optimality, the 3x3
solve, and row-by-row equivalence with a per-problem reference fit."""

import numpy as np

from gauss_tomo import _kernels

M = 6
TH = np.arange(M) * np.pi / M


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


def make_rows(rng, rows, m=10, n_per=1000):
    return [np.stack(x) for x in zip(*(make_problem(rng, m, n_per) for _ in range(rows)))]


# The per-problem kernel the row kernel replaced, kept verbatim as the
# reference that each row must reproduce bit for bit.


def _seed_solve3(m00, m01, m02, m11, m12, m22, b0, b1, b2):
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


def _seed_loglik(a0, a1, a2, v, n, c2, s2):
    s = a0 + a1 * c2 + a2 * s2
    if np.any(s <= 0.0):
        return -np.inf
    return float(np.sum(-0.5 * n * (np.log(s) + v / s)))


def _seed_wls_fit(v, n, c2, s2):
    if np.any(v <= 0.0):
        return np.zeros(3), False
    w = n / (2.0 * v * v)
    cols = (np.ones_like(c2), c2, s2)
    m = [float(np.sum(w * cols[j] * cols[k])) for j in range(3) for k in range(j, 3)]
    b = [float(np.sum(w * v * cols[j])) for j in range(3)]
    x0, x1, x2, ok = _seed_solve3(m[0], m[1], m[2], m[3], m[4], m[5], b[0], b[1], b[2])
    return np.array([x0, x1, x2]), ok


def _seed_ml_fit(v, n, c2, s2, max_iter, tol):
    a, ok = _seed_wls_fit(v, n, c2, s2)
    lik = _seed_loglik(a[0], a[1], a[2], v, n, c2, s2) if ok else -np.inf
    if not ok or lik == -np.inf:
        den = float(np.sum(n))
        num = float(np.sum(n * v))
        if den <= 0.0 or num <= 0.0:
            return np.zeros(3), -np.inf, 0, False
        a = np.array([num / den, 0.0, 0.0])
        lik = _seed_loglik(a[0], a[1], a[2], v, n, c2, s2)

    cols = (np.ones_like(c2), c2, s2)
    converged = False
    niter = 0
    for it in range(max_iter):
        s = a[0] + a[1] * c2 + a[2] * s2
        w = n / (2.0 * s * s)
        r = v - s
        m = [float(np.sum(w * cols[j] * cols[k])) for j in range(3) for k in range(j, 3)]
        g = [float(np.sum(w * r * cols[j])) for j in range(3)]
        d0, d1, d2, ok = _seed_solve3(m[0], m[1], m[2], m[3], m[4], m[5], g[0], g[1], g[2])
        if not ok:
            break
        delta = np.array([d0, d1, d2])
        step = 1.0
        new_lik = -np.inf
        accepted = False
        for _ in range(60):
            cand = a + step * delta
            new_lik = _seed_loglik(cand[0], cand[1], cand[2], v, n, c2, s2)
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


def test_loglik_rejects_nonpositive_variance():
    rng = np.random.default_rng(11)
    v, n, c2, s2 = make_rows(rng, 2)
    # row 0: a1 large enough to push the model variance negative at some angle
    a = np.array([[1.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
    lik = _kernels.loglik_rows(a, v, n, c2, s2)
    assert lik[0] == -np.inf
    assert np.isfinite(lik[1])


def test_ml_exact_on_noiseless_input():
    th = np.arange(12) * np.pi / 12
    c2, s2 = np.cos(2.0 * th), np.sin(2.0 * th)
    n = np.full(12, 500.0)
    a_true = np.array([[4.0, 1.5, -2.0], [2.0, -0.5, 0.3]])
    v = a_true[:, 0:1] + a_true[:, 1:2] * c2 + a_true[:, 2:3] * s2
    a, lik, iters, conv = _kernels.ml_fit_rows(v, n, c2, s2, 10_000, 1e-10)
    assert np.all(conv)
    np.testing.assert_allclose(a, a_true, rtol=1e-10)
    a_wls, ok = _kernels.wls_fit_rows(v, n, c2, s2)
    assert np.all(ok)
    np.testing.assert_allclose(a_wls, a_true, rtol=1e-10)


def test_ml_recovers_wls_start_gradient_zero():
    # at the ML solution of every row the scoring gradient vanishes
    rng = np.random.default_rng(15)
    v, n, c2, s2 = make_rows(rng, 20)
    a, lik, iters, conv = _kernels.ml_fit_rows(v, n, c2, s2, 10_000, 1e-12)
    assert np.all(conv)
    s = a[:, 0:1] + a[:, 1:2] * c2 + a[:, 2:3] * s2
    w = n / (2.0 * s * s)
    grad = np.stack([np.sum(w * (v - s) * col, axis=-1) for col in (1.0, c2, s2)], axis=-1)
    scale = np.sum(n / (2.0 * s * s), axis=-1)
    assert np.all(np.max(np.abs(grad), axis=-1) < 1e-6 * scale)


def test_solve3_matches_numpy():
    rng = np.random.default_rng(16)
    a = rng.normal(size=(100, 3, 3))
    m = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(3)
    b = rng.normal(size=(100, 3))
    x0, x1, x2, ok = _kernels._solve3(
        m[:, 0, 0], m[:, 0, 1], m[:, 0, 2], m[:, 1, 1], m[:, 1, 2], m[:, 2, 2],
        b[:, 0], b[:, 1], b[:, 2],
    )
    assert np.all(ok)
    np.testing.assert_allclose(
        np.stack([x0, x1, x2], axis=-1), np.linalg.solve(m, b[..., None])[..., 0], rtol=1e-8
    )


def test_solve3_flags_singular():
    ones = np.ones(2)
    m = (ones, ones, ones, np.array([1.0, 2.0]), ones, np.array([1.0, 3.0]))
    x0, x1, x2, ok = _kernels._solve3(*m, ones, ones, ones)
    assert ok.tolist() == [False, True]
    assert (x0[0], x1[0], x2[0]) == (0.0, 0.0, 0.0)


def _mixed_batch():
    """Rows of one (R, 6) batch that take every path of the kernel."""
    rng = np.random.default_rng(21)
    v, n, c2, s2 = make_rows(rng, 5, m=M)
    c2, s2 = c2.copy(), s2.copy()
    n = n.copy()
    # an infeasible WLS start: the isotropic fallback starts the fit
    v[1] = [1.204, 1.288, 1.102, 0.035, 0.113, 0.01]
    c2[1], s2[1], n[1] = np.cos(2.0 * TH), np.sin(2.0 * TH), 3.0
    # a singular design: every angle the same
    c2[2], s2[2] = np.cos(0.6), np.sin(0.6)
    # no start at all: every variance zero
    v[3] = 0.0
    # a small count, so this row needs more iterations than the others
    v[4] = 2.0 + np.cos(2.0 * TH) * 1.5 * rng.chisquare(4, M) / 4
    c2[4], s2[4], n[4] = np.cos(2.0 * TH), np.sin(2.0 * TH), 5.0
    return v, n, c2, s2


def test_rows_match_solo_and_per_problem_fits():
    v, n, c2, s2 = _mixed_batch()
    for max_iter in (1, 10_000):
        batch = _kernels.ml_fit_rows(v, n, c2, s2, max_iter, 1e-10)
        a, lik, iters, conv = batch
        for r in range(v.shape[0]):
            solo = _kernels.ml_fit_rows(v[r : r + 1], n[r], c2[r : r + 1], s2[r : r + 1],
                                        max_iter, 1e-10)
            seed = _seed_ml_fit(v[r], n[r], c2[r], s2[r], max_iter, 1e-10)
            for got in ([x[0] for x in solo], seed):
                assert np.array_equal(a[r], got[0]), (max_iter, r)
                assert lik[r] == got[1] or (np.isnan(lik[r]) and np.isnan(got[1]))
                assert (iters[r], conv[r]) == (got[2], got[3]), (max_iter, r)
        if max_iter == 1:
            # every row that moved needs more than one step
            assert not np.any(conv)
        else:
            assert conv.tolist() == [True, True, False, False, True]
            assert len(set(iters[conv].tolist())) > 1
    # the paths taken: fallback start (row 1), singular design (row 2),
    # no start (row 3)
    assert not _kernels.wls_fit_rows(v, n, c2, s2)[1][2]
    assert iters[2] == 0 and lik[2] > -np.inf
    assert (iters[3], lik[3]) == (0, -np.inf) and np.all(a[3] == 0.0)


def test_rows_match_per_problem_fits_on_random_batch():
    rng = np.random.default_rng(22)
    for m, n_per in ((5, 3), (10, 50), (15, 1000)):
        v, n, c2, s2 = make_rows(rng, 60, m=m, n_per=n_per)
        a, lik, iters, conv = _kernels.ml_fit_rows(v, n[0], c2, s2, 10_000, 1e-10)
        for r in range(v.shape[0]):
            seed = _seed_ml_fit(v[r], n[r], c2[r], s2[r], 10_000, 1e-10)
            assert np.array_equal(a[r], seed[0])
            assert (lik[r], iters[r], conv[r]) == seed[1:]
