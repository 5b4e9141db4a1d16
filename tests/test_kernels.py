"""The sinusoidal-model fit kernels on rows: exactness, optimality, the QR
factor of the whitened design, and row-by-row equivalence with solo fits and
with a per-problem reference fit.  The kernels take (m, R) arrays, angle
axis first: problem r is column r."""

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
    # (m, rows) arrays: one problem per column
    return [np.stack(x, axis=-1) for x in zip(*(make_problem(rng, m, n_per) for _ in range(rows)))]


# The per-problem reference each row is held to: the same Fisher scoring,
# written one problem at a time, whose every solve is a float64
# np.linalg.lstsq of the whitened design sqrt(n/2)/sigma^2 (1, c2, s2).


def _ref_lstsq(var, n, y, c2, s2):
    w = np.sqrt(0.5 * n) / var
    x, *_ = np.linalg.lstsq(w[:, None] * np.stack([np.ones_like(c2), c2, s2], axis=-1),
                            w * y, rcond=None)
    return x


def _ref_loglik(a, v, n, c2, s2):
    s = a[0] + a[1] * c2 + a[2] * s2
    if np.any(s <= 0.0):
        return -np.inf
    return float(np.sum(-0.5 * n * (v / s - 1.0 - np.log(v / s))))


def _ref_ml_fit(v, n, c2, s2, max_iter, tol):
    a = _ref_lstsq(v, n, v, c2, s2)
    lik = _ref_loglik(a, v, n, c2, s2)
    if lik == -np.inf:
        a = np.array([np.sum(n * v) / np.sum(n), 0.0, 0.0])
        lik = _ref_loglik(a, v, n, c2, s2)
    converged = False
    niter = 0
    for it in range(max_iter):
        s = a[0] + a[1] * c2 + a[2] * s2
        delta = _ref_lstsq(s, n, v - s, c2, s2)
        step = 1.0
        for _ in range(60):
            cand = a + step * delta
            new_lik = _ref_loglik(cand, v, n, c2, s2)
            if new_lik >= lik:
                a = cand
                break
            step *= 0.5
        else:
            break
        niter = it + 1
        if abs(new_lik - lik) < tol * 0.5 * np.sum(n):
            lik = new_lik
            converged = True
            break
        lik = new_lik
    return a, lik, niter, converged


def _assert_matches_reference(a, lik, ref):
    assert np.abs(a - ref[0]).max() <= 1e-12 * np.abs(ref[0]).max()
    assert abs(lik - ref[1]) <= 1e-12 * max(1.0, abs(ref[1]))


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
    c2, s2 = c2[:, None], s2[:, None]
    n = np.full((12, 1), 500.0)
    a_true = np.array([[4.0, 1.5, -2.0], [2.0, -0.5, 0.3]])
    v = a_true[:, 0] + a_true[:, 1] * c2 + a_true[:, 2] * s2
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
    s = a[:, 0] + a[:, 1] * c2 + a[:, 2] * s2
    w = n / (2.0 * s * s)
    grad = np.stack([np.sum(w * (v - s) * col, axis=0) for col in (1.0, c2, s2)], axis=-1)
    scale = np.sum(n / (2.0 * s * s), axis=0)
    assert np.all(np.max(np.abs(grad), axis=-1) < 1e-6 * scale)


def test_qr_matches_numpy():
    # every row's factor at variances 2^-600 to 2^600: w is the weight of
    # the variances scaled by 2^-k, |R| is what np.linalg.qr gives for the
    # design w (1, c2, s2), Q R is that design and Q is orthonormal
    rng = np.random.default_rng(16)
    v, n, c2, s2 = make_rows(rng, 100)
    v *= np.ldexp(1.0, rng.integers(-600, 600, 100))
    w, q, r, k, ok = _kernels.qr_rows(v, n, c2, s2)
    assert np.all(ok)
    assert np.array_equal(w, np.sqrt(0.5 * n) / np.ldexp(v, -k))
    # row-major (100, 6, 3) stacks of the design, Q and R
    w, c2, s2, q = w.T, c2.T, s2.T, [qi.T for qi in q]
    design = w[..., None] * np.stack([np.ones_like(c2), c2, s2], axis=-1)
    upper = np.zeros((100, 3, 3))
    upper[:, [0, 0, 0, 1, 1, 2], [0, 1, 2, 1, 2, 2]] = np.stack(r, axis=-1)
    tol = 1e-13 * upper[:, 0:1, 0:1]  # r00 is the norm of the first column
    assert np.all(np.abs(np.abs(upper) - np.abs(np.linalg.qr(design)[1])) <= tol)
    qs = np.stack(q, axis=-1)
    assert np.all(np.abs(qs @ upper - design) <= tol)
    assert np.all(np.abs(np.swapaxes(qs, -1, -2) @ qs - np.eye(3)) <= 1e-14)


def test_qr_flags_rank_deficient_rows():
    # two angles distinct mod pi, two distinct only by 1e-14, then a
    # well-posed row: the first two are flagged, and WLS fails on them
    th = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0 + 1e-14, 1.0 + np.pi],
                   [0.0, 1.0, 2.0, 3.0]]).T
    v, n, c2, s2 = np.ones((4, 3)), np.full((4, 1), 10.0), np.cos(2.0 * th), np.sin(2.0 * th)
    with np.errstate(divide="ignore", invalid="ignore"):
        ok = _kernels.qr_rows(v, n, c2, s2)[-1]
    assert ok.tolist() == [False, False, True]
    a, solved = _kernels.wls_fit_rows(v, n, c2, s2)
    assert solved.tolist() == [False, False, True]
    assert np.all(a[:2] == 0.0)


def _mixed_batch():
    """Problems of one (6, R) batch that take every path of the kernel."""
    rng = np.random.default_rng(21)
    v, n, c2, s2 = make_rows(rng, 5, m=M)
    c2, s2 = c2.copy(), s2.copy()
    n = n.copy()
    # an infeasible WLS start: the isotropic fallback starts the fit
    v[:, 1] = [1.204, 1.288, 1.102, 0.035, 0.113, 0.01]
    c2[:, 1], s2[:, 1], n[:, 1] = np.cos(2.0 * TH), np.sin(2.0 * TH), 3.0
    # a singular design: every angle the same
    c2[:, 2], s2[:, 2] = np.cos(0.6), np.sin(0.6)
    # no start at all: every variance zero
    v[:, 3] = 0.0
    # a small count, so this problem needs more iterations than the others
    v[:, 4] = 2.0 + np.cos(2.0 * TH) * 1.5 * rng.chisquare(4, M) / 4
    c2[:, 4], s2[:, 4], n[:, 4] = np.cos(2.0 * TH), np.sin(2.0 * TH), 5.0
    return v, n, c2, s2


def test_rows_match_solo_and_per_problem_fits():
    v, n, c2, s2 = _mixed_batch()
    for max_iter in (1, 10_000):
        a, lik, iters, conv = _kernels.ml_fit_rows(v, n, c2, s2, max_iter, 1e-10)
        for r in range(v.shape[1]):
            solo = _kernels.ml_fit_rows(v[:, r : r + 1], n[:, r : r + 1], c2[:, r : r + 1],
                                        s2[:, r : r + 1], max_iter, 1e-10)
            assert np.array_equal(a[r], solo[0][0]), (max_iter, r)
            assert lik[r] == solo[1][0] or (np.isnan(lik[r]) and np.isnan(solo[1][0]))
            assert (iters[r], conv[r]) == (solo[2][0], solo[3][0]), (max_iter, r)
        # rows 2 and 3 have no least-squares solution to compare with
        for r in (0, 1, 4):
            ref = _ref_ml_fit(v[:, r], n[:, r], c2[:, r], s2[:, r], max_iter, 1e-10)
            _assert_matches_reference(a[r], lik[r], ref)
            assert (iters[r], conv[r]) == ref[2:], (max_iter, r)
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
        a, lik, iters, conv = _kernels.ml_fit_rows(v, n[:, :1], c2, s2, 10_000, 1e-10)
        a_wls, ok = _kernels.wls_fit_rows(v, n[:, :1], c2, s2)
        assert np.all(ok)
        for r in range(v.shape[1]):
            want = _ref_lstsq(v[:, r], n[:, r], v[:, r], c2[:, r], s2[:, r])
            assert np.abs(a_wls[r] - want).max() <= 1e-12 * np.abs(want).max()
            ref = _ref_ml_fit(v[:, r], n[:, r], c2[:, r], s2[:, r], 10_000, 1e-10)
            _assert_matches_reference(a[r], lik[r], ref)
            assert (iters[r], conv[r]) == ref[2:]
