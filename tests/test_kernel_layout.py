"""The angle-first kernels against the row-major ones they replaced.

The reference below is the earlier layout, kept here only to hold the
kernels to it: (R, m) arrays summed over their last, contiguous axis,
which numpy sums pairwise.  The kernels now sum over a leading angle
axis, in angle order below _kernels._SLAB_ANGLES angles and pairwise
from there on.  The two orders agree below 8 angles; from 8 on they
differ in the last bits, and a problem's bits must still not depend on
the other problems that share its call.
"""

import math

import numpy as np
import pytest

from gauss_tomo import CovMat, DetectionModel, StateSpec, benchmark, wigner_cov
from gauss_tomo import _kernels
from gauss_tomo.benchmark import _distinct_mod_pi, _hom_offsets
from gauss_tomo.estimation import _fit_hom_rows
from gauss_tomo.sampling import TWO_PI, draw_homodyne_variances

# the states of criteria 6-8: the presets, and corners of the 5x5 grid
STATES = [StateSpec(1.0, 1.0), StateSpec(38.4, 1.0), StateSpec(6.44, 11.61),
          StateSpec(4.46, 6.49), StateSpec(15.0, 1.0), StateSpec(1.8, 3.2),
          StateSpec(10.0, 10.0), StateSpec(5.6, 1.0, 0.7)]
DETS = [DetectionModel(1.0), DetectionModel(0.8, CovMat(0.05, 0.01, 0.08))]


# ---- the row-major reference: (R, m) arrays, summed over the last axis ----

def ref_qr_rows(var, n, c2, s2):
    k = np.frexp(np.min(var, axis=-1, keepdims=True))[1]
    w = np.sqrt(0.5 * n) / np.ldexp(var, -k)
    q, r = [], []
    for p in (w, w * c2, w * s2):
        rj = [0.0] * len(q)
        for _ in range(2):
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


def ref_lstsq_rows(var, n, y, c2, s2):
    w, q, (r00, r01, r02, r11, r12, r22), _, ok = ref_qr_rows(var, n, c2, s2)
    b = w * y
    b0, b1, b2 = (np.add.reduce(qi * b, axis=-1) for qi in q)
    x2 = b2 / r22
    x1 = (b1 - r12 * x2) / r11
    x0 = (b0 - r01 * x1 - r02 * x2) / r00
    return np.where(ok[:, None], np.stack([x0, x1, x2], axis=-1), 0.0), ok


def ref_loglik_rows(a, v, n, c2, s2):
    s = a[:, 0:1] + a[:, 1:2] * c2 + a[:, 2:3] * s2
    bad = np.any(s <= 0.0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = v / s
        lik = np.add.reduce(-0.5 * n * (x - 1.0 - np.log(x)), axis=-1)
    return np.where(bad, -np.inf, lik)


def ref_ml_fit_rows(v, n, c2, s2, max_iter, tol):
    v, c2, s2 = np.broadcast_arrays(v, c2, s2)
    n = np.broadcast_to(n, v.shape)
    rows = v.shape[0]
    ok = np.all(v > 0.0, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, solved = ref_lstsq_rows(v, n, v, c2, s2)
    ok &= solved
    a = np.where(ok[:, None], a, 0.0)
    lik = ref_loglik_rows(a, v, n, c2, s2)
    lik[~ok] = -np.inf
    niter = np.zeros(rows, dtype=np.int64)
    converged = np.zeros(rows, dtype=bool)
    redo = lik == -np.inf
    den = np.sum(n[redo], axis=-1)
    num = np.sum(n[redo] * v[redo], axis=-1)
    start = (den > 0.0) & (num > 0.0)
    iso = np.zeros((den.size, 3))
    iso[start, 0] = num[start] / den[start]
    a[redo] = iso
    lik[redo] = np.where(start, ref_loglik_rows(iso, v[redo], n[redo], c2[redo], s2[redo]),
                         -np.inf)
    live = ~redo
    live[np.flatnonzero(redo)[start]] = True
    idx = np.flatnonzero(live)
    for it in range(max_iter):
        if idx.size == 0:
            break
        va, na, ca, sa, aa, la = v[idx], n[idx], c2[idx], s2[idx], a[idx], lik[idx]
        s = aa[:, 0:1] + aa[:, 1:2] * ca + aa[:, 2:3] * sa
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            delta, ok = ref_lstsq_rows(s, na, va - s, ca, sa)
        step = np.ones(idx.size)
        new_lik = np.full(idx.size, -np.inf)
        accepted = np.zeros(idx.size, dtype=bool)
        pending = np.flatnonzero(ok)
        for _ in range(60):
            if pending.size == 0:
                break
            cand = aa[pending] + step[pending, None] * delta[pending]
            cand_lik = ref_loglik_rows(cand, va[pending], na[pending], ca[pending], sa[pending])
            take = cand_lik >= la[pending]
            hit = pending[take]
            aa[hit] = cand[take]
            new_lik[hit] = cand_lik[take]
            accepted[hit] = True
            pending = pending[~take]
            step[pending] *= 0.5
        done = np.abs(new_lik - la) < tol * 0.5 * np.sum(na, axis=-1)
        niter[idx[accepted]] = it + 1
        converged[idx[done]] = True
        a[idx[accepted]] = aa[accepted]
        lik[idx[accepted]] = new_lik[accepted]
        idx = idx[accepted & ~done]
    return a, lik, niter, converged


def ref_expected_hom_rows(g, m, n_events, offsets):
    # the (cells, offsets, angles) grid, angle axis outermost in memory below
    # 128 distinct angles and each row contiguous from there on
    d = _distinct_mod_pi(m)
    hs = np.empty((len(g), offsets.size))
    steps = np.arange(d)[:, None] * (TWO_PI / m)
    span = min(offsets.size, max(1, benchmark._BLOCK_ENTRIES // d))
    for p in range(0, offsets.size, span):
        th = (steps + offsets[p : p + span]).T
        if d >= 128:
            th = np.ascontiguousarray(th)
        c, s, c2, s2 = np.cos(th), np.sin(th), np.cos(2.0 * th), np.sin(2.0 * th)
        cells = max(1, benchmark._BLOCK_ENTRIES // th.size)
        for lo in range(0, len(g), cells):
            g11, g12, g22 = (col[:, None, None] for col in g[lo : lo + cells].T)
            sig2 = g11 * c * c + 2.0 * g12 * c * s + g22 * s * s
            _, _, r, k, ok = ref_qr_rows(sig2, n_events / d, c2, s2)
            r00, r01, r02, r11, r12, r22 = r
            y1 = 1.0 / r11
            y0 = -r01 * y1 / r00
            x2 = 1.0 / r22
            x1 = -r12 * x2 / r11
            x0 = -(r01 * x1 + r02 * x2) / r00
            h = 2.0 * (1.0 / r00**2 + y0**2 + y1**2 + x0**2 + x1**2 + x2**2)
            hs[lo : lo + cells, p : p + span] = np.where(ok, np.ldexp(h, 2 * k), math.nan)
    return np.sum(hs, axis=-1) / offsets.size


# ---- the problems ----

def hom_rows(m, reps, seed, n_events=1500):
    """(angles, variances, counts), each (R, m): reps random-offset records
    of every state under every detection model."""
    rng = np.random.default_rng(seed)
    n = max(2, n_events // m)
    th, v = [], []
    for state in STATES:
        for det in DETS:
            angles = rng.uniform(0.0, TWO_PI / m, (reps, 1)) + np.arange(m) * (TWO_PI / m)
            th.append(angles)
            v.append(draw_homodyne_variances(wigner_cov(state), det, angles, n, rng))
    th, v = np.concatenate(th), np.concatenate(v)
    return th, v, np.full(th.shape, float(n))


@pytest.mark.parametrize("m", [3, 5, 7, 10, 15, 100])
def test_ml_fits_match_the_row_major_kernel(m):
    th, v, n = hom_rows(m, 12, 100 + m)
    c2, s2 = np.cos(2.0 * th), np.sin(2.0 * th)
    want = ref_ml_fit_rows(v, n, c2, s2, 10_000, 1e-10)
    got = _kernels.ml_fit_rows(v.T, n.T, c2.T, s2.T, 10_000, 1e-10)
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3]), m
    assert np.all(want[3])
    if m < 8:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), m
    else:
        scale = np.max(np.abs(want[0]), axis=-1)
        assert np.all(np.max(np.abs(got[0] - want[0]), axis=-1) <= 1e-13 * scale), m
        assert not np.array_equal(got[0], want[0])  # the sums' order shows


@pytest.mark.parametrize("m", [3, 5, 7, 10, 15, 100])
def test_wls_fits_match_the_row_major_kernel(m):
    th, v, n = hom_rows(m, 6, 200 + m)
    c2, s2 = np.cos(2.0 * th), np.sin(2.0 * th)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want, ok = ref_lstsq_rows(v, n, v, c2, s2)
    got, solved = _kernels.wls_fit_rows(v.T, n.T, c2.T, s2.T)
    assert np.all(ok) and np.array_equal(solved, ok)
    if m < 8:
        assert np.array_equal(got, want), m
    else:
        scale = np.max(np.abs(want), axis=-1)
        assert np.all(np.max(np.abs(got - want), axis=-1) <= 1e-13 * scale), m


@pytest.mark.parametrize("m", [3, 5, 7, 10, 14, 16, 19, 100, 253, 254, 256, 257, 300, 301])
def test_analytic_error_keeps_its_bits(m):
    # d = 3 to 127 distinct angles (m 3 to 254) sum in angle order, as the
    # row-major grid's angle-outermost layout did; from d = 128 (m 256, 257,
    # 300, 301) on each row is summed pairwise
    states = [StateSpec(mu, lam, phi) for mu in (0.7, 3.0, 40.0) for lam in (1.0, 6.5, 80.0)
              for phi in (0.0, 0.4)]
    for det in DETS:
        g = np.array([[x.g11, x.g12, x.g22]
                      for x in (det.recorded(wigner_cov(s), "hom") for s in states)])
        for offsets in (_hom_offsets(m), _hom_offsets(m)[:32], np.array([0.1, 0.25])):
            got = benchmark._expected_hom_rows(g, m, 10_000, offsets)
            assert np.array_equal(got, ref_expected_hom_rows(g, m, 10_000, offsets)), (m, det)


def test_one_analytic_cell_gets_its_bits_alone():
    # one cell at one offset is a single column: it is still summed in angle order
    g = np.array([[1.3, 0.2, 7.1], [2.0, -0.4, 0.9], [5.0, 0.0, 5.0]])
    for m in (10, 16, 40, 300):
        offsets = np.array([0.1, 0.25])
        block = benchmark._expected_hom_rows(g, m, 10_000, offsets)
        for i in range(len(g)):
            alone = [benchmark._expected_hom_rows(g[i : i + 1], m, 10_000, offsets[j : j + 1])
                     for j in range(2)]
            assert block[i] == np.sum(alone) / 2, (m, i)


def test_a_shrunk_working_set_keeps_its_bits():
    # the last row needs more iterations than the rest, so the working set
    # shrinks to that row alone; it gets the bits of a call of its own
    m = 10
    th, v, n = hom_rows(m, 4, 7, n_events=20_000)
    th, v, n = th[:9], v[:9].copy(), n[:9].copy()
    rng = np.random.default_rng(8)
    n[-1] = 3.0
    v[-1] = (2.0 + 1.5 * np.cos(2.0 * th[-1])) * rng.chisquare(3, m) / 3
    c2, s2 = np.cos(2.0 * th), np.sin(2.0 * th)
    a, lik, iters, conv = _kernels.ml_fit_rows(v.T, n.T, c2.T, s2.T, 10_000, 1e-10)
    assert np.all(conv) and iters[-1] > np.max(iters[:-1]) + 1
    for r in range(len(v)):
        one = slice(r, r + 1)
        solo = _kernels.ml_fit_rows(v[one].T, n[one].T, c2[one].T, s2[one].T, 10_000, 1e-10)
        assert np.array_equal(a[r], solo[0][0]) and lik[r] == solo[1][0], r
        assert (iters[r], conv[r]) == (solo[2][0], solo[3][0]), r


def test_one_rep_cell_keeps_its_bits(monkeypatch):
    # a one-rep m 10 cell is a single fitted row alone, and one row among the
    # other m 10 rows when pooled with cells of m 10 and of other m; both,
    # and one repetition per block, give the same bits
    g = wigner_cov(StateSpec(4.46, 6.49))
    det = DetectionModel(0.85)

    def cell(m, reps, i):
        return (g, det, 1500, m, reps, 9, (benchmark._DOM_UNIT_HOM, i, m), g)

    one = cell(10, 1, 0)
    pool = [cell(5, 20, 1), one, cell(10, 20, 2), cell(15, 20, 3)]
    alone = benchmark._run_cells([one])[0]
    pooled = benchmark._run_cells(pool)
    assert np.array_equal(pooled[1], alone) and np.all(np.isfinite(alone))
    monkeypatch.setattr(benchmark, "_BLOCK_ROWS", 1)
    single = benchmark._map_cells(pool, 1)
    for a, b in zip(single, pooled):
        assert np.array_equal(a, b)


def test_fit_layout_follows_the_rule(monkeypatch):
    # the fits hand the kernel C-contiguous (m, R) arrays below _SLAB_ANGLES
    # angles, and arrays whose columns are contiguous from there on
    seen = []
    fit = _kernels.ml_fit_rows

    def spy(v, n, c2, s2, *args):
        seen.append(v)
        return fit(v, n, c2, s2, *args)

    monkeypatch.setattr(_kernels, "ml_fit_rows", spy)
    for m in (10, 127, 128, 200):
        th = np.tile(np.arange(m) * (math.pi / m), (3, 1))
        _fit_hom_rows(th, 1.0 + 0.5 * np.cos(2.0 * th), np.full(m, 50.0), DETS[0], "ml")
        v = seen.pop()
        assert v.shape == (m, 3)
        assert v.flags.c_contiguous if m < _kernels._SLAB_ANGLES else v.flags.f_contiguous


def test_long_fits_keep_their_bits():
    # from _SLAB_ANGLES angles on a row is contiguous and summed pairwise, as before
    for m in (128, 200):
        th, v, n = hom_rows(m, 2, m, n_events=100 * m)
        c2, s2 = np.cos(2.0 * th), np.sin(2.0 * th)
        want = ref_ml_fit_rows(v, n, c2, s2, 10_000, 1e-10)
        got = _kernels.ml_fit_rows(v.T, n.T, c2.T, s2.T, 10_000, 1e-10)
        for x, y in zip(got, want):
            assert np.array_equal(x, y), m
