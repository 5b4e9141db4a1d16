import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gauss_tomo import (
    AngleProtocol,
    ConfigError,
    CovMat,
    DegenerateVariance,
    DetectionModel,
    GaussTomoError,
    SingularMatrix,
    StateSpec,
    TooFewSamples,
    Underdetermined,
    estimate,
    extract_params,
    hs_distance,
    psd_project,
    sample_heterodyne,
    sample_homodyne,
    wigner_cov,
)
from gauss_tomo.estimation import (
    FEW_SAMPLES, FITTED, ZERO_VARIANCE, _fit_het_rows, _fit_hom_rows, _psd_project_rows,
    estimate_from_variances,
)
from gauss_tomo.sampling import HeterodyneDataset, HomodyneDataset, draw_homodyne_variances

STATE = StateSpec(4.46, 6.49, 1.1)
DET = DetectionModel(0.85, CovMat(0.03, 0.0, 0.05))
G_W = wigner_cov(STATE)


class TestPsdProject:
    def test_psd_input_returned_verbatim(self):
        g = CovMat(2.0, 0.3, 1.0)
        out, clipped = psd_project(g)
        assert out is g
        assert not clipped

    def test_clips_negative_eigenvalue(self):
        g = CovMat(1.0, 2.0, 1.0)  # eigenvalues 3 and -1
        out, clipped = psd_project(g)
        assert clipped
        lo, hi = out.eigenvalues()
        assert lo >= -1e-12
        assert hi == pytest.approx(3.0, rel=1e-12)

    def test_idempotent_after_clip(self):
        g = CovMat(0.5, 1.3, 0.4)
        once, clipped = psd_project(g)
        assert clipped
        twice, clipped2 = psd_project(once)
        assert not clipped2
        assert twice is once


    def test_rows_match_per_matrix_eigh(self):
        # clipped rows, rows within rounding of the boundary, rows with both
        # eigenvalues negative and integer-valued rows in one batch: the
        # stacked eigh gives each row the bits of its own decomposition
        rng = np.random.default_rng(12)
        mixed = rng.normal(size=(300, 3)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
        edge = np.abs(mixed[:100])
        edge[:, 1] = np.sqrt(edge[:, 0] * edge[:, 2]) * (1.0 + 1e-12 * rng.normal(size=100))
        negative = -np.abs(mixed[:50]) * [1.0, 0.0, 1.0]
        ints = rng.integers(-5, 6, (60, 3)).astype(float)
        g = np.concatenate([mixed, edge, negative, ints])
        out, clipped = _psd_project_rows(g)
        for row, got, got_clipped in zip(g, out, clipped):
            w, u = np.linalg.eigh(np.array([[row[0], row[1]], [row[1], row[2]]]))
            want = row
            if w[0] < 0.0:
                p = (u * np.where(w < 0.0, 0.0, w)) @ u.T
                want = [p[0, 0], 0.5 * (p[0, 1] + p[1, 0]), p[1, 1]]
            assert got_clipped == (w[0] < 0.0)
            assert np.array_equal(got, want)
        assert 100 < clipped.sum() < len(g)
        assert np.all(clipped[400:450])
        # integer entries are projected as floats: the eigenvalues 3 and -1 give 1.5
        p, was_clipped = psd_project(CovMat(1, 2, 1))
        assert was_clipped and p == psd_project(CovMat(1.0, 2.0, 1.0))[0]
        assert p.g11 == pytest.approx(1.5, rel=1e-15)

    def test_one_row_view_on_non_finite_rows(self):
        # a NaN row is left as it is, as are rows whose screen is NaN; a row
        # that reaches eigh and has no finite eigenvalue is flagged
        rows = [(math.nan, 0.0, 1.0), (1.0, math.nan, 1.0), (math.inf, 0.0, 1.0),
                (1.0, math.inf, 1.0), (-math.inf, 0.0, 1.0), (math.inf, 0.0, -math.inf)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, clipped = _psd_project_rows(np.array(rows))
            for row, want, want_clipped in zip(rows, out, clipped):
                g = CovMat(*row)
                got, got_clipped = psd_project(g)
                assert got_clipped == want_clipped
                assert np.array_equal([got.g11, got.g12, got.g22], want, equal_nan=True)
                assert (got is g) == (not got_clipped)
        assert not clipped[0] and not clipped[1]


class TestExtractParams:
    def test_round_trip_axis_aligned(self):
        s = extract_params(wigner_cov(StateSpec(3.0, 2.0)))
        assert s.mu == pytest.approx(3.0, rel=1e-12)
        assert s.lam == pytest.approx(2.0, rel=1e-12)
        # reported angle points along the larger eigenvalue, here the p axis
        assert s.orientation == pytest.approx(math.pi / 2, rel=1e-12)

    def test_round_trip_rotated(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            mu = rng.uniform(0.5, 20.0)
            lam = rng.uniform(1.0, 12.0)
            phi = rng.uniform(0.0, math.pi)
            g = wigner_cov(StateSpec(mu, lam, phi))
            s = extract_params(g)
            assert s.lam >= 1.0
            assert s.mu == pytest.approx(mu, rel=1e-9)
            assert s.lam == pytest.approx(lam, rel=1e-9)
            # the major axis determines the state up to the lam <-> 1/lam flip
            back = wigner_cov(StateSpec(s.mu, 1.0 / s.lam, s.orientation))
            assert hs_distance(back, g) < 1e-16 * max(1.0, g.trace) ** 2

    def test_round_trip_bright(self):
        # e1 * e2 overflows above mu ~ 1.3e154, and at mu 5.9e307 the trace
        # does; mu is taken from the eigenvalues of g scaled by a power of
        # two, so it stays finite
        for mu in (1e160, 1e300, 5.9e307):
            s = extract_params(wigner_cov(StateSpec(mu, 3.0, 0.4)))
            assert s.mu == pytest.approx(mu, rel=1e-12)
            assert s.lam == pytest.approx(3.0, rel=1e-12)

    def test_mu_bits_where_the_product_is_normal(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            g = wigner_cov(StateSpec(10.0 ** rng.uniform(-5, 150), rng.uniform(1.0, 1e6),
                                     rng.uniform(0.0, math.pi)))
            e1, e2 = g.eigenvalues()
            assert extract_params(g).mu == math.sqrt(e1 * e2)

    def test_isotropic_orientation_zero(self):
        s = extract_params(CovMat(2.5, 0.0, 2.5))
        assert s.lam == 1.0
        assert s.orientation == 0.0

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            extract_params(CovMat(1.0, 1.0, 1.0))


class TestHomodyneEstimators:
    def test_ml_recovers_truth(self):
        d = sample_homodyne(G_W, DET, AngleProtocol(10, 0.07), 50_000, 44)
        r = estimate(d, DET)
        assert r.scheme == "hom"
        assert r.diagnostics.converged
        assert r.diagnostics.iterations >= 1
        assert hs_distance(r.g_w_hat, G_W) < 0.5

    def test_wls_close_to_ml(self):
        d = sample_homodyne(G_W, DET, AngleProtocol(12, 0.0), 20_000, 45)
        ml = estimate(d, DET)
        wls = estimate(d, DET, "wls")
        assert hs_distance(ml.g_w_hat, wls.g_w_hat) < 0.05
        assert wls.diagnostics.iterations == 1

    def test_ml_loglik_at_least_wls(self):
        d = sample_homodyne(G_W, DET, AngleProtocol(8, 0.1), 5_000, 46)
        ml = estimate(d, DET)
        wls = estimate(d, DET, "wls")
        assert ml.diagnostics.loglik >= wls.diagnostics.loglik - 1e-9

    def test_underdetermined_two_distinct_angles(self):
        # four equally spaced angles collapse to two distinct mod pi
        d = sample_homodyne(G_W, DET, AngleProtocol(4), 1_000, 47)
        with pytest.raises(Underdetermined):
            estimate(d, DET)
        with pytest.raises(Underdetermined):
            estimate(d, DET, "wls")

    def test_angles_across_the_wrap_are_one_angle(self):
        # 0 and pi - 1e-12 are one angle modulo pi, so only two are distinct
        with pytest.raises(Underdetermined, match="^2 angle"):
            estimate_from_variances([0.0, math.pi / 3, math.pi - 1e-12], [1.0, 2.0, 1.0001],
                                    [100] * 3, DetectionModel())

    def test_too_few_samples(self):
        angles = (0.1, 1.0, 2.0)
        for short in (1, 0):
            samples = (np.ones(short), np.ones(5), np.ones(5))
            d = HomodyneDataset(angles, samples, {"scheme": "hom"})
            with pytest.raises(TooFewSamples):
                estimate(d, DET)

    def test_degenerate_variance(self):
        angles = (0.1, 1.0, 2.0)
        samples = (np.zeros(10), np.ones(10), np.ones(10))
        d = HomodyneDataset(angles, samples, {"scheme": "hom"})
        with pytest.raises(DegenerateVariance):
            estimate(d, DET)

    def test_overflowing_solution_is_not_converged(self):
        # three angles 0.01 apart whose variances, 1e308 and 1.1e308, are
        # finite: the sinusoid through them has an amplitude 500 times the
        # variances, beyond the float range in the record's units although the
        # fit in units of 2^k is finite.  WLS reports that row as not
        # converged, as ML does
        x = np.tile([1.0, -1.0], 500)
        samples = tuple(math.sqrt(v) * x for v in (1e308, 1.1e308, 1e308))
        d = HomodyneDataset((0.0, 0.01, 0.02), samples, {"scheme": "hom"})
        for method in ("ml", "wls"):
            r = estimate(d, DetectionModel(), method)
            assert np.all(np.isfinite(r.diagnostics.variances)), method
            assert math.isnan(r.g_w_hat.g11) and not r.diagnostics.converged, method
        # a dimmer state fits, and its WLS row still converges
        d = sample_homodyne(wigner_cov(StateSpec(1e306, 3.0)), DetectionModel(),
                            AngleProtocol(10), 1_000, 1)
        assert estimate(d, DetectionModel(), "wls").diagnostics.converged

    def test_meta_carried_through(self):
        d = sample_homodyne(G_W, DET, AngleProtocol(5), 1_000, 48)
        r = estimate(d, DET)
        assert r.meta["seed"] == 48
        record = r.to_dict()
        assert set(("scheme", "g11", "g12", "g22", "mu", "lambda", "orientation")) <= set(record)

    def test_streaming_entry_point_matches(self):
        d = sample_homodyne(G_W, DET, AngleProtocol(7, 0.2), 4_000, 49)
        v = np.array([np.mean(x * x) for x in d.samples])
        counts = np.array(d.counts, dtype=float)
        r_stream = estimate_from_variances(np.array(d.angles), v, counts, DET, method="ml")
        r_full = estimate(d, DET)
        assert r_stream.g_w_hat == r_full.g_w_hat


def _drawn_variances(mu, lam, orientation, m, n, seed):
    # eta = 1 and no electronic noise: the fit sees the Wigner variances
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi / m) + np.arange(m) * (2.0 * np.pi / m)
    v = draw_homodyne_variances(
        wigner_cov(StateSpec(mu, lam, orientation)), DetectionModel(), angles, n, rng
    )
    return angles, v, np.full(m, n, dtype=float)


def _fit_or_skip(angles, v, counts, method) -> np.ndarray:
    # (g11, g12, g22) of a fit that neither raises nor PSD-clips
    try:
        r = estimate_from_variances(angles, v, counts, DetectionModel(), method)
    except GaussTomoError:
        assume(False)
    assume(not r.diagnostics.psd_clipped)
    g = r.g_w_hat
    return np.array([g.g11, g.g12, g.g22])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    mu=st.floats(0.2, 20.0),
    lam=st.floats(1.0, 20.0),
    orientation=st.floats(0.0, 3.1),
    m=st.sampled_from([3, 5, 6, 7, 9, 10, 15]),
    n=st.integers(2, 500),
    seed=st.integers(0, 2**32),
    k=st.integers(-400, 1000),
)
def test_scaled_variances_scale_the_estimate(mu, lam, orientation, m, n, seed, k):
    # Variances times 2^k: both methods give exactly 2^k times the estimate,
    # at any brightness.  The factored design is scaled by a power of two,
    # and ML's likelihood is a deviance in v/s, so no step or stopping
    # decision depends on the units.
    det = DetectionModel()
    angles, v, counts = _drawn_variances(mu, lam, orientation, m, n, seed)
    for method in ("wls", "ml"):
        base = estimate_from_variances(angles, v, counts, det, method)
        assume(not base.diagnostics.psd_clipped)
        scaled = estimate_from_variances(angles, np.ldexp(v, k), counts, det, method)
        assert scaled.diagnostics.converged
        g, h = base.g_w_hat, scaled.g_w_hat
        want = np.ldexp([g.g11, g.g12, g.g22], k)
        got = np.array([h.g11, h.g12, h.g22])
        assert np.array_equal(got, want)


_INVARIANT_STATE = dict(
    orientation=st.floats(0.0, 3.1),
    m=st.sampled_from([3, 5, 6, 7, 9, 10, 15]),
    n=st.integers(2, 500),
    seed=st.integers(0, 2**32),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    log_mu=st.floats(-2.0, 3.0),
    log_lam=st.floats(0.0, 3.0),
    log_c=st.floats(-5.0, 5.0),
    **_INVARIANT_STATE,
)
def test_variances_times_c_give_c_times_the_wls_estimate(
    log_mu, log_lam, log_c, orientation, m, n, seed
):
    # Any c > 0, not only a power of two: rounding v * c costs a relative
    # 1e-9 at most up to lambda 1e3 (4.6e-15 the worst of a 3000-state scan).
    angles, v, counts = _drawn_variances(10**log_mu, 10**log_lam, orientation, m, n, seed)
    c = 10**log_c
    want = c * _fit_or_skip(angles, v, counts, "wls")
    got = _fit_or_skip(angles, v * c, counts, "wls")
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("method,log_lam_max", [("wls", 3.0), ("ml", 2.0)])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    log_mu=st.floats(-2.0, 3.0),
    lam_frac=st.floats(0.0, 1.0),
    phi=st.floats(-np.pi, np.pi),
    **_INVARIANT_STATE,
)
def test_shifted_angles_rotate_the_estimate(
    method, log_lam_max, log_mu, lam_frac, phi, orientation, m, n, seed
):
    # The variances seen at angles theta + phi are those of R(phi) G R(phi)^T
    # at theta.  Both methods hold this within 1e-9 (a 3000-state scan gave
    # 2.9e-14 for WLS up to lambda 1e3 and 4.5e-14 for ML up to lambda 100).
    lam = 10 ** (lam_frac * log_lam_max)
    angles, v, counts = _drawn_variances(10**log_mu, lam, orientation, m, n, seed)
    g11, g12, g22 = _fit_or_skip(angles, v, counts, method)
    r = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    w = r @ np.array([[g11, g12], [g12, g22]]) @ r.T
    want = np.array([w[0, 0], w[0, 1], w[1, 1]])
    got = _fit_or_skip(angles + phi, v, counts, method)
    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


@pytest.mark.parametrize("method", ["ml", "wls"])
def test_rows_with_per_row_counts_match_each_cell_alone(method):
    # cells of different N stacked with per-row counts give every cell the
    # bits it gets alone; a zero variance and a count below 2 fail one row
    rng = np.random.default_rng(17)
    m, cells = 5, []
    for n_per, reps in ((3, 12), (120, 15), (3000, 10)):
        angles = rng.uniform(0.0, 2 * math.pi / m, (reps, 1)) + np.arange(m) * (2 * math.pi / m)
        v = draw_homodyne_variances(G_W, DET, angles, n_per, rng)
        cells.append([angles, v, np.full((reps, m), float(n_per))])
    cells[1][1][4, 2] = 0.0
    cells[2][2][3, 1] = 1.0
    batch = _fit_hom_rows(*(np.concatenate(x) for x in zip(*cells)), DET, method)
    lo = 0
    for angles, v, counts in cells:
        shared = counts[0] if np.all(counts == counts[0]) else counts
        alone = _fit_hom_rows(angles, v, shared, DET, method)
        for got, want in zip(batch, alone):
            assert np.array_equal(got[lo : lo + len(v)], want, equal_nan=True)
        lo += len(v)
    causes = np.full(lo, FITTED)
    causes[12 + 4], causes[12 + 15 + 3] = ZERO_VARIANCE, FEW_SAMPLES
    assert batch.failed.tolist() == causes.tolist()


class TestHeterodyneEstimator:
    def test_recovers_truth(self):
        d = sample_heterodyne(G_W, DET, 300_000, 50)
        r = estimate(d, DET)
        assert r.scheme == "het"
        assert hs_distance(r.g_w_hat, G_W) < 0.5

    def test_noise_subtraction_formula(self):
        # two orthogonal pair groups give S = diag(8, 4.5) exactly
        pairs = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 3.0], [0.0, -3.0]])
        det = DetectionModel(0.5, CovMat(0.25, 0.0, 0.25))
        d = HeterodyneDataset(pairs, {"scheme": "het"})
        r = estimate(d, det)
        # S - g_elec - ((2 - eta)/eta) I with eta = 0.5 subtracts 3.25
        assert r.g_w_hat.g11 == pytest.approx(8.0 - 0.25 - 3.0, rel=1e-12)
        assert r.g_w_hat.g22 == pytest.approx(4.5 - 0.25 - 3.0, rel=1e-12)
        assert not r.diagnostics.psd_clipped

    def test_clipping_flagged(self):
        pairs = np.array([[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1], [0.0, -0.1]])
        d = HeterodyneDataset(pairs, {"scheme": "het"})
        r = estimate(d, DetectionModel(1.0))
        assert r.diagnostics.psd_clipped
        assert r.g_w_hat.eigenvalues()[0] >= -1e-12

    def test_too_few_pairs(self):
        d = HeterodyneDataset(np.array([[1.0, 2.0]]), {"scheme": "het"})
        with pytest.raises(TooFewSamples):
            estimate(d, DET)


class TestDispatcher:
    def test_routes_by_type(self):
        dh = sample_homodyne(G_W, DET, AngleProtocol(5), 2_000, 51)
        dq = sample_heterodyne(G_W, DET, 2_000, 51)
        assert estimate(dh, DET).scheme == "hom"
        assert estimate(dq, DET).scheme == "het"

    def test_scaled_statistics_keep_every_bit(self):
        # the heterodyne sample covariance is taken on pairs / 2^k and scaled
        # back: the bits of the plain product, wherever it does not overflow
        dq = sample_heterodyne(G_W, DET, 2_000, 52)
        n = dq.pairs.shape[0]
        cov, _ = _fit_het_rows([dq.pairs.T @ dq.pairs / n], n, DET)
        assert estimate(dq, DET).g_w_hat == CovMat(*cov[0].tolist())

    def test_wls_rejected_for_heterodyne(self):
        dq = sample_heterodyne(G_W, DET, 2_000, 51)
        with pytest.raises(ConfigError, match="^method=wls applies to homodyne datasets only$"):
            estimate(dq, DET, "wls")

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            estimate(np.zeros(5), DET)
