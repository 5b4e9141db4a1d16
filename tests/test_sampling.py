import math

import numpy as np
import pytest

from gauss_tomo import (
    AngleProtocol,
    CovMat,
    DetectionModel,
    InvalidProtocol,
    RaggedDataset,
    StateSpec,
    expected_het_hs_error,
    marginal_variance,
    sample_heterodyne,
    sample_homodyne,
    thermalize_heterodyne,
    thermalize_homodyne,
    to_heterodyne_cov,
    to_homodyne_cov,
    wigner_cov,
)
from gauss_tomo.sampling import (
    SAMPLING_BATCH,
    HeterodyneDataset,
    HomodyneDataset,
    _homodyne_sigmas,
    draw_heterodyne_covs,
    draw_homodyne_variances,
)

STATE = StateSpec(6.44, 11.61, 0.3)
DET = DetectionModel(0.8, CovMat(0.04, 0.0, 0.04))
G_W = wigner_cov(STATE)


class TestAngleProtocol:
    def test_angles(self):
        p = AngleProtocol(4, 0.1)
        np.testing.assert_allclose(p.angles, 0.1 + np.arange(4) * math.pi / 2)

    def test_validation(self):
        with pytest.raises(InvalidProtocol):
            AngleProtocol(0)
        with pytest.raises(InvalidProtocol):
            AngleProtocol(-3)
        with pytest.raises(InvalidProtocol):
            AngleProtocol(4, -0.1)
        with pytest.raises(InvalidProtocol):
            AngleProtocol(4, math.pi / 2)  # offset must stay below 2*pi/count

    def test_random_offset_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = AngleProtocol.with_random_offset(6, rng)
            assert 0.0 <= p.offset < 2.0 * math.pi / 6


class TestDatasetValidation:
    def test_homodyne_rejects_unsorted_angles(self):
        x = np.zeros(3)
        with pytest.raises(ValueError):
            HomodyneDataset((0.5, 0.1), (x, x), {})

    def test_homodyne_rejects_out_of_range_angle(self):
        with pytest.raises(ValueError):
            HomodyneDataset((0.0, 7.0), (np.zeros(3), np.zeros(3)), {})

    def test_homodyne_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            HomodyneDataset((0.0,), (np.array([1.0, np.nan]),), {})

    def test_heterodyne_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            HeterodyneDataset(np.zeros((4, 3)), {})

    def test_counts_and_totals(self):
        d = sample_homodyne(G_W, DET, AngleProtocol(5), 40, 1)
        assert d.counts == (40,) * 5
        assert d.total_events == 200
        h = sample_heterodyne(G_W, DET, 30, 1)
        assert h.total_events == 30


class TestHomodyneSampling:
    def test_deterministic(self):
        a = sample_homodyne(G_W, DET, AngleProtocol(4, 0.2), 100, 7)
        b = sample_homodyne(G_W, DET, AngleProtocol(4, 0.2), 100, 7)
        for x, y in zip(a.samples, b.samples):
            np.testing.assert_array_equal(x, y)
        c = sample_homodyne(G_W, DET, AngleProtocol(4, 0.2), 100, 8)
        assert not np.array_equal(a.samples[0], c.samples[0])

    def test_meta(self):
        d = sample_homodyne(G_W, DET, AngleProtocol(4, 0.2), 100, 7)
        assert d.meta["scheme"] == "hom"
        assert d.meta["seed"] == 7
        assert d.meta["eta"] == DET.eta
        assert d.meta["angle_count"] == 4
        assert d.meta["offset"] == 0.2
        assert d.meta["n_per_angle"] == 100

    def test_marginal_variance_statistics(self):
        n = 200_000
        d = sample_homodyne(G_W, DET, AngleProtocol(3, 0.1), n, 21)
        g_hom = to_homodyne_cov(G_W, DET)
        for th, x in zip(d.angles, d.samples):
            want = marginal_variance(g_hom, th) + marginal_variance(DET.g_elec, th)
            got = np.mean(x * x)
            # sample variance of x^2 is 2*want^2/n
            assert abs(got - want) < 5.0 * want * math.sqrt(2.0 / n)

    def test_sigmas_match_marginal_variance(self):
        angles = AngleProtocol(7, 0.3).angles
        g_hom = to_homodyne_cov(G_W, DET)
        want = [
            math.sqrt(marginal_variance(g_hom, th) + marginal_variance(DET.g_elec, th))
            for th in angles
        ]
        np.testing.assert_array_equal(_homodyne_sigmas(G_W, DET, angles), want)
        grid = np.stack([angles, angles[::-1]])
        np.testing.assert_array_equal(_homodyne_sigmas(G_W, DET, grid)[1], want[::-1])

    def test_variance_draws_follow_scaled_chi_square(self):
        # v = sigma^2 chi2_n / n has mean sigma^2 and variance 2 sigma^4 / n
        n, reps = 50, 40_000
        angles = AngleProtocol(3, 0.1).angles
        v = draw_homodyne_variances(
            G_W, DET, np.tile(angles, (reps, 1)), n, np.random.default_rng(71)
        )
        assert v.shape == (reps, 3)
        sig2 = _homodyne_sigmas(G_W, DET, angles) ** 2
        mean = v.mean(axis=0)
        z_mean = (mean - sig2) / (v.std(axis=0, ddof=1) / math.sqrt(reps))
        dev2 = (v - mean) ** 2
        z_var = (dev2.mean(axis=0) - 2.0 * sig2**2 / n) / (
            dev2.std(axis=0, ddof=1) / math.sqrt(reps)
        )
        assert np.all(np.abs(z_mean) < 3.0), z_mean
        assert np.all(np.abs(z_var) < 3.0), z_var


class TestHeterodyneSampling:
    def test_deterministic(self):
        a = sample_heterodyne(G_W, DET, 500, 3)
        b = sample_heterodyne(G_W, DET, 500, 3)
        np.testing.assert_array_equal(a.pairs, b.pairs)

    def test_meta(self):
        a = sample_heterodyne(G_W, DET, 500, 3)
        assert a.meta["scheme"] == "het"
        assert a.meta["n_pairs"] == 500

    def test_sample_covariance_statistics(self):
        n = 400_000
        d = sample_heterodyne(G_W, DET, n, 9)
        want = to_heterodyne_cov(G_W, DET).matrix + DET.g_elec.matrix
        got = d.pairs.T @ d.pairs / n
        scale = math.sqrt(want[0, 0] * want[1, 1])
        assert np.max(np.abs(got - want)) < 6.0 * scale / math.sqrt(n)

    def test_bartlett_draws_follow_wishart(self):
        # mean S = Sigma, and mean D_HS(S, Sigma) is the exact expected error
        n, reps = 40, 40_000
        s = draw_heterodyne_covs(G_W, DET, n, reps, np.random.default_rng(72))
        assert s.shape == (reps, 2, 2)
        sigma = to_heterodyne_cov(G_W, DET).matrix + DET.g_elec.matrix
        z_mean = (s.mean(axis=0) - sigma) / (s.std(axis=0, ddof=1) / math.sqrt(reps))
        diff = s - sigma
        dhs = np.einsum("rij,rji->r", diff, diff)
        want = expected_het_hs_error(STATE, DET, n)
        z_dhs = (dhs.mean() - want) / (dhs.std(ddof=1) / math.sqrt(reps))
        assert np.all(np.abs(z_mean) < 3.0), z_mean
        assert abs(z_dhs) < 3.0, z_dhs


class TestBrightDraws:
    # sigma^2 chi2_n and (L A)(L A)^T pass the float range before the
    # division by n; the scaled draws must not overflow there, and must
    # keep the bits of the plain formulas wherever those were finite

    def test_draws_are_finite_at_the_float_limit(self):
        g = wigner_cov(StateSpec(1e300, 1e6))
        for det in (DetectionModel(), DET):
            angles = np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, (30, 5))
            v = draw_homodyne_variances(g, det, angles, 300, np.random.default_rng(2))
            s = draw_heterodyne_covs(g, det, 1500, 30, np.random.default_rng(3))
            assert np.all(np.isfinite(v)) and np.all(v > 0.0)
            assert np.all(np.isfinite(s))

    def test_scaled_draws_match_the_plain_formulas(self):
        r = np.random.default_rng(74)
        for case in range(300):
            mu, lam = 10 ** r.uniform(-300, 300), 10 ** r.uniform(0, 6)
            g = wigner_cov(StateSpec(mu, lam, r.uniform(0, math.pi)))
            det = (DetectionModel(), DET)[case % 2]
            n, seed = int(r.choice([2, 600, 1500, 15000])), int(r.integers(2**31))
            angles = r.uniform(0.0, 2.0 * math.pi, (4, 5))
            got = draw_homodyne_variances(g, det, angles, n, np.random.default_rng(seed))
            s = _homodyne_sigmas(g, det, angles)
            with np.errstate(over="ignore"):
                want = s * s * np.random.default_rng(seed).chisquare(n, s.shape) / n
            ok = np.isfinite(want)
            np.testing.assert_array_equal(got[ok], want[ok])

            got = draw_heterodyne_covs(g, det, n, 4, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            a = np.zeros((4, 2, 2))
            a[:, 0, 0] = np.sqrt(rng.chisquare(n, 4))
            a[:, 1, 0] = rng.standard_normal(4)
            a[:, 1, 1] = np.sqrt(rng.chisquare(n - 1, 4))
            la = np.linalg.cholesky(det.recorded(g, "het").matrix) @ a
            with np.errstate(over="ignore", invalid="ignore"):
                want = la @ la.transpose(0, 2, 1) / n
            ok = np.isfinite(want)
            np.testing.assert_array_equal(got[ok], want[ok])


class TestThermalize:
    def test_homodyne_multiset_preserved_exactly(self):
        d = sample_homodyne(G_W, DET, AngleProtocol(6), 500, 17)
        t = thermalize_homodyne(d, 99)
        before = np.sort(np.concatenate(d.samples))
        after = np.sort(np.concatenate(t.samples))
        np.testing.assert_array_equal(before, after)
        assert t.counts == d.counts
        assert t.meta["thermalized"] == {"method": "shuffle", "seed": 99}

    def test_homodyne_deterministic(self):
        d = sample_homodyne(G_W, DET, AngleProtocol(6), 500, 17)
        t1 = thermalize_homodyne(d, 4)
        t2 = thermalize_homodyne(d, 4)
        for x, y in zip(t1.samples, t2.samples):
            np.testing.assert_array_equal(x, y)

    def test_homodyne_rejects_ragged(self):
        d = HomodyneDataset(
            (0.0, 1.0), (np.zeros(3), np.zeros(4)), {"scheme": "hom"}
        )
        with pytest.raises(RaggedDataset):
            thermalize_homodyne(d, 0)

    def test_homodyne_rejects_single_angle(self):
        d = sample_homodyne(G_W, DET, AngleProtocol(1), 50, 2)
        with pytest.raises(ValueError):
            thermalize_homodyne(d, 0)

    def test_heterodyne_norms_preserved(self):
        d = sample_heterodyne(G_W, DET, 2000, 23)
        t = thermalize_heterodyne(d, 5)
        np.testing.assert_allclose(
            (t.pairs**2).sum(axis=1), (d.pairs**2).sum(axis=1), rtol=1e-12
        )
        assert t.meta["thermalized"] == {"method": "rotate", "seed": 5}

    def test_heterodyne_isotropizes(self):
        n = 300_000
        d = sample_heterodyne(G_W, DetectionModel(1.0), n, 29)
        t = thermalize_heterodyne(d, 6)
        s = t.pairs.T @ t.pairs / n
        mean_var = 0.5 * (to_heterodyne_cov(G_W, DetectionModel(1.0)).trace)
        assert abs(s[0, 0] - mean_var) < 6.0 * mean_var * math.sqrt(2.0 / n) * 2.0
        assert abs(s[0, 1]) < 6.0 * mean_var / math.sqrt(n) * 2.0


def test_first_batch_independent_of_record_length():
    # each SAMPLING_BATCH-event chunk has its own stream, so a longer record
    # extends a shorter one instead of redrawing it
    n = SAMPLING_BATCH + 4321
    prot = AngleProtocol(1)
    long_hom = sample_homodyne(G_W, DET, prot, n, 5).samples[0]
    short_hom = sample_homodyne(G_W, DET, prot, SAMPLING_BATCH, 5).samples[0]
    assert long_hom.size == n
    np.testing.assert_array_equal(long_hom[:SAMPLING_BATCH], short_hom)
    long_het = sample_heterodyne(G_W, DET, n, 5).pairs
    short_het = sample_heterodyne(G_W, DET, SAMPLING_BATCH, 5).pairs
    np.testing.assert_array_equal(long_het[:SAMPLING_BATCH], short_het)


def test_invalid_seed_rejected():
    with pytest.raises(ValueError):
        sample_heterodyne(G_W, DET, 10, -1)
    with pytest.raises(ValueError):
        sample_homodyne(G_W, DET, AngleProtocol(3), 10, 2.5)
