import hashlib
import math

import numpy as np
import pytest
from scipy.special import ndtr

from gauss_tomo import DegenerateVariance, TooFewSamples, kl_divergence
from gauss_tomo import test_gaussianity as run_gof  # alias: keep pytest from collecting it
from gauss_tomo import gaussianity
from gauss_tomo.gaussianity import _ks_null_table


class TestKlDivergence:
    def test_zero_for_identical(self):
        q = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(q, q) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            assert kl_divergence(p, q) >= 0.0

    def test_infinite_when_support_missing(self):
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.5, 0.0, 0.5])
        assert kl_divergence(p, q) == np.inf

    def test_zero_p_bins_contribute_nothing(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(np.log(2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            kl_divergence(np.array([0.5, 0.5]), np.array([0.5]))
        with pytest.raises(ValueError):
            kl_divergence(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))


class TestGaussianityVerdicts:
    def test_large_gaussian_passes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 2.0, 1_000_000)
        rep = run_gof(x)
        assert rep.pass_95 and rep.pass_99
        assert rep.ks_pvalue > 0.05
        assert rep.chi2_pvalue > 0.05
        assert rep.kl_divergence < 1e-3
        assert rep.bin_count == 101

    def test_uniform_rejected(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, 1_000_000)
        rep = run_gof(x)
        assert not rep.pass_95
        assert rep.ks_pvalue < 1e-3
        assert rep.chi2_pvalue < 1e-6
        assert rep.kl_divergence > 0.01

    def test_moderate_gaussian_passes_mostly(self):
        rng = np.random.default_rng(3)
        hits = sum(
            run_gof(rng.normal(0.0, 1.0, 2000)).pass_95 for _ in range(40)
        )
        assert hits >= 30

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 1.0, 5000)
        base = run_gof(x)
        # positive rescale: bins map one to one, statistics match tightly
        rep = run_gof(2.5 * x - 3.0)
        assert rep.ks_statistic == pytest.approx(base.ks_statistic, rel=1e-6)
        assert rep.chi2_statistic == pytest.approx(base.chi2_statistic, rel=1e-6)
        assert rep.kl_divergence == pytest.approx(base.kl_divergence, rel=1e-5, abs=1e-9)
        # reflection reverses the histogram, so the left-to-right >= 5
        # merge regroups differently; badly conditioned shifts make a few
        # samples hop bins: both are binning discretization, verdicts agree
        for a, b in ((-1.0, 0.0), (0.001, 40.0)):
            rep = run_gof(a * x + b)
            assert rep.ks_statistic == pytest.approx(base.ks_statistic, rel=1e-5)
            assert rep.chi2_statistic == pytest.approx(base.chi2_statistic, rel=0.15)
            assert rep.pass_95 == base.pass_95 and rep.pass_99 == base.pass_99

    def test_report_fields(self):
        rng = np.random.default_rng(5)
        rep = run_gof(rng.normal(size=2000))
        d = rep.to_dict()
        for key in (
            "ks_statistic",
            "ks_pvalue",
            "ks_pvalue_asymptotic",
            "chi2_statistic",
            "chi2_dof",
            "chi2_pvalue",
            "kl_divergence",
            "bin_count",
            "pass_95",
            "pass_99",
        ):
            assert key in d
        assert 0.0 <= d["ks_pvalue"] <= 1.0
        assert 0.0 <= d["chi2_pvalue"] <= 1.0
        assert d["kl_divergence"] >= 0.0
        assert d["chi2_dof"] >= 1

    def test_power_of_two_scale_keeps_every_bit(self):
        # the battery runs on x / 2^k, so a record near the float limit, whose
        # squares overflow, gets the report of the same record at unit scale
        x = np.random.default_rng(7).normal(size=3000)
        base = run_gof(x)
        for k in (1000, 1020, -3):
            assert run_gof(np.ldexp(x, k)) == base

    def test_degenerate_threshold_is_absolute(self):
        # the sd is compared with 1e-9 in the record's own units, not in units of 2^k
        x = np.random.default_rng(8).normal(size=2000)
        with pytest.raises(DegenerateVariance):
            run_gof(1e-10 * x)
        with pytest.raises(DegenerateVariance):
            run_gof(1e300 + 1e290 * x)
        run_gof(1e-8 * x)

    def test_calibrated_pvalue_differs_from_asymptotic(self):
        # fitting mean/sd from the data makes the classical asymptotic
        # p-value wildly conservative; the calibrated one fixes that
        rng = np.random.default_rng(6)
        rep = run_gof(rng.normal(size=2000))
        assert rep.ks_pvalue_asymptotic > rep.ks_pvalue


class TestGaussianityValidation:
    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            run_gof(np.random.default_rng(0).normal(size=500))

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance):
            run_gof(np.full(2000, 3.7))

    def test_rejects_nonfinite(self):
        x = np.random.default_rng(0).normal(size=2000)
        x[7] = np.nan
        with pytest.raises(ValueError):
            run_gof(x)

    def test_rejects_tiny_bins(self):
        with pytest.raises(ValueError):
            run_gof(np.random.default_rng(0).normal(size=2000), bins=3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            run_gof(np.zeros((100, 2)))


def test_false_positive_rate_roughly_calibrated():
    # smoke-sized version of the 500-dataset acceptance property
    rng = np.random.default_rng(7)
    rejected = sum(
        run_gof(rng.normal(size=2000)).ks_pvalue <= 0.05 for _ in range(200)
    )
    assert 2 <= rejected <= 22  # 1% .. 11% at n=200


def test_null_table_cached_and_sorted():
    t1 = _ks_null_table()
    t2 = _ks_null_table()
    assert t1 is t2
    assert np.all(np.diff(t1) >= 0)


def _one_shot_null_table():
    # the null table as it was built before row blocks: one full draw
    n = gaussianity._NULL_SIZE
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(gaussianity._NULL_SEED)))
    z = rng.standard_normal((gaussianity._NULL_REPLICAS, n))
    z = (z - z.mean(axis=1, keepdims=True)) / z.std(axis=1, keepdims=True)
    z.sort(axis=1)
    f = ndtr(z)
    i = np.arange(1, n + 1)
    d = np.maximum(np.max(i / n - f, axis=1), np.max(f - (i - 1) / n, axis=1))
    t = d * (math.sqrt(n) - 0.01 + 0.85 / math.sqrt(n))
    t.sort()
    return t


def test_blocked_null_table_matches_one_shot_build(monkeypatch):
    # 1000 = 3 * 256 + 232 replicas: the last block is short
    monkeypatch.setattr(gaussianity, "_NULL_REPLICAS", 1000)
    monkeypatch.setattr(gaussianity, "_NULL_SIZE", 300)
    monkeypatch.setattr(gaussianity, "_NULL_BLOCK_ROWS", 256)
    monkeypatch.setattr(gaussianity, "_null_table", None)
    table = _ks_null_table()
    assert table.shape == (1000,)
    assert table.tobytes() == _one_shot_null_table().tobytes()


def test_null_table_is_pinned():
    # A numpy or scipy change to the stream or to ndtr fails here instead of
    # quietly shifting every calibrated p-value.
    table = _ks_null_table()
    assert table.shape == (8000,)
    assert (table[0], table[-1]) == (0.2966248010776157, 1.375133427533902)
    digest = hashlib.sha256(table.astype("<f8").tobytes()).hexdigest()
    assert digest == "e8a9c6e7885ae5176c0ec2ae127d9adee218b29cb68c048cb6c5932881bd847e"
