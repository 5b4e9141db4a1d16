import math

import numpy as np
import pytest

from gauss_tomo import (
    CovMat,
    DetectionModel,
    SingularMatrix,
    StateSpec,
    conditional_variance,
    hs_distance,
    marginal_variance,
    squeezing_db,
    thermal_photon_number,
    to_heterodyne_cov,
    to_homodyne_cov,
    wigner_cov,
)


def random_psd(rng, scale=3.0):
    a = rng.normal(size=(2, 2)) * scale
    return CovMat.from_matrix(a @ a.T + 1e-6 * np.eye(2))


class TestCovMat:
    def test_matrix_round_trip(self):
        g = CovMat(2.0, -0.5, 1.5)
        assert CovMat.from_matrix(g.matrix) == g

    def test_from_matrix_symmetrizes(self):
        g = CovMat.from_matrix(np.array([[2.0, 0.3], [0.1, 1.0]]))
        assert g.g12 == pytest.approx(0.2)

    def test_from_matrix_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            CovMat.from_matrix(np.eye(3))

    def test_det_trace(self):
        g = CovMat(3.0, 1.0, 2.0)
        assert g.det == pytest.approx(5.0)
        assert g.trace == pytest.approx(5.0)

    def test_eigenvalues_match_numpy(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = random_psd(rng)
            lo, hi = g.eigenvalues()
            ref = np.linalg.eigvalsh(g.matrix)
            assert lo == pytest.approx(ref[0], rel=1e-10, abs=1e-12)
            assert hi == pytest.approx(ref[1], rel=1e-10, abs=1e-12)

    def test_physical(self):
        assert CovMat(1.0, 0.0, 1.0).physical
        assert not CovMat(1.0, 2.0, 1.0).physical
        assert not CovMat(-1.0, 0.0, 1.0).physical

    def test_arithmetic(self):
        a = CovMat(2.0, 0.5, 1.0)
        b = CovMat(1.0, 0.25, 3.0)
        assert (a + b).g12 == pytest.approx(0.75)
        assert (a - b).g22 == pytest.approx(-2.0)
        assert a.add_identity(2.0) == CovMat(4.0, 0.5, 3.0)
        assert CovMat.identity(1.5) == CovMat(1.5, 0.0, 1.5)


class TestStateSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StateSpec(0.0, 1.0)
        with pytest.raises(ValueError):
            StateSpec(1.0, -2.0)
        with pytest.raises(ValueError):
            StateSpec(1.0, 1.0, math.pi)
        with pytest.raises(ValueError):
            StateSpec(math.inf, 1.0)

    def test_vacuum_is_identity(self):
        assert wigner_cov(StateSpec(1.0, 1.0)) == CovMat(1.0, 0.0, 1.0)

    def test_axis_aligned(self):
        g = wigner_cov(StateSpec(2.0, 4.0))
        assert g.g11 == pytest.approx(0.5)
        assert g.g22 == pytest.approx(8.0)
        assert g.g12 == pytest.approx(0.0)

    def test_eigenvalues_invariant_under_rotation(self):
        spec = StateSpec(6.44, 11.61)
        want = sorted([spec.mu / spec.lam, spec.mu * spec.lam])
        for phi in np.linspace(0.0, math.pi, 17, endpoint=False):
            g = wigner_cov(StateSpec(spec.mu, spec.lam, float(phi)))
            got = g.eigenvalues()
            assert got[0] == pytest.approx(want[0], rel=1e-12)
            assert got[1] == pytest.approx(want[1], rel=1e-12)
            # characteristic polynomial check: det and trace pin the pair
            assert g.det == pytest.approx(want[0] * want[1], rel=1e-12)
            assert g.trace == pytest.approx(want[0] + want[1], rel=1e-12)


class TestDetectionModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectionModel(0.0)
        with pytest.raises(ValueError):
            DetectionModel(1.2)
        with pytest.raises(ValueError):
            DetectionModel(0.9, CovMat(1.0, 2.0, 1.0))

    def test_detection_maps_differ_by_one_vacuum_unit(self):
        rng = np.random.default_rng(2)
        for eta in (1.0, 0.8, 0.5):
            det = DetectionModel(eta)
            for _ in range(50):
                g = random_psd(rng)
                dh = to_homodyne_cov(g, det)
                dq = to_heterodyne_cov(g, det)
                diff = dq - dh
                assert diff.g11 == pytest.approx(1.0 / eta, rel=1e-14)
                assert diff.g22 == pytest.approx(1.0 / eta, rel=1e-14)
                assert diff.g12 == 0.0

    def test_wigner_rows_inverts_recorded(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            det = DetectionModel(rng.uniform(0.05, 1.0), random_psd(rng, 0.3))
            g = wigner_cov(StateSpec(rng.uniform(0.1, 50.0), rng.uniform(1.0, 30.0),
                                     rng.uniform(0.0, math.pi)))
            for scheme in ("hom", "het"):
                r = det.recorded(g, scheme)
                back = det.wigner_rows(np.array([[r.g11, r.g12, r.g22]]), scheme)[0]
                want = np.array([g.g11, g.g12, g.g22])
                assert np.abs(back - want).max() <= 1e-12 * np.abs(want).max()

    def test_recorded_schemes_differ_by_one_vacuum_unit_over_eta(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            det = DetectionModel(rng.uniform(0.05, 1.0), random_psd(rng, 0.3))
            g = random_psd(rng)
            diff = det.recorded(g, "het") - det.recorded(g, "hom")
            assert diff.g11 == pytest.approx(1.0 / det.eta, rel=1e-14)
            assert diff.g22 == pytest.approx(1.0 / det.eta, rel=1e-14)
            assert diff.g12 == 0.0
            assert det.recorded(g, "hom") == to_homodyne_cov(g, det) + det.g_elec
            assert det.recorded(g, "het") == to_heterodyne_cov(g, det) + det.g_elec

    def test_perfect_detection_identity(self):
        g = CovMat(2.0, 0.4, 1.0)
        det = DetectionModel(1.0)
        assert to_homodyne_cov(g, det) == g
        assert to_heterodyne_cov(g, det) == g.add_identity(1.0)


class TestVariances:
    def test_marginal_interpolates_diagonal(self):
        g = CovMat(3.0, 0.0, 1.0)
        assert marginal_variance(g, 0.0) == pytest.approx(3.0)
        assert marginal_variance(g, math.pi / 2) == pytest.approx(1.0)
        assert marginal_variance(g, math.pi / 4) == pytest.approx(2.0)

    def test_marginal_at_least_conditional(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            g = random_psd(rng)
            th = rng.uniform(0.0, 2.0 * math.pi)
            m = marginal_variance(g, th)
            c = conditional_variance(g, th)
            assert m >= c - 1e-12 * max(1.0, m)

    def test_conditional_is_inverse_quadratic_form(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            g = random_psd(rng)
            th = rng.uniform(0.0, 2.0 * math.pi)
            n = np.array([math.cos(th), math.sin(th)])
            want = 1.0 / (n @ np.linalg.inv(g.matrix) @ n)
            assert conditional_variance(g, th) == pytest.approx(want, rel=1e-9)

    def test_conditional_raises_on_singular(self):
        with pytest.raises(SingularMatrix):
            conditional_variance(CovMat(1.0, 1.0, 1.0), 0.3)

    def test_vacuum_marginal_and_conditional(self):
        for eta in (1.0, 0.8, 0.5):
            det = DetectionModel(eta)
            vac = wigner_cov(StateSpec(1.0, 1.0))
            hom = to_homodyne_cov(vac, det)
            het = to_heterodyne_cov(vac, det)
            for th in (0.0, 0.7, 2.0):
                assert marginal_variance(hom, th) == pytest.approx(1.0 / eta, rel=1e-14)
                assert conditional_variance(het, th) == pytest.approx(2.0 / eta, rel=1e-14)


class TestMetrics:
    def test_hs_distance_definition(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = random_psd(rng)
            b = random_psd(rng)
            want = np.trace((a.matrix - b.matrix) @ (a.matrix - b.matrix))
            assert hs_distance(a, b) == pytest.approx(want, rel=1e-12)
        assert hs_distance(a, a) == 0.0

    def test_squeezing_db(self):
        sq, anti = squeezing_db(StateSpec(6.44, 11.61))
        assert sq == pytest.approx(-10.0 * math.log10(6.44 / 11.61), rel=1e-12)
        assert anti == pytest.approx(10.0 * math.log10(6.44 * 11.61), rel=1e-12)
        sq, anti = squeezing_db(StateSpec(1.0, 1.0))
        assert sq == 0.0 and anti == 0.0

    def test_thermal_photon_number(self):
        assert thermal_photon_number(2.0) == pytest.approx(1.0)
        assert thermal_photon_number(1.0, subtract_vacuum=True) == 0.0
        assert thermal_photon_number(3.0, subtract_vacuum=True) == pytest.approx(1.0)
