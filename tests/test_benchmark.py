import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gauss_tomo import (
    BenchmarkConfig,
    CovMat,
    DetectionModel,
    StateSpec,
    expected_het_hs_error,
    expected_hom_hs_error,
    gamma_analytic,
    gamma_map,
    hs_distance,
    marginal_variance,
    run_benchmark,
    to_homodyne_cov,
    wigner_cov,
)
from gauss_tomo import benchmark, cli
from gauss_tomo.dataio import read_dataset
from gauss_tomo.errors import ConfigError, GaussTomoError, SingularMatrix

VAC = StateSpec(1.0, 1.0)
DET1 = DetectionModel(1.0)


def hom_error_at(state, det, m, n_events, offset):
    # the homodyne expected error at one protocol offset, from the row core
    g = det.recorded(wigner_cov(state), "hom")
    values = benchmark._expected_hom_rows([g.g11, g.g12, g.g22], m, n_events, np.array([offset]))
    return float(values[0])


def small_cfg(**over):
    base = dict(
        state=VAC,
        det=DET1,
        sample_sizes=(600, 1200),
        angle_counts=(5, 10),
        repetitions=25,
        seed=100,
        exact_truth=True,
    )
    base.update(over)
    return BenchmarkConfig(**base)


class TestConfigValidation:
    def test_rejects_indivisible_sample_size(self):
        with pytest.raises(ConfigError):
            small_cfg(sample_sizes=(1001,), angle_counts=(10,))

    def test_rejects_degenerate_angle_count(self):
        # four equally spaced angles give only two distinct mod pi
        with pytest.raises(ConfigError):
            small_cfg(angle_counts=(4,), sample_sizes=(400,))

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ConfigError):
            small_cfg(sample_sizes=(1200, 600))

    def test_rejects_small_reference(self):
        with pytest.raises(ConfigError):
            small_cfg(exact_truth=False, reference_size=1000)

    def test_rejects_zero_reps(self):
        with pytest.raises(ConfigError):
            small_cfg(repetitions=0)

    def test_to_dict_round_trip_fields(self):
        d = small_cfg().to_dict()
        assert d["state"]["mu"] == 1.0
        assert d["sample_sizes"] == [600, 1200]
        assert d["exact_truth"] is True


class TestRunBenchmark:
    def test_report_structure(self):
        rep = run_benchmark(small_cfg())
        assert set(rep.hom) == {(600, 5), (600, 10), (1200, 5), (1200, 10)}
        assert set(rep.het) == {600, 1200}
        for cell in rep.hom.values():
            assert cell.used == 25
            assert cell.failed == 0
            assert cell.mean > 0
        # 25 repetitions is below the gamma threshold
        for value, stderr in rep.gamma.values():
            assert math.isnan(value) and math.isnan(stderr)
        d = rep.to_dict()
        assert set(d["versions"]) == {"artifact", "numpy"}

    def test_gamma_reported_at_30_reps(self):
        rep = run_benchmark(small_cfg(repetitions=30, sample_sizes=(600,), angle_counts=(5,)))
        value, stderr = rep.gamma[(600, 5)]
        assert value > 0 and stderr > 0

    def test_deterministic_repeat(self):
        a = run_benchmark(small_cfg()).to_dict()
        b = run_benchmark(small_cfg()).to_dict()
        assert a == b

    def test_worker_count_does_not_change_results(self):
        a = run_benchmark(small_cfg(), workers=1).to_dict()
        b = run_benchmark(small_cfg(), workers=2).to_dict()
        assert a == b

    def test_estimated_reference_close_to_exact(self):
        cfg_exact = small_cfg(sample_sizes=(600,), angle_counts=(5,), repetitions=30)
        cfg_est = small_cfg(
            sample_sizes=(600,),
            angle_counts=(5,),
            repetitions=30,
            exact_truth=False,
            reference_size=200_000,
        )
        a = run_benchmark(cfg_exact)
        b = run_benchmark(cfg_est)
        ga = a.gamma[(600, 5)]
        gb = b.gamma[(600, 5)]
        assert gb[0] == pytest.approx(ga[0], abs=3.0 * math.hypot(ga[1], gb[1]))
        # the reference itself sits close to the true covariance
        ref = CovMat(*b.reference["hom"])
        assert hs_distance(ref, wigner_cov(VAC)) < 1e-2

    def test_orientation_invariance_of_gamma(self):
        base = StateSpec(6.44, 11.61, 0.0)
        tilted = StateSpec(6.44, 11.61, math.pi / 5)
        out = []
        for st in (base, tilted):
            cfg = BenchmarkConfig(
                state=st,
                det=DET1,
                sample_sizes=(4000,),
                angle_counts=(5,),
                repetitions=60,
                seed=7,
                exact_truth=True,
            )
            out.append(run_benchmark(cfg).gamma[(4000, 5)])
        (g0, s0), (g1, s1) = out
        assert abs(g0 - g1) < 3.0 * math.hypot(s0, s1)


class TestBrightStates:
    def test_bright_homodyne_fits_match_a_dimmer_state(self):
        # homodyne weights ~ 1/v^2 once underflowed at mu = 1e80; with
        # each row's design scaled by a power of two every fit succeeds
        # and gamma is the one of mu = 1e40
        def gamma(mu):
            cfg = small_cfg(state=StateSpec(mu, 1.0), sample_sizes=(1500,), angle_counts=(5,),
                            repetitions=30, seed=0)
            report = run_benchmark(cfg)
            return report.hom[(1500, 5)].failed, report.gamma[(1500, 5)]

        failed, (value, stderr) = gamma(1e80)
        _, (dim_value, _) = gamma(1e40)
        assert failed == 0
        assert math.isfinite(stderr) and stderr > 0.0
        assert value == pytest.approx(dim_value, rel=1e-4)

    def test_float_limit_homodyne_draws_fit(self):
        # at mu 1e300, lambda 1e6 the per-angle variances drawn at n 1500
        # do not overflow, and every fit succeeds, as at mu 1
        cfg = small_cfg(state=StateSpec(1e300, 1e6), sample_sizes=(1500,), angle_counts=(5,),
                        repetitions=30, seed=0)
        assert run_benchmark(cfg).hom[(1500, 5)].failed == 0


# The homodyne expected error at 1e6 events and gamma_analytic (eta 1,
# orientation 0), from a 60-digit mpmath inverse of the same Fisher
# matrices: the recorded covariance and the protocol angles as float64,
# their cosines and everything after in mpmath.
_MPMATH = [
    # mu, lambda, m, homodyne error, gamma
    (1.0, 1e2, 5, 0.03850886213826873, 0.53515110693235588),
    (1.0, 1e3, 5, 3.8500088600213862, 0.52103984144879525),
    (1.0, 1e4, 5, 385.00000886000024, 0.5196363724587575),
    (1.0, 1e6, 5, 3850000.0000088602, 0.51948207792296033),
    (1.0, 1e2, 3, 0.075005000750000014, 0.27475581619802859),
    (1e150, 1e4, 5, 3.8500000886000027e302, 0.51948051272052612),
    (1e150, 1e-4, 5, 3.8500000886000012e302, 0.51948051272052616),
    (1e150, 1e-4, 3, 7.5000000499999974e302, 0.26666666755555561),
]

# The per-event offset mean c0 of the homodyne error: n_events times
# expected_hom_hs_error, which is 2 tr(G^-1) with G = sum_j x_j x_j^T /
# (2 d sigma_j^4), x_j = (1, cos 2theta_j, sin 2theta_j), averaged over the
# protocol offset.  Computed offline with mpmath at 50 digits, from the
# recorded covariance as float64 and exact angles, as the mean over 16
# equally spaced offsets of the period pi/d.  In those 16 values the
# harmonics 2, 3 and 4 of 2 d delta were below 1e-29 of c0, against a first
# harmonic of up to 0.015 of it, and the mean over the two offsets of
# _hom_offsets matched c0 to 1e-29.
_OFFSET_MEANS = [
    # mu, lambda, orientation, m, eta 0.85 with g_elec (0.05, 0.01, 0.08) (else eta 1), c0
    (1.0, 1e2, 0.0, 3, False, 75005.00075),
    (1.0, 1e6, 0.0, 5, False, 3850000000008.86),
    (2.5, 30.0, 0.7, 7, False, 17674.02824659509),
    (6.44, 11.61, 0.0, 10, True, 22202.710384957106),
    (3.0, 1e3, 1.1, 12, True, 30612801.793592589),
    (0.7, 80.0, 0.4, 24, False, 8092.1687190521985),
    (1.0, 1e6, 0.3, 11, True, 2639399583878.4382),
    (2.0, 1e4, 2.0, 301, True, 810436570.18453999),
]


class TestStrongSqueezing:
    def test_no_homodyne_fit_fails(self):
        # the weighted design stays well conditioned enough for every fit
        for lam in (1e2, 1e3, 1e4, 1e6):
            cfg = small_cfg(state=StateSpec(1.0, lam), sample_sizes=(1500,), angle_counts=(5,),
                            repetitions=1000, seed=0)
            assert run_benchmark(cfg).hom[(1500, 5)].failed == 0, lam

    def test_monte_carlo_gamma_matches_the_exact_value(self):
        cfg = small_cfg(state=StateSpec(1.0, 100.0), sample_sizes=(1500,), angle_counts=(5,),
                        repetitions=2000, seed=1)
        report = run_benchmark(cfg)
        value, stderr = report.gamma[(1500, 5)]
        assert report.hom[(1500, 5)].failed == 0
        assert abs(value - _MPMATH[0][4]) <= 3.0 * stderr

    def test_analytic_values_match_mpmath(self):
        for mu, lam, m, hom, gamma in _MPMATH:
            state = StateSpec(mu, lam)
            got = expected_hom_hs_error(state, DET1, m, benchmark._GAMMA_EVENTS)
            assert got == pytest.approx(hom, rel=1e-12), (mu, lam, m)
            assert gamma_analytic(state, DET1, m) == pytest.approx(gamma, rel=1e-12), (mu, lam, m)

    def test_scaled_covariances_scale_the_expected_error_exactly(self):
        # g times 2^k gives 2^2k times the homodyne error, bit for bit
        rng = np.random.default_rng(5)
        det = DetectionModel(0.85, CovMat(0.01, 0.0, 0.01))
        for m in (3, 5, 10):
            offsets = benchmark._hom_offsets(m)
            g = []
            for _ in range(20):
                state = StateSpec(rng.uniform(0.2, 10.0), 10 ** rng.uniform(0.0, 4.0),
                                  rng.uniform(0.0, 3.0))
                rec = det.recorded(wigner_cov(state), "hom")
                g.append([rec.g11, rec.g12, rec.g22])
            base = benchmark._expected_hom_rows(g, m, 10_000, offsets)
            assert np.all(np.isfinite(base))
            for k in (-400, -37, 1, 250, 400):
                got = benchmark._expected_hom_rows(np.ldexp(g, k), m, 10_000, offsets)
                assert np.array_equal(got, np.ldexp(base, 2 * k)), (m, k)


class TestRunCell:
    def test_zero_variance_row_fails_alone(self, monkeypatch):
        cfg = small_cfg(sample_sizes=(600,), angle_counts=(5,), repetitions=40)
        g = wigner_cov(VAC)
        cell = (g, DET1, 600, 5, 40, cfg.seed, (benchmark._DOM_UNIT_HOM, 0, 0), g)
        (clean,) = benchmark._run_cells([cell])
        draw = benchmark.draw_homodyne_variances

        def draw_with_zero(*args):
            v = draw(*args)
            v[3, 2] = 0.0
            return v

        monkeypatch.setattr(benchmark, "draw_homodyne_variances", draw_with_zero)
        (dhs,) = benchmark._run_cells([cell])
        assert np.isnan(dhs[3])
        assert not np.any(np.isnan(clean))
        assert np.array_equal(np.delete(dhs, 3), np.delete(clean, 3))
        stats = run_benchmark(cfg).hom[(600, 5)]
        assert (stats.used, stats.failed) == (39, 1)

    def test_map_point_is_gamma_of_its_two_cells(self):
        # a Monte Carlo map point is _gamma of its homodyne and heterodyne
        # cell, drawn at the point's child seed and scored against the truth
        state, seed = StateSpec(1.5, 2.0), 3
        rows = gamma_map([1.0, 1.5], [2.0], DET1, n_events=600, angle_count=5,
                         repetitions=30, seed=seed)
        g = wigner_cov(state)
        point_seed = benchmark._child_seed(seed, benchmark._DOM_MAP_CELL, 1, 0)
        hom = (g, DET1, 600, 5, 30, point_seed, (benchmark._DOM_UNIT_HOM, 0, 0), g)
        het = (g, DET1, 600, 0, 30, point_seed, (benchmark._DOM_UNIT_HET, 0), g)
        stats = [benchmark._aggregate(dhs) for dhs in benchmark._run_cells([hom, het])]
        value, stderr = benchmark._gamma(*stats)
        assert rows[1] == {"mu": 1.5, "lambda": 2.0, "gamma": value}
        assert math.isfinite(value) and stderr > 0.0

    def test_aggregate_drops_nans_as_the_list_form(self):
        # failed repetitions are NaN: the mask keeps the order and the bits
        # of the rest, so the stats are those of the NaN-free list
        rng = np.random.default_rng(3)
        values = rng.exponential(1.0, 125) * 1e-3
        values[[0, 7, 8, 124]] = math.nan
        kept = [v for v in values.tolist() if not math.isnan(v)]
        got, want = benchmark._aggregate(values), benchmark._aggregate(kept)
        assert (got.mean, got.stderr, got.used, got.failed) == (want.mean, want.stderr, 121, 4)
        assert got == benchmark._aggregate(values.tolist())
        empty = benchmark._aggregate(np.full(5, math.nan))
        assert math.isnan(empty.mean) and math.isnan(empty.stderr)
        assert (empty.used, empty.failed) == (0, 5)

    def test_blocks_do_not_change_the_cells(self, monkeypatch):
        # one block, one cell per block and the pool's blocks give the same
        # bits: cells of three states, two detection models, two N, and
        # heterodyne and two m at each, a bright state's NaN rows among them:
        # at mu 1e306, lambda 1e3 the major variance is past the float range
        dets = (DET1, DetectionModel(0.85, CovMat(0.01, 0.0, 0.01)))
        cells = []
        for i, (state, det) in enumerate([(VAC, dets[0]), (StateSpec(2.0, 5.0, 0.3), dets[1]),
                                          (StateSpec(1e306, 1e3), dets[0])]):
            g = wigner_cov(state)
            for n in (600, 1500):
                for m in (0, 5, 15):
                    key = (benchmark._DOM_UNIT_HOM if m else benchmark._DOM_UNIT_HET, i, n, m)
                    cells.append((g, det, n, m, 20 + m, 7, key, g))
        one = benchmark._run_cells(cells)
        assert len(benchmark._blocks(cells, 1)) == 1
        assert any(np.isnan(dhs).any() for dhs in one)
        assert any(np.isfinite(dhs).all() for dhs in one)
        assert len(benchmark._blocks(cells, 2)) > 1
        pooled = benchmark._map_cells(cells, 2)
        monkeypatch.setattr(benchmark, "_BLOCK_ROWS", 1)
        assert len(benchmark._blocks(cells, 1)) == len(cells)
        single = benchmark._map_cells(cells, 1)
        for got in (pooled, single):
            assert len(got) == len(one)
            for a, b in zip(got, one):
                assert np.array_equal(a, b, equal_nan=True)

    def test_map_fits_stay_under_the_row_cap(self, monkeypatch):
        # a 12x12 Monte Carlo map fits its 28800 homodyne rows in blocks
        calls = []
        fit = benchmark._fit_hom_rows

        def counted(angles, *args):
            calls.append(len(angles))
            return fit(angles, *args)

        monkeypatch.setattr(benchmark, "_fit_hom_rows", counted)
        gamma_map(np.linspace(0.5, 4.0, 12), np.linspace(1.0, 8.0, 12), DET1, n_events=600,
                  angle_count=5, repetitions=200, seed=2)
        assert sum(calls) == 144 * 200
        assert 1 < len(calls) and max(calls) <= benchmark._BLOCK_ROWS

    def test_map_and_crossover_build_no_benchmark(self, monkeypatch):
        # Monte Carlo points and crossover probes run their cells directly:
        # no BenchmarkConfig, no report, no analytic gamma
        def refuse(*args, **kwargs):
            raise AssertionError("not on the Monte Carlo path")

        monkeypatch.setattr(benchmark, "gamma_analytic", refuse)
        monkeypatch.setattr(benchmark, "BenchmarkConfig", refuse)
        monkeypatch.setattr(benchmark, "BenchmarkReport", refuse)
        rows = gamma_map([1.0, 3.0], [1.0], DET1, n_events=600, angle_count=5,
                         repetitions=30, seed=1)
        assert all(math.isfinite(row["gamma"]) for row in rows)
        mu = benchmark.find_isotropic_crossover(DET1, n_events=1000, angle_count=5,
                                                repetitions=300, seed=1)
        assert 1.0 < mu < 1.5

    @pytest.mark.parametrize("det", [DET1, DetectionModel(0.85, CovMat(0.01, 0.0, 0.01))],
                             ids=["eta1", "eta085-gelec"])
    def test_extreme_monte_carlo_map_is_silent(self, det):
        # inf and NaN statistics, fits and distances end as NaN cells,
        # without numpy warnings and without a cell raising
        mus = np.geomspace(1e-300, 1e305, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = gamma_map(mus, [1e-5, 1.0, 1e6], det, n_events=600, angle_count=5,
                             repetitions=30, seed=0)
        assert [(r["mu"], r["lambda"]) for r in rows] == [
            (mu, lam) for mu in mus for lam in (1e-5, 1.0, 1e6)
        ]
        gammas = np.array([r["gamma"] for r in rows])
        assert 0 < np.isnan(gammas).sum() < len(rows)


def test_crossover_is_pinned():
    # the crossover probes' streams: a bisection point of (seed, step) child seeds
    mu = benchmark.find_isotropic_crossover(DET1, n_events=1000, angle_count=5,
                                            repetitions=300, seed=1)
    assert mu == 1.2939453125


class TestBuildReference:
    def test_exact_reference_is_truth(self):
        hom, het = benchmark._references(small_cfg(state=(STATE := StateSpec(3.0, 2.0, 0.4))))
        assert hom == het == wigner_cov(STATE)

    def test_estimated_references_converge(self):
        state = StateSpec(2.0, 3.0, 0.9)
        truth = wigner_cov(state)
        cfg = small_cfg(state=state, exact_truth=False, reference_size=500_000, seed=2)
        hom, het = benchmark._references(cfg)
        assert hs_distance(hom, truth) < 5e-3
        assert hs_distance(het, truth) < 5e-3


def test_random_streams_are_pinned(tmp_path):
    # Exact values recorded with numpy 2.4.6.  A refactor must move no
    # random stream: references, benchmark cells, Monte Carlo map cells
    # and simulate's random protocol offset each have their own.
    cfg = small_cfg(sample_sizes=(600,), angle_counts=(5,), repetitions=30,
                    exact_truth=False, reference_size=60_000)
    rep = run_benchmark(cfg)
    # the homodyne reference is a 100-angle fit, whose angle sums run in angle order
    assert rep.reference == {
        "hom": [1.0060304758772234, 0.00847291191971053, 1.0161002661723382],
        "het": [0.9907695626713535, 0.006443796960285235, 0.9983184541369463],
    }
    assert rep.gamma == {(600, 5): (1.3262061261324436, 0.2117962106095123)}
    rows = gamma_map([1.5], [2.0], DET1, n_events=600, angle_count=5, repetitions=30, seed=3)
    assert rows == [{"mu": 1.5, "lambda": 2.0, "gamma": 0.7661415201202706}]
    out = tmp_path / "h.csv"
    argv = ["simulate", "--angles", "5", "--samples", "10", "--seed", "4", "--out", str(out)]
    assert cli.main(argv) == 0
    assert read_dataset(out).meta["offset"] == 0.21068405962406306


class TestExpectedErrors:
    def test_het_closed_form_vacuum(self):
        for eta in (1.0, 0.8, 0.5):
            det = DetectionModel(eta)
            want = 24.0 / (eta * eta * 10_000)
            assert expected_het_hs_error(VAC, det, 10_000) == pytest.approx(want, rel=1e-12)

    def test_het_matches_wishart_simulation(self):
        state = StateSpec(2.5, 3.1, 0.6)
        det = DetectionModel(0.9, CovMat(0.02, 0.0, 0.02))
        n = 400
        reps = 4000
        rng = np.random.default_rng(123)
        sigma = wigner_cov(state).matrix + ((2.0 - det.eta) / det.eta) * np.eye(2)
        sigma += det.g_elec.matrix
        chol = np.linalg.cholesky(sigma)
        total = 0.0
        for _ in range(reps):
            z = rng.standard_normal((n, 2)) @ chol.T
            s = z.T @ z / n
            diff = s - sigma
            total += np.trace(diff @ diff)
        mc = total / reps
        want = expected_het_hs_error(state, det, n)
        assert mc == pytest.approx(want, rel=0.1)

    def test_hom_matches_per_offset_loop(self):
        # the per-offset loop of Fisher-matrix inverses, kept as the
        # reference; the factored design differs from it in rounding only
        def per_offset(state, det, m, n_events, offsets):
            g = to_homodyne_cov(wigner_cov(state), det) + det.g_elec
            total = 0.0
            for off in offsets:
                th = off + np.arange(m) * (2.0 * np.pi / m)
                sig2 = marginal_variance(g, th)
                c, s = np.cos(th), np.sin(th)
                u = np.stack([c * c, 2.0 * c * s, s * s], axis=1)
                info = (u * (n_events / m / (2.0 * sig2**2))[:, None]).T @ u
                total += float(np.sum(np.array([1.0, 2.0, 1.0]) * np.diag(np.linalg.inv(info))))
            return total / len(offsets)

        rng = np.random.default_rng(7)
        det = DetectionModel(0.85, CovMat(0.01, 0.0, 0.01))
        for m in (3, 5, 10, 15):
            for _ in range(5):
                state = StateSpec(rng.uniform(0.2, 8.0), rng.uniform(1.0, 15.0), rng.uniform(0, 3))
                offsets = (np.arange(64) + 0.5) * (2.0 * np.pi / m) / 64
                got = expected_hom_hs_error(state, det, m, 10_000)
                assert got == pytest.approx(per_offset(state, det, m, 10_000, offsets), rel=1e-13)
                got = hom_error_at(state, det, m, 10_000, 0.3)
                assert got == pytest.approx(per_offset(state, det, m, 10_000, [0.3]), rel=1e-13)

    def test_even_angle_counts_fold_onto_the_angles_distinct_mod_pi(self):
        # The core factors only the m/2 angles distinct mod pi, each with the
        # events of both theta and theta + pi.  The reference sums each offset's
        # Fisher matrix of (g11, g12, g22) over all m angles and inverts it in
        # exact rational arithmetic, from the float weights and design rows:
        # at lambda 1e3 a float64 inverse of that matrix can be off by 1e-10.
        def all_angles(g, m, n_events, offsets):
            g11, g12, g22 = g
            total = Fraction(0)
            for off in offsets:
                f = [Fraction(0)] * 6  # (0,0) (0,1) (0,2) (1,1) (1,2) (2,2)
                for j in range(m):
                    th = off + j * (2.0 * np.pi / m)
                    c, s = math.cos(th), math.sin(th)
                    w = Fraction(n_events / m / (2.0 * (g11 * c * c + 2.0 * g12 * c * s
                                                        + g22 * s * s) ** 2))
                    u = [Fraction(c * c), Fraction(2.0 * c * s), Fraction(s * s)]
                    for i, (p, q) in enumerate(((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))):
                        f[i] += w * u[p] * u[q]
                f00, f01, f02, f11, f12, f22 = f
                cof = (f11 * f22 - f12 * f12, f00 * f22 - f02 * f02, f00 * f11 - f01 * f01)
                det = f00 * cof[0] - f01 * (f01 * f22 - f12 * f02) + f02 * (f01 * f12 - f11 * f02)
                total += (cof[0] + 2 * cof[1] + cof[2]) / det
            return float(total / len(offsets))

        rng = np.random.default_rng(11)
        det = DetectionModel(0.85, CovMat(0.01, 0.0, 0.01))
        for m in (6, 10, 20, 100):
            offsets = rng.uniform(0.0, 2.0 * np.pi / m, 3)
            for lam in (1.0, 10.0, 100.0, 1e3):
                state = StateSpec(rng.uniform(0.2, 8.0), lam, rng.uniform(0.0, 3.0))
                g = det.recorded(wigner_cov(state), "hom")
                g = (g.g11, g.g12, g.g22)
                got = benchmark._expected_hom_rows([g], m, 10_000, offsets)[0]
                assert got == pytest.approx(all_angles(g, m, 10_000, offsets), rel=1e-12), (m, lam)

    def test_two_offsets_give_the_offset_mean(self):
        # As a function of the protocol offset delta the inverse Fisher trace
        # holds only the harmonics 0 and 1 of 2 d delta, d the angles distinct
        # mod pi, so its mean over the two offsets of _hom_offsets, pi/(2d)
        # apart, is the mean over a uniform offset: here over 4096 midpoints
        # of the period pi/d, on unrotated and rotated states up to lambda 1e6
        rng = np.random.default_rng(27)
        dets = (DET1, DetectionModel(0.85, CovMat(0.05, 0.01, 0.08)))
        for m in (3, 5, 6, 7, 10, 12, 24, 59, 100, 301):
            d = benchmark._distinct_mod_pi(m)
            two = benchmark._hom_offsets(m)
            assert two.size == 2 and two[1] - two[0] == pytest.approx(math.pi / (2 * d), rel=1e-15)
            dense = (np.arange(4096) + 0.5) * (math.pi / d / 4096)
            for det in dets:
                states = [StateSpec(10 ** rng.uniform(-2.0, 3.0), 10 ** rng.uniform(0.0, 6.0),
                                    rng.uniform(0.0, math.pi) if i else 0.0) for i in range(4)]
                _, g = benchmark._scaled_records(states, det)["hom"]
                got = benchmark._expected_hom_rows(g, m, 10_000, two)
                want = benchmark._expected_hom_rows(g, m, 10_000, dense)
                assert np.all(np.abs(got - want) <= 5e-14 * want), (m, det)

    def test_two_offsets_match_the_50_digit_offset_means(self):
        noisy = DetectionModel(0.85, CovMat(0.05, 0.01, 0.08))
        for mu, lam, phi, m, gelec, c0 in _OFFSET_MEANS:
            state, n = StateSpec(mu, lam, phi), benchmark._GAMMA_EVENTS
            got = expected_hom_hs_error(state, noisy if gelec else DET1, m, n) * n
            assert got == pytest.approx(c0, rel=1e-13), (mu, lam, phi, m)

    def test_each_row_gets_its_one_row_bits(self):
        # unrotated and rotated rows, and rows whose g_elec rotates them, in one
        # call on the two offsets: each row gets the bits of a call of its own
        det = DetectionModel(0.85, CovMat(0.01, 0.0, 0.01))
        skew = DetectionModel(0.85, CovMat(0.01, 0.002, 0.01))
        mus, lams = np.geomspace(1e-3, 1e150, 7), np.geomspace(1.0, 1e4, 5)
        flat = [StateSpec(mu, lam) for mu in mus for lam in lams]
        rotated = [StateSpec(mu, lam, 0.7) for mu in mus for lam in lams[1:]]
        for m in (3, 5, 7, 10, 100):
            offsets = benchmark._hom_offsets(m)
            _, g_flat = benchmark._scaled_records(flat, det)["hom"]
            _, g_rot = benchmark._scaled_records(rotated, det)["hom"]
            _, g_skew = benchmark._scaled_records(flat, skew)["hom"]
            assert np.all(g_flat[:, 1] == 0.0) and np.all(g_skew[:, 1] != 0.0)
            g = np.concatenate([g_rot[:9], g_flat, g_rot[9:], g_skew])
            mixed = benchmark._expected_hom_rows(g, m, 10_000, offsets)
            alone = [benchmark._expected_hom_rows(row[None], m, 10_000, offsets)[0] for row in g]
            assert np.all(np.isfinite(mixed)), m
            assert mixed.tolist() == alone, m
            # the scalar entries are the one-row views of the array paths
            k, g_flat = benchmark._scaled_records(flat[::4], det)["hom"]
            views = np.ldexp(benchmark._expected_hom_rows(g_flat, m, 10_000, offsets), 2 * k)
            assert [expected_hom_hs_error(x, det, m, 10_000) for x in flat[::4]] == views.tolist()
            both = flat[::4] + rotated[::4]
            gammas = benchmark._analytic_gammas(both, det, m)
            assert [gamma_analytic(x, det, m) for x in both] == gammas, m

    def test_errors_beyond_the_float_range_read_inf(self):
        # both errors grow as mu^2: at mu 1e200 they are 1e400 over n
        bright = StateSpec(1e200, 1.0)
        assert expected_het_hs_error(bright, DET1, 1000) == math.inf
        assert expected_hom_hs_error(bright, DET1, 5, 1000) == math.inf
        assert expected_het_hs_error(StateSpec(1e100, 1.0), DET1, 1000) == pytest.approx(6e197)

    def test_hom_iso_closed_form(self):
        # isotropic states: expected HS error is 20 sigma^4 / n for any m >= 3
        for mu in (1.0, 2.0, 5.0):
            state = StateSpec(mu, 1.0)
            sigma2 = mu
            for m in (5, 10, 15):
                got = expected_hom_hs_error(state, DET1, m, 10_000)
                assert got == pytest.approx(20.0 * sigma2**2 / 10_000, rel=1e-9)

    def test_hom_offset_average_close_to_single_offset(self):
        state = StateSpec(6.44, 11.61)
        avg = expected_hom_hs_error(state, DET1, 10, 10_000)
        at0 = hom_error_at(state, DET1, 10, 10_000, 0.0)
        assert avg == pytest.approx(at0, rel=0.2)


class TestGammaAnalytic:
    def test_vacuum_ratio(self):
        for eta in (1.0, 0.7):
            for m in (5, 10, 15):
                got = gamma_analytic(VAC, DetectionModel(eta), m)
                assert got == pytest.approx(1.2, rel=1e-9)

    def test_isotropic_formula(self):
        # gamma = 6 (mu + 1)^2 / (20 mu^2) for lambda = 1, eta = 1
        for mu in (1.5, 5.0, 38.4):
            want = 6.0 * (mu + 1.0) ** 2 / (20.0 * mu * mu)
            assert gamma_analytic(StateSpec(mu, 1.0), DET1, 10) == pytest.approx(want, rel=1e-9)

    def test_limit_is_point_three(self):
        assert gamma_analytic(StateSpec(1e6, 1.0), DET1, 10) == pytest.approx(0.3, rel=1e-4)

    def test_failing_states_give_nan(self):
        # a recorded covariance beyond the float range, then a gamma beyond
        # it: at eta 1 the homodyne error of mu 1e-300 is 1e-600 that of
        # the heterodyne one
        assert math.isnan(gamma_analytic(StateSpec(1e300, 1e10), DET1, 5))
        assert math.isnan(gamma_analytic(StateSpec(1e-300, 1.0), DET1, 5))

    def test_two_angles_mod_pi_raise(self):
        with pytest.raises(SingularMatrix):
            gamma_analytic(VAC, DET1, 4)


class TestGammaMap:
    def test_analytic_map(self):
        rows = gamma_map(
            np.array([1.0, 2.0]), np.array([1.0, 3.0]), DET1, analytic=True, seed=0
        )
        assert len(rows) == 4
        cell = {(r["mu"], r["lambda"]): r["gamma"] for r in rows}
        assert cell[(1.0, 1.0)] == pytest.approx(1.2, rel=1e-9)

    def test_analytic_map_matches_per_cell_gamma(self):
        # The map stacks its cells into Fisher blocks; every cell must equal the
        # scalar gamma_analytic bit for bit, and be NaN where that call raises.
        # 37 cells per map: at m = 15, blocks of 17, 17 and 3 cells.
        # mu = 1e150 at lambda 1e-4 or 1e4 has a Fisher stack whose det
        # underflows and whose inverse meets an exact zero pivot at m = 3.
        mus = np.append(np.geomspace(1e-300, 1e200, 36), 1e150)
        dets = (DET1, DetectionModel(0.85, CovMat(0.01, 0.0, 0.01)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for det in dets:
                for m in (3, 5, 10, 15):
                    for lam in (1e-5, 1e-4, 1.0, 1e4, 1e5):
                        rows = gamma_map(mus, [lam], det, angle_count=m, analytic=True)
                        assert [(r["mu"], r["lambda"]) for r in rows] == [(mu, lam) for mu in mus]
                        for row in rows:
                            try:
                                want = gamma_analytic(StateSpec(row["mu"], lam), det, m)
                            except (GaussTomoError, ValueError, OverflowError):
                                want = math.nan
                            if math.isnan(want):
                                assert math.isnan(row["gamma"])
                            else:
                                assert row["gamma"] == want

    def test_analytic_blocks_stay_under_the_entry_budget(self, monkeypatch):
        # the designs are factored on the angles distinct mod pi, in blocks of
        # whole cells and at most _BLOCK_ENTRIES entries; a cell larger than
        # that is a block of its own.  A block is an (angles, cells, offsets)
        # grid: below _SLAB_ANGLES angles its angle axis is outermost in memory,
        # so qr_rows sums over the angles as slab adds; from there on it is
        # contiguous, summed pairwise.
        shapes = []
        qr = benchmark._kernels.qr_rows

        def counted(var, *args):
            shapes.append(var.shape)
            slabs = var.shape[0] < benchmark._kernels._SLAB_ANGLES
            assert var.shape[-1] == 1 or (var.strides[0] > var.strides[-1]) == slabs, var.strides
            return qr(var, *args)

        monkeypatch.setattr(benchmark._kernels, "qr_rows", counted)
        # 101 angles: a block holds 81 of the 144 cells
        offsets = benchmark._hom_offsets(101).size
        gamma_map(np.linspace(0.5, 4.0, 12), np.linspace(1.0, 8.0, 12), DET1, angle_count=101,
                  analytic=True)
        assert sum(shape[1] for shape in shapes) == 144
        assert all((shape[0], shape[2]) == (101, offsets) for shape in shapes)
        assert 1 < len(shapes) and max(math.prod(x) for x in shapes) <= benchmark._BLOCK_ENTRIES
        shapes.clear()
        # a cell's grid exceeds the budget at this m, so each cell is a block of its own
        m = 2 * (benchmark._BLOCK_ENTRIES // offsets + 1)
        assert benchmark._hom_offsets(m).size == offsets
        rows = gamma_map([1.0, 2.0, 3.0], [1.0], DET1, angle_count=m, analytic=True)
        assert shapes == [(m // 2, 1, offsets)] * 3
        assert sum(shape[1] * shape[2] for shape in shapes) == 3 * offsets
        assert min(math.prod(x) for x in shapes) > benchmark._BLOCK_ENTRIES
        assert all(math.isfinite(row["gamma"]) for row in rows)

    def test_empirical_map_needs_30_reps(self):
        with pytest.raises(ConfigError):
            gamma_map(np.array([1.0]), np.array([1.0]), DET1, repetitions=10, seed=0)

    def test_empirical_map_runs(self):
        rows = gamma_map(
            np.array([1.0]),
            np.array([1.0]),
            DET1,
            n_events=600,
            angle_count=5,
            repetitions=40,
            seed=5,
        )
        assert len(rows) == 1
        assert 0.5 < rows[0]["gamma"] < 2.5
