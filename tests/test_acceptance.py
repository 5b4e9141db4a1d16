"""End-to-end acceptance checks for the toolkit.

Each test validates one numbered guarantee at a stated tolerance and prints a
single verdict line, so a full run doubles as a compact scoreboard:

    pytest tests/test_acceptance.py -v

Statistical checks use pinned seeds; tolerances include the Monte Carlo
error at the pinned sample sizes.
"""

import math

import numpy as np
import pytest

import gauss_tomo as gt
from gauss_tomo import dataio
from gauss_tomo.cli import main as cli_main

DET1 = gt.DetectionModel(1.0)

# (mu, lambda) reference states: vacuum, two squeezed, two thermal
STATES = {
    "vacuum": gt.StateSpec(1.0, 1.0),
    "strong-sqz": gt.StateSpec(6.44, 11.61),
    "weak-sqz": gt.StateSpec(4.46, 6.49),
    "thermal-bright": gt.StateSpec(38.4, 1.0),
    "thermal-dim": gt.StateSpec(15.0, 1.0),
}


def _verdict(capsys, num, desc, ok, detail=""):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_detection_maps_exact(capsys):
    # het cov minus hom cov is (1/eta) I to machine precision for any state;
    # vacuum marginal is 1/eta and heterodyne conditional is 2/eta
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(101)))
    worst = 0.0
    for _ in range(50):
        spec = gt.StateSpec(
            mu=float(rng.uniform(1.0, 30.0)),
            lam=float(rng.uniform(1.0 / 6.0, 6.0)),
            orientation=float(rng.uniform(0.0, math.pi)),
        )
        g_w = gt.wigner_cov(spec)
        for eta in (1.0, 0.8, 0.5):
            det = gt.DetectionModel(eta)
            hom = gt.to_homodyne_cov(g_w, det)
            het = gt.to_heterodyne_cov(g_w, det)
            step = 1.0 / eta
            worst = max(
                worst,
                abs(het.g11 - hom.g11 - step) / step,
                abs(het.g22 - hom.g22 - step) / step,
                abs(het.g12 - hom.g12) / step,
            )
    vac = gt.wigner_cov(STATES["vacuum"])
    for eta in (1.0, 0.8, 0.5):
        det = gt.DetectionModel(eta)
        hom = gt.to_homodyne_cov(vac, det)
        het = gt.to_heterodyne_cov(vac, det)
        for theta in np.linspace(0.0, math.pi, 13):
            worst = max(
                worst,
                abs(gt.marginal_variance(hom, float(theta)) * eta - 1.0),
                abs(gt.conditional_variance(het, float(theta)) * eta / 2.0 - 1.0),
            )
    ok = worst <= 1e-14
    _verdict(capsys, 1, "detection maps exact, vacuum 1/eta vs 2/eta", ok,
             f"worst rel err {worst:.2e} <= 1e-14")


def test_criterion_02_marginal_dominates_conditional(capsys):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(102)))
    violations = 0
    for _ in range(10_000):
        a = rng.normal(size=(2, 2))
        m = a @ a.T + 1e-6 * np.eye(2)
        g = gt.CovMat(m[0, 0], m[0, 1], m[1, 1])
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        marg = gt.marginal_variance(g, theta)
        cond = gt.conditional_variance(g, theta)
        if marg + 1e-12 * max(1.0, abs(marg)) < cond:
            violations += 1
    ok = violations == 0
    _verdict(capsys, 2, "marginal variance >= conditional variance", ok,
             f"{violations} violations in 10000 random PSD draws")


@pytest.fixture(scope="module")
def full_scale_runs():
    """Simulate and reconstruct all reference states at full scale (eta = 1).

    Homodyne: 1e5 samples per angle over 100 angles.  Heterodyne: 1e7 pairs.
    The strongly squeezed datasets are kept for the dB and thermalization
    checks.
    """
    proto = gt.AngleProtocol(100)
    out = {"params": {}, "datasets": {}}
    seed = 331
    for idx, (name, spec) in enumerate(STATES.items()):
        g_w = gt.wigner_cov(spec)
        d_hom = gt.sample_homodyne(g_w, DET1, proto, 100_000, seed + 2 * idx)
        p_hom = gt.extract_params(gt.estimate(d_hom, DET1).g_w_hat)
        d_het = gt.sample_heterodyne(g_w, DET1, 10_000_000, seed + 2 * idx + 1)
        p_het = gt.extract_params(gt.estimate(d_het, DET1).g_w_hat)
        out["params"][name] = {"hom": p_hom, "het": p_het}
        if name == "strong-sqz":
            out["datasets"] = {"hom": d_hom, "het": d_het, "g_w": g_w}
    return out


def test_criterion_03_parameter_recovery_full_scale(capsys, full_scale_runs):
    worst = 0.0
    for name, spec in STATES.items():
        for scheme in ("hom", "het"):
            est = full_scale_runs["params"][name][scheme]
            worst = max(worst, abs(est.mu / spec.mu - 1.0), abs(est.lam / spec.lam - 1.0))
    ok = worst <= 0.01
    _verdict(capsys, 3, "mu and lambda recovered within 1% for all reference states", ok,
             f"worst rel err {worst:.3%}")


def test_criterion_04_squeezing_db_cross_check(capsys, full_scale_runs):
    sq_true, asq_true = gt.squeezing_db(STATES["strong-sqz"])
    worst = 0.0
    for scheme in ("hom", "het"):
        sq, asq = gt.squeezing_db(full_scale_runs["params"]["strong-sqz"][scheme])
        worst = max(worst, abs(sq - sq_true), abs(asq - asq_true))
    ok = worst <= 0.1
    _verdict(capsys, 4, "squeezing/antisqueezing dB within 0.1 of "
             f"{sq_true:.2f}/{asq_true:.2f}", ok, f"worst abs err {worst:.4f} dB")


def test_criterion_05_thermalization(capsys, full_scale_runs):
    g_w = full_scale_runs["datasets"]["g_w"]
    mean_var = (g_w.g11 + g_w.g22) / 2.0

    d_hom = full_scale_runs["datasets"]["hom"]
    th_hom = gt.thermalize_homodyne(d_hom, seed=777)
    g_hom = gt.estimate(th_hom, DET1).g_w_hat
    lam_hom = gt.extract_params(g_hom).lam
    var_hom = (g_hom.g11 + g_hom.g22) / 2.0
    before = np.sort(np.concatenate([np.asarray(s) for s in d_hom.samples]))
    after = np.sort(np.concatenate([np.asarray(s) for s in th_hom.samples]))
    multiset_ok = bool(np.array_equal(before, after))

    d_het = full_scale_runs["datasets"]["het"]
    th_het = gt.thermalize_heterodyne(d_het, seed=778)
    g_het = gt.estimate(th_het, DET1).g_w_hat
    lam_het = gt.extract_params(g_het).lam
    var_het = (g_het.g11 + g_het.g22) / 2.0
    n0 = np.sort(np.hypot(d_het.pairs[:, 0], d_het.pairs[:, 1]))
    n1 = np.sort(np.hypot(th_het.pairs[:, 0], th_het.pairs[:, 1]))
    norms_ok = bool(np.allclose(n0, n1, rtol=1e-12, atol=0.0))

    ok = (
        0.99 <= lam_hom <= 1.01
        and 0.99 <= lam_het <= 1.01
        and abs(var_hom / mean_var - 1.0) <= 0.01
        and abs(var_het / mean_var - 1.0) <= 0.01
        and multiset_ok
        and norms_ok
    )
    _verdict(capsys, 5, "thermalized data gives isotropic estimate, values preserved", ok,
             f"lam hom {lam_hom:.4f} het {lam_het:.4f}, "
             f"mean-var rel err hom {var_hom / mean_var - 1:+.3%} het {var_het / mean_var - 1:+.3%}, "
             f"multiset {multiset_ok}, norms {norms_ok}")


def _gamma_cell(spec, seed, n=10_000, m=10, reps=200):
    cfg = gt.BenchmarkConfig(
        state=spec, det=DET1, sample_sizes=(n,), angle_counts=(m,),
        repetitions=reps, seed=seed, exact_truth=True,
    )
    rep = gt.run_benchmark(cfg)
    gamma, stderr = rep.gamma[(n, m)]
    return gamma, stderr, rep.gamma_analytic[m]


def test_criterion_06_gamma_sign_structure(capsys):
    seed = 603
    # 3000 reps, as in the crossover probes: at 200 reps the +-0.1 and
    # +-0.05 bounds would be only about 1 and 2 standard errors wide
    g_vac, _, a_vac = _gamma_cell(STATES["vacuum"], seed, reps=3000)
    g_bri, _, a_bri = _gamma_cell(STATES["thermal-bright"], seed + 10, reps=3000)
    g_sq1, _, _ = _gamma_cell(STATES["strong-sqz"], seed + 20)
    g_sq2, _, _ = _gamma_cell(STATES["weak-sqz"], seed + 30)
    # analytic crossover of the isotropic ratio 6(mu+1)^2 / (20 mu^2)
    mu_star = 1.0 / (math.sqrt(10.0 / 3.0) - 1.0)
    mu_hat = gt.find_isotropic_crossover(DET1, repetitions=3000, seed=seed)
    ok = (
        abs(g_vac - a_vac) <= 0.1
        and abs(g_bri - a_bri) <= 0.05
        and g_sq1 < 1.0
        and g_sq2 < 1.0
        and abs(mu_hat - mu_star) <= 0.05
    )
    _verdict(capsys, 6, "gamma sign structure and isotropic crossover", ok,
             f"vacuum {g_vac:.3f} (target {a_vac:.2f}+-0.1), "
             f"bright {g_bri:.3f} (target {a_bri:.2f}+-0.05), "
             f"squeezed {g_sq1:.3f}/{g_sq2:.3f} < 1, "
             f"crossover {mu_hat:.3f} (target {mu_star:.3f}+-0.05)")


def test_criterion_07_scaling_law(capsys):
    sizes = (1_500, 15_000, 150_000)
    ms = (5, 10, 15)
    reports = {}
    for name in ("vacuum", "thermal-dim", "strong-sqz"):
        cfg = gt.BenchmarkConfig(
            state=STATES[name], det=DET1, sample_sizes=sizes, angle_counts=ms,
            repetitions=200, seed=701, exact_truth=True,
        )
        reports[name] = gt.run_benchmark(cfg)

    ratios = []
    for rep in reports.values():
        for lo, hi in ((sizes[0], sizes[1]), (sizes[1], sizes[2])):
            ratios.append(rep.hom[(lo, 10)].mean / rep.hom[(hi, 10)].mean)
            ratios.append(rep.het[lo].mean / rep.het[hi].mean)
    decade_ok = all(7.0 <= r <= 13.0 for r in ratios)

    # isotropic states: error independent of angle count (pairwise z <= 2)
    big = sizes[-1]
    worst_z = 0.0
    for name in ("vacuum", "thermal-dim"):
        cells = {m: reports[name].hom[(big, m)] for m in ms}
        for i, mi in enumerate(ms):
            for mj in ms[i + 1:]:
                diff = abs(cells[mi].mean - cells[mj].mean)
                se = math.hypot(cells[mi].stderr, cells[mj].stderr)
                worst_z = max(worst_z, diff / se)
    iso_ok = worst_z <= 2.0

    # elliptical state: more angles help at the largest budget
    sq = {m: reports["strong-sqz"].hom[(big, m)] for m in (5, 15)}
    order_ok = sq[15].mean < sq[5].mean

    ok = decade_ok and iso_ok and order_ok
    _verdict(capsys, 7, "error drops 10x +-3 per decade, angle-count structure", ok,
             f"decade ratios {min(ratios):.1f}..{max(ratios):.1f} in [7, 13], "
             f"iso worst z {worst_z:.2f} <= 2, "
             f"elliptical D(m=15) {sq[15].mean:.3g} < D(m=5) {sq[5].mean:.3g}")


def test_criterion_08_analytic_vs_monte_carlo_gamma(capsys):
    grid = (1.0, 1.8, 3.2, 5.6, 10.0)
    worst_z = 0.0
    for i, mu in enumerate(grid):
        for j, lam in enumerate(grid):
            gamma, stderr, analytic = _gamma_cell(
                gt.StateSpec(mu, lam), seed=801 + 100 * i + j)
            worst_z = max(worst_z, abs(gamma - analytic) / stderr)
    ok = worst_z <= 3.0
    _verdict(capsys, 8, "analytic gamma matches Monte Carlo on 5x5 grid", ok,
             f"worst |gamma - analytic| / stderr = {worst_z:.2f} <= 3")


def test_criterion_09_gaussianity_battery(capsys):
    root = np.random.SeedSequence(901)
    rejections = 0
    for child in root.spawn(500):
        rng = np.random.Generator(np.random.PCG64(child))
        rep = gt.test_gaussianity(rng.normal(0.4, 1.7, size=2000))
        if rep.ks_pvalue <= 0.05:
            rejections += 1
    rate = rejections / 500.0

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(905)))
    uni = gt.test_gaussianity(rng.uniform(-1.0, 1.0, size=1_000_000))
    gau = gt.test_gaussianity(rng.normal(-2.0, 0.3, size=1_000_000))

    ok = (
        0.03 <= rate <= 0.07
        and not uni.pass_95
        and not uni.pass_99
        and gau.pass_95
        and gau.pass_99
    )
    _verdict(capsys, 9, "false-positive rate 5% +-2%, uniform rejected", ok,
             f"KS rejection rate {rate:.1%} in [3%, 7%], "
             f"uniform pass_95={uni.pass_95}, gaussian pass_95={gau.pass_95}")


def test_criterion_10_determinism(capsys, tmp_path, monkeypatch):
    cfg = gt.BenchmarkConfig(
        state=STATES["weak-sqz"], det=gt.DetectionModel(0.8, gt.CovMat(0.05, 0.0, 0.05)),
        sample_sizes=(600, 3_000), angle_counts=(5, 10),
        repetitions=40, seed=42, exact_truth=True,
    )
    r1 = gt.run_benchmark(cfg)
    r2 = gt.run_benchmark(cfg)
    r3 = gt.run_benchmark(cfg, workers=2)
    r4 = gt.run_benchmark(cfg, workers=3)
    rerun_ok = r1.to_dict() == r2.to_dict()
    workers_ok = (r1.to_dict() == r3.to_dict() == r4.to_dict()
                  and dataio.benchmark_report_csv(r1) == dataio.benchmark_report_csv(r3))

    files = []
    for tag in ("a", "b"):
        run_dir = tmp_path / tag
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert cli_main([
            "simulate", "--state", "weak-sqz", "--scheme", "hom",
            "--angles", "20", "--samples", "500", "--eta", "0.9",
            "--seed", "2024", "--out", "sim.csv",
        ]) == 0
        assert cli_main(["estimate", "sim.csv", "--out", "est.json"]) == 0
        files.append(((run_dir / "sim.csv").read_bytes(),
                      (run_dir / "est.json").read_bytes()))
    cli_ok = files[0] == files[1]

    ok = rerun_ok and workers_ok and cli_ok
    _verdict(capsys, 10, "pipeline bit-reproducible across runs and workers", ok,
             f"rerun {rerun_ok}, workers {workers_ok}, cli files {cli_ok}")
