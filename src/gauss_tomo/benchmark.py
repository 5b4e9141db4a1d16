"""Monte Carlo accuracy benchmarking of the two detection schemes.

For every (repetition, sample size N, angle count m) the benchmark
reconstructs a homodyne record of N events (N/m per angle, random
protocol offset) and a heterodyne record of N pairs, and scores each by
Hilbert-Schmidt distance against a reference covariance.  gamma(N, m)
is the ratio of the mean heterodyne distance to the mean homodyne
distance; gamma < 1 means heterodyne reconstructs more accurately.

The estimators see a record only through its sufficient statistics, so
no events are drawn: a homodyne repetition draws its m per-angle
variances sigma^2 chi2_n / n, a heterodyne one its sample covariance
from Wishart(N, Sigma) / N.  Each cell, (N, m) homodyne or N
heterodyne, derives its own generator from (root seed, cell index) and
draws all its repetitions from it.  One block runner, _run_cells, serves
every Monte Carlo cell: the homodyne repetitions of all cells in a block
that share (detection model, m) are the rows of one call to the row
estimator core, the heterodyne ones of another, and all rows are scored
as one array.  The cores give each row the result it would get alone, so
reports are bit-identical for any blocking and any worker count; blocks
hold at most _BLOCK_ROWS repetitions, which bounds the memory.

Each gamma method has one evaluator.  _mc_gammas serves Monte Carlo
gamma-map points and crossover probes: a point draws a child seed from
the root seed (sampling._child_seed) and runs the two cells of a
one-cell exact-truth benchmark there.  _analytic_gammas serves analytic
map cells and gamma_analytic: its homodyne core, _expected_hom_rows,
evaluates the expected error of many states that share an angle count at
once, from the QR factor of each protocol offset's whitened design on the
angles distinct mod pi (_kernels.qr_rows, the factor the homodyne fits
solve on), each state getting the bits it gets alone.  Its grids are
laid out by the one layout rule of the _kernels docstring.  Two offsets
give the exact mean over a uniform random offset (expected_hom_hs_error).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__, _kernels
from .core import CovMat, DetectionModel, StateSpec, hs_distance, wigner_cov
from .errors import ConfigError, GaussTomoError, SingularMatrix
from .estimation import _fit_het_rows, _fit_hom_rows, estimate_from_variances
from .sampling import (
    _DOM_CROSSOVER, _DOM_MAP_CELL, _DOM_REF_HET, _DOM_REF_HOM, _DOM_UNIT_HET, _DOM_UNIT_HOM,
    TWO_PI, _child_seed, _rng, draw_heterodyne_covs, draw_homodyne_variances,
)

GAMMA_MIN_REPS = 30
REFERENCE_ANGLES = 100  # angles of the estimated homodyne reference
_BLOCK_ENTRIES = 1 << 14  # design entries per _expected_hom_rows block, unless one cell has more
_BLOCK_ROWS = 2048  # repetitions per block of _run_cells: bounds the rows its fits hold at once
_GAMMA_EVENTS = 1_000_000  # event budget of gamma_analytic; cancels in the ratio


def _distinct_mod_pi(m: int) -> int:
    # equally spaced over [0, 2*pi): even m folds onto m/2 angles mod pi
    return m // 2 if m % 2 == 0 else m


def _check_angle_count(m: int) -> None:
    if _distinct_mod_pi(m) < 3:
        raise ConfigError(
            f"angle count {m} gives {_distinct_mod_pi(m)} angles distinct mod pi; need >= 3"
        )


def _check_split(n: int, m: int) -> None:
    # n events spread evenly over m angles, at least 2 per angle
    if n % m != 0:
        raise ConfigError(f"sample size {n} not divisible by angle count {m}")
    if n // m < 2:
        raise ConfigError(f"sample size {n} leaves < 2 events per angle at m={m}")


def _check_gamma_reps(repetitions: int) -> None:
    if repetitions < GAMMA_MIN_REPS:
        raise ConfigError(
            f"empirical gamma needs >= {GAMMA_MIN_REPS} repetitions, got {repetitions}"
        )


@dataclass(frozen=True)
class BenchmarkConfig:
    state: StateSpec
    det: DetectionModel
    sample_sizes: tuple
    angle_counts: tuple
    repetitions: int
    seed: int
    reference_size: int = 0
    exact_truth: bool = False

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sample_sizes)
        counts = tuple(int(m) for m in self.angle_counts)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "angle_counts", counts)
        if not sizes:
            raise ConfigError("sample_sizes must be non-empty")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError(f"sample_sizes must be strictly increasing, got {sizes}")
        if not counts:
            raise ConfigError("angle_counts must be non-empty")
        for m in counts:
            _check_angle_count(m)
            for n in sizes:
                _check_split(n, m)
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if int(self.seed) < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not self.exact_truth and self.reference_size < 100 * max(sizes):
            raise ConfigError(
                f"reference_size {self.reference_size} must be >= 100x the largest "
                f"sample size {max(sizes)} (or use exact_truth)"
            )

    def to_dict(self) -> dict:
        return {
            "state": {
                "mu": self.state.mu,
                "lambda": self.state.lam,
                "orientation": self.state.orientation,
            },
            "det": self.det.to_dict(),
            "sample_sizes": list(self.sample_sizes),
            "angle_counts": list(self.angle_counts),
            "repetitions": self.repetitions,
            "seed": int(self.seed),
            "reference_size": self.reference_size,
            "exact_truth": self.exact_truth,
            "reference_angle_count": REFERENCE_ANGLES,
        }


@dataclass(frozen=True)
class CellStats:
    mean: float
    stderr: float
    used: int
    failed: int


@dataclass(frozen=True)
class BenchmarkReport:
    config: BenchmarkConfig
    hom: dict  # (N, m) -> CellStats
    het: dict  # N -> CellStats
    gamma: dict  # (N, m) -> (value, stderr), NaN when unavailable
    gamma_analytic: dict  # m -> value (NaN on failure)
    reference: dict  # scheme -> [g11, g12, g22]
    versions: dict

    def to_dict(self) -> dict:
        def row(scheme, n, m, st):
            return {"scheme": scheme, "N": n, "m": m, "dhs_mean": st.mean,
                    "dhs_stderr": st.stderr, "reps_used": st.used, "failures": st.failed}

        return {
            "config": self.config.to_dict(),
            "versions": self.versions,
            "reference": self.reference,
            "results": [row("hom", n, m, st) for (n, m), st in sorted(self.hom.items())]
            + [row("het", n, None, st) for n, st in sorted(self.het.items())],
            "gamma": [
                {"N": n, "m": m, "gamma": g, "gamma_stderr": se}
                for (n, m), (g, se) in sorted(self.gamma.items())
            ],
            "gamma_analytic": {str(m): v for m, v in sorted(self.gamma_analytic.items())},
        }


def _references(cfg: BenchmarkConfig) -> tuple:
    """(homodyne, heterodyne) reference covariances the cells are scored against.

    With exact_truth both are the analytic Wigner covariance.  Otherwise
    each scheme draws the statistics of a reference_size-event record
    (homodyne: REFERENCE_ANGLES equally spaced angles) from their exact
    laws, fits them with its own estimator and uses that estimate as the
    truth proxy.
    """
    g_w, det, n = wigner_cov(cfg.state), cfg.det, cfg.reference_size
    if cfg.exact_truth:
        return g_w, g_w
    rng = _rng(_child_seed(cfg.seed, _DOM_REF_HOM, 0))
    angles = np.arange(REFERENCE_ANGLES) * (TWO_PI / REFERENCE_ANGLES)
    n_per = n // REFERENCE_ANGLES
    v = draw_homodyne_variances(g_w, det, angles, n_per, rng)
    counts = np.full(REFERENCE_ANGLES, n_per, dtype=float)
    hom = estimate_from_variances(angles, v, counts, det, method="ml").g_w_hat
    rng = _rng(_child_seed(cfg.seed, _DOM_REF_HET, 0))
    het = _fit_het_rows(draw_heterodyne_covs(g_w, det, n, 1, rng), n, det)[0][0]
    return hom, CovMat(*het.tolist())


def _run_cells(cells: list) -> list:
    """All repetitions of each cell (g_w, det, n, m, reps, seed, key, ref):
    (n, m) homodyne, or n heterodyne when m = 0.

    Each cell draws from its own _rng(seed, *key), in cell order.  The
    homodyne rows of all cells that share (det, m) are fitted in one
    _fit_hom_rows call, the heterodyne rows of all cells that share det in
    one _fit_het_rows call, and all rows are scored against their cell's
    ref in one hs_distance call.  Every row gets the bits it gets when
    fitted alone, so a cell's result does not depend on the other cells.
    Returns one distance array per cell, NaN where the fit failed or did
    not converge.  A bright state's inf and NaN values end there or in the
    distance, without numpy warnings.
    """
    bounds = np.cumsum([0] + [cell[4] for cell in cells])
    draws, groups = [], {}
    cov = np.empty((bounds[-1], 3))
    ok = np.ones(bounds[-1], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (g_w, det, n, m, reps, seed, key, _) in enumerate(cells):
            rng = _rng(seed, *key)
            if m:
                angles = rng.uniform(0.0, TWO_PI / m, (reps, 1)) + np.arange(m) * (TWO_PI / m)
                v = draw_homodyne_variances(g_w, det, angles, n // m, rng)
                draws.append((angles, v, np.full((reps, m), n // m, dtype=float)))
            else:
                draws.append((draw_heterodyne_covs(g_w, det, n, reps, rng), np.full(reps, n)))
            groups.setdefault((det, m), []).append(i)
        for (det, m), idx in groups.items():
            rows = np.concatenate([np.arange(bounds[i], bounds[i + 1]) for i in idx])
            stacked = [np.concatenate(x) for x in zip(*(draws[i] for i in idx))]
            if m:
                fit = _fit_hom_rows(*stacked, det, "ml")
                cov[rows], ok[rows] = fit.cov, fit.converged
            else:
                cov[rows] = _fit_het_rows(*stacked, det)[0]
        refs = np.repeat([[c[7].g11, c[7].g12, c[7].g22] for c in cells], np.diff(bounds), axis=0)
        dhs = hs_distance(CovMat(*cov.T), CovMat(*refs.T))
    return np.split(np.where(ok, dhs, math.nan), bounds[1:-1])


def _aggregate(values: np.ndarray) -> CellStats:
    values = np.asarray(values, dtype=float)
    arr = values[~np.isnan(values)]
    failed = values.size - arr.size
    if not arr.size:
        return CellStats(math.nan, math.nan, 0, failed)
    # the std of arr / 2^k, times 2^k: the same bits, but the squared
    # deviations of a bright state's distances no longer overflow
    k = np.frexp(np.max(arr))[1]
    with np.errstate(invalid="ignore", over="ignore"):  # a bright state's distances overflow
        mean = float(np.mean(arr))
        std = np.ldexp(np.std(np.ldexp(arr, -k), ddof=1), k) if arr.size > 1 else math.nan
    return CellStats(mean, float(std / math.sqrt(arr.size)), arr.size, failed)


def _gamma(hom: CellStats, het: CellStats) -> tuple:
    """(gamma, stderr) of a homodyne and a heterodyne cell; NaN below
    GAMMA_MIN_REPS usable repetitions or when the homodyne mean is not > 0."""
    if hom.used >= GAMMA_MIN_REPS and het.used >= GAMMA_MIN_REPS and hom.mean > 0.0:
        value = het.mean / hom.mean
        rel = math.hypot(het.stderr / het.mean, hom.stderr / hom.mean)
        return value, value * rel
    return math.nan, math.nan


def _versions() -> dict:
    return {"artifact": __version__, "numpy": np.__version__}


def _blocks(cells: list, parts: int) -> list:
    """cells cut into contiguous blocks of at most _BLOCK_ROWS repetitions,
    and of at most 1/parts of all repetitions, so that parts processes all
    get work; a cell larger than that is a block of its own."""
    cap = min(_BLOCK_ROWS, -(-sum(cell[4] for cell in cells) // parts))
    blocks, rows = [], cap
    for cell in cells:
        if rows + cell[4] > cap:
            blocks.append([])
            rows = 0
        blocks[-1].append(cell)
        rows += cell[4]
    return blocks


def _map_cells(cells: list, workers: int) -> list:
    """[_run_cells([cell])[0] for cell in cells], computed block by block
    (_blocks), on a process pool when workers > 1.  The pool gets at most
    one process per block and per CPU: every result depends only on its
    cell, never on the blocks or the worker count."""
    workers = max(1, min(workers, os.cpu_count() or 1))
    blocks = _blocks(cells, workers)
    workers = min(workers, len(blocks))
    if workers <= 1:
        return [dhs for block in blocks for dhs in _run_cells(block)]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: imported on use

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [dhs for done in pool.map(_run_cells, blocks) for dhs in done]


def _mc_gammas(points: list, det: DetectionModel, n: int, m: int, reps: int, seed: int,
               workers: int = 1) -> list:
    """Monte Carlo gamma of each (state, key) point: _gamma of the two cells
    of a one-cell (n, m) exact-truth benchmark run at the child seed
    (seed, *key).  All cells of all points go through one _map_cells call."""
    cells = []
    for state, key in points:
        g_w, point_seed = wigner_cov(state), _child_seed(seed, *key)
        cells += [
            (g_w, det, n, m, reps, point_seed, (_DOM_UNIT_HOM, 0, 0), g_w),
            (g_w, det, n, 0, reps, point_seed, (_DOM_UNIT_HET, 0), g_w),
        ]
    dhs = _map_cells(cells, workers)
    return [_gamma(_aggregate(hom), _aggregate(het))[0] for hom, het in zip(dhs[::2], dhs[1::2])]


def run_benchmark(cfg: BenchmarkConfig, workers: int = 1) -> BenchmarkReport:
    """Execute the full benchmark described by cfg.

    workers > 1 spreads the independent cells over a process pool; the
    per-cell seeding keeps the report identical for any worker count.
    """
    ref_hom, ref_het = _references(cfg)
    g_w, det, reps, seed = wigner_cov(cfg.state), cfg.det, cfg.repetitions, int(cfg.seed)
    cells = {}
    for i_n, n in enumerate(cfg.sample_sizes):
        for i_m, m in enumerate(cfg.angle_counts):
            cells[(n, m)] = (g_w, det, n, m, reps, seed, (_DOM_UNIT_HOM, i_n, i_m), ref_hom)
        cells[n] = (g_w, det, n, 0, reps, seed, (_DOM_UNIT_HET, i_n), ref_het)
    dhs = _map_cells(list(cells.values()), workers)
    stats = {key: _aggregate(d) for key, d in zip(cells, dhs)}
    het_stats = {n: stats.pop(n) for n in cfg.sample_sizes}
    gamma = {(n, m): _gamma(st, het_stats[n]) for (n, m), st in stats.items()}

    gamma_an = {m: gamma_analytic(cfg.state, cfg.det, m) for m in cfg.angle_counts}
    reference = {
        "hom": [ref_hom.g11, ref_hom.g12, ref_hom.g22],
        "het": [ref_het.g11, ref_het.g12, ref_het.g22],
    }
    return BenchmarkReport(
        cfg, stats, het_stats, gamma, gamma_an, reference, _versions()
    )


def _scaled_records(states: list, det: DetectionModel) -> dict:
    """scheme -> (k, rows): each state's recorded covariance, an (S, 3) row
    (g11, g12, g22), times 2^-k, k the exponent of its larger variance.  Both
    expected errors are of degree 2 in it, so each changes by exactly 2^-2k,
    while every entry is at most 1 and neither error overflows."""
    g_w = np.reshape([(g.g11, g.g12, g.g22) for g in map(wigner_cov, states)], (-1, 3))
    records = {}
    for scheme in ("het", "hom"):
        g = det.recorded(CovMat(*g_w.T), scheme)
        k = np.frexp(np.maximum(g.g11, g.g22))[1]
        records[scheme] = k, np.ldexp(np.stack([g.g11, g.g12, g.g22], axis=-1), -k[:, None])
    return records


def _het_error(sigma: np.ndarray, n_pairs: int) -> np.ndarray:
    # E[D_HS] of the n_pairs-draw sample covariance of each row of sigma (expected_het_hs_error)
    g = CovMat(*sigma.T)
    return 2.0 * (g.trace * g.trace - g.det) / n_pairs


def expected_het_hs_error(state: StateSpec, det: DetectionModel, n_pairs: int) -> float:
    """Exact E[D_HS] of the heterodyne sample-covariance estimator.

    For the known-zero-mean sample covariance S of n draws from Sigma,
    Cov(S_ij, S_kl) = (Sigma_ik Sigma_jl + Sigma_il Sigma_jk)/n, which
    sums to E[D_HS] = (2/n) (Tr(Sigma)^2 - det(Sigma)).  Exact at every
    n, not just asymptotically.  The one-row view of _scaled_records:
    evaluated on Sigma scaled by 2^-k and multiplied back by 2^2k, so an
    error beyond the float range reads inf, as in expected_hom_hs_error.
    """
    k, sigma = _scaled_records([state], det)["het"]
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.ldexp(_het_error(sigma, n_pairs), 2 * k)[0])


def _hom_offsets(m: int) -> np.ndarray:
    # pi/(4d) and 3pi/(4d): two protocol offsets pi/(2d) apart, whose mean
    # is the uniform-offset mean (expected_hom_hs_error)
    return np.array([0.25, 0.75]) * (math.pi / _distinct_mod_pi(m))


def _expected_hom_rows(g_noisy, m: int, n_events: int, offsets: np.ndarray) -> np.ndarray:
    """Asymptotic E[D_HS] of the homodyne ML estimator for C cells at once.

    g_noisy is a (C, 3) array of noisy homodyne covariances (g11, g12,
    g22); every cell shares the angle count m, the event budget and the
    protocol offsets.  Returns the (C,) values, each the mean over offsets
    of the weighted trace of the inverse Fisher information (see
    expected_hom_hs_error), and NaN where that information is singular.
    An m with fewer than 3 angles distinct mod pi raises SingularMatrix.

    Each (cell, offset) is one problem of _kernels.qr_rows: the whitened
    design sqrt(n_theta/2)/sigma_theta^2 (1, cos 2theta, sin 2theta) of
    the model parameters a = ((g11 + g22)/2, (g11 - g22)/2, g12), whose
    Gram matrix R^T R is the Fisher information of a.  For even m, theta +
    pi has the variance and design row of theta, so the design holds only
    the d = _distinct_mod_pi(m) angles offset + j 2pi/m, j < d, each with
    n_theta = n_events/d.  Since (g11, g12, g22) = T a with T^T H T = 2 I
    for the HS weights H = diag(1, 2, 1), the weighted trace of the inverse
    Fisher information of g is 2 ||R^-1||_F^2, read from the closed-form
    inverse of the 3x3 triangle.

    All offsets form one (d, 1, offsets) grid, laid out by
    _kernels.angle_major under the layout rule of the _kernels docstring,
    and the cells are taken in blocks of at most _BLOCK_ENTRIES design
    entries, or of one cell where a cell alone has more.  Every operation
    is elementwise or a sum over the angles of one problem, and the layout
    depends on m alone, so a cell's value does not depend on the other
    cells, and g times 2^k gives exactly 2^2k times the value.
    """
    d = _distinct_mod_pi(m)
    if d < 3:
        raise SingularMatrix(f"angle count {m} cannot identify three covariance entries")
    g = np.asarray(g_noisy, dtype=float).reshape(-1, 3)
    hs = np.empty((len(g), offsets.size))  # per (cell, offset), NaN where not ok
    th = _kernels.angle_major(np.arange(d)[:, None] * (TWO_PI / m) + offsets)[:, None]
    c, s, c2, s2 = np.cos(th), np.sin(th), np.cos(2.0 * th), np.sin(2.0 * th)
    cells = max(1, _BLOCK_ENTRIES // th.size)
    for lo in range(0, len(g), cells):
        g11, g12, g22 = (col[:, None] for col in g[lo : lo + cells].T)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sig2 = g11 * c * c + 2.0 * g12 * c * s + g22 * s * s  # core.marginal_variance
            sig2 = _kernels.angle_major(sig2)  # (d, cells, offsets)
            _, _, r, k, ok = _kernels.qr_rows(sig2, n_events / d, c2, s2)
            r00, r01, r02, r11, r12, r22 = r
            # columns of R^-1 by back substitution: 1/r00; (y0, y1); (x0, x1, x2)
            y1 = 1.0 / r11
            y0 = -r01 * y1 / r00
            x2 = 1.0 / r22
            x1 = -r12 * x2 / r11
            x0 = -(r01 * x1 + r02 * x2) / r00
            h = 2.0 * (1.0 / r00**2 + y0**2 + y1**2 + x0**2 + x1**2 + x2**2)
            hs[lo : lo + cells] = np.where(ok, np.ldexp(h, 2 * k), math.nan)
    with np.errstate(over="ignore"):
        return np.sum(hs, axis=-1) / offsets.size


def expected_hom_hs_error(
    state: StateSpec, det: DetectionModel, angle_count: int, n_events: int
) -> float:
    """Asymptotic E[D_HS] of the homodyne ML estimator.

    Inverse Fisher information of (g11, g12, g22) under the per-angle
    variance statistics: each angle contributes (n_theta / (2 sigma_theta^4))
    u u^T with u = (cos^2, sin 2theta, sin^2).  E[D_HS] is the weighted
    trace of the inverse, averaged over a uniform random protocol offset
    delta, as the benchmark draws it.  That trace holds only the harmonics 0
    and 1 of 2 d delta (d = _distinct_mod_pi(m)), so its mean over the two
    offsets of _hom_offsets, pi/(2d) apart, is the exact offset mean
    (tests/test_benchmark.py: 4096-offset and 50-digit means).  The one-row
    view of _scaled_records and _expected_hom_rows, on the recorded
    covariance scaled by 2^-k and multiplied back by 2^2k: a singular Fisher
    information raises SingularMatrix, and an error beyond the float range
    reads inf.
    """
    m = int(angle_count)
    k, g = _scaled_records([state], det)["hom"]
    value = _expected_hom_rows(g, m, n_events, _hom_offsets(m))
    if np.isnan(value[0]):
        raise SingularMatrix("Fisher information is singular for this protocol")
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, 2 * k)[0])


def _analytic_gammas(states: list, det: DetectionModel, m: int) -> list:
    """gamma_analytic of each state, as arrays over the states: the
    heterodyne and homodyne errors of the scaled recorded covariances
    (_scaled_records), the homodyne side in one _expected_hom_rows call on
    _hom_offsets, and their ratio times 2^2(k_het - k_hom).  A state gets NaN
    where its Fisher information is singular, its recorded covariance is not
    finite or its gamma lies beyond the float range; a protocol with fewer
    than 3 angles distinct mod pi raises SingularMatrix."""
    records = _scaled_records(states, det)
    (k_het, sigma), (k_hom, g) = records["het"], records["hom"]
    hom = _expected_hom_rows(g, m, _GAMMA_EVENTS, _hom_offsets(m))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gammas = np.ldexp(_het_error(sigma, _GAMMA_EVENTS) / hom, 2 * (k_het - k_hom))
    return np.where(np.isfinite(gammas), gammas, math.nan).tolist()


def gamma_analytic(state: StateSpec, det: DetectionModel, angle_count: int) -> float:
    """Asymptotic gamma: expected heterodyne HS error over homodyne's.

    Independent of the event budget (both errors scale as 1/N); the
    homodyne side is averaged over the protocol offset, exactly, on the
    two offsets of _hom_offsets (expected_hom_hs_error).  For
    isotropic states at eta=1 this reduces to 6 (mu+1)^2 / (20 mu^2): 1.2
    at the vacuum, crossing 1 near mu = 1.211, tending to 0.3 for bright
    thermal states.  The one-state view of _analytic_gammas: NaN where the
    state fails numerically (a singular Fisher information, or a recorded
    covariance or a gamma beyond the float range), SingularMatrix for a
    protocol with fewer than 3 angles distinct mod pi.
    """
    return _analytic_gammas([state], det, int(angle_count))[0]


def gamma_map(
    mu_values,
    lam_values,
    det: DetectionModel,
    n_events: int = 10_000,
    angle_count: int = 10,
    repetitions: int = 200,
    seed: int = 0,
    analytic: bool = False,
    workers: int = 1,
) -> list:
    """Evaluate gamma over the (mu, lambda) grid.

    Returns plot-ready rows {mu, lambda, gamma}; a point that StateSpec
    rejects or whose evaluation fails numerically carries gamma = NaN.  A
    protocol that no point can use raises ConfigError before any point
    runs.  The grid is walked once and its valid points go to one evaluator
    call: _analytic_gammas in this process, whatever workers says, or
    _mc_gammas with key (_DOM_MAP_CELL, i, j), whose cells run on up to
    workers processes.
    """
    mu_values = [float(v) for v in mu_values]
    lam_values = [float(v) for v in lam_values]
    n, m, reps, seed = int(n_events), int(angle_count), int(repetitions), int(seed)
    _check_angle_count(m)
    if not analytic:
        _check_split(n, m)
        _check_gamma_reps(reps)
    rows, live, points = [], [], []
    for i, mu in enumerate(mu_values):
        for j, lam in enumerate(lam_values):
            rows.append({"mu": mu, "lambda": lam, "gamma": math.nan})
            try:
                points.append((StateSpec(mu, lam), (_DOM_MAP_CELL, i, j)))
            except ValueError:
                continue
            live.append(rows[-1])
    if analytic:
        gammas = _analytic_gammas([state for state, _ in points], det, m)
    else:
        gammas = _mc_gammas(points, det, n, m, reps, seed, workers)
    for row, gamma in zip(live, gammas):
        row["gamma"] = gamma
    return rows


def find_isotropic_crossover(
    det: DetectionModel,
    n_events: int = 10_000,
    angle_count: int = 10,
    repetitions: int = 3000,
    seed: int = 0,
) -> float:
    """Bisect for the isotropic mu where empirical gamma crosses 1.

    gamma decreases monotonically in mu for lambda = 1, from 1.2 at the
    vacuum toward 0.3; the crossover sits near mu = 1.21.  The bracket
    [1, 1.5] is bisected 8 times.  Each probe is one _mc_gammas point
    with key (_DOM_CROSSOVER, step), run in this process.  A protocol the
    benchmark rejects raises ConfigError before any probe.
    """
    n, m, reps = int(n_events), int(angle_count), int(repetitions)
    _check_gamma_reps(reps)
    _check_angle_count(m)
    _check_split(n, m)

    def gamma_at(mu: float, step: int) -> float:
        return _mc_gammas([(StateSpec(mu, 1.0), (_DOM_CROSSOVER, step))], det, n, m, reps, seed)[0]

    lo, hi = 1.0, 1.5
    g_lo = gamma_at(lo, 0)
    g_hi = gamma_at(hi, 1)
    if not (g_lo > 1.0 > g_hi):
        raise GaussTomoError(
            f"bracket does not straddle gamma=1: gamma({lo})={g_lo:.4f}, gamma({hi})={g_hi:.4f}"
        )
    for step in range(2, 10):
        mid = 0.5 * (lo + hi)
        if gamma_at(mid, step) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
