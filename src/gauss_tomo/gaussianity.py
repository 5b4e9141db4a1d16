"""Goodness-of-fit battery for Gaussianity of sample sets.

Kolmogorov-Smirnov against the fitted Gaussian CDF, chi-square on a
101-bin histogram, and the Kullback-Leibler divergence between the
histogram and the binned Gaussian probabilities.

Because the mean and variance are fitted from the same data, the
classical asymptotic KS p-value is far too conservative (the fitted CDF
hugs the sample, so the null rejection rate collapses to ~0.03% instead
of 5%).  The p-value that drives the verdicts is therefore calibrated
against a Monte Carlo null table of the size-stabilized statistic
D * (sqrt(n) - 0.01 + 0.85/sqrt(n)); the uncorrected asymptotic value is
still reported alongside for reference.  The table (8000 replicas of
2000 normals, fixed seed) is built on first use in blocks of
_NULL_BLOCK_ROWS rows drawn in order from one generator, so it equals a
single full draw while holding only one block in memory.  The battery
and the table share one KS distance, _ks_d, and one size correction,
_stephens_t.

scipy is needed only here, and is loaded on the first call that uses it,
so importing the package or running any other command does not load it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateVariance, TooFewSamples

DEFAULT_BINS = 101
MIN_BINS = 5
MIN_EXPECTED_PER_BIN = 5.0
BIN_HALF_WIDTH_SDS = 5.0

_NULL_SEED = 771_554_433
_NULL_REPLICAS = 8000
_NULL_SIZE = 2000
_NULL_BLOCK_ROWS = 256
_null_table = None


@dataclass(frozen=True)
class GaussianityReport:
    ks_statistic: float
    ks_pvalue: float
    ks_pvalue_asymptotic: float
    chi2_statistic: float
    chi2_dof: int
    chi2_pvalue: float
    kl_divergence: float
    bin_count: int
    pass_95: bool
    pass_99: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _ks_d(xs: np.ndarray, mean, sd) -> np.ndarray:
    """KS distance of each sorted row of xs (its last axis) from the normal
    CDF of the given mean and sd, which broadcast against xs."""
    from scipy.special import ndtr

    n = xs.shape[-1]
    f = ndtr((xs - mean) / sd)
    i = np.arange(1, n + 1)
    return np.maximum(np.max(i / n - f, axis=-1), np.max(f - (i - 1) / n, axis=-1))


def _stephens_t(d: float, n: int) -> float:
    rn = math.sqrt(n)
    return d * (rn - 0.01 + 0.85 / rn)


def _ks_null_table() -> np.ndarray:
    """Sorted null distribution of the size-stabilized KS statistic with
    fitted mean and variance, built once from a fixed internal seed."""
    global _null_table
    if _null_table is None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_NULL_SEED)))
        # row blocks drawn in order from one generator are the rows of a
        # single (_NULL_REPLICAS, _NULL_SIZE) draw, so the table does not
        # depend on the block size; each row's mean and sd are taken
        # before the sort, which would change their summation order
        d = np.empty(_NULL_REPLICAS)
        for start in range(0, _NULL_REPLICAS, _NULL_BLOCK_ROWS):
            z = rng.standard_normal((min(_NULL_BLOCK_ROWS, _NULL_REPLICAS - start), _NULL_SIZE))
            mean, sd = z.mean(axis=1, keepdims=True), z.std(axis=1, keepdims=True)
            z.sort(axis=1)
            d[start : start + len(z)] = _ks_d(z, mean, sd)
        t = _stephens_t(d, _NULL_SIZE)
        t.sort()
        _null_table = t
    return _null_table


def _ks_pvalue_calibrated(d: float, n: int) -> float:
    table = _ks_null_table()
    t = _stephens_t(d, n)
    idx = int(np.searchsorted(table, t, side="left"))
    return (table.size - idx + 1) / (table.size + 1)


def kl_divergence(p, q) -> float:
    """KL divergence in nats between two discrete distributions.

    Bins with p_i = 0 contribute zero (the p log p -> 0 limit); a bin
    with p_i > 0 but q_i = 0 makes the divergence infinite.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-D arrays of equal length")
    if np.any(p < 0.0) or np.any(q < 0.0):
        raise ValueError("probabilities must be non-negative")
    for name, arr in (("p", p), ("q", q)):
        if abs(float(arr.sum()) - 1.0) > 1e-8:
            raise ValueError(f"{name} must sum to 1, got {arr.sum()}")
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def _binned(x: np.ndarray, mean: float, sd: float, bins: int):
    from scipy.special import ndtr

    # bins-2 interior bins across mean +- 5 sd, one open overflow bin each end
    edges = np.linspace(mean - BIN_HALF_WIDTH_SDS * sd, mean + BIN_HALF_WIDTH_SDS * sd, bins - 1)
    idx = np.searchsorted(edges, x, side="right")
    obs = np.bincount(idx, minlength=bins).astype(float)
    cdf = ndtr((edges - mean) / sd)
    q = np.empty(bins)
    q[0] = cdf[0]
    q[1:-1] = np.diff(cdf)
    q[-1] = 1.0 - cdf[-1]
    return obs, q


def _chi2_merged(obs: np.ndarray, q: np.ndarray, n: int):
    # merge adjacent bins until each group expects >= 5 counts
    groups = []
    acc_o = 0.0
    acc_e = 0.0
    for o, e in zip(obs, q * n):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED_PER_BIN:
            groups.append((acc_o, acc_e))
            acc_o = 0.0
            acc_e = 0.0
    if acc_e > 0.0 and groups:
        o, e = groups[-1]
        groups[-1] = (o + acc_o, e + acc_e)
    dof = len(groups) - 1 - 2
    if dof < 1:
        raise TooFewSamples(f"only {len(groups)} usable bins; need at least 4")
    stat = sum((o - e) ** 2 / e for o, e in groups)
    return float(stat), dof


def test_gaussianity(samples, bins: int = DEFAULT_BINS) -> GaussianityReport:
    """Run the KS / chi-square / KL battery against a fitted Gaussian.

    The verdict at confidence c passes iff both the (calibrated) KS and
    the chi-square p-values exceed 1 - c.  KL is reported in nats but
    carries no p-value.
    """
    from scipy.special import gammaincc, kolmogorov

    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("samples must be a 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    if bins < MIN_BINS:
        raise ValueError(f"bins must be >= {MIN_BINS}, got {bins}")
    if x.size < 10 * bins:
        raise TooFewSamples(f"need >= {10 * bins} samples for {bins} bins, got {x.size}")
    # the battery is scale-free, so it runs on x / 2^k, whose squares cannot
    # overflow; a power of two keeps every bit where nothing over- or underflows
    k = math.frexp(float(np.max(np.abs(x))))[1]
    x = np.ldexp(x, -k)
    mean = float(np.mean(x))
    sd = float(np.std(x))
    if math.ldexp(sd, k) <= 1e-9 * max(1.0, abs(math.ldexp(mean, k))):
        raise DegenerateVariance(f"sample standard deviation {math.ldexp(sd, k)} is degenerate")

    xs = np.sort(x)
    ks_stat = float(_ks_d(xs, mean, sd))
    ks_p = _ks_pvalue_calibrated(ks_stat, x.size)
    ks_p_asym = float(kolmogorov(math.sqrt(x.size) * ks_stat))

    obs, q = _binned(x, mean, sd, bins)
    chi2_stat, dof = _chi2_merged(obs, q, x.size)
    chi2_p = float(gammaincc(dof / 2.0, chi2_stat / 2.0))

    kl = kl_divergence(obs / x.size, q)

    pass_95 = ks_p > 0.05 and chi2_p > 0.05
    pass_99 = ks_p > 0.01 and chi2_p > 0.01
    return GaussianityReport(
        ks_statistic=ks_stat,
        ks_pvalue=ks_p,
        ks_pvalue_asymptotic=ks_p_asym,
        chi2_statistic=chi2_stat,
        chi2_dof=dof,
        chi2_pvalue=chi2_p,
        kl_divergence=kl,
        bin_count=bins,
        pass_95=pass_95,
        pass_99=pass_99,
    )
