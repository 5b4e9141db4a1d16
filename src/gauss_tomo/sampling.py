"""Seeded synthesis of homodyne and heterodyne measurement records.

Randomness discipline: every stream in the package derives from numpy's
PCG64 seeded through SeedSequence(seed, spawn_key=(domain, ...)), made
by _rng; a sub-run (a reference, a Monte Carlo map cell, a crossover
probe) takes a root seed of its own from _child_seed.  The domains, all
named in one table below, keep the streams disjoint.  The event samplers
key their streams by (domain, index, batch): the batch axis cuts a
record into SAMPLING_BATCH-event chunks with streams of their own, so
the first events of a record do not depend on its length.  One helper,
_normals, draws every such chunked stream.  The scheme is tagged in
dataset metadata as "rng".  Both event samplers and the exact-law draws
below take their covariances from DetectionModel (core).

Next to the event samplers sit exact-law draws of the statistics a
record reduces to (per-angle variances, the heterodyne sample
covariance), for callers that need only those; they take the caller's
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CovMat, DetectionModel, marginal_variance, to_homodyne_cov
from .errors import InvalidProtocol, RaggedDataset

RNG_TAG = "numpy-pcg64-ss1"
SAMPLING_BATCH = 1 << 20

TWO_PI = 2.0 * math.pi

# Spawn-key domains, the first entry of every spawn key
_DOM_HOM = 0  # homodyne events, (angle, batch)
_DOM_HET = 1  # heterodyne events, (0, batch)
_DOM_THERM_HOM = 2  # homodyne shuffling
_DOM_THERM_HET = 3  # heterodyne rotations
_DOM_OFFSET = 5  # simulate's random protocol offset
_DOM_REF_HOM = 10  # benchmark reference seeds
_DOM_REF_HET = 11
_DOM_UNIT_HOM = 20  # benchmark cells, (i_n, i_m) homodyne and i_n heterodyne
_DOM_UNIT_HET = 21
_DOM_MAP_CELL = 30  # Monte Carlo gamma-map cell seeds, (i, j)
_DOM_CROSSOVER = 40  # crossover probe seeds, (step,)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _child_seed(seed: int, *key: int) -> int:
    """Root seed of a sub-run, drawn from the stream at key."""
    return int(_rng(seed, *key).integers(0, 2**63))


def _check_seed(seed: int) -> int:
    if seed != int(seed) or int(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _normals(seed: int, key: tuple, n: int, width: tuple = ()) -> np.ndarray:
    """n standard normals (rows of shape width) from the streams (*key, batch),
    one per SAMPLING_BATCH-row chunk; a single chunk is returned uncopied."""
    chunks = [
        _rng(seed, *key, b).standard_normal((min(SAMPLING_BATCH, n - lo),) + width)
        for b, lo in enumerate(range(0, n, SAMPLING_BATCH))
    ]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


@dataclass(frozen=True)
class AngleProtocol:
    """Equally spaced quadrature angles offset + k * (2*pi/count)."""

    count: int
    offset: float = 0.0

    def __post_init__(self):
        if int(self.count) != self.count or self.count < 1:
            raise InvalidProtocol(f"angle count must be a positive integer, got {self.count}")
        spacing = TWO_PI / self.count
        if not (0.0 <= self.offset < spacing):
            raise InvalidProtocol(
                f"offset must lie in [0, {spacing:.6g}) for count {self.count}, got {self.offset}"
            )

    @property
    def angles(self) -> np.ndarray:
        return self.offset + np.arange(self.count) * (TWO_PI / self.count)

    @classmethod
    def with_random_offset(cls, count: int, rng: np.random.Generator) -> "AngleProtocol":
        if count < 1:
            raise InvalidProtocol(f"angle count must be a positive integer, got {count}")
        return cls(count, rng.uniform(0.0, TWO_PI / count))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HomodyneDataset:
    """Per-angle quadrature records x_theta.

    angles are strictly increasing in [0, 2*pi); samples[i] holds the
    values measured at angles[i].  meta is a JSON-serializable dict
    carrying at least scheme/seed/eta/g_elec/rng.
    """

    angles: tuple
    samples: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.angles) == 0:
            raise ValueError("dataset needs at least one angle")
        if len(self.angles) != len(self.samples):
            raise ValueError("angles and samples length mismatch")
        prev = -1.0
        for th in self.angles:
            if not (0.0 <= th < TWO_PI):
                raise ValueError(f"angle {th} outside [0, 2*pi)")
            if th <= prev:
                raise ValueError("angles must be strictly increasing")
            prev = th
        for arr in self.samples:
            if arr.ndim != 1:
                raise ValueError("per-angle samples must be 1-D arrays")
            if not np.all(np.isfinite(arr)):
                raise ValueError("samples contain non-finite values")

    @property
    def counts(self) -> tuple:
        return tuple(len(a) for a in self.samples)

    @property
    def total_events(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class HeterodyneDataset:
    """Simultaneous (x, p) quadrature pairs; one row = one sampling event."""

    pairs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise ValueError(f"pairs must have shape (n, 2), got {self.pairs.shape}")
        if self.pairs.shape[0] < 1:
            raise ValueError("dataset needs at least one pair")
        if not np.all(np.isfinite(self.pairs)):
            raise ValueError("pairs contain non-finite values")

    @property
    def total_events(self) -> int:
        return int(self.pairs.shape[0])


def _base_meta(scheme: str, g_w: CovMat, det: DetectionModel, seed: int) -> dict:
    return {
        "scheme": scheme,
        "seed": seed,
        **det.to_dict(),
        "g_w": [g_w.g11, g_w.g12, g_w.g22],
        "rng": RNG_TAG,
    }


def _homodyne_sigmas(g_w: CovMat, det: DetectionModel, angles: np.ndarray) -> np.ndarray:
    # two marginals summed, not the marginal of det.recorded, whose bits differ when g_elec != 0
    g_hom = to_homodyne_cov(g_w, det)
    return np.sqrt(marginal_variance(g_hom, angles) + marginal_variance(det.g_elec, angles))


def sample_homodyne(
    g_w: CovMat,
    det: DetectionModel,
    protocol: AngleProtocol,
    n_per_angle: int,
    seed: int,
) -> HomodyneDataset:
    """Draw n_per_angle quadrature values at each protocol angle.

    Values at angle theta are zero-mean Gaussian with the marginal
    variance of the homodyne covariance plus the electronic-noise
    marginal.  Deterministic given (inputs, seed).
    """
    seed = _check_seed(seed)
    if not g_w.physical:
        raise ValueError(f"g_w must be positive semidefinite, got {g_w}")
    n_per_angle = int(n_per_angle)
    if n_per_angle < 1:
        raise ValueError(f"n_per_angle must be >= 1, got {n_per_angle}")
    angles = protocol.angles
    sigmas = _homodyne_sigmas(g_w, det, angles)
    samples = []
    for i, sd in enumerate(sigmas):
        samples.append(_freeze(sd * _normals(seed, (_DOM_HOM, i), n_per_angle)))
    meta = _base_meta("hom", g_w, det, seed)
    meta["angle_count"] = protocol.count
    meta["offset"] = protocol.offset
    meta["n_per_angle"] = n_per_angle
    return HomodyneDataset(tuple(float(a) for a in angles), tuple(samples), meta)


def draw_homodyne_variances(
    g_w: CovMat,
    det: DetectionModel,
    angles: np.ndarray,
    n_per_angle: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-angle sample variances of homodyne records, from their exact law.

    angles may have any shape, such as (reps, m); each entry gets the
    known-zero-mean sample variance of n_per_angle events at that angle,
    sigma_theta^2 * chi2_n / n, with sigma_theta as in sample_homodyne.
    The sigmas are scaled by the power of two of the largest before the
    product and scaled back after the division: the same bits, but
    sigma^2 chi2_n no longer overflows when only the product passes the
    float range.
    """
    sigmas = _homodyne_sigmas(g_w, det, angles)
    k = np.frexp(np.max(sigmas))[1]
    s = np.ldexp(sigmas, -k)
    return np.ldexp(s * s * rng.chisquare(n_per_angle, sigmas.shape) / n_per_angle, 2 * k)


def _heterodyne_chol(g_w: CovMat, det: DetectionModel) -> np.ndarray:
    target = det.recorded(g_w, "het")
    # strictly PD: the heterodyne map adds at least one unit of vacuum noise
    return np.linalg.cholesky(target.matrix)


def sample_heterodyne(
    g_w: CovMat,
    det: DetectionModel,
    n_pairs: int,
    seed: int,
) -> HeterodyneDataset:
    """Draw n_pairs (x, p) pairs from the heterodyne covariance.

    Pairs follow the zero-mean bivariate Gaussian with covariance
    det.recorded(g_w, "het"), generated by mapping standard
    normals through the Cholesky factor.  Deterministic given seed.
    """
    seed = _check_seed(seed)
    if not g_w.physical:
        raise ValueError(f"g_w must be positive semidefinite, got {g_w}")
    n_pairs = int(n_pairs)
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    pairs = _normals(seed, (_DOM_HET, 0), n_pairs, (2,)) @ _heterodyne_chol(g_w, det).T
    meta = _base_meta("het", g_w, det, seed)
    meta["n_pairs"] = n_pairs
    return HeterodyneDataset(_freeze(pairs), meta)


def draw_heterodyne_covs(
    g_w: CovMat,
    det: DetectionModel,
    n_pairs: int,
    reps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """reps sample covariances (known zero mean) of n_pairs-pair heterodyne
    records, from their exact law, as a (reps, 2, 2) array.

    n S is Wishart(n, Sigma) with Sigma = L L^T the covariance
    sample_heterodyne draws from; the Bartlett decomposition gives
    S = L A A^T L^T / n with A lower triangular, A11^2 ~ chi2_n,
    A22^2 ~ chi2_{n-1} and A21 ~ N(0, 1).  Needs n_pairs >= 2.  L is
    scaled by the power of two of its largest entry, and S scaled back
    after the division, as in draw_homodyne_variances.
    """
    chol = _heterodyne_chol(g_w, det)
    k = np.frexp(np.max(np.abs(chol)))[1]
    chol = np.ldexp(chol, -k)
    a = np.zeros((reps, 2, 2))
    a[:, 0, 0] = np.sqrt(rng.chisquare(n_pairs, reps))
    a[:, 1, 0] = rng.standard_normal(reps)
    a[:, 1, 1] = np.sqrt(rng.chisquare(n_pairs - 1, reps))
    la = chol @ a
    return np.ldexp(la @ la.transpose(0, 2, 1) / n_pairs, 2 * k)


def thermalize_homodyne(d: HomodyneDataset, seed: int) -> HomodyneDataset:
    """Randomly permute all values across angle bins (phase randomization).

    The global multiset of values is preserved exactly; per-angle counts
    are preserved.  The result looks like an isotropic state of variance
    Tr(G)/2 regardless of the input state's ellipticity.
    """
    seed = _check_seed(seed)
    if len(d.angles) < 2:
        raise ValueError("thermalization needs at least two angle bins")
    counts = d.counts
    if len(set(counts)) != 1:
        raise RaggedDataset(f"per-angle counts differ: {counts}")
    pooled = np.concatenate(d.samples)
    rng = _rng(seed, _DOM_THERM_HOM, 0, 0)
    shuffled = pooled[rng.permutation(pooled.size)]
    per = counts[0]
    samples = tuple(
        _freeze(shuffled[i * per : (i + 1) * per].copy()) for i in range(len(d.angles))
    )
    meta = dict(d.meta)
    meta["thermalized"] = {"method": "shuffle", "seed": seed}
    return HomodyneDataset(d.angles, samples, meta)


def thermalize_heterodyne(d: HeterodyneDataset, seed: int) -> HeterodyneDataset:
    """Rotate each (x, p) pair by an independent uniform phase.

    Preserves each pair's norm x^2 + p^2 (exactly in exact arithmetic;
    to rounding in floats) while erasing all phase information.
    """
    seed = _check_seed(seed)
    rng = _rng(seed, _DOM_THERM_HET, 0, 0)
    phi = rng.uniform(0.0, TWO_PI, d.pairs.shape[0])
    c = np.cos(phi)
    s = np.sin(phi)
    x = d.pairs[:, 0]
    p = d.pairs[:, 1]
    rotated = np.column_stack((c * x - s * p, s * x + c * p))
    meta = dict(d.meta)
    meta["thermalized"] = {"method": "rotate", "seed": seed}
    return HeterodyneDataset(_freeze(rotated), meta)
