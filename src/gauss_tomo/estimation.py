"""Covariance reconstruction from measurement records.

Homodyne records are reduced to per-angle sample variances and fitted
with the sinusoidal model sigma^2(theta) = a0 + a1 cos(2 theta) +
a2 sin(2 theta), either by exact maximum likelihood (Fisher scoring on
the scaled chi-square likelihood of the variances) or by weighted least
squares.  Heterodyne records use the known-zero-mean sample covariance,
which is already the ML estimator.  Both paths then remove the detection
and electronic noise with DetectionModel.wigner_rows, the inverse of the
map the samplers draw through, and project the result to the PSD cone.

There are two entries: `estimate(dataset, det, method)` for a record
of either scheme, and `estimate_from_variances` for homodyne statistics
alone.  Both are one-row views of the row cores, which fit many records
at once (`_fit_hom_rows`, `_fit_het_rows`) and share one PSD
projection, `_psd_project_rows`; `psd_project` is its one-row view.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .core import CovMat, DetectionModel, SINGULAR_DET_TOL, StateSpec
from .errors import ConfigError, DegenerateVariance, SingularMatrix, TooFewSamples, Underdetermined
from .sampling import HeterodyneDataset, HomodyneDataset

ML_MAX_ITER = 10_000
ML_TOL = 1e-10


@dataclass(frozen=True)
class Diagnostics:
    iterations: int
    converged: bool
    psd_clipped: bool
    variances: Optional[np.ndarray] = None
    loglik: Optional[float] = None

    def to_dict(self) -> dict:
        v = self.variances
        return {**asdict(self), "variances": None if v is None else [float(x) for x in v]}


@dataclass(frozen=True)
class EstimateResult:
    g_w_hat: CovMat
    scheme: str
    diagnostics: Diagnostics
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        g = self.g_w_hat
        try:
            spec = extract_params(g)
            params = {"mu": spec.mu, "lambda": spec.lam, "orientation": spec.orientation}
        except SingularMatrix:
            params = {"mu": None, "lambda": None, "orientation": None}
        return {
            "scheme": self.scheme,
            "g11": g.g11,
            "g12": g.g12,
            "g22": g.g22,
            **params,
            "diagnostics": self.diagnostics.to_dict(),
            "meta": self.meta,
        }


def psd_project(g: CovMat) -> tuple[CovMat, bool]:
    """Clip negative eigenvalues to zero: the one-row view of _psd_project_rows.

    Returns the input object untouched when it is not clipped, so
    projecting twice cannot drift.  clipped reports whether any
    eigenvalue was negative.
    """
    out, clipped = _psd_project_rows(np.array([[g.g11, g.g12, g.g22]], dtype=float))
    return (CovMat(*out[0].tolist()), True) if clipped[0] else (g, False)


def _psd_project_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clip the negative eigenvalues of every row (g11, g12, g22) of g,
    shape (R, 3), to zero; returns the rows and their clip flags.

    The closed-form 2x2 eigenvalues pick the rows whose low eigenvalue is
    negative or within rounding of zero.  Only those are decomposed, in
    one stacked eigh, and only where eigh finds a negative (or NaN) low
    eigenvalue is a row replaced and flagged.  Every other row, a
    non-finite one included, is returned as it is.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        half_tr = 0.5 * (g[:, 0] + g[:, 2])
        half_gap = 0.5 * np.hypot(g[:, 0] - g[:, 2], 2.0 * g[:, 1])
        near = np.flatnonzero(half_tr - half_gap <= 1e-9 * (np.abs(half_tr) + half_gap))
    out = g.copy()
    clipped = np.zeros(g.shape[0], dtype=bool)
    if not near.size:
        return out, clipped  # most batches: skip the fixed cost of an empty decomposition
    w, u = np.linalg.eigh(g[near][:, [0, 1, 1, 2]].reshape(-1, 2, 2))
    clip = ~(w[:, 0] >= 0.0)
    w, u = w[clip], u[clip]
    p = (u * np.where(w < 0.0, 0.0, w)[:, None, :]) @ np.swapaxes(u, 1, 2)
    out[near[clip]] = np.stack([p[:, 0, 0], 0.5 * (p[:, 0, 1] + p[:, 1, 0]), p[:, 1, 1]], axis=-1)
    clipped[near[clip]] = True
    return out, clipped


def extract_params(g: CovMat) -> StateSpec:
    """Invert the (mu, lambda, orientation) parametrization.

    Eigenvalues e1 <= e2 give mu = sqrt(e1 e2) and lambda =
    sqrt(e2/e1) >= 1; orientation is the angle of the large-eigenvalue
    axis folded to [0, pi), and 0 by convention for isotropic input.
    The original matrix is wigner_cov(StateSpec(mu, 1/lambda,
    orientation)) up to rounding.  A singular or non-finite matrix raises
    SingularMatrix.
    """
    if not all(map(math.isfinite, (g.g11, g.g12, g.g22))):
        raise SingularMatrix(f"covariance is not finite: {g}")
    d = g.det
    if d <= SINGULAR_DET_TOL:
        raise SingularMatrix(f"covariance determinant {d} <= {SINGULAR_DET_TOL}")
    # g over 2^j, j the exponent of its larger variance: the same bits, but
    # the trace of a covariance near the float limit no longer overflows
    j = math.frexp(max(g.g11, g.g22))[1]
    g = CovMat(*(math.ldexp(x, -j) for x in (g.g11, g.g12, g.g22)))
    e1, e2 = g.eigenvalues()
    # e1 and e2 scaled by 2^-k about their middle exponent: e1 * e2 cannot overflow
    k = (math.frexp(e1)[1] + math.frexp(e2)[1]) // 2
    mu = math.ldexp(math.sqrt(math.ldexp(e1, -k) * math.ldexp(e2, -k)), k + j)
    lam = math.sqrt(e2 / e1)
    if e2 - e1 <= 1e-12 * e2:
        orientation = 0.0
    else:
        orientation = 0.5 * math.atan2(2.0 * g.g12, g.g11 - g.g22)
        if orientation < 0.0:
            orientation += math.pi
    return StateSpec(mu, lam, orientation)


def _distinct_angles(th: np.ndarray) -> np.ndarray:
    # per row, the number of angles distinct modulo pi: the gaps above 1e-9 rad
    # between neighbours on the circle of circumference pi, the wrap gap included
    f = np.sort(np.mod(th, math.pi), axis=-1)
    gaps = np.diff(f, axis=-1, append=f[:, :1] + math.pi)
    return np.count_nonzero(gaps > 1e-9, axis=-1)


# Per-row failure causes of _fit_hom_rows, in the order they are tested.
FITTED, FEW_ANGLES, FEW_SAMPLES, ZERO_VARIANCE, SINGULAR_WLS = range(5)


class HomRows(NamedTuple):
    cov: np.ndarray  # (R, 3) PSD Wigner covariances (g11, g12, g22); NaN where failed
    failed: np.ndarray  # (R,) failure cause, FITTED where the row was fitted
    converged: np.ndarray  # (R,) bool, False where failed
    clipped: np.ndarray  # (R,) bool
    iters: np.ndarray  # (R,) int
    loglik: np.ndarray  # (R,)


def _fit_hom_rows(angles, variances, counts, det: DetectionModel, method: str) -> HomRows:
    """The one homodyne core: rows of (angles, variances), shape (R, m),
    with counts shared (m,) or per row (R, m), to PSD Wigner covariances,
    fitted by ML ("ml") or WLS ("wls").  A row that cannot be fitted is
    reported in failed instead of raising.  The rows reach the kernels
    angle axis first, laid out by _kernels.angle_major (the layout rule of
    the _kernels docstring), each in units of 2^k, k the exponent of its
    largest variance: the fit keeps its bits, and a bright row's solve
    cannot overflow.  Its parameters are multiplied back by 2^k, and a
    solution that is not finite in the record's units is not converged."""
    th = np.asarray(angles, dtype=float)
    v = np.asarray(variances, dtype=float)
    n = np.asarray(counts, dtype=float)
    if th.ndim != 2 or v.shape != th.shape or n.shape not in (th.shape, th.shape[1:]):
        raise ValueError("angles, variances and counts must have equal length")
    if method not in ("ml", "wls"):
        raise ValueError(f"method must be 'ml' or 'wls', got {method!r}")
    rows = th.shape[0]
    n = np.broadcast_to(n, th.shape)
    failed = np.select(
        [_distinct_angles(th) < 3, np.any(n < 2, axis=-1), np.any(v <= 0.0, axis=-1)],
        [FEW_ANGLES, FEW_SAMPLES, ZERO_VARIANCE],
        FITTED,
    )
    fit = np.flatnonzero(failed == FITTED)
    k = np.frexp(np.max(v[fit], axis=-1, initial=0.0))[1]
    vf, n, th = (_kernels.angle_major(x.T, fit) for x in (v, n, th))
    vf, c2, s2 = np.ldexp(vf, -k), np.cos(2.0 * th), np.sin(2.0 * th)
    # a bright row's overflow ends in inf or NaN, without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "ml":
            a, lik, iters, converged = _kernels.ml_fit_rows(vf, n, c2, s2, ML_MAX_ITER, ML_TOL)
        else:
            a, ok = _kernels.wls_fit_rows(vf, n, c2, s2)
            lik = _kernels.loglik_rows(a, vf, n, c2, s2)
            iters, converged = np.ones(fit.size, dtype=np.int64), ok
            failed[fit[~ok]] = SINGULAR_WLS
            fit, a, lik, iters, converged, k = (x[ok] for x in (fit, a, lik, iters, converged, k))
        a = np.ldexp(a, k[:, None])
        # a solution that overflowed is not a fit
        converged = converged & np.all(np.isfinite(a), axis=-1)
        g = np.stack([a[:, 0] + a[:, 1], a[:, 2], a[:, 0] - a[:, 1]], axis=-1)
        g = det.wigner_rows(g, "hom")
    out = HomRows(
        np.full((rows, 3), np.nan),
        failed,
        np.zeros(rows, dtype=bool),
        np.zeros(rows, dtype=bool),
        np.zeros(rows, dtype=np.int64),
        np.full(rows, np.nan),
    )
    out.cov[fit], out.clipped[fit] = _psd_project_rows(g)
    out.converged[fit], out.iters[fit], out.loglik[fit] = converged, iters, lik
    return out


def _fit_het_rows(s, n, det: DetectionModel) -> tuple[np.ndarray, np.ndarray]:
    """The one heterodyne core: known-zero-mean sample covariances s,
    shape (R, 2, 2), of n pairs each (shared, or one count per row) to
    PSD Wigner covariances (R, 3) and clip flags."""
    if np.any(np.asarray(n) < 2):
        raise TooFewSamples(f"need >= 2 pairs, got {np.min(n)}")
    s = np.asarray(s, dtype=float)
    if s.ndim != 3 or s.shape[1:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {s.shape[1:]}")
    g = np.stack([s[:, 0, 0], 0.5 * (s[:, 0, 1] + s[:, 1, 0]), s[:, 1, 1]], axis=-1)
    return _psd_project_rows(det.wigner_rows(g, "het"))


def _unscaled_moment(f, x: np.ndarray):
    """f(x / 2^k) * 4^k for a second moment f, with 2^k the power of two just
    above max |x|: a bright record's squares cannot overflow, and the
    scaling keeps every bit where nothing over- or underflows."""
    k = math.frexp(float(np.max(np.abs(x), initial=0.0)))[1]
    with np.errstate(over="ignore"):
        return np.ldexp(f(np.ldexp(x, -k)), 2 * k)


def estimate_from_variances(
    angles,
    variances,
    counts,
    det: DetectionModel,
    method: str = "ml",
) -> EstimateResult:
    """The entry for homodyne statistics: a covariance fitted from per-angle
    sample variances by ML ("ml", Fisher scoring on their exact scaled
    chi-square likelihood, started from WLS; hitting the iteration cap
    shows in diagnostics.converged) or by WLS ("wls").  A problem that
    cannot be fitted raises."""
    rows = _fit_hom_rows([angles], [variances], counts, det, method)
    cause = rows.failed[0]
    if cause == FEW_ANGLES:
        k = _distinct_angles(np.asarray([angles], dtype=float))[0]
        raise Underdetermined(
            f"{k} angle(s) distinct modulo pi; need >= 3 to identify the covariance"
        )
    if cause == FEW_SAMPLES:
        raise TooFewSamples(f"need >= 2 samples per angle, got counts {counts}")
    if cause == ZERO_VARIANCE:
        raise DegenerateVariance("zero sample variance at some angle")
    if cause == SINGULAR_WLS:
        raise Underdetermined("weighted design is rank-deficient")
    diag = Diagnostics(
        int(rows.iters[0]),
        bool(rows.converged[0]),
        bool(rows.clipped[0]),
        np.asarray(variances, dtype=float),
        float(rows.loglik[0]),
    )
    return EstimateResult(CovMat(*rows.cov[0].tolist()), "hom", diag)


def estimate(dataset, det: DetectionModel, method: str = "ml") -> EstimateResult:
    """The entry for a record, carrying its meta.  A homodyne record goes to
    estimate_from_variances as its per-angle mean squares (known zero
    mean).  A heterodyne record gives its known-zero-mean sample
    covariance, already the ML estimator, so it takes method "ml" only."""
    if isinstance(dataset, HomodyneDataset):
        # an empty angle gets a placeholder variance; the fit rejects its count
        v = [float(_unscaled_moment(lambda y: np.mean(y * y), x)) if x.size else 0.0
             for x in dataset.samples]
        result = estimate_from_variances(dataset.angles, v, dataset.counts, det, method)
        return replace(result, meta=dict(dataset.meta))
    if not isinstance(dataset, HeterodyneDataset):
        raise TypeError(f"unsupported dataset type {type(dataset)!r}")
    if method != "ml":
        raise ConfigError(f"method={method} applies to homodyne datasets only")
    n = dataset.pairs.shape[0]
    s = _unscaled_moment(lambda y: y.T @ y / n, dataset.pairs)
    cov, clipped = _fit_het_rows([s], n, det)
    diag = Diagnostics(0, True, bool(clipped[0]), None, None)
    return EstimateResult(CovMat(*cov[0].tolist()), "het", diag, dict(dataset.meta))
