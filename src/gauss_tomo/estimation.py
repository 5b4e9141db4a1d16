"""Covariance reconstruction from measurement records.

Homodyne records are reduced to per-angle sample variances and fitted
with the sinusoidal model sigma^2(theta) = a0 + a1 cos(2 theta) +
a2 sin(2 theta), either by exact maximum likelihood (Fisher scoring on
the scaled chi-square likelihood of the variances) or by weighted least
squares.  Heterodyne records use the known-zero-mean sample covariance,
which is already the ML estimator.  Both paths then subtract detection
and electronic noise and project the result to the PSD cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .core import CovMat, DetectionModel, SINGULAR_DET_TOL, StateSpec
from .errors import DegenerateVariance, SingularMatrix, TooFewSamples, Underdetermined
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
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "psd_clipped": self.psd_clipped,
            "variances": None if self.variances is None else [float(v) for v in self.variances],
            "loglik": self.loglik,
        }


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
    """Clip negative eigenvalues to zero.

    Returns the input object untouched when it is already PSD, so
    projecting twice cannot drift.  clipped reports whether any
    eigenvalue was negative.
    """
    m = g.matrix
    w, u = np.linalg.eigh(m)
    if w[0] >= 0.0:
        return g, False
    wc = np.where(w < 0.0, 0.0, w)
    out = (u * wc) @ u.T
    return CovMat.from_matrix(out), True


def extract_params(g: CovMat) -> StateSpec:
    """Invert the (mu, lambda, orientation) parametrization.

    Eigenvalues e1 <= e2 give mu = sqrt(e1 e2) and lambda =
    sqrt(e2/e1) >= 1; orientation is the angle of the large-eigenvalue
    axis folded to [0, pi), and 0 by convention for isotropic input.
    The original matrix is wigner_cov(StateSpec(mu, 1/lambda,
    orientation)) up to rounding.
    """
    d = g.det
    if d <= SINGULAR_DET_TOL:
        raise SingularMatrix(f"covariance determinant {d} <= {SINGULAR_DET_TOL}")
    e1, e2 = g.eigenvalues()
    mu = math.sqrt(e1 * e2)
    lam = math.sqrt(e2 / e1)
    if e2 - e1 <= 1e-12 * e2:
        orientation = 0.0
    else:
        orientation = 0.5 * math.atan2(2.0 * g.g12, g.g11 - g.g22)
        if orientation < 0.0:
            orientation += math.pi
    return StateSpec(mu, lam, orientation)


def _angle_design(angles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    th = np.asarray(angles, dtype=float)
    folded = np.unique(np.round(np.mod(th, math.pi), 9))
    if folded.size < 3:
        raise Underdetermined(
            f"{folded.size} angle(s) distinct modulo pi; need >= 3 to identify the covariance"
        )
    return th, np.cos(2.0 * th), np.sin(2.0 * th)


def _angle_variances(d: HomodyneDataset) -> list:
    # an empty angle gets a placeholder variance; _estimate_hom rejects its count
    return [float(np.mean(x * x)) if x.size else 0.0 for x in d.samples]


def _subtract_hom_noise(g_meas: CovMat, det: DetectionModel) -> CovMat:
    return g_meas.add_identity(-(1.0 - det.eta) / det.eta) - det.g_elec


def _subtract_het_noise(g_meas: CovMat, det: DetectionModel) -> CovMat:
    return g_meas.add_identity(-(2.0 - det.eta) / det.eta) - det.g_elec


def _a_to_cov(a) -> CovMat:
    return CovMat(float(a[0] + a[1]), float(a[2]), float(a[0] - a[1]))


def _estimate_hom(
    angles, variances, counts, det: DetectionModel, method: str, meta: dict
) -> EstimateResult:
    """The one homodyne core: (angles, variances, counts) to a PSD Wigner
    covariance, fitted by ML ("ml") or WLS ("wls")."""
    _, c2, s2 = _angle_design(angles)
    v = np.asarray(variances, dtype=float)
    n = np.asarray(counts, dtype=float)
    if v.shape != c2.shape or n.shape != c2.shape:
        raise ValueError("angles, variances and counts must have equal length")
    if np.any(n < 2):
        raise TooFewSamples(f"need >= 2 samples per angle, got counts {counts}")
    if np.any(v <= 0.0):
        raise DegenerateVariance("zero sample variance at some angle")
    if method == "ml":
        a, lik, iters, converged = _kernels.ml_fit(v, n, c2, s2, ML_MAX_ITER, ML_TOL)
    elif method == "wls":
        a, ok = _kernels.wls_fit(v, n, c2, s2)
        if not ok:
            raise Underdetermined("weighted normal equations are singular")
        lik = _kernels.loglik(a[0], a[1], a[2], v, n, c2, s2)
        iters, converged = 1, True
    else:
        raise ValueError(f"method must be 'ml' or 'wls', got {method!r}")
    g_w_hat, clipped = psd_project(_subtract_hom_noise(_a_to_cov(a), det))
    diag = Diagnostics(int(iters), bool(converged), clipped, v, float(lik))
    return EstimateResult(g_w_hat, "hom", diag, meta)


def estimate_homodyne_ml(d: HomodyneDataset, det: DetectionModel) -> EstimateResult:
    """Maximum-likelihood covariance from a homodyne record.

    Per-angle sample variances (known zero mean) are scaled chi-squares;
    their exact likelihood is maximized over the measured covariance by
    Fisher scoring started from the WLS solution.  Hitting the iteration
    cap is reported through diagnostics.converged, not raised.
    """
    return _estimate_hom(d.angles, _angle_variances(d), d.counts, det, "ml", dict(d.meta))


def estimate_homodyne_wls(d: HomodyneDataset, det: DetectionModel) -> EstimateResult:
    """Weighted-least-squares covariance from a homodyne record.

    Weights are the inverse variances 2 v_theta^2 / n_theta of the
    sample variances.  Exact on noise-free inputs; used as the reference
    estimator the ML fit is validated against.
    """
    return _estimate_hom(d.angles, _angle_variances(d), d.counts, det, "wls", dict(d.meta))


def _estimate_het(s, n: int, det: DetectionModel, meta: dict) -> EstimateResult:
    """The one heterodyne core: the known-zero-mean sample covariance s of
    n pairs to a PSD Wigner covariance."""
    if n < 2:
        raise TooFewSamples(f"need >= 2 pairs, got {n}")
    g_w_hat, clipped = psd_project(_subtract_het_noise(CovMat.from_matrix(s), det))
    diag = Diagnostics(0, True, clipped, None, None)
    return EstimateResult(g_w_hat, "het", diag, meta)


def estimate_heterodyne(d: HeterodyneDataset, det: DetectionModel) -> EstimateResult:
    """Sample-covariance estimator for heterodyne records (exact ML)."""
    n = d.pairs.shape[0]
    return _estimate_het(d.pairs.T @ d.pairs / n, n, det, dict(d.meta))


def estimate_from_variances(
    angles,
    variances,
    counts,
    det: DetectionModel,
    method: str = "ml",
) -> EstimateResult:
    """Fit a covariance from per-angle sample variances directly.

    The homodyne estimators only ever see (angle, variance, count)
    triples, so callers that hold only the variances, such as the
    Monte Carlo benchmark, which draws them from their exact law,
    finish the reconstruction here.
    """
    return _estimate_hom(angles, variances, counts, det, method, {})


def estimate(dataset, det: DetectionModel) -> EstimateResult:
    """Dispatch on dataset type: ML for homodyne, sample covariance for
    heterodyne."""
    if isinstance(dataset, HomodyneDataset):
        return estimate_homodyne_ml(dataset, det)
    if isinstance(dataset, HeterodyneDataset):
        return estimate_heterodyne(dataset, det)
    raise TypeError(f"unsupported dataset type {type(dataset)!r}")
