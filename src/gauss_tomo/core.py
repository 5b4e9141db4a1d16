"""Covariance-matrix algebra for single-mode Gaussian states.

Everything is expressed in shot-noise units: the vacuum state has unit
variance in every quadrature, so its covariance matrix is the identity.
A state is a zero-mean Gaussian fully described by a 2x2 symmetric
covariance matrix.  DetectionModel holds the one detection model: the
map from the true (Wigner) covariance to what each scheme records
(recorded) and its inverse on rows of estimates (wigner_rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrix

# Determinants at or below this (shot-noise units) count as singular.
# The quantum uncertainty floor is det = 1, so this is unreachably low
# for any physical state and only trips on degenerate inputs.
SINGULAR_DET_TOL = 1e-12
# Vacuum units each scheme measures: heterodyne splits the mode and pays one more.
_SHOT = {"hom": 1.0, "het": 2.0}


@dataclass(frozen=True)
class CovMat:
    """Symmetric 2x2 covariance matrix, stored as its three free entries."""

    g11: float
    g12: float
    g22: float

    @property
    def physical(self) -> bool:
        """True when the matrix is positive semidefinite."""
        return self.g11 >= 0.0 and self.g22 >= 0.0 and self.det >= 0.0

    @property
    def det(self) -> float:
        return self.g11 * self.g22 - self.g12 * self.g12

    @property
    def trace(self) -> float:
        return self.g11 + self.g22

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])

    @classmethod
    def from_matrix(cls, m) -> "CovMat":
        """Build from any 2x2 array-like; off-diagonal entries are averaged."""
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(float(m[0, 0]), float(0.5 * (m[0, 1] + m[1, 0])), float(m[1, 1]))

    @classmethod
    def identity(cls, scale: float = 1.0) -> "CovMat":
        return cls(scale, 0.0, scale)

    def add_identity(self, c: float) -> "CovMat":
        return CovMat(self.g11 + c, self.g12, self.g22 + c)

    def __sub__(self, other: "CovMat") -> "CovMat":
        return CovMat(self.g11 - other.g11, self.g12 - other.g12, self.g22 - other.g22)

    def __add__(self, other: "CovMat") -> "CovMat":
        return CovMat(self.g11 + other.g11, self.g12 + other.g12, self.g22 + other.g22)

    def eigenvalues(self) -> tuple[float, float]:
        """Eigenvalues (low, high) via the closed form for symmetric 2x2."""
        half_tr = 0.5 * (self.g11 + self.g22)
        half_gap = 0.5 * math.hypot(self.g11 - self.g22, 2.0 * self.g12)
        return half_tr - half_gap, half_tr + half_gap


@dataclass(frozen=True)
class StateSpec:
    """State family (mu, lambda, orientation).

    mu > 0 is the phase-insensitive noise, lam > 0 the ellipticity: the
    Wigner covariance has eigenvalues mu/lam and mu*lam.  orientation
    rotates the principal axes and must lie in [0, pi); 0 keeps the
    mu/lam axis along x.  Vacuum is (1, 1, 0).
    """

    mu: float
    lam: float
    orientation: float = 0.0

    def __post_init__(self):
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        if not (0.0 <= self.orientation < math.pi):
            raise ValueError(
                f"orientation must lie in [0, pi), got {self.orientation}"
            )


def _psd_check(g: CovMat, name: str) -> None:
    if not g.physical:
        raise ValueError(f"{name} must be positive semidefinite, got {g}")


@dataclass(frozen=True)
class DetectionModel:
    """Detector efficiency plus additive electronic-noise covariance."""

    eta: float = 1.0
    g_elec: CovMat = CovMat(0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        _psd_check(self.g_elec, "g_elec")

    def to_dict(self) -> dict:
        """JSON form used in dataset metadata and report configs."""
        g = self.g_elec
        return {"eta": self.eta, "g_elec": [g.g11, g.g12, g.g22]}

    def excess(self, scheme: str) -> float:
        """Detection noise, in units of I, that scheme "hom" or "het" adds
        to G_W before the electronic noise: (1-eta)/eta or (2-eta)/eta."""
        return (_SHOT[scheme] - self.eta) / self.eta

    def recorded(self, g_w: CovMat, scheme: str) -> CovMat:
        """Covariance the scheme records: G_W + excess(scheme) I + g_elec."""
        return g_w.add_identity(self.excess(scheme)) + self.g_elec

    def wigner_rows(self, rows: np.ndarray, scheme: str) -> np.ndarray:
        """The inverse of recorded on rows (g11, g12, g22), shape (R, 3)."""
        c = -self.excess(scheme)
        e = self.g_elec
        return np.stack(
            [rows[:, 0] + c - e.g11, rows[:, 1] - e.g12, rows[:, 2] + c - e.g22], axis=-1
        )


def wigner_cov(spec: StateSpec) -> CovMat:
    """Wigner covariance R(phi) diag(mu/lam, mu*lam) R(phi)^T."""
    lo = spec.mu / spec.lam
    hi = spec.mu * spec.lam
    c = math.cos(spec.orientation)
    s = math.sin(spec.orientation)
    return CovMat(
        lo * c * c + hi * s * s,
        (lo - hi) * c * s,
        lo * s * s + hi * c * c,
    )


def to_homodyne_cov(g_w: CovMat, det: DetectionModel) -> CovMat:
    """Covariance seen by homodyne detection: G_W + ((1-eta)/eta) * I."""
    return g_w.add_identity(det.excess("hom"))


def to_heterodyne_cov(g_w: CovMat, det: DetectionModel) -> CovMat:
    """Covariance seen by heterodyne detection: G_W + ((2-eta)/eta) * I.

    Exceeds the homodyne covariance by exactly (1/eta) * I: the extra
    unit of vacuum noise from splitting the mode to measure both
    quadratures at once, scaled by the efficiency.
    """
    return g_w.add_identity(det.excess("het"))


def marginal_variance(g: CovMat, theta):
    """Variance of the rotated quadrature x_theta: n^T g n, n = (cos, sin).

    theta may be an angle or an array of angles of any shape.
    """
    c = np.cos(theta)
    s = np.sin(theta)
    return g.g11 * c * c + 2.0 * g.g12 * c * s + g.g22 * s * s


def conditional_variance(g: CovMat, theta: float) -> float:
    """Variance of x_theta after conditioning on the conjugate quadrature.

    Equals (n^T g^{-1} n)^{-1} = det(g) / marginal_variance along the
    orthogonal direction; never exceeds the marginal variance.
    """
    d = g.det
    if d <= SINGULAR_DET_TOL:
        raise SingularMatrix(f"covariance determinant {d} <= {SINGULAR_DET_TOL}")
    c = math.cos(theta)
    s = math.sin(theta)
    return d / (g.g22 * c * c - 2.0 * g.g12 * c * s + g.g11 * s * s)


def hs_distance(a: CovMat, b: CovMat) -> float:
    """Hilbert-Schmidt distance Tr{(a-b)^2} between symmetric matrices."""
    d11 = a.g11 - b.g11
    d12 = a.g12 - b.g12
    d22 = a.g22 - b.g22
    return d11 * d11 + d22 * d22 + 2.0 * d12 * d12


def squeezing_db(spec: StateSpec) -> tuple[float, float]:
    """(squeezing, antisqueezing) in dB relative to shot noise.

    Positive squeezing means the low eigenvalue mu/lam sits below the
    vacuum variance.
    """
    sqz = -10.0 * math.log10(spec.mu / spec.lam)
    antisqz = 10.0 * math.log10(spec.mu * spec.lam)
    return sqz, antisqz


def thermal_photon_number(variance: float, subtract_vacuum: bool = False) -> float:
    """Mean thermal photon number of an isotropic state with the given variance.

    Default is the proportional convention N = V/2.  With
    subtract_vacuum=True the vacuum variance is removed first,
    N = (V-1)/2, the convention that makes the vacuum hold zero photons.
    """
    if not variance > 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    if subtract_vacuum:
        return (variance - 1.0) / 2.0
    return variance / 2.0
