"""Homodyne vs heterodyne tomography of single-mode Gaussian states.

The package simulates both detection schemes for a two-parameter family
of squeezed thermal states, reconstructs the 2x2 Wigner covariance from
finite records, and benchmarks the reconstruction error of the two
schemes against each other.
"""

__version__ = "0.1.0"

from .core import (
    CovMat,
    DetectionModel,
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
from .errors import (
    ConfigError,
    DataFormatError,
    DegenerateVariance,
    GaussTomoError,
    InvalidProtocol,
    RaggedDataset,
    SingularMatrix,
    TooFewSamples,
    UnknownScheme,
    Underdetermined,
)
from .sampling import (
    AngleProtocol,
    HeterodyneDataset,
    HomodyneDataset,
    sample_heterodyne,
    sample_homodyne,
    thermalize_heterodyne,
    thermalize_homodyne,
)
from .estimation import (
    Diagnostics,
    EstimateResult,
    estimate,
    estimate_from_variances,
    extract_params,
    psd_project,
)
from .benchmark import (
    BenchmarkConfig,
    BenchmarkReport,
    expected_het_hs_error,
    expected_hom_hs_error,
    find_isotropic_crossover,
    gamma_analytic,
    gamma_map,
    run_benchmark,
)
from .gaussianity import GaussianityReport, kl_divergence, test_gaussianity
from .dataio import read_dataset, verify_file, write_dataset, write_report_json

__all__ = [
    "AngleProtocol",
    "BenchmarkConfig",
    "BenchmarkReport",
    "ConfigError",
    "CovMat",
    "DataFormatError",
    "DegenerateVariance",
    "DetectionModel",
    "Diagnostics",
    "EstimateResult",
    "GaussTomoError",
    "GaussianityReport",
    "HeterodyneDataset",
    "HomodyneDataset",
    "InvalidProtocol",
    "RaggedDataset",
    "SingularMatrix",
    "StateSpec",
    "TooFewSamples",
    "UnknownScheme",
    "Underdetermined",
    "conditional_variance",
    "estimate",
    "estimate_from_variances",
    "expected_het_hs_error",
    "expected_hom_hs_error",
    "extract_params",
    "find_isotropic_crossover",
    "gamma_analytic",
    "gamma_map",
    "hs_distance",
    "kl_divergence",
    "marginal_variance",
    "psd_project",
    "read_dataset",
    "run_benchmark",
    "sample_heterodyne",
    "sample_homodyne",
    "squeezing_db",
    "test_gaussianity",
    "thermal_photon_number",
    "thermalize_heterodyne",
    "thermalize_homodyne",
    "to_heterodyne_cov",
    "to_homodyne_cov",
    "verify_file",
    "wigner_cov",
    "write_dataset",
    "write_report_json",
]
