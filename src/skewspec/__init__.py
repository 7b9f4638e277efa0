"""Random anti-commuting Hermitian pairs and their skew spectra.

Library layout:

- :mod:`skewspec.matrixcore` — complex-matrix substrate (Hermitian checks,
  eigendecomposition, Haar unitaries);
- :mod:`skewspec.ensemble` — building, conjugating, and spectrally
  decomposing anti-commuting pairs;
- :mod:`skewspec.density` — the skew-spectrum density (``log_rho`` returns a
  float, -inf where the density vanishes), tau, its gradient, and the
  commuting-pair reference density;
- :mod:`skewspec.jacobian` — numerical verification of the parametrization
  Jacobian against its closed form;
- :mod:`skewspec.fekete` — maximal-likelihood configurations by projected
  gradient descent;
- :mod:`skewspec.sampler` — Metropolis sampling with quadrature validation;
- :mod:`skewspec.cli` — the ``skewspec`` command-line frontend.
"""

__version__ = "0.1.0"

from .density import (
    WeightSpec,
    grad_tau,
    log_kappa_commuting,
    log_rho,
    pair_factor_f,
    tau,
)
from .ensemble import (
    HermitianPair,
    NonGenericInput,
    SkewSpectrum,
    build_block_diag,
    conjugate,
    extract_skew_spectrum,
    random_generic_spectrum,
    sample_generic_pair,
)
from .fekete import (
    FeketeResult,
    OptimizerConfig,
    fekete_set,
    grid_initialization,
    minimize_commuting,
    minimize_tau,
    solve_K_bound,
    spacing_stats,
)
from .jacobian import (
    DegenerateJacobian,
    enumerate_tangent_basis,
    verify_density_shape,
)
from .matrixcore import frobenius_norm, haar_unitary, hermitian_eig
from .sampler import ChainReport, ks_compare, p1_quadrature_cdf, run_chain

__all__ = [
    "ChainReport",
    "DegenerateJacobian",
    "FeketeResult",
    "HermitianPair",
    "NonGenericInput",
    "OptimizerConfig",
    "SkewSpectrum",
    "WeightSpec",
    "build_block_diag",
    "conjugate",
    "enumerate_tangent_basis",
    "extract_skew_spectrum",
    "fekete_set",
    "frobenius_norm",
    "grad_tau",
    "grid_initialization",
    "haar_unitary",
    "hermitian_eig",
    "ks_compare",
    "log_kappa_commuting",
    "log_rho",
    "minimize_commuting",
    "minimize_tau",
    "p1_quadrature_cdf",
    "pair_factor_f",
    "random_generic_spectrum",
    "run_chain",
    "sample_generic_pair",
    "solve_K_bound",
    "spacing_stats",
    "tau",
    "verify_density_shape",
]
