"""Random anti-commuting Hermitian pairs and their skew spectra.

Library layout:

- :mod:`skewspec.matrixcore` — complex-matrix substrate (Hermitian checks,
  eigendecomposition, Haar unitaries);
- :mod:`skewspec.ensemble` — building, conjugating, and spectrally
  decomposing anti-commuting pairs;
- :mod:`skewspec.density` — the skew-spectrum density (``log_rho`` returns a
  float, -inf where the density vanishes), tau and its gradient from one
  pass over the pairs, and the commuting-pair reference density from the
  same pair kernel;
- :mod:`skewspec.jacobian` — numerical verification of the parametrization
  Jacobian against its closed form, from a tangent basis held as labels and
  one array of skew-Hermitian generators;
- :mod:`skewspec.fekete` — maximal-likelihood configurations by
  unconstrained L-BFGS;
- :mod:`skewspec.sampler` — Metropolis sampling, K chains in one kernel
  call, validated at p = 1 against the exact marginal CDF and at every p
  against the exact law of sum |z_k|^2 and by split R-hat across the chains
  (``sample_generic_pair(chain.spectrum(i))`` gives an ambient pair);
- :mod:`skewspec.cli` — the ``skewspec`` command-line frontend.
"""

__version__ = "0.6.0"

from .density import (
    WeightSpec,
    grad_tau,
    log_kappa_and_grad,
    log_rho,
    pair_factor_f,
    tau,
    tau_and_grad,
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
from .sampler import ChainReport, ks_compare, p1_quadrature_cdf, radial_ks, run_chain, split_rhat

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
    "log_kappa_and_grad",
    "log_rho",
    "minimize_commuting",
    "minimize_tau",
    "p1_quadrature_cdf",
    "pair_factor_f",
    "radial_ks",
    "random_generic_spectrum",
    "run_chain",
    "sample_generic_pair",
    "solve_K_bound",
    "spacing_stats",
    "split_rhat",
    "tau",
    "tau_and_grad",
    "verify_density_shape",
]
