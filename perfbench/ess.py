"""Effective sample size by Geyer's initial positive sequence estimator.

Geyer (1992), "Practical Markov chain Monte Carlo", Statistical Science 7.
The normalised autocorrelations rho_t are summed in adjacent pairs
Gamma_k = rho_{2k} + rho_{2k+1}; for a reversible chain the true Gamma_k are
positive and decreasing, so the sum is truncated at the first pair that is
not positive. The integrated autocorrelation time is
tau = -1 + 2 * sum_{k < m} Gamma_k and the effective sample size is n / tau.
"""

from __future__ import annotations

import numpy as np


def autocovariance(x) -> np.ndarray:
    """Biased sample autocovariance at lags 0..n-1, by zero-padded FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centred = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, size)
    return np.fft.irfft(spectrum * np.conj(spectrum), size)[:n] / n


def geyer_ess(x) -> float:
    """Effective sample size of one scalar chain."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError("need a 1-d series of at least 4 values")
    if not np.all(np.isfinite(x)):
        raise ValueError("series has non-finite values")
    acov = autocovariance(x)
    if acov[0] <= 0.0:
        raise ValueError("series is constant")
    rho = acov / acov[0]
    half = x.size // 2
    pairs = rho[0 : 2 * half : 2] + rho[1 : 2 * half : 2]
    nonpositive = np.flatnonzero(pairs <= 0.0)
    m = int(nonpositive[0]) if nonpositive.size else pairs.size
    tau = -1.0 + 2.0 * float(np.sum(pairs[:m]))
    return x.size / tau
