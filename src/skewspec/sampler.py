"""Metropolis sampling of skew spectra.

A symmetric Gaussian random walk on the 2p coordinates targets the
unnormalized skew-spectrum density; proposals leaving the open quadrant
are rejected outright (the target vanishes there, so detailed balance is
preserved). Passing a retained spectrum, ``chain.spectrum(i)``, to
:func:`skewspec.ensemble.sample_generic_pair` yields a random ambient
anti-commuting pair with the chain's spectral marginal. At p = 1 each
coordinate's marginal CDF has a closed form, an incomplete gamma
function, which gives an exact law to validate the chain against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import WeightSpec, log_rho
from .ensemble import SkewSpectrum
from .fekete import grid_initialization

ADAPT_WINDOW = 200
ACCEPT_TARGET_LOW = 0.2
ACCEPT_TARGET_HIGH = 0.4
KS_MIN_SAMPLES = 1000  # fewest samples for which the KS statistic is meaningful


@dataclass(frozen=True)
class ChainReport:
    """Retained (post burn-in, thinned) samples and chain statistics."""

    samples: np.ndarray  # (n_samples, p, 2)
    acceptance_rate: float
    burn_in: int
    thinning: int
    step_scale: float

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def p(self) -> int:
        return self.samples.shape[1]

    def spectrum(self, index: int) -> SkewSpectrum:
        return SkewSpectrum(self.samples[index])


def _propose_and_decide(pts, log_density, step_scale, w, rng):
    """One random-walk transition on raw coordinates; returns (pts, log, accepted)."""
    proposal = pts + step_scale * rng.standard_normal(pts.shape)
    # log_rho is not finite outside the open quadrant, so such a proposal
    # is rejected without drawing a uniform
    candidate = log_rho(proposal, w)
    if not math.isfinite(candidate):
        return pts, log_density, False
    delta = candidate - log_density
    if delta >= 0.0 or np.log(rng.uniform()) < delta:
        return proposal, candidate, True
    return pts, log_density, False


def run_chain(
    p: int,
    w: WeightSpec,
    n_samples: int,
    burn_in: int | None = None,
    thinning: int | None = None,
    seed: int = 0,
) -> ChainReport:
    """Run a random-walk chain and return thinned post burn-in samples.

    During burn-in the proposal scale adapts every 200 steps toward an
    acceptance rate of 0.3 +/- 0.1 and is frozen afterwards, so the
    retained samples come from a fixed (reversible) kernel. The reported
    acceptance rate covers the sampling phase only.
    """
    if p < 1 or n_samples < 1:
        raise ValueError("p and n_samples must be >= 1")
    if burn_in is None:
        burn_in = 10_000 * p
    if thinning is None:
        thinning = 10 * p
    if burn_in < 0 or thinning < 1:
        raise ValueError("burn_in must be >= 0 and thinning >= 1")

    rng = np.random.default_rng(seed)
    pts = np.array(grid_initialization(p).points)
    log_density = log_rho(pts, w)
    scale = 0.5

    window_accepts = 0
    for step in range(1, burn_in + 1):
        pts, log_density, accepted = _propose_and_decide(pts, log_density, scale, w, rng)
        window_accepts += int(accepted)
        if step % ADAPT_WINDOW == 0:
            rate = window_accepts / ADAPT_WINDOW
            if rate > ACCEPT_TARGET_HIGH:
                scale *= 1.2
            elif rate < ACCEPT_TARGET_LOW:
                scale /= 1.2
            window_accepts = 0

    samples = np.empty((n_samples, p, 2))
    accepted_total = 0
    proposed_total = 0
    for i in range(n_samples):
        for _ in range(thinning):
            pts, log_density, accepted = _propose_and_decide(pts, log_density, scale, w, rng)
            accepted_total += int(accepted)
            proposed_total += 1
        samples[i] = pts

    return ChainReport(
        samples=samples,
        acceptance_rate=accepted_total / proposed_total,
        burn_in=burn_in,
        thinning=thinning,
        step_scale=scale,
    )


# numpy has no erfc, and the runtime dependency is numpy only
_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class P1Marginal:
    """The exact law of either coordinate of the p = 1 density.

    Integrating e^{-gamma r^2} x y r over y leaves
    x Gamma(3/2, gamma x^2) / (2 gamma^{3/2}), so with s = sqrt(gamma) t the CDF is
    erf(s) - (2/sqrt(pi)) s e^{-s^2} + (2/3) s^2 erfc(s). The density is
    symmetric in x and y, so both coordinates share it. ``normalization``
    is 1 over the integrand's mass on the quadrant, 16 gamma^{5/2} / (3 sqrt(pi)).
    ``cdf`` evaluates 1 minus the upper tail, which keeps it monotone where
    it rounds to 1.
    """

    gamma: float
    normalization: float

    def cdf(self, t) -> np.ndarray:
        s = math.sqrt(self.gamma) * np.asarray(t, dtype=float)
        upper = (1.0 - 2.0 / 3.0 * s * s) * _erfc(s) + 2.0 / math.sqrt(math.pi) * s * np.exp(-s * s)
        return 1.0 - upper


def p1_quadrature_cdf(w: WeightSpec) -> P1Marginal:
    """The exact marginal law of the p = 1 density under ``w``."""
    return P1Marginal(gamma=w.gamma, normalization=16.0 * w.gamma**2.5 / (3.0 * math.sqrt(math.pi)))


class KSResult(NamedTuple):
    x: float
    y: float


def _ks_statistic(data: np.ndarray, cdf) -> float:
    d = np.sort(data)
    ref = cdf(d)
    n = d.size
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - ref), np.max(ref - (steps - 1.0 / n))))


def ks_compare(chain: ChainReport, law: P1Marginal) -> KSResult:
    """One-sample KS statistics of both marginals of a p = 1 chain against the exact marginal CDF.

    At least ``KS_MIN_SAMPLES`` retained samples are required.
    """
    if chain.p != 1:
        raise ValueError("KS comparison is defined for p = 1 chains")
    if chain.n_samples < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples, got {chain.n_samples}")
    data = chain.samples[:, 0, :]
    return KSResult(x=_ks_statistic(data[:, 0], law.cdf), y=_ks_statistic(data[:, 1], law.cdf))
