"""Metropolis sampling of skew spectra.

A symmetric Gaussian random walk on the 2p coordinates targets the
unnormalized skew-spectrum density; proposals leaving the open quadrant
are rejected outright (the target vanishes there, so detailed balance is
preserved). Passing a retained spectrum, ``chain.spectrum(i)``, to
:func:`skewspec.ensemble.sample_generic_pair` yields a random ambient
anti-commuting pair with the chain's spectral marginal. At p = 1 each
coordinate's marginal CDF has a closed form, an incomplete gamma
function, which gives an exact law to validate the chain against.

The chain prefetches (Brockwell 2006, Parallel MCMC simulation by
pre-fetching): from the current state it evaluates the next few proposals
in one call of the density kernel, as if each were rejected, and keeps the
transitions up to the first acceptance. Transition t takes increment row t
and uniform t of two streams spawned from the seed, whether its proposal is
evaluated or not, so the chain is plain sequential Metropolis and its
output does not depend on the prefetch depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import UNREPRESENTABLE, WeightSpec, _kernel, _log_rho_of, log_rho
from .ensemble import SkewSpectrum
from .fekete import grid_initialization

ADAPT_WINDOW = 200
ACCEPT_TARGET_LOW = 0.2
ACCEPT_TARGET_HIGH = 0.4
KS_MIN_SAMPLES = 1000  # fewest samples for which the KS statistic is meaningful
PREFETCH_DEPTH = 8  # most proposals evaluated per kernel call
# pair terms per kernel call below which a call's cost is mostly numpy's
# per-call overhead; the depth falls from PREFETCH_DEPTH to 1 as p grows past it
PREFETCH_PAIR_TERMS = 2048
DRAW_BLOCK = 1024  # transitions whose increments and uniforms are drawn at once


def _prefetch_depth(p: int) -> int:
    """Proposals evaluated per kernel call at p points, from PREFETCH_DEPTH down to 1."""
    return max(1, min(PREFETCH_DEPTH, PREFETCH_PAIR_TERMS // max(1, p * (p - 1) // 2)))


@dataclass(frozen=True)
class ChainReport:
    """Retained (post burn-in, thinned) samples and chain statistics.

    ``kernel_calls`` counts the density kernel calls of the transitions, and
    ``adaptation`` holds one (step, window acceptance rate, scale from that
    step on) row per burn-in adaptation window.
    """

    samples: np.ndarray  # (n_samples, p, 2)
    acceptance_rate: float
    burn_in: int
    thinning: int
    step_scale: float
    kernel_calls: int = 0
    adaptation: tuple = ()

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def p(self) -> int:
        return self.samples.shape[1]

    @property
    def transitions(self) -> int:
        return self.burn_in + self.n_samples * self.thinning

    def spectrum(self, index: int) -> SkewSpectrum:
        return SkewSpectrum(self.samples[index])


def _prefetch(pts, log_density, proposals, log_u, w):
    """Metropolis transitions from ``pts`` over a batch of proposals, up to the first acceptance.

    Transition t of the batch accepts proposal t iff log_u[t] < log_rho(proposal t) -
    ``log_density``; all proposals are evaluated in one kernel call, as if every
    earlier one were rejected. Returns (transitions consumed, accepted, state,
    its log density). Raises FloatingPointError where a consumed proposal's
    density cannot be represented; a proposal past the acceptance never raises.
    """
    # a short batch is cheaper to decide in Python floats, the same doubles
    for k, terms in enumerate(zip(*_kernel(proposals).tolist())):
        candidate = _log_rho_of(terms, w)
        # a NaN candidate fails the comparison and so ends the batch too
        if not candidate - log_density <= log_u[k]:
            if math.isnan(candidate):
                raise FloatingPointError(UNREPRESENTABLE)
            return k + 1, True, proposals[k], candidate
    return len(proposals), False, pts, log_density


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
    acceptance rate covers the sampling phase only. Transition t accepts
    iff log u_t < log_rho(proposal_t) - log_rho(state), so a proposal
    outside the quadrant is a rejection; one whose density cannot be
    represented raises FloatingPointError.
    """
    if p < 1 or n_samples < 1:
        raise ValueError("p and n_samples must be >= 1")
    if burn_in is None:
        burn_in = 10_000 * p
    if thinning is None:
        thinning = 10 * p
    if burn_in < 0 or thinning < 1:
        raise ValueError("burn_in must be >= 0 and thinning >= 1")

    normal_seed, uniform_seed = np.random.SeedSequence(seed).spawn(2)
    normals, uniforms = np.random.default_rng(normal_seed), np.random.default_rng(uniform_seed)
    depth = _prefetch_depth(p)
    pts = np.array(grid_initialization(p).points)
    log_density = log_rho(pts, w)
    scale = 0.5
    total = burn_in + n_samples * thinning

    samples = np.empty((n_samples, p, 2))
    retained = 0
    next_retained = burn_in + thinning  # transitions made when the next sample is retained
    window_accepts = accepted_total = kernel_calls = 0
    adaptation = []
    made = block_end = 0
    while made < total:
        if made == block_end:
            steps = normals.standard_normal((DRAW_BLOCK, p, 2))
            with np.errstate(divide="ignore"):  # a uniform of 0 accepts any finite proposal
                log_u = np.log(uniforms.random(DRAW_BLOCK)).tolist()
            block_start, block_end = made, made + DRAW_BLOCK
        # a batch ends at an adaptation boundary, at the end of burn-in and
        # at the end of the drawn block
        stop = min(burn_in, (made // ADAPT_WINDOW + 1) * ADAPT_WINDOW) if made < burn_in else total
        first = made - block_start
        batch = min(depth, stop - made, block_end - made)
        proposals = pts + scale * steps[first : first + batch]
        before = pts
        batch_log_u = log_u[first : first + batch]
        consumed, accepted, pts, log_density = _prefetch(pts, log_density, proposals, batch_log_u, w)
        kernel_calls += 1
        made += consumed
        if made <= burn_in:
            window_accepts += accepted
            if made % ADAPT_WINDOW == 0:
                rate = window_accepts / ADAPT_WINDOW
                if rate > ACCEPT_TARGET_HIGH:
                    scale *= 1.2
                elif rate < ACCEPT_TARGET_LOW:
                    scale /= 1.2
                adaptation.append((made, rate, scale))
                window_accepts = 0
        else:
            accepted_total += accepted
            # states before the batch's last transition are the state it started from
            while next_retained <= made:
                samples[retained] = pts if next_retained == made else before
                retained += 1
                next_retained += thinning

    return ChainReport(
        samples=samples,
        acceptance_rate=accepted_total / (n_samples * thinning),
        burn_in=burn_in,
        thinning=thinning,
        step_scale=scale,
        kernel_calls=kernel_calls,
        adaptation=tuple(adaptation),
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
