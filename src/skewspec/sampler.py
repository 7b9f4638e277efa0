"""Metropolis sampling of skew spectra.

A symmetric Gaussian random walk on the 2p coordinates targets the
unnormalized skew-spectrum density; proposals leaving the open quadrant
are rejected outright (the target vanishes there, so detailed balance is
preserved). Passing a retained spectrum, ``chain.spectrum(i)``, to
:func:`skewspec.ensemble.sample_generic_pair` yields a random ambient
anti-commuting pair with the chain's spectral marginal. Two exact laws
validate the chains: at p = 1 each coordinate's marginal CDF has a closed
form, an incomplete gamma function (:func:`ks_compare`), and at every p the
density is e^{-gamma R} times a factor homogeneous of degree 4p^2 - p, so
R = sum_k |z_k|^2 is Gamma((4p^2 + p)/2, rate gamma) (:func:`radial_ks`).

The sampler runs K independent chains from the grid start as one (K, p, 2)
stack, and step t of chain k takes increment [t, k] and uniform [t, k] of
two streams spawned from the seed. Each step proposes for every chain,
makes one call of the density kernel and decides the K proposals together
(:func:`_step`), so every evaluated proposal is a transition. K is
MAX_CHAINS while the K proposals fit one pass of the kernel, as they do at
p = 1, and falls to 1 as p grows (see density.stack_size). Split R-hat
across the K chains (:func:`split_rhat`) checks that they forget their
common start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import WeightSpec, _kernel, _log_rho_of, log_rho, stack_size
from .ensemble import SkewSpectrum
from .fekete import grid_initialization

ADAPT_WINDOW = 200  # fewest transitions, pooled over the chains, between two adaptations
ACCEPT_TARGET_LOW = 0.2
ACCEPT_TARGET_HIGH = 0.4
KS_MIN_SAMPLES = 1000  # fewest samples for which the KS statistic is meaningful
GAMMA_TOL = 1e-15  # relative size of the last term or factor of the incomplete gamma's expansions
MAX_CHAINS = 64  # most chains stepped as one stack
DRAW_BLOCK = 1024  # transitions whose increments and uniforms are drawn at once


@dataclass(frozen=True)
class ChainReport:
    """Retained (post burn-in, thinned) samples and chain statistics.

    ``chains`` independent chains (K) ran side by side: each took
    ceil(burn_in / K) burn-in steps, then retained ceil(n_samples / K)
    states, one every ``thinning`` steps. Row i of ``samples`` is chain
    i mod K at its (i div K)-th retained state; the surplus of the last
    retention is dropped. ``adaptation`` holds one (transitions made, window
    acceptance rate, scale from then on) row per burn-in adaptation window,
    pooled over the chains.
    """

    samples: np.ndarray  # (n_samples, p, 2)
    acceptance_rate: float
    burn_in: int
    thinning: int
    step_scale: float
    chains: int = 1
    adaptation: tuple = ()

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def p(self) -> int:
        return self.samples.shape[1]

    @property
    def transitions(self) -> int:
        """Transitions made over all chains, the surplus of the last retention included."""
        burn, kept = -(-self.burn_in // self.chains), -(-self.n_samples // self.chains)
        return self.chains * (burn + kept * self.thinning)

    @property
    def kernel_calls(self) -> int:
        """Density kernel calls of the transitions: one a step, for all K chains."""
        return self.transitions // self.chains

    def spectrum(self, index: int) -> SkewSpectrum:
        return SkewSpectrum(self.samples[index])


def _adapted(scale: float, rate: float) -> float:
    """The proposal scale after a burn-in window whose acceptance rate was ``rate``."""
    if rate > ACCEPT_TARGET_HIGH:
        return scale * 1.2
    if rate < ACCEPT_TARGET_LOW:
        return scale / 1.2
    return scale


def _step(states, log_density, proposal, log_u, w):
    """One Metropolis step of K chains, one kernel call for the K proposals: the number of acceptances.

    Chain k moves to ``proposal[k]`` iff log_u[k] < log_rho(proposal[k]) -
    log_rho(states[k]), so a proposal off the quadrant is a rejection and
    log u = -inf accepts any finite proposal. ``states`` (K, p, 2) and
    ``log_density`` (K,) are updated in place. Raises FloatingPointError
    where a proposal's density cannot be represented.
    """
    candidate = _log_rho_of(_kernel(proposal), w)
    accepted = log_u < candidate - log_density
    np.copyto(states, proposal, where=accepted[:, None, None])
    np.copyto(log_density, candidate, where=accepted)
    return int(np.count_nonzero(accepted))


def run_chain(
    p: int,
    w: WeightSpec,
    n_samples: int,
    burn_in: int | None = None,
    thinning: int | None = None,
    seed: int = 0,
) -> ChainReport:
    """Run random-walk chains and return thinned post burn-in samples.

    ``burn_in``, ``n_samples`` and ``thinning`` set the total transition
    budget, which the K chains share (see :class:`ChainReport`). During
    burn-in the proposal scale adapts toward an acceptance rate of 0.3 +/-
    0.1 after each window of the fewest whole steps holding 200 transitions,
    and is frozen afterwards, so the retained samples come from a fixed
    (reversible) kernel. The reported acceptance rate covers the sampling
    phase only. A transition accepts iff log u < log_rho(proposal) -
    log_rho(state), so a proposal outside the quadrant is a rejection; one
    whose density cannot be represented raises FloatingPointError, as does
    a start whose weight underflows.
    """
    if p < 1 or n_samples < 1:
        raise ValueError("p and n_samples must be >= 1")
    if burn_in is None:
        burn_in = 10_000 * p
    if thinning is None:
        thinning = 10 * p
    if burn_in < 0 or thinning < 1:
        raise ValueError("burn_in must be >= 0 and thinning >= 1")

    k = min(n_samples, MAX_CHAINS, stack_size(p))
    burn, kept = -(-burn_in // k), -(-n_samples // k)  # steps of burn-in, states retained per chain
    total, window, block = burn + kept * thinning, -(-ADAPT_WINDOW // k), max(1, DRAW_BLOCK // k)
    normal_seed, uniform_seed = np.random.SeedSequence(seed).spawn(2)
    normals, uniforms = np.random.default_rng(normal_seed), np.random.default_rng(uniform_seed)
    start = np.array(grid_initialization(p).points)
    start_density = log_rho(start, w)
    if start_density == -math.inf:  # gamma sum_k |z_k|^2 overflows
        raise FloatingPointError("the density at the grid start cannot be represented at this gamma")
    states, log_density = np.repeat(start[None], k, axis=0), np.full(k, start_density)
    scale = 0.5

    samples = []  # the (K, p, 2) states of each retention
    adaptation = []
    accepts = 0  # acceptances in the current adaptation window, then in the sampling phase
    for step in range(1, total + 1):
        row = (step - 1) % block
        if row == 0:
            steps = normals.standard_normal((block, k, p, 2))
            with np.errstate(divide="ignore"):  # a uniform of 0 accepts any finite proposal
                log_u = np.log(uniforms.random((block, k)))
        accepts += _step(states, log_density, scale * steps[row] + states, log_u[row], w)
        if step <= burn:
            if step % window == 0:
                rate = accepts / (window * k)
                scale = _adapted(scale, rate)
                adaptation.append((step * k, rate, scale))
            if step % window == 0 or step == burn:
                accepts = 0  # the next window, or the sampling phase, counts afresh
        elif (step - burn) % thinning == 0:
            samples.append(states.copy())

    rows = np.reshape(samples, (-1, p, 2))[:n_samples]
    acceptance = accepts / (k * kept * thinning)
    return ChainReport(rows, acceptance, burn_in, thinning, scale, chains=k, adaptation=tuple(adaptation))


# numpy has no erfc, and the runtime dependency is numpy only
_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class P1Marginal:
    """The exact law of either coordinate of the p = 1 density.

    Integrating e^{-gamma r^2} x y r over y leaves
    x Gamma(3/2, gamma x^2) / (2 gamma^{3/2}), so with s = sqrt(gamma) t the CDF is
    erf(s) - (2/sqrt(pi)) s e^{-s^2} + (2/3) s^2 erfc(s). The density is
    symmetric in x and y, so both coordinates share it. ``log_normalization``
    is minus the log of the integrand's mass on the quadrant,
    log(16 / (3 sqrt(pi))) + (5/2) log gamma.
    ``cdf`` evaluates 1 minus the upper tail, which keeps it monotone where
    it rounds to 1.
    """

    gamma: float
    log_normalization: float

    def cdf(self, t) -> np.ndarray:
        s = math.sqrt(self.gamma) * np.asarray(t, dtype=float)
        upper = (1.0 - 2.0 / 3.0 * s * s) * _erfc(s) + 2.0 / math.sqrt(math.pi) * s * np.exp(-s * s)
        return 1.0 - upper


def p1_quadrature_cdf(w: WeightSpec) -> P1Marginal:
    """The exact marginal law of the p = 1 density under ``w``."""
    return P1Marginal(w.gamma, math.log(16.0 / (3.0 * math.sqrt(math.pi))) + 2.5 * math.log(w.gamma))


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


@np.errstate(divide="ignore")  # P(a, 0) = 0 from a log of 0
def _gamma_p(a: float, x) -> np.ndarray:
    """The regularized lower incomplete gamma function P(a, x) at each x >= 0.

    Numerical Recipes (Press et al.), section 6.2: where x < a + 1 the series
    P = x^a e^-x / Gamma(a + 1) * sum_n x^n / ((a + 1) ... (a + n)), and
    elsewhere 1 - Q with Q's continued fraction, evaluated by Lentz's method;
    each runs until its last term or factor moves every element by less than
    GAMMA_TOL of itself.
    """
    x = np.asarray(x, dtype=float)
    front = np.exp(a * np.log(x) - x - math.lgamma(a))  # x^a e^-x / Gamma(a)
    low = x < a + 1.0
    out = np.empty_like(x)

    s = x[low]
    term = total = np.full(s.shape, 1.0 / a)
    n = a
    while np.any(term > GAMMA_TOL * total):
        n += 1.0
        term = term * s / n
        total = total + term
    out[low] = front[low] * total

    b = x[~low] + 1.0 - a
    c, d = np.full(b.shape, np.inf), 1.0 / b
    fraction, factor, i = d, 0.0, 0
    while np.any(np.abs(factor - 1.0) >= GAMMA_TOL):
        i += 1
        an = -i * (i - a)
        b = b + 2.0
        c, d = b + an / c, 1.0 / (an * d + b)
        factor = c * d
        fraction = fraction * factor
    out[~low] = 1.0 - front[~low] * fraction
    return out


def radial_ks(chain: ChainReport, w: WeightSpec) -> float:
    """KS statistic of R = sum_k |z_k|^2 over a chain's samples against its exact law, at any p.

    The density is e^{-gamma R} times a factor homogeneous of degree 4p^2 - p
    on the 2p coordinates, so R is independent of the direction and
    Gamma((4p^2 + p)/2, rate gamma).
    """
    shape = (4 * chain.p**2 + chain.p) / 2
    radial = np.sum(chain.samples * chain.samples, axis=(1, 2))
    return _ks_statistic(radial, lambda r: _gamma_p(shape, w.gamma * r))


def split_rhat(chain: ChainReport) -> dict[str, float | None]:
    """Split R-hat across the K chains of R = sum_k |z_k|^2, the least x_k and the largest |z_k|.

    The form of Gelman et al., *Bayesian Data Analysis* (3rd ed., section
    11.4); the rank-normalised form (Vehtari et al. 2021) needs an inverse
    normal CDF, which numpy lacks. Each chain's whole retentions are cut
    into a first and a last half of m draws; with W the mean variance within
    the 2K halves and B/m the variance of their means, R-hat =
    sqrt(((m - 1)/m W + B/m) / W). It is near 1 where the chains have
    forgotten their start, and None where m < 2 or every half is constant.
    """
    k = chain.chains
    whole = chain.samples[: chain.n_samples // k * k]
    squares = np.sum(whole * whole, axis=2)  # (n K, p) of |z_k|^2
    statistics = {
        "R": np.sum(squares, axis=1),
        "least_x": np.min(whole[:, :, 0], axis=1),
        "max_norm": np.sqrt(np.max(squares, axis=1)),
    }
    rhat, m = dict.fromkeys(statistics), len(whole) // k // 2
    for name, values in statistics.items():
        draws = values.reshape(-1, k)
        halves = np.concatenate([draws[:m], draws[len(draws) - m :]], axis=1)
        # a constant half's variance may round to above 0, so test the range
        if m >= 2 and np.any(np.ptp(halves, axis=0)):
            within, between = np.mean(np.var(halves, axis=0, ddof=1)), np.var(np.mean(halves, axis=0), ddof=1)
            rhat[name] = math.sqrt(((m - 1) / m * within + between) / within)
    return rhat
