"""Metropolis sampling of skew spectra.

A symmetric Gaussian random walk on the 2p coordinates targets the
unnormalized skew-spectrum density; proposals leaving the open quadrant
are rejected outright (the target vanishes there, so detailed balance is
preserved). Passing a retained spectrum, ``chain.spectrum(i)``, to
:func:`skewspec.ensemble.sample_generic_pair` yields a random ambient
anti-commuting pair with the chain's spectral marginal. At p = 1 the
density is cheap to integrate on a grid, which gives an independent CDF
to validate the chain against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .density import WeightSpec, log_rho
from .ensemble import SkewSpectrum
from .fekete import grid_initialization

ADAPT_WINDOW = 200
ACCEPT_TARGET_LOW = 0.2
ACCEPT_TARGET_HIGH = 0.4


@dataclass(frozen=True)
class ChainReport:
    """Retained (post burn-in, thinned) samples and chain statistics."""

    samples: np.ndarray  # (n_samples, p, 2)
    acceptance_rate: float
    burn_in: int
    thinning: int
    seed: int
    step_scale: float = field(default=0.0)

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
        seed=seed,
        step_scale=scale,
    )


@dataclass(frozen=True)
class QuadratureTable:
    """Marginal CDFs of the p = 1 density on the grid of [0, L], with its normalization constant."""

    grid: np.ndarray
    cdf_x: np.ndarray
    cdf_y: np.ndarray
    normalization: float
    box_size: float
    gamma: float


def _p1_integrand(x, y, gamma):
    r2 = x * x + y * y
    return np.exp(-gamma * r2) * x * y * np.sqrt(r2)


def _cumulative_trapezoid(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    mids = 0.5 * h * (np.take(values, range(1, values.shape[axis]), axis=axis)
                      + np.take(values, range(0, values.shape[axis] - 1), axis=axis))
    out = np.cumsum(mids, axis=axis)
    pad = [(0, 0)] * values.ndim
    pad[axis] = (1, 0)
    return np.pad(out, pad)


def p1_quadrature_cdf(w: WeightSpec, grid_resolution: int = 512) -> QuadratureTable:
    """Trapezoid quadrature of the p = 1 density with normalization.

    The box [0, L]^2 is grown by doubling until the mass outside it
    (bounded by the radial tail of the integrand over the quarter plane)
    is below 1e-10 of the total.
    """
    if grid_resolution < 64:
        raise ValueError("grid_resolution must be >= 64")
    gamma = w.gamma

    # radial form: integral over the quarter plane of e^{-g r^2} r^4 cos sin
    def radial_mass(lo: float) -> float:
        r = np.linspace(lo, lo + 14.0 / np.sqrt(gamma), 4096)
        return 0.5 * float(np.trapezoid(np.exp(-gamma * r * r) * r**4, r))

    total = radial_mass(0.0)
    box = 2.0 / np.sqrt(gamma)
    while radial_mass(box) > 1e-10 * total:
        box *= 2.0

    t = np.linspace(0.0, box, grid_resolution)
    h = t[1] - t[0]
    values = _p1_integrand(t[:, None], t[None, :], gamma)
    joint = _cumulative_trapezoid(_cumulative_trapezoid(values, h, 0), h, 1)
    mass = joint[-1, -1]
    # the marginal CDFs are the last column and the last row of the joint one
    cdf_x = joint[:, -1] / mass
    cdf_y = joint[-1, :] / mass
    cdf_x /= cdf_x[-1]
    cdf_y /= cdf_y[-1]
    return QuadratureTable(
        grid=t,
        cdf_x=cdf_x,
        cdf_y=cdf_y,
        normalization=1.0 / float(mass),
        box_size=float(box),
        gamma=gamma,
    )


class KSResult(NamedTuple):
    x: float
    y: float


def _ks_statistic(data: np.ndarray, grid: np.ndarray, cdf: np.ndarray) -> float:
    d = np.sort(data)
    ref = np.interp(d, grid, cdf)
    n = d.size
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - ref), np.max(ref - (steps - 1.0 / n))))


def ks_compare(samples, table: QuadratureTable) -> KSResult:
    """One-sample KS statistics of both marginals against the quadrature CDF.

    ``samples`` is a ChainReport at p = 1 or an (m, 2) array; at least
    1000 samples are required for the statistic to be meaningful.
    """
    if isinstance(samples, ChainReport):
        if samples.p != 1:
            raise ValueError("KS comparison is defined for p = 1 chains")
        data = samples.samples[:, 0, :]
    else:
        data = np.asarray(samples, dtype=float)
        if data.ndim == 3 and data.shape[1] == 1:
            data = data[:, 0, :]
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"expected (m, 2) samples, got shape {data.shape}")
    if data.shape[0] < 1000:
        raise ValueError(f"need at least 1000 samples, got {data.shape[0]}")
    return KSResult(
        x=_ks_statistic(data[:, 0], table.grid, table.cdf_x),
        y=_ks_statistic(data[:, 1], table.grid, table.cdf_y),
    )
