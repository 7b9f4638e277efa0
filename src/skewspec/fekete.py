"""Maximal-likelihood (Fekete) point configurations.

Minimizes the negative log density ``tau`` over the open quadrant by
projected gradient descent with Armijo backtracking, starting from an
integer grid whose tau value is provably at most n^2. An a-priori length
bound K (any configuration with tau <= 4p^2 stays inside radius K) keeps
the iterates in a compact box. The same optimizer drives the commuting
reference case used for the figure comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .density import grad_tau, log_kappa_commuting, tau
from .ensemble import SkewSpectrum


# projected-gradient line search: the largest step, the Armijo constant,
# the backtracking factor, and the lower clamp of anti-mode coordinates
STEP_INIT = 0.1
ARMIJO_C = 1e-4
SHRINK = 0.5
BOUNDARY_FLOOR = 1e-8
K_TOL = 1e-6  # bisection width of the length bound K


@dataclass(frozen=True)
class OptimizerConfig:
    """Projected-gradient settings; defaults suit log-barrier landscapes."""

    max_iters: int = 50_000
    grad_tol: float | None = None  # None: 1e-6 * p at solve time
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.grad_tol is not None and not 0 <= self.grad_tol < math.inf:
            raise ValueError("grad_tol must be finite and nonnegative")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")


@dataclass(frozen=True)
class FeketeResult:
    """Optimized configuration with convergence bookkeeping.

    ``trace`` has one row per accepted iterate of the best restart:
    (iteration, tau, max point norm).
    """

    points: SkewSpectrum
    tau_final: float
    grad_norm_final: float
    iterations: int
    K_bound: float
    converged: bool
    trace: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CommutingResult:
    """Optimizer output for the commuting reference density."""

    points: np.ndarray
    tau_final: float
    grad_norm_final: float
    iterations: int
    converged: bool
    trace: np.ndarray = field(repr=False)


class SpacingStats(NamedTuple):
    nn_mean: float
    nn_cv: float
    max_norm: float


def grid_initialization(p: int) -> SkewSpectrum:
    """First p points (row-major) of the integer grid {1..q}^2, q minimal with q^2 >= p.

    By the two-sided pair-factor bound, tau of this set is at most n^2 = 4p^2.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    q = math.isqrt(p - 1) + 1
    pts = [(i, j) for i in range(1, q + 1) for j in range(1, q + 1)][:p]
    return SkewSpectrum(np.array(pts, dtype=float))


def _k_constraint_lhs(k: float, p: int) -> float:
    return 0.5 * k * k - (3 * p + 4 * p * p) * math.log(k) - 0.5 * p * p * math.log(400.0) - 4 * p * p


def solve_K_bound(p: int) -> float:
    """Smallest K >= 3p with (1/2)K^2 - (3p + 4p^2) log K - (p^2/2) log 400 - 4p^2 > 0.

    The left side is increasing in K on [3p, infinity), so bisection after
    doubling out a bracket finds the root; any configuration with
    tau <= 4p^2 then has all points of length at most K.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    lo = 3.0 * p
    if _k_constraint_lhs(lo, p) > 0:
        return lo
    hi = 2.0 * lo
    while _k_constraint_lhs(hi, p) <= 0:
        hi *= 2.0
    while hi - lo > K_TOL:
        mid = 0.5 * (lo + hi)
        if _k_constraint_lhs(mid, p) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def _max_norm(pts: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(pts, axis=1)))


def _tie_tol(value: float) -> float:
    # restart values within roundoff of each other count as ties, which the
    # earliest restart wins (deterministic merging)
    return 1e-12 * max(1.0, abs(value))


def _descend(z0, value_fn, grad_fn, lower, upper, config, grad_tol):
    """Projected gradient descent with Armijo backtracking on one start.

    Returns (points, value, grad_inf_norm, iterations, trace, converged);
    value is +inf when the start itself is infeasible.
    """
    z = np.clip(z0, lower, upper)
    f = value_fn(z)
    if not np.isfinite(f):
        return z, np.inf, np.inf, 0, np.zeros((0, 3)), False
    trace = [(0, f, _max_norm(z))]
    eta = STEP_INIT
    converged = False
    iteration = 0
    stalled = 0
    g = grad_fn(z)
    for iteration in range(1, config.max_iters + 1):
        gnorm = float(np.max(np.abs(g)))
        if gnorm <= grad_tol:
            converged = True
            iteration -= 1
            break
        # warm-started step: retry one notch above the last accepted step
        eta = min(STEP_INIT, eta / SHRINK)
        gsq = float(np.sum(g * g))
        accepted = False
        while eta > 1e-18:
            z_new = np.clip(z - eta * g, lower, upper)
            f_new = value_fn(z_new)
            if np.isfinite(f_new) and f_new <= f - ARMIJO_C * eta * gsq:
                accepted = True
                break
            eta *= SHRINK
        if not accepted:
            break
        # the required decrease can round to zero near the optimum; stop once
        # iterates cease to make numerical progress
        if np.array_equal(z_new, z):
            break
        stalled = stalled + 1 if f_new >= f else 0
        z, f = z_new, f_new
        if stalled >= 10:
            break
        g = grad_fn(z)
        trace.append((iteration, f, _max_norm(z)))
    gnorm = float(np.max(np.abs(grad_fn(z))))
    converged = converged or gnorm <= grad_tol
    return z, f, gnorm, iteration, np.array(trace), converged


def _multistart(start, perturb, value_fn, grad_fn, lower, upper, cfg):
    """Best ``_descend`` result over ``cfg.restarts`` starts.

    Restart 0 descends from ``start`` itself; restart r > 0 from
    ``perturb(start, rng)`` with the r-th stream spawned from the seed.
    The lowest value wins, ties resolved by restart index, so a fixed seed
    gives bit-identical output. The default gradient tolerance is 1e-6
    per point.
    """
    grad_tol = cfg.grad_tol if cfg.grad_tol is not None else 1e-6 * start.shape[0]
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best = None
    for r in range(cfg.restarts):
        z0 = start.copy() if r == 0 else perturb(start, np.random.default_rng(streams[r]))
        result = _descend(z0, value_fn, grad_fn, lower, upper, cfg, grad_tol)
        f = result[1]
        if np.isfinite(f) and (best is None or f < best[1] - _tie_tol(best[1])):
            best = result
    if best is None:
        raise RuntimeError("no restart reached a finite objective value")
    return best


def minimize_tau(p: int, config: OptimizerConfig | None = None, gamma: float = 1.0) -> FeketeResult:
    """Best local minimizer of tau over `restarts` perturbed grid starts.

    Restart 0 descends from the exact grid initialization; later restarts
    multiply it by log-normal noise (sigma = 0.1). The lowest tau wins,
    ties resolved by restart index, so a fixed seed gives bit-identical
    output. Points are returned sorted ascending in x.
    """
    cfg = config or OptimizerConfig()
    k_bound = solve_K_bound(p)
    z, f, gnorm, iters, trace, conv = _multistart(
        grid_initialization(p).points,
        lambda start, rng: start * np.exp(0.1 * rng.standard_normal(start.shape)),
        lambda z: tau(z, gamma),
        lambda z: grad_tau(z, gamma),
        BOUNDARY_FLOOR,
        k_bound,
        cfg,
    )
    order = np.argsort(z[:, 0], kind="stable")
    return FeketeResult(
        points=SkewSpectrum(z[order]),
        tau_final=float(f),
        grad_norm_final=gnorm,
        iterations=iters,
        K_bound=k_bound,
        converged=conv,
        trace=trace,
    )


def fekete_set(p: int, config: OptimizerConfig | None = None) -> SkewSpectrum:
    """Maximal-likelihood configuration rescaled by 1/sqrt(p)."""
    result = minimize_tau(p, config=config)
    return SkewSpectrum(result.points.points / np.sqrt(p))


def _commuting_grad(pts: np.ndarray, gamma: float) -> np.ndarray:
    """Gradient of -log_kappa_commuting; raises where the objective is infinite."""
    n = pts.shape[0]
    grad = 2.0 * gamma * pts
    if n > 1:
        diff = pts[:, None, :] - pts[None, :, :]
        dist2 = np.sum(diff * diff, axis=2)
        np.fill_diagonal(dist2, 1.0)
        if np.any(dist2 <= 0.0):
            raise ValueError("objective is infinite; gradient undefined")
        inv = 1.0 / dist2
        np.fill_diagonal(inv, 0.0)
        grad -= 2.0 * np.einsum("klj,kl->kj", diff, inv)
    return grad


def _commuting_grid(n: int) -> np.ndarray:
    q = math.isqrt(n - 1) + 1
    pts = np.array([(i, j) for i in range(1, q + 1) for j in range(1, q + 1)][:n], dtype=float)
    return pts - np.mean(pts, axis=0)


def minimize_commuting(
    n: int, d: int = 2, gamma: float = 0.5, config: OptimizerConfig | None = None
) -> CommutingResult:
    """Minimize the negative log of the commuting joint-eigenvalue density.

    No positivity constraint; iterates are clamped to the box of
    half-width 4 sqrt(n). gamma = 1/2 reproduces the reference circle of
    radius sqrt(2n) in the figure comparison. The points are planar: any
    ``d`` other than 2 is rejected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d != 2:
        raise ValueError(f"only planar (d = 2) configurations are supported, got d = {d}")
    cfg = config or OptimizerConfig()
    half_width = 4.0 * np.sqrt(n)
    z, f, gnorm, iters, trace, conv = _multistart(
        _commuting_grid(n),
        lambda start, rng: start + 0.1 * rng.standard_normal(start.shape),
        lambda z: -log_kappa_commuting(z, gamma),
        lambda z: _commuting_grad(z, gamma),
        -half_width,
        half_width,
        cfg,
    )
    order = np.lexsort(z.T[::-1])
    return CommutingResult(
        points=z[order],
        tau_final=float(f),
        grad_norm_final=gnorm,
        iterations=iters,
        converged=conv,
        trace=trace,
    )


def spacing_stats(points) -> SpacingStats:
    """Nearest-neighbor mean and coefficient of variation, plus the max norm."""
    pts = points.points if isinstance(points, SkewSpectrum) else np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("spacing statistics need at least 2 points")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(dist, np.inf)
    nn = np.min(dist, axis=1)
    nn_mean = float(np.mean(nn))
    nn_cv = float(np.std(nn) / nn_mean) if nn_mean > 0 else np.inf
    return SpacingStats(nn_mean=nn_mean, nn_cv=nn_cv, max_norm=_max_norm(pts))
