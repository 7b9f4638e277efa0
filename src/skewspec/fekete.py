"""Maximal-likelihood (Fekete) point configurations.

Minimizes the negative log density ``tau`` over the open quadrant by
L-BFGS (the two-loop recursion of Liu and Nocedal, 1989) with Armijo
backtracking, one value-and-gradient pass per trial point, starting from
an integer grid whose tau value is provably at most n^2. Nothing clamps
the iterates: tau is +inf off the open quadrant, so the line search
rejects a trial point there, and both objectives are coercive, so a
descent stays in a compact sublevel set. The same optimizer drives the
commuting reference case used for the figure comparison.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .density import _objective
from .ensemble import SkewSpectrum


# L-BFGS: the steepest-descent step taken while no curvature pair is
# stored, the number of pairs kept, the Armijo constant, and the
# backtracking factor
STEP_INIT = 0.1
LBFGS_MEMORY = 10
ARMIJO_C = 1e-4
SHRINK = 0.5
K_TOL = 1e-6  # bisection width of the length bound K
DEFAULT_GAMMA = {"anti": 1.0, "commuting": 0.5}  # confinement coefficient of each mode when none is given


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer settings; defaults suit log-barrier landscapes."""

    max_iters: int = 50_000
    grad_tol: float | None = None  # None: 1e-6 per point, scaled with gamma at solve time
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.grad_tol is not None and not 0 <= self.grad_tol < math.inf:
            raise ValueError("grad_tol must be finite and nonnegative")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")


@dataclass(frozen=True)
class FeketeResult:
    """Optimized configuration with convergence bookkeeping, in either mode.

    ``points`` is a SkewSpectrum in anti mode and an (n, 2) array in
    commuting mode, where ``K_bound`` is None. ``trace`` has one row per
    accepted iterate of the best restart: (iteration, objective, max point
    norm).
    """

    points: SkewSpectrum | np.ndarray
    tau_final: float
    grad_norm_final: float
    iterations: int
    converged: bool
    trace: np.ndarray = field(repr=False)
    K_bound: float | None = None


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
    # in doubles throughout, so a p whose 4 p^2 leaves their range gives inf, not OverflowError
    lhs = 0.5 * k * k - (3.0 * p + 4.0 * p * p) * math.log(k) - 0.5 * p * p * math.log(400.0) - 4.0 * p * p
    if not math.isfinite(lhs):
        raise FloatingPointError("the length-bound constraint is not finite in double precision at this p")
    return lhs


def solve_K_bound(p: int) -> float:
    """Smallest K >= 3p with (1/2)K^2 - (3p + 4p^2) log K - (p^2/2) log 400 - 4p^2 > 0.

    The left side is increasing in K on [3p, infinity), so bisection after
    doubling out a bracket finds the root; any configuration with
    tau <= 4p^2 then has all points of length at most K. Raises
    FloatingPointError where the constraint is not finite in double precision.
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
        if not lo < mid < hi:
            break  # lo and hi are adjacent doubles
        if _k_constraint_lhs(mid, p) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def _max_norm(pts: np.ndarray) -> float:
    # what np.linalg.norm(pts, axis=1).max() gives: sqrt commutes with max
    return math.sqrt(np.add.reduce(pts * pts, axis=1).max())


def _tie_tol(value: float) -> float:
    # restart values within roundoff of each other count as ties, which the
    # earliest restart wins (deterministic merging)
    return 1e-12 * max(1.0, abs(value))


def _two_loop(g, memory):
    """The L-BFGS direction -H g from the (s, y, 1 / s.y) pairs in ``memory``, oldest first."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alpha = rho * np.vdot(s, q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, _ = memory[-1]
    q *= np.vdot(s, y) / np.vdot(y, y)
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        q += (alpha - rho * np.vdot(y, q)) * s
    return -q


def _line_search(fun, z, f, g, direction, eta):
    """Backtrack from ``eta`` along ``direction`` until the step passes Armijo.

    A trial point where the objective is not finite (off the open quadrant
    in anti mode) is rejected like any other. Returns (z_new, f_new,
    g_new), or None when no step down to 1e-18 does.
    """
    while eta > 1e-18:
        z_new = z + eta * direction
        f_new, g_new = fun(z_new)
        # the rounded step must still point downhill, so the trace never rises
        slope = float(np.vdot(g, z_new - z))
        if np.isfinite(f_new) and slope < 0.0 and f_new <= f + ARMIJO_C * slope:
            return z_new, f_new, g_new
        eta *= SHRINK
    return None


def _descend(z, fun, config, grad_tol):
    """L-BFGS with Armijo backtracking on one start.

    ``fun(z)`` returns (value, gradient), the gradient None where the
    value is infinite. The quasi-Newton step is tried first at unit
    length; where it is no descent direction or its line search fails,
    the memory resets and a steepest-descent step from ``STEP_INIT`` is
    taken instead. Returns a :class:`FeketeResult` without ``K_bound``.
    """
    f, g = fun(z)
    trace = [(0, f, _max_norm(z))]
    memory = deque(maxlen=LBFGS_MEMORY)  # (step, gradient change, 1 / curvature) triples
    iteration = 0
    stalled = 0
    for iteration in range(1, config.max_iters + 1):
        if float(np.max(np.abs(g))) <= grad_tol:
            iteration -= 1
            break
        found = None
        if memory:
            direction = _two_loop(g, memory)
            if np.vdot(g, direction) < 0.0:
                found = _line_search(fun, z, f, g, direction, 1.0)
        if found is None:
            memory.clear()
            found = _line_search(fun, z, f, g, -g, STEP_INIT)
            if found is None:
                break
        z_new, f_new, g_new = found
        # the required decrease can round to zero near the optimum; stop once
        # iterates cease to make numerical progress
        stalled = stalled + 1 if f_new >= f else 0
        step, change = z_new - z, g_new - g
        curvature = float(np.vdot(step, change))
        if curvature > 0.0:
            memory.append((step, change, 1.0 / curvature))
        z, f, g = z_new, f_new, g_new
        trace.append((iteration, f, _max_norm(z)))
        if stalled >= 10:
            break
    gnorm = float(np.max(np.abs(g)))
    return FeketeResult(z, float(f), gnorm, iteration, gnorm <= grad_tol, np.array(trace))


def _multistart(start, perturb, cfg, c, commuting):
    """Best ``_descend`` result over ``cfg.restarts`` starts, on :func:`density._objective` at weight c.

    Restart 0 descends from ``start`` itself; restart r > 0 from
    ``perturb(start, rng)`` with the r-th stream spawned from the seed.
    The lowest value wins, ties resolved by restart index, so a fixed seed
    gives bit-identical output. The default gradient tolerance is 1e-6
    per point at c = 1/2, the default of both modes, times sqrt(2c): the
    objective at c is the objective at 1/2 of a copy rescaled by sqrt(2c),
    plus a constant, so its gradient carries that factor and every c stops
    at the same relative accuracy. A start's objective is finite or
    raises, since its points are distinct, and positive in anti mode, so
    its density does not vanish.
    """
    grad_tol = 1e-6 * start.shape[0] * math.sqrt(2.0 * c) if cfg.grad_tol is None else cfg.grad_tol
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best = None
    for r in range(cfg.restarts):
        z0 = start.copy() if r == 0 else perturb(start, np.random.default_rng(streams[r]))
        result = _descend(z0, lambda z: _objective(z, c, commuting), cfg, grad_tol)
        if best is None or result.tau_final < best.tau_final - _tie_tol(best.tau_final):
            best = result
    return best


def minimize_tau(p: int, config: OptimizerConfig | None = None, gamma: float = DEFAULT_GAMMA["anti"]) -> FeketeResult:
    """Best local minimizer of tau over `restarts` perturbed grid starts.

    Restart 0 descends from the exact grid initialization; later restarts
    multiply it by log-normal noise (sigma = 0.1). The lowest tau wins,
    ties resolved by restart index, so a fixed seed gives bit-identical
    output. Points are returned sorted ascending in x. ``K_bound`` is the
    length bound at ``gamma``: tau at gamma is tau at 1 of sqrt(gamma) z
    plus a constant, so the bound scales as 1/sqrt(gamma).
    """
    cfg = config or OptimizerConfig()
    k_bound = solve_K_bound(p) / math.sqrt(gamma)
    result = _multistart(
        grid_initialization(p).points,
        lambda start, rng: start * np.exp(0.1 * rng.standard_normal(start.shape)),
        cfg,
        c=0.5 * gamma,
        commuting=False,
    )
    z = result.points
    return replace(result, points=SkewSpectrum(z[np.argsort(z[:, 0], kind="stable")]), K_bound=k_bound)


def fekete_set(p: int, config: OptimizerConfig | None = None) -> SkewSpectrum:
    """Maximal-likelihood configuration rescaled by 1/sqrt(p)."""
    result = minimize_tau(p, config=config)
    return SkewSpectrum(result.points.points / np.sqrt(p))


def minimize_commuting(
    n: int, d: int = 2, gamma: float = DEFAULT_GAMMA["commuting"], config: OptimizerConfig | None = None
) -> FeketeResult:
    """Minimize the negative log of the commuting joint-eigenvalue density.

    Unconstrained over the plane; gamma = 1/2 reproduces the reference
    circle of radius sqrt(2n) in the figure comparison. The points are
    planar: any ``d`` other than 2 is rejected.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d != 2:
        raise ValueError(f"only planar (d = 2) configurations are supported, got d = {d}")
    cfg = config or OptimizerConfig()
    grid = grid_initialization(n).points
    result = _multistart(
        grid - np.mean(grid, axis=0),
        lambda start, rng: start + 0.1 * rng.standard_normal(start.shape),
        cfg,
        c=gamma,
        commuting=True,
    )
    return replace(result, points=result.points[np.lexsort(result.points.T[::-1])])


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
