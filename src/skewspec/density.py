"""Skew-spectrum density, its negative log, and the commuting reference density.

The unnormalized density of the skew spectrum {(x_k, y_k)} under a radial
Gaussian weight is

    w(||Z||_F) * prod_k x_k y_k sqrt(x_k^2 + y_k^2) * prod_{i<j} f(z_i, z_j)

with ||Z||_F^2 = 2 sum_k (x_k^2 + y_k^2) and f the four-factor repulsion
product between two points. Everything is evaluated in log space; the
normalization constant is never computed here. ``log_rho`` returns a plain
float, -inf where the density vanishes.

``tau`` is the negative log density in the form the Fekete machinery is
calibrated to: its quadratic term is (1/2) sum |z_k|^2, which corresponds
to the Gaussian weight exp(-||Z||_F^2 / 4). With the WeightSpec convention
w(t) = exp(-gamma t^2 / 2), ``-log_rho`` at gamma has quadratic term
gamma * sum |z_k|^2, so -log_rho(z, WeightSpec(gamma)) = tau(z, 2 gamma)
bit for bit while 2 gamma is finite: both scale the kernel's sum |z_k|^2
by the same double. Both are kept verbatim; neither is "corrected".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import SkewSpectrum


@dataclass(frozen=True)
class WeightSpec:
    """Radial weight w = exp(-gamma ||Z||_F^2 / 2) = exp(-gamma sum_k |z_k|^2)."""

    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and positive")


def _points(s) -> np.ndarray:
    """Coerce a SkewSpectrum or a (p, 2) array."""
    if isinstance(s, SkewSpectrum):
        return s.points
    pts = np.asarray(s, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (p, 2) points, got shape {pts.shape}")
    return pts


def pair_factor_f(z_i, z_j) -> float:
    """Four-factor repulsion product between two skew-spectrum points.

    [(xi-xj)^2+(yi-yj)^2][(xi+xj)^2+(yi-yj)^2][(xi-xj)^2+(yi+yj)^2][(xi+xj)^2+(yi+yj)^2]
    """
    xi, yi = float(z_i[0]), float(z_i[1])
    xj, yj = float(z_j[0]), float(z_j[1])
    dx, sx = xi - xj, xi + xj
    dy, sy = yi - yj, yi + yj
    return (dx * dx + dy * dy) * (sx * sx + dy * dy) * (dx * dx + sy * sy) * (sx * sx + sy * sy)


def lemma_d1_bounds(z_i, z_j, eps: float, m: float):
    """Two-sided bound (128 eps^6 d^2, 200 M^6 d^2) for the pair factor.

    Valid when all four coordinates lie in [eps, M]; d^2 is the squared
    Euclidean distance between the points.
    """
    if not (0 < eps <= m):
        raise ValueError("need 0 < eps <= M")
    coords = np.array([z_i[0], z_i[1], z_j[0], z_j[1]], dtype=float)
    if np.any(coords < eps) or np.any(coords > m):
        raise ValueError(f"coordinates {coords} outside [{eps}, {m}]")
    d2 = (coords[0] - coords[2]) ** 2 + (coords[1] - coords[3]) ** 2
    return 128.0 * eps**6 * d2, 200.0 * m**6 * d2


@functools.lru_cache(maxsize=16)
def _pair_index(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of every unordered pair i < j of p points.

    Cached per p and read-only, since every caller shares the same arrays.
    """
    i, j = np.triu_indices(p, 1)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def _kernel(pts: np.ndarray, grad: bool = False):
    """The one evaluation of the density's terms at a (p, 2) configuration.

    Returns None where the density vanishes (a nonpositive coordinate or
    two coincident points). Raises FloatingPointError where a term cannot
    be represented: a pair factor of distinct points that rounds to 0, or
    a point or pair log that is not finite. Otherwise returns the triple
    (sum_k |z_k|^2, sum_k log(x_k y_k |z_k|), sum_{i<j} log f(z_i, z_j)),
    or with ``grad`` the x and y gradients of the pair sum instead.
    """
    if (pts <= 0.0).any():
        return None
    x, y = pts[:, 0], pts[:, 1]
    p = pts.shape[0]
    log_pairs, pair_grad = 0.0, (0.0, 0.0)
    if p > 1:
        if grad:
            # every ordered pair, as (p, p) arrays whose rows sum to the gradient
            i, j = np.s_[:, None], np.s_[None, :]
        else:
            # every unordered pair once
            i, j = _pair_index(p)
        xi, xj, yi, yj = x[i], x[j], y[i], y[j]
        dx, sx, dy, sy = xi - xj, xi + xj, yi - yj, yi + yj
        dx2, sx2, dy2, sy2 = dx * dx, sx * sx, dy * dy, sy * sy
        # the four factors as rows of one (4, ...) array, so the value path
        # takes their logs in place
        f = np.empty((4,) + dx.shape)
        f1, f2, f3, f4 = f
        np.add(dx2, dy2, out=f1)
        np.add(sx2, dy2, out=f2)
        np.add(dx2, sy2, out=f3)
        np.add(sx2, sy2, out=f4)
        if grad:
            np.fill_diagonal(f1, 1.0)  # a point is no pair with itself
        # for positive coordinates |dx| <= sx and |dy| <= sy, and rounding
        # keeps that order, so f1 is the smallest factor
        vanishing = f1 <= 0.0
        if vanishing.any():
            if ((dx[vanishing] == 0.0) & (dy[vanishing] == 0.0)).any():
                return None  # coincident points
            raise FloatingPointError("a pair factor of distinct points underflows to 0")
        if grad:
            inv1, inv2, inv3, inv4 = 1.0 / f1, 1.0 / f2, 1.0 / f3, 1.0 / f4
            for inv in (inv1, inv2, inv3, inv4):
                np.fill_diagonal(inv, 0.0)
            pair_grad = (
                np.sum(2.0 * dx * (inv1 + inv3) + 2.0 * sx * (inv2 + inv4), axis=1),
                np.sum(2.0 * dy * (inv1 + inv2) + 2.0 * sy * (inv3 + inv4), axis=1),
            )
        else:
            # one (4, m) sum: its order fixes the bits of every seeded artifact
            log_pairs = float(np.log(f, out=f).sum())
    if grad:
        return pair_grad
    r2 = x * x + y * y
    log_point = float((np.log(x) + np.log(y) + 0.5 * np.log(r2)).sum())
    if not math.isfinite(log_point + log_pairs):
        raise FloatingPointError("a density term is not finite at this scale")
    return float(r2.sum()), log_point, log_pairs


def _log_rho_of(terms, w: WeightSpec) -> float:
    if terms is None:
        return -math.inf
    sq_sum, log_point, log_pairs = terms
    return -w.gamma * sq_sum + log_point + log_pairs


def _tau_of(terms, gamma: float) -> float:
    if terms is None:
        return np.inf
    sq_sum, log_point, log_pairs = terms
    return 0.5 * gamma * sq_sum - log_point - log_pairs


def log_rho(s, w: WeightSpec) -> float:
    """Log of the unnormalized skew-spectrum density under weight w.

    Accepts a SkewSpectrum or a raw configuration array; configurations
    with a vanishing factor (nonpositive coordinate, coincident points)
    give -inf.
    """
    return _log_rho_of(_kernel(_points(s)), w)


def tau(s, gamma: float = 1.0) -> float:
    """Negative log density in the Fekete normalization.

    tau = gamma/2 sum_k |z_k|^2 - sum_k log(x_k y_k |z_k|)
          - 1/2 sum_{k != l} log f(z_k, z_l)

    with |z_k| = sqrt(x_k^2 + y_k^2). gamma = 1 is the formula the grid
    and length bounds of the Fekete module are calibrated to. Returns
    +inf when any log argument vanishes.
    """
    return _tau_of(_kernel(_points(s)), gamma)


def log_rho_and_tau(s, w: WeightSpec) -> tuple[float, float]:
    """``log_rho(s, w)`` and ``tau(s)`` (at gamma = 1) from one evaluation of the terms."""
    terms = _kernel(_points(s))
    return _log_rho_of(terms, w), _tau_of(terms, 1.0)


def grad_tau(s, gamma: float = 1.0) -> np.ndarray:
    """Analytic gradient of :func:`tau`, shape (p, 2).

    d tau / d x_k = gamma x_k - 1/x_k - x_k/(x_k^2+y_k^2)
                    - sum_{l != k} d/dx_k log f(z_k, z_l),
    and symmetrically in y. Raises ValueError where tau is infinite, and
    FloatingPointError where a term of the gradient is not finite.
    """
    pts = _points(s)
    pair_grad = _kernel(pts, grad=True)
    if pair_grad is None:
        raise ValueError("tau is infinite at this configuration; gradient undefined")
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    gx = gamma * x - 1.0 / x - x / r2 - pair_grad[0]
    gy = gamma * y - 1.0 / y - y / r2 - pair_grad[1]
    g = np.column_stack([gx, gy])
    if not np.isfinite(g).all():
        raise FloatingPointError("a gradient term is not finite at this scale")
    return g


def log_kappa_commuting(lambdas, gamma: float) -> float:
    """Log of the commuting-pair joint eigenvalue density.

    exp(-gamma sum |lambda_j|^2) * prod_{i<j} |lambda_i - lambda_j|^2 with
    Euclidean norms in R^d; the constant is omitted, and coincident
    eigenvalues give -inf.
    """
    pts = np.asarray(lambdas, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected (n, d) eigenvalues, got shape {pts.shape}")
    n = pts.shape[0]
    quad = -gamma * float(np.sum(pts * pts))
    if n < 2:
        return quad
    diff = pts[:, None, :] - pts[None, :, :]
    dist_sq = np.sum(diff * diff, axis=2)
    gaps = dist_sq[_pair_index(n)]
    if np.any(gaps <= 0.0):
        return -math.inf
    return quad + float(np.sum(np.log(gaps)))

