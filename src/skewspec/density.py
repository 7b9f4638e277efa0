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

UNREPRESENTABLE = "a density term cannot be represented at this scale"


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


@functools.lru_cache(maxsize=16)
def _stack_pair_index(p: int, b: int) -> np.ndarray:
    """Where each pair's coordinates lie in a flattened (b, p, 2) stack, shape (2, 2, b, m).

    Entry [0] holds (x_i, y_i) and entry [1] holds (x_j, y_j) for every
    unordered pair i < j of each configuration. Cached per (p, b) and
    read-only, like :func:`_pair_index`.
    """
    i, j = _pair_index(p)
    offset = 2 * p * np.arange(b)[:, None]
    index = np.array([[offset + 2 * i, offset + 2 * i + 1], [offset + 2 * j, offset + 2 * j + 1]])
    index.flags.writeable = False
    return index


# pair terms, B p(p - 1)/2, of one pass of the kernel: below it a pass costs
# mostly numpy's per-call overhead, and well above it the pass's temporaries
# come back from the allocator each time
PAIR_TERMS = 4096

# the columns of a vanishing configuration: no weight or pair term, and a
# point term of -inf
_VANISHED = np.array([[0.0], [-np.inf], [0.0]])


def stack_size(p: int) -> int:
    """Configurations of p points in one pass of the kernel: PAIR_TERMS pair terms, and at least one."""
    return max(1, PAIR_TERMS // max(1, p * (p - 1) // 2))


# a vanishing column takes logs of zeros and negatives; the decorator form of
# errstate costs about half of the context-manager form per call
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _kernel(stack: np.ndarray, grad: bool = False, commuting: bool = False):
    """The one evaluation of the density's terms at a (B, p, 2) stack of configurations.

    Returns a (3, B) array whose rows are sum_k |z_k|^2, sum_k log(x_k y_k
    |z_k|) and sum_{i<j} log f(z_i, z_j), each column bit for bit what a
    stack of that one configuration gives. The stack goes through in passes
    of :func:`stack_size` configurations, which bounds the temporaries. A
    column where the density vanishes (a nonpositive coordinate or two
    coincident points) is (0, -inf, 0); where a term cannot be represented
    (a pair factor of distinct points that rounds to 0, or a term that is
    not finite) the kernel raises FloatingPointError. With ``grad`` the
    stack holds one configuration, and the pair (terms, (p, 2) gradient of
    the pair sum) comes from the same pass over the unordered pairs.
    ``commuting`` takes the commuting density's terms instead: the pair
    factor is the first factor of f alone, |z_i - z_j|^2, the point term
    is 0, and only coincident points vanish.
    """
    b, p = stack.shape[:2]
    size = stack_size(p)
    if b > size:
        return np.concatenate([_kernel(stack[k : k + size], commuting=commuting) for k in range(0, b, size)], axis=1)
    terms, pair_grad = np.zeros((3, b)), np.zeros((p, 2)) if grad else None
    # each configuration's least coordinate, which no commuting one needs
    # positive; fmin skips a NaN, so a nonpositive coordinate still shows
    least = np.ones(b) if commuting else np.fmin.reduce(stack.reshape(b, -1), axis=1)
    if p > 1 and np.maximum.reduce(least) <= 0.0:
        terms[1] = -np.inf  # every column vanishes, so no pair term is needed
        return (terms, pair_grad) if grad else terms
    sq_sum, log_point, log_pairs = terms
    if p > 1:
        ends = stack.reshape(-1).take(_stack_pair_index(p, b))
        d, s = ends[0] - ends[1], ends[0] + ends[1]  # (dx, dy) and (sx, sy)
        (dx2, dy2), (sx2, sy2) = d * d, s * s
        # the factors as (4, m) rows of each configuration, so their logs
        # are taken in place; the commuting case keeps the first row
        f = np.empty((b, 1 if commuting else 4, d.shape[2]))
        np.add(dx2, dy2, out=f[:, 0])
        if not commuting:
            np.add(sx2, dy2, out=f[:, 1])
            np.add(dx2, sy2, out=f[:, 2])
            np.add(sx2, sy2, out=f[:, 3])
        if grad:
            i, j = _pair_index(p)
            inv = 1.0 / f[0]
            # d/dx_i of the pair's log f is from_d + from_s and d/dx_j is from_s - from_d, with
            # the dx factors (1, 3) and sx factors (2, 4); in y the dy (1, 2) and sy (3, 4)
            from_d = 2.0 * d[:, 0] * (inv[0] if commuting else inv[0] + inv[[2, 1]])
            from_s = 0.0 if commuting else 2.0 * s[:, 0] * (inv[[1, 2]] + inv[3])
            for k, (at_i, at_j) in enumerate(zip(from_d + from_s, from_s - from_d)):
                np.add(np.bincount(i, at_i, p), np.bincount(j, at_j, p), out=pair_grad[:, k])
        # one sum over each configuration's contiguous (4, m) block: its
        # order fixes the bits of every seeded artifact
        np.add.reduce(np.log(f, out=f).reshape(b, -1), axis=1, out=log_pairs)
    # each operation on the whole stack, then the x and y halves combined
    squares = stack * stack
    r2 = squares[..., 0] + squares[..., 1]
    if not commuting:
        logs = np.log(stack)
        np.add.reduce(logs[..., 0] + logs[..., 1] + 0.5 * np.log(r2), axis=1, out=log_point)
    np.add.reduce(r2, axis=1, out=sq_sum)
    # a zero pair factor, a log of a nonpositive coordinate or an overflow
    # leaves a term non-finite, and so the sum of all terms, which needs no
    # further test where it is finite
    if not math.isfinite(np.add.reduce(terms, axis=None)):
        flagged, vanishes = ~np.isfinite(terms).all(axis=0), least <= 0.0
        # only a non-finite column with every coordinate positive can hold coincident points
        if p > 1 and (flagged > vanishes).any():
            vanishes |= ((d[0] == 0.0) & (d[1] == 0.0)).any(axis=1)
        # a vanishing column is never finite, and any other non-finite one cannot be represented
        if (flagged > vanishes).any():
            raise FloatingPointError(UNREPRESENTABLE)
        np.copyto(terms, _VANISHED, where=vanishes)
    return (terms, pair_grad) if grad else terms


def _terms(pts: np.ndarray):
    """The kernel at one (p, 2) configuration, as a list of its three terms.

    A vanishing density is the kernel's column (0, -inf, 0), which gives
    log_rho = -inf and tau = +inf through the formulas.
    """
    return _kernel(pts[None])[:, 0].tolist()


def _log_rho_of(terms, w: WeightSpec):
    """log_rho from kernel terms: a float from :func:`_terms`, or per row from :func:`_kernel`."""
    sq_sum, log_point, log_pairs = terms
    return -w.gamma * sq_sum + log_point + log_pairs


def _tau_of(terms, gamma: float):
    sq_sum, log_point, log_pairs = terms
    return 0.5 * gamma * sq_sum - log_point - log_pairs


def log_rho(s, w: WeightSpec) -> float:
    """Log of the unnormalized skew-spectrum density under weight w.

    Accepts a SkewSpectrum or a raw configuration array; configurations
    with a vanishing factor (nonpositive coordinate, coincident points)
    give -inf.
    """
    return _log_rho_of(_terms(_points(s)), w)


def tau(s, gamma: float = 1.0) -> float:
    """Negative log density in the Fekete normalization.

    tau = gamma/2 sum_k |z_k|^2 - sum_k log(x_k y_k |z_k|)
          - 1/2 sum_{k != l} log f(z_k, z_l)

    with |z_k| = sqrt(x_k^2 + y_k^2). gamma = 1 is the formula the grid
    and length bounds of the Fekete module are calibrated to. Returns
    +inf when any log argument vanishes.
    """
    return _tau_of(_terms(_points(s)), gamma)


def _finite_grad(value: float, g: np.ndarray) -> tuple[float, np.ndarray]:
    if not np.isfinite(g).all():
        raise FloatingPointError("a gradient term is not finite at this scale")
    return value, g


def tau_and_grad(s, gamma: float = 1.0) -> tuple[float, np.ndarray | None]:
    """``tau(s, gamma)`` and its analytic gradient, shape (p, 2), from one pass over the pairs.

    d tau / d x_k = gamma x_k - 1/x_k - x_k/(x_k^2+y_k^2)
                    - sum_{l != k} d/dx_k log f(z_k, z_l),
    and symmetrically in y. The value is bit for bit :func:`tau`'s. Returns
    (inf, None) where tau is infinite, and raises FloatingPointError where
    a term of the gradient is not finite.
    """
    pts = _points(s)
    out, pair_grad = _kernel(pts[None], grad=True)
    terms = out[:, 0].tolist()
    if terms[1] == -math.inf:
        return np.inf, None
    x, y = pts[:, 0], pts[:, 1]
    r2 = x * x + y * y
    return _finite_grad(_tau_of(terms, gamma), gamma * pts - 1.0 / pts - pts / r2[:, None] - pair_grad)


def grad_tau(s, gamma: float = 1.0) -> np.ndarray:
    """Analytic gradient of :func:`tau`, shape (p, 2); see :func:`tau_and_grad`.

    Raises ValueError where tau is infinite.
    """
    g = tau_and_grad(s, gamma)[1]
    if g is None:
        raise ValueError("tau is infinite at this configuration; gradient undefined")
    return g


def log_kappa_and_grad(lambdas, gamma: float) -> tuple[float, np.ndarray | None]:
    """Log of the commuting-pair joint eigenvalue density and its (n, 2) gradient.

    The density is exp(-gamma sum |lambda_j|^2) * prod_{i<j} |lambda_i - lambda_j|^2
    over planar eigenvalues, an (n, 2) array; the constant is omitted.
    Value and gradient come from one pass of the density kernel, under its
    contract: coincident eigenvalues give (-inf, None), and a term that
    cannot be represented raises FloatingPointError.
    """
    pts = _points(lambdas)
    out, pair_grad = _kernel(pts[None], grad=True, commuting=True)
    sq_sum, vanished, log_pairs = out[:, 0].tolist()
    if vanished == -math.inf:
        return -math.inf, None
    return _finite_grad(-gamma * sq_sum + log_pairs, -2.0 * gamma * pts + pair_grad)
