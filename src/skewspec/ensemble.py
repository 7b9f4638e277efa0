"""Construction and spectral analysis of anti-commuting Hermitian pairs.

A generic anti-commuting pair of even dimension n = 2p is unitarily
equivalent to a direct sum of 2x2 blocks where the first matrix acts as
diag(x_j, -x_j) and the second as the off-diagonal block with entry y_j,
all x_j, y_j > 0. The p points (x_j, y_j) are the pair's skew spectrum.
This module builds pairs from skew-spectral data, conjugates them by
unitaries, and recovers the skew spectrum from an arbitrary anti-commuting
pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrixcore import check_hermitian, check_unitary, frobenius_norm, haar_unitary, hermitian_eig

ANTICOMMUTATION_TOL = 1e-10
GENERIC_GAP_TOL = 1e-10
PAIRING_TOL = 1e-8
MAX_TRIES = 1000  # draws random_generic_spectrum makes before it gives up
_BLOCK_SIGNS = np.array([1.0, -1.0, 1.0, 1.0]).reshape(2, 1, 1, 2)  # U X scales by (x_j, -x_j), U Y by (y_j, y_j)


class NonGenericInput(ValueError):
    """Input lies outside the generic stratum the algorithms assume."""


def _distinct(values: np.ndarray, rel_gap: float) -> bool:
    """True when each column's consecutive sorted gaps all exceed ``rel_gap`` times the larger value."""
    v = np.sort(values, axis=0)
    return not (v[1:] - v[:-1] <= rel_gap * v[1:]).any()


@dataclass(frozen=True)
class SkewSpectrum:
    """Ordered list of p positive pairs (x_j, y_j), stored as a (p, 2) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError(f"expected p >= 1 points with 2 coordinates, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("skew spectrum coordinates must be finite")
        if (pts <= 0.0).any():
            raise ValueError("skew spectrum coordinates must be strictly positive")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def p(self) -> int:
        return self.points.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    def is_generic(self, rel_gap: float = GENERIC_GAP_TOL) -> bool:
        """True when all x_j are distinct and all y_j are distinct.

        Coordinates count as distinct when each consecutive sorted gap
        exceeds ``rel_gap`` times the larger value.
        """
        return _distinct(self.points, rel_gap)

    def has_distinct_x(self) -> bool:
        """True when all x_j are distinct, in the sense of :meth:`is_generic` at its default gap; the y_j may repeat."""
        return _distinct(self.x, GENERIC_GAP_TOL)

    def sorted(self) -> "SkewSpectrum":
        """Canonical ordering: ascending in x."""
        order = np.argsort(self.points[:, 0], kind="stable")
        return SkewSpectrum._unchecked(self.points[order])

    @classmethod
    def _unchecked(cls, pts: np.ndarray) -> "SkewSpectrum":
        """Wrap a fresh (p, 2) float array whose entries are known to be finite and positive."""
        out = object.__new__(cls)
        pts.setflags(write=False)
        object.__setattr__(out, "points", pts)
        return out


@dataclass(frozen=True)
class HermitianPair:
    """An anti-commuting Hermitian pair (X, Y) of even dimension n = 2p."""

    X: np.ndarray
    Y: np.ndarray
    anticommutation_residual: float

    def __post_init__(self):
        self.X.setflags(write=False)
        self.Y.setflags(write=False)

    @classmethod
    def from_matrices(cls, x, y) -> "HermitianPair":
        """Validate Hermiticity, even dimension, and the anti-commutation invariant."""
        mx, x_norm = check_hermitian(x)
        my, y_norm = check_hermitian(y)
        if mx.shape != my.shape:
            raise ValueError(f"dimension mismatch: {mx.shape} vs {my.shape}")
        n = mx.shape[0]
        if n % 2 != 0:
            raise ValueError(f"pair dimension must be even, got {n}")
        residual = frobenius_norm(mx @ my + my @ mx)
        bound = ANTICOMMUTATION_TOL * max(1.0, x_norm * y_norm)
        if residual > bound:
            raise ValueError(f"pair does not anti-commute: ||XY + YX||_F = {residual:.3e} > {bound:.3e}")
        return cls(X=mx.copy(), Y=my.copy(), anticommutation_residual=residual)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def block_diag_arrays(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X and Y of the canonical block-diagonal pair of each configuration in a (..., p, 2) stack.

    Returns two complex (..., 2p, 2p) arrays; :func:`build_block_diag` is
    the one-spectrum case.
    """
    x, y = points[..., 0], points[..., 1]
    n = 2 * points.shape[-2]
    k = np.arange(0, n, 2)
    x_mat = np.zeros((*points.shape[:-2], n, n), dtype=np.complex128)
    y_mat = np.zeros_like(x_mat)
    x_mat[..., k, k] = x
    x_mat[..., k + 1, k + 1] = -x
    y_mat[..., k, k + 1] = y
    y_mat[..., k + 1, k] = y
    return x_mat, y_mat


def build_block_diag(s: SkewSpectrum) -> HermitianPair:
    """Assemble the canonical block-diagonal pair for a skew spectrum.

    X = direct sum of diag(x_j, -x_j); Y = direct sum of [[0, y_j], [y_j, 0]].
    The blocks anti-commute exactly, so the residual is 0 in floating point.
    """
    x_mat, y_mat = block_diag_arrays(s.points)
    return HermitianPair(X=x_mat, Y=y_mat, anticommutation_residual=0.0)


def _conjugated(uxy: np.ndarray, u: np.ndarray) -> HermitianPair:
    """The pair (UX U*, UY U*) from the (2, n, n) stack (UX, UY), made exactly Hermitian."""
    xy = uxy @ u.conj().T
    xy += xy.conj().swapaxes(1, 2)  # conj() copies, so the add reads no entry it has written
    xy /= 2.0
    residual = frobenius_norm(np.add(*(xy @ xy[::-1])))  # ||XY + YX||_F
    xy.setflags(write=False)  # X and Y are views of xy, so xy must be read-only too
    return HermitianPair(X=xy[0], Y=xy[1], anticommutation_residual=residual)


def conjugate(pair: HermitianPair, u) -> HermitianPair:
    """Return (U X U*, U Y U*). Anti-commutation survives up to roundoff.

    ``u`` comes from the caller, so it is validated here: a matrix that is
    not square, finite and unitary to ``UNITARY_TOL`` raises ``ValueError``.
    """
    mu = check_unitary(u)
    if mu.shape[0] != pair.n:
        raise ValueError(f"dimension mismatch: unitary is {mu.shape[0]}, pair is {pair.n}")
    return _conjugated(mu @ np.array((pair.X, pair.Y)), mu)


def sample_generic_pair(s: SkewSpectrum, rng=None) -> HermitianPair:
    """Haar-conjugated block pair: a generic element with skew spectrum s.

    The same pair as ``conjugate(build_block_diag(s), haar_unitary(2 * s.p, rng))``, built
    through the block structure: U X is U with its columns scaled by x_1, -x_1, x_2, ..., and
    U Y is U with each column pair swapped and scaled by y_j. The unitary is the package's own
    Haar sample, so unlike :func:`conjugate` this does not validate it again. The x_j must be
    distinct, as :func:`extract_skew_spectrum` needs them to be to recover s; the y_j may repeat.
    """
    if not s.has_distinct_x():
        raise NonGenericInput("skew spectrum has coincident x coordinates; generic pairs require all x_j distinct")
    n = 2 * s.p
    u = haar_unitary(n, rng)
    blocks = u.reshape(n, s.p, 2)  # blocks[:, j] holds columns 2j and 2j + 1 of U
    scales = s.points.T[:, None, :, None] * _BLOCK_SIGNS
    return _conjugated((np.array((blocks, blocks[..., ::-1])) * scales).reshape(2, n, n), u)


def extract_skew_spectrum(pair: HermitianPair) -> SkewSpectrum:
    """Recover the skew spectrum of an anti-commuting pair, ascending in x.

    Assumes XY = -YX, which :meth:`HermitianPair.from_matrices` checks and :func:`build_block_diag`
    and :func:`conjugate` guarantee. The ascending eigenvalues of X pair as ``lam[p:]`` against
    ``-lam[p-1::-1]``. Y maps the x_j-eigenspace of X onto the (-x_j)-eigenspace, so with V+ the
    eigenvectors of the positive eigenvalues, y_j is the j-th column norm of W = Y V+, and the
    singular values of W are the positive eigenvalues of Y. The y_j must match those singular
    values, each to 1e-8 of itself: a shared x_j with distinct y_j mixes the eigenvectors and
    fails that match, while coincident points (equal x_j and y_j) pass and are recovered.

    Raises ``ValueError`` when X is not finite and Hermitian, and :class:`NonGenericInput` when
    X is singular, the spectrum of X is not symmetric about zero, Y is not finite, some y_j
    vanishes, or the y_j do not match the singular values of W.
    """
    if pair.n % 2 != 0:
        raise NonGenericInput("pair dimension must be even")
    p = pair.n // 2
    lam, vecs = hermitian_eig(pair.X)
    x_scale = math.sqrt(lam @ lam)  # ||X||_F
    lam_min = np.abs(lam).min()
    if lam_min <= 1e-8 * x_scale:
        raise NonGenericInput(f"X is singular to tolerance: min |eigenvalue| = {lam_min:.3e}")

    pos, neg = lam[p:], lam[p - 1 :: -1]
    # a pair of one sign fails too: pos_j >= neg_j, neither is 0, so |pos_j + neg_j| > max(pos_j, -neg_j)
    bad = np.abs(pos + neg) > PAIRING_TOL * np.maximum(pos, -neg)
    if bad.any():
        j = int(bad.argmax())
        raise NonGenericInput(f"spectrum of X is not symmetric about 0: cannot pair {neg[j]:.6g} with {pos[j]:.6g}")

    y_norm = frobenius_norm(pair.Y)
    if not math.isfinite(y_norm):
        raise NonGenericInput("Y has non-finite entries or its norm overflows")
    w = pair.Y @ vecs[:, p:]
    wf = w.view(np.float64).reshape(2 * p, p, 2)  # real and imaginary parts side by side
    ys = np.sqrt(np.einsum("ijk,ijk->j", wf, wf))
    j = int(ys.argmin())
    if not ys[j] > 1e-12 * max(1.0, y_norm):
        raise NonGenericInput(f"recovered y_{j + 1} = {ys[j]:.3e} violates positivity")
    # singular values straight from W: through the eigenvalues of W*W a small
    # sigma_j can carry a relative error of order eps * (||Y|| / sigma_j)^2
    sigma = np.linalg.svd(w, compute_uv=False)[::-1]
    if (np.abs(np.sort(ys) - sigma) > 1e-8 * sigma).any():
        raise NonGenericInput(
            "recovered skew spectrum does not reproduce the eigenvalues of Y; "
            "the pair is not in the generic stratum"
        )
    # the pairing test made every x_j positive and the positivity test every y_j
    return SkewSpectrum._unchecked(np.array(((pos - neg) / 2.0, ys)).T.copy())


def random_generic_spectrum(
    p: int,
    rng=None,
    low: float = 0.1,
    high: float = 10.0,
    min_rel_gap: float = 1e-3,
) -> SkewSpectrum:
    """Uniform skew spectrum on [low, high]^2p with pairwise-separated coordinates.

    Resamples until consecutive sorted x's and y's differ by at least
    ``min_rel_gap`` relative to the larger value.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    gen = np.random.default_rng(rng)
    for _ in range(MAX_TRIES):
        pts = gen.uniform(low, high, size=(p, 2))
        s = SkewSpectrum(pts)
        if s.is_generic(rel_gap=min_rel_gap):
            return s
    raise RuntimeError(f"failed to draw a generic spectrum after {MAX_TRIES} tries")
