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

from dataclasses import dataclass

import numpy as np

from .matrixcore import check_hermitian, check_unitary, frobenius_norm, haar_unitary, hermitian_eig

ANTICOMMUTATION_TOL = 1e-10
GENERIC_GAP_TOL = 1e-10
PAIRING_TOL = 1e-8
MAX_TRIES = 1000  # draws random_generic_spectrum makes before it gives up


class NonGenericInput(ValueError):
    """Input lies outside the generic stratum the algorithms assume."""


@dataclass(frozen=True)
class SkewSpectrum:
    """Ordered list of p positive pairs (x_j, y_j), stored as a (p, 2) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError(f"expected p >= 1 points with 2 coordinates, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("skew spectrum coordinates must be finite")
        if np.any(pts <= 0.0):
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
        for col in (self.x, self.y):
            v = np.sort(col)
            if np.any(np.diff(v) <= rel_gap * v[1:]):
                return False
        return True

    def sorted(self) -> "SkewSpectrum":
        """Canonical ordering: ascending in x."""
        order = np.argsort(self.points[:, 0], kind="stable")
        return SkewSpectrum(self.points[order])


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
        mx = check_hermitian(x)
        my = check_hermitian(y)
        if mx.shape != my.shape:
            raise ValueError(f"dimension mismatch: {mx.shape} vs {my.shape}")
        n = mx.shape[0]
        if n % 2 != 0:
            raise ValueError(f"pair dimension must be even, got {n}")
        residual = frobenius_norm(mx @ my + my @ mx)
        bound = ANTICOMMUTATION_TOL * max(1.0, frobenius_norm(mx) * frobenius_norm(my))
        if residual > bound:
            raise ValueError(
                f"pair does not anti-commute: ||XY + YX||_F = {residual:.3e} > {bound:.3e}"
            )
        return cls(X=mx.copy(), Y=my.copy(), anticommutation_residual=residual)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def norm_squared(self) -> float:
        """||X||_F^2 + ||Y||_F^2 (the pair Frobenius norm squared)."""
        return frobenius_norm(self.X) ** 2 + frobenius_norm(self.Y) ** 2


def build_block_diag(s: SkewSpectrum) -> HermitianPair:
    """Assemble the canonical block-diagonal pair for a skew spectrum.

    X = direct sum of diag(x_j, -x_j); Y = direct sum of [[0, y_j], [y_j, 0]].
    The blocks anti-commute exactly, so the residual is 0 in floating point.
    """
    p = s.p
    n = 2 * p
    x_mat = np.zeros((n, n), dtype=np.complex128)
    y_mat = np.zeros((n, n), dtype=np.complex128)
    for j in range(p):
        x_mat[2 * j, 2 * j] = s.x[j]
        x_mat[2 * j + 1, 2 * j + 1] = -s.x[j]
        y_mat[2 * j, 2 * j + 1] = s.y[j]
        y_mat[2 * j + 1, 2 * j] = s.y[j]
    return HermitianPair(X=x_mat, Y=y_mat, anticommutation_residual=0.0)


def conjugate(pair: HermitianPair, u) -> HermitianPair:
    """Return (U X U*, U Y U*). Anti-commutation survives up to roundoff."""
    mu = check_unitary(u)
    if mu.shape[0] != pair.n:
        raise ValueError(f"dimension mismatch: unitary is {mu.shape[0]}, pair is {pair.n}")
    x_new = mu @ pair.X @ mu.conj().T
    y_new = mu @ pair.Y @ mu.conj().T
    x_new = (x_new + x_new.conj().T) / 2.0
    y_new = (y_new + y_new.conj().T) / 2.0
    residual = frobenius_norm(x_new @ y_new + y_new @ x_new)
    return HermitianPair(X=x_new, Y=y_new, anticommutation_residual=residual)


def sample_generic_pair(s: SkewSpectrum, rng=None) -> HermitianPair:
    """Haar-conjugated block pair: a generic element with skew spectrum s."""
    if not s.is_generic():
        raise NonGenericInput(
            "skew spectrum has coincident x or y coordinates; "
            "generic pairs require all x_j distinct and all y_j distinct"
        )
    return conjugate(build_block_diag(s), haar_unitary(2 * s.p, rng))


def extract_skew_spectrum(pair: HermitianPair) -> SkewSpectrum:
    """Recover the skew spectrum of an anti-commuting pair.

    Eigendecomposes X and matches its eigenvalues into (x, -x) pairs. For
    each positive eigenvalue x_j with unit eigenvector u_j, the vector
    Y u_j lies in the (-x_j)-eigenspace of X (a consequence of XY = -YX),
    so y_j = ||Y u_j||_2. Returns the points sorted ascending in x.

    Raises :class:`NonGenericInput` when X is singular, the spectrum of X
    is not symmetric about zero, some y_j vanishes, or the recovered data
    fails to reproduce the eigenvalues of Y (which happens off the generic
    stratum, e.g. for coincident x_j).
    """
    if pair.n % 2 != 0:
        raise NonGenericInput("pair dimension must be even")
    p = pair.n // 2
    lam, vecs = hermitian_eig(pair.X)
    x_scale = frobenius_norm(pair.X)
    if np.min(np.abs(lam)) <= 1e-8 * x_scale:
        raise NonGenericInput(
            f"X is singular to tolerance: min |eigenvalue| = {np.min(np.abs(lam)):.3e}"
        )

    # Greedy +/- pairing by absolute value.
    order = np.argsort(np.abs(lam))
    xs = np.empty(p)
    pos_vectors = []
    for j in range(p):
        a, b = order[2 * j], order[2 * j + 1]
        la, lb = lam[a], lam[b]
        if la * lb >= 0 or abs(abs(la) - abs(lb)) > PAIRING_TOL * max(abs(la), abs(lb)):
            raise NonGenericInput(
                f"spectrum of X is not symmetric about 0: cannot pair {la:.6g} with {lb:.6g}"
            )
        xs[j] = (abs(la) + abs(lb)) / 2.0
        pos_vectors.append(vecs[:, a] if la > 0 else vecs[:, b])

    y_scale = max(1.0, frobenius_norm(pair.Y))
    ys = np.empty(p)
    for j in range(p):
        ys[j] = np.linalg.norm(pair.Y @ pos_vectors[j])
        if ys[j] <= 1e-12 * y_scale:
            raise NonGenericInput(f"recovered y_{j + 1} = {ys[j]:.3e} violates positivity")

    # The pair must be unitarily equivalent to the block form built from the
    # result; comparing the eigenvalue multiset of Y catches hidden
    # degeneracy (coincident x_j mix the eigenvectors and corrupt the y's).
    lam_y, _ = hermitian_eig(pair.Y)
    expected_y = np.sort(np.concatenate([ys, -ys]))
    if np.max(np.abs(lam_y - expected_y)) > 1e-8 * y_scale:
        raise NonGenericInput(
            "recovered skew spectrum does not reproduce the eigenvalues of Y; "
            "the pair is not in the generic stratum"
        )

    result = SkewSpectrum(np.column_stack([xs, ys]))
    return result.sorted()


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
