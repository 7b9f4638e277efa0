"""Dense complex-matrix substrate.

Hermitian/unitary validation, Frobenius geometry, Hermitian
eigendecomposition, and Haar-distributed unitary sampling. Everything
operates on plain ``numpy`` arrays of dtype ``complex128``; the functions
here are pure and safe to call from multiple threads as long as each
caller owns its RNG.
"""

from __future__ import annotations

import functools
import math

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
EIG_RESIDUAL_TOL = 1e-10
_identity = functools.cache(lambda n: np.eye(n, dtype=np.complex128))  # complex: U*U - I then casts nothing


class EigendecompositionError(RuntimeError):
    """Eigensolver failed to meet the residual contract."""


def _finite_matrix(a) -> tuple[np.ndarray, float]:
    """``a`` as a square complex128 matrix, n >= 1, with its Frobenius norm, which must be finite."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    norm = frobenius_norm(m)
    if not math.isfinite(norm):  # before any other arithmetic: a NaN or inf would void every bound
        raise ValueError("matrix has non-finite entries or its norm overflows")
    return m, norm


def frobenius_norm(a) -> float:
    """sqrt(sum_ij |a_ij|^2) from one BLAS dot; ``np.linalg.norm``'s value to rounding, not its order.

    Not finite, and without a warning, where an entry is not finite or the sum passes the double range.
    """
    a = np.asarray(a)
    return math.sqrt(np.vdot(a, a).real)


def _unitary(m: np.ndarray) -> np.ndarray:
    """Validate ||U*U - I||_F <= UNITARY_TOL * n for a finite square U; a NaN fails too."""
    n = m.shape[0]
    dev = frobenius_norm(m.conj().T @ m - _identity(n))
    if not dev <= UNITARY_TOL * n:
        raise ValueError(f"matrix is not unitary: ||U*U - I||_F = {dev:.3e} > {UNITARY_TOL * n:.3e}")
    return m


def check_hermitian(a) -> tuple[np.ndarray, float]:
    """Validate A = A* entrywise to ``HERMITIAN_TOL * max(1, ||A||_F)``.

    Returns A and ||A||_F, so that callers scale their own tolerances without a second norm.
    A non-finite entry or norm raises ``ValueError``.
    """
    m, norm = _finite_matrix(a)
    bound = HERMITIAN_TOL * max(1.0, norm)
    dev = np.abs(m - m.conj().T).max()
    if dev > bound:
        raise ValueError(f"matrix is not Hermitian: max |A - A*| = {dev:.3e} > {bound:.3e}")
    return m, norm


def check_unitary(u) -> np.ndarray:
    """Validate ||U*U - I||_F <= UNITARY_TOL * n; return U. Non-finite U raises as in check_hermitian."""
    return _unitary(_finite_matrix(u)[0])


def hermitian_eig(a):
    """Eigendecompose a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and ``A @ V == V @ diag(lam)``
    to ``EIG_RESIDUAL_TOL * max(1, ||A||_F)``. The eigenvector matrix is unitary to the same class
    of tolerance. Raises ``ValueError`` for a matrix that is not finite and Hermitian (see
    :func:`check_hermitian`), and :class:`EigendecompositionError`, its message stating the
    residual, if the solver fails the contract (a NaN in its output does).
    """
    m, norm = check_hermitian(a)
    try:
        lam, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigensolver did not converge: {exc}") from exc
    bound = EIG_RESIDUAL_TOL * max(1.0, norm)
    residual = frobenius_norm(m @ v - v * lam)
    if not residual <= bound:
        raise EigendecompositionError(f"eigendecomposition residual {residual:.3e} exceeds {bound:.3e}")
    return lam, _unitary(v)


def haar_unitary(n: int, rng=None) -> np.ndarray:
    """Sample an n x n unitary from the Haar measure.

    QR decomposition of an i.i.d. standard-complex-Gaussian matrix, with the
    diagonal of R rotated to positive reals. The phase correction makes the
    distribution exactly Haar (plain QR is not translation invariant).

    ``rng`` may be a ``numpy.random.Generator``, a seed, or None.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # one draw of both parts: the same stream as drawing the real part, then the imaginary
    g = np.random.default_rng(rng).standard_normal((2, n, n))
    q, r = np.linalg.qr((g[0] + 1j * g[1]) / np.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))  # column k times the phase of r_kk
