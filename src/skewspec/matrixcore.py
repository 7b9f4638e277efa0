"""Dense complex-matrix substrate.

Hermitian/unitary validation, Frobenius geometry, Hermitian
eigendecomposition, and Haar-distributed unitary sampling. Everything
operates on plain ``numpy`` arrays of dtype ``complex128``; the functions
here are pure and safe to call from multiple threads as long as each
caller owns its RNG.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
EIG_RESIDUAL_TOL = 1e-10


class EigendecompositionError(RuntimeError):
    """Eigensolver failed to meet the residual contract."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex128 matrix, n >= 1."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def frobenius_norm(a) -> float:
    """sqrt(sum_ij |a_ij|^2). Callers sum squares across slots for pairs."""
    return float(np.linalg.norm(np.asarray(a)))


def check_hermitian(a) -> np.ndarray:
    """Validate A = A* entrywise to ``HERMITIAN_TOL * max(1, ||A||_F)``; return A."""
    m = as_complex_matrix(a)
    bound = HERMITIAN_TOL * max(1.0, frobenius_norm(m))
    dev = np.max(np.abs(m - m.conj().T))
    if dev > bound:
        raise ValueError(f"matrix is not Hermitian: max |A - A*| = {dev:.3e} > {bound:.3e}")
    return m


def check_unitary(u) -> np.ndarray:
    """Validate ||U*U - I||_F <= UNITARY_TOL * n; return U."""
    m = as_complex_matrix(u)
    n = m.shape[0]
    dev = np.linalg.norm(m.conj().T @ m - np.eye(n))
    if dev > UNITARY_TOL * n:
        raise ValueError(f"matrix is not unitary: ||U*U - I||_F = {dev:.3e} > {UNITARY_TOL * n:.3e}")
    return m


def hermitian_eig(a):
    """Eigendecompose a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    ``A @ V == V @ diag(lam)`` to ``EIG_RESIDUAL_TOL * max(1, ||A||_F)``. The
    eigenvector matrix is unitary to the same class of tolerance. Raises
    :class:`EigendecompositionError` carrying the residual if the solver
    fails the contract.
    """
    m = check_hermitian(a)
    try:
        lam, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigensolver did not converge: {exc}") from exc
    scale = max(1.0, frobenius_norm(m))
    residual = float(np.linalg.norm(m @ v - v * lam[None, :]))
    if residual > EIG_RESIDUAL_TOL * scale:
        raise EigendecompositionError(
            f"eigendecomposition residual {residual:.3e} exceeds {EIG_RESIDUAL_TOL * scale:.3e}",
            residual=residual,
        )
    check_unitary(v)
    return lam, v


def haar_unitary(n: int, rng=None) -> np.ndarray:
    """Sample an n x n unitary from the Haar measure.

    QR decomposition of an i.i.d. standard-complex-Gaussian matrix, with the
    diagonal of R rotated to positive reals. The phase correction makes the
    distribution exactly Haar (plain QR is not translation invariant).

    ``rng`` may be a ``numpy.random.Generator``, a seed, or None.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = np.random.default_rng(rng)
    z = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phase = d / np.abs(d)
    return q * phase[None, :]
