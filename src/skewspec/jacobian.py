"""Numerical verification of the skew-spectrum Jacobian.

The parametrization G maps (unitary coset, skew spectrum) to a generic
anti-commuting pair. Its derivative dG is assembled as one array from an
orthonormal tangent basis: three skew-Hermitian directions R_k, S_k, T_k
per 2x2 block and eight inter-block directions R_{ij,ab}, S_{ij,ab} per
block pair, imaged by one commutator over their stack, and the 2p spectral
directions e1_k, e2_k, imaged by index. The Gram determinant det(dG^T dG)
then has the closed form

    prod_k 256 x_k^2 y_k^2 (x_k^2 + y_k^2) * prod_{i<j} f(z_i, z_j)^2,

whose square root times the radial weight reproduces the skew-spectrum
density up to one constant. This module computes both sides and compares.

Basis matrices live in real ambient coordinates for Hermitian pairs
(diagonal entries plus sqrt(2)-scaled real/imaginary parts of the strict
upper triangle per slot), chosen so the coordinate map is an isometry and
the determinant is chart-independent.

The printed form of S_{ij,ab} in the source derivation carries a minus
sign between its two elementary-matrix terms, which would make it
Hermitian rather than skew-Hermitian; the plus sign used here is the one
consistent with the commutator table and with S_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import WeightSpec, _kernel, _log_rho_of
from .ensemble import SkewSpectrum, build_block_diag
from .matrixcore import check_unitary

RANK_TOL = 1e-10


class DegenerateJacobian(RuntimeError):
    """The parametrization is not a chart at the requested spectrum."""


@dataclass(frozen=True)
class TangentBasisElement:
    """One orthonormal tangent direction.

    Unitary directions carry a skew-Hermitian ``matrix`` of unit Frobenius
    norm; spectral directions carry a unit ``vector`` in R^{2p} (x slots
    first, then y slots).
    """

    tag: str
    indices: tuple
    matrix: np.ndarray | None = None
    vector: np.ndarray | None = None


def _elementary(n: int, a: int, b: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.complex128)
    m[a, b] = 1.0
    return m


def enumerate_tangent_basis(p: int) -> list[TangentBasisElement]:
    """The full ordered tangent basis at the identity coset; 4p^2 + p elements.

    Order: (R_k, S_k, T_k) for k = 1..p, then (R_{ij,ab} for ab in
    00,10,01,11, then S_{ij,ab}) for i < j, then e1_1..e1_p, e2_1..e2_p.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    n = 2 * p
    s2 = np.sqrt(2.0)
    basis: list[TangentBasisElement] = []
    for k in range(1, p + 1):
        a, b = 2 * k - 2, 2 * k - 1  # rows 2k-1, 2k in 1-based terms
        basis.append(
            TangentBasisElement("R", (k,), matrix=(_elementary(n, a, b) - _elementary(n, b, a)) / s2)
        )
        basis.append(
            TangentBasisElement(
                "S", (k,), matrix=1j * (_elementary(n, a, b) + _elementary(n, b, a)) / s2
            )
        )
        basis.append(
            TangentBasisElement(
                "T", (k,), matrix=1j * (_elementary(n, a, a) - _elementary(n, b, b)) / s2
            )
        )
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            for alpha, beta in ((0, 0), (1, 0), (0, 1), (1, 1)):
                a, b = 2 * i - alpha - 1, 2 * j - beta - 1
                basis.append(
                    TangentBasisElement(
                        "Rij",
                        (i, j, alpha, beta),
                        matrix=(_elementary(n, a, b) - _elementary(n, b, a)) / s2,
                    )
                )
            for alpha, beta in ((0, 0), (1, 0), (0, 1), (1, 1)):
                a, b = 2 * i - alpha - 1, 2 * j - beta - 1
                basis.append(
                    TangentBasisElement(
                        "Sij",
                        (i, j, alpha, beta),
                        matrix=1j * (_elementary(n, a, b) + _elementary(n, b, a)) / s2,
                    )
                )
    for k in range(1, p + 1):
        v = np.zeros(2 * p)
        v[k - 1] = 1.0
        basis.append(TangentBasisElement("e1", (k,), vector=v))
    for k in range(1, p + 1):
        v = np.zeros(2 * p)
        v[p + k - 1] = 1.0
        basis.append(TangentBasisElement("e2", (k,), vector=v))
    return basis


def hermitian_coordinates(a: np.ndarray) -> np.ndarray:
    """Orthonormal real coordinates of a Hermitian matrix (length n^2).

    Diagonal first, then sqrt(2) * Re and sqrt(2) * Im of the strict upper
    triangle; the 2-norm of the result equals the Frobenius norm. A stack
    of matrices (the last two axes) gives a stack of coordinate vectors.
    """
    iu = np.triu_indices(a.shape[-1], 1)
    upper = a[..., iu[0], iu[1]]
    diag = np.real(np.diagonal(a, axis1=-2, axis2=-1))
    return np.concatenate([diag, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag], axis=-1)


def ambient_coordinates(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian pair (length 2 n^2), or of a stack of pairs."""
    coords = hermitian_coordinates(np.stack([x, y], axis=-3))
    return coords.reshape(*coords.shape[:-2], -1)


def assemble_dG(s: SkewSpectrum, unitary=None) -> np.ndarray:
    """The (2 n^2) x (4p^2 + p) real matrix of dG images, column per basis element.

    A unitary direction S maps to ([S, A_x], [S, B_y]); the spectral
    direction e1_k maps to (A_{delta_k}, 0) and e2_k to (0, B_{delta_k}).
    Columns follow the order of :func:`enumerate_tangent_basis`. When
    ``unitary`` is given, every image pair is conjugated by it before
    taking coordinates; the Gram determinant is invariant under this (the
    test hook for base-point independence).
    """
    p, n = s.p, 2 * s.p
    pair = build_block_diag(s)
    gens = np.array([v.matrix for v in enumerate_tangent_basis(p) if v.matrix is not None])
    ax = np.zeros((len(gens) + 2 * p, n, n), dtype=np.complex128)
    by = np.zeros_like(ax)
    ax[: len(gens)] = gens @ pair.X - pair.X @ gens
    by[: len(gens)] = gens @ pair.Y - pair.Y @ gens
    k = np.arange(p)
    e1, e2 = len(gens) + k, len(gens) + p + k
    ax[e1, 2 * k, 2 * k] = 1.0
    ax[e1, 2 * k + 1, 2 * k + 1] = -1.0
    by[e2, 2 * k, 2 * k + 1] = 1.0
    by[e2, 2 * k + 1, 2 * k] = 1.0
    if unitary is not None:
        u = check_unitary(unitary)
        ax, by = u @ ax @ u.conj().T, u @ by @ u.conj().T
    return ambient_coordinates(ax, by).T


def _singular_values(s: SkewSpectrum, unitary=None) -> np.ndarray:
    """Singular values of dG, descending; the one assembly and SVD behind rank and Gram."""
    if not s.is_generic():
        raise DegenerateJacobian(
            "skew spectrum has coincident x or y coordinates; "
            "the parametrization is a chart only on the generic stratum"
        )
    return np.linalg.svd(assemble_dG(s, unitary=unitary), compute_uv=False)


def jacobian_rank(s: SkewSpectrum) -> int:
    """Numerical rank of dG (full rank 4p^2 + p on the generic stratum)."""
    sv = _singular_values(s)
    return int(np.sum(sv >= RANK_TOL * sv[0]))


def gram_log_determinant(s: SkewSpectrum, unitary=None) -> float:
    """log det(dG^T dG); overflow-safe for large p."""
    sv = _singular_values(s, unitary=unitary)
    if sv[-1] < RANK_TOL * sv[0]:
        raise DegenerateJacobian(
            f"dG is rank deficient: smallest singular value {sv[-1]:.3e} "
            f"below {RANK_TOL:.0e} * largest {sv[0]:.3e}"
        )
    return float(2.0 * np.sum(np.log(sv)))


def closed_form_log_gram(s: SkewSpectrum) -> float:
    """log of the closed-form Gram determinant, evaluated in log space.

    The closed form is 256^p times the square of the density's point and
    pair products, so its log is p log 256 + 2 (log_point + log_pairs);
    -inf where a pair factor vanishes. Per block, 256 x^2 y^2 (x^2 + y^2)
    is 4(x^2+y^2) * 4x^2 * 4y^2 * 4, the last 4 from the two
    sqrt(2)-length spectral columns.
    """
    terms = _kernel(s.points)
    if terms is None:
        return -np.inf
    _, log_point, log_pairs = terms
    return float(s.p * np.log(256.0) + 2.0 * (log_point + log_pairs))


def _shape_ratio(s: SkewSpectrum, log_gram: float, gamma: float) -> float:
    w = WeightSpec(gamma=gamma)
    terms = _kernel(s.points)
    if terms is None:
        raise DegenerateJacobian("density vanishes at this spectrum")
    # ||Z||_F^2 = 2 sum_k |z_k|^2, the kernel's first term
    norm = math.sqrt(2.0 * terms[0])
    log_ratio = 0.5 * log_gram + w.log_weight(norm) - _log_rho_of(terms, w)
    return float(np.exp(log_ratio))


def shape_ratio(s: SkewSpectrum, gamma: float = 1.0) -> float:
    """sqrt(det Gram) * w(||Z||_F) / exp(log_rho); constant (16^p) over generic s."""
    return _shape_ratio(s, gram_log_determinant(s), gamma)


@dataclass(frozen=True)
class DensityShapeReport:
    """Shape-test outcome: the recorded ratios and their spread.

    ``log_gram`` holds log det(dG^T dG) of each spectrum, the one Gram
    factorization the ratio was computed from.
    """

    ratios: np.ndarray
    log_gram: np.ndarray
    mean: float
    coefficient_of_variation: float
    tolerance: float
    passed: bool


def verify_density_shape(spectra, gamma: float = 1.0, tolerance: float = 1e-8) -> DensityShapeReport:
    """Check sqrt(Gram det) * w equals exp(log_rho) up to a single constant.

    ``spectra`` is one SkewSpectrum or a sequence of them (all the same p);
    the ratio is recorded per spectrum and the report passes when the
    coefficient of variation is within ``tolerance``.
    """
    if isinstance(spectra, SkewSpectrum):
        spectra = [spectra]
    log_gram = np.array([gram_log_determinant(s) for s in spectra])
    ratios = np.array([_shape_ratio(s, g, gamma) for s, g in zip(spectra, log_gram)])
    mean = float(np.mean(ratios))
    cv = float(np.std(ratios) / mean) if mean != 0 else np.inf
    return DensityShapeReport(
        ratios=ratios,
        log_gram=log_gram,
        mean=mean,
        coefficient_of_variation=cv,
        tolerance=tolerance,
        passed=bool(cv <= tolerance),
    )
