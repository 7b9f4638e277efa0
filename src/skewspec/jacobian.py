"""Numerical verification of the skew-spectrum Jacobian.

The parametrization G maps (unitary coset, skew spectrum) to a generic
anti-commuting pair. Its derivative dG is assembled as one array from an
orthonormal tangent basis: three skew-Hermitian directions R_k, S_k, T_k
per 2x2 block and eight inter-block directions R_{ij,ab}, S_{ij,ab} per
block pair, held as one (4p^2 - p, n, n) generator array and imaged by one
commutator over it, and the 2p spectral directions e1_k, e2_k, imaged by
index. The Gram determinant det(dG^T dG) then has the closed form

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

from dataclasses import dataclass

import numpy as np

from .density import WeightSpec, _kernel, log_rho
from .ensemble import SkewSpectrum, build_block_diag
from .matrixcore import check_unitary

RANK_TOL = 1e-10
JACOBIAN_TOL = 1e-8  # bound on the Gram relative error and the shape ratio's spread


class DegenerateJacobian(RuntimeError):
    """The parametrization is not a chart at the requested spectrum."""


def enumerate_tangent_basis(p: int) -> tuple[list[tuple[str, tuple]], np.ndarray]:
    """The ordered tangent basis at the identity coset: ``(labels, generators)``.

    ``labels`` lists ``(tag, indices)`` for all 4p^2 + p directions in the
    order (R_k, S_k, T_k) for k = 1..p, then (R_{ij,ab} for ab in
    00,10,01,11, then S_{ij,ab}) for i < j, then e1_1..e1_p, e2_1..e2_p.
    ``generators`` is the complex (4p^2 - p, n, n) stack of the unitary
    directions' skew-Hermitian matrices, each of unit Frobenius norm, in
    label order; the 2p spectral directions have none (:func:`assemble_dG`
    images them by index).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    labels: list[tuple[str, tuple]] = []
    entries = []  # per generator (a, b, u, c, d, v): u at [a, b] and v at [c, d]
    for k in range(1, p + 1):
        a, b = 2 * k - 2, 2 * k - 1  # rows 2k-1, 2k in 1-based terms
        labels += [("R", (k,)), ("S", (k,)), ("T", (k,))]
        entries += [(a, b, 1, b, a, -1), (a, b, 1j, b, a, 1j), (a, a, 1j, b, b, -1j)]
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            for tag, u, v in (("Rij", 1, -1), ("Sij", 1j, 1j)):
                for alpha, beta in ((0, 0), (1, 0), (0, 1), (1, 1)):
                    a, b = 2 * i - alpha - 1, 2 * j - beta - 1
                    labels.append((tag, (i, j, alpha, beta)))
                    entries.append((a, b, u, b, a, v))
    labels += [("e1", (k,)) for k in range(1, p + 1)] + [("e2", (k,)) for k in range(1, p + 1)]
    a, b, u, c, d, v = zip(*entries)
    generators = np.zeros((len(entries), 2 * p, 2 * p), dtype=np.complex128)
    m = np.arange(len(entries))
    generators[m, a, b] = u
    generators[m, c, d] = v
    return labels, generators / np.sqrt(2.0)


def ambient_coordinates(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian pair (length 2 n^2), or of a stack of pairs.

    Per matrix: the diagonal first, then sqrt(2) * Re and sqrt(2) * Im of
    the strict upper triangle, so the 2-norm equals the Frobenius norm.
    """
    a = np.stack([x, y], axis=-3)
    iu = np.triu_indices(a.shape[-1], 1)
    upper = a[..., iu[0], iu[1]]
    diag = np.real(np.diagonal(a, axis1=-2, axis2=-1))
    coords = np.concatenate([diag, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag], axis=-1)
    return coords.reshape(*coords.shape[:-2], -1)


def assemble_dG(s: SkewSpectrum, unitary=None) -> np.ndarray:
    """The (2 n^2) x (4p^2 + p) real matrix of dG images, column per basis direction.

    A unitary direction S maps to ([S, A_x], [S, B_y]); the spectral
    direction e1_k maps to (A_{delta_k}, 0) and e2_k to (0, B_{delta_k}).
    Columns follow the order of :func:`enumerate_tangent_basis`. When
    ``unitary`` is given, every image pair is conjugated by it before
    taking coordinates; the Gram determinant is invariant under this (the
    test hook for base-point independence).
    """
    p, n = s.p, 2 * s.p
    pair = build_block_diag(s)
    _, gens = enumerate_tangent_basis(p)
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


def gram_log_determinant(s: SkewSpectrum, unitary=None) -> float:
    """log det(dG^T dG) from the singular values of dG; overflow-safe for large p.

    Raises :class:`DegenerateJacobian` off the generic stratum and where
    dG is numerically rank deficient (full rank is 4p^2 + p).
    """
    if not s.is_generic():
        raise DegenerateJacobian(
            "skew spectrum has coincident x or y coordinates; "
            "the parametrization is a chart only on the generic stratum"
        )
    sv = np.linalg.svd(assemble_dG(s, unitary=unitary), compute_uv=False)
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
    passed: bool


def verify_density_shape(spectra, gamma: float = 1.0) -> DensityShapeReport:
    """Check sqrt(Gram det) * w equals exp(log_rho) up to a single constant.

    ``spectra`` is one SkewSpectrum or a sequence of them (all the same p);
    the ratio is recorded per spectrum and the report passes when the
    coefficient of variation is within ``JACOBIAN_TOL``.
    """
    if isinstance(spectra, SkewSpectrum):
        spectra = [spectra]
    w = WeightSpec(gamma=gamma)
    log_gram = np.array([gram_log_determinant(s) for s in spectra])
    ratios = np.exp([0.5 * g - gamma * np.sum(s.points**2) - log_rho(s, w) for s, g in zip(spectra, log_gram)])
    mean = float(np.mean(ratios))
    cv = float(np.std(ratios) / mean) if mean != 0 else np.inf
    return DensityShapeReport(
        ratios=ratios,
        log_gram=log_gram,
        mean=mean,
        coefficient_of_variation=cv,
        passed=bool(cv <= JACOBIAN_TOL),
    )
