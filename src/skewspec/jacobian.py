"""Numerical verification of the skew-spectrum Jacobian.

The parametrization G maps (unitary coset, skew spectrum) to a generic
anti-commuting pair. Its derivative dG has an orthonormal tangent basis:
three skew-Hermitian directions R_k, S_k, T_k per 2x2 block and eight
inter-block directions R_{ij,ab}, S_{ij,ab} per block pair, each imaged by
a commutator, and the 2p spectral directions e1_k, e2_k. After permuting
rows and columns, dG is block diagonal with two kinds of blocks:

- p point blocks, each 8x5: the p = 1 dG at z_k, with columns R_k, S_k,
  T_k, e1_k, e2_k;
- p(p-1)/2 pair blocks, each with 8 columns: the R_ij, S_ij columns of
  the p = 2 dG at (z_i, z_j).

The Gram determinant det(dG^T dG) is the product of the blocks' Gram
determinants and has the closed form

    prod_k 256 x_k^2 y_k^2 (x_k^2 + y_k^2) * prod_{i<j} f(z_i, z_j)^2,

whose square root times the radial weight reproduces the skew-spectrum
density up to one constant. This module computes both sides and compares.
Each 2x2 block of the pair is an irreducible representation with parameters
(x_k, y_k), so G is a chart wherever the points are distinct, shared x's or
y's included; the one degeneracy check is the rank test (``RANK_TOL``), an
argument checked against the dense dG, not a proof. The numeric side
takes the singular values of the blocks of a whole stack of spectra in one
stacked SVD per block kind. The dense dG of :func:`assemble_dG`, a
(8p^2) x (4p^2 + p) array, is the oracle the block path is tested against.

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

import functools
from dataclasses import dataclass

import numpy as np

from .density import _kernel, _pair_index, _terms
from .ensemble import SkewSpectrum, block_diag_arrays, build_block_diag
from .matrixcore import check_unitary

RANK_TOL = 1e-10
JACOBIAN_TOL = 1e-8  # bound on the Gram relative error and the shape ratio's spread


class DegenerateJacobian(RuntimeError):
    """The parametrization is not a chart at the requested spectrum: dG failed the rank test."""


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


def _commutators(gens: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """([S, X], [S, Y]) for every generator S at each pair of a stack: two (..., K, n, n) arrays."""
    x, y = x[..., None, :, :], y[..., None, :, :]
    return gens @ x - x @ gens, gens @ y - y @ gens


def _spectral_images(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The images (A_delta_k, 0) of e1_k and (0, B_delta_k) of e2_k: two (2p, n, n) arrays."""
    n = 2 * p
    ax = np.zeros((2 * p, n, n), dtype=np.complex128)
    by = np.zeros_like(ax)
    k = np.arange(p)
    ax[k, 2 * k, 2 * k] = 1.0
    ax[k, 2 * k + 1, 2 * k + 1] = -1.0
    by[p + k, 2 * k, 2 * k + 1] = 1.0
    by[p + k, 2 * k + 1, 2 * k] = 1.0
    return ax, by


def assemble_dG(s: SkewSpectrum, unitary=None) -> np.ndarray:
    """The dense (2 n^2) x (4p^2 + p) real matrix of dG images, column per basis direction.

    A unitary direction S maps to ([S, A_x], [S, B_y]); the spectral
    direction e1_k maps to (A_{delta_k}, 0) and e2_k to (0, B_{delta_k}).
    Columns follow the order of :func:`enumerate_tangent_basis`. When
    ``unitary`` is given, every image pair is conjugated by it before
    taking coordinates; the Gram determinant is invariant under this (the
    test hook for base-point independence). This is the reference the
    block path of :func:`gram_log_determinants` is tested against; its
    size grows like p^4.
    """
    pair = build_block_diag(s)
    _, gens = enumerate_tangent_basis(s.p)
    rx, ry = _commutators(gens, pair.X, pair.Y)
    ex, ey = _spectral_images(s.p)
    ax, by = np.concatenate([rx, ex]), np.concatenate([ry, ey])
    if unitary is not None:
        u = check_unitary(unitary)
        ax, by = u @ ax @ u.conj().T, u @ by @ u.conj().T
    return ambient_coordinates(ax, by).T


@functools.cache
def _block_generators() -> tuple[np.ndarray, np.ndarray]:
    """The generators of the point blocks (R, S, T at p = 1) and of the pair blocks (the eight R_ij, S_ij at p = 2).

    Built on first use and read-only, since every call shares them.
    """
    _, point = enumerate_tangent_basis(1)
    labels, gens = enumerate_tangent_basis(2)
    pair = gens[[tag in ("Rij", "Sij") for tag, _ in labels[: len(gens)]]]
    point.flags.writeable = False
    pair.flags.writeable = False
    return point, pair


def _block_singular_values(stack: np.ndarray) -> np.ndarray:
    """Singular values of dG at each configuration of a (B, p, 2) stack: (B, 4p^2 + p).

    dG is the direct sum of its point and pair blocks (module docstring),
    so its singular values are the union of theirs. Each block kind is
    imaged by the commutators of its generators with the p = 1 or p = 2
    block-diagonal pairs of the whole stack and factored by one stacked SVD.
    """
    b, p, _ = stack.shape
    point_gens, pair_gens = _block_generators()
    x, y = block_diag_arrays(stack[:, :, None, :])
    spectral = ambient_coordinates(*_spectral_images(1))
    point = np.concatenate(
        [ambient_coordinates(*_commutators(point_gens, x, y)), np.broadcast_to(spectral, (b, p, *spectral.shape))],
        axis=-2,
    )
    sv = [np.linalg.svd(point, compute_uv=False).reshape(b, -1)]
    if p > 1:
        x, y = block_diag_arrays(stack[:, np.stack(_pair_index(p), axis=-1)])
        pair = ambient_coordinates(*_commutators(pair_gens, x, y))
        sv.append(np.linalg.svd(pair, compute_uv=False).reshape(b, -1))
    return np.concatenate(sv, axis=1)


def gram_log_determinants(spectra) -> np.ndarray:
    """log det(dG^T dG) of each spectrum in a sequence of the same p, from dG's blocks.

    Twice the sum of the log singular values of the point and pair blocks,
    all spectra at once; overflow-safe for large p. Raises
    :class:`DegenerateJacobian` when a spectrum's dG is numerically rank
    deficient (full rank is 4p^2 + p), as at coincident points.
    """
    sv = _block_singular_values(np.stack([s.points for s in spectra]))
    smin, smax = sv.min(axis=1), sv.max(axis=1)
    for lo, hi in zip(smin, smax):
        if lo < RANK_TOL * hi:
            raise DegenerateJacobian(
                f"dG is rank deficient: smallest singular value {lo:.3e} "
                f"below {RANK_TOL:.0e} * largest {hi:.3e}"
            )
    return 2.0 * np.sum(np.log(sv), axis=1)


def gram_log_determinant(s: SkewSpectrum) -> float:
    """log det(dG^T dG) of one spectrum: :func:`gram_log_determinants` of ``[s]``."""
    return float(gram_log_determinants([s])[0])


def closed_form_log_gram(s: SkewSpectrum) -> float:
    """log of the closed-form Gram determinant, evaluated in log space.

    The closed form is 256^p times the square of the density's point and
    pair products, so its log is p log 256 + 2 (log_point + log_pairs);
    -inf where a pair factor vanishes. Per block, 256 x^2 y^2 (x^2 + y^2)
    is 4(x^2+y^2) * 4x^2 * 4y^2 * 4, the last 4 from the two
    sqrt(2)-length spectral columns.
    """
    return float(_closed_form_of(_terms(s.points), s.p))


def _closed_form_of(terms, p: int):
    _, log_point, log_pairs = terms
    return p * np.log(256.0) + 2.0 * (log_point + log_pairs)


@dataclass(frozen=True)
class DensityShapeReport:
    """Shape-test outcome: the recorded ratios and their spread.

    ``log_gram`` holds log det(dG^T dG) of each spectrum, the one Gram
    factorization the ratio was computed from, and ``log_closed_form``
    :func:`closed_form_log_gram` of each, from the same density terms as
    the ratio. ``ratios`` is exp(``log_ratios``); it and ``mean`` are inf
    past the double range, as from p = 256.
    """

    ratios: np.ndarray
    log_ratios: np.ndarray
    log_gram: np.ndarray
    log_closed_form: np.ndarray
    mean: float
    coefficient_of_variation: float
    passed: bool


def verify_density_shape(spectra, gamma: float = 1.0) -> DensityShapeReport:
    """Check sqrt(Gram det) * w equals exp(log_rho) up to a single constant.

    ``spectra`` is a sequence of SkewSpectrum (all the same p); the ratio
    is recorded per spectrum and the report passes when the coefficient of
    variation, taken from the log ratios shifted by their maximum, is
    within ``JACOBIAN_TOL``. The weight w at ``gamma`` is a factor of both
    sides and cancels, so ``gamma`` does not enter the ratio.
    """
    log_gram = gram_log_determinants(spectra)
    stack = np.stack([s.points for s in spectra])
    terms = _kernel(stack)
    log_ratios = 0.5 * log_gram - terms[1] - terms[2]
    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratios)
        mean = float(np.mean(ratios))
    scaled = np.exp(log_ratios - log_ratios.max())
    cv = float(np.std(scaled) / np.mean(scaled))
    return DensityShapeReport(
        ratios=ratios,
        log_ratios=log_ratios,
        log_gram=log_gram,
        log_closed_form=_closed_form_of(terms, stack.shape[1]),
        mean=mean,
        coefficient_of_variation=cv,
        passed=bool(cv <= JACOBIAN_TOL),
    )
