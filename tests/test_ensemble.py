import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skewspec.ensemble import (
    HermitianPair,
    NonGenericInput,
    SkewSpectrum,
    build_block_diag,
    conjugate,
    extract_skew_spectrum,
    random_generic_spectrum,
    sample_generic_pair,
)
from skewspec.matrixcore import check_hermitian, check_unitary, frobenius_norm, haar_unitary, hermitian_eig


def test_skew_spectrum_validation():
    s = SkewSpectrum([(1.0, 3.0), (2.0, 4.0)])
    assert s.p == 2
    assert np.allclose(s.x, [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        SkewSpectrum([(1.0, 0.0)])
    with pytest.raises(ValueError, match="positive"):
        SkewSpectrum([(-1.0, 2.0)])
    with pytest.raises(ValueError):
        SkewSpectrum(np.zeros((0, 2)))
    # a flat (x1, y1, ...) row is not reshaped
    with pytest.raises(ValueError):
        SkewSpectrum([1.0, 3.0, 2.0, 4.0])


def test_skew_spectrum_genericity_and_sorting():
    assert SkewSpectrum([(1.0, 3.0), (2.0, 4.0)]).is_generic()
    assert not SkewSpectrum([(1.0, 3.0), (1.0, 4.0)]).is_generic()
    assert not SkewSpectrum([(1.0, 3.0), (2.0, 3.0)]).is_generic()
    s = SkewSpectrum([(2.0, 4.0), (1.0, 3.0)]).sorted()
    assert np.allclose(s.points, [(1.0, 3.0), (2.0, 4.0)])


def test_build_block_diag_p1():
    pair = build_block_diag(SkewSpectrum([(3.0, 4.0)]))
    assert np.allclose(pair.X, np.diag([3.0, -3.0]))
    assert np.allclose(pair.Y, [[0.0, 4.0], [4.0, 0.0]])
    assert pair.anticommutation_residual == 0.0


def test_build_block_diag_p2_layout():
    pair = build_block_diag(SkewSpectrum([(1.0, 3.0), (2.0, 4.0)]))
    assert pair.n == 4
    assert np.allclose(np.diag(pair.X), [1.0, -1.0, 2.0, -2.0])
    assert pair.Y[2, 3] == 4.0 and pair.Y[0, 1] == 3.0
    assert np.allclose(pair.X @ pair.Y + pair.Y @ pair.X, 0.0)


def test_norm_bookkeeping():
    # ||X||_F^2 + ||Y||_F^2 = 2 sum (x^2 + y^2), summed slot by slot
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_generic_spectrum(int(rng.integers(1, 7)), rng)
        pair = build_block_diag(s)
        expected = 2.0 * float(np.sum(s.x**2 + s.y**2))
        assert frobenius_norm(pair.X) ** 2 + frobenius_norm(pair.Y) ** 2 == pytest.approx(expected, rel=1e-10)


def test_conjugate_identity_and_norms():
    s = SkewSpectrum([(1.0, 2.0), (3.0, 1.5)])
    pair = build_block_diag(s)
    same = conjugate(pair, np.eye(4))
    assert np.allclose(same.X, pair.X) and np.allclose(same.Y, pair.Y)

    u = haar_unitary(4, 6)
    moved = conjugate(pair, u)
    assert moved.anticommutation_residual <= 1e-12 * pair.n
    assert np.linalg.norm(moved.X) == pytest.approx(np.linalg.norm(pair.X), rel=1e-12)


def test_conjugate_dimension_mismatch():
    pair = build_block_diag(SkewSpectrum([(1.0, 2.0)]))
    with pytest.raises(ValueError, match="dimension"):
        conjugate(pair, np.eye(4))


def test_residual_growth_under_conjugation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = int(rng.integers(1, 9))
        s = random_generic_spectrum(p, rng, low=0.5, high=2.0)
        pair = conjugate(build_block_diag(s), haar_unitary(2 * p, rng))
        assert pair.anticommutation_residual <= 1e-12 * 2 * p


def test_pair_invariant_rejects_non_anticommuting():
    with pytest.raises(ValueError, match="anti-commute"):
        HermitianPair.from_matrices(np.eye(2), np.eye(2))


@pytest.mark.parametrize(
    "x, y, message",
    [
        (np.eye(2), np.eye(4), "dimension mismatch"),
        (np.diag([1.0, -1.0, 2.0]), np.zeros((3, 3)), "even"),
        (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]]), "not Hermitian"),
    ],
    ids=["shape-mismatch", "odd-dimension", "non-hermitian"],
)
def test_pair_from_matrices_rejections(x, y, message):
    with pytest.raises(ValueError, match=message):
        HermitianPair.from_matrices(x, y)


# each argument is valid apart from the one entry the test makes non-finite
NON_FINITE_ENTRY_POINTS = {
    "check_hermitian": check_hermitian,
    "hermitian_eig": hermitian_eig,
    "check_unitary": check_unitary,
    "conjugate": lambda m: conjugate(build_block_diag(SkewSpectrum([(1.0, 2.0)])), m),
    "from_matrices": lambda m: HermitianPair.from_matrices(m, np.zeros((2, 2))),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", list(NON_FINITE_ENTRY_POINTS))
def test_non_finite_matrix_rejected(entry, value):
    m = np.eye(2, dtype=complex)
    m[0, 0] = value
    with pytest.raises(ValueError, match="non-finite"):
        NON_FINITE_ENTRY_POINTS[entry](m)


def test_pair_from_matrices_round_trips_through_extraction():
    s = SkewSpectrum([(0.5, 2.0), (1.5, 0.25), (4.0, 1.0)])
    block = build_block_diag(s)
    u = haar_unitary(6, 14)
    pair = HermitianPair.from_matrices(u @ block.X @ u.conj().T, u @ block.Y @ u.conj().T)
    out = extract_skew_spectrum(pair)
    assert np.max(np.abs(out.points - s.points) / s.points) <= 1e-12


def test_sample_generic_pair_p1_eigenvalues():
    pair = sample_generic_pair(SkewSpectrum([(2.5, 1.0)]), 8)
    lam = np.linalg.eigvalsh(pair.X)
    assert np.allclose(lam, [-2.5, 2.5], atol=1e-10)


def test_sample_generic_pair_deterministic():
    s = SkewSpectrum([(1.0, 2.0), (3.0, 0.5)])
    a = sample_generic_pair(s, 9)
    b = sample_generic_pair(s, 9)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)


def test_sample_generic_pair_matches_dense_conjugation():
    # the block-structured product against the dense U X U*, U Y U* of conjugate
    rng = np.random.default_rng(16)
    for p in range(1, 9):
        s = random_generic_spectrum(p, rng)
        seed = int(rng.integers(2**32))
        got = sample_generic_pair(s, seed)
        want = conjugate(build_block_diag(s), haar_unitary(2 * p, seed))
        for a, b in ((got.X, want.X), (got.Y, want.Y)):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), p
            assert np.array_equal(a, a.conj().T)
        assert got.anticommutation_residual <= 1e-12 * 2 * p


def test_sample_generic_pair_draws_one_haar_unitary(monkeypatch):
    import skewspec.ensemble

    calls = []
    haar = skewspec.ensemble.haar_unitary

    def counting(n, rng=None):
        calls.append(n)
        return haar(n, rng)

    monkeypatch.setattr(skewspec.ensemble, "haar_unitary", counting)
    rng = np.random.default_rng(17)
    for p in (1, 4, 8):
        sample_generic_pair(random_generic_spectrum(p, rng), rng)
        assert calls == [2 * p]
        calls.clear()


def test_sample_generic_pair_rejects_non_generic():
    # a shared x mixes the eigenvectors of X, which extraction cannot undo
    assert not SkewSpectrum([(1.0, 2.0), (1.0, 3.0)]).has_distinct_x()
    with pytest.raises(NonGenericInput, match="x coordinates") as exc:
        sample_generic_pair(SkewSpectrum([(1.0, 2.0), (1.0, 3.0)]), 0)
    assert "y" not in str(exc.value)


def test_sample_generic_pair_accepts_shared_y():
    # only the x_j need be distinct: equal y_j round-trip through extraction
    s = SkewSpectrum([(1.0, 2.0), (3.0, 2.0), (2.0, 2.0)])
    assert s.has_distinct_x() and not s.is_generic()
    for seed in range(20):
        out = extract_skew_spectrum(sample_generic_pair(s, seed))
        assert np.max(np.abs(out.points - s.sorted().points) / s.sorted().points) <= 1e-12, seed


def test_extract_fixed_point():
    s = SkewSpectrum([(1.0, 3.0), (2.0, 4.0)])
    out = extract_skew_spectrum(build_block_diag(s))
    assert np.allclose(out.points, s.points, rtol=1e-12)


def test_extract_haar_round_trip_single():
    s = SkewSpectrum([(0.5, 2.5)])
    pair = conjugate(build_block_diag(s), haar_unitary(2, 10))
    out = extract_skew_spectrum(pair)
    assert np.allclose(out.points, s.points, rtol=1e-8)


# derandomized so the suite stays reproducible
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
configurations = st.integers(1, 6).flatmap(
    lambda p: arrays(np.float64, (p, 2), elements=st.floats(0.1, 10.0))
)


@PROPERTY_SETTINGS
@given(configurations, st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_extract_round_trip_property(pts, scale, seed):
    # the separation random_generic_spectrum guarantees, at any overall scale
    assume(SkewSpectrum(pts).is_generic(rel_gap=1e-3))
    s = SkewSpectrum(pts * scale).sorted()
    pair = conjugate(build_block_diag(s), haar_unitary(2 * s.p, seed))
    out = extract_skew_spectrum(pair)
    assert np.max(np.abs(out.points - s.points) / s.points) <= 1e-8


def test_extract_zero_y_rejected():
    pair = HermitianPair.from_matrices(np.diag([1.0, -1.0]), np.zeros((2, 2)))
    with pytest.raises(NonGenericInput, match="positivity"):
        extract_skew_spectrum(pair)


def test_extract_singular_x_rejected():
    pair = HermitianPair.from_matrices(np.diag([1.0, 0.0]), np.zeros((2, 2)))
    with pytest.raises(NonGenericInput, match="singular"):
        extract_skew_spectrum(pair)


def test_extract_asymmetric_spectrum_rejected():
    # Y = 0 anti-commutes with anything, so an unpaired X spectrum is reachable
    pair = HermitianPair.from_matrices(np.diag([1.0, 2.0, -1.0, -3.0]), np.zeros((4, 4)))
    with pytest.raises(NonGenericInput, match="symmetric"):
        extract_skew_spectrum(pair)


def test_extract_coincident_x_rejected():
    s = SkewSpectrum([(2.0, 1.0), (2.0, 3.0)])
    pair = conjugate(build_block_diag(s), haar_unitary(4, 12))
    with pytest.raises(NonGenericInput):
        extract_skew_spectrum(pair)


@pytest.mark.parametrize(
    "points, tol",
    [
        ([(2.0, 1.0), (2.0, 1.0)], 1e-12),
        ([(1.0, 2.0), (3.0, 2.0), (2.0, 2.0)], 1e-12),
        # x within a relative 1e-9, y distinct: a check first order in the
        # eigenvector error (the off-diagonal of W*W) would reject every seed;
        # that error enters y_j to second order, 1.2e-12 at worst over these seeds
        ([(2.0, 1.0), (2.0 * (1.0 + 1e-9), 3.0)], 1e-11),
        # y_2 / y_1 = 3e5: the regime where the relative y-match bound needs
        # sigma_j accurate relative to itself, not to ||Y||
        ([(1.0, 1e-5), (2.0, 3.0)], 1e-10),
    ],
    ids=["coincident-points", "shared-y", "x-gap-1e-9", "y-ratio-3e5"],
)
def test_extract_edge_spectra_recovered(points, tol):
    s = SkewSpectrum(points).sorted()
    for seed in range(20):
        pair = conjugate(build_block_diag(s), haar_unitary(2 * s.p, seed))
        out = extract_skew_spectrum(pair)
        assert np.max(np.abs(out.points - s.points) / s.points) <= tol, seed


def test_extract_near_coincident_x_raises_or_recovers():
    # x within a relative 1e-12: the eigenvectors of X mix at order eps / gap,
    # which moves y_j by more than 1e-8 on some seeds; those must raise
    s = SkewSpectrum([(2.0, 1.0), (2.0 * (1.0 + 1e-12), 3.0)])
    for seed in range(20):
        pair = conjugate(build_block_diag(s), haar_unitary(4, seed))
        try:
            out = extract_skew_spectrum(pair)
        except NonGenericInput:
            continue
        assert np.max(np.abs(out.points - s.points) / s.points) <= 1e-8, seed


def test_extract_makes_one_eigendecomposition(monkeypatch):
    import skewspec.ensemble

    calls = []
    eig = skewspec.ensemble.hermitian_eig

    def counting(a):
        calls.append(a.shape)
        return eig(a)

    monkeypatch.setattr(skewspec.ensemble, "hermitian_eig", counting)
    rng = np.random.default_rng(15)
    for p in (1, 3, 6):
        extract_skew_spectrum(sample_generic_pair(random_generic_spectrum(p, rng), rng))
        assert calls == [(2 * p, 2 * p)]
        calls.clear()


def test_random_generic_spectrum_respects_bounds():
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = random_generic_spectrum(5, rng, low=0.1, high=10.0, min_rel_gap=1e-3)
        assert np.all(s.points >= 0.1) and np.all(s.points <= 10.0)
        assert s.is_generic(rel_gap=1e-3)


OVERFLOWING_Y = np.array([[0.0, 1e200], [1e200, 0.0]])


def test_overflowing_norm_rejected():
    # entries of 1e200 are finite, but ||Y||_F is not: every bound scaled by it would be vacuous
    with pytest.raises(ValueError, match="non-finite"):
        check_hermitian(OVERFLOWING_Y)
    with pytest.raises(ValueError, match="non-finite"):
        HermitianPair.from_matrices(np.diag([1.0, -1.0]), OVERFLOWING_Y)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_extract_non_finite_y_rejected(value):
    # a raw HermitianPair is not validated; extraction must still fail with a ValueError, not a warning
    y = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    y[0, 1] = y[1, 0] = value
    pair = HermitianPair(np.diag([1.0, -1.0]).astype(complex), y, 0.0)
    with pytest.raises(NonGenericInput, match="non-finite"):
        extract_skew_spectrum(pair)


def test_round_trip_call_counts(monkeypatch):
    # one Haar sample, one eigendecomposition and one SVD per round trip; the package's own
    # Haar sample is not checked for unitarity again
    import skewspec.ensemble
    import skewspec.matrixcore

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module, name in [
        (skewspec.ensemble, "haar_unitary"),
        (skewspec.ensemble, "hermitian_eig"),
        (skewspec.ensemble, "check_unitary"),
        (skewspec.matrixcore, "check_unitary"),
        (np.linalg, "svd"),
    ]:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    rng = np.random.default_rng(23)
    for p in (1, 4, 8):
        s = random_generic_spectrum(p, rng)
        pair = sample_generic_pair(s, rng)
        assert calls == ["haar_unitary"]
        out = extract_skew_spectrum(pair)
        assert calls == ["haar_unitary", "hermitian_eig", "svd"]
        assert np.max(np.abs(out.points - s.sorted().points) / s.sorted().points) <= 1e-8
        calls.clear()


def test_sampled_and_conjugated_pairs_are_read_only():
    # neither matrix, nor a buffer it is a view of, may be written through
    s = SkewSpectrum([(1.0, 2.0), (3.0, 0.5)])
    for pair in (sample_generic_pair(s, 3), conjugate(build_block_diag(s), haar_unitary(4, 3))):
        for m in (pair.X, pair.Y, pair.X.base, pair.Y.base):
            if m is None:
                continue
            with pytest.raises(ValueError, match="read-only"):
                m[0, ..., 0] = 1.0
