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
from skewspec.matrixcore import haar_unitary


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
        assert pair.norm_squared == pytest.approx(expected, rel=1e-10)


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


def test_sample_generic_pair_p1_eigenvalues():
    pair = sample_generic_pair(SkewSpectrum([(2.5, 1.0)]), 8)
    lam = np.linalg.eigvalsh(pair.X)
    assert np.allclose(lam, [-2.5, 2.5], atol=1e-10)


def test_sample_generic_pair_deterministic():
    s = SkewSpectrum([(1.0, 2.0), (3.0, 0.5)])
    a = sample_generic_pair(s, 9)
    b = sample_generic_pair(s, 9)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)


def test_sample_generic_pair_rejects_non_generic():
    with pytest.raises(NonGenericInput):
        sample_generic_pair(SkewSpectrum([(1.0, 2.0), (1.0, 3.0)]), 0)


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


def test_random_generic_spectrum_respects_bounds():
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = random_generic_spectrum(5, rng, low=0.1, high=10.0, min_rel_gap=1e-3)
        assert np.all(s.points >= 0.1) and np.all(s.points <= 10.0)
        assert s.is_generic(rel_gap=1e-3)
