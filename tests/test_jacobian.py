import numpy as np
import pytest

from skewspec.density import WeightSpec, log_rho, pair_factor_f, tau
from skewspec.ensemble import SkewSpectrum, build_block_diag, random_generic_spectrum
from skewspec.jacobian import (
    RANK_TOL,
    DegenerateJacobian,
    ambient_coordinates,
    assemble_dG,
    closed_form_log_gram,
    enumerate_tangent_basis,
    gram_log_determinant,
    gram_log_determinants,
    verify_density_shape,
)
from skewspec.matrixcore import haar_unitary


def test_basis_count_and_tags():
    labels, _ = enumerate_tangent_basis(1)
    assert [tag for tag, _ in labels] == ["R", "S", "T", "e1", "e2"]
    assert len(enumerate_tangent_basis(2)[0]) == 18
    for p in (1, 2, 3, 5):
        labels, generators = enumerate_tangent_basis(p)
        assert len(labels) == 4 * p * p + p
        assert generators.shape == (4 * p * p - p, 2 * p, 2 * p)
        # the generators are the unitary directions, in label order
        assert all(tag not in ("e1", "e2") for tag, _ in labels[: len(generators)])


def test_basis_orthonormal():
    for p in (1, 2, 3, 4):
        _, generators = enumerate_tangent_basis(p)
        # skew-Hermitian, and orthonormal under the real Frobenius inner product
        assert np.array_equal(generators.conj().transpose(0, 2, 1), -generators)
        flat = generators.reshape(len(generators), -1)
        gram = np.real(flat.conj() @ flat.T)
        assert np.max(np.abs(gram - np.eye(len(generators)))) <= 1e-12


def test_ambient_coordinates_isometry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        z1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x, y = (z1 + z1.conj().T) / 2, (z2 + z2.conj().T) / 2
        coords = ambient_coordinates(x, y)
        target = np.sqrt(np.linalg.norm(x) ** 2 + np.linalg.norm(y) ** 2)
        assert abs(np.linalg.norm(coords) - target) <= 1e-12 * max(1.0, target)


def _per_column_dG(s, unitary=None):
    """dG one basis direction at a time: commutator images, then the e1/e2 images."""
    pair = build_block_diag(s)
    n = 2 * s.p
    labels, generators = enumerate_tangent_basis(s.p)
    cols = []
    for i, (tag, indices) in enumerate(labels):
        ax = np.zeros((n, n), dtype=complex)
        by = np.zeros((n, n), dtype=complex)
        a = 2 * indices[0] - 2
        if i < len(generators):
            g = generators[i]
            ax, by = g @ pair.X - pair.X @ g, g @ pair.Y - pair.Y @ g
        elif tag == "e1":
            ax[a, a], ax[a + 1, a + 1] = 1.0, -1.0
        else:
            by[a, a + 1] = by[a + 1, a] = 1.0
        if unitary is not None:
            ax, by = unitary @ ax @ unitary.conj().T, unitary @ by @ unitary.conj().T
        cols.append(ambient_coordinates(ax, by))
    return np.array(cols).T


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_assemble_dG_matches_per_column_oracle(p, conjugated):
    rng = np.random.default_rng(20 + p)
    s = random_generic_spectrum(p, rng, low=0.1, high=5.0)
    u = haar_unitary(2 * p, rng) if conjugated else None
    got = assemble_dG(s, unitary=u)
    want = _per_column_dG(s, unitary=u)
    assert got.shape == want.shape == (8 * p * p, 4 * p * p + p)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_assemble_dG_single_block_images():
    s = SkewSpectrum([(1.7, 0.6), (0.4, 2.2)])
    labels, generators = enumerate_tangent_basis(2)
    columns = assemble_dG(s)
    image = {label: columns[:, i] for i, label in enumerate(labels)}

    for k in (1, 2):
        x_k, y_k = s.points[k - 1]
        img = image[("S", (k,))]
        # ([S, A_x], 0) with norm 2 x_k
        assert np.linalg.norm(img) == pytest.approx(2.0 * x_k, rel=1e-12)
        r_k = generators[labels.index(("R", (k,)))]
        expected = ambient_coordinates(-2j * x_k * r_k, np.zeros((4, 4), dtype=complex))
        assert np.allclose(img, expected, atol=1e-14)

        img = image[("T", (k,))]
        expected = ambient_coordinates(np.zeros((4, 4), dtype=complex), 2j * y_k * r_k)
        assert np.linalg.norm(img) == pytest.approx(2.0 * y_k, rel=1e-12)
        assert np.allclose(img, expected, atol=1e-14)

        img = image[("e1", (k,))]
        assert np.linalg.norm(img) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        diag = img[:4]
        assert diag[2 * k - 2] == 1.0 and diag[2 * k - 1] == -1.0


def test_gram_determinant_p1_values():
    assert np.exp(gram_log_determinant(SkewSpectrum([(1.0, 1.0)]))) == pytest.approx(512.0, rel=1e-10)
    s = SkewSpectrum([(2.0, 1.0)])
    # columns are orthogonal: (4x^2+4y^2)(4x^2)(4y^2)(2)(2)
    gram = np.exp(gram_log_determinant(s))
    assert gram == pytest.approx(5120.0, rel=1e-10)
    assert gram == pytest.approx(np.exp(closed_form_log_gram(s)), rel=1e-10)


def test_gram_determinant_p2_example():
    s = SkewSpectrum([(1.0, 1.0), (2.0, 2.0)])
    expected = 512.0 * (256.0 * 4.0 * 4.0 * 8.0) * 3600.0**2
    assert np.exp(closed_form_log_gram(s)) == pytest.approx(expected, rel=1e-12)
    assert np.exp(gram_log_determinant(s)) == pytest.approx(expected, rel=1e-8)


def test_gram_rejects_degenerate_spectrum():
    # coincident points: dG loses rank, so the rank test raises
    with pytest.raises(DegenerateJacobian, match="rank deficient"):
        gram_log_determinant(SkewSpectrum([(1.0, 2.0), (1.0, 2.0)]))


@pytest.mark.parametrize("points", [[(1.0, 1.0), (1.0, 2.0)], [(1.0, 2.0), (3.0, 2.0), (1.0, 0.5)]])
def test_gram_of_shared_coordinates(points):
    # distinct points that share an x or a y: dG has full rank and matches the closed form
    s = SkewSpectrum(points)
    dense = np.linalg.svd(assemble_dG(s), compute_uv=False)
    assert dense.min() > 0.1 * dense.max()
    closed = closed_form_log_gram(s)
    assert gram_log_determinant(s) == pytest.approx(closed, rel=1e-14)
    assert _dense_log_gram(s) == pytest.approx(closed, rel=1e-14)


def test_gram_rejects_rank_deficient_spectrum():
    # generic, but one pair is 1e-6 apart while another point sits at 1e6:
    # the union of block singular values spans more than 1 / RANK_TOL
    s = SkewSpectrum([(1e6, 2e6), (1.0, 1.0), (1.0 + 1e-6, 1.0 + 1e-6)])
    assert s.is_generic()
    sv = np.linalg.svd(assemble_dG(s), compute_uv=False)
    assert sv[-1] < RANK_TOL * sv[0]
    fine = SkewSpectrum([(3.0, 2.0), (1.0, 1.5), (2.0, 1.0)])
    assert np.isfinite(gram_log_determinants([fine])).all()
    with pytest.raises(DegenerateJacobian, match="rank deficient"):
        gram_log_determinants([fine, s])


def test_closed_form_factorization_identity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = random_generic_spectrum(int(rng.integers(1, 5)), rng)
        r = np.sqrt(s.x**2 + s.y**2)
        point_part = float(np.prod(16.0 * s.x * s.y * r))
        pair_part = 1.0
        for i in range(s.p):
            for j in range(i + 1, s.p):
                pair_part *= pair_factor_f(s.points[i], s.points[j])
        assert np.sqrt(np.exp(closed_form_log_gram(s))) == pytest.approx(point_part * pair_part, rel=1e-12)


def test_closed_form_matches_numeric():
    rng = np.random.default_rng(2)
    for p in (1, 2, 3):
        for _ in range(5):
            s = random_generic_spectrum(p, rng)
            rel = abs(np.exp(gram_log_determinant(s) - closed_form_log_gram(s)) - 1.0)
            assert rel <= 1e-8


def test_closed_form_log_gram_finite_at_large_scale():
    # near 1e40 each pair factor is ~1e160, so a product of raw factors
    # overflows; the closed form must stay in log space like log_rho does
    s = SkewSpectrum([(1.0e40, 2.0e40), (3.0e40, 1.5e40)])
    assert np.isfinite(log_rho(s, WeightSpec(gamma=1.0)))
    x, y = s.x, s.y
    expected = 2 * np.log(256.0)
    for k in range(2):
        expected += 2 * np.log(x[k]) + 2 * np.log(y[k]) + np.log(x[k] ** 2 + y[k] ** 2)
    dx, sx = x[0] - x[1], x[0] + x[1]
    dy, sy = y[0] - y[1], y[0] + y[1]
    for a, b in ((dx, dy), (sx, dy), (dx, sy), (sx, sy)):
        expected += 2 * np.log(a * a + b * b)
    value = closed_form_log_gram(s)
    assert np.isfinite(value)
    assert value == pytest.approx(expected, rel=1e-12)
    # at 9e153, 2 sum |z_k|^2 overflows a double while sum |z_k|^2 does not
    big = np.array([[9e153, 9e153]])
    assert log_rho(big, WeightSpec(gamma=1.0)) == -tau(big, 2.0) == pytest.approx(-1.62e308, rel=1e-12)


def test_rank_equals_dimension():
    rng = np.random.default_rng(3)
    for p in (1, 2, 3, 4):
        s = random_generic_spectrum(p, rng)
        sv = np.linalg.svd(assemble_dG(s), compute_uv=False)
        assert int(np.sum(sv >= RANK_TOL * sv[0])) == 4 * p * p + p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gram_block_structure(p):
    # every Gram entry between different point or pair blocks vanishes: the
    # decomposition gram_log_determinant relies on
    s = random_generic_spectrum(p, np.random.default_rng(4))
    labels, _ = enumerate_tangent_basis(p)
    columns = assemble_dG(s)
    gram = columns.T @ columns
    groups = [indices[:2] if tag in ("Rij", "Sij") else indices[:1] for tag, indices in labels]
    block = np.array([sorted(set(groups)).index(g) for g in groups])
    off_block = block[:, None] != block[None, :]
    assert np.max(np.abs(gram[off_block])) <= 1e-12 * np.max(np.abs(gram))


def test_inter_block_determinant_equals_f_squared():
    # the 16x8 inter-block system alone must have Gram determinant f^2
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = random_generic_spectrum(2, rng, low=0.1, high=5.0)
        labels, _ = enumerate_tangent_basis(2)
        columns = assemble_dG(s)
        idx = [i for i, (tag, _) in enumerate(labels) if tag in ("Rij", "Sij")]
        m = columns[:, idx]
        det = np.linalg.det(m.T @ m)
        f = pair_factor_f(s.points[0], s.points[1])
        assert det == pytest.approx(f * f, rel=1e-8)


def _dense_log_gram(s, unitary=None):
    return 2.0 * np.sum(np.log(np.linalg.svd(assemble_dG(s, unitary=unitary), compute_uv=False)))


def test_determinant_invariant_under_conjugation():
    rng = np.random.default_rng(6)
    s = random_generic_spectrum(2, rng)
    base = gram_log_determinant(s)
    for seed in range(3):
        moved = _dense_log_gram(s, unitary=haar_unitary(4, seed))
        assert abs(np.exp(moved - base) - 1.0) <= 1e-8


@pytest.mark.parametrize("low, high", [(0.1, 5.0), (0.01, 10.0), (1e-3, 1.0)])
@pytest.mark.parametrize("p", range(1, 9))
def test_block_log_gram_matches_dense_oracle(p, low, high):
    rng = np.random.default_rng(30 + p)
    spectra = [random_generic_spectrum(p, rng, low=low, high=high) for _ in range(5)]
    blocks = gram_log_determinants(spectra)
    for s, block in zip(spectra, blocks):
        assert gram_log_determinant(s) == pytest.approx(block, rel=1e-15, abs=1e-13)
        assert abs(np.exp(block - _dense_log_gram(s)) - 1.0) <= 1e-12


def test_shape_ratio_p1_is_16():
    assert verify_density_shape([SkewSpectrum([(1.0, 1.0)])]).ratios[0] == pytest.approx(16.0, rel=1e-10)


def test_shape_ratio_scale_invariant():
    s = SkewSpectrum([(0.8, 1.4), (2.1, 0.9)])
    base = verify_density_shape([s]).ratios[0]
    for t in (0.5, 2.0, 7.0, 1e-9, 1e4, 1e6, 1e9):
        scaled = SkewSpectrum(np.asarray(s.points) * t)
        assert verify_density_shape([scaled]).ratios[0] == pytest.approx(base, rel=1e-9)


def test_shape_ratio_beyond_double_range(monkeypatch):
    # p = 300: each ratio is about 16^p, past the double range; the Gram
    # determinant is replaced by its closed form to keep the test fast
    import skewspec.jacobian

    monkeypatch.setattr(
        skewspec.jacobian, "gram_log_determinants", lambda spectra: np.array([closed_form_log_gram(s) for s in spectra])
    )
    rng = np.random.default_rng(11)
    report = verify_density_shape([SkewSpectrum(rng.uniform(0.1, 5.0, (300, 2))) for _ in range(3)])
    assert report.passed and report.coefficient_of_variation <= 1e-8
    assert np.isinf(report.ratios).all() and report.mean == np.inf
    assert np.isfinite(report.log_ratios).all()


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_shape_check_passes_away_from_unit_scale(scale):
    # criterion 2's spectra, scaled: the weight is a factor of both sides of
    # the ratio, so the check must not depend on it cancelling in roundoff
    rng = np.random.default_rng(102)
    spectra = [random_generic_spectrum(2, rng, low=0.1, high=5.0, min_rel_gap=1e-3) for _ in range(50)]
    report = verify_density_shape([SkewSpectrum(s.points * scale) for s in spectra])
    assert report.passed and report.coefficient_of_variation <= 1e-8
    assert report.mean == pytest.approx(256.0, rel=1e-9)


def test_verify_density_shape_report():
    rng = np.random.default_rng(7)
    spectra = [random_generic_spectrum(2, rng) for _ in range(20)]
    report = verify_density_shape(spectra, gamma=1.0)
    assert report.passed
    assert report.coefficient_of_variation <= 1e-8
    assert report.mean == pytest.approx(256.0, rel=1e-10)

    single = verify_density_shape(spectra[:1], gamma=2.0)
    assert single.ratios.shape == (1,)
    assert single.passed
