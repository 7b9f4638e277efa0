import hashlib

import numpy as np
import pytest

from skewspec.matrixcore import (
    check_unitary,
    frobenius_norm,
    haar_unitary,
    hermitian_eig,
)


def random_hermitian(n, rng, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (z + z.conj().T) / 2.0


def test_frobenius_norm_examples():
    assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    a = np.array([[1.0, 2.0j], [-2.0j, 3.0]])
    # direct entrywise sum: 1 + 4 + 4 + 9
    assert frobenius_norm(a) == pytest.approx(np.sqrt(18.0), rel=1e-15)


def test_hermitian_eig_examples():
    lam, _ = hermitian_eig(np.diag([2.0, -1.0]).astype(complex))
    assert np.allclose(lam, [-1.0, 2.0])
    lam, _ = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert np.allclose(lam, [-1.0, 1.0])


def test_hermitian_eig_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 17))
        a = random_hermitian(n, rng, scale=float(rng.uniform(0.1, 5.0)))
        lam, v = hermitian_eig(a)
        assert np.all(np.diff(lam) >= 0)
        check_unitary(v)
        residual = np.linalg.norm(v @ np.diag(lam) @ v.conj().T - a)
        assert residual <= 1e-10 * max(1.0, frobenius_norm(a))


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(2)
    for n in (1, 2, 5, 12):
        u = haar_unitary(n, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10 * n


def test_haar_unitary_n1_unit_modulus():
    u = haar_unitary(1, np.random.default_rng(3))
    assert abs(abs(u[0, 0]) - 1.0) < 1e-14


def test_haar_unitary_deterministic():
    assert np.array_equal(haar_unitary(4, 123), haar_unitary(4, 123))


@pytest.mark.parametrize(
    "n, digest",
    [
        (1, "7dc08b53d49f63f11ad9ce8ea15f59cd3c36658ae02184e8d1a4d6d5bab787e1"),
        (2, "4fa632697b652ccf21e8f35b60cbb99eb32abb3b7afaa5cae55a9eab024d5f2d"),
        (8, "d3d52123c7695b7519828c2dafe478b10f18b9a0db6e7fabbbac1acf6c4c2828"),
    ],
)
def test_haar_unitary_stream_pinned(n, digest):
    # seeded unitaries, and with them every seeded round trip, stay bit for bit
    assert hashlib.sha256(haar_unitary(n, 123).tobytes()).hexdigest() == digest


def test_haar_unitary_first_entry_moment():
    # E|U_11|^2 = 1/n for Haar measure
    rng = np.random.default_rng(4)
    values = [abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(2000)]
    assert abs(np.mean(values) - 0.5) < 0.05


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: rng.standard_normal((7, 7)),
        lambda rng: rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)),
        lambda rng: (rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))).T,
        lambda rng: rng.standard_normal((8, 8))[::2, 1::3],
        lambda rng: np.array([[3.0 - 4.0j]]) * rng.uniform(0.5, 2.0),
    ],
    ids=["real", "complex", "transposed", "strided", "1x1"],
)
def test_frobenius_norm_matches_linalg_norm(make):
    rng = np.random.default_rng(21)
    for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
        a = scale * make(rng)
        assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("entry", [1e200, np.inf, complex(0.0, -np.inf), np.nan], ids=["overflow", "inf", "complex-inf", "nan"])
def test_frobenius_norm_non_finite_without_warning(entry):
    # warnings are errors in this suite, so a RuntimeWarning would fail the test
    m = np.eye(3, dtype=complex)
    m[1, 2] = entry
    norms = [frobenius_norm(m), frobenius_norm(m.T)]
    if np.imag(entry) == 0:
        norms.append(frobenius_norm(m.real))
    for norm in norms:
        assert not np.isfinite(norm)
        if np.isfinite(entry):  # finite entries whose squares overflow
            assert norm == np.inf
        if np.isnan(entry):
            assert np.isnan(norm)

