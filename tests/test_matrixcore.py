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


def test_haar_unitary_first_entry_moment():
    # E|U_11|^2 = 1/n for Haar measure
    rng = np.random.default_rng(4)
    values = [abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(2000)]
    assert abs(np.mean(values) - 0.5) < 0.05
