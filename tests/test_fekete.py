import math

import numpy as np
import pytest

from skewspec.density import tau
from skewspec.ensemble import SkewSpectrum
from skewspec.fekete import (
    OptimizerConfig,
    fekete_set,
    grid_initialization,
    minimize_commuting,
    minimize_tau,
    solve_K_bound,
    spacing_stats,
)


def test_grid_initialization_examples():
    assert np.allclose(grid_initialization(4).points, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert np.allclose(grid_initialization(3).points, [(1, 1), (1, 2), (2, 1)])
    s1 = grid_initialization(1)
    assert np.allclose(s1.points, [(1, 1)])
    assert tau(s1) == pytest.approx(1.0 - 0.5 * np.log(2.0))
    assert tau(s1) <= 4.0


def test_grid_tau_bound():
    for p in range(1, 65):
        assert tau(grid_initialization(p)) <= (2 * p) ** 2


def bisect_oracle(p, lo, hi, steps=80):
    def g(k):
        return 0.5 * k * k - (3 * p + 4 * p * p) * math.log(k) - 0.5 * p * p * math.log(400.0) - 4 * p * p

    assert g(lo) < 0 < g(hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def test_solve_K_bound_p1():
    k = solve_K_bound(1)
    assert 6.0 < k < 6.5
    assert abs(k - bisect_oracle(1, 6.0, 6.5)) <= 1e-6


def test_solve_K_bound_contract():
    for p in (1, 2, 5, 10):
        k = solve_K_bound(p)
        assert k >= 3 * p
        lhs = 0.5 * k * k - (3 * p + 4 * p * p) * math.log(k) - 0.5 * p * p * math.log(400.0) - 4 * p * p
        assert lhs > 0
        smaller = k - 1e-3
        if smaller >= 3 * p:
            lhs_smaller = (
                0.5 * smaller * smaller
                - (3 * p + 4 * p * p) * math.log(smaller)
                - 0.5 * p * p * math.log(400.0)
                - 4 * p * p
            )
            assert lhs_smaller <= 0
    assert solve_K_bound(10) >= 30.0


def test_minimize_tau_p1_reaches_stationary_point():
    result = minimize_tau(1, OptimizerConfig(grad_tol=1e-8, restarts=4, seed=1))
    root = np.sqrt(1.5)
    assert np.max(np.abs(result.points.points - root)) <= 1e-6
    assert result.grad_norm_final <= 1e-8
    assert result.converged


def test_minimize_tau_trace_monotone_and_bounded():
    result = minimize_tau(4, OptimizerConfig(grad_tol=1e-6, restarts=3, seed=2))
    taus = result.trace[:, 1]
    assert np.all(np.diff(taus) <= 0)
    assert np.all(result.trace[:, 2] <= result.K_bound + 1e-9)
    assert result.tau_final <= tau(grid_initialization(4))
    assert np.all(result.points.points >= 1e-8)
    assert np.all(np.linalg.norm(result.points.points, axis=1) <= result.K_bound)


def test_minimize_tau_deterministic_and_sorted():
    a = minimize_tau(3, OptimizerConfig(grad_tol=1e-6, restarts=3, seed=42))
    b = minimize_tau(3, OptimizerConfig(grad_tol=1e-6, restarts=3, seed=42))
    assert np.array_equal(a.points.points, b.points.points)
    assert a.tau_final == b.tau_final
    assert np.all(np.diff(a.points.points[:, 0]) >= 0)


def test_minimize_tau_more_restarts_never_worse():
    few = minimize_tau(3, OptimizerConfig(grad_tol=1e-6, restarts=2, seed=7))
    many = minimize_tau(3, OptimizerConfig(grad_tol=1e-6, restarts=4, seed=7))
    assert many.tau_final <= few.tau_final + 1e-12


def test_fekete_set_scaling():
    config = OptimizerConfig(grad_tol=1e-8, restarts=2, seed=3)
    assert np.allclose(fekete_set(1, config).points, np.sqrt(1.5), atol=1e-6)

    config = OptimizerConfig(grad_tol=1e-5, restarts=2, seed=3)
    ml = minimize_tau(4, config)
    scaled = fekete_set(4, config)
    assert np.allclose(scaled.points, ml.points.points / 2.0, rtol=1e-12)
    # rescaling back reproduces the maximal-likelihood tau exactly
    assert tau(SkewSpectrum(scaled.points * 2.0)) == pytest.approx(ml.tau_final, rel=1e-12)


def test_fekete_set_p10_scaled_radius():
    # scaled max norm tracks the sqrt(8) quarter-disk radius within 15%
    config = OptimizerConfig(grad_tol=1e-4, restarts=2, max_iters=20_000, seed=8)
    points = fekete_set(10, config).points
    max_norm = float(np.max(np.linalg.norm(points, axis=1)))
    assert abs(max_norm / np.sqrt(8.0) - 1.0) <= 0.15


def test_minimize_commuting_n2_symmetric():
    result = minimize_commuting(2, d=2, gamma=0.5, config=OptimizerConfig(grad_tol=1e-10, restarts=2, seed=4))
    a, b = result.points
    assert np.allclose(a + b, 0.0, atol=1e-8)
    # stationarity: |u| = 1 at gamma = 1/2
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-8)
    assert result.grad_norm_final <= 1e-8


def test_minimize_commuting_trace_monotone():
    result = minimize_commuting(6, d=2, gamma=0.5, config=OptimizerConfig(grad_tol=1e-6, restarts=2, seed=5))
    assert np.all(np.diff(result.trace[:, 1]) <= 0)
    assert np.all(np.abs(result.points) <= 4.0 * np.sqrt(6) + 1e-12)


def test_spacing_stats():
    grid = np.array([(i, j) for i in range(1, 4) for j in range(1, 4)], dtype=float)
    stats = spacing_stats(grid)
    assert stats.nn_mean == pytest.approx(1.0)
    assert stats.nn_cv == pytest.approx(0.0)
    assert stats.max_norm == pytest.approx(np.sqrt(18.0))

    two = spacing_stats(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert two.nn_cv == 0.0
    assert two.max_norm == pytest.approx(5.0)

    with pytest.raises(ValueError, match="at least 2"):
        spacing_stats(np.array([[1.0, 1.0]]))


def test_lemma_e2_along_trace():
    p = 3
    result = minimize_tau(p, OptimizerConfig(grad_tol=1e-6, restarts=2, seed=6))
    k = solve_K_bound(p)
    for _, tau_val, max_norm in result.trace:
        if tau_val <= 4 * p * p:
            assert max_norm <= k + 1e-9


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    with pytest.raises(ValueError):
        OptimizerConfig(grad_tol=-1.0)
