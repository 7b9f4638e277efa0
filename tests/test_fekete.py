import hashlib
import math

import numpy as np
import pytest

from skewspec.cli import main
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


def test_minimize_tau_p25_converges_within_200_iterations():
    # the anti n = 50 solve of the benchmark: projected gradient descent took
    # 3246 iterations to a minimum at tau = -4705.4934; L-BFGS must converge
    # far sooner, to that minimum or one within 1e-4 relative of it
    result = minimize_tau(25, OptimizerConfig(restarts=1))
    assert result.converged
    assert result.iterations <= 200
    assert abs(result.tau_final / -4705.4934 - 1.0) <= 1e-4


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
    assert result.K_bound is None


def test_minimize_commuting_is_planar():
    for d in (1, 3):
        with pytest.raises(ValueError, match="planar"):
            minimize_commuting(4, d=d)


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
    # tau at gamma is tau at 1 of sqrt(gamma) z plus (3p/2 + 2p(p - 1)) log gamma,
    # so the lemma holds on the solver's own trace with K rescaled by 1/sqrt(gamma)
    p = 3
    for gamma in (1.0, 0.01, 4.0):
        result = minimize_tau(p, OptimizerConfig(grad_tol=1e-6, restarts=2, seed=6), gamma=gamma)
        assert result.K_bound == solve_K_bound(p) / math.sqrt(gamma)
        shift = (1.5 * p + 2 * p * (p - 1)) * math.log(gamma)
        for _, tau_val, max_norm in result.trace:
            if tau_val - shift <= 4 * p * p:
                assert max_norm <= result.K_bound + 1e-9


def test_minimize_tau_small_gamma_reaches_the_reference_radius():
    # the optimum radius grows like 1/sqrt(gamma): at gamma = 0.01 it is ten
    # times the gamma = 1 radius
    p, gamma = 10, 0.01
    result = minimize_tau(p, OptimizerConfig(restarts=1, max_iters=500), gamma=gamma)
    assert result.converged
    ratio = spacing_stats(result.points).max_norm / (2.0 * math.sqrt(2 * p / gamma))
    assert 0.8 <= ratio <= 1.0


def test_minimize_commuting_small_gamma_reaches_the_reference_radius():
    n, gamma = 20, 0.01
    result = minimize_commuting(n, gamma=gamma, config=OptimizerConfig(restarts=1))
    assert result.converged
    ratio = spacing_stats(result.points).max_norm / math.sqrt(n / gamma)
    assert 0.8 <= ratio <= 1.0


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    # a nan or infinite tolerance would never or always count as converged
    for grad_tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            OptimizerConfig(grad_tol=grad_tol)


# sha256 of points.csv and trace.csv of four `fekete` runs: the README's two
# figures and one non-default gamma per mode. Recorded with numpy 2.4 on
# x86-64 with AVX-512; numpy's log kernels differ between instruction sets,
# so the digests can differ on another processor.
PINNED_FEKETE = [
    (
        ("--n", "20", "--mode", "anti", "--seed", "1"),
        "b992bf19f40e21aaadaffe4f12b874742af4758a8bdcb747ddffbea19a95e14f",
        "e89c68b0af68847ce25de3ca00f0823bc6f947dbe3aef274a9174eb31db0a05d",
    ),
    (
        ("--n", "40", "--mode", "commuting", "--seed", "1"),
        "519cbcefa07959daa74613690c095b5d86d74b423fbd5018c18678e6d78590ff",
        "3ef04a7deb4b4127b138cba80e653904870511a5bd76e8e004f0b3b88e3f2eb2",
    ),
    (
        ("--n", "50", "--restarts", "2", "--gamma", "7.5", "--seed", "4"),
        "9a90079960e9f9d308b7580c8db714cedfb8a2f13c0b55e15d9da1a928412705",
        "76b8189812a1a41d0c598d8d1406c2cad6603834b50256f357cf7d7259aef760",
    ),
    (
        ("--n", "24", "--mode", "commuting", "--gamma", "0.01", "--restarts", "2", "--seed", "0"),
        "30406c54534702bbda6472d858f5d0d28ff8c3e02a99b0478d779b9f0d759465",
        "2c7cbc3852cfd2df80868459deaaf56b4bfeb8cedf38a1d3fb6d35d774aa776f",
    ),
]


@pytest.mark.parametrize("argv,points_sha,trace_sha", PINNED_FEKETE, ids=["fig1", "fig2", "anti-gamma", "commuting-gamma"])
def test_fekete_bits_pinned(tmp_path, capsys, argv, points_sha, trace_sha):
    # a rewritten objective or solver must not move a single bit of a seeded solve
    assert main(["fekete", *argv, "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "points.csv").read_bytes()).hexdigest() == points_sha
    assert hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest() == trace_sha
