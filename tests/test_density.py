import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skewspec.density import (
    WeightSpec,
    _kernel,
    _log_rho_of,
    _pair_index,
    _stack_pair_index,
    grad_tau,
    lemma_d1_bounds,
    log_kappa_and_grad,
    log_rho,
    pair_factor_f,
    tau,
    tau_and_grad,
)
from skewspec.ensemble import SkewSpectrum, build_block_diag, random_generic_spectrum
from skewspec.fekete import grid_initialization
from skewspec.jacobian import closed_form_log_gram
from skewspec.matrixcore import frobenius_norm


def test_pair_factor_examples():
    assert pair_factor_f((1.0, 1.0), (1.0, 1.0)) == 0.0
    # (2)(10)(10)(18) and (1)(5)(25)(29), each factor spelled out
    assert pair_factor_f((1.0, 1.0), (2.0, 2.0)) == pytest.approx(3600.0, rel=1e-14)
    assert pair_factor_f((1.0, 2.0), (1.0, 3.0)) == pytest.approx(3625.0, rel=1e-14)


def test_pair_factor_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(100):
        zi, zj = rng.uniform(0.1, 5.0, 2), rng.uniform(0.1, 5.0, 2)
        assert pair_factor_f(zi, zj) == pair_factor_f(zj, zi)


def test_lemma_d1_bounds_example():
    lower, upper = lemma_d1_bounds((1.0, 1.0), (2.0, 2.0), eps=1.0, m=2.0)
    assert lower == pytest.approx(256.0)  # 128 * 1 * d^2 with d^2 = 2
    assert upper == pytest.approx(25600.0)  # 200 * 64 * 2
    assert lower <= pair_factor_f((1.0, 1.0), (2.0, 2.0)) <= upper


def test_lemma_d1_bounds_degenerate_and_domain():
    assert lemma_d1_bounds((1.0, 1.0), (1.0, 1.0), eps=0.5, m=2.0) == (0.0, 0.0)
    with pytest.raises(ValueError, match="outside"):
        lemma_d1_bounds((0.1, 1.0), (1.0, 1.0), eps=0.5, m=2.0)


def test_lemma_d1_bounds_random():
    rng = np.random.default_rng(1)
    eps, m = 0.5, 4.0
    for _ in range(1000):
        zi, zj = rng.uniform(eps, m, 2), rng.uniform(eps, m, 2)
        lower, upper = lemma_d1_bounds(zi, zj, eps=eps, m=m)
        f = pair_factor_f(zi, zj)
        assert lower <= f <= upper


def test_log_rho_p1_example():
    value = log_rho(SkewSpectrum([(1.0, 1.0)]), WeightSpec(gamma=1.0))
    assert isinstance(value, float)
    # ||Z||_F^2 = 4, point factor sqrt(2)
    assert value == pytest.approx(-2.0 + 0.5 * np.log(2.0), rel=1e-14)


def test_log_rho_p2_example():
    value = log_rho(SkewSpectrum([(1.0, 1.0), (2.0, 2.0)]), WeightSpec(gamma=1.0))
    expected = -10.0 + np.log(np.sqrt(2.0) * 2.0 * 2.0 * np.sqrt(8.0) * 3600.0)
    assert value == pytest.approx(expected, rel=1e-14)


def test_log_rho_vanishing_cases():
    assert log_rho(np.array([[1.0, 1.0], [1.0, 1.0]]), WeightSpec(gamma=1.0)) == -np.inf
    assert log_rho(np.array([[0.0, 1.0]]), WeightSpec(gamma=1.0)) == -np.inf


def test_kernel_fails_loudly_at_tiny_scale():
    # distinct positive points whose pair factor and |z|^2 underflow to 0
    tiny = np.array([[1.0, 2.0], [3.0, 1.5]]) * 1e-170
    w = WeightSpec(gamma=1.0)
    with pytest.raises(FloatingPointError):
        log_rho(tiny, w)
    with pytest.raises(FloatingPointError):
        tau(tiny)
    with pytest.raises(FloatingPointError):
        closed_form_log_gram(SkewSpectrum(tiny))
    # at 1e-160 tau is finite but 1 / f1 overflows in the gradient; at
    # 1e-310 the point terms 1 / x and x / |z|^2 overflow
    small = np.array([[1.0, 2.0], [3.0, 1.5]]) * 1e-160
    assert np.isfinite(tau(small))
    with np.errstate(all="ignore"):
        for config in (small, np.array([[1.0, 2.0]]) * 1e-310):
            with pytest.raises(FloatingPointError):
                grad_tau(config)
    with np.errstate(divide="ignore"), pytest.raises(FloatingPointError):
        log_rho(np.array([[1.0, 1.0]]) * 1e-170, w)
    # coincident points still mean a vanishing density, at any scale
    coincident = np.array([[1.0, 2.0], [1.0, 2.0]]) * 1e-170
    assert log_rho(coincident, w) == -np.inf
    assert tau(coincident) == np.inf


def test_kernel_raises_where_the_sum_of_squares_overflows():
    # every |z_k|^2 and pair factor is finite, but their sum over the points
    # is not: a density that does not vanish, so not -inf
    a = math.sqrt(0.497 * np.finfo(float).max)
    pts = np.array([[a, 1e-3 * a], [0.1 * a, 0.1 * a], [1e-3 * a, a]])
    with pytest.raises(FloatingPointError):
        log_rho(pts, WeightSpec(gamma=1.0))


def test_kernel_index_caches_stay_bounded():
    # each width keeps its pair indices, 48 B per pair term: 16 rows of
    # p = 400..415 points would hold 63.6 MB if every width stayed cached
    rows = [np.random.default_rng(p).uniform(0.5, 2.0, (1, p, 2)) for p in range(400, 416)]
    _pair_index.cache_clear()
    _stack_pair_index.cache_clear()
    tracemalloc.start()
    try:
        for row in rows:
            _kernel(row)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 10e6


def test_every_density_function_raises_where_the_weight_overflows():
    # at gamma = 1e307 the terms of (3, 4), (5, 1) are finite and gamma
    # sum_k |z_k|^2 is not: a density that does not vanish raises, with no
    # warning, and -inf or +inf still means a density that vanishes
    pts, gamma, w = np.array([[3.0, 4.0], [5.0, 1.0]]), 1e307, WeightSpec(gamma=1e307)
    vanishing, coincident = np.array([[0.0, 4.0], [5.0, 1.0]]), np.array([[3.0, 4.0], [3.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (tau, tau_and_grad, grad_tau, log_kappa_and_grad):
            with pytest.raises(FloatingPointError, match="weight overflows"):
                evaluate(pts, gamma)
        with pytest.raises(FloatingPointError, match="weight overflows"):
            log_rho(pts, w)
        with pytest.raises(FloatingPointError, match="weight overflows"):
            log_rho_stack(np.stack([vanishing, pts]), w)
        assert log_rho(vanishing, w) == -np.inf and tau(vanishing, gamma) == np.inf
        assert tau_and_grad(vanishing, gamma) == (np.inf, None)
        assert log_kappa_and_grad(coincident, gamma) == (-np.inf, None)
        assert log_rho_stack(np.stack([vanishing, coincident]), w).tolist() == [-np.inf, -np.inf]


def log_rho_stack(stack, w):
    return _log_rho_of(_kernel(stack), w)


def test_stacked_rows_equal_single_calls():
    # every row of a stacked kernel call is the single call's value bit for
    # bit, including the vanishing rows: -inf outside the quadrant or at
    # coincident points. A stack holding distinct points whose density
    # cannot be represented raises, as the single call does. From p = 65 a
    # pass of the kernel holds one configuration, so b = 64 runs 64 passes
    w = WeightSpec(gamma=0.7)
    rng = np.random.default_rng(5)
    for p in range(1, 101):
        stack = rng.uniform(0.05, 5.0, (4, p, 2))
        stack[1, 0, rng.integers(2)] = -0.5
        if p > 1:
            stack[2, -1] = stack[2, 0]
            tiny = (np.arange(p)[:, None] + [1.0, 2.0]) * 1e-170  # distinct points
            with pytest.raises(FloatingPointError):
                log_rho(tiny, w)
            with pytest.raises(FloatingPointError):
                log_rho_stack(np.concatenate([stack, tiny[None]]), w)
        rows = log_rho_stack(stack, w)
        for config, row in zip(stack, rows):
            assert log_rho(config, w) == row
        assert rows[1] == -np.inf
        if p > 1:
            assert rows[2] == -np.inf
        for b in (1, 2, 64):
            batch = rng.uniform(0.05, 5.0, (b, p, 2))
            assert np.array_equal(log_rho_stack(batch, w), [log_rho(c, w) for c in batch])


def test_tau_p1_example():
    assert tau(SkewSpectrum([(1.0, 1.0)])) == pytest.approx(1.0 - 0.5 * np.log(2.0), rel=1e-14)


def test_tau_grid_upper_bound():
    # quadratic part of the 2x2 grid is exactly 10; the log terms only subtract
    s2 = grid_initialization(4)
    assert np.allclose(s2.points, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert tau(s2) <= 10.0


def test_tau_infinite_at_coincidence():
    assert tau(np.array([[1.0, 1.0], [1.0, 1.0]])) == np.inf


def test_tau_identity_against_constructed_pair():
    # tau = ||Z||_F^2 / 4 - sum log(x y |z|) - sum_{i<j} log f, with the norm
    # taken from the actually constructed pair
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = random_generic_spectrum(int(rng.integers(1, 6)), rng)
        pair = build_block_diag(s)
        r = np.sqrt(s.x**2 + s.y**2)
        norm_squared = frobenius_norm(pair.X) ** 2 + frobenius_norm(pair.Y) ** 2
        expected = 0.25 * norm_squared - float(np.sum(np.log(s.x * s.y * r)))
        for i in range(s.p):
            for j in range(i + 1, s.p):
                expected -= np.log(pair_factor_f(s.points[i], s.points[j]))
        assert tau(s) == pytest.approx(expected, rel=1e-10)


def test_tau_vs_log_rho_offset():
    # at gamma = 1 the two conventions differ by half the quadratic sum
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = random_generic_spectrum(int(rng.integers(1, 6)), rng)
        quad = float(np.sum(s.x**2 + s.y**2))
        diff = tau(s) - (-log_rho(s, WeightSpec(gamma=1.0)))
        assert diff == pytest.approx(-0.5 * quad, rel=1e-10)


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    s = random_generic_spectrum(6, rng)
    w = WeightSpec(gamma=1.0)
    base_rho = log_rho(s, w)
    base_tau = tau(s)
    for _ in range(10):
        perm = rng.permutation(6)
        shuffled = SkewSpectrum(s.points[perm])
        assert abs(log_rho(shuffled, w) - base_rho) <= 1e-12 * abs(base_rho)
        assert abs(tau(shuffled) - base_tau) <= 1e-12 * max(1.0, abs(base_tau))


def test_grad_tau_p1_closed_form():
    s = np.array([[1.3, 0.7]])
    g = grad_tau(s)
    x, y = 1.3, 0.7
    r2 = x * x + y * y
    assert g[0, 0] == pytest.approx(x - 1.0 / x - x / r2, rel=1e-14)
    assert g[0, 1] == pytest.approx(y - 1.0 / y - y / r2, rel=1e-14)


def test_grad_tau_vanishes_at_p1_optimum():
    root = np.sqrt(1.5)
    g = grad_tau(np.array([[root, root]]))
    assert np.max(np.abs(g)) <= 1e-12


def central_difference(pts, gamma=1.0, rel_step=1e-5):
    g = np.zeros_like(pts)
    for idx in np.ndindex(pts.shape):
        h = rel_step * pts[idx]
        up, down = pts.copy(), pts.copy()
        up[idx] += h
        down[idx] -= h
        g[idx] = (tau(up, gamma) - tau(down, gamma)) / (2.0 * h)
    return g


def test_grad_tau_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = int(rng.integers(1, 7))
        s = random_generic_spectrum(p, rng, min_rel_gap=1e-2)
        analytic = grad_tau(s)
        numeric = central_difference(np.array(s.points))
        assert np.linalg.norm(analytic - numeric) <= 1e-6 * np.linalg.norm(analytic)


# property tests of the shared kernel behind tau, log_rho and grad_tau;
# derandomized so the suite stays reproducible
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
configurations = st.integers(1, 6).flatmap(
    lambda p: arrays(np.float64, (p, 2), elements=st.floats(0.1, 5.0))
)


@PROPERTY_SETTINGS
@given(configurations, st.floats(0.1, 4.0))
def test_tau_equals_minus_log_rho_at_half_gamma(pts, gamma):
    t = tau(pts, gamma)
    assume(np.isfinite(t))
    # both forms scale the kernel's sum |z_k|^2 by the same double
    assert -log_rho(pts, WeightSpec(gamma / 2.0)) == t


@PROPERTY_SETTINGS
@given(configurations, st.randoms(use_true_random=False))
def test_tau_invariant_under_permutation_and_swap(pts, rnd):
    t = tau(pts)
    assume(np.isfinite(t))
    perm = list(range(pts.shape[0]))
    rnd.shuffle(perm)
    tol = 1e-12 * max(1.0, abs(t), 0.5 * float(np.sum(pts * pts)))
    assert abs(tau(pts[perm]) - t) <= tol
    assert abs(tau(pts[:, ::-1]) - t) <= tol


@PROPERTY_SETTINGS
@given(configurations)
def test_grad_tau_matches_finite_differences_property(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2)) + np.eye(pts.shape[0]) * 1e9
    assume(np.min(dist) >= 0.2)
    analytic = grad_tau(pts)
    numeric = central_difference(pts)
    assert np.linalg.norm(analytic - numeric) <= 1e-6 * max(1.0, np.linalg.norm(analytic))


def ordered_pair_grad_tau(pts, gamma):
    """grad_tau written out over every ordered pair as (p, p) arrays whose rows sum to the pair terms."""
    x, y = pts[:, 0], pts[:, 1]
    dx, sx = x[:, None] - x[None, :], x[:, None] + x[None, :]
    dy, sy = y[:, None] - y[None, :], y[:, None] + y[None, :]
    off = ~np.eye(pts.shape[0], dtype=bool)
    inv1, inv2, inv3, inv4 = (np.where(off, 1.0 / np.where(off, f, 1.0), 0.0) for f in (
        dx * dx + dy * dy, sx * sx + dy * dy, dx * dx + sy * sy, sx * sx + sy * sy))
    r2 = x * x + y * y
    gx = gamma * x - 1.0 / x - x / r2 - np.sum(2.0 * dx * (inv1 + inv3) + 2.0 * sx * (inv2 + inv4), axis=1)
    gy = gamma * y - 1.0 / y - y / r2 - np.sum(2.0 * dy * (inv1 + inv2) + 2.0 * sy * (inv3 + inv4), axis=1)
    return np.column_stack([gx, gy])


@PROPERTY_SETTINGS
@given(configurations, st.floats(0.1, 4.0))
def test_tau_and_grad_is_one_pass_of_tau_and_the_ordered_pair_gradient(pts, gamma):
    value, g = tau_and_grad(pts, gamma)
    assert value == tau(pts, gamma)
    assume(g is not None)
    expected = ordered_pair_grad_tau(pts, gamma)
    assert np.linalg.norm(g - expected) <= 1e-10 * np.linalg.norm(expected)


def broadcast_log_kappa_and_grad(pts, gamma):
    """The commuting log density and its gradient over all ordered pairs, without the density kernel."""
    diff = pts[:, None, :] - pts[None, :, :]
    gaps = np.sum(diff * diff, axis=2)
    np.fill_diagonal(gaps, 1.0)  # each diagonal term adds log 1 = 0 and a zero difference
    value = -gamma * np.sum(pts * pts) + 0.5 * np.sum(np.log(gaps))
    return value, -2.0 * gamma * pts + np.sum(2.0 * diff / gaps[:, :, None], axis=1)


def test_log_kappa_grad_matches_central_differences():
    rng = np.random.default_rng(9)
    for n, gamma in ((1, 0.5), (2, 1.0), (7, 0.5), (20, 0.3)):
        pts = rng.normal(size=(n, 2))  # coordinates of either sign
        value, analytic = log_kappa_and_grad(pts, gamma)
        expected_value, expected = broadcast_log_kappa_and_grad(pts, gamma)
        assert value == pytest.approx(expected_value, rel=1e-13, abs=1e-13)
        assert np.linalg.norm(analytic - expected) <= 1e-13 * max(1.0, np.linalg.norm(expected))
        numeric = np.zeros_like(pts)
        for idx in np.ndindex(pts.shape):
            up, down = pts.copy(), pts.copy()
            up[idx] += 1e-6
            down[idx] -= 1e-6
            numeric[idx] = (log_kappa_and_grad(up, gamma)[0] - log_kappa_and_grad(down, gamma)[0]) / 2e-6
        assert np.linalg.norm(analytic - numeric) <= 1e-6 * np.linalg.norm(analytic)
    assert log_kappa_and_grad(np.array([[1.0, 2.0], [1.0, 2.0]]), 1.0) == (-np.inf, None)


def orbit(pts):
    """The 4p images of the points under x -> -x, y -> -y and z -> -z, the points first."""
    return np.concatenate([pts, pts * [-1.0, 1.0], pts * [1.0, -1.0], -pts])


# image-charge oracles: the skew-spectrum density is the commuting density of
# the mirror-symmetric orbit. Both sides run on the one pair kernel, so the
# commuting side is checked against broadcast_log_kappa_and_grad above
@PROPERTY_SETTINGS
@given(configurations, st.floats(0.1, 4.0))
def test_log_rho_is_quarter_log_kappa_of_orbit(pts, gamma):
    value = log_rho(pts, WeightSpec(gamma))
    assume(np.isfinite(value))
    p = pts.shape[0]
    expected = 0.25 * log_kappa_and_grad(orbit(pts), gamma)[0] - 3 * p * np.log(2.0)
    scale = max(1.0, abs(value), gamma * float(np.sum(pts * pts)))
    assert abs(value - expected) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(configurations, st.floats(0.1, 4.0))
def test_grad_tau_is_commuting_grad_of_orbit(pts, gamma):
    assume(np.isfinite(tau(pts)))
    analytic = grad_tau(pts, 2.0 * gamma)
    expected = -log_kappa_and_grad(orbit(pts), gamma)[1][: pts.shape[0]]
    assert np.linalg.norm(analytic - expected) <= 1e-12 * max(1.0, np.linalg.norm(expected))


def test_grad_tau_rejects_infinite_tau():
    with pytest.raises(ValueError, match="infinite"):
        grad_tau(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_log_kappa_examples():
    assert log_kappa_and_grad(np.array([[3.0, 4.0]]), gamma=1.0)[0] == pytest.approx(-25.0)
    two = log_kappa_and_grad(np.array([[0.0, 0.0], [1.0, 0.0]]), gamma=0.5)[0]
    assert two == pytest.approx(-0.5, rel=1e-14)
    assert log_kappa_and_grad(np.array([[1.0, 2.0], [1.0, 2.0]]), gamma=1.0)[0] == -np.inf
    # eigenvalues come as an (n, d) array; a flat vector is not read as d = 1
    with pytest.raises(ValueError):
        log_kappa_and_grad(np.array([0.0, 1.0]), gamma=0.5)


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_log_kappa_fails_loudly_at_extreme_scales(scale):
    # distinct eigenvalues whose squared gaps underflow to 0 or overflow to
    # inf cannot be represented: neither is a coincidence
    pts = np.array([[1.0, 2.0], [3.0, 1.0], [2.5, 4.0]])
    with pytest.raises(FloatingPointError):
        log_kappa_and_grad(pts * scale, 0.5)


def test_weight_spec_validation():
    # a non-finite gamma would make every log_rho -inf or nan
    for gamma in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            WeightSpec(gamma=gamma)
    # points come as a (p, 2) array; a flat (x1, y1, ...) row is rejected
    with pytest.raises(ValueError, match="expected"):
        log_rho(np.array([1.0, 2.0, 3.0, 4.0]), WeightSpec(gamma=1.0))
