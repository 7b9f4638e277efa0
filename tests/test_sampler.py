import hashlib

import numpy as np
import pytest

from skewspec.cli import main
from skewspec.density import WeightSpec, log_rho
from skewspec.ensemble import extract_skew_spectrum, sample_generic_pair
from skewspec.fekete import grid_initialization
from skewspec.sampler import (
    _propose_and_decide,
    ks_compare,
    p1_quadrature_cdf,
    run_chain,
)

W_HALF = WeightSpec(gamma=0.5)


class FixedDraws:
    """A generator stand-in: every step is zero and every uniform is ``u``."""

    def __init__(self, u=None):
        self.u = u

    def standard_normal(self, shape):
        return np.zeros(shape)

    def uniform(self):
        assert self.u is not None, "a transition with delta >= 0 draws no uniform"
        return self.u


def test_propose_and_decide_is_metropolis_rule():
    # a zero step proposes the current points, so the log density cached for
    # them sets the difference delta that the rule compares against log(u);
    # hand-computed cases of accepting with probability min(1, exp(delta))
    pts = grid_initialization(2).points
    target = log_rho(pts, W_HALF)
    cases = [
        (0.0, None, True),
        (2.5, None, True),
        (-0.5, 0.60, True),  # exp(-0.5) = 0.6065
        (-0.5, 0.61, False),
        (-np.log(4.0), 0.24, True),
        (-np.log(4.0), 0.26, False),
    ]
    for delta, u, accepted in cases:
        cached = target - delta
        _, out_log, got = _propose_and_decide(pts, cached, 0.5, W_HALF, FixedDraws(u))
        assert got is accepted
        assert out_log == (target if accepted else cached)


def test_propose_and_decide_rejects_outside_quadrant():
    # a huge step from the p = 1 grid start is almost surely out of the
    # quadrant, hence rejected with the points and log density unchanged
    pts = grid_initialization(1).points
    log_density = log_rho(pts, W_HALF)
    rejected = 0
    for seed in range(20):
        out, out_log, accepted = _propose_and_decide(
            pts, log_density, 200.0, W_HALF, np.random.default_rng(seed)
        )
        if not accepted:
            rejected += 1
            assert np.array_equal(out, pts)
            assert out_log == log_density
    assert rejected >= 18


def test_initial_state_consistent_cache():
    # the chain starts at the grid configuration with its log density cached;
    # every transition from there keeps that cache equal to log_rho
    pts = grid_initialization(3).points
    log_density = log_rho(pts, W_HALF)
    assert np.isfinite(log_density)
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts, log_density, _ = _propose_and_decide(pts, log_density, 0.5, W_HALF, rng)
        assert log_density == pytest.approx(log_rho(pts, W_HALF), rel=1e-12)


def test_metropolis_trajectory_stays_finite():
    pts = grid_initialization(2).points
    log_density = log_rho(pts, W_HALF)
    rng = np.random.default_rng(6)
    accepted_total = 0
    for _ in range(200):
        pts, log_density, accepted = _propose_and_decide(pts, log_density, 0.5, W_HALF, rng)
        accepted_total += int(accepted)
        assert np.isfinite(log_density)
        assert np.all(pts > 0)
    assert 0 < accepted_total <= 200
    # cached log density stays consistent with the configuration
    assert log_density == pytest.approx(log_rho(pts, W_HALF), rel=1e-12)


def test_run_chain_defaults_and_acceptance():
    report = run_chain(1, W_HALF, 2000, burn_in=4000, thinning=5, seed=11)
    assert report.samples.shape == (2000, 1, 2)
    assert 0.2 <= report.acceptance_rate <= 0.5
    assert np.all(report.samples > 0)
    for i in (0, 100, 1999):
        assert np.isfinite(log_rho(report.spectrum(i), W_HALF))


def test_run_chain_seed_agreement():
    a = run_chain(1, W_HALF, 3000, burn_in=5000, thinning=10, seed=1)
    b = run_chain(1, W_HALF, 3000, burn_in=5000, thinning=10, seed=2)
    xa, xb = a.samples[:, 0, 0], b.samples[:, 0, 0]
    se = np.sqrt(xa.var() / xa.size + xb.var() / xb.size)
    assert abs(xa.mean() - xb.mean()) <= 3 * se


def test_run_chain_stationarity_between_segments():
    # appending a longer segment must not shift the x-marginal mean
    short = run_chain(1, W_HALF, 2000, burn_in=5000, thinning=10, seed=14)
    long = run_chain(1, W_HALF, 4000, burn_in=5000, thinning=10, seed=14)
    head, tail = long.samples[:2000, 0, 0], long.samples[2000:, 0, 0]
    assert np.array_equal(short.samples, long.samples[:2000])
    se = np.sqrt(head.var() / head.size + tail.var() / tail.size)
    assert abs(head.mean() - tail.mean()) <= 3 * se


# sha256 of the samples (little-endian float64), the acceptance rate, the
# step scale, and the stdout of `density --gamma 0.5` on the samples. Recorded
# with numpy 2.4 on x86-64 with AVX-512; numpy's log kernels differ between
# instruction sets, so the digests can differ on another processor.
PINNED_CHAINS = [
    (
        1,
        dict(n_samples=300, burn_in=400, thinning=5, seed=11),
        "9199f7f49fbd050b3402f8f75331553e09faa14c1db32448aa0788c6b486e473",
        0.53,
        0.72,
        "dbacc71dc2311991b9f28d40a7e57971b8d60bb9fe87a4689926b061cd3606f7",
    ),
    (
        3,
        dict(n_samples=100, burn_in=600, thinning=6, seed=12),
        "d99e356d76fed4416ef55640e0822cbe37404ef41559c0bdf0acfe6eb78a3dc2",
        0.30666666666666664,
        0.72,
        "a139ffe4fc4bc91c6527d055633a1bfc2910ad4192b689407cf6a00078bbc8c9",
    ),
]


@pytest.mark.parametrize("p,kwargs,samples_sha,acceptance,scale,density_sha", PINNED_CHAINS, ids=["p1", "p3"])
def test_chain_bits_pinned(tmp_path, capsys, p, kwargs, samples_sha, acceptance, scale, density_sha):
    # a faster transition must not move a single bit of a seeded chain
    report = run_chain(p, W_HALF, **kwargs)
    assert hashlib.sha256(report.samples.astype("<f8").tobytes()).hexdigest() == samples_sha
    assert report.acceptance_rate == acceptance
    assert report.step_scale == scale
    csv = tmp_path / "samples.csv"
    rows = report.samples.reshape(report.n_samples, -1)
    csv.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    assert main(["density", "--points", str(csv), "--gamma", "0.5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == density_sha


def test_chain_builds_pair_indices_once(monkeypatch):
    # the pair indices are cached per p, not rebuilt on every transition
    import skewspec.density

    calls = []
    triu_indices = np.triu_indices

    def counting(*args, **kwargs):
        calls.append(args)
        return triu_indices(*args, **kwargs)

    monkeypatch.setattr(np, "triu_indices", counting)
    skewspec.density._pair_index.cache_clear()
    run_chain(10, W_HALF, 5, burn_in=50, thinning=10, seed=1)
    assert len(calls) <= 1
    i, j = skewspec.density._pair_index(10)
    with pytest.raises(ValueError):
        i[0] = 1
    with pytest.raises(ValueError):
        j[0] = 1


def test_run_chain_argument_validation():
    with pytest.raises(ValueError):
        run_chain(0, W_HALF, 10)
    with pytest.raises(ValueError):
        run_chain(1, W_HALF, 10, thinning=0)


def test_sample_ambient_pair_round_trip():
    report = run_chain(2, W_HALF, 50, burn_in=2000, thinning=5, seed=3)
    pair = sample_generic_pair(report.spectrum(7), rng=4)
    assert pair.anticommutation_residual <= 1e-10 * pair.n
    recovered = extract_skew_spectrum(pair)
    stored = report.spectrum(7).sorted()
    assert np.max(np.abs(recovered.points - stored.points) / stored.points) <= 1e-8
    expected_norm = 2.0 * float(np.sum(stored.points**2))
    assert pair.norm_squared == pytest.approx(expected_norm, rel=1e-10)


def _trapezoid_marginal(gamma, resolution):
    """An independent oracle: 2-D cumulative trapezoid of e^{-gamma r^2} x y r.

    Returns the grid on [0, L], the x-marginal CDF on it and the total mass;
    the error is O(h^2).
    """
    # the mass beyond radius 8 / sqrt(gamma) is below 1e-24 of the total
    t = np.linspace(0.0, 8.0 / np.sqrt(gamma), resolution)
    h = t[1] - t[0]
    x, y = t[:, None], t[None, :]
    r2 = x * x + y * y
    values = np.exp(-gamma * r2) * x * y * np.sqrt(r2)
    weights = np.full(resolution, h)
    weights[[0, -1]] = 0.5 * h
    inner = values @ weights  # integral over y at each grid x
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * h * (inner[1:] + inner[:-1]))])
    return t, cumulative / cumulative[-1], cumulative[-1]


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_exact_marginal_against_trapezoid(gamma):
    law = p1_quadrature_cdf(WeightSpec(gamma=gamma))
    t, cdf, mass = _trapezoid_marginal(gamma, 1024)
    assert law.normalization == pytest.approx(1.0 / mass, rel=2e-5)
    assert law.normalization == 16.0 * gamma**2.5 / (3.0 * np.sqrt(np.pi))
    assert np.max(np.abs(law.cdf(t) - cdf)) <= 1e-5

    assert law.cdf(0.0) == 0.0
    assert law.cdf(1e3) == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(law.cdf(t)) >= 0.0)


def test_ks_self_consistency():
    rng = np.random.default_rng(7)
    data = np.abs(rng.standard_normal((2000, 2))) + 0.1
    xs = np.sort(data[:, 0])
    # reference CDF built from the sample itself: statistic collapses to 1/n

    def empirical(t):
        return np.searchsorted(xs, t, side="right") / xs.size

    from skewspec.sampler import _ks_statistic

    assert _ks_statistic(data[:, 0], empirical) <= 2.0 / xs.size + 1e-9


def test_ks_compare_validation():
    law = p1_quadrature_cdf(W_HALF)
    with pytest.raises(ValueError, match="1000"):
        ks_compare(np.ones((10, 2)), law)
    # a chain's (m, 1, 2) array is not accepted: pass the ChainReport
    with pytest.raises(ValueError, match="expected"):
        ks_compare(np.ones((2000, 1, 2)), law)


def test_chain_matches_quadrature_and_negative_control():
    law = p1_quadrature_cdf(W_HALF)
    good = run_chain(1, W_HALF, 4000, burn_in=5000, thinning=5, seed=8)
    ks = ks_compare(good, law)
    assert ks.x < 0.05 and ks.y < 0.05

    bad = run_chain(1, WeightSpec(gamma=1.0), 4000, burn_in=5000, thinning=5, seed=9)
    ks_bad = ks_compare(bad, law)
    assert ks_bad.x > 0.1 and ks_bad.y > 0.1
