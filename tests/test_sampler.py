import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

from skewspec.cli import main
from skewspec.density import WeightSpec, log_rho, stack_size
from skewspec.ensemble import extract_skew_spectrum, sample_generic_pair
from skewspec.fekete import grid_initialization
from skewspec.matrixcore import frobenius_norm
from skewspec.sampler import (
    ADAPT_WINDOW,
    ACCEPT_TARGET_HIGH,
    ACCEPT_TARGET_LOW,
    MAX_CHAINS,
    ChainReport,
    _gamma_p,
    _step,
    ks_compare,
    p1_quadrature_cdf,
    radial_ks,
    run_chain,
    split_rhat,
)

W_HALF = WeightSpec(gamma=0.5)
# a log-uniform just below 0: every transition with delta >= 0 accepts
LOG_U_NEAR_ONE = np.log(np.nextafter(1.0, 0.0))


def test_propose_and_decide_is_metropolis_rule():
    # the proposal is the current points, so the log density cached for
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
        log_u = LOG_U_NEAR_ONE if u is None else np.log(u)
        # the proposal is a copy of the current points
        states, log_density = np.array([pts]), np.array([cached])
        assert _step(states, log_density, states.copy(), np.array([log_u]), W_HALF) == int(accepted)
        assert log_density[0] == (target if accepted else cached)


def _chains_from_grid(p, k):
    """K chains at the p-point grid start, with its log density cached: (states, log densities)."""
    pts = grid_initialization(p).points
    return np.repeat(pts[None], k, axis=0), np.full(k, log_rho(pts, W_HALF))


def test_propose_and_decide_rejects_outside_quadrant():
    # a huge step from the p = 2 grid start is almost surely out of the
    # quadrant, hence rejected with the points and log density unchanged
    rng = np.random.default_rng(0)
    states, log_density = _chains_from_grid(2, 20)
    before, cached = states.copy(), log_density.copy()
    proposal, log_u = states + 200.0 * rng.standard_normal((20, 2, 2)), np.log(rng.uniform(size=20))
    accepts = _step(states, log_density, proposal, log_u, W_HALF)
    rejected = np.all(states == before, axis=(1, 2))
    assert accepts == 20 - np.count_nonzero(rejected) <= 2
    assert np.array_equal(log_density[rejected], cached[rejected])


def test_off_quadrant_proposal_is_rejected_whatever_log_u():
    # an off-quadrant proposal has a vanishing density, which even log u = -inf
    # does not accept, while the chain beside it accepts a finite proposal
    states, log_density = _chains_from_grid(2, 2)
    proposal = states.copy()
    proposal[0, 1, 0] = -4.0  # chain 0 proposes x_2 = -4
    proposal[1] += 10.0  # chain 1 proposes a far but finite configuration
    before, cached = states.copy(), log_density.copy()
    assert _step(states, log_density, proposal, np.full(2, -math.inf), W_HALF) == 1
    assert np.array_equal(states[0], before[0]) and log_density[0] == cached[0]
    assert np.array_equal(states[1], before[1] + 10.0) and log_density[1] == log_rho(states[1], W_HALF)


def test_proposals_that_underflow_raise():
    # distinct points at 1e-170 have pair factors that round to 0, so their
    # density cannot be represented: a chain proposing them raises, whatever log u is
    tiny = np.array([[[1.0, 2.0], [3.0, 1.5]]]) * 1e-170
    for log_u in (-math.inf, 0.0):
        with pytest.raises(FloatingPointError):
            _step(tiny.copy(), np.zeros(1), tiny.copy(), np.array([log_u]), W_HALF)


def _batches(p, seed, n_batches, k=4, depth=4):
    """K chains from the p-point grid start, ``depth`` steps a batch: yields (acceptances, states, log densities)."""
    states, log_density = _chains_from_grid(p, k)
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        increments = 0.5 * rng.standard_normal((depth, k, p, 2))
        log_u = np.log(rng.uniform(size=(depth, k)))
        accepted = sum(_step(states, log_density, states + d, u, W_HALF) for d, u in zip(increments, log_u))
        yield accepted, states, log_density


def test_initial_state_consistent_cache():
    # the chain starts at the grid configuration with its log density cached;
    # every batch of transitions from there keeps that cache equal to log_rho
    assert np.isfinite(log_rho(grid_initialization(3).points, W_HALF))
    for _, states, log_density in _batches(3, seed=3, n_batches=20):
        assert log_density.tolist() == [log_rho(pts, W_HALF) for pts in states]


def test_metropolis_trajectory_stays_finite():
    accepted_total = transitions = 0
    for accepted, states, log_density in _batches(2, seed=6, n_batches=100):
        transitions += 16
        accepted_total += accepted
        assert 0 <= accepted <= 16
        assert np.all(np.isfinite(log_density))
        assert np.all(states > 0)
    assert 0 < accepted_total <= transitions
    # cached log density stays consistent with the configuration
    assert log_density.tolist() == [log_rho(pts, W_HALF) for pts in states]


# the p = 1 edge cases in a lone chain, and in the last of run_chain's 64
P1_CHAINS = [1, 64]
P1_CHAIN_IDS = ["walk1", "walk64"]


def _one_transition(k, state, increment, log_u, log_density=0.0):
    """One p = 1 step of k chains, the case in the last: (acceptances, its state after it, its log density).

    The other chains sit at (1, 1) with its exact log density and propose it
    again with log u = 0, so delta is exactly 0 and each rejects.
    """
    states, densities = np.ones((k, 1, 2)), np.full(k, log_rho(np.ones((1, 2)), W_HALF))
    states[-1, 0], densities[-1] = state, log_density
    proposal, log_us = states.copy(), np.zeros(k)
    proposal[-1, 0] += increment
    log_us[-1] = log_u
    accepts = _step(states, densities, proposal, log_us, W_HALF)
    assert np.all(states[:-1] == 1.0)
    return accepts, states[-1], densities[-1]


@pytest.mark.parametrize("k", P1_CHAINS, ids=P1_CHAIN_IDS)
@pytest.mark.parametrize("state,increment", [((1.0, 1.0), (1e160, 0.0)), ((1e-170, 1e-170), (0.0, 0.0))])
def test_p1_walk_raises_where_r2_cannot_be_represented(k, state, increment):
    # |z|^2 of the proposal overflows, or underflows to 0: the kernel
    # raises, whatever log u is
    for log_u in (-math.inf, 0.0):
        with pytest.raises(FloatingPointError):
            _one_transition(k, state, increment, log_u)


@pytest.mark.parametrize("k", P1_CHAINS, ids=P1_CHAIN_IDS)
@pytest.mark.parametrize("increment", [(-2.0, 0.5), (-1.0, 0.0), (0.5, -3.0), (-1.0, -1.0)])
def test_p1_walk_rejects_a_nonpositive_proposal(k, increment):
    log_density = log_rho(np.array([[1.0, 1.0]]), W_HALF)
    accepts, out, out_log = _one_transition(k, (1.0, 1.0), increment, -math.inf, log_density)
    assert (accepts, out_log) == (0, log_density)
    assert np.array_equal(out, [[1.0, 1.0]])


def test_p1_walk_with_log_u_of_minus_inf_accepts():
    # a proposal far down the tail is accepted by a uniform of 0, alone or among 64 chains
    for k in P1_CHAINS:
        accepts, out, out_log = _one_transition(k, (1.0, 1.0), (20.0, 30.0), -math.inf, 5.0)
        assert accepts == 1
        assert np.array_equal(out, [[21.0, 31.0]])
        assert out_log == log_rho(out, W_HALF)


def _sequential_chains(p, w, n_samples, burn_in, thinning, seed, k):
    """K chains, one proposal at a time through log_rho, as run_chain's docstring states them."""
    normal_seed, uniform_seed = np.random.SeedSequence(seed).spawn(2)
    normals, uniforms = np.random.default_rng(normal_seed), np.random.default_rng(uniform_seed)
    states = [grid_initialization(p).points] * k
    log_density = [log_rho(states[0], w)] * k
    scale = 0.5
    burn, kept, window = -(-burn_in // k), -(-n_samples // k), -(-ADAPT_WINDOW // k)
    window_accepts = accepted_total = 0
    samples = []
    for step in range(1, burn + kept * thinning + 1):
        accepted = 0
        for chain in range(k):
            proposal = states[chain] + scale * normals.standard_normal((p, 2))
            log_u = np.log(uniforms.random())
            candidate = log_rho(proposal, w)
            if log_u < candidate - log_density[chain]:
                states[chain], log_density[chain] = proposal, candidate
                accepted += 1
        if step <= burn:
            window_accepts += accepted
            if step % window == 0:
                rate = window_accepts / (window * k)
                if rate > ACCEPT_TARGET_HIGH:
                    scale *= 1.2
                elif rate < ACCEPT_TARGET_LOW:
                    scale /= 1.2
                window_accepts = 0
        else:
            accepted_total += accepted
            if (step - burn) % thinning == 0:
                samples.extend(states)
    return np.array(samples[:n_samples]), accepted_total / (k * kept * thinning), scale


@pytest.mark.parametrize("chains", [1, 2, 8, 64])
def test_chain_is_sequential_metropolis(monkeypatch, chains):
    # K = min(n_samples, MAX_CHAINS) chains here at every p; a draw block of
    # 7 transitions draws one step at a time for K >= 4
    import skewspec.sampler

    monkeypatch.setattr(skewspec.sampler, "MAX_CHAINS", chains)
    cases = [(1, 450, 1, 1024), (1, 300, 7, 1024), (2, 450, 1, 1024), (3, 400, 3, 1024), (3, 410, 7, 7)]
    for p, burn_in, thinning, block in cases:
        monkeypatch.setattr(skewspec.sampler, "DRAW_BLOCK", block)
        chain = run_chain(p, W_HALF, 50, burn_in=burn_in, thinning=thinning, seed=4)
        k = min(50, chains)
        samples, acceptance, scale = _sequential_chains(p, W_HALF, 50, burn_in, thinning, 4, k)
        assert chain.chains == k
        assert np.array_equal(chain.samples, samples)
        assert (chain.acceptance_rate, chain.step_scale) == (acceptance, scale)


def test_chain_rows_when_chains_do_not_divide_samples():
    # 70 samples from 64 chains: each chain retains 2 states and the last 58
    # of the second retention are dropped, so the rows are the first 70 of 128
    chain = run_chain(2, W_HALF, 70, burn_in=300, thinning=3, seed=8)
    full = run_chain(2, W_HALF, 128, burn_in=300, thinning=3, seed=8)
    assert chain.chains == full.chains == 64
    assert chain.samples.shape == (70, 2, 2)
    assert np.array_equal(chain.samples, full.samples[:70])
    assert chain.transitions == full.transitions == 64 * (5 + 2 * 3)


def _same_chain(a: ChainReport, b: ChainReport) -> bool:
    return (
        np.array_equal(a.samples, b.samples)
        and (a.acceptance_rate, a.step_scale, a.adaptation) == (b.acceptance_rate, b.step_scale, b.adaptation)
    )


@pytest.mark.parametrize("p,burn_in,thinning", [(2, 450, 1), (3, 650, 1), (3, 410, 7)])
def test_chain_independent_of_prefetch_depth(monkeypatch, p, burn_in, thinning):
    # the streams are drawn DRAW_BLOCK transitions ahead; step t of chain k
    # takes row [t, k] of each stream however far ahead they are drawn, so
    # the depth changes no bit and every step makes one kernel call
    import skewspec.sampler

    reference = run_chain(p, W_HALF, 60, burn_in=burn_in, thinning=thinning, seed=21)
    steps = reference.transitions // reference.chains
    assert reference.kernel_calls == steps
    for block in [1, 7, 60, 61, 4096]:
        monkeypatch.setattr(skewspec.sampler, "DRAW_BLOCK", block)
        chain = run_chain(p, W_HALF, 60, burn_in=burn_in, thinning=thinning, seed=21)
        assert _same_chain(chain, reference)
        assert chain.kernel_calls == steps


def _poisoned_normals(monkeypatch, row):
    """Make the sampler's increment stream, drawn first from the seed, give row ``row`` (a step) a density that overflows."""
    make = np.random.default_rng

    class Streams:
        made = 0

        def __init__(self, seed):
            self.rng, self.normals, self.drawn = make(seed), Streams.made == 0, 0
            Streams.made += 1

        def random(self, shape):
            return self.rng.random(shape)

        def standard_normal(self, shape):
            rows = self.rng.standard_normal(shape)
            if self.normals and 0 <= row - self.drawn < len(rows):
                rows[row - self.drawn] = 1e160 * np.abs(rows[row - self.drawn])
            self.drawn += len(rows)
            return rows

    monkeypatch.setattr(np.random, "default_rng", Streams)


def test_speculative_nan_row_does_not_raise(monkeypatch):
    # the streams are drawn ahead of need; a drawn row past the last step is
    # never proposed, so a row whose density cannot be represented raises
    # only where a chain steps on it. At p = 1 and at p = 3 the 60 chains
    # make 7 + 7 steps of a 17-step block.
    for p, total in [(1, 14), (3, 14)]:
        reference = run_chain(p, W_HALF, 60, burn_in=410, thinning=7, seed=3)
        assert reference.transitions // reference.chains == total
        with monkeypatch.context() as patch:
            _poisoned_normals(patch, total + 1)
            assert _same_chain(run_chain(p, W_HALF, 60, burn_in=410, thinning=7, seed=3), reference)
        with monkeypatch.context() as patch, pytest.raises(FloatingPointError):
            _poisoned_normals(patch, total - 1)
            run_chain(p, W_HALF, 60, burn_in=410, thinning=7, seed=3)


def test_chain_retains_states_between_acceptances_of_one_batch(monkeypatch):
    # with thinning 1 every step is retained, so a chain that accepts twice
    # within one drawn block retains the first acceptance's state at the
    # steps between; 4 chains draw 10 steps a block, and chain c's state
    # after step s (from 0) is row 4 s + c
    import skewspec.sampler

    monkeypatch.setattr(skewspec.sampler, "MAX_CHAINS", 4)
    monkeypatch.setattr(skewspec.sampler, "DRAW_BLOCK", 40)
    chain = run_chain(2, W_HALF, 300, burn_in=0, thinning=1, seed=5)
    k, block = chain.chains, 10
    assert k == 4
    states = chain.samples.reshape(-1, k, 2, 2)
    moved = np.any(states[1:] != states[:-1], axis=(2, 3))  # [s, c]: chain c accepted at step s + 1
    held = [
        (c, a, b)
        for c in range(k)
        for a, b in itertools.pairwise(np.flatnonzero(moved[:, c]) + 1)
        if b > a + 1 and a // block == b // block
    ]
    assert held
    samples, acceptance, _ = _sequential_chains(2, W_HALF, 300, 0, 1, 5, k)
    assert np.array_equal(chain.samples, samples)
    assert chain.acceptance_rate == acceptance


def test_chain_reports_kernel_calls_and_adaptation():
    # 20 chains: 33 burn-in steps, each adaptation window 10 steps of 200
    # transitions, then one retention 5 steps on
    chain = run_chain(3, W_HALF, 20, burn_in=650, thinning=5, seed=2)
    assert chain.chains == 20
    assert chain.kernel_calls == 33 + 5
    assert chain.transitions == 20 * 38
    assert [row[0] for row in chain.adaptation] == [200, 400, 600]
    assert chain.adaptation[-1][2] == chain.step_scale
    assert all(0.0 <= rate <= 1.0 for _, rate, _ in chain.adaptation)


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
# step scale, and the stdout of `density --gamma 0.5` on the samples, in the
# layout of two spawned streams (increments, uniforms) drawn step by step and
# chain by chain. The p3 row is the 64 chains of version 0.3.0, the p1 row
# the 64 chains of version 0.4.0. Recorded with numpy 2.4 on x86-64 with AVX-512;
# numpy's log kernels differ between instruction sets, so the digests can
# differ on another processor.
PINNED_CHAINS = [
    (
        1,
        dict(n_samples=300, burn_in=400, thinning=5, seed=11),
        "89bd915b04dc46e4755509346186c5d583e64921dd47db6bb4a438bb67754dc3",
        0.606875,
        0.6,
        "9abae669948d2f15725ad27dcfbd56e73e041c8c3452d858d688d604f22892e3",
    ),
    (
        3,
        dict(n_samples=100, burn_in=600, thinning=6, seed=12),
        "fbc1811262e9de2628a925be03b7216806ea6a22e55727997606c6fff63fd4b1",
        0.4114583333333333,
        0.6,
        "2aa0538d7bb0c921b0672243c4298ca877d148a48c4902cb79ee394fdd0c84eb",
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


@pytest.mark.parametrize("p,k", [(11, 64), (12, 62), (64, 2), (65, 1)])
def test_chain_count_is_one_kernel_pass(p, k):
    # K is 64 from p = 1 to p = 11, falls as the pair terms of a step pass
    # 4096, and is 1 from p = 65: the K proposals of a step make one pass of
    # the kernel
    assert min(MAX_CHAINS, stack_size(p)) == k
    assert run_chain(p, W_HALF, 64, burn_in=0, thinning=1).chains == k


def test_chain_raises_where_the_start_density_cannot_be_represented():
    # gamma sum_k |z_k|^2 of the grid start overflows at gamma = 1e308
    for p in (1, 3):
        with pytest.raises(FloatingPointError, match="weight overflows"):
            run_chain(p, WeightSpec(gamma=1e308), 10, burn_in=10, thinning=1)


def test_chain_raises_where_a_proposal_weight_overflows():
    # at gamma = 5e307 the start's weight is finite; a proposal's past
    # |z|^2 = 3.6 is not, and raises rather than warn and reject
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="weight overflows"):
            run_chain(1, WeightSpec(gamma=5e307), 10, burn_in=10, thinning=1)


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
    assert frobenius_norm(pair.X) ** 2 + frobenius_norm(pair.Y) ** 2 == pytest.approx(expected_norm, rel=1e-10)


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
    assert math.exp(law.log_normalization) == pytest.approx(1.0 / mass, rel=2e-5)
    assert law.log_normalization == math.log(16.0 / (3.0 * math.sqrt(math.pi))) + 2.5 * math.log(gamma)
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

    def chain(m, p):
        return ChainReport(samples=np.ones((m, p, 2)), acceptance_rate=0.3, burn_in=0, thinning=1, step_scale=0.5)

    with pytest.raises(ValueError, match="1000"):
        ks_compare(chain(10, 1), law)
    with pytest.raises(ValueError, match="p = 1"):
        ks_compare(chain(2000, 2), law)


def test_chain_matches_quadrature_and_negative_control():
    law = p1_quadrature_cdf(W_HALF)
    good = run_chain(1, W_HALF, 4000, burn_in=5000, thinning=5, seed=8)
    ks = ks_compare(good, law)
    assert ks.x < 0.05 and ks.y < 0.05

    bad = run_chain(1, WeightSpec(gamma=1.0), 4000, burn_in=5000, thinning=5, seed=9)
    ks_bad = ks_compare(bad, law)
    assert ks_bad.x > 0.1 and ks_bad.y > 0.1


def test_incomplete_gamma_at_one_is_the_exponential_cdf():
    x = np.concatenate([[0.0], np.geomspace(1e-8, 700.0, 500)])
    assert np.max(np.abs(_gamma_p(1.0, x) + np.expm1(-x))) <= 1e-15
    assert _gamma_p(1.0, 0.0) == 0.0


@pytest.mark.parametrize("a", [0.5, 1.5, 2.5, 9.0, 19.5, 105.0, 1000.5, 20049.0, 20049.5])
def test_incomplete_gamma_by_erf_and_recurrence(a):
    # P(1/2, x) = erf(sqrt x), and P(a + 1, x) = P(a, x) - x^a e^-x / Gamma(a + 1),
    # on x that put a and a + 1 on either side of the series / fraction split
    # (x < a + 1); a = (4p^2 + p)/2 is 20 050 at p = 100
    x = np.concatenate([np.linspace(0.01, 3.0 * a + 30.0, 400), a + math.sqrt(a) * np.linspace(-6.0, 6.0, 201)])
    x = x[x > 0.0]
    p_a = _gamma_p(a, x)
    if a == 0.5:
        assert np.max(np.abs(p_a - [math.erf(math.sqrt(v)) for v in x])) <= 1e-10
    term = np.exp(a * np.log(x) - x - math.lgamma(a + 1.0))
    assert np.max(np.abs(_gamma_p(a + 1.0, x) - (p_a - term))) <= 1e-10
    assert np.all((0.0 <= p_a) & (p_a <= 1.0)) and np.all(np.diff(p_a[:400]) >= 0.0)


@pytest.mark.parametrize("p,n_samples", [(2, 4000), (3, 3000), (10, 2000)])
def test_radial_law_of_seeded_chains(p, n_samples):
    # R = sum |z_k|^2 is Gamma((4p^2 + p)/2, rate gamma) at every p; a chain
    # run at gamma = 1 and scored at gamma = 1/2 (criterion 10's mismatched
    # gamma) puts R at half the scale and must fail
    good = run_chain(p, W_HALF, n_samples, burn_in=20_000, thinning=20, seed=30 + p)
    assert radial_ks(good, W_HALF) < 0.05
    bad = run_chain(p, WeightSpec(gamma=1.0), n_samples, burn_in=20_000, thinning=20, seed=40 + p)
    assert radial_ks(bad, W_HALF) > 0.05
    assert radial_ks(bad, WeightSpec(gamma=1.0)) < 0.05


@pytest.mark.parametrize("seed", [110, 3, 7, 11])
def test_p1_chains_forget_the_grid_start(seed):
    # the benchmark's p = 1 chain: 64 chains of 157 burn-in steps each, whose
    # split R-hat of every statistic stays under 1.01
    chain = run_chain(1, W_HALF, 10_000, seed=seed)
    assert (chain.chains, -(-chain.burn_in // chain.chains)) == (64, 157)
    assert all(value < 1.01 for value in split_rhat(chain).values())


def test_split_rhat_sees_chains_with_shifted_means():
    # 8 synthetic p = 2 chains of 400 independent draws give split R-hat near
    # 1; shifting chain k's coordinates by k/2 must push it past 1.1
    rng = np.random.default_rng(5)
    draws = 1.0 + np.abs(rng.standard_normal((400, 8, 2, 2)))  # [retention, chain, point, coordinate]

    def chains(d):
        return ChainReport(d.reshape(-1, 2, 2), acceptance_rate=0.3, burn_in=0, thinning=1, step_scale=0.5, chains=8)

    assert all(abs(value - 1.0) < 0.01 for value in split_rhat(chains(draws)).values())
    shifted = draws + 0.5 * np.arange(8)[None, :, None, None]
    assert all(value > 1.1 for value in split_rhat(chains(shifted)).values())
    # three whole retentions leave halves of one draw, and constant halves no variance
    assert set(split_rhat(chains(draws[:3])).values()) == {None}
    assert set(split_rhat(chains(np.ones((400, 8, 2, 2)))).values()) == {None}
