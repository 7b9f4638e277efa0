import functools
import hashlib
import itertools
import math

import numpy as np
import pytest

from skewspec.cli import main
from skewspec.density import WeightSpec, _kernel, _log_rho_of, log_rho
from skewspec.ensemble import extract_skew_spectrum, sample_generic_pair
from skewspec.fekete import grid_initialization
from skewspec.matrixcore import frobenius_norm
from skewspec.sampler import (
    ADAPT_WINDOW,
    ACCEPT_TARGET_HIGH,
    ACCEPT_TARGET_LOW,
    ChainReport,
    _prefetch,
    _scalar_walk,
    _tree,
    _walk,
    ks_compare,
    p1_quadrature_cdf,
    run_chain,
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
        # a zero increment proposes the current points themselves
        consumed, accepts, _, out_log = _prefetch(pts, cached, np.zeros((1, 2, 2)), [log_u], W_HALF, 1)
        got = bool(accepts)
        assert consumed == 1
        assert got is accepted
        assert out_log == (target if accepted else cached)


def test_propose_and_decide_rejects_outside_quadrant():
    # a huge step from the p = 1 grid start is almost surely out of the
    # quadrant, hence rejected with the points and log density unchanged
    pts = grid_initialization(1).points
    log_density = log_rho(pts, W_HALF)
    rejected = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        increments = 200.0 * rng.standard_normal((1, 1, 2))
        log_u = np.log(rng.uniform(size=1))
        consumed, accepted, out, out_log = _prefetch(pts, log_density, increments, log_u, W_HALF, 1)
        assert consumed == 1
        if not accepted:
            rejected += 1
            assert np.array_equal(out, pts)
            assert out_log == log_density
    assert rejected >= 18


def _batches(p, seed, n_batches, depth=4):
    """Prefetched transitions from the p-point grid start: yields (consumed, acceptances, pts, log density)."""
    pts = grid_initialization(p).points
    log_density = log_rho(pts, W_HALF)
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        increments = 0.5 * rng.standard_normal((depth, p, 2))
        log_u = np.log(rng.uniform(size=depth))
        consumed, accepted, pts, log_density = _prefetch(pts, log_density, increments, log_u, W_HALF, depth)
        yield consumed, len(accepted), pts, log_density


def test_initial_state_consistent_cache():
    # the chain starts at the grid configuration with its log density cached;
    # every batch of transitions from there keeps that cache equal to log_rho
    assert np.isfinite(log_rho(grid_initialization(3).points, W_HALF))
    for _, _, pts, log_density in _batches(3, seed=3, n_batches=20):
        assert log_density == log_rho(pts, W_HALF)


def test_metropolis_trajectory_stays_finite():
    accepted_total = transitions = 0
    for consumed, accepted, pts, log_density in _batches(2, seed=6, n_batches=100):
        transitions += consumed
        accepted_total += int(accepted)
        assert 1 <= consumed <= 4
        assert np.isfinite(log_density)
        assert np.all(pts > 0)
    assert 0 < accepted_total <= transitions
    # cached log density stays consistent with the configuration
    assert log_density == log_rho(pts, W_HALF)


def test_speculative_nan_row_does_not_raise():
    # a row whose density cannot be represented raises only where the chain
    # consumes it, never past the transition that accepts; no increment
    # reaches the 1e-170 row, so the walk is given the two-node spine's rows
    pts = grid_initialization(2).points
    log_density = log_rho(pts, W_HALF)
    tiny = np.array([[1.0, 2.0], [3.0, 1.5]]) * 1e-170
    outside = -pts
    log_u = np.full(2, LOG_U_NEAR_ONE)

    def walk(proposals):
        stack = np.stack(proposals)
        return _walk(_tree(2, 2), stack, _kernel(stack), W_HALF, pts, log_density, log_u)

    consumed, accepts, out, _ = walk([pts, tiny])
    accepted = bool(accepts)
    assert (consumed, accepted) == (1, True) and np.array_equal(out, pts)
    for proposals in ([tiny, pts], [outside, tiny]):
        with pytest.raises(FloatingPointError):
            walk(proposals)


# the p = 1 chain's scalar walk and the kernel's walk, each on a batch of one transition
P1_WALKS = [_scalar_walk, functools.partial(_prefetch, n_nodes=1)]


def _one_transition(walk, state, increment, log_u, log_density=0.0):
    return walk(np.array([state]), log_density, np.array([[increment]], dtype=float), [log_u], W_HALF)


@pytest.mark.parametrize("walk", P1_WALKS)
@pytest.mark.parametrize("state,increment", [((1.0, 1.0), (1e160, 0.0)), ((1e-170, 1e-170), (0.0, 0.0))])
def test_p1_walk_raises_where_r2_cannot_be_represented(walk, state, increment):
    # |z|^2 of the proposal overflows, or underflows to 0: the kernel flags NaN,
    # and the scalar walk raises where the kernel's walk does, whatever log u is
    for log_u in (-math.inf, 0.0):
        with pytest.raises(FloatingPointError):
            _one_transition(walk, state, increment, log_u)


@pytest.mark.parametrize("walk", P1_WALKS)
@pytest.mark.parametrize("increment", [(-2.0, 0.5), (-1.0, 0.0), (0.5, -3.0), (-1.0, -1.0)])
def test_p1_walk_rejects_a_nonpositive_proposal(walk, increment):
    state = np.array([[1.0, 1.0]])
    log_density = log_rho(state, W_HALF)
    consumed, accepted, out, out_log = walk(state, log_density, np.array([[increment]]), [-math.inf], W_HALF)
    assert (consumed, accepted, out_log) == (1, [], log_density)
    assert out is state


def test_p1_walk_with_log_u_of_minus_inf_accepts():
    # a proposal far down the tail is accepted by a uniform of 0, by both walks
    outcomes = [_one_transition(walk, (1.0, 1.0), (20.0, 30.0), -math.inf, 5.0) for walk in P1_WALKS]
    for consumed, accepted, out, out_log in outcomes:
        assert consumed == 1 and [k for k, _ in accepted] == [0]
        assert np.array_equal(out, [[21.0, 31.0]])
        assert out_log == pytest.approx(log_rho(out, W_HALF), rel=1e-15)


def test_scalar_candidate_within_4_ulp_of_log_rho():
    # the scalar walk takes math.log where the kernel takes np.log; they may
    # differ in the last bit, so its log density may too, but barely
    rng = np.random.default_rng(9)
    pts = np.exp(rng.uniform(-8.0, 5.0, (100_000, 1, 2)))
    exact = _log_rho_of(_kernel(pts), W_HALF)  # log_rho of each point, bit for bit
    zero = np.zeros((1, 1, 2))
    scalar = np.array([_scalar_walk(state, 0.0, zero, [-math.inf], W_HALF)[3] for state in pts.tolist()])
    assert np.all(np.abs(scalar - exact) <= 4 * np.spacing(np.abs(exact)))


def _path_probabilities(tree, rate=0.3):
    """(transition, base) and the probability of reaching it, per node of ``tree``."""
    assert tree.step[: tree.spine].tolist() == list(range(tree.spine))
    bases = [-1] * tree.spine
    for start, _, base in tree.generations:
        assert len(bases) == start
        bases += base.tolist()
    nodes = list(zip(tree.step.tolist(), bases))
    reached = [1.0] + [0.0] * (len(nodes) - 1)
    for n in range(len(nodes)):
        for child, chance in ((tree.reject[n], 1.0 - rate), (tree.accept[n], rate)):
            if child >= 0:
                reached[child] = reached[n] * chance
    return nodes, reached


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5, 8, 13, 16, 36, 64])
def test_prefetch_tree(n_nodes):
    tree = _tree(n_nodes, n_nodes)
    nodes, reached = _path_probabilities(tree)
    assert len(nodes) == len(tree.reject) == len(tree.accept) == n_nodes
    for n, (t, base) in enumerate(nodes):
        assert base < n  # every base is numbered before its node
        assert tree.reject[n] in (-1, *range(n + 1, n_nodes))
        assert tree.accept[n] in (-1, *range(n + 1, n_nodes))
        if tree.reject[n] >= 0:
            assert nodes[tree.reject[n]] == (t + 1, base)
        if tree.accept[n] >= 0:
            assert nodes[tree.accept[n]] == (t + 1, n)
    # every node but the first is the child of exactly one node
    assert sorted(c for c in tree.reject + tree.accept if c >= 0) == list(range(1, n_nodes))
    assert tree.depth == 1 + max(t for t, _ in nodes)
    if n_nodes <= 4:
        assert tree.spine == n_nodes and tree.generations == ()
    # the tree holds the most probable nodes, so the transitions a kernel call
    # is expected to consume, the sum of their probabilities, beat the 3.14 of
    # the all-reject spine of 8 from 8 nodes on
    expected = {8: 3.49, 16: 4.53, 36: 5.80, 64: 6.73}
    if n_nodes in expected:
        assert sum(reached) == pytest.approx(expected[n_nodes], abs=0.005)
    # truncated at a depth, the tree holds every node it can up to n_nodes
    short = _tree(n_nodes, 3)
    assert short.depth <= 3 and len(short.reject) == min(n_nodes, 7)


def _same_chain(a: ChainReport, b: ChainReport) -> bool:
    return (
        np.array_equal(a.samples, b.samples)
        and (a.acceptance_rate, a.step_scale, a.adaptation) == (b.acceptance_rate, b.step_scale, b.adaptation)
    )


@pytest.mark.parametrize("p,burn_in,thinning", [(2, 450, 1), (3, 650, 1), (3, 410, 7)])
def test_chain_independent_of_prefetch_depth(monkeypatch, p, burn_in, thinning):
    # transition t takes row t of each stream whatever the batch, so the tree
    # and the draw block size change the number of kernel calls, not a bit
    import skewspec.sampler

    monkeypatch.setattr(skewspec.sampler, "PREFETCH_NODES", 1)
    reference = run_chain(p, W_HALF, 60, burn_in=burn_in, thinning=thinning, seed=21)
    assert reference.kernel_calls == reference.transitions
    for n_nodes, block in itertools.product([1, 2, 8, 64], [1024, 7]):
        monkeypatch.setattr(skewspec.sampler, "PREFETCH_NODES", n_nodes)
        monkeypatch.setattr(skewspec.sampler, "DRAW_BLOCK", block)
        chain = run_chain(p, W_HALF, 60, burn_in=burn_in, thinning=thinning, seed=21)
        assert _same_chain(chain, reference)
        assert chain.kernel_calls < reference.kernel_calls or n_nodes == 1


def _sequential_metropolis(p, w, n_samples, burn_in, thinning, seed):
    """One transition at a time on the chain's two streams, as run_chain's docstring states it."""
    normal_seed, uniform_seed = np.random.SeedSequence(seed).spawn(2)
    normals, uniforms = np.random.default_rng(normal_seed), np.random.default_rng(uniform_seed)
    pts = grid_initialization(p).points
    log_density = log_rho(pts, w)
    scale = 0.5
    window_accepts = accepted_total = 0
    samples = []
    for step in range(1, burn_in + n_samples * thinning + 1):
        proposal = pts + scale * normals.standard_normal((p, 2))
        log_u = np.log(uniforms.random())
        candidate = log_rho(proposal, w)
        accepted = bool(log_u < candidate - log_density)
        if accepted:
            pts, log_density = proposal, candidate
        if step <= burn_in:
            window_accepts += accepted
            if step % ADAPT_WINDOW == 0:
                rate = window_accepts / ADAPT_WINDOW
                if rate > ACCEPT_TARGET_HIGH:
                    scale *= 1.2
                elif rate < ACCEPT_TARGET_LOW:
                    scale /= 1.2
                window_accepts = 0
        else:
            accepted_total += accepted
            if (step - burn_in) % thinning == 0:
                samples.append(pts)
    return np.array(samples), accepted_total / (n_samples * thinning), scale


@pytest.mark.parametrize("n_nodes", [1, 2, 8, 64])
def test_chain_is_sequential_metropolis(monkeypatch, n_nodes):
    import skewspec.sampler

    monkeypatch.setattr(skewspec.sampler, "PREFETCH_NODES", n_nodes)
    for p, burn_in, thinning in [(1, 450, 1), (1, 300, 7), (3, 400, 3)]:
        chain = run_chain(p, W_HALF, 50, burn_in=burn_in, thinning=thinning, seed=4)
        samples, acceptance, scale = _sequential_metropolis(p, W_HALF, 50, burn_in, thinning, seed=4)
        assert np.array_equal(chain.samples, samples)
        assert (chain.acceptance_rate, chain.step_scale) == (acceptance, scale)


def test_chain_retains_states_between_acceptances_of_one_batch(monkeypatch):
    # with thinning 1 every transition is retained, so a batch that accepts
    # twice retains the first acceptance's state until the second
    import skewspec.sampler

    batches = []
    prefetch = skewspec.sampler._prefetch

    def recording(*args, **kwargs):
        batches.append(prefetch(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(skewspec.sampler, "PREFETCH_NODES", 64)
    monkeypatch.setattr(skewspec.sampler, "_prefetch", recording)
    chain = run_chain(2, W_HALF, 300, burn_in=0, thinning=1, seed=5)
    assert any(len(accepted) >= 2 and accepted[0][0] + 1 < accepted[1][0] for _, accepted, _, _ in batches)
    samples, acceptance, _ = _sequential_metropolis(2, W_HALF, 300, 0, 1, seed=5)
    assert np.array_equal(chain.samples, samples)
    assert chain.acceptance_rate == acceptance


def test_chain_reports_kernel_calls_and_adaptation():
    chain = run_chain(3, W_HALF, 20, burn_in=650, thinning=5, seed=2)
    assert chain.transitions == 750
    assert 1 <= chain.kernel_calls < chain.transitions
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
# layout of two spawned streams (increments, uniforms) that every prefetch
# depth shares. Recorded with numpy 2.4 on x86-64 with AVX-512; numpy's log
# kernels differ between instruction sets, so the digests can differ on
# another processor.
PINNED_CHAINS = [
    (
        1,
        dict(n_samples=300, burn_in=400, thinning=5, seed=11),
        "58747d48912243a12047a8992a0879cf2493d752adf5f3abefd417c2e9a02a8d",
        0.5186666666666667,
        0.72,
        "9f7cdf6328bf53d21c86f678631f43646fbccbfd95d1c92c06284f1879d34dc4",
    ),
    (
        3,
        dict(n_samples=100, burn_in=600, thinning=6, seed=12),
        "497ec5046f5b79d699d91c2f0ff92ff528705eaf8c72998504f0a0e4ba36edf7",
        0.3433333333333333,
        0.6,
        "398385fe02cc8f6e3cc661dc1d73c96ae5b5c9f6471623332337c553e0c61255",
    ),
]


@pytest.mark.parametrize("p,kwargs,samples_sha,acceptance,scale,density_sha", PINNED_CHAINS, ids=["p1", "p3"])
def test_chain_bits_pinned(tmp_path, capsys, p, kwargs, samples_sha, acceptance, scale, density_sha):
    # a faster transition must not move a single bit of a seeded chain, and
    # neither may the prefetch depth
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
