"""Metropolis sampling of skew spectra.

A symmetric Gaussian random walk on the 2p coordinates targets the
unnormalized skew-spectrum density; proposals leaving the open quadrant
are rejected outright (the target vanishes there, so detailed balance is
preserved). Passing a retained spectrum, ``chain.spectrum(i)``, to
:func:`skewspec.ensemble.sample_generic_pair` yields a random ambient
anti-commuting pair with the chain's spectral marginal. At p = 1 each
coordinate's marginal CDF has a closed form, an incomplete gamma
function, which gives an exact law to validate the chain against.

At p >= 2 the chain prefetches (Brockwell 2006, Parallel MCMC simulation by
pre-fetching; Strid 2010, Efficient parallelisation of Metropolis-Hastings
algorithms using a prefetching approach). The transitions ahead of the
current state form a binary tree: each proposal is either rejected, and the
next one starts from the same state, or accepted, and the next one starts
from it. One call of the density kernel evaluates the nodes of that tree
with the highest path probability at the nominal acceptance rate 0.3 (the
static prefetch tree), and the chain walks the tree until it reaches a
transition the tree does not hold. Up to 4 nodes the tree is the all-reject
spine of Brockwell's prefetching. Transition t takes increment row t and
uniform t of two streams spawned from the seed, whether its proposal is
evaluated or not, and each node is formed exactly as sequential Metropolis
forms that proposal, so the chain is plain sequential Metropolis and its
output does not depend on the tree. At p = 1 there is no pair term, and a
kernel call costs far more than the transition it serves, so the chain takes
the same transitions one at a time in Python floats (:func:`_scalar_walk`).
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import UNREPRESENTABLE, WeightSpec, _kernel, _log_rho_of, log_rho
from .ensemble import SkewSpectrum
from .fekete import grid_initialization

ADAPT_WINDOW = 200
ACCEPT_TARGET_LOW = 0.2
ACCEPT_TARGET_HIGH = 0.4
KS_MIN_SAMPLES = 1000  # fewest samples for which the KS statistic is meaningful
PREFETCH_NODES = 32  # most proposals evaluated per kernel call
# pair terms per kernel call below which a call's cost is mostly numpy's
# per-call overhead; the nodes fall from PREFETCH_NODES to 1 as p grows past it
PREFETCH_PAIR_TERMS = 2048
DRAW_BLOCK = 1024  # transitions whose increments and uniforms are drawn at once


def _prefetch_nodes(p: int) -> int:
    """Proposals evaluated per kernel call at p >= 2 points, from PREFETCH_NODES down to 1."""
    return max(1, min(PREFETCH_NODES, PREFETCH_PAIR_TERMS // (p * (p - 1) // 2)))


class _Tree(NamedTuple):
    """A static prefetch tree, its nodes numbered by generation.

    Node n proposes increment ``step[n]``, the transition it stands for,
    from its base: the state the walk starts from for the ``spine`` nodes
    0 .. spine - 1, which follow a run of rejections, and otherwise the node
    whose acceptance it follows. A node's generation is its count of
    accepted ancestors; each generation past the spine is one (start, end,
    base) slice of ``generations``, with the base node of each of its nodes.
    ``reject`` and ``accept`` give each node's child for either outcome, -1
    where the tree does not hold that transition, and ``depth`` is one past
    the latest transition it holds.
    """

    step: np.ndarray
    spine: int
    generations: tuple
    reject: tuple
    accept: tuple
    depth: int


@functools.lru_cache(maxsize=256)
def _tree(n_nodes: int, depth: int) -> _Tree:
    """The ``n_nodes`` most probable nodes among the next ``depth`` transitions.

    Each transition is taken to accept with probability a = 0.3, the middle
    of the adaptation's target, so a node at transition t after k
    acceptances is reached with probability a^k (1 - a)^(t - k). Nodes of
    equal probability are taken in the order they were found. Cached per
    (n_nodes, depth) and read-only.
    """
    rate = (ACCEPT_TARGET_LOW + ACCEPT_TARGET_HIGH) / 2
    found = []  # (generation, transition, base) as taken, base -1 for the start
    order = itertools.count(1)
    heap = [(-1.0, 0, 0, 0, -1)]  # (-path probability, order found, generation, transition, base)
    while heap and len(found) < n_nodes:
        neg_prob, _, generation, t, base = heapq.heappop(heap)
        found.append((generation, t, base))
        if t + 1 < depth:
            heapq.heappush(heap, (neg_prob * (1.0 - rate), next(order), generation, t + 1, base))
            heapq.heappush(heap, (neg_prob * rate, next(order), generation + 1, t + 1, len(found) - 1))
    # renumber by generation; the sort is stable, so the spine keeps t = 0, 1, ...
    by_generation = sorted(range(len(found)), key=lambda n: found[n][0])
    number = {old: new for new, old in enumerate(by_generation)} | {-1: -1}
    generation, step, base = zip(*((found[n][0], found[n][1], number[found[n][2]]) for n in by_generation))
    bounds = [bisect.bisect_left(generation, g) for g in range(generation[-1] + 2)]
    index = {(t, b): n for n, (t, b) in enumerate(zip(step, base))}
    return _Tree(
        step=_read_only(step),
        spine=bounds[1],
        generations=tuple((s, e, _read_only(base[s:e])) for s, e in zip(bounds[1:], bounds[2:])),
        reject=tuple(index.get((t + 1, b), -1) for t, b in zip(step, base)),
        accept=tuple(index.get((t + 1, n), -1) for n, t in enumerate(step)),
        depth=1 + max(step),
    )


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ChainReport:
    """Retained (post burn-in, thinned) samples and chain statistics.

    ``kernel_calls`` counts the density kernel calls of the transitions (0 at
    p = 1, where no kernel call serves a transition), and ``adaptation``
    holds one (step, window acceptance rate, scale from that step on) row
    per burn-in adaptation window.
    """

    samples: np.ndarray  # (n_samples, p, 2)
    acceptance_rate: float
    burn_in: int
    thinning: int
    step_scale: float
    kernel_calls: int = 0
    adaptation: tuple = ()

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def p(self) -> int:
        return self.samples.shape[1]

    @property
    def transitions(self) -> int:
        return self.burn_in + self.n_samples * self.thinning

    def spectrum(self, index: int) -> SkewSpectrum:
        return SkewSpectrum(self.samples[index])


def _walk(tree: _Tree, stack, terms, w, pts, log_density, log_u):
    """Sequential Metropolis from ``pts`` through a tree whose node n is ``stack[n]`` with kernel terms ``terms[:, n]``.

    Transition k accepts node n iff log_u[k] < log_rho(node n) - ``log_density``,
    so a -inf or NaN node is a rejection; the walk ends at the first
    transition the tree does not hold. Returns (transitions consumed, the
    (transition, state) of each acceptance, the state, its log density).
    Raises FloatingPointError where a consumed node's density cannot be
    represented; a node the walk does not reach never raises.
    """
    sq_sum, log_point, log_pairs = terms.tolist()
    accepted = []
    node = k = 0
    while node >= 0:
        # only the nodes the walk reaches: the same doubles as _log_rho_of(terms, w)[node]
        candidate = _log_rho_of((sq_sum[node], log_point[node], log_pairs[node]), w)
        if log_u[k] < candidate - log_density:
            log_density = candidate
            accepted.append((k, stack[node]))
            node = tree.accept[node]
        elif candidate != candidate:
            raise FloatingPointError(UNREPRESENTABLE)
        else:
            node = tree.reject[node]
        k += 1
    return k, accepted, accepted[-1][1] if accepted else pts, log_density


def _prefetch(pts, log_density, increments, log_u, w, n_nodes):
    """Metropolis transitions from ``pts`` over a batch of scaled increments, with one kernel call.

    Transition t proposes its state plus ``increments[t]``. The kernel
    evaluates the ``n_nodes`` most probable of these proposals (see
    :func:`_tree`), each formed as increment + base, the same doubles as the
    base + increment of sequential Metropolis, and :func:`_walk` decides them.
    """
    tree = _tree(n_nodes, len(increments))
    stack = increments.take(tree.step, 0)  # take is faster than indexing on small arrays
    stack[: tree.spine] += pts
    for start, end, base in tree.generations:
        stack[start:end] += stack.take(base, 0)
    return _walk(tree, stack, _kernel(stack), w, pts, log_density, log_u)


def _scalar_walk(pts, log_density, increments, log_u, w):
    """Sequential Metropolis at p = 1 over a batch of scaled increments, in Python floats.

    Each proposal is increment + state, and its log density is the kernel's
    in the kernel's order of operations, with math.log for np.log; the two
    logs may differ in the last bit, which changes a decision only where
    log u falls within that bit. As in :func:`_walk`, a nonpositive
    coordinate is a rejection, log u = -inf accepts any finite proposal, and
    a proposal whose |z|^2 overflows or underflows to 0 raises
    FloatingPointError. Returns what :func:`_prefetch` returns, each state
    as ((x, y),).
    """
    neg_gamma = -float(w.gamma)
    x, y = map(float, pts[0])
    accepted = []
    for k, ((dx, dy),) in enumerate(increments.tolist()):
        px, py = dx + x, dy + y
        if px > 0.0 and py > 0.0:
            r2 = px * px + py * py
            if not 0.0 < r2 < math.inf:
                raise FloatingPointError(UNREPRESENTABLE)
            candidate = neg_gamma * r2 + (math.log(px) + math.log(py) + 0.5 * math.log(r2))
            if log_u[k] < candidate - log_density:
                x, y, log_density = px, py, candidate
                accepted.append((k, ((x, y),)))
    return len(increments), accepted, accepted[-1][1] if accepted else pts, log_density


def run_chain(
    p: int,
    w: WeightSpec,
    n_samples: int,
    burn_in: int | None = None,
    thinning: int | None = None,
    seed: int = 0,
) -> ChainReport:
    """Run a random-walk chain and return thinned post burn-in samples.

    During burn-in the proposal scale adapts every 200 steps toward an
    acceptance rate of 0.3 +/- 0.1 and is frozen afterwards, so the
    retained samples come from a fixed (reversible) kernel. The reported
    acceptance rate covers the sampling phase only. Transition t accepts
    iff log u_t < log_rho(proposal_t) - log_rho(state), so a proposal
    outside the quadrant is a rejection; one whose density cannot be
    represented raises FloatingPointError.
    """
    if p < 1 or n_samples < 1:
        raise ValueError("p and n_samples must be >= 1")
    if burn_in is None:
        burn_in = 10_000 * p
    if thinning is None:
        thinning = 10 * p
    if burn_in < 0 or thinning < 1:
        raise ValueError("burn_in must be >= 0 and thinning >= 1")

    normal_seed, uniform_seed = np.random.SeedSequence(seed).spawn(2)
    normals, uniforms = np.random.default_rng(normal_seed), np.random.default_rng(uniform_seed)
    if p == 1:
        # a batch is the rest of its span, which never passes the drawn block
        step, reach = _scalar_walk, DRAW_BLOCK
    else:
        n_nodes = _prefetch_nodes(p)
        step = functools.partial(_prefetch, n_nodes=n_nodes)
        reach = _tree(n_nodes, n_nodes).depth  # no node lies further ahead
    pts = np.array(grid_initialization(p).points)
    log_density = log_rho(pts, w)
    scale = 0.5
    total = burn_in + n_samples * thinning

    samples = np.empty((n_samples, p, 2))
    retained = 0
    next_retained = burn_in + thinning  # transitions made when the next sample is retained
    window_accepts = accepted_total = batches = 0
    adaptation = []
    made = block_end = span_end = 0
    while made < total:
        if made == block_end:
            steps = normals.standard_normal((DRAW_BLOCK, p, 2))
            with np.errstate(divide="ignore"):  # a uniform of 0 accepts any finite proposal
                log_u = np.log(uniforms.random(DRAW_BLOCK)).tolist()
            block_start, block_end = made, made + DRAW_BLOCK
        if made == span_end:
            # a span, and so every batch, ends at an adaptation boundary, at
            # the end of burn-in and at the end of the drawn block; the scale
            # holds over a span, so its increments are scaled at once
            stop = min(burn_in, (made // ADAPT_WINDOW + 1) * ADAPT_WINDOW) if made < burn_in else total
            span_start, span_end = made, min(stop, block_end)
            increments = scale * steps[made - block_start : span_end - block_start]
            span_log_u = log_u[made - block_start : span_end - block_start]
        first = made - span_start
        batch = min(reach, span_end - made)
        before = pts
        consumed, accepted, pts, log_density = step(
            pts, log_density, increments[first : first + batch], span_log_u[first : first + batch], w
        )
        batches += 1
        start, made = made, made + consumed
        if made <= burn_in:
            window_accepts += len(accepted)
            if made % ADAPT_WINDOW == 0:
                rate = window_accepts / ADAPT_WINDOW
                if rate > ACCEPT_TARGET_HIGH:
                    scale *= 1.2
                elif rate < ACCEPT_TARGET_LOW:
                    scale /= 1.2
                adaptation.append((made, rate, scale))
                window_accepts = 0
        else:
            accepted_total += len(accepted)
            # a retained state is the batch's last acceptance at or before its
            # transition, or the state the batch started from
            state, later = before, 0
            while next_retained <= made:
                while later < len(accepted) and start + accepted[later][0] < next_retained:
                    state = accepted[later][1]
                    later += 1
                samples[retained] = state
                retained += 1
                next_retained += thinning

    return ChainReport(
        samples=samples,
        acceptance_rate=accepted_total / (n_samples * thinning),
        burn_in=burn_in,
        thinning=thinning,
        step_scale=scale,
        kernel_calls=0 if p == 1 else batches,
        adaptation=tuple(adaptation),
    )


# numpy has no erfc, and the runtime dependency is numpy only
_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class P1Marginal:
    """The exact law of either coordinate of the p = 1 density.

    Integrating e^{-gamma r^2} x y r over y leaves
    x Gamma(3/2, gamma x^2) / (2 gamma^{3/2}), so with s = sqrt(gamma) t the CDF is
    erf(s) - (2/sqrt(pi)) s e^{-s^2} + (2/3) s^2 erfc(s). The density is
    symmetric in x and y, so both coordinates share it. ``normalization``
    is 1 over the integrand's mass on the quadrant, 16 gamma^{5/2} / (3 sqrt(pi)).
    ``cdf`` evaluates 1 minus the upper tail, which keeps it monotone where
    it rounds to 1.
    """

    gamma: float
    normalization: float

    def cdf(self, t) -> np.ndarray:
        s = math.sqrt(self.gamma) * np.asarray(t, dtype=float)
        upper = (1.0 - 2.0 / 3.0 * s * s) * _erfc(s) + 2.0 / math.sqrt(math.pi) * s * np.exp(-s * s)
        return 1.0 - upper


def p1_quadrature_cdf(w: WeightSpec) -> P1Marginal:
    """The exact marginal law of the p = 1 density under ``w``."""
    return P1Marginal(gamma=w.gamma, normalization=16.0 * w.gamma**2.5 / (3.0 * math.sqrt(math.pi)))


class KSResult(NamedTuple):
    x: float
    y: float


def _ks_statistic(data: np.ndarray, cdf) -> float:
    d = np.sort(data)
    ref = cdf(d)
    n = d.size
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - ref), np.max(ref - (steps - 1.0 / n))))


def ks_compare(chain: ChainReport, law: P1Marginal) -> KSResult:
    """One-sample KS statistics of both marginals of a p = 1 chain against the exact marginal CDF.

    At least ``KS_MIN_SAMPLES`` retained samples are required.
    """
    if chain.p != 1:
        raise ValueError("KS comparison is defined for p = 1 chains")
    if chain.n_samples < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples, got {chain.n_samples}")
    data = chain.samples[:, 0, :]
    return KSResult(x=_ks_statistic(data[:, 0], law.cdf), y=_ks_statistic(data[:, 1], law.cdf))
