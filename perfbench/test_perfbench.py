"""Tests of the benchmark's ESS estimator, span recorder and reference block."""

import numpy as np
import pytest

from ess import geyer_ess
from spans import SpanRecorder, covered_length


def ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + noise[i]
    return x


@pytest.mark.parametrize("phi, tol", [(0.0, 0.08), (0.5, 0.08), (0.9, 0.15)])
def test_geyer_ess_matches_ar1_closed_form(phi, tol):
    n = 100_000
    expected = n * (1.0 - phi) / (1.0 + phi)
    assert geyer_ess(ar1(phi, n, seed=7)) == pytest.approx(expected, rel=tol)


def test_geyer_ess_rejects_constant_series():
    with pytest.raises(ValueError):
        geyer_ess(np.ones(100))


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    rec = SpanRecorder()
    root = rec.add("cli.main", 0.0, 10.0)
    a = rec.add("fekete.minimize_tau", 1.0, 6.0, parent=root)
    rec.add("density.tau", 2.0, 3.0, parent=a)
    rec.add("density.grad_tau", 2.5, 4.0, parent=a)  # overlaps its sibling
    rec.add("sampler.run_chain", 5.0, 8.0, parent=root)  # overlaps the first child of root
    grand = rec.add("density.log_rho", 9.0, 9.5, parent=root)
    selfs = rec.self_times()
    assert selfs[root] == pytest.approx(10.0 - (8.0 - 1.0) - 0.5)
    assert selfs[a] == pytest.approx(5.0 - 2.0)
    assert selfs[grand] == pytest.approx(0.5)
    assert sum(rec.duration(i) for i in rec.outermost("density")) == pytest.approx(1.0 + 1.5 + 0.5)


def test_open_close_records_parents():
    rec = SpanRecorder()
    outer = rec.open("cli.main")
    inner = rec.open("density.tau")
    rec.close(inner)
    rec.close(outer)
    assert rec.parents == [-1, outer]
    assert rec.ends[inner] <= rec.ends[outer]
    assert rec.self_times()[outer] <= rec.duration(outer)


def test_reference_block_sample_runs_at_least_once_and_fills_its_budget():
    from reference import ReferenceBlock

    block = ReferenceBlock()
    assert block.run() == block.run()  # fixed inputs, fixed work
    assert len(block.sample(0.0)) == 1
    times = block.sample(0.25)
    assert sum(times) >= 0.25 and all(t > 0.0 for t in times)
