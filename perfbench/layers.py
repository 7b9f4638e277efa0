"""The traced run: which skewspec names are wrapped, and the per-layer metrics.

The layers are the package's modules. Each wrapper is installed by rebinding
a name that one module imported from another (for example
``skewspec.fekete.tau`` or ``skewspec.sampler.log_rho``), so the span sits at
the boundary between the caller and the layer it calls into. Nothing inside
the package is edited, and the original names are restored when the traced
cycle ends. A name that a later version of the package no longer has is
skipped; the counters it fed then read 0.
"""

from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager

import numpy as np


def _npoints(config) -> int:
    points = getattr(config, "points", config)
    shape = getattr(points, "shape", None)
    if shape is None:
        return len(points)
    return shape[0] if len(shape) == 2 else shape[0] // 2


def _finite(result) -> bool:
    if hasattr(result, "finite"):
        return bool(result.finite)
    if isinstance(result, float):
        return math.isfinite(result)
    return bool(np.all(np.isfinite(result)))


def _density(counts, args, result):
    p = _npoints(args[0])
    counts["density.pair_terms"] += p * (p - 1) // 2
    counts["density.nonfinite"] += not _finite(result)


def _pair_factor(counts, args, result):
    counts["density.pair_terms"] += 1
    counts["density.nonfinite"] += not _finite(result)


def _chain(counts, args, result):
    sampling = result.n_samples * result.thinning
    counts["sampler.transitions"] += result.burn_in + sampling
    counts["sampler.sampling_transitions"] += sampling
    counts["sampler.accepted"] += result.acceptance_rate * sampling


def _assemble(counts, args, result):
    p = args[0].p
    counts["jacobian.dG_bytes"] += 8 * (8 * p * p) * (4 * p * p + p)


# (module, imported name, span name, observer); the span name's prefix is the
# layer called into.
TARGETS = [
    ("skewspec.fekete", "tau", "density.tau", _density),
    ("skewspec.fekete", "grad_tau", "density.grad_tau", _density),
    ("skewspec.fekete", "log_kappa_commuting", "density.log_kappa_commuting", _density),
    ("skewspec.sampler", "log_rho", "density.log_rho", _density),
    ("skewspec.cli", "log_rho", "density.log_rho", _density),
    ("skewspec.cli", "tau", "density.tau", _density),
    ("skewspec.jacobian", "log_rho", "density.log_rho", _density),
    ("skewspec.jacobian", "pair_factor_f", "density.pair_factor_f", _pair_factor),
    ("skewspec.cli", "minimize_tau", "fekete.minimize_tau", None),
    ("skewspec.cli", "minimize_commuting", "fekete.minimize_commuting", None),
    ("skewspec.cli", "spacing_stats", "fekete.spacing_stats", None),
    ("skewspec.sampler", "grid_initialization", "fekete.grid_initialization", None),
    ("skewspec.cli", "run_chain", "sampler.run_chain", _chain),
    ("skewspec.cli", "p1_quadrature_cdf", "sampler.p1_quadrature_cdf", None),
    ("skewspec.cli", "ks_compare", "sampler.ks_compare", None),
    ("skewspec.cli", "gram_determinant", "jacobian.gram_determinant", None),
    ("skewspec.cli", "gram_log_determinant", "jacobian.gram_log_determinant", None),
    ("skewspec.jacobian", "gram_log_determinant", "jacobian.gram_log_determinant", None),
    ("skewspec.jacobian", "assemble_dG", "jacobian.assemble_dG", _assemble),
    ("skewspec.cli", "closed_form_log_gram", "jacobian.closed_form_log_gram", None),
    ("skewspec.cli", "verify_density_shape", "jacobian.verify_density_shape", None),
    ("skewspec.cli", "random_generic_spectrum", "ensemble.random_generic_spectrum", None),
    ("skewspec.jacobian", "build_block_diag", "ensemble.build_block_diag", None),
    ("skewspec", "sample_generic_pair", "ensemble.sample_generic_pair", None),
    ("skewspec", "extract_skew_spectrum", "ensemble.extract_skew_spectrum", None),
    ("skewspec.ensemble", "haar_unitary", "matrixcore.haar_unitary", None),
    ("skewspec.ensemble", "hermitian_eig", "matrixcore.hermitian_eig", None),
]


def _wrap(recorder, span, fn, observe):
    counts = recorder.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.open(span)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            counts["errors." + span] += 1
            raise
        finally:
            recorder.close(index)
        if observe is not None:
            observe(counts, args, result)
        return result

    return wrapper


@contextmanager
def traced(recorder):
    """Rebind every target to a span-recording wrapper for the duration."""
    saved = []
    try:
        for module_name, attr, span, observe in TARGETS:
            module = sys.modules.get(module_name)
            if module is None or not hasattr(module, attr):
                recorder.counts["missing_targets"] += 1
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(recorder, span, original, observe))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(rec) -> dict[str, float]:
    """Per-layer metrics of one traced cycle (see BENCHMARK.json per_layer)."""
    selfs = rec.self_times()
    spans_by_name: dict[str, list[int]] = {}
    for index, name in enumerate(rec.names):
        spans_by_name.setdefault(name, []).append(index)

    def total(*names):
        return sum(rec.duration(i) for n in names for i in spans_by_name.get(n, ()))

    def calls(*names):
        return sum(len(spans_by_name.get(n, ())) for n in names)

    def busy(layer):
        return sum(rec.duration(i) for i in rec.outermost(layer))

    def self_time(layer):
        return sum(s for name, s in zip(rec.names, selfs) if name.startswith(layer + "."))

    def errors(layer):
        return sum(v for k, v in rec.counts.items() if k.startswith("errors." + layer + "."))

    c = rec.counts
    density_calls = sum(1 for name in rec.names if name.startswith("density."))
    density_busy = busy("density")
    from_fekete = {
        name: sum(1 for i in spans_by_name.get(name, ()) if rec.under(i, "fekete"))
        for name in ("density.tau", "density.grad_tau")
    }
    fekete_busy = busy("fekete")
    chain_s = total("sampler.run_chain")
    glogdet = spans_by_name.get("jacobian.gram_log_determinant", ())
    return {
        "density.calls": density_calls,
        "density.busy_s": density_busy,
        "density.us_per_call": _ratio(density_busy, density_calls, 1e6),
        "density.pair_terms": c["density.pair_terms"],
        "density.ns_per_pair_term": _ratio(density_busy, c["density.pair_terms"], 1e9),
        "density.nonfinite_frac": _ratio(c["density.nonfinite"] + errors("density"), density_calls),
        "fekete.busy_s": fekete_busy,
        "fekete.self_s": self_time("fekete"),
        "fekete.iterations": c["fekete.iterations"],
        "fekete.grad_evals": from_fekete["density.grad_tau"],
        "fekete.value_evals_per_grad": _ratio(from_fekete["density.tau"], from_fekete["density.grad_tau"]),
        "fekete.us_per_iter": _ratio(fekete_busy, c["fekete.iterations"], 1e6),
        "sampler.busy_s": busy("sampler"),
        "sampler.self_s": self_time("sampler"),
        "sampler.transitions": c["sampler.transitions"],
        "sampler.ns_per_transition": _ratio(chain_s, c["sampler.transitions"], 1e9),
        "sampler.acceptance_rate": _ratio(c["sampler.accepted"], c["sampler.sampling_transitions"]),
        "sampler.quadrature_s": total("sampler.p1_quadrature_cdf"),
        "sampler.ks_s": total("sampler.ks_compare"),
        "jacobian.busy_s": busy("jacobian"),
        "jacobian.gram_evals": len(glogdet),
        "jacobian.assemble_s": total("jacobian.assemble_dG"),
        "jacobian.svd_s": sum(selfs[i] for i in glogdet),
        "jacobian.closed_form_s": total("jacobian.closed_form_log_gram"),
        "jacobian.dG_bytes": c["jacobian.dG_bytes"],
        "ensemble.build_calls": calls("ensemble.build_block_diag", "ensemble.sample_generic_pair"),
        "ensemble.build_s": total("ensemble.build_block_diag", "ensemble.sample_generic_pair"),
        "ensemble.extract_calls": calls("ensemble.extract_skew_spectrum"),
        "ensemble.extract_s": total("ensemble.extract_skew_spectrum"),
        "ensemble.rejections": errors("ensemble"),
        "matrixcore.haar_calls": calls("matrixcore.haar_unitary"),
        "matrixcore.haar_s": total("matrixcore.haar_unitary"),
        "matrixcore.eig_calls": calls("matrixcore.hermitian_eig"),
        "matrixcore.eig_s": total("matrixcore.hermitian_eig"),
        "cli.self_s": self_time("cli"),
        "cli.artifact_bytes": c["cli.artifact_bytes"],
    }
