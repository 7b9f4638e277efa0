"""Closed-loop benchmark of the skewspec package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fekete --seed 1 --seconds 40 --trace 0

One caller issues one operation at a time and waits for it to finish; no
thread or process is started. The operations are the README commands, run
in-process through ``skewspec.cli.main(argv)``, and the README library quick
start (see ops.py). The operation list of a workload is a cycle. Cycles
repeat with the same seeds until ``--seconds`` is used up, and at least
twice, so every artifact's sha256 is compared with the first cycle's: the
README promises byte-identical CSVs for a fixed seed, and a mismatch fails
the operation.

Workloads (why each exists is in BENCHMARK.json):

    fekete  fekete --n 20 and --n 50 (anti mode), fekete --n 40 --mode
            commuting, each with --restarts 1
    chain   sample --p 1 --samples 10000 and sample --p 10 --samples 2000
            --burnin 20000 --thin 20, each followed by density on its samples
    verify  verify-jacobian --p 3 --trials 100 and --p 8 --trials 10, then
            1000 quick-start round trips with p cycling over 1..8

After every operation the benchmark runs a fixed reference block
(reference.py) for 15% of the operation's time, and times one more
set-up. On a shared host the processor's speed changes by up to two times
within seconds; the reference block measures that speed next to the
operations, and set-ups spread over the run sample it the same way.

End-to-end metrics (``--trace 0``), reported on every workload:

    setup_s   median over all set-ups in the run of: import skewspec fresh,
              then one small warm-up call into each layer through the CLI
              and quick start (the modules the operations run on are put
              back after each timed set-up)
    wall_ref  mean cycle time (operations only) over the mean time of the
              reference blocks run in the same cycles: the operation list's
              cost in units of the reference block. Both are means over the
              same stretch of the run, so a host slow-down stretches them
              alike; medians would compare different moments
    ok_frac   operations that passed every check over operations attempted

The cycle time in seconds (wall_s), the reference block's median time
(reference_s) and the workload-specific figures (fekete_anti_s,
fekete_commuting_s, tau_final, sample_s, ess_per_s, density_rows_per_s,
verify_s, verified_spectra_per_s, roundtrip_per_s) are printed as
``figure`` lines and written to .perfbench/<workload>-trace0-report.json
with each operation's checks and artifact hashes.

``--trace 1`` alternates untraced and traced cycles. Traced cycles wrap the
names each layer calls into (layers.py) and record spans; the per-layer
metrics are medians over traced cycles, and trace.overhead_frac compares the
cycle cost in reference units of the two kinds. Spans are written to
.perfbench/<workload>-spans.json when the run ends.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("fekete", "chain", "verify")
MIN_CYCLES = 2
# Share of each operation's time that the reference block runs after it.
REFERENCE_SHARE = 0.15
BENCH_DIR = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas() -> dict:
    """Single-threaded BLAS, set before numpy loads; an override is an error."""
    for var in BLAS_THREAD_VARS:
        value = os.environ.setdefault(var, "1")
        if value != "1":
            raise BenchError(f"{var}={value} overrides the single-thread BLAS pin; unset it or set it to 1")
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS pin was set")
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def locate_source(root: Path) -> Path:
    src = root / "src"
    if not (src / "skewspec" / "__init__.py").is_file():
        raise BenchError(f"no src/skewspec under {root}; run from the root of a skewspec checkout")
    return src


def warm_up(package, scratch: Path) -> None:
    """One small call into each layer, through the CLI and the quick start."""
    import numpy as np

    commands = [
        ["kbound", "--p", "2"],
        ["verify-jacobian", "--spectrum", "1,1", "--out", str(scratch / "vj")],
        ["fekete", "--n", "4", "--restarts", "1", "--out", str(scratch / "fk")],
        ["sample", "--p", "1", "--samples", "100", "--burnin", "200", "--thin", "1", "--out", str(scratch / "ch")],
        ["density", "--points", str(scratch / "ch" / "samples.csv")],
    ]
    with redirect_stdout(io.StringIO()):
        for argv in commands:
            code = package.cli.main(argv)
            if code != 0:
                raise BenchError(f"warm-up command {argv[0]} exited {code}")
    s = package.SkewSpectrum([(1.0, 3.0), (2.0, 4.0)])
    package.extract_skew_spectrum(package.sample_generic_pair(s, np.random.default_rng(0)))


def _skewspec_modules() -> list[str]:
    return [m for m in sys.modules if m == "skewspec" or m.startswith("skewspec.")]


def set_up(src: Path, scratch: Path):
    """Import the package fresh and warm it up; returns (seconds, package).

    The modules of an earlier import are put back afterwards, so a set-up
    timed between operations leaves the package they run on in place.
    """
    earlier = {name: sys.modules.pop(name) for name in _skewspec_modules()}
    try:
        gc.collect()
        start = time.perf_counter()
        package = importlib.import_module("skewspec")
        importlib.import_module("skewspec.cli")
        warm_up(package, scratch)
        seconds = time.perf_counter() - start
    finally:
        if earlier:
            for name in _skewspec_modules():
                del sys.modules[name]
            sys.modules.update(earlier)
        shutil.rmtree(scratch, ignore_errors=True)
    origin = Path(package.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchError(f"imported skewspec from {origin}, not from {src}")
    return seconds, package


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))


def environment(blas: dict, src: Path) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": src_lines(src),
    }


@dataclass
class Cycle:
    """One pass over the operation list."""

    traced: bool
    outcomes: list
    recorder: object  # SpanRecorder of a traced cycle, else None
    reference_s: list  # seconds of each reference block run after the operations

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def run_cycles(ops_list, package, seconds, trace, work, set_up_again):
    """Run cycles of the operation list.

    After each operation the reference block runs for about
    REFERENCE_SHARE of the operation's time (at least once) and the set-up
    is timed once more, so both sample the host over the whole run.
    """
    from layers import traced as traced_names
    from reference import ReferenceBlock
    from spans import SpanRecorder

    reference = ReferenceBlock()
    reference.timed()  # first call pays for allocation and lazy imports
    cycles = []
    first_hashes = {}
    started = time.perf_counter()
    last = 0.0
    while len(cycles) < MIN_CYCLES or time.perf_counter() - started + last <= seconds:
        is_traced = bool(trace) and len(cycles) % 2 == 1
        cycle = Cycle(is_traced, [], SpanRecorder() if is_traced else None, [])
        cycle_dir = work / f"cycle{len(cycles)}"
        cycle_dir.mkdir(parents=True)
        cycle_start = time.perf_counter()
        for op in ops_list:
            gc.collect()
            with traced_names(cycle.recorder) if is_traced else nullcontext():
                outcome = op.run(cycle_dir, package, cycle.recorder)
            expected = first_hashes.setdefault(op.name, outcome.hashes)
            if outcome.hashes != expected:
                outcome.fail("artifact sha256 differs from the first cycle with the same seed")
            cycle.outcomes.append(outcome)
            if is_traced:
                cycle.recorder.counts.update(outcome.counts)
            cycle.reference_s += reference.sample(REFERENCE_SHARE * outcome.seconds)
            set_up_again()
        shutil.rmtree(cycle_dir)
        last = time.perf_counter() - cycle_start
        cycles.append(cycle)
    return cycles


def median_seconds(cycles, ops_list, keep=lambda op: True) -> float:
    """Median over cycles of the seconds spent in the operations ``keep`` selects."""
    return statistics.median(
        sum(o.seconds for op, o in zip(ops_list, c.outcomes) if keep(op)) for c in cycles
    )


def cost_ref(cycles) -> float:
    """Mean cycle time over the mean time of the reference blocks run in those cycles."""
    return statistics.mean(c.seconds for c in cycles) / statistics.mean(t for c in cycles for t in c.reference_s)


def end_to_end(ops_list, cycles, setup_times, attempted, failed) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_ref": cost_ref(cycles),
        "ok_frac": 1.0 - failed / attempted,
    }


def figures(ops_list, cycles, e2e, attempted, failed) -> dict:
    """The workload-specific figures as (value, unit), named as in the workload rationale."""
    first = {op.name: o for op, o in zip(ops_list, cycles[0].outcomes)}
    out = {
        "setup_s": (e2e["setup_s"], "s"),
        "wall_s": (median_seconds(cycles, ops_list), "s"),
        "reference_s": (statistics.median(t for c in cycles for t in c.reference_s), "s"),
        "wall_ref": (e2e["wall_ref"], "ref"),
        "failed_frac": (failed / attempted, "frac"),
    }
    for metric in dict.fromkeys(op.time_metric for op in ops_list):
        family = [op for op in ops_list if op.time_metric == metric]
        seconds = median_seconds(cycles, ops_list, lambda op: op.time_metric == metric)
        out[metric] = (seconds, "s")
        if family[0].rate_metric:
            out[family[0].rate_metric] = (sum(first[op.name].units for op in family) / seconds, "1/s")
    if "fekete-n50" in first:
        out["tau_final"] = (first["fekete-n50"].facts.get("tau_final", math.nan), "nat")
        out["commuting_max_norm_ratio"] = (first["fekete-n40-commuting"].facts.get("max_norm_ratio", math.nan), "ratio")
    if "sample-p1" in first:
        seconds = median_seconds(cycles, ops_list, lambda op: op.name == "sample-p1")
        out["ess_per_s"] = (first["sample-p1"].facts.get("ess", 0.0) / seconds, "1/s")
    return out


def per_layer(cycles) -> dict:
    from layers import layer_metrics

    traced = [layer_metrics(c.recorder) for c in cycles if c.traced]
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    costs = {flag: cost_ref([c for c in cycles if c.traced == flag]) for flag in (False, True)}
    metrics["trace.overhead_frac"] = costs[True] / costs[False] - 1.0
    return metrics


def load_units(section: str) -> dict:
    """Metric units of one section of BENCHMARK.json, which sits next to this directory."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    blas = pin_blas()
    root = Path.cwd()
    src = locate_source(root)
    sys.path[:0] = [str(BENCH_DIR), str(src)]

    import ops
    from spans import write_spans

    out_dir = root / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    try:
        seconds, package = set_up(src, work / "setup")
        setup_times = [seconds]

        def set_up_again():
            setup_times.append(set_up(src, work / "setup")[0])

        ops_list = ops.build(args.workload, args.seed, package)
        cycles = run_cycles(ops_list, package, args.seconds, args.trace, work, set_up_again)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(blas, src)
    print("env " + json.dumps(env, sort_keys=True))

    outcomes = [o for c in cycles for o in c.outcomes]
    attempted = len(outcomes)
    failed = sum(not o.ok for o in outcomes)
    for op, o in zip(ops_list * len(cycles), outcomes):
        if not o.ok:
            print(f"FAILED {op.name}: {o.reason}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "setup_s": setup_times,
        "cycles": [{"traced": c.traced, "seconds": c.seconds, "reference_s": c.reference_s} for c in cycles],
        "ops": [
            {"name": op.name, "seconds": [c.outcomes[i].seconds for c in cycles], "ok": [c.outcomes[i].ok for c in cycles],
             "facts": o.facts, "sha256": o.hashes}
            for i, (op, o) in enumerate(zip(ops_list, cycles[0].outcomes))
        ],
    }
    if args.trace:
        values, units = per_layer(cycles), load_units("per_layer")
        write_spans(out_dir / f"{args.workload}-spans.json", [c.recorder for c in cycles if c.traced])
    else:
        values, units = end_to_end(ops_list, cycles, setup_times, attempted, failed), load_units("end_to_end")
        report["figures"] = figures(ops_list, cycles, values, attempted, failed)
        for name, (value, unit) in report["figures"].items():
            print(f"figure {name} {value!r} {unit}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    report["metrics"] = metrics
    (out_dir / f"{args.workload}-trace{args.trace}-report.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
