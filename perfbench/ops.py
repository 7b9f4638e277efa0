"""The operations of each workload and the checks on their outputs.

Every operation is a README command run in-process through
``skewspec.cli.main(argv)``, or a batch of README library quick-start round
trips. Only the call into the package is timed; reading and checking the
outputs happens after the clock stops. An operation fails when the command
exits non-zero, raises, or writes output that does not pass its checks.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ess import geyer_ess

KS_THRESHOLD = 0.05
JACOBIAN_TOL = 1e-8
ROUNDTRIP_TOL = 1e-8
GAMMA = "0.5"
# tau reached from the exact grid start at the default gamma. Another
# optimizer may land in a different local minimum; at n = 50 the minima seen
# over restarts differ by under 0.2, so a solve passes up to 1e-4 (relative)
# above this value and fails if it stops in a clearly worse one.
TAU_REFERENCE = {20: -559.3699344434551, 50: -4705.493420757387}
TAU_REL_TOL = 1e-4
# The p = 1 chain's ESS was 7.2k to 8.5k of 10k samples over six seeds.
ESS_FLOOR_FRAC = 0.5
ROUNDTRIPS = 1000
# Errors that reading a missing or malformed artifact raises.
UNREADABLE = (OSError, ValueError, KeyError, IndexError, TypeError)


@dataclass
class Outcome:
    """Result of one operation in one cycle."""

    seconds: float
    ok: bool = True
    reason: str = ""
    units: int = 0  # rows, spectra or round trips, for rate figures
    hashes: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)  # trace counters

    def fail(self, reason: str) -> "Outcome":
        self.ok = False
        self.reason = self.reason or reason
        return self


@dataclass(frozen=True)
class Op:
    name: str
    time_metric: str  # the figure this operation's seconds add to
    rate_metric: str | None  # the figure its units per second add to
    run: Callable  # (cycle_dir, package, recorder or None) -> Outcome


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def last_error_line() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


def run_cli(package, argv, recorder):
    """Call ``skewspec.cli.main(argv)``; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        index = recorder.open("cli.main") if recorder is not None else None
        start = time.perf_counter()
        try:
            code = package.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = "raised " + last_error_line()
        seconds = time.perf_counter() - start
        if index is not None:
            recorder.close(index)
    return code, out.getvalue(), err.getvalue(), seconds


def cli_op(name, time_metric, rate_metric, argv, check, writes_files=True):
    """An operation that runs one CLI command, hashes what it wrote, then checks it.

    ``argv(cycle_dir)`` gives the command without ``--out``; commands that
    write files get ``--out <cycle_dir>/<name>``, and the rest are judged by
    their standard output. ``check(outcome, out_dir, stdout)`` fails the
    outcome on bad output.
    """

    def run(cycle_dir, package, recorder):
        out_dir = cycle_dir / name if writes_files else None
        full = argv(cycle_dir) + (["--out", str(out_dir)] if writes_files else [])
        code, stdout, stderr, seconds = run_cli(package, full, recorder)
        outcome = Outcome(seconds)
        if out_dir is None:
            outcome.hashes = {"stdout": sha256_bytes(stdout.encode())}
            outcome.counts["cli.artifact_bytes"] += len(stdout.encode())
        elif out_dir.is_dir():
            # the manifest is left out of the hashes as it records the wall time
            files = [p for p in sorted(out_dir.iterdir()) if p.is_file()]
            outcome.hashes = {p.name: sha256_bytes(p.read_bytes()) for p in files if p.name != "manifest.json"}
            outcome.counts["cli.artifact_bytes"] += sum(p.stat().st_size for p in files)
        if code != 0:
            tail = stderr.strip().splitlines()[-1:] or [""]
            return outcome.fail(f"exit {code}: {tail[0][:200]}")
        try:
            check(outcome, out_dir, stdout)
        except UNREADABLE:
            outcome.fail("unreadable output: " + last_error_line())
        return outcome

    return Op(name, time_metric, rate_metric, run)


def read_csv(path: Path) -> np.ndarray:
    """Numeric rows of a CLI CSV (header skipped), shape (rows, columns)."""
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines], dtype=float)


def fekete(name, n, seed, mode="anti"):
    # One restart: the exact grid start. Each seeded restart adds a descent
    # whose length ranged from 2.0k to 14.7k iterations over seeds 1..6, which
    # would make the run-to-run spread a property of the seed, not the code.
    argv = ["fekete", "--n", str(n), "--mode", mode, "--restarts", "1", "--seed", str(seed)]

    def check(outcome, out_dir, stdout):
        points = read_csv(out_dir / "points.csv")
        stats = json.loads((out_dir / "stats.json").read_text())
        outcome.counts["fekete.iterations"] += stats["iterations"]
        outcome.facts.update(tau_final=stats["tau_final"], iterations=stats["iterations"])
        if not stats["converged"]:
            return outcome.fail(f"stopped at gradient norm {stats['grad_norm']!r} before reaching its grad_tol")
        if points.shape != (n // 2 if mode == "anti" else n, 2) or not np.all(np.isfinite(points)):
            return outcome.fail(f"points.csv has shape {points.shape} or non-finite values")
        if mode == "anti":
            if not np.all(points > 0.0):
                return outcome.fail("points.csv leaves the open quadrant")
            reference = TAU_REFERENCE[n]
            if stats["tau_final"] > reference + TAU_REL_TOL * abs(reference):
                return outcome.fail(f"tau_final {stats['tau_final']!r} above the reference {reference!r}")
        else:
            # recorded, not judged: acceptance criterion 9 owns this ratio
            outcome.facts["max_norm_ratio"] = stats["max_norm"] / math.sqrt(2 * n)

    return cli_op(name, f"fekete_{mode}_s", None, lambda cycle_dir: argv, check)


def sample(name, p, seed, samples, burnin=None, thin=None):
    argv = ["sample", "--p", str(p), "--gamma", GAMMA, "--samples", str(samples), "--seed", str(seed)]
    if burnin is not None:
        argv += ["--burnin", str(burnin), "--thin", str(thin)]

    def check(outcome, out_dir, stdout):
        data = read_csv(out_dir / "samples.csv")
        if data.shape != (samples, 2 * p) or not np.all(np.isfinite(data)) or not np.all(data > 0.0):
            return outcome.fail(f"samples.csv has shape {data.shape} or values outside the open quadrant")
        chain = json.loads((out_dir / "chain.json").read_text())
        outcome.facts["acceptance_rate"] = chain["acceptance_rate"]
        if p == 1:
            ks = json.loads((out_dir / "ks.json").read_text())
            outcome.facts.update(ks_x=ks["statistic_x"], ks_y=ks["statistic_y"])
            if not (ks["passed"] and ks["statistic_x"] < KS_THRESHOLD and ks["statistic_y"] < KS_THRESHOLD):
                return outcome.fail(f"ks.json did not pass: {ks['statistic_x']:.4f}, {ks['statistic_y']:.4f}")
            ess = min(geyer_ess(data[:, 0]), geyer_ess(data[:, 1]))
            outcome.facts["ess"] = ess
            if ess < ESS_FLOOR_FRAC * samples:
                return outcome.fail(f"ESS {ess:.0f} below {ESS_FLOOR_FRAC} of {samples} samples")

    return cli_op(name, "sample_s", None, lambda cycle_dir: argv, check)


def density(name, source, rows):
    def argv(cycle_dir):
        return ["density", "--points", str(cycle_dir / source / "samples.csv"), "--gamma", GAMMA]

    def check(outcome, out_dir, stdout):
        lines = stdout.splitlines()
        if not lines or lines[0] != "log_rho,tau" or len(lines) - 1 != rows:
            return outcome.fail(f"expected a header and {rows} rows, got {len(lines)} lines")
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        if values.shape != (rows, 2) or not np.all(np.isfinite(values)):
            return outcome.fail("density output has a non-finite row")
        outcome.units = rows

    return cli_op(name, "density_s", "density_rows_per_s", argv, check, writes_files=False)


def verify(name, p, trials, seed):
    argv = ["verify-jacobian", "--p", str(p), "--trials", str(trials), "--seed", str(seed)]

    def check(outcome, out_dir, stdout):
        report = json.loads((out_dir / "report.json").read_text())
        outcome.facts["max_rel_err"] = report["max_rel_err"]
        if not (report["passed"] and report["max_rel_err"] <= JACOBIAN_TOL):
            return outcome.fail(f"report.json did not pass: max_rel_err {report['max_rel_err']:.3e}")
        outcome.units = trials

    return cli_op(name, "verify_s", "verified_spectra_per_s", lambda cycle_dir: argv, check)


def roundtrips(name, package, seed, count=ROUNDTRIPS):
    """README quick start, extract_skew_spectrum(sample_generic_pair(s)), p cycling over 1..8."""
    rng = np.random.default_rng(seed)
    spectra = [
        package.random_generic_spectrum(1 + i % 8, rng, low=0.1, high=5.0, min_rel_gap=1e-3) for i in range(count)
    ]
    trip_seeds = rng.integers(0, 2**32, size=count)

    def run(cycle_dir, package, recorder):
        rngs = [np.random.default_rng(s) for s in trip_seeds]
        results = []
        start = time.perf_counter()
        try:
            for s, trip_rng in zip(spectra, rngs):
                results.append(package.extract_skew_spectrum(package.sample_generic_pair(s, trip_rng)))
        except Exception:
            return Outcome(time.perf_counter() - start).fail("raised " + last_error_line())
        outcome = Outcome(time.perf_counter() - start, units=count)
        digest = hashlib.sha256()
        worst = 0.0
        for s, got in zip(spectra, results):
            want = s.sorted().points
            digest.update(np.ascontiguousarray(got.points).tobytes())
            if got.points.shape != want.shape:
                return outcome.fail(f"round trip returned {got.points.shape[0]} points, expected {want.shape[0]}")
            worst = max(worst, float(np.max(np.abs(got.points - want)) / np.max(np.abs(want))))
        outcome.hashes = {"points": digest.hexdigest()}
        outcome.facts["max_rel_err"] = worst
        if worst > ROUNDTRIP_TOL:
            return outcome.fail(f"round-trip relative error {worst:.3e} above {ROUNDTRIP_TOL:.0e}")
        return outcome

    return Op(name, "roundtrip_s", "roundtrip_per_s", run)


def build(workload: str, seed: int, package) -> list[Op]:
    """The operation list of one cycle; every seed is derived from ``seed``."""
    s = [int(v) for v in np.random.SeedSequence(seed).generate_state(3)]
    if workload == "fekete":
        return [
            fekete("fekete-n20", 20, s[0]),
            fekete("fekete-n50", 50, s[1]),
            fekete("fekete-n40-commuting", 40, s[2], mode="commuting"),
        ]
    if workload == "chain":
        return [
            sample("sample-p1", 1, s[0], 10_000),
            density("density-p1", "sample-p1", 10_000),
            sample("sample-p10", 10, s[1], 2_000, burnin=20_000, thin=20),
            density("density-p10", "sample-p10", 2_000),
        ]
    if workload == "verify":
        return [
            verify("verify-p3", 3, 100, s[0]),
            verify("verify-p8", 8, 10, s[1]),
            roundtrips("roundtrip", package, s[2]),
        ]
    raise ValueError(f"unknown workload {workload!r}")
