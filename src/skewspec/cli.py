"""Command-line frontend: verification runs, Fekete sets, chains, artifacts.

Exit codes: 0 success, 2 numerical failure, 64 usage error, 65 data format
error. Every artifact-writing command drops a ``manifest.json`` next to its
outputs; re-running with the manifest's seed reproduces the CSV outputs
byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .density import WeightSpec, _kernel, _log_rho_of, _neg_log_of
from .ensemble import SkewSpectrum
from .fekete import DEFAULT_GAMMA, OptimizerConfig, minimize_commuting, minimize_tau, solve_K_bound, spacing_stats
from .fekete import _k_constraint_lhs
from .jacobian import JACOBIAN_TOL, DegenerateJacobian, verify_density_shape
from .sampler import KS_MIN_SAMPLES, ks_compare, p1_quadrature_cdf, radial_ks, run_chain, split_rhat

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
EXIT_DATA = 65

KS_THRESHOLD = 0.05
TRIALS = 100  # random spectra of a `verify-jacobian --p` run without --trials
# dG columns, trials * (4p^2 + p), one `verify-jacobian` run may take (a `--spectrum` is one trial);
# each costs about 1.6 KB of peak memory, so the limit is about 2.5 GB
VERIFY_COLUMNS = 1_500_000
# pair terms, p(p - 1)/2, of one configuration of p points: a `sample --p`
# configuration, the points of `fekete --n` or a `density` row; the density
# kernel takes about 180 B of peak memory per term, so the limit is about 750 MB
MAX_PAIR_TERMS = 1 << 22
# coordinates, samples * 2p, one `sample` run retains; each costs about 50 B
# on its way to samples.csv, so the limit is about 850 MB
SAMPLE_COORDINATES = 1 << 24
# fields of a points file that `density` converts in one block: enough that
# the block's few numpy calls cost little, few enough that its field strings
# take a few MB
BLOCK_FIELDS = 1 << 16
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code and the message line, ``skewspec: error: ...``, this tool promises."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"skewspec: error: {message}\n")


def _domain(kind: type, positive: bool):
    """argparse ``type=``: text to a ``kind`` that is positive, or else non-negative, and finite.

    Finite means within the double range, so an int too large for a float
    is rejected too.
    """

    def convert(text: str):
        value = kind(text)
        if not ((0 < value if positive else 0 <= value) and value <= sys.float_info.max):
            raise ValueError(text)
        return value

    # argparse names the domain in its "invalid <name> value" usage error
    convert.__name__ = f"finite {'positive' if positive else 'non-negative'} {kind.__name__}"
    return convert


_seed = _domain(int, positive=False)


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    """Rows of Python ints and floats, as ``tolist()`` gives them, each value written as its ``repr``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace, artifacts: list[str], started: float) -> None:
    parameters = {k: v for k, v in vars(args).items() if k not in {"func", "out"}}
    _write_json(
        out_dir / "manifest.json",
        {
            "command": command,
            "parameters": parameters,
            "seed": getattr(args, "seed", None),
            "artifacts": sorted(artifacts + ["manifest.json"]),
            "versions": f"skewspec {__version__}",
            "environment": {
                "numpy": np.__version__,
                "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
                "cpu_count": os.cpu_count(),
            },
            "wall_time_seconds": time.perf_counter() - started,
        },
    )


def _svg_scatter(points: np.ndarray, radius: float, mode: str) -> str:
    """800x800 scatter of [-1.2r, 1.2r]^2, or its first quadrant in anti mode, with axes and the reference circle of radius r."""
    size = 800
    extent = 1.2 * radius
    low = 0.0 if mode == "anti" else -extent  # the view is [low, extent]^2
    span = extent - low

    def to_px(x, y):
        return (x - low) / span * size, size - (y - low) / span * size

    cx, cy = to_px(0.0, 0.0)
    rpx = radius / span * size
    if mode == "anti":
        (x0, y0), (x1, y1) = to_px(radius, 0.0), to_px(0.0, radius)
        reference = f'<path class="reference" d="M {x0:.3f} {y0:.3f} A {rpx:.3f} {rpx:.3f} 0 0 0 {x1:.3f} {y1:.3f}"'
    else:
        reference = f'<circle class="reference" cx="{cx:.3f}" cy="{cy:.3f}" r="{rpx:.3f}"'
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
        f'{reference} fill="none" stroke="black" stroke-width="1.5"/>',
        f'<line x1="0" y1="{cy:.3f}" x2="{size}" y2="{cy:.3f}" stroke="gray"/>',
        f'<line x1="{cx:.3f}" y1="0" x2="{cx:.3f}" y2="{size}" stroke="gray"/>',
    ]
    for x, y in points:
        px, py = to_px(float(x), float(y))
        parts.append(f'<circle class="point" cx="{px:.3f}" cy="{py:.3f}" r="4" fill="crimson"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _exp_or_none(log_value: float):
    """exp of a log value, or None (JSON null) where it overflows a double."""
    with np.errstate(over="ignore"):
        value = float(np.exp(log_value))
    return value if np.isfinite(value) else None


def _output_dir(text: str, parser: _Parser) -> Path:
    """The ``--out`` directory, created if missing; a usage error where it cannot be."""
    out_dir = Path(text)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out {text!r} is not a usable directory: {exc.strerror or exc}")
    return out_dir


def _pair_terms_error(p: int, what: str) -> str:
    """Why ``what``, a configuration of p points, is too large, or "" where it is not."""
    if p * (p - 1) // 2 > MAX_PAIR_TERMS:
        return f"{what} exceeds the limit of {MAX_PAIR_TERMS} pair terms, p(p - 1)/2, about 180 B of memory each"
    return ""


def _numbers(line: str) -> list[float] | None:
    """Each field of ``line`` stripped (of U+001F too, which float keeps) and as a float; None where one fails."""
    try:
        return [float(field.strip()) for field in line.split(",")]
    except ValueError:
        return None


def _row(line: str) -> list[float]:
    """The values of a ``density`` or ``--spectrum`` row x1,y1,...,xp,yp.

    Raises ValueError naming the first rule the row breaks, in this order:
    its fields parse, are even in number and finite, and p(p - 1)/2 <= MAX_PAIR_TERMS.
    """
    values = _numbers(line)
    if values is None:
        raise ValueError(f"cannot parse {line!r} as numbers")
    if len(values) % 2 != 0:
        raise ValueError("expected an even number of coordinates")
    if not all(map(math.isfinite, values)):
        raise ValueError("coordinates must be finite")
    if error := _pair_terms_error(len(values) // 2, f"a row of {len(values) // 2} points"):
        raise ValueError(error)
    return values


def _parse_spectrum_flag(text: str, parser: _Parser) -> SkewSpectrum:
    try:
        return SkewSpectrum(np.array(_row(text)).reshape(-1, 2))
    except ValueError as exc:
        parser.error(f"--spectrum: {exc}")


def cmd_verify_jacobian(args, parser: _Parser) -> int:
    started = time.perf_counter()
    if args.spectrum is not None:
        s = _parse_spectrum_flag(args.spectrum, parser)
        if args.p is not None and args.p != s.p:
            parser.error(f"--p {args.p} contradicts --spectrum with p = {s.p}")
        if args.trials is not None:
            parser.error(f"--trials {args.trials} does nothing with --spectrum, which is one trial")
        p, trials, flags, given = s.p, 1, f"--spectrum of p = {s.p}", {"spectrum": args.spectrum}
    elif args.p is None:
        parser.error("--p is required unless --spectrum is given")
    else:
        args.trials = TRIALS if args.trials is None else args.trials  # the manifest records the default
        p, trials, flags = args.p, args.trials, f"--p {args.p} --trials {args.trials}"
        given = {"p": p, "trials": trials}
    if trials * (4 * p**2 + p) > VERIFY_COLUMNS:
        parser.error(
            f"{flags} exceeds the limit of {VERIFY_COLUMNS} dG columns, trials * (4p^2 + p), "
            "about 1.6 KB of memory each"
        )
    rng = np.random.default_rng(args.seed)
    spectra = [s] if args.spectrum is not None else [SkewSpectrum(rng.uniform(0.1, 5.0, (p, 2))) for _ in range(trials)]
    out_dir = _output_dir(args.out, parser)

    try:
        shape = verify_density_shape(spectra)
    except DegenerateJacobian as exc:
        report = {"error": str(exc), **given}
        print(f"degenerate Jacobian: {exc}", file=sys.stderr)
    else:
        max_rel = max(abs(float(np.exp(g - c)) - 1.0) for g, c in zip(shape.log_gram, shape.log_closed_form))
        report = {
            "p": spectra[0].p,
            "max_rel_err": max_rel,
            "tolerance": JACOBIAN_TOL,
            "passed": bool(max_rel <= JACOBIAN_TOL and shape.passed),
        }
        if args.spectrum is not None:
            report["spectrum"] = [list(map(float, z)) for z in spectra[0].points]
            report["gram"] = _exp_or_none(float(shape.log_gram[0]))
            report["closed_form"] = _exp_or_none(float(shape.log_closed_form[0]))
            report["shape_ratio"] = _exp_or_none(float(shape.log_ratios[0]))
        else:
            report.update(given, shape_coefficient_of_variation=shape.coefficient_of_variation)
        print(f"max relative error {max_rel:.3e} (tolerance {JACOBIAN_TOL:.0e})")

    _write_json(out_dir / "report.json", report)
    _write_manifest(out_dir, "verify-jacobian", args, ["report.json"], started)
    return EXIT_OK if report.get("passed") else EXIT_NUMERICAL


def cmd_fekete(args, parser: _Parser) -> int:
    started = time.perf_counter()
    if args.mode == "anti" and args.n % 2 != 0:
        parser.error("--n must be even in anti mode (n = 2p)")
    points = args.n // 2 if args.mode == "anti" else args.n
    if error := _pair_terms_error(points, f"--n {args.n} ({points} points in {args.mode} mode)"):
        parser.error(error)
    gamma = args.gamma if args.gamma is not None else DEFAULT_GAMMA[args.mode]
    out_dir = _output_dir(args.out, parser)

    config = OptimizerConfig(max_iters=args.max_iters, grad_tol=args.grad_tol, restarts=args.restarts, seed=args.seed)
    if args.mode == "anti":
        result = minimize_tau(args.n // 2, config=config, gamma=gamma)
        points = result.points.points
    else:
        result = minimize_commuting(args.n, d=2, gamma=gamma, config=config)
        points = result.points

    # sqrt(N/c), the support radius of N points at weight c: the anti set is a quarter of a 2n-point orbit at gamma/2
    reference_radius = (2.0 if args.mode == "anti" else 1.0) * math.sqrt(args.n / gamma)
    spacing = spacing_stats(points) if points.shape[0] >= 2 else None
    stats = {
        "tau_final": result.tau_final,
        "mode": args.mode,
        "n": args.n,
        "gamma": gamma,
        "grad_norm": result.grad_norm_final,
        "iterations": result.iterations,
        "converged": result.converged,
        "nn_mean": spacing.nn_mean if spacing else None,
        "nn_cv": spacing.nn_cv if spacing else None,
        "max_norm": float(result.trace[-1, 2]),  # the last iterate's, as trace.csv holds it
        "reference_radius": reference_radius,
    }
    if result.K_bound is not None:
        stats["K_bound"] = result.K_bound

    _write_csv(out_dir / "points.csv", ["x", "y"], points.tolist())
    # one row per accepted iterate of the best restart
    _write_csv(
        out_dir / "trace.csv",
        ["iteration", "objective", "max_norm"],
        [(int(k), objective, norm) for k, objective, norm in result.trace.tolist()],
    )
    _write_json(out_dir / "stats.json", stats)
    with open(out_dir / "figure.svg", "w") as fh:
        fh.write(_svg_scatter(points, reference_radius, args.mode))
    _write_manifest(out_dir, "fekete", args, ["points.csv", "trace.csv", "stats.json", "figure.svg"], started)
    print(
        f"{args.mode} n={args.n}: objective {result.tau_final:.6f}, "
        f"max norm {stats['max_norm']:.6g}, reference radius {reference_radius:.6g}"
    )
    return EXIT_OK


def cmd_sample(args, parser: _Parser) -> int:
    started = time.perf_counter()
    if error := _pair_terms_error(args.p, f"--p {args.p}"):
        parser.error(error)
    if args.samples * 2 * args.p > SAMPLE_COORDINATES:
        parser.error(
            f"--samples {args.samples} at --p {args.p} exceeds the limit of {SAMPLE_COORDINATES} "
            "retained coordinates, samples * 2p, about 50 B of memory each"
        )
    out_dir = _output_dir(args.out, parser)

    w = WeightSpec(gamma=args.gamma)
    report = run_chain(args.p, w, args.samples, burn_in=args.burnin, thinning=args.thin, seed=args.seed)

    header = [f"{c}{k}" for k in range(1, args.p + 1) for c in ("x", "y")]
    _write_csv(out_dir / "samples.csv", header, report.samples.reshape(report.n_samples, -1).tolist())
    chain_info = {
        "p": args.p,
        "gamma": args.gamma,
        "n_samples": report.n_samples,
        "acceptance_rate": report.acceptance_rate,
        "burn_in": report.burn_in,
        "thinning": report.thinning,
        "seed": args.seed,
        "step_scale": report.step_scale,
        "chains": report.chains,
        "transitions": report.transitions,
        "kernel_calls": report.kernel_calls,
        # one [transitions made, window acceptance rate, scale from then on]
        # row per burn-in window, pooled over the chains
        "adaptation": [list(row) for row in report.adaptation],
        # recorded, not gated: KS of sum |z_k|^2 against its exact Gamma law
        "radial_ks": radial_ks(report, w),
        # recorded, not gated: split R-hat across the chains (BDA3 form)
        "split_rhat": split_rhat(report),
    }
    artifacts = ["samples.csv", "chain.json"]

    exit_code = EXIT_OK
    if args.p == 1 and report.n_samples >= KS_MIN_SAMPLES:
        law = p1_quadrature_cdf(w)
        ks = ks_compare(report, law)
        passed = ks.x < KS_THRESHOLD and ks.y < KS_THRESHOLD
        _write_json(
            out_dir / "ks.json",
            {
                "statistic_x": ks.x,
                "statistic_y": ks.y,
                "threshold": KS_THRESHOLD,
                "log_normalization_c1": law.log_normalization,
                "passed": passed,
            },
        )
        artifacts.append("ks.json")
        chain_info["ks_check"] = "written to ks.json"
        if not passed:
            exit_code = EXIT_NUMERICAL
    elif args.p == 1:
        chain_info["ks_check"] = f"skipped (needs >= {KS_MIN_SAMPLES} retained samples)"

    _write_json(out_dir / "chain.json", chain_info)
    _write_manifest(out_dir, "sample", args, artifacts, started)
    print(f"retained {report.n_samples} samples, acceptance rate {report.acceptance_rate:.3f}")
    return exit_code


def _read_points(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a points file: their widths, and all their values in one array.

    Blank lines are skipped and line 1 is a header where it does not parse.
    The rows are converted in blocks of about ``BLOCK_FIELDS`` fields, one
    ``float`` pass over each. A block that fails goes through :func:`_row`
    line by line, which raises the first error with its line number, or
    converts the block where only U+001F padding failed it. Raises
    ValueError where no row is found as well.
    """
    data = list(filter(str.strip, lines))
    widths, values = [], []
    start = 1 if lines and lines[0].strip() and _numbers(lines[0]) is None else 0  # past a header
    while start < len(data):
        block = data[start : start + max(1, BLOCK_FIELDS // (data[start].count(",") + 1))]
        width = np.fromiter(map(str.count, block, itertools.repeat(",")), np.intp, len(block)) + 1
        try:
            # one split of the lines joined by commas costs less than a split per line
            value = np.fromiter(map(float, ",".join(block).split(",")), float, int(width.sum()))
            if (width % 2).any() or not np.isfinite(value).all() or _pair_terms_error(int(width.max()) // 2, ""):
                raise ValueError
        except ValueError:
            rows = []
            for k, line in enumerate(block):
                try:
                    rows += _row(line)
                except ValueError as exc:
                    lineno = [n for n, text in enumerate(lines, start=1) if text.strip()][start + k]
                    raise ValueError(f"line {lineno}: {exc}") from None
            value = np.array(rows)
        widths.append(width)
        values.append(value)
        start += len(block)
    if not widths:
        raise ValueError("no data rows found")
    return np.concatenate(widths), np.concatenate(values)


def cmd_density(args, parser: _Parser) -> int:
    w = WeightSpec(gamma=args.gamma)
    try:
        # utf-8-sig strips a byte-order mark, which would make row 1 pass for a header
        with open(args.points, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        print(f"points file not found: {args.points}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"points file cannot be read: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_DATA
    except UnicodeDecodeError as exc:
        print(f"points file is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        widths, values = _read_points(lines)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DATA

    print("log_rho,tau")
    # one kernel call and one write of its lines per run of rows of equal p,
    # each run a slice of the one array of values
    offsets = np.concatenate(([0], np.cumsum(widths))).tolist()
    firsts = np.flatnonzero(np.diff(widths, prepend=0)).tolist()  # the first row of each run
    for first, stop in zip(firsts, firsts[1:] + [len(widths)]):
        terms = _kernel(values[offsets[first] : offsets[stop]].reshape(-1, widths[first] // 2, 2))
        # log_rho at --gamma, tau at gamma = 1, the weight c = 1/2
        lines = zip(_log_rho_of(terms, w).tolist(), _neg_log_of(terms, 0.5).tolist())
        sys.stdout.write("".join(f"{value!r},{t!r}\n" for value, t in lines))
    return EXIT_OK


def cmd_kbound(args, parser: _Parser) -> int:
    k = solve_K_bound(args.p)
    print(f"K={k!r}")
    print(f"lhs={_k_constraint_lhs(k, args.p)!r}")
    return EXIT_OK


@functools.cache  # one build per process: its ~150 argparse calls take about 1 ms
def _build_parser() -> _Parser:
    positive_int, positive_float = _domain(int, positive=True), _domain(float, positive=True)
    parser = _Parser(prog="skewspec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"skewspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pv = sub.add_parser("verify-jacobian", help="compare the numeric Gram determinant to its closed form")
    pv.add_argument("--p", type=positive_int, default=None, help="number of skew-spectrum points")
    pv.add_argument("--trials", type=positive_int, default=None, help=f"random spectra with --p (default {TRIALS})")
    pv.add_argument("--seed", type=_seed, default=None)
    pv.add_argument("--out", required=True, help="output directory")
    pv.add_argument("--spectrum", default=None, help="evaluate one fixed spectrum x1,y1,...")
    pv.set_defaults(func=functools.partial(cmd_verify_jacobian, parser=pv))

    pf = sub.add_parser("fekete", help="compute a maximal-likelihood configuration")
    pf.add_argument("--n", type=positive_int, required=True, help="matrix dimension (even for anti mode)")
    pf.add_argument("--mode", choices=("anti", "commuting"), default="anti")
    pf.add_argument("--gamma", type=positive_float, default=None, help="confinement coefficient (default: 1 anti, 0.5 commuting)")
    pf.add_argument("--restarts", type=positive_int, default=OptimizerConfig.restarts)
    pf.add_argument("--max-iters", type=positive_int, default=OptimizerConfig.max_iters)
    pf.add_argument("--grad-tol", type=_domain(float, positive=False), default=OptimizerConfig.grad_tol)
    pf.add_argument("--seed", type=_seed, default=None)
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=functools.partial(cmd_fekete, parser=pf))

    ps = sub.add_parser("sample", help="run a Metropolis chain over skew spectra")
    ps.add_argument("--p", type=positive_int, required=True)
    ps.add_argument("--gamma", type=positive_float, default=1.0)
    ps.add_argument("--samples", type=positive_int, required=True)
    ps.add_argument("--burnin", type=_domain(int, positive=False), default=None)
    ps.add_argument("--thin", type=positive_int, default=None)
    ps.add_argument("--seed", type=_seed, default=None)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=functools.partial(cmd_sample, parser=ps))

    pd = sub.add_parser("density", help="evaluate log_rho and tau for configurations in a CSV file")
    pd.add_argument("--points", required=True, help="CSV of rows x1,y1,...,xp,yp")
    pd.add_argument("--gamma", type=positive_float, default=1.0, help="weight of log_rho (tau always uses gamma = 1)")
    pd.set_defaults(func=functools.partial(cmd_density, parser=pd))

    pk = sub.add_parser("kbound", help="solve the a-priori length bound for p points")
    pk.add_argument("--p", type=positive_int, required=True)
    pk.set_defaults(func=functools.partial(cmd_kbound, parser=pk))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed") and args.seed is None:
        text = os.environ.get("SKEWSPEC_SEED", "0")
        try:
            args.seed = _seed(text)
        except ValueError:
            parser.error(f"SKEWSPEC_SEED must be a {_seed.__name__}, got {text!r}")
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
