"""Command-line frontend: verification runs, Fekete sets, chains, artifacts.

Exit codes: 0 success, 2 numerical failure, 64 usage error, 65 data format
error. Every artifact-writing command drops a ``manifest.json`` next to its
outputs; re-running with the manifest's seed reproduces the CSV outputs
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .density import WeightSpec, log_rho_and_tau
from .ensemble import SkewSpectrum, random_generic_spectrum
from .fekete import OptimizerConfig, minimize_commuting, minimize_tau, solve_K_bound, spacing_stats
from .fekete import _k_constraint_lhs
from .jacobian import DegenerateJacobian, closed_form_log_gram, verify_density_shape
from .sampler import ks_compare, p1_quadrature_cdf, run_chain

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
EXIT_DATA = 65

KS_THRESHOLD = 0.05
JACOBIAN_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code this tool promises."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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
            "wall_time_seconds": time.perf_counter() - started,
        },
    )


def _svg_scatter(points: np.ndarray, radius: float, mode: str) -> str:
    """800x800 scatter with one reference quarter-arc (anti) or circle (commuting)."""
    size = 800
    extent = 1.2 * radius
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
        f'width="{size}" height="{size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
    ]
    if mode == "anti":
        def to_px(x, y):
            return x / extent * size, size - y / extent * size

        x0, y0 = to_px(radius, 0.0)
        x1, y1 = to_px(0.0, radius)
        rpx = radius / extent * size
        parts.append(
            f'<path class="reference" d="M {x0:.3f} {y0:.3f} A {rpx:.3f} {rpx:.3f} 0 0 0 '
            f'{x1:.3f} {y1:.3f}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
        parts.append(f'<line x1="0" y1="{size}" x2="{size}" y2="{size}" stroke="gray"/>')
        parts.append(f'<line x1="0" y1="0" x2="0" y2="{size}" stroke="gray"/>')
    else:
        def to_px(x, y):
            return (x + extent) / (2 * extent) * size, size - (y + extent) / (2 * extent) * size

        cx, cy = to_px(0.0, 0.0)
        rpx = radius / (2 * extent) * size
        parts.append(
            f'<circle class="reference" cx="{cx:.3f}" cy="{cy:.3f}" r="{rpx:.3f}" '
            f'fill="none" stroke="black" stroke-width="1.5"/>'
        )
        parts.append(f'<line x1="0" y1="{cy:.3f}" x2="{size}" y2="{cy:.3f}" stroke="gray"/>')
        parts.append(f'<line x1="{cx:.3f}" y1="0" x2="{cx:.3f}" y2="{size}" stroke="gray"/>')
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


def _parse_spectrum_flag(text: str, parser: _Parser) -> SkewSpectrum:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"--spectrum must be comma-separated numbers, got {text!r}")
    if len(values) % 2 != 0 or not values:
        parser.error("--spectrum needs an even, positive number of values (x1,y1,...)")
    try:
        return SkewSpectrum(np.array(values).reshape(-1, 2))
    except ValueError as exc:
        parser.error(f"--spectrum is not a valid skew spectrum: {exc}")


def cmd_verify_jacobian(args, parser: _Parser) -> int:
    started = time.perf_counter()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.spectrum is not None:
            s = _parse_spectrum_flag(args.spectrum, parser)
            if args.p is not None and args.p != s.p:
                parser.error(f"--p {args.p} contradicts --spectrum with p = {s.p}")
            shape = verify_density_shape(s)
            log_gram, log_closed = float(shape.log_gram[0]), closed_form_log_gram(s)
            max_rel = abs(float(np.exp(log_gram - log_closed)) - 1.0)
            report = {
                "p": s.p,
                "spectrum": [list(map(float, z)) for z in s.points],
                "gram": _exp_or_none(log_gram),
                "closed_form": _exp_or_none(log_closed),
                "max_rel_err": max_rel,
                "shape_ratio": float(shape.ratios[0]),
                "tolerance": JACOBIAN_TOL,
                "passed": bool(max_rel <= JACOBIAN_TOL),
            }
        else:
            if args.p is None:
                parser.error("--p is required unless --spectrum is given")
            if args.p < 1 or args.trials < 1:
                parser.error("--p and --trials must be >= 1")
            rng = np.random.default_rng(args.seed)
            spectra = [
                random_generic_spectrum(args.p, rng, low=0.1, high=5.0, min_rel_gap=1e-3)
                for _ in range(args.trials)
            ]
            shape = verify_density_shape(spectra)
            rel_errs = [
                abs(float(np.exp(log_gram - closed_form_log_gram(s))) - 1.0)
                for s, log_gram in zip(spectra, shape.log_gram)
            ]
            report = {
                "p": args.p,
                "trials": args.trials,
                "max_rel_err": max(rel_errs),
                "shape_coefficient_of_variation": shape.coefficient_of_variation,
                "tolerance": JACOBIAN_TOL,
                "passed": bool(max(rel_errs) <= JACOBIAN_TOL and shape.passed),
            }
    except DegenerateJacobian as exc:
        payload = {"error": str(exc)}
        if args.spectrum is not None:
            payload["spectrum"] = args.spectrum
        _write_json(out_dir / "report.json", payload)
        _write_manifest(out_dir, "verify-jacobian", args, ["report.json"], started)
        print(f"degenerate Jacobian: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    _write_json(out_dir / "report.json", report)
    _write_manifest(out_dir, "verify-jacobian", args, ["report.json"], started)
    print(f"max relative error {report['max_rel_err']:.3e} (tolerance {JACOBIAN_TOL:.0e})")
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


def cmd_fekete(args, parser: _Parser) -> int:
    started = time.perf_counter()
    if args.n < 1:
        parser.error("--n must be >= 1")
    if args.mode == "anti" and args.n % 2 != 0:
        parser.error("--n must be even in anti mode (n = 2p)")
    if args.restarts < 1:
        parser.error("--restarts must be >= 1")
    gamma = args.gamma if args.gamma is not None else (1.0 if args.mode == "anti" else 0.5)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    config = OptimizerConfig(
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        restarts=args.restarts,
        seed=args.seed,
    )
    if args.mode == "anti":
        result = minimize_tau(args.n // 2, config=config, gamma=gamma)
        points = np.asarray(result.points.points)
        reference_radius = 2.0 * np.sqrt(args.n / gamma)
        stats = {
            "tau_final": result.tau_final,
            "K_bound": result.K_bound,
        }
        value_final = result.tau_final
        grad_norm = result.grad_norm_final
        iterations = result.iterations
        converged = result.converged
    else:
        result = minimize_commuting(args.n, d=2, gamma=gamma, config=config)
        points = result.points
        reference_radius = np.sqrt(args.n / gamma)
        stats = {"tau_final": result.value_final}
        value_final = result.value_final
        grad_norm = result.grad_norm_final
        iterations = result.iterations
        converged = result.converged

    spacing = spacing_stats(points) if points.shape[0] >= 2 else None
    stats.update(
        {
            "mode": args.mode,
            "n": args.n,
            "gamma": gamma,
            "grad_norm": grad_norm,
            "iterations": iterations,
            "converged": converged,
            "nn_mean": spacing.nn_mean if spacing else None,
            "nn_cv": spacing.nn_cv if spacing else None,
            "max_norm": spacing.max_norm if spacing else float(np.linalg.norm(points[0])),
            "reference_radius": float(reference_radius),
        }
    )

    _write_csv(out_dir / "points.csv", ["x", "y"], points)
    _write_json(out_dir / "stats.json", stats)
    with open(out_dir / "figure.svg", "w") as fh:
        fh.write(_svg_scatter(points, float(reference_radius), args.mode))
    _write_manifest(out_dir, "fekete", args, ["points.csv", "stats.json", "figure.svg"], started)
    print(
        f"{args.mode} n={args.n}: objective {value_final:.6f}, "
        f"max norm {stats['max_norm']:.4f}, reference radius {reference_radius:.4f}"
    )
    return EXIT_OK


def cmd_sample(args, parser: _Parser) -> int:
    started = time.perf_counter()
    if args.p < 1:
        parser.error("--p must be >= 1")
    if args.samples < 1:
        parser.error("--samples must be >= 1")
    if args.thin is not None and args.thin < 1:
        parser.error("--thin must be >= 1")
    if args.burnin is not None and args.burnin < 0:
        parser.error("--burnin must be >= 0")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    w = WeightSpec(gamma=args.gamma)
    report = run_chain(args.p, w, args.samples, burn_in=args.burnin, thinning=args.thin, seed=args.seed)

    header = [f"{c}{k}" for k in range(1, args.p + 1) for c in ("x", "y")]
    _write_csv(out_dir / "samples.csv", header, report.samples.reshape(report.n_samples, -1))
    chain_info = {
        "p": args.p,
        "gamma": args.gamma,
        "n_samples": report.n_samples,
        "acceptance_rate": report.acceptance_rate,
        "burn_in": report.burn_in,
        "thinning": report.thinning,
        "seed": report.seed,
        "step_scale": report.step_scale,
    }
    artifacts = ["samples.csv", "chain.json"]

    exit_code = EXIT_OK
    if args.p == 1 and report.n_samples >= 1000:
        table = p1_quadrature_cdf(w)
        ks = ks_compare(report, table)
        passed = ks.x < KS_THRESHOLD and ks.y < KS_THRESHOLD
        _write_json(
            out_dir / "ks.json",
            {
                "statistic_x": ks.x,
                "statistic_y": ks.y,
                "threshold": KS_THRESHOLD,
                "normalization_c1": table.normalization,
                "passed": passed,
            },
        )
        artifacts.append("ks.json")
        chain_info["ks_check"] = "written to ks.json"
        if not passed:
            exit_code = EXIT_NUMERICAL
    elif args.p == 1:
        chain_info["ks_check"] = "skipped (needs >= 1000 retained samples)"

    _write_json(out_dir / "chain.json", chain_info)
    _write_manifest(out_dir, "sample", args, artifacts, started)
    print(f"retained {report.n_samples} samples, acceptance rate {report.acceptance_rate:.3f}")
    return exit_code


def cmd_density(args, parser: _Parser) -> int:
    path = Path(args.points)
    if not path.is_file():
        print(f"points file not found: {path}", file=sys.stderr)
        return EXIT_DATA
    w = WeightSpec(gamma=args.gamma)
    rows = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        tokens = [tok.strip() for tok in line.split(",")]
        try:
            values = [float(tok) for tok in tokens]
        except ValueError:
            if lineno == 1 and not rows:
                continue  # header row
            print(f"line {lineno}: cannot parse {line!r} as numbers", file=sys.stderr)
            return EXIT_DATA
        if len(values) % 2 != 0 or not values:
            print(f"line {lineno}: expected an even number of coordinates", file=sys.stderr)
            return EXIT_DATA
        if not all(np.isfinite(values)):
            print(f"line {lineno}: coordinates must be finite", file=sys.stderr)
            return EXIT_DATA
        rows.append(values)
    if not rows:
        print("no data rows found", file=sys.stderr)
        return EXIT_DATA

    print("log_rho,tau")
    # a log that underflows to -inf raises FloatingPointError in the kernel;
    # numpy's divide warning would only repeat it
    with np.errstate(divide="ignore"):
        for values in rows:
            # log_rho at --gamma, tau at gamma = 1
            value, t = log_rho_and_tau(np.array(values).reshape(-1, 2), w)
            print(f"{_fmt(value)},{_fmt(t)}")
    return EXIT_OK


def cmd_kbound(args, parser: _Parser) -> int:
    if args.p < 1:
        parser.error("--p must be >= 1")
    k = solve_K_bound(args.p)
    print(f"K={_fmt(k)}")
    print(f"lhs={_fmt(_k_constraint_lhs(k, args.p))}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="skewspec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"skewspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pv = sub.add_parser("verify-jacobian", help="compare the numeric Gram determinant to its closed form")
    pv.add_argument("--p", type=int, default=None, help="number of skew-spectrum points")
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--out", required=True, help="output directory")
    pv.add_argument("--spectrum", default=None, help="evaluate one fixed spectrum x1,y1,...")
    pv.set_defaults(func=cmd_verify_jacobian)

    pf = sub.add_parser("fekete", help="compute a maximal-likelihood configuration")
    pf.add_argument("--n", type=int, required=True, help="matrix dimension (even for anti mode)")
    pf.add_argument("--mode", choices=("anti", "commuting"), default="anti")
    pf.add_argument("--gamma", type=float, default=None, help="confinement coefficient (default: 1 anti, 0.5 commuting)")
    pf.add_argument("--restarts", type=int, default=8)
    pf.add_argument("--max-iters", type=int, default=50_000)
    pf.add_argument("--grad-tol", type=float, default=None)
    pf.add_argument("--seed", type=int, default=None)
    pf.add_argument("--out", required=True)
    pf.set_defaults(func=cmd_fekete)

    ps = sub.add_parser("sample", help="run a Metropolis chain over skew spectra")
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--gamma", type=float, default=1.0)
    ps.add_argument("--samples", type=int, required=True)
    ps.add_argument("--burnin", type=int, default=None)
    ps.add_argument("--thin", type=int, default=None)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_sample)

    pd = sub.add_parser("density", help="evaluate log_rho and tau for configurations in a CSV file")
    pd.add_argument("--points", required=True, help="CSV of rows x1,y1,...,xp,yp")
    pd.add_argument("--gamma", type=float, default=1.0, help="weight of log_rho (tau always uses gamma = 1)")
    pd.set_defaults(func=cmd_density)

    pk = sub.add_parser("kbound", help="solve the a-priori length bound for p points")
    pk.add_argument("--p", type=int, required=True)
    pk.set_defaults(func=cmd_kbound)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed") and args.seed is None:
        text = os.environ.get("SKEWSPEC_SEED", "0")
        try:
            args.seed = int(text)
        except ValueError:
            parser.error(f"SKEWSPEC_SEED must be an integer, got {text!r}")
    if getattr(args, "gamma", 1.0) is not None and getattr(args, "gamma", 1.0) <= 0:
        parser.error("--gamma must be positive")
    try:
        return args.func(args, parser)
    except BrokenPipeError:
        return EXIT_OK
    except FloatingPointError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
