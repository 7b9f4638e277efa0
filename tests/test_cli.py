import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewspec
from skewspec.cli import BLOCK_FIELDS, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, MAX_PAIR_TERMS, main
from skewspec.cli import _pair_terms_error
from skewspec.density import WeightSpec, _kernel, _log_rho_of, _neg_log_of, stack_size


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_jacobian_trials_default_is_recorded(tmp_path):
    # a --p run without --trials draws 100 spectra, and both files say so
    out = tmp_path / "vj"
    assert run_cli("verify-jacobian", "--p", "1", "--seed", "1", "--out", str(out)) == EXIT_OK
    assert read_json(out / "report.json")["trials"] == 100
    assert read_json(out / "manifest.json")["parameters"]["trials"] == 100


def test_verify_jacobian_random_trials(tmp_path):
    out = tmp_path / "vj"
    assert run_cli("verify-jacobian", "--p", "2", "--trials", "50", "--seed", "3", "--out", str(out)) == EXIT_OK
    report = read_json(out / "report.json")
    assert report["passed"] and report["max_rel_err"] <= 1e-8
    assert report["trials"] == 50
    manifest = read_json(out / "manifest.json")
    assert "report.json" in manifest["artifacts"]
    assert manifest["seed"] == 3
    env = manifest["environment"]
    assert env["numpy"] == np.__version__ and env["cpu_count"] == os.cpu_count()
    assert set(env["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}


def test_verify_jacobian_pinned_spectrum(tmp_path):
    out = tmp_path / "vj1"
    assert run_cli("verify-jacobian", "--spectrum", "1,1", "--out", str(out)) == EXIT_OK
    report = read_json(out / "report.json")
    assert report["gram"] == pytest.approx(512.0, rel=1e-10)
    assert report["shape_ratio"] == pytest.approx(16.0, rel=1e-9)


def test_verify_jacobian_shape_ratio_away_from_unit_scale(tmp_path):
    # the ratio is 16^p at any scale the rank test passes
    out = tmp_path / "vj3"
    assert run_cli("verify-jacobian", "--spectrum", "1e9,2e9,3e9,1e9,2.5e9,4e9", "--out", str(out)) == EXIT_OK
    assert read_json(out / "report.json")["shape_ratio"] == pytest.approx(4096.0, rel=1e-9)


def test_verify_jacobian_pinned_spectrum_beyond_double_range(tmp_path):
    # p = 8: the Gram determinant exceeds the double range, its log does not
    out = tmp_path / "vj8"
    assert run_cli("verify-jacobian", "--spectrum", SPECTRUM_P8, "--out", str(out)) == EXIT_OK

    def reject(token):
        raise ValueError(f"report.json is not strict JSON: {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["passed"] and report["max_rel_err"] <= 1e-8
    assert report["gram"] is None and report["closed_form"] is None


def test_verify_jacobian_evaluates_blocks_once(tmp_path, monkeypatch):
    import skewspec.jacobian

    calls = {"assemble_dG": 0, "_block_singular_values": 0}

    def counting(name):
        fn = getattr(skewspec.jacobian, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(skewspec.jacobian, name, counting(name))
    out = tmp_path / "vj"
    assert run_cli("verify-jacobian", "--p", "2", "--trials", "5", "--seed", "1", "--out", str(out)) == EXIT_OK
    # no dense dG: one batched block evaluation covers all five spectra
    assert calls == {"assemble_dG": 0, "_block_singular_values": 1}


def test_verify_jacobian_large_p(tmp_path):
    # the dense dG at p = 60 needs a 3 GiB generator array; its blocks do not
    out = tmp_path / "vj60"
    assert run_cli("verify-jacobian", "--p", "60", "--trials", "1", "--seed", "1", "--out", str(out)) == EXIT_OK
    report = read_json(out / "report.json")
    assert report["passed"] and report["max_rel_err"] <= 1e-8


def test_verify_jacobian_p100_plain_draw(tmp_path):
    # each trial is a plain uniform draw, so p = 100 has no draw to run out of
    out = tmp_path / "vj100"
    assert run_cli("verify-jacobian", "--p", "100", "--trials", "1", "--seed", "1", "--out", str(out)) == EXIT_OK
    report = read_json(out / "report.json")
    assert report["passed"] and report["max_rel_err"] <= 1e-8


def test_verify_jacobian_beyond_the_column_limit_exits_usage(tmp_path, capsys):
    # trials * (4p^2 + p) dG columns: 1 503 689 and 1 503 840, past the limit of 1.5e6
    for p, trials in ((613, 1), (60, 104)):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify-jacobian", "--p", str(p), "--trials", str(trials), "--out", str(tmp_path / "out"))
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert f"--p {p} --trials {trials}" in last and "limit of 1500000 dG columns" in last
        assert not (tmp_path / "out").exists()


def test_verify_jacobian_shape_ratio_beyond_double_range(tmp_path, monkeypatch):
    # from p = 256 the shape ratio, about 16^p, exceeds the double range; the
    # Gram determinant is replaced by its closed form to keep the test fast
    import skewspec.jacobian

    def closed_forms(spectra):
        return np.array([skewspec.jacobian.closed_form_log_gram(s) for s in spectra])

    monkeypatch.setattr(skewspec.jacobian, "gram_log_determinants", closed_forms)
    points = np.random.default_rng(5).uniform(0.1, 5.0, (300, 2))
    out = tmp_path / "vj300"
    spectrum = ",".join(map(repr, points.ravel().tolist()))
    assert run_cli("verify-jacobian", "--spectrum", spectrum, "--out", str(out)) == EXIT_OK

    def reject(token):
        raise ValueError(f"report.json is not strict JSON: {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["passed"] and report["shape_ratio"] is None


SPECTRUM_P8 = "1,8.5,2,7.5,3,6.5,4,5.5,5,4.5,6,3.5,7,2.5,8,1.5"
REPORT_KEYS = {"p", "max_rel_err", "tolerance", "passed"}
STATS_KEYS = {
    "tau_final", "mode", "n", "gamma", "grad_norm", "iterations", "converged",
    "nn_mean", "nn_cv", "max_norm", "reference_radius",
}


@pytest.mark.parametrize(
    "argv, artifact, keys",
    [
        (
            ("verify-jacobian", "--p", "1", "--trials", "2", "--seed", "1"),
            "report.json",
            REPORT_KEYS | {"trials", "shape_coefficient_of_variation"},
        ),
        (
            ("verify-jacobian", "--spectrum", "1,1"),
            "report.json",
            REPORT_KEYS | {"spectrum", "gram", "closed_form", "shape_ratio"},
        ),
        (
            ("verify-jacobian", "--spectrum", SPECTRUM_P8),
            "report.json",
            REPORT_KEYS | {"spectrum", "gram", "closed_form", "shape_ratio"},
        ),
        (("verify-jacobian", "--spectrum", "1,2,1,2"), "report.json", {"error", "spectrum"}),
        (("fekete", "--n", "2", "--restarts", "1", "--grad-tol", "1e-4"), "stats.json", STATS_KEYS | {"K_bound"}),
        (
            ("fekete", "--n", "2", "--mode", "commuting", "--restarts", "1", "--grad-tol", "1e-4"),
            "stats.json",
            STATS_KEYS,
        ),
    ],
    ids=["trials", "spectrum", "spectrum-p8", "degenerate", "anti", "commuting"],
)
def test_report_key_sets(tmp_path, argv, artifact, keys):
    # one report path per command: each shape writes exactly these keys
    run_cli(*argv, "--out", str(tmp_path))
    report = read_json(tmp_path / artifact)
    assert set(report) == keys
    if argv[-1] == SPECTRUM_P8:
        assert report["gram"] is None and report["closed_form"] is None


def test_verify_jacobian_degenerate_spectrum(tmp_path):
    # coincident points: dG fails the rank test
    out = tmp_path / "vjdeg"
    assert run_cli("verify-jacobian", "--spectrum", "1,2,1,2", "--out", str(out)) == EXIT_NUMERICAL
    report = read_json(out / "report.json")
    assert "error" in report and report["spectrum"] == "1,2,1,2"


# --spectrum values the row grammar or the skew spectrum rejects, with the
# error line of each
SPECTRUM_ERRORS = {
    "abc": "cannot parse 'abc' as numbers",
    "1": "expected an even number of coordinates",
    "1,,1": "cannot parse '1,,1' as numbers",
    "1,1,": "cannot parse '1,1,' as numbers",
    "nan,1": "coordinates must be finite",
    "0,1": "skew spectrum coordinates must be strictly positive",
    "": "cannot parse '' as numbers",
}


@pytest.mark.parametrize("value", SPECTRUM_ERRORS, ids=lambda value: value or "empty")
def test_verify_jacobian_spectrum_follows_the_row_grammar(tmp_path, capsys, value):
    # --spectrum reads a `density` row: an empty field is an error, not a dropped value
    out = tmp_path / "vj"
    with pytest.raises(SystemExit) as exc:
        run_cli("verify-jacobian", "--spectrum", value, "--out", str(out))
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error:") == 1
    assert err.splitlines()[-1] == f"skewspec: error: --spectrum: {SPECTRUM_ERRORS[value]}"
    assert not out.exists()


def test_verify_jacobian_spectrum_strips_its_fields_as_density_does(tmp_path):
    # str.strip removes U+001F around a field, float alone does not
    out = tmp_path / "vj"
    assert run_cli("verify-jacobian", "--spectrum", "\x1f1, 1\x1f", "--out", str(out)) == EXIT_OK
    assert read_json(out / "report.json")["spectrum"] == [[1.0, 1.0]]


@pytest.mark.parametrize("p, limit", [(613, "limit of 1500000 dG columns"), (2897, "limit of 4194304 pair terms")])
def test_verify_jacobian_spectrum_beyond_a_size_limit_exits_usage(tmp_path, capsys, p, limit):
    # p = 613 needs 4p^2 + p = 1 503 689 dG columns, as --p 613 does; p = 2897
    # points also have more pair terms than a row may
    out = tmp_path / "vj"
    with pytest.raises(SystemExit) as exc:
        run_cli("verify-jacobian", "--spectrum", ",".join(["1"] * (2 * p)), "--out", str(out))
    assert exc.value.code == EXIT_USAGE
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"{p} points" in last or f"p = {p}" in last
    assert limit in last and not out.exists()


def test_fekete_anti_outputs(tmp_path):
    out = tmp_path / "fk"
    code = run_cli(
        "fekete", "--n", "8", "--restarts", "2", "--grad-tol", "1e-4",
        "--seed", "9", "--out", str(out),
    )
    assert code == EXIT_OK
    stats = read_json(out / "stats.json")
    assert stats["mode"] == "anti" and stats["n"] == 8
    assert stats["reference_radius"] == pytest.approx(2 * math.sqrt(8))
    assert stats["max_norm"] <= stats["K_bound"]

    with open(out / "points.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "x,y" and len(lines) == 5  # header + p = 4 points

    # the best restart's descent, from its start to the returned point
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,objective,max_norm"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert float(rows[-1][1]) == stats["tau_final"]
    assert float(rows[-1][2]) == stats["max_norm"]
    assert "trace.csv" in read_json(out / "manifest.json")["artifacts"]

    root = ET.parse(out / "figure.svg").getroot()
    points = [e for e in root.iter() if e.get("class") == "point"]
    refs = [e for e in root.iter() if e.get("class") == "reference"]
    assert len(points) == 4 and len(refs) == 1
    assert refs[0].tag.endswith("path")  # quarter-circle arc


def test_fekete_small_gamma_converges(tmp_path):
    # --max-iters bounds the run where the solve does not converge
    argv = ["fekete", "--n", "20", "--gamma", "0.01", "--restarts", "1", "--max-iters", "500"]
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
    stats = read_json(tmp_path / "stats.json")
    assert stats["converged"]
    assert stats["max_norm"] <= stats["K_bound"]


@pytest.mark.parametrize("mode", ["anti", "commuting"])
def test_fekete_default_grad_tol_scales_with_gamma(tmp_path, mode):
    # the default tolerance is 1e-6 per point times sqrt(gamma / default
    # gamma): a large gamma converges without a hand-scaled --grad-tol, and
    # a tiny gamma, whose gradients are below 1e-6 per point long before the
    # optimum, is not declared converged until it reaches the optimum radius
    argv = ["fekete", "--n", "50", "--mode", mode, "--restarts", "2", "--seed", "1"]
    assert run_cli(*argv, "--gamma", "1e8", "--out", str(tmp_path / "large")) == EXIT_OK
    assert read_json(tmp_path / "large" / "stats.json")["converged"]
    assert run_cli(*argv, "--gamma", "1e-30", "--out", str(tmp_path / "small")) == EXIT_OK
    small = read_json(tmp_path / "small" / "stats.json")
    assert small["converged"] and small["max_norm"] >= 0.5 * small["reference_radius"]


def test_fekete_rerun_is_byte_identical(tmp_path):
    args = ["fekete", "--n", "6", "--restarts", "2", "--grad-tol", "1e-4", "--seed", "5"]
    assert run_cli(*args, "--out", str(tmp_path / "a")) == EXIT_OK
    assert run_cli(*args, "--out", str(tmp_path / "b")) == EXIT_OK
    assert (tmp_path / "a" / "points.csv").read_bytes() == (tmp_path / "b" / "points.csv").read_bytes()


def test_fekete_commuting_fails_loudly_where_its_terms_overflow(tmp_path, capsys):
    # the first steps from the start grid reach coordinates whose weight
    # overflows, and at gamma = 1e250 whose squared gaps overflow too: a
    # numerical failure, not a silent stop
    for gamma in ("1e150", "1e250"):
        argv = ["fekete", "--n", "40", "--mode", "commuting", "--restarts", "1", "--gamma", gamma]
        assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("mode", ["anti", "commuting"])
@pytest.mark.parametrize("restarts", ["1", "2"])
def test_fekete_whose_start_weight_overflows_exits_numerical(tmp_path, capsys, mode, restarts):
    # at gamma = 1e306 the weight of every start overflows, so no restart
    # has a finite objective: one failure line, no traceback, no warning
    argv = ["fekete", "--n", "50", "--mode", mode, "--gamma", "1e306", "--restarts", restarts]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1


def test_fekete_commuting_single_point_reports_positive_zero(tmp_path, capsys):
    # one point at the origin, where log kappa is 0: its negation is 0.0, not -0.0
    assert run_cli("fekete", "--n", "1", "--mode", "commuting", "--out", str(tmp_path)) == EXIT_OK
    assert "objective 0.000000," in capsys.readouterr().out
    tau = read_json(tmp_path / "stats.json")["tau_final"]
    assert tau == 0.0 and math.copysign(1.0, tau) == 1.0
    assert (tmp_path / "trace.csv").read_text().splitlines()[1] == "0,0.0,0.0"


@pytest.mark.parametrize("mode", ["anti", "commuting"])
def test_fekete_summary_line_stays_short_at_a_tiny_gamma(tmp_path, capsys, mode):
    # at gamma = 1e-300 the norms are near 1e150: printed to 6 significant
    # digits, not as 150-digit fixed-point numbers
    argv = ["fekete", "--n", "50", "--mode", mode, "--gamma", "1e-300", "--restarts", "1"]
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_OK
    line = capsys.readouterr().out.strip()
    stats = read_json(tmp_path / "stats.json")
    assert len(line) < 100
    assert f"max norm {stats['max_norm']:.6g}, reference radius {stats['reference_radius']:.6g}" in line


@pytest.mark.parametrize("mode, n", [("anti", 5794), ("commuting", 2897)])
def test_fekete_beyond_the_pair_term_limit_exits_usage(tmp_path, capsys, mode, n):
    # 2897 points, one past the limit, in either mode: exit 64 before any start is built
    out = tmp_path / "big"
    with pytest.raises(SystemExit) as exc:
        run_cli("fekete", "--n", str(n), "--mode", mode, "--out", str(out))
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    last = err.splitlines()[-1]
    assert "Traceback" not in err and f"--n {n} (2897 points" in last and "limit of 4194304 pair terms" in last
    assert not out.exists()


def test_fekete_commuting_outputs(tmp_path):
    out = tmp_path / "fkc"
    code = run_cli(
        "fekete", "--n", "4", "--mode", "commuting", "--restarts", "2",
        "--grad-tol", "1e-6", "--seed", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    stats = read_json(out / "stats.json")
    assert stats["gamma"] == 0.5  # commuting default
    assert stats["reference_radius"] == pytest.approx(math.sqrt(8.0))
    root = ET.parse(out / "figure.svg").getroot()
    refs = [e for e in root.iter() if e.get("class") == "reference"]
    assert len(refs) == 1 and refs[0].tag.endswith("circle")


def test_sample_p1_with_ks(tmp_path):
    out = tmp_path / "smp"
    code = run_cli(
        "sample", "--p", "1", "--gamma", "0.5", "--samples", "1500",
        "--burnin", "3000", "--thin", "5", "--seed", "4", "--out", str(out),
    )
    assert code == EXIT_OK
    ks = read_json(out / "ks.json")
    assert ks["passed"] and ks["statistic_x"] < 0.05 and ks["statistic_y"] < 0.05
    # the log of the exact normalization of the p = 1 integrand at gamma = 1/2
    assert ks["log_normalization_c1"] == math.log(16.0 / (3.0 * math.sqrt(math.pi))) + 2.5 * math.log(0.5)
    chain = read_json(out / "chain.json")
    assert chain["n_samples"] == 1500
    assert 0.0 < chain["acceptance_rate"] < 1.0
    # 64 chains of 23 whole retentions: split R-hat of each statistic is recorded
    assert sorted(chain["split_rhat"]) == ["R", "least_x", "max_norm"]
    assert all(isinstance(value, float) and value > 0.0 for value in chain["split_rhat"].values())


@pytest.mark.parametrize("gamma", ["1e123", "1e124", "1e300"])
def test_sample_p1_far_from_unit_gamma_fails_with_strict_json(tmp_path, gamma):
    # the chain does not reach the target's scale, so KS fails; the
    # normalization is carried as its log, which stays finite where
    # gamma^(5/2) overflows
    out = tmp_path / "smp"
    argv = ["sample", "--p", "1", "--gamma", gamma, "--samples", "1000", "--seed", "1", "--out", str(out)]
    assert run_cli(*argv) == EXIT_NUMERICAL

    def reject(constant):
        raise ValueError(f"{constant} is not standard JSON")

    for name in ("ks.json", "chain.json", "manifest.json"):
        with open(out / name) as fh:
            json.load(fh, parse_constant=reject)
    ks = read_json(out / "ks.json")
    assert not ks["passed"]
    assert ks["log_normalization_c1"] == math.log(16.0 / (3.0 * math.sqrt(math.pi))) + 2.5 * math.log(float(gamma))


def test_sample_whose_proposal_weight_overflows_exits_numerical(tmp_path, capsys):
    # at gamma = 5e307 the weight of the p = 1 grid start is finite and that
    # of a proposal past |z|^2 = 3.6 is not: one failure line, no warning
    argv = ["sample", "--p", "1", "--gamma", "5e307", "--samples", "10", "--out", str(tmp_path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(*argv) == EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1


def test_sample_p3_schema(tmp_path):
    out = tmp_path / "smp3"
    code = run_cli(
        "sample", "--p", "3", "--samples", "20", "--burnin", "200",
        "--thin", "2", "--seed", "6", "--out", str(out),
    )
    assert code == EXIT_OK
    with open(out / "samples.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "x1,y1,x2,y2,x3,y3"
    assert len(lines) == 21
    assert all(len(line.split(",")) == 6 for line in lines[1:])
    assert not (out / "ks.json").exists()
    # 20 chains, one kernel call per step: 10 burn-in steps, which make one
    # adaptation window of 200 pooled transitions, then one retention 2 steps on
    chain = read_json(out / "chain.json")
    assert (chain["chains"], chain["kernel_calls"], chain["transitions"]) == (20, 12, 240)
    [(transitions, rate, scale)] = chain["adaptation"]
    assert transitions == 200 and 0.0 <= rate <= 1.0 and scale == chain["step_scale"]
    assert 0.0 < chain["radial_ks"] < 1.0


def test_sample_p1_schema(tmp_path):
    # 20 chains as at p = 3; one retention per chain leaves split R-hat undefined
    out = tmp_path / "smp1"
    code = run_cli(
        "sample", "--p", "1", "--samples", "20", "--burnin", "200",
        "--thin", "2", "--seed", "6", "--out", str(out),
    )
    assert code == EXIT_OK
    with open(out / "samples.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "x1,y1"
    assert len(lines) == 21
    assert all(len(line.split(",")) == 2 for line in lines[1:])
    assert not (out / "ks.json").exists()
    chain = read_json(out / "chain.json")
    assert (chain["chains"], chain["kernel_calls"], chain["transitions"]) == (20, 12, 240)
    assert chain["split_rhat"] == {"R": None, "least_x": None, "max_norm": None}
    assert chain["ks_check"].startswith("skipped")
    [(step, rate, scale)] = chain["adaptation"]
    assert step == 200 and 0.0 <= rate <= 1.0 and scale == chain["step_scale"]


def test_density_rows(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    csv.write_text("1,1\n0,1\n2,3\n")
    assert run_cli("density", "--points", str(csv), "--gamma", "1") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "log_rho,tau"
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(-2.0 + 0.5 * math.log(2.0))
    assert float(first[1]) == pytest.approx(1.0 - 0.5 * math.log(2.0))
    assert lines[2] == "-inf,inf"
    third = lines[3].split(",")
    assert float(third[1]) == pytest.approx(6.5 - math.log(6.0 * math.sqrt(13.0)))


def test_density_accepts_header_row(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    csv.write_text("x1,y1\n1,1\n")
    assert run_cli("density", "--points", str(csv)) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 2

    # a byte-order mark does not turn the first data row into a header
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf1,1\n2,3\n")
    assert run_cli("density", "--points", str(bom)) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_density_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,1\nabc,1\n")
    assert run_cli("density", "--points", str(bad)) == EXIT_DATA
    assert "line 2" in capsys.readouterr().err

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run_cli("density", "--points", str(empty)) == EXIT_DATA

    odd = tmp_path / "odd.csv"
    odd.write_text("1,2,3\n")
    assert run_cli("density", "--points", str(odd)) == EXIT_DATA

    assert run_cli("density", "--points", str(tmp_path / "missing.csv")) == EXIT_DATA

    capsys.readouterr()
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"1,1\n\xff,2\n")
    assert run_cli("density", "--points", str(binary)) == EXIT_DATA
    err = capsys.readouterr().err
    assert "UTF-8" in err and len(err.splitlines()) == 1


def test_density_row_beyond_the_pair_term_limit_exits_data(tmp_path, capsys):
    # 2896 points are within the limit, 2897 are not: a row of 2897 points
    # after a header and a blank line exits 65 naming its line, before the
    # kernel sees any row
    assert MAX_PAIR_TERMS == 1 << 22 and not _pair_terms_error(2896, "") and _pair_terms_error(2897, "")
    csv = tmp_path / "pts.csv"
    csv.write_text("x1,y1\n1,2\n\n" + ",".join(map(str, range(1, 2 * 2897 + 1))) + "\n")
    assert run_cli("density", "--points", str(csv)) == EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "line 4: a row of 2897 points exceeds the limit of 4194304 pair terms, p(p - 1)/2, about 180 B of memory each\n"
    )


def test_density_points_that_cannot_be_read_exit_data(tmp_path, capsys):
    # a directory, and /proc/self/mem where it exists, whose read fails with
    # EIO: one line and exit 65 each, where the first was "not found"
    paths = [tmp_path, Path("/proc/self/mem")]
    for path in filter(Path.exists, paths):
        assert run_cli("density", "--points", str(path)) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("points file cannot be read: ") and len(err.splitlines()) == 1


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_density_reads_points_that_are_not_regular_files(capsys):
    # /dev/null reads as an empty file, and a pipe, as `<(printf '1,2\n')`
    # gives, as the rows written to it
    assert run_cli("density", "--points", os.devnull) == EXIT_DATA
    assert capsys.readouterr().err == "no data rows found\n"
    read, write = os.pipe()
    os.write(write, b"1,2\n")
    os.close(write)
    try:
        assert run_cli("density", "--points", f"/dev/fd/{read}") == EXIT_OK
    finally:
        os.close(read)
    assert capsys.readouterr().out.splitlines()[0] == "log_rho,tau"


def test_density_underflow_exits_numerical(tmp_path, capsys):
    # a p = 2 row whose pair factor underflows, and a p = 1 row whose |z|^2
    # does; stderr holds the one failure line and numpy warns of nothing
    tiny = tmp_path / "tiny.csv"
    for row in ("1e-170,2e-170,3e-170,1.5e-170", "1e-170,1e-170"):
        tiny.write_text(row + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("density", "--points", str(tiny)) == EXIT_NUMERICAL
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and len(err.splitlines()) == 1


def test_density_rows_spanning_several_kernel_passes(tmp_path, capsys):
    # a run of rows past one pass of the kernel goes through it in passes:
    # p = 1 and p = 3 runs of three passes each, a vanishing row inside the
    # first, then a p = 10 run of two; every line is what a kernel call on
    # its row alone gives
    rng = np.random.default_rng(12)
    size = stack_size(1)
    p1 = (0.1 + 3.0 * rng.random((2 * size + 5, 2))).tolist()
    p1[size + 1] = [0.0, 1.0]
    p3 = (0.1 + 3.0 * rng.random((2 * stack_size(3) + 7, 6))).tolist()
    p10 = (0.1 + 3.0 * rng.random((stack_size(10) + 3, 20))).tolist()
    rows = p1 + p3 + p10
    # a header and blank lines, which the runs sliced from the values skip
    text = [",".join(map(repr, row)) + "\n" for row in rows]
    text[len(p1) + 1] += "\n  \n"
    text[-2] += "\t\n"
    csv = tmp_path / "pts.csv"
    csv.write_text("x1,y1\n" + "".join(text))
    assert run_cli("density", "--points", str(csv), "--gamma", "2") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    expected = []
    for row in rows:
        terms = _kernel(np.array(row).reshape(1, -1, 2))
        expected.append(f"{float(_log_rho_of(terms, WeightSpec(2.0))[0])!r},{float(_neg_log_of(terms, 0.5)[0])!r}")
    assert lines == ["log_rho,tau", *expected]
    assert lines[size + 2] == "-inf,inf"


def test_density_prints_no_line_of_a_run_that_cannot_be_represented(tmp_path, capsys):
    # a p = 1 run, then a p = 2 run of one good row and one row of distinct
    # points near 1e-170: the p = 1 lines are printed, the p = 2 run's are not
    good = tmp_path / "good.csv"
    good.write_text("1,1\n2,3\n")
    assert run_cli("density", "--points", str(good)) == EXIT_OK
    expected = capsys.readouterr().out
    csv = tmp_path / "pts.csv"
    csv.write_text("1,1\n2,3\n1,2,3,1.5\n1e-170,2e-170,3e-170,1.5e-170\n")
    assert run_cli("density", "--points", str(csv)) == EXIT_NUMERICAL
    out, err = capsys.readouterr()
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
    assert out == expected and len(out.splitlines()) == 3


def test_density_whose_weight_overflows_exits_numerical(tmp_path, capsys):
    # at gamma = 1e308 the weight of rows that do not vanish overflows, so
    # log_rho cannot be represented: no line of the run, one failure line
    csv = tmp_path / "pts.csv"
    csv.write_text("1,2\n0.5,0.7\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("density", "--points", str(csv), "--gamma", "1e308") == EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert out == "log_rho,tau\n"
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
    # a vanishing row still prints -inf at that gamma
    csv.write_text("0,1\n")
    assert run_cli("density", "--points", str(csv), "--gamma", "1e308") == EXIT_OK
    assert capsys.readouterr().out == "log_rho,tau\n-inf,inf\n"


def test_density_tau_column_ignores_gamma(tmp_path, capsys):
    # log_rho is taken at --gamma, tau always at gamma = 1
    csv = tmp_path / "pts.csv"
    csv.write_text("1,1\n2,3,0.5,1.5\n")
    columns = {}
    for gamma in ("0.5", "2"):
        assert run_cli("density", "--points", str(csv), "--gamma", gamma) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "log_rho,tau"
        columns[gamma] = list(zip(*(line.split(",") for line in lines[1:])))
    assert columns["0.5"][1] == columns["2"][1]
    assert all(a != b for a, b in zip(columns["0.5"][0], columns["2"][0]))
    with pytest.raises(SystemExit):
        run_cli("density", "--help")
    assert "tau always uses gamma = 1" in " ".join(capsys.readouterr().out.split())


def reference_density(path, gamma):
    """(exit code, stdout, stderr) of `density` as a per-line reader gives them.

    The loop is the one `density` ran before it converted its rows in
    blocks, kept here verbatim as the reference for its grammar and its
    diagnostics. It covers files whose rows are all representable.
    """
    w = WeightSpec(gamma=gamma)
    rows = []
    with open(path, encoding="utf-8-sig") as fh:
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
            return EXIT_DATA, "", f"line {lineno}: cannot parse {line!r} as numbers\n"
        if len(values) % 2 != 0 or not values:
            return EXIT_DATA, "", f"line {lineno}: expected an even number of coordinates\n"
        if not all(map(math.isfinite, values)):
            return EXIT_DATA, "", f"line {lineno}: coordinates must be finite\n"
        rows.append(values)
    if not rows:
        return EXIT_DATA, "", "no data rows found\n"
    out = ["log_rho,tau\n"]
    for length, run in itertools.groupby(rows, key=len):
        terms = _kernel(np.array(list(run)).reshape(-1, length // 2, 2))
        lines = zip(_log_rho_of(terms, w).tolist(), _neg_log_of(terms, 0.5).tolist())
        out.append("".join(f"{value!r},{t!r}\n" for value, t in lines))
    return EXIT_OK, "".join(out), ""


def assert_density_matches_reference(path, gamma="0.5"):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli("density", "--points", str(path), "--gamma", gamma)
    assert (code, out.getvalue(), err.getvalue()) == reference_density(path, float(gamma))
    return code, out.getvalue(), err.getvalue()


# rows of p = 1 that fill one block of the bulk reader
BLOCK_ROWS = BLOCK_FIELDS // 2
BLOCK_TEXT = "".join(f"{1 + k % 7}.25,{2 + k % 5}.5\n" for k in range(BLOCK_ROWS))

DENSITY_FILES = {
    "header": "x1,y1\n1,2\n3,4\n",
    "header-after-blank-line": "\nx1,y1\n1,2\n",
    "header-after-whitespace-line": " \t\nx1,y1\n1,2\n",
    "bom-before-row": "\ufeff1,2\n3,4\n",
    "bom-before-header": "\ufeffx,y\n1,2\n",
    "whitespace-only-lines": "1,2\n   \n\t\n\n3,4\n\u00a0\u2003\n",
    "crlf-and-cr-lines": "x,y\r\n1,2\r\n3,4\r5,6\x0c7,8\x1c1,1\n",
    "padded-fields": " 1 ,\t2\u00a0,\u20033, 4\n",
    "unit-separator-padding": "\x1f1,2\x1f\n3,\x1f4\n",
    "unit-separator-padding-on-the-last-line": "1,2\n\x1f3,4\n",
    "underscored-literals": "1_0,2_5\n1_000.5,3e0_1\n",
    "unicode-digits": "\u0661,\u0662\n\uff11.\uff15,\u0968\n",
    "mixed-widths": "1,2\n1,2,3,4\n5,6\n7,8\n0.5,1.5,2.5,3.5,4.5,5.5\n",
    "nan-row": "1,2\nnan,1\n",
    "inf-row": "1,inf\n",
    "nan-on-line-1": "nan,1\n2,3\n",
    "negative-infinity-literal": "1,2\n-Infinity,3\n",
    "vanishing-rows": "0,1\n1,2\n1,2,1,2\n",
    "odd-width": "1,2,3\n",
    "odd-width-after-rows": "1,2\n3,4\n5\n",
    "trailing-comma-on-line-1": "1,2,\n",
    "trailing-comma": "1,2\n3,4,\n",
    "empty-field": "1,,2,3\n1,2\n4,,5,6\n",
    "unparsable": "1,1\nabc,1\n",
    "empty-file": "",
    "header-only": "x1,y1\n",
    "blank-lines-only": "\n \n\t\n",
    "non-finite-before-unparsable": "1,2\ninf,1\nabc,1\n",
    "odd-before-non-finite": "1,2\n1,2,3\ninf,1\n",
    "odd-and-non-finite-on-one-line": "1,2\n1,nan,3\n",
    "unparsable-and-odd-on-one-line": "1,2\n1,abc,3\n",
    "unparsable-before-odd": "1,2\nabc\n1,2,3\n",
    "across-a-block": "x,y\n" + BLOCK_TEXT + "\n1,2,3,4\n5,6\n",
    "unit-separator-in-the-second-block": BLOCK_TEXT + "\x1f1,2\n3,4\n",
    "unparsable-in-the-second-block": BLOCK_TEXT + "1,2\n1,x\n",
    "odd-in-the-second-block": "\n" + BLOCK_TEXT + "1,2\n1,2,3\n",
    "non-finite-in-the-second-block": BLOCK_TEXT + "1,2\n \n1,nan\n",
    # a block of BLOCK_FIELDS // 128 lines, sized by its p = 64 first row
    "wide-row-first-in-a-block": ",".join(f"{1 + k / 128}" for k in range(128)) + "\n1,2" * BLOCK_FIELDS + "\n1,2,3\n",
}


@pytest.mark.parametrize("name", DENSITY_FILES)
def test_density_reader_matches_a_per_line_reader(tmp_path, name):
    # the bulk reader gives the exit code, the stdout bytes and the
    # diagnostic of the per-line reader on every file of the table
    csv = tmp_path / "pts.csv"
    csv.write_text(DENSITY_FILES[name], encoding="utf-8", newline="")
    code, out, err = assert_density_matches_reference(csv)
    assert len(err.splitlines()) == (code != EXIT_OK)


FIELDS = st.sampled_from(["1", "2.5", " 3 ", "0", "-1", "nan", "inf", "abc", "", "1_0", "\x1f4", "\u00a05", "\u0663"])


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(FIELDS, min_size=1, max_size=5), max_size=8), blank=st.lists(st.integers(0, 8), max_size=3))
def test_density_reader_matches_a_per_line_reader_on_random_files(tmp_path_factory, rows, blank):
    lines = [",".join(row) for row in rows]
    for k in blank:
        lines.insert(min(k, len(lines)), " ")
    csv = tmp_path_factory.mktemp("fuzz") / "pts.csv"
    csv.write_text("\n".join(lines), encoding="utf-8", newline="")
    assert_density_matches_reference(csv)


def test_kbound_output(capsys):
    assert run_cli("kbound", "--p", "1") == EXIT_OK
    out = capsys.readouterr().out
    k = float(out.splitlines()[0].split("=")[1])
    lhs = float(out.splitlines()[1].split("=")[1])
    assert 6.0 < k < 6.5
    assert lhs > 0

    assert run_cli("kbound", "--p", "10") == EXIT_OK
    k10 = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
    assert k10 >= 30.0


def test_kbound_prints_the_bisected_constraint(capsys):
    # the printed lhs is the constraint the bisection tested, not a re-typed
    # copy; p = 43 is where the two rounded differently
    from skewspec.fekete import _k_constraint_lhs

    assert run_cli("kbound", "--p", "43") == EXIT_OK
    k_line, lhs_line = capsys.readouterr().out.splitlines()
    k = float(k_line.split("=")[1])
    assert lhs_line == f"lhs={_k_constraint_lhs(k, 43)!r}"


def test_kbound_returns_where_doubles_are_coarser_than_its_tolerance():
    # beyond K ~ 2^33 adjacent doubles lie further apart than the bisection
    # width; a child process makes a hang fail the test instead of the suite
    env = dict(os.environ, PYTHONPATH=str(Path(skewspec.__file__).parents[1]))
    argv = [sys.executable, "-m", "skewspec.cli", "kbound", "--p", str(10**9)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == EXIT_OK
    _, lhs_line = done.stdout.splitlines()
    assert float(lhs_line.split("=")[1]) > 0


def test_kbound_beyond_double_precision(capsys):
    # 4 p^2 does not fit a double: one numerical-failure line, no traceback
    assert run_cli("kbound", "--p", str(10**160)) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: ")


def test_seed_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SKEWSPEC_SEED", "77")
    out = tmp_path / "env"
    assert run_cli("verify-jacobian", "--p", "1", "--trials", "2", "--out", str(out)) == EXIT_OK
    assert read_json(out / "manifest.json")["seed"] == 77


def test_seed_env_invalid(tmp_path, monkeypatch, capsys):
    points = tmp_path / "pts.csv"
    points.write_text("1.0,2.0\n")
    for text in ("abc", "-1"):
        monkeypatch.setenv("SKEWSPEC_SEED", text)
        # commands without --seed never read the variable
        assert run_cli("kbound", "--p", "2") == EXIT_OK
        assert run_cli("density", "--points", str(points)) == EXIT_OK
        # an explicit --seed wins over the variable
        out = tmp_path / "explicit"
        assert run_cli("verify-jacobian", "--p", "1", "--trials", "2", "--seed", "3", "--out", str(out)) == EXIT_OK
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli("verify-jacobian", "--p", "1", "--trials", "2", "--out", str(tmp_path / "env"))
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "SKEWSPEC_SEED" in err and "Traceback" not in err


SAMPLE = ("--p", "1", "--samples", "10")
BEYOND_DOUBLE = str(10**400)  # an int literal no float can hold
USAGE_ERRORS = [
    # (command, the flag at fault, its value or None where it is missing, the other arguments)
    ("verify-jacobian", "--p", "0", ()),
    ("verify-jacobian", "--p", None, ("--trials", "2")),
    ("verify-jacobian", "--seed", "-1", ("--p", "1")),
    ("fekete", "--n", "7", ()),
    ("fekete", "--gamma", "-1", ("--n", "8")),
    ("fekete", "--gamma", "nan", ("--n", "2")),
    ("fekete", "--gamma", "inf", ("--n", "2")),
    ("fekete", "--max-iters", "0", ("--n", "2")),
    ("fekete", "--grad-tol", "-1", ("--n", "2")),
    ("fekete", "--seed", "-1", ("--n", "2")),
    ("sample", "--thin", "0", SAMPLE),
    ("sample", "--gamma", "nan", SAMPLE),
    ("sample", "--gamma", "inf", SAMPLE),
    ("sample", "--seed", "-1", SAMPLE),
    ("sample", "--samples", "1.5", ("--p", "1")),
    ("density", "--gamma", "nan", ()),
    ("density", "--gamma", "inf", ()),
    ("kbound", "--p", "0", ()),
    ("kbound", "--p", BEYOND_DOUBLE, ()),
    ("fekete", "--n", BEYOND_DOUBLE, ()),
]
WRITES_ARTIFACTS = {"verify-jacobian", "fekete", "sample"}


def _argv(tmp_path, command, others):
    """The command line with --out, or with a valid --points file for density."""
    if command in WRITES_ARTIFACTS:
        return [command, *others, "--out", str(tmp_path / "out")]
    if command == "density":
        points = tmp_path / "pts.csv"
        points.write_text("1.0,2.0\n")
        return [command, *others, "--points", str(points)]
    return [command, *others]


@pytest.mark.parametrize(
    "command, flag, value, others",
    USAGE_ERRORS,
    ids=[
        f"{c}:{f}={'missing' if v is None else '1e400' if v == BEYOND_DOUBLE else v}"
        for c, f, v, _ in USAGE_ERRORS
    ],
)
def test_usage_errors(tmp_path, capsys, command, flag, value, others):
    bad = () if value is None else (flag, value)
    with pytest.raises(SystemExit) as exc:
        run_cli(*_argv(tmp_path, command, (*others, *bad)))
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and flag in err.splitlines()[-1]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [("verify-jacobian", "--p", "1", "--trials", "1"), ("fekete", "--n", "2"), ("sample", *SAMPLE)],
    ids=lambda argv: argv[0],
)
def test_out_under_a_file_exits_usage(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(out) in err.splitlines()[-1]


def _out_of_domain(positive: bool, integer: bool):
    """Text that a finite positive (else non-negative) int or float flag rejects."""
    if integer:
        # any float repr ("5.0", "1e+16", "nan") is not an int literal
        return st.integers(max_value=0 if positive else -1).map(str) | st.floats().map(repr)
    low = st.floats(max_value=0.0 if positive else -math.ulp(0.0))
    return (low | st.sampled_from([math.nan, math.inf])).map(repr) | st.sampled_from(["", "abc", "1,5"])


NUMERIC_FLAGS = [
    # (command, flag, positive, integer, the other arguments)
    ("verify-jacobian", "--p", True, True, ()),
    ("verify-jacobian", "--trials", True, True, ("--p", "1")),
    ("verify-jacobian", "--seed", False, True, ("--p", "1")),
    ("fekete", "--n", True, True, ()),
    ("fekete", "--gamma", True, False, ("--n", "2")),
    ("fekete", "--restarts", True, True, ("--n", "2")),
    ("fekete", "--max-iters", True, True, ("--n", "2")),
    ("fekete", "--grad-tol", False, False, ("--n", "2")),
    ("fekete", "--seed", False, True, ("--n", "2")),
    ("sample", "--p", True, True, ("--samples", "10")),
    ("sample", "--gamma", True, False, SAMPLE),
    ("sample", "--samples", True, True, ("--p", "1")),
    ("sample", "--burnin", False, True, SAMPLE),
    ("sample", "--thin", True, True, SAMPLE),
    ("sample", "--seed", False, True, SAMPLE),
    ("density", "--gamma", True, False, ()),
    ("kbound", "--p", True, True, ()),
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_out_of_domain_numbers_exit_usage(tmp_path_factory, data):
    # every numeric flag rejects any value outside its domain before work starts
    command, flag, positive, integer, others = data.draw(st.sampled_from(NUMERIC_FLAGS))
    value = data.draw(_out_of_domain(positive, integer))
    tmp_path = tmp_path_factory.mktemp("domain")
    with pytest.raises(SystemExit) as exc:
        run_cli(*_argv(tmp_path, command, (*others, f"{flag}={value}")))
    assert exc.value.code == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-jacobian", "--p", "1", "--threads", "2"),
        ("fekete", "--n", "2", "--threads", "2"),
        ("sample", "--p", "1", "--samples", "10", "--threads", "2"),
        ("verify-jacobian", "--p", "1", "--gamma", "2"),
    ],
)
def test_threads_flag_removed(tmp_path, argv):
    # each argv ends in a flag the command no longer has
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(tmp_path / "t"))
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, limit",
    [
        (("--p", "100000", "--samples", "1"), "pair terms"),
        (("--p", "2", "--samples", "100000000000", "--thin", "1"), "retained coordinates"),
    ],
    ids=["pair-terms", "coordinates"],
)
def test_sample_beyond_its_size_limits_exits_usage(tmp_path, capsys, argv, limit):
    # each would end in a MemoryError: the pair indices of p = 10^5, or 4 * 10^11 retained coordinates
    out = tmp_path / "big"
    with pytest.raises(SystemExit) as exc:
        run_cli("sample", *argv, "--out", str(out))
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and limit in err.splitlines()[-1]
    assert not out.exists()


OUT = ("--out", "out")
# malformed rows, each also out of the domain of every numeric flag
BAD_VALUES = ["abc", "1,,1", "1,1,", "nan,1", "0,1", ""]
# (argv run from a fresh directory, the text of pts.csv there or None)
BAD_INPUTS = [
    *((("verify-jacobian", "--spectrum", value, *OUT), None) for value in [*BAD_VALUES, "1"]),
    # --trials with --spectrum, which is one trial
    (("verify-jacobian", "--spectrum", "1,1", "--trials", "5", *OUT), None),
    *(
        ((command, flag, value, *others), "1,2\n")
        for command, flag, others in [
            ("verify-jacobian", "--p", OUT),
            ("fekete", "--n", OUT),
            ("sample", "--p", ("--samples", "10", *OUT)),
            ("kbound", "--p", ()),
            ("density", "--gamma", ("--points", "pts.csv")),
        ]
        for value in BAD_VALUES
    ),
    *((("density", "--points", "pts.csv"), row + "\n") for row in ["abc", "1", "1,,1", "1,1,", "nan,1", ""]),
    *((("density", "--points", path), None) for path in [".", os.devnull, "/proc/self/mem", "missing.csv"]),
    # one past each size limit
    (("verify-jacobian", "--p", "613", "--trials", "1", *OUT), None),
    (("verify-jacobian", "--spectrum", ",".join(["1"] * 1226), *OUT), None),
    (("fekete", "--n", "5794", *OUT), None),
    (("fekete", "--n", "2897", "--mode", "commuting", *OUT), None),
    (("sample", "--p", "2897", "--samples", "1", *OUT), None),
    (("sample", "--p", "2", "--samples", str(2**22 + 1), *OUT), None),
    (("density", "--points", "pts.csv"), ",".join(["1"] * 5794) + "\n"),
]


def _bad_input_id(case):
    argv, text = case
    words = [word if len(word) < 20 else f"<{word.count(',') + 1} fields>" for word in argv]
    return " ".join(words) + ("" if text is None else f" <{text[:20]!r}>")


@pytest.mark.parametrize("argv, text", BAD_INPUTS, ids=map(_bad_input_id, BAD_INPUTS))
def test_bad_input_exits_with_a_documented_code(tmp_path, monkeypatch, capsys, argv, text):
    # every command, on malformed values, unreadable or irregular points
    # files and sizes past a limit: exit 2, 64 or 65, never a traceback
    monkeypatch.chdir(tmp_path)
    if text is not None:
        Path("pts.csv").write_text(text)
    try:
        code = run_cli(*argv)
    except SystemExit as exc:
        code = exc.code
    assert code in {EXIT_NUMERICAL, EXIT_USAGE, EXIT_DATA}
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # argparse's errors and the command's own both print the command's usage
    if code == EXIT_USAGE:
        assert err.splitlines()[0].startswith(f"usage: skewspec {argv[0]}")


def test_sample_defaults_resolved_in_run_chain(tmp_path):
    out = tmp_path / "defaults"
    assert run_cli("sample", "--p", "1", "--samples", "20", "--seed", "1", "--out", str(out)) == EXIT_OK
    chain = read_json(out / "chain.json")
    assert (chain["burn_in"], chain["thinning"]) == (10_000, 10)
    parameters = read_json(out / "manifest.json")["parameters"]
    assert parameters["burnin"] is None and parameters["thin"] is None
