import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewspec
from skewspec.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_jacobian_random_trials(tmp_path):
    out = tmp_path / "vj"
    assert run_cli("verify-jacobian", "--p", "2", "--trials", "50", "--seed", "3", "--out", str(out)) == EXIT_OK
    report = read_json(out / "report.json")
    assert report["passed"] and report["max_rel_err"] <= 1e-8
    assert report["trials"] == 50
    manifest = read_json(out / "manifest.json")
    assert "report.json" in manifest["artifacts"]
    assert manifest["seed"] == 3


def test_verify_jacobian_pinned_spectrum(tmp_path):
    out = tmp_path / "vj1"
    assert run_cli("verify-jacobian", "--spectrum", "1,1", "--out", str(out)) == EXIT_OK
    report = read_json(out / "report.json")
    assert report["gram"] == pytest.approx(512.0, rel=1e-10)
    assert report["shape_ratio"] == pytest.approx(16.0, rel=1e-9)


def test_verify_jacobian_pinned_spectrum_beyond_double_range(tmp_path):
    # p = 8: the Gram determinant exceeds the double range, its log does not
    out = tmp_path / "vj8"
    assert run_cli("verify-jacobian", "--spectrum", SPECTRUM_P8, "--out", str(out)) == EXIT_OK

    def reject(token):
        raise ValueError(f"report.json is not strict JSON: {token}")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["passed"] and report["max_rel_err"] <= 1e-8
    assert report["gram"] is None and report["closed_form"] is None


def test_verify_jacobian_assembles_each_spectrum_once(tmp_path, monkeypatch):
    import skewspec.jacobian

    calls = {"assemble_dG": 0, "build_block_diag": 0}

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
    # one dG assembly, hence one block pair, per spectrum
    assert calls == {"assemble_dG": 5, "build_block_diag": 5}


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
        (("verify-jacobian", "--spectrum", "1,1,1,2"), "report.json", {"error", "spectrum"}),
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
    out = tmp_path / "vjdeg"
    assert run_cli("verify-jacobian", "--spectrum", "1,1,1,2", "--out", str(out)) == EXIT_NUMERICAL
    report = read_json(out / "report.json")
    assert "error" in report and report["spectrum"] == "1,1,1,2"


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

    root = ET.parse(out / "figure.svg").getroot()
    points = [e for e in root.iter() if e.get("class") == "point"]
    refs = [e for e in root.iter() if e.get("class") == "reference"]
    assert len(points) == 4 and len(refs) == 1
    assert refs[0].tag.endswith("path")  # quarter-circle arc


def test_fekete_rerun_is_byte_identical(tmp_path):
    args = ["fekete", "--n", "6", "--restarts", "2", "--grad-tol", "1e-4", "--seed", "5"]
    assert run_cli(*args, "--out", str(tmp_path / "a")) == EXIT_OK
    assert run_cli(*args, "--out", str(tmp_path / "b")) == EXIT_OK
    assert (tmp_path / "a" / "points.csv").read_bytes() == (tmp_path / "b" / "points.csv").read_bytes()


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
    # the exact normalization of the p = 1 integrand at gamma = 1/2
    assert ks["normalization_c1"] == 16.0 * 0.5**2.5 / (3.0 * math.sqrt(math.pi))
    chain = read_json(out / "chain.json")
    assert chain["n_samples"] == 1500
    assert 0.0 < chain["acceptance_rate"] < 1.0


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


def test_sample_defaults_resolved_in_run_chain(tmp_path):
    out = tmp_path / "defaults"
    assert run_cli("sample", "--p", "1", "--samples", "20", "--seed", "1", "--out", str(out)) == EXIT_OK
    chain = read_json(out / "chain.json")
    assert (chain["burn_in"], chain["thinning"]) == (10_000, 10)
    parameters = read_json(out / "manifest.json")["parameters"]
    assert parameters["burnin"] is None and parameters["thin"] is None
