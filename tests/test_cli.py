import json
import math
import warnings
import xml.etree.ElementTree as ET

import pytest

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
    spectrum = "1,8.5,2,7.5,3,6.5,4,5.5,5,4.5,6,3.5,7,2.5,8,1.5"
    assert run_cli("verify-jacobian", "--spectrum", spectrum, "--out", str(out)) == EXIT_OK

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


def test_verify_jacobian_degenerate_spectrum(tmp_path):
    out = tmp_path / "vjdeg"
    assert run_cli("verify-jacobian", "--spectrum", "1,1,1,2", "--out", str(out)) == EXIT_NUMERICAL
    report = read_json(out / "report.json")
    assert "error" in report and report["spectrum"] == "1,1,1,2"


def test_verify_jacobian_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify-jacobian", "--p", "0", "--out", str(tmp_path / "x"))
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        run_cli("verify-jacobian", "--out", str(tmp_path / "y"))
    assert exc.value.code == EXIT_USAGE


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


def test_fekete_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("fekete", "--n", "7", "--out", str(tmp_path / "x"))
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        run_cli("fekete", "--n", "8", "--gamma", "-1", "--out", str(tmp_path / "y"))
    assert exc.value.code == EXIT_USAGE


def test_sample_p1_with_ks(tmp_path):
    out = tmp_path / "smp"
    code = run_cli(
        "sample", "--p", "1", "--gamma", "0.5", "--samples", "1500",
        "--burnin", "3000", "--thin", "5", "--seed", "4", "--out", str(out),
    )
    assert code == EXIT_OK
    ks = read_json(out / "ks.json")
    assert ks["passed"] and ks["statistic_x"] < 0.05 and ks["statistic_y"] < 0.05
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


def test_sample_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("sample", "--p", "1", "--samples", "10", "--thin", "0", "--out", str(tmp_path / "x"))
    assert exc.value.code == EXIT_USAGE


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


def test_kbound_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("kbound", "--p", "0")
    assert exc.value.code == EXIT_USAGE


def test_seed_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SKEWSPEC_SEED", "77")
    out = tmp_path / "env"
    assert run_cli("verify-jacobian", "--p", "1", "--trials", "2", "--out", str(out)) == EXIT_OK
    assert read_json(out / "manifest.json")["seed"] == 77


def test_seed_env_invalid(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SKEWSPEC_SEED", "abc")
    # commands without --seed never read the variable
    assert run_cli("kbound", "--p", "2") == EXIT_OK
    points = tmp_path / "pts.csv"
    points.write_text("1.0,2.0\n")
    assert run_cli("density", "--points", str(points)) == EXIT_OK
    # an explicit --seed wins over the variable
    out = tmp_path / "explicit"
    assert run_cli("verify-jacobian", "--p", "1", "--trials", "2", "--seed", "3", "--out", str(out)) == EXIT_OK
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("verify-jacobian", "--p", "1", "--trials", "2", "--out", str(tmp_path / "env"))
    assert exc.value.code == EXIT_USAGE
    assert "SKEWSPEC_SEED" in capsys.readouterr().err


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
