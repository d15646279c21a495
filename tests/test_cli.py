"""Command line driver: exit codes, report schemas, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from slicealgebra import cli, dump_algebra
from slicealgebra.cli import main, resolve_algebra, run_suite
from slicealgebra.zerovariety import WitnessSearch


def _write_poly(path, rows):
    path.write_text(json.dumps(rows))
    return str(path)


def test_info_report(tmp_path):
    out = tmp_path / "info.json"
    assert main(["info", "--algebra", "quaternions", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["algebra"] == "clifford(0,2)"
    assert report["dimension"] == 4
    assert report["labels"] == ["1", "e1", "e2", "e12"]
    assert report["signature"] == [0, 2]
    assert report["associativity_residual"] == 0.0
    assert report["zerodivisors"] == {"found": False, "witness": None}


def test_info_finds_split_zerodivisors(tmp_path, capsys):
    assert main(["info", "--algebra", "clifford 1 1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["signature"] == [1, 1]
    assert report["zerodivisors"]["found"] is True
    assert isinstance(report["zerodivisors"]["witness"], str)
    assert "e1" in report["zerodivisors"]["witness"]


def test_algebra_file_round_trip(tmp_path, quaternions):
    path = tmp_path / "quat.json"
    dump_algebra(quaternions, str(path))
    name, alg = resolve_algebra(str(path))
    assert name == str(path)
    assert alg.dimension == 4
    assert main(["info", "--algebra", str(path), "--json",
                 str(tmp_path / "o.json")]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["info", "--algebra", str(bad)]) == 2
    assert main(["info", "--algebra", str(tmp_path / "missing.json")]) == 2


def test_resolve_algebra_aliases():
    assert resolve_algebra("h")[0] == "clifford(0,2)"
    assert resolve_algebra("Complex")[0] == "clifford(0,1)"
    assert resolve_algebra("reals")[1].dimension == 1
    assert resolve_algebra("clifford 2 1")[1].dimension == 8
    assert resolve_algebra("clifford 0, 2")[0] == "clifford(0,2)"


def test_verify_exit_codes(capsys):
    assert main(["verify", "traces", "--trials", "20"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("PASS suite=traces algebra=clifford(0,2)")

    # tolerance nobody can meet: trace float noise in dimension 8 trips it
    assert main(["verify", "traces", "--algebra", "clifford 0 3",
                 "--trials", "10", "--tol", "1e-30"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL")


def test_verify_not_applicable(capsys):
    assert main(["verify", "traces", "--algebra", "reals"]) == 2
    assert main(["verify", "twistor", "--algebra", "clifford 0 3",
                 "--trials", "5"]) == 2
    assert main(["verify", "cone", "--algebra", "reals"]) == 2
    capsys.readouterr()


def test_verify_usage_errors(capsys):
    assert main(["verify", "no-such-suite"]) == 2
    assert main(["verify"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_numerical_crash_exits_3(monkeypatch, capsys):
    def crash(alg, trials, rng, tol):
        raise np.linalg.LinAlgError("SVD did not converge")
        yield

    monkeypatch.setitem(cli._SUITE_FUNCS, "traces", crash)
    assert main(["verify", "traces", "--trials", "5"]) == 3
    assert capsys.readouterr().err.startswith(
        "internal numerical failure: SVD did not converge")


def test_clifford_3_3_dims_completes(capsys):
    """Trial 35 at seed 0 draws an inverse whose 64x64 L_a (condition 13.6)
    made LAPACK's SVD with singular vectors abort; inverse now uses LU."""
    assert main(["verify", "dims", "--algebra", "clifford 3 3",
                 "--trials", "36"]) == 0
    capsys.readouterr()


def test_absorption_failure_names_the_left_search(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "left_absorption",
                        lambda witness, wp, rng=None: WitnessSearch("absent"))
    out = tmp_path / "r.json"
    assert main(["verify", "absorption", "--trials", "3", "--json", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["pass_count"] == 0
    assert report["failures"] == [
        {"input": f"trial {t}: left witness absent", "residual": None}
        for t in range(3)]
    assert "null" in out.read_text()
    capsys.readouterr()


def test_verify_report_schema(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "dims", "--trials", "25", "--seed", "3",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"suite", "algebra", "trials", "max_residual",
                           "pass_count", "failures", "rng_seed"}
    assert report["suite"] == "dims"
    assert report["trials"] == 25
    assert report["pass_count"] == 25
    assert report["failures"] == []
    assert report["rng_seed"] == 3


def test_verify_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "zero-variety", "--trials", "30", "--seed", "7"]
    assert main(argv + ["--json", str(a)]) == 0
    assert main(argv + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_suite_direct(quaternions):
    report = run_suite("nijenhuis", quaternions, "clifford(0,2)",
                       trials=10, seed=0, tol=1e-9)
    assert report.passed
    assert report.max_residual <= 1e-12
    assert report.wall_time >= 0.0
    with pytest.raises(ValueError):
        run_suite("bogus", quaternions, "x", 1, 0, 1e-9)


def test_roots_scan_reports(tmp_path):
    poly = _write_poly(tmp_path / "p.json",
                       [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    out = tmp_path / "zeros.json"
    csv_path = tmp_path / "zeros.csv"
    assert main(["roots", poly, "--region=-2,2,-2,2", "--json", str(out),
                 "--csv", str(csv_path)]) == 0
    report = json.loads(out.read_text())
    assert report["degree"] == 2
    assert report["region"] == [-2.0, 2.0, -2.0, 2.0]
    zeros = report["zeros"]
    assert [z["class"] for z in zeros] == ["sphere", "sphere"]
    pts = sorted((complex(*z["z"]) for z in zeros), key=lambda c: c.imag)
    assert abs(pts[0] + 1j) <= 1e-7 and abs(pts[1] - 1j) <= 1e-7

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "re_z,im_z,class"
    assert len(lines) == 3
    for line in lines[1:]:
        re_z, im_z, cls = line.split(",")
        assert cls == "sphere"
        assert abs(abs(float(im_z)) - 1.0) <= 1e-7


def test_roots_with_target_and_dict_poly(tmp_path):
    poly = tmp_path / "sq.json"
    poly.write_text(json.dumps(
        {"coefficients": [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]}))
    out = tmp_path / "o.json"
    assert main(["roots", str(poly), "--target", "1,0,0,0",
                 "--json", str(out)]) == 0
    zeros = json.loads(out.read_text())["zeros"]
    assert sorted(round(z["z"][0]) for z in zeros) == [-1, 1]
    assert all(z["class"] == "real" for z in zeros)


def test_roots_usage_errors(tmp_path, capsys):
    poly = _write_poly(tmp_path / "p.json", [[1, 0, 0, 0], [1, 0, 0, 0]])
    assert main(["roots", poly, "--region=bad"]) == 2
    assert main(["roots", poly, "--region=2,-2,0,1"]) == 2
    assert main(["roots", str(tmp_path / "nope.json")]) == 2
    garbage = tmp_path / "g.json"
    garbage.write_text("[[1, 2]")
    assert main(["roots", str(garbage)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "dims", "--tol", "nan"],
    ["verify", "dims", "--tol", "0"],
    ["verify", "dims", "--tol", "inf"],
    ["verify", "dims", "--trials", "-3"],
    ["verify", "dims", "--trials", "0"],
    ["roots", "POLY", "--region=-2,2,nan,1"],
    ["roots", "POLY", "--target", "nan,0,0,0"],
    ["roots", "POLY", "--target", "1,0,0"],
    ["roots", "NANPOLY"],
])
def test_bad_numbers_are_usage_errors(tmp_path, capfd, argv):
    files = {"POLY": _write_poly(tmp_path / "p.json", [[1, 0, 0, 0], [1, 0, 0, 0]]),
             "NANPOLY": _write_poly(tmp_path / "n.json", [[float("nan"), 0, 0, 0],
                                                          [1, 0, 0, 0]])}
    assert main([files.get(arg, arg) for arg in argv]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert "finite" in err or "at least 1" in err


def test_env_tolerance_is_honored(monkeypatch, capsys):
    from slicealgebra.config import default_tol

    # a global tolerance below float noise means no root can be certified,
    # so the suite reports not-applicable rather than pass or fail
    monkeypatch.setenv("SLICE_ALGEBRA_TOL", "1e-30")
    assert default_tol() == 1e-30
    assert main(["verify", "nijenhuis", "--trials", "5"]) == 2
    monkeypatch.setenv("SLICE_ALGEBRA_TOL", "1e-9")
    assert main(["verify", "nijenhuis", "--trials", "5"]) == 0
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    poly = _write_poly(tmp_path / "p.json",
                       [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    proc = subprocess.run(
        [sys.executable, "-m", "slicealgebra.cli", "roots", str(poly),
         "--region=2,4,-1,1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["zeros"] == []  # the zero spheres of x^2+1 sit at Re z = 0
