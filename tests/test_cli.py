"""Command line driver: exit codes, report schemas, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import einsum_reference as ref
from conftest import algebra_json, info_zerodivisors
from slicealgebra import algebra as algebra_module
from slicealgebra import (SuiteNotApplicableError, cli, clifford_algebra, dump_algebra,
                          is_zerodivisor, make_algebra, twistor)
from slicealgebra.cli import SUITES, main, resolve_algebra, run_suite
from slicealgebra.roots import find_seed_root
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


_DIVISION = ((0, 1), (0, 2))  # the signatures of C and H


def _found_exactly_off_division(sig, c, basis, path):
    """info on Cl(sig) in the basis f_i = sum_a basis[a, i] e_a (tensor c)
    finds a zerodivisor exactly when Cl(sig) is not C or H (Frobenius), and
    its witness is one in the basis e too."""
    report, witness = info_zerodivisors(make_algebra(c), path)
    assert report["found"] is (sig not in _DIVISION)
    assert (witness is None) is not report["found"]
    if witness is not None:
        assert is_zerodivisor(clifford_algebra(*sig).element(basis @ witness.coeffs))


@settings(max_examples=30, deadline=None)
@given(sig=st.sampled_from([(1, 1), (2, 1), (0, 3), (2, 2), (0, 2), (0, 1)]),
       basis_seed=st.integers(0, 2**32 - 1))
@example(sig=(1, 1), basis_seed=262)
def test_info_finds_zerodivisors_in_a_rotated_basis(tmp_path_factory, sig, basis_seed):
    """M2(R), M2(C), H+H and M4(R) in an orthogonally rotated basis with the
    unit kept have zerodivisors, though no basis element nor any 1 +- e_k is
    one; H and C have none."""
    c = clifford_algebra(*sig).structure_constants
    basis = ref.rotation(c.shape[0], np.random.default_rng(basis_seed))
    _found_exactly_off_division(sig, ref.rotated(c, basis), basis,
                                tmp_path_factory.mktemp("info") / "alg.json")


@pytest.mark.parametrize("sig", [(0, 1), (0, 2), (1, 1), (2, 1), (0, 3), (1, 2), (3, 0), (2, 2)])
def test_info_finds_zerodivisors_in_skewed_bases(tmp_path, sig):
    """The same in 50 non-orthogonal bases B = I + 0.3 G each (G standard
    normal from default_rng(basis_seed), the unit column kept exact)."""
    c = clifford_algebra(*sig).structure_constants
    n = c.shape[0]
    for basis_seed in range(50):
        basis = np.eye(n) + 0.3 * np.random.default_rng(basis_seed).standard_normal((n, n))
        basis[:, 0] = np.eye(n)[0]
        _found_exactly_off_division(sig, ref.rebased(c, basis), basis, tmp_path / "alg.json")


@pytest.mark.parametrize("sig", _DIVISION, ids=["C", "H"])
def test_info_finds_no_zerodivisor_in_a_skewed_division_algebra(tmp_path, sig):
    """H and C in the non-orthogonal basis 1, 1 + e_1, 1 + e_1 + e_2, ..."""
    c = clifford_algebra(*sig).structure_constants
    basis = np.triu(np.ones(c.shape[:2]))
    _found_exactly_off_division(sig, ref.rebased(c, basis), basis, tmp_path / "alg.json")


@pytest.mark.parametrize("k", [15, 20])
@pytest.mark.parametrize("draw", range(5))
def test_info_finds_no_zerodivisor_in_a_rescaled_C(tmp_path, k, draw):
    """C with its generator scaled by 2^(+-k) (einsum_reference.rescaled_blades)."""
    alg = clifford_algebra(0, 1)
    c = ref.rescaled_blades(alg.structure_constants, alg.labels, k, draw)
    assert info_zerodivisors(make_algebra(c), tmp_path / "alg.json")[0] == \
        {"found": False, "witness": None}


def test_info_decides_associativity_once(monkeypatch, capsys):
    """make_algebra's residual is the one the info report gives: one check."""
    calls = []
    defects = algebra_module._associativity_defects

    def counted(alg):
        calls.append(alg)
        return defects(alg)

    for module in (algebra_module, cli):  # wherever a caller may look the name up
        monkeypatch.setattr(module, "_associativity_defects", counted, raising=False)
    assert main(["info", "--algebra", "clifford 0 3"]) == 0
    assert json.loads(capsys.readouterr().out)["associativity_residual"] == 0.0
    assert len(calls) == 1


def test_algebra_file_round_trip(tmp_path, quaternions, capsys):
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

    # valid JSON of the wrong shape: an error naming the keys, not a traceback
    good = algebra_json(quaternions)
    for content in ([1, 2, 3], {k: v for k, v in good.items() if k != "labels"},
                    {**good, "labels": 5}, {**good, "unit_index": None}):
        capsys.readouterr()
        bad.write_text(json.dumps(content))
        assert main(["info", "--algebra", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert all(key in err for key in good)


_MISTYPED = {
    "dimension": st.sampled_from([4.9, 4.0, "4", True, None, [4]]),
    "unit_index": st.sampled_from([0.7, 0.0, "0", False, None, [0]]),
    "labels": st.sampled_from(["1ijk", [1, 2, 3, 4], [None] * 4, [["1"], ["i"], ["j"], ["k"]],
                               None, 4]),
    "structure_constants": st.sampled_from(["1", "-1", None, "x", True, False]),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), key=st.sampled_from(sorted(_MISTYPED)))
def test_mistyped_algebra_fields_are_usage_errors(quaternions, data, key):
    """A field of the wrong JSON type is rejected, not coerced: 4.9 and "0"
    are no integers, "1ijk" and [1, 2, 3, 4] no list of strings, and a
    tensor entry "1", null, true or false no number (numpy would read true
    among numbers as 1)."""
    content = algebra_json(quaternions)
    wrong = data.draw(_MISTYPED[key], label=key)
    if key == "structure_constants":
        i, j, k = data.draw(st.tuples(*[st.integers(0, 3)] * 3), label="entry")
        content[key][i][j][k] = wrong
    else:
        content[key] = wrong
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(content, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["info", "--algebra", path]) == 2
    assert err.getvalue().startswith("error:")
    assert all(name in err.getvalue() for name in _MISTYPED)


def test_integers_beyond_64_bits_load_as_before(tmp_path, quaternions):
    """dump_algebra writes integer-valued entries as JSON integers, and
    2^66 overflows int64: H in the basis 1, t e1, e2, t e12 with t = 2^33
    (an exact rescaling, with entries -2^66) comes back unchanged."""
    scale = np.array([1.0, 2.0 ** 33, 1.0, 2.0 ** 33])
    c = quaternions.structure_constants * scale[:, None, None] * scale[None, :, None] / scale
    path = tmp_path / "wide.json"
    dump_algebra(make_algebra(c), str(path))
    assert "73786976294838206464" in path.read_text()
    back = resolve_algebra(str(path))[1]
    assert np.array_equal(back.structure_constants, c)


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

    # every suite with a tolerance judges its trials at --tol ("dims"
    # compares integers): at 1e-30 rounding fails every residual test
    for suite in SUITES:
        if suite != "dims":
            assert main(["verify", suite, "--trials", "10", "--tol", "1e-30"]) == 1, suite
            assert capsys.readouterr().err.startswith(f"FAIL suite={suite}")


def test_nijenhuis_fails_a_trial_whose_tangency_check_fails(tmp_path, capsys):
    """In Cl(2,2) with generators scaled by 2^(+-20) the projected x or y
    can fail nijenhuis's tangency check: the trial fails (exit 1, not a
    usage error) with the check's message as its input and no residual.
    --tol reaches that check: on Cl(2,1) at 2^(+-13) more trials pass at
    1e-3 than at 1e-9."""
    def dump(p, q, k, draw):
        alg = clifford_algebra(p, q)
        path = tmp_path / f"cl{p}{q}_{draw}.json"
        dump_algebra(make_algebra(ref.rescaled_blades(alg.structure_constants, alg.labels, k, draw),
                                  labels=alg.labels), str(path))
        return str(path)

    cl22 = dump(2, 2, 20, 0)
    for tol in ("1e-3", "1e-9"):
        assert main(["verify", "nijenhuis", "--algebra", cl22, "--trials", "20",
                     "--tol", tol]) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
    untested = [f["input"] for f in failures if f["residual"] is None]
    assert untested and all("anticommutator defect" in desc for desc in untested)
    passes = []
    for tol in ("1e-9", "1e-3"):
        main(["verify", "nijenhuis", "--algebra", dump(2, 1, 13, 2), "--trials", "20",
              "--tol", tol])
        passes.append(json.loads(capsys.readouterr().out)["pass_count"])
    assert passes[0] < passes[1]


def test_stereographic_on_the_complex_numbers(capsys):
    """The fiber over a conjugate of u has complex rank (N - tr T_u)/4, the
    rank of the centralizer of u: on C, tr T_i = -2 gives 1, not N // 4 = 0."""
    assert main(["verify", "stereographic", "--algebra", "complex",
                 "--trials", "10"]) == 0
    assert capsys.readouterr().err.startswith("PASS suite=stereographic")


@pytest.mark.parametrize("p, q", [(0, 2), (1, 1), (2, 2), (2, 1), (0, 6)])
def test_the_stereographic_trial_decides_no_rank(monkeypatch, p, q):
    """The fiber is a projector range, the section value's invertibility is
    left to the chart quotient: with the SVD made to raise, the suite
    passes every trial."""
    alg = clifford_algebra(p, q)

    def refuse(*args, **kwargs):
        raise AssertionError("called the SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    trials = 3 if alg.dimension == 64 else 10
    report = run_suite("stereographic", alg, "x", trials=trials, seed=0, tol=1e-9)
    assert report.pass_count == trials


def test_a_stereographic_section_off_the_fiber_fails_its_trial(monkeypatch, quaternions, capsys):
    """Only the chart quotient's ZeroDivisorError leaves a trial to its
    fiber check: a section whose value 1 misses the fiber over s raises
    BadSectionError, which fails the trial with no residual and its
    message as the input, and the run exits 1."""
    monkeypatch.setattr(cli, "standard_section", lambda u: (lambda s: quaternions.unit()))
    report = run_suite("stereographic", quaternions, "H", 20, 0, 1e-9)
    assert report.pass_count == 0
    assert [f["residual"] for f in report.failures] == [None] * 20
    assert all(f["input"].startswith(f"trial {t}: section value misses the fiber")
               for t, f in enumerate(report.failures))
    assert main(["verify", "stereographic", "--trials", "20"]) == 1
    assert capsys.readouterr().err.startswith("FAIL suite=stereographic")


def test_the_twistor_suite_takes_only_the_frames_svds(monkeypatch):
    """The twistor suite's SVDs are those of QuaternionFrame.detect, none
    per trial, and the algebra keeps its frame: a run after detect takes none."""
    alg = clifford_algebra(0, 2)
    calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    twistor.QuaternionFrame.detect(alg)
    detect_calls, calls[:] = len(calls), []
    assert detect_calls > 0
    assert run_suite("twistor", alg, "H", trials=20, seed=0, tol=1e-9).pass_count == 20
    assert len(calls) == 0


@pytest.mark.parametrize("suite", ["nijenhuis", "stereographic"])
def test_a_second_run_gathers_no_operator_of_the_seed(monkeypatch, suite):
    """The algebra keeps its seed root with L_s and R_s: the first run on it
    gathers them, a second run gathers neither again, and its report is the same."""
    alg = clifford_algebra(0, 3)
    seed = find_seed_root(alg)
    gathers = []
    for side in ("left_matrix_vec", "right_matrix_vec"):
        gather = getattr(alg, side)
        monkeypatch.setattr(alg, side, lambda a, gather=gather, side=side: gathers.append(
            (side, np.array_equal(a, seed.element.coeffs))) or gather(a))
    first = run_suite(suite, alg, "Cl(0,3)", trials=5, seed=0, tol=1e-9)
    assert {side for side, of_seed in gathers if of_seed} == {"left_matrix_vec",
                                                             "right_matrix_vec"}
    gathers.clear()
    second = run_suite(suite, alg, "Cl(0,3)", trials=5, seed=0, tol=1e-9)
    assert gathers and not any(of_seed for _, of_seed in gathers)
    assert second.to_json() == first.to_json() and second.passed


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(7) for p in range(n + 1)])
def test_every_suite_on_every_signature(p, q):
    """Every suite passes on every Cl(p, q) with p + q <= 6, or does not apply."""
    alg = clifford_algebra(p, q)
    failed = []
    for suite in SUITES:
        try:
            report = run_suite(suite, alg, f"clifford({p},{q})", trials=3, seed=0, tol=1e-9)
        except SuiteNotApplicableError:
            continue
        if not report.passed:
            failed.append((suite, report.failures))
    assert failed == []


@pytest.mark.parametrize("p, q", [(0, 2), (1, 1), (0, 3), (2, 2)])
def test_dims_counts_the_kernel_and_fails_a_wrong_trace(monkeypatch, p, q):
    """dims compares the kernel size of L_s + R_s, counted from singular
    values without building a frame, with (N + tr T_s)/2: it passes every
    trial, and fails every one when the trace is snapped 2 too high."""
    def refuse(*args, **kwargs):
        raise AssertionError("dims built a tangent frame")

    monkeypatch.setattr(cli, "tangent_frame", refuse, raising=False)
    alg = clifford_algebra(p, q)
    assert run_suite("dims", alg, "x", trials=6, seed=0, tol=1e-9).pass_count == 6
    trace = cli.component_invariant
    monkeypatch.setattr(cli, "component_invariant", lambda s: trace(s) + 2)
    report = run_suite("dims", alg, "x", trials=6, seed=0, tol=1e-9)
    assert report.pass_count == 0 and len(report.failures) == 6


def test_twistor_finds_a_frame_in_the_skewed_quaternion_basis(tmp_path, capsys):
    """H in the basis 1, 1 + e1, 1 + e1 + e2, 1 + e1 + e2 + e12, which has no
    anticommuting pair of roots among its elements and their products."""
    c = ref.rebased(clifford_algebra(0, 2).structure_constants, np.triu(np.ones((4, 4))))
    path = tmp_path / "skewed.json"
    dump_algebra(make_algebra(c), str(path))
    assert main(["verify", "twistor", "--algebra", str(path), "--trials", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["pass_count"] == 20


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_twistor_passes_on_h_in_a_basis_that_keeps_the_unit(seed):
    """f_0 = 1 and f_1, f_2, f_3 drawn at random, not orthogonal."""
    basis = np.eye(4)
    basis[:, 1:] = np.random.default_rng(seed).standard_normal((4, 3))
    assume(np.linalg.cond(basis) < 30)
    alg = make_algebra(ref.rebased(clifford_algebra(0, 2).structure_constants, basis))
    assert run_suite("twistor", alg, "H", trials=10, seed=0, tol=1e-9).passed


@pytest.mark.parametrize("sig", [(1, 1), (0, 3)], ids=["Cl(1,1)", "Cl(0,3)"])
@pytest.mark.parametrize("basis_seed", [None, 0, 1, 2])
def test_twistor_does_not_apply_without_a_quaternion_frame(sig, basis_seed):
    """M2(R) (in any basis) and the 8-dimensional Cl(0,3) have no frame."""
    c = clifford_algebra(*sig).structure_constants
    if basis_seed is not None:
        n = c.shape[0]
        basis = np.eye(n)
        basis[:, 1:] = np.random.default_rng(basis_seed).standard_normal((n, n - 1))
        c = ref.rebased(c, basis)
    with pytest.raises(SuiteNotApplicableError):
        run_suite("twistor", make_algebra(c), "x", trials=3, seed=0, tol=1e-9)


def test_twistor_compares_one_lift_with_the_bundle(monkeypatch):
    """Each trial lifts once and checks the bundle point at u = I against
    the chart of that lift: a bundle image c a - u (c b), from evaluating
    the stem at conj(z), fails every trial, as does a wrong sign in delta1."""
    alg = clifford_algebra(0, 2)
    assert run_suite("twistor", alg, "H", trials=20, seed=0, tol=1e-9).pass_count == 20
    lifts = []
    lift = cli.twistor_lift

    def counted_lift(*args, **kwargs):
        lifts.append(args)
        return lift(*args, **kwargs)

    monkeypatch.setattr(cli, "twistor_lift", counted_lift)
    assert run_suite("twistor", alg, "H", trials=4, seed=0, tol=1e-9).passed
    assert len(lifts) == 4

    bundle = cli.generalized_twistor
    with monkeypatch.context() as m:
        m.setattr(cli, "generalized_twistor",
                  lambda F, sigma, z, s, frame: bundle(F, sigma, np.conj(z), s, frame))
        report = run_suite("twistor", alg, "H", trials=20, seed=0, tol=1e-9)
        assert report.pass_count == 0 and len(report.failures) == 20

    def flipped_delta1(p):  # -w_7 of the third output taken as +w_7
        w = p.coords
        return twistor.ProjectivePoint(np.array([w[0], w[1], w[2] + 1j * w[4] + w[7] + 1j * w[9],
                                                 w[3] - 1j * w[5] + w[6] + 1j * w[8]]))

    monkeypatch.setattr(twistor, "delta1", flipped_delta1)
    report = run_suite("twistor", alg, "H", trials=20, seed=0, tol=1e-9)
    assert report.pass_count == 0 and len(report.failures) == 20


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


@pytest.mark.parametrize("argv", [["info"], ["verify", "traces"], ["roots", "p.json"]])
def test_a_negative_seed_is_a_usage_error_named_before_the_algebra_is_built(
        monkeypatch, capsys, argv):
    """--seed -1 exits 2 with a message that names --seed; no algebra is
    resolved first (numpy's own message names no option)."""
    monkeypatch.setattr(cli, "resolve_algebra", lambda *args: pytest.fail("algebra built"))
    assert main(argv + ["--seed", "-1"]) == 2
    assert "--seed must be a non-negative integer" in capsys.readouterr().err


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
                        lambda witness, wp, tol=None, rng=None: WitnessSearch("absent"))
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
    for trials in (0, -1):  # a report of no trials would pass with nothing checked
        with pytest.raises(ValueError, match="at least 1"):
            run_suite("traces", quaternions, "H", trials, 0, 1e-9)


@pytest.mark.parametrize("p, q", [(0, 2), (1, 1), (2, 2)])
def test_nijenhuis_draws_its_tangent_vectors_with_no_svd(monkeypatch, p, q):
    """The suite projects random vectors by (1 + L_s R_s)/2 onto ker(L_s + R_s):
    every trial passes, and no SVD runs (tangent_frame would take one)."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = run_suite("nijenhuis", clifford_algebra(p, q), "x", trials=20, seed=0, tol=1e-9)
    assert report.passed and report.max_residual <= 1e-12
    assert calls == []


@pytest.mark.parametrize("basis_seed", [None, 0, 1, 2])
def test_nijenhuis_keeps_a_zero_tangent_vector_zero(basis_seed):
    """On C, built in or in the basis 1, 0.3 g_0 + (1 + 0.3 g_1) e1 (g standard
    normal from default_rng(basis_seed)), ker F_s = {0} ((N + tr T_s)/2 = 0):
    both tangent vectors are 0, not r + T_s r, rounding noise that scaled to
    unit norm would fail the tangency check, and every trial passes."""
    c = clifford_algebra(0, 1).structure_constants
    if basis_seed is not None:
        basis = np.eye(2) + 0.3 * np.random.default_rng(basis_seed).standard_normal((2, 2))
        basis[:, 0] = [1.0, 0.0]
        c = ref.rebased(c, basis)
    report = run_suite("nijenhuis", make_algebra(c), "C", trials=50, seed=0, tol=1e-9)
    assert report.pass_count == 50 and report.max_residual == 0.0


def test_cone_on_the_complex_numbers_at_a_coarse_tol(capsys):
    """cone_decompose calls x real only when x = beta*1 passes the tolerance
    rule, not whenever gamma^2 does (gamma up to about sqrt(tol) |x|): on C
    at --tol 1e-6 and seed 1 every trial passes, trial 63 included."""
    assert main(["verify", "cone", "--algebra", "complex", "--tol", "1e-6", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["pass_count"] == 200


@pytest.mark.parametrize("algebra", ["complex", "quaternions"])
def test_cone_rebuilds_a_member_it_calls_real(monkeypatch, algebra):
    """A member x = beta + gamma*s, gamma = |N(0,1)| + 0.1, is real to
    cone_decompose at --tol 0.1 when gamma*s passes the tolerance rule
    against ||x|| + |beta|.  beta*1 then rebuilds x, and every trial passes
    at seeds 0 and 1.  A real verdict whose beta is off by 1 fails each
    trial it is given, members (the even trials) among them."""
    for seed in (0, 1):
        assert main(["verify", "cone", "--algebra", algebra, "--tol", "0.1",
                     "--seed", str(seed), "--json", os.devnull]) == 0
    decompose, calls, real = cli.cone_decompose, [], []

    def off_by_one(x, G, tol):  # one call a trial, in trial order
        dec = decompose(x, G, tol)
        calls.append(dec)
        if dec is None or dec.root is not None:
            return dec
        real.append(f"trial {len(calls) - 1}")
        return dataclasses.replace(dec, beta=dec.beta + 1.0)

    monkeypatch.setattr(cli, "cone_decompose", off_by_one)
    for seed in (0, 1):
        real.clear()
        calls.clear()
        report = run_suite("cone", resolve_algebra(algebra)[1], algebra, 200, seed, 0.1)
        assert [f["input"] for f in report.failures] == real
        assert any(int(t.split()[1]) % 2 == 0 for t in real)


_POLICY_ALGEBRAS = ("reals", "complex", "quaternions", "clifford 1 1", "clifford 0 3",
                    "clifford 2 2")


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@settings(max_examples=150, deadline=None)
@given(algebra=st.sampled_from(_POLICY_ALGEBRAS), command=st.sampled_from(SUITES + ("roots",)),
       seed=st.integers(0, 2**32 - 1), log_tol=st.floats(-8.0, -1.0), data=st.data())
def test_any_tol_gives_a_verdict_or_not_applicable(tmp_path_factory, algebra, command, seed,
                                                   log_tol, data):
    """The tolerance rule at any --tol in [1e-8, 1e-1], log-uniform: `verify`
    on every suite and `roots` on a random stem of degree <= 4 over a random
    region, with or without --target, exit 0 or 2 (not applicable), write
    strict JSON (no NaN or Infinity) when they exit 0, and raise no
    RuntimeWarning.  `roots` on R, which has no root of -1, is an error."""
    argv = ["--algebra", algebra, "--seed", str(seed), "--tol", repr(10.0 ** log_tol)]
    if command == "roots":
        n = resolve_algebra(algebra)[1].dimension
        rng = np.random.default_rng(seed)
        degree = data.draw(st.integers(0, 4), label="degree")
        path = tmp_path_factory.mktemp("policy") / "poly.json"
        argv = ["roots", _write_poly(path, rng.standard_normal((degree + 1, n)).tolist()),
                *argv]
        x0, y0 = (data.draw(st.floats(-4.0, 4.0), label=f"{v}0") for v in "xy")
        x1, y1 = (data.draw(st.floats(0.1, 4.0), label=f"{v}-width") + v0
                  for v, v0 in (("x", x0), ("y", y0)))
        argv.append(f"--region={x0!r},{x1!r},{y0!r},{y1!r}")
        if data.draw(st.booleans(), label="target"):
            argv.append("--target=" + ",".join(map(repr, rng.standard_normal(n).tolist())))
    else:
        argv = ["verify", command, *argv, "--trials", "10"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 2), (argv, err.getvalue())
    if code == 0:
        _strict_json(out.getvalue())
    else:
        assert out.getvalue() == "" and err.getvalue().startswith(("not applicable", "error:"))


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


def test_roots_tol_reaches_the_scan(tmp_path):
    """x^2 + x + 1 on H has spheres at (-1 +- i sqrt3)/2, where F(z) is
    zero only up to rounding; at --tol 1e-30 neither they nor an isolated
    root over them pass, so the report has no zeros."""
    poly = _write_poly(tmp_path / "p.json", [[1, 0, 0, 0]] * 3)
    reports = []
    for extra in ([], ["--tol", "1e-30"]):
        out = tmp_path / "o.json"
        assert main(["roots", poly, "--json", str(out)] + extra) == 0
        reports.append(json.loads(out.read_text())["zeros"])
    assert [z["class"] for z in reports[0]] == ["sphere", "sphere"]
    assert all(z["residual"] > 0 for z in reports[0])
    assert reports[1] == []


def test_roots_where_a_power_of_z_overflows(tmp_path):
    """1e10 + 1e-300 x^2 on H vanishes on the spheres at +-1e155 i.  There
    |z|^2 = 1e310 overflows, though each term of F(z) has size 1e10; the
    size sum_k |z|^k ||c_k|| is summed by Horner's rule, so the spheres are
    found, and no overflow warning is raised (pytest makes it an error)."""
    poly = _write_poly(tmp_path / "p.json", [[1e10, 0, 0, 0], [0, 0, 0, 0], [1e-300, 0, 0, 0]])
    out = tmp_path / "o.json"
    assert main(["roots", poly, "--region=-1e300,1e300,-1e300,1e300", "--json", str(out)]) == 0
    zeros = json.loads(out.read_text())["zeros"]
    assert [z["class"] for z in zeros] == ["sphere", "sphere"]
    assert [z["z"][0] for z in zeros] == [0.0, 0.0]
    assert [z["z"][1] for z in zeros] == pytest.approx([-1e155, 1e155], rel=1e-9)


@pytest.mark.parametrize("rows, options, zeros", [
    ([[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], ["--target=1e308,0,0,0"], []),
    ([[-1e308, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], ["--region=-1e300,1e300,-1e300,1e300"],
     [-1e154, 1e154]),
])
def test_roots_near_the_float_limit(tmp_path, rows, options, zeros):
    """x^2 + 1 = 1e308 has its real zeros at +-1e154, outside +-2, and so
    has x^2 = 1e308.  The sizes of the terms, 2e308 there, overflow; the
    scan works on F - target over the power of two of its largest
    coefficient, so it finds the zeros without an overflow warning (pytest
    makes one an error)."""
    poly = _write_poly(tmp_path / "p.json", rows)
    out = tmp_path / "o.json"
    assert main(["roots", poly, "--json", str(out)] + options) == 0
    found = json.loads(out.read_text())["zeros"]
    assert [z["class"] for z in found] == ["real"] * len(zeros)
    assert [z["z"] for z in found] == [[pytest.approx(z, rel=1e-12), 0.0] for z in zeros]


def test_roots_usage_errors(tmp_path, capsys):
    poly = _write_poly(tmp_path / "p.json", [[1, 0, 0, 0], [1, 0, 0, 0]])
    assert main(["roots", poly, "--region=bad"]) == 2
    assert main(["roots", poly, "--region=2,-2,0,1"]) == 2
    assert main(["roots", str(tmp_path / "nope.json")]) == 2
    garbage = tmp_path / "g.json"
    garbage.write_text("[[1, 2]")
    assert main(["roots", str(garbage)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content", ["5", '{"coeffs": [[1, 0, 0, 0]]}',
                                     "[[true, 0, 0, 0], [1, 0, 0, 0]]",
                                     '[["1", 0, 0, 0], [1, 0, 0, 0]]',
                                     pytest.param("[[1" + "0" * 400 + ", 0, 0, 0], [1, 0, 0, 0]]",
                                                  id="int past float")])
def test_malformed_coefficient_files_are_usage_errors(tmp_path, capsys, content):
    poly = tmp_path / "p.json"
    poly.write_text(content)
    assert main(["roots", str(poly)]) == 2
    assert "expected a list of coefficient rows" in capsys.readouterr().err


def test_tol_reaches_json_algebra_loading(tmp_path, quaternions, capsys):
    data = algebra_json(quaternions)
    c = np.array(data["structure_constants"], dtype=float)
    c[1, 2, 3] += 1e-12  # e1 e2 = e12 (1 + 1e-12): associative only to ~1e-12
    data["structure_constants"] = c.tolist()
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(data))
    poly = _write_poly(tmp_path / "p.json", [[1, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    for argv in (["info"], ["verify", "dims", "--trials", "2"], ["roots", poly]):
        assert main(argv + ["--algebra", str(path)]) == 0
        capsys.readouterr()
        assert main(argv + ["--algebra", str(path), "--tol", "1e-15"]) == 2
        assert "associativity" in capsys.readouterr().err


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
