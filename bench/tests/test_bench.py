"""Tests of the benchmark's own logic.  Run with

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slicealgebra as sa
from slicealgebra import cli, zerovariety

import measure
import run
import tracer
import workloads
from measure import FAILED, OK, WRONG
from tracer import Span

REPO = Path(__file__).resolve().parents[2]


# -- self time on a synthetic span tree ----------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [Span(-1, "cli.run_suite", 0, 100),
             Span(0, "roots.sample_root", 10, 40),
             Span(1, "algebra.inverse", 15, 25),
             Span(0, "linalg.svd", 50, 60)]
    assert tracer.self_times(spans) == [100 - 30 - 10, 30 - 10, 10, 10]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [Span(-1, "a", 0, 100),
             Span(0, "b", 10, 50),
             Span(0, "c", 30, 70),   # overlaps b: union of b and c is 10..70
             Span(0, "d", 90, 120)]  # runs past the parent: only 90..100 counts
    assert tracer.self_times(spans)[0] == 100 - 60 - 10


def test_phase_counters_read_draws_statuses_and_svd_sizes():
    spans = [Span(-1, "roots.sample_root", 0, 50),
             Span(0, "algebra.is_zerodivisor", 1, 2),
             Span(0, "algebra.is_zerodivisor", 3, 4),
             Span(-1, "algebra.is_zerodivisor", 60, 61),  # not a draw
             Span(-1, "linalg.svd", 70, 80, detail=(True, 3 * 2 ** 20)),
             Span(-1, "linalg.svd", 80, 90, error=True, detail=None),
             Span(-1, "zerovariety.zero_variety_witness", 90, 95, detail="absent")]
    metrics = tracer.layer_metrics(tracer.phase_counters(spans))
    assert metrics["roots.sample_root.draws_per_root"] == 2.0
    assert metrics["algebra.is_zerodivisor.calls"] == 3
    assert metrics["linalg.svd.calls"] == 2
    assert metrics["linalg.svd.uv_calls"] == 1
    assert metrics["linalg.svd.errors"] == 1
    assert metrics["linalg.svd.computed_mb"] == 3.0
    assert metrics["zerovariety.zero_variety_witness.absent"] == 1
    assert metrics["zerovariety.zero_variety_witness.found"] == 0
    assert metrics["roots.sample_root.self_s"] == (50 - 2) / 1e9


def test_tracer_rebinds_every_importer_and_restores():
    original = sa.sample_root
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.sample_root is zerovariety.sample_root is sa.sample_root
        assert cli.sample_root is not original
        alg = sa.clifford_algebra(0, 2)
        report = sa.run_suite("dims", alg, "H", 2, 0, 1e-9)
    finally:
        t.uninstall()
    assert cli.sample_root is original and sa.sample_root is original
    assert report.passed
    names = [span.name for span in t.take()]
    assert names.count("cli.run_suite") == 1
    assert names.count("roots.sample_root") == 2
    assert "algebra.multiply_vec" in names and "linalg.svd" in names


# -- percentiles and the sample-count rule ---------------------------------------


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(3).exponential(size=37))
    for q in (0, 10, 50, 90, 100):
        assert measure.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_sample_count_rule_needs_ten_beyond_p90():
    assert measure.tail_count(list(range(91))) == 9  # p90 = 81
    assert not measure.enough_samples(list(range(91)))
    assert measure.enough_samples(list(range(92)))
    assert not measure.enough_samples([1.0] * 500)  # ties are not beyond p90
    assert not measure.enough_samples([])


def test_fastest_takes_each_ops_minimum_over_rounds():
    rounds = [[3.0, 1.0, 5.0], [2.0, 4.0, 6.0], [9.0, 1.5, 4.5]]
    assert measure.fastest(rounds) == [2.0, 1.0, 4.5]
    with pytest.raises(ValueError):
        measure.fastest([[1.0, 2.0], [1.0]])


def test_kind_medians_group_ops_by_name_without_seed():
    names = ["verify dims H seed=1", "verify dims H seed=2", "scan x seed=3"]
    assert measure.kind_medians_ms(names, [0.001, 0.003, 0.010]) == {
        "scan x": 10.0, "verify dims H": 2.0}


# -- classification of failed ops ------------------------------------------------


def test_classify_raised_and_checked_ops():
    assert measure.classify(RuntimeError("SVD did not converge"), None) == FAILED
    assert measure.classify(None, OK) == OK
    assert measure.classify(None, FAILED) == FAILED
    assert measure.classify(None, WRONG) == WRONG
    with pytest.raises(ValueError):
        measure.classify(None, "maybe")


def test_run_log_counts_failed_and_wrong_but_only_wrong_is_incorrect():
    log = measure.RunLog()
    log.record("a", OK)
    log.record("b", FAILED, "LinAlgError")
    assert (log.attempted, log.failed, log.correct) == (2, 1, True)
    log.record("c", WRONG, "bad hit")
    assert (log.attempted, log.failed, log.correct) == (3, 2, False)
    assert log.failed_frac == pytest.approx(2 / 3)
    assert set(log.failures) == {"b", "c"}


def test_run_round_counts_raising_op_as_failed():
    def boom():
        raise np.linalg.LinAlgError("SVD did not converge")

    ops = [workloads.Op("ok", lambda: 1, lambda r: (OK, "")),
           workloads.Op("raises", boom, lambda r: (OK, "")),
           workloads.Op("wrong", lambda: 2, lambda r: (WRONG, "fast and wrong")),
           workloads.Op("bad check", lambda: 3, lambda r: r.missing)]
    log = measure.RunLog()
    assert len(run.run_round(ops, log)) == len(ops)
    assert log.outcomes == {OK: 1, FAILED: 1, WRONG: 2}
    assert log.failures["raises"].startswith("failed: LinAlgError")


def _hit(z, kind):
    return zerovariety.ZeroScanHit(complex(z), kind, 0, 0.0)


def test_scan_check_separates_misses_from_wrong_answers():
    alg = sa.clifford_algebra(0, 2)
    c = alg.structure_constants
    x2p1 = np.array(sa.stem_from_slice_poly([alg.unit(), alg.zero(), alg.unit()]).coeff_matrix)
    spheres = [(1j, "sphere"), (-1j, "sphere")]
    check = workloads._scan_check(c, x2p1, spheres)
    assert check([_hit(1j, "sphere"), _hit(-1j, "sphere")]) == (OK, "")
    assert check([_hit(1j, "sphere")])[0] == FAILED
    assert check([_hit(1j, "sphere"), _hit(-1j, "isolated")])[0] == WRONG
    assert check([_hit(1j, "sphere"), _hit(-1j, "sphere"), _hit(0.5j, "isolated")])[0] == WRONG

    # x - q with q = 0.3 + 0.8 e1 vanishes at 0.3 + 0.8i through e1
    q = alg.element([0.3, 0.8, 0.0, 0.0])
    linear = np.array(sa.stem_from_slice_poly([-q, alg.unit()]).coeff_matrix)
    check = workloads._scan_check(c, linear, [(0.3 + 0.8j, "isolated")])
    assert check([_hit(0.3 + 0.8j, "isolated")]) == (OK, "")
    assert check([_hit(0.3 + 0.8j, "sphere")])[0] == WRONG
    assert check([_hit(0.3 + 0.7j, "isolated")])[0] == WRONG


def test_witness_check_verdicts():
    alg = sa.clifford_algebra(2, 2)
    c = alg.structure_constants
    rng = np.random.default_rng(5)
    n = alg.dimension
    b = workloads._lmat(c, workloads._unit(n) + np.eye(n)[1]) @ rng.standard_normal(n)
    s = workloads._conjugated_root(c, rng)
    a = -(workloads._lmat(c, s) @ b)
    member = sa.zero_variety_witness(sa.ComplexElement(alg.element(a), alg.element(b)))
    check = workloads._witness_check(c, a, b, member=True)
    assert check(member) == (OK, "")
    assert check(zerovariety.WitnessSearch("absent"))[0] == WRONG
    assert check(zerovariety.WitnessSearch("inconclusive"))[0] == FAILED
    random_a = rng.standard_normal(n)
    check = workloads._witness_check(c, random_a, b, member=False)
    assert check(zerovariety.WitnessSearch("absent")) == (OK, "")
    assert check(member)[0] == WRONG  # a root that does not solve this input


# -- inputs ---------------------------------------------------------------------


def test_dense_generator_keeps_the_unit_exact_and_round_trips(tmp_path):
    base = sa.clifford_algebra(1, 2).structure_constants
    c = workloads.dense_structure_constants(base, np.random.default_rng(0))
    n = c.shape[0]
    assert np.array_equal(c[0], np.eye(n)) and np.array_equal(c[:, 0], np.eye(n))
    assert np.count_nonzero(np.abs(c) > 1e-12) > 4 * np.count_nonzero(base)
    alg = sa.make_algebra(c)  # unit law and associativity hold
    path = tmp_path / "dense.json"
    sa.dump_algebra(alg, str(path))
    assert np.array_equal(sa.load_algebra(str(path)).structure_constants, c)


def test_inputs_are_a_function_of_the_seed():
    first = [op.name for op in workloads.build("suites-small", 4, "unused", 3)]
    again = [op.name for op in workloads.build("suites-small", 4, "unused", 3)]
    other = [op.name for op in workloads.build("suites-small", 5, "unused", 3)]
    assert first == again
    assert first != other and len(first) == len(other)
    per_pass = len(first) // 3
    passes = {tuple(first[k * per_pass:(k + 1) * per_pass]) for k in range(3)}
    assert len(passes) == 3  # every pass has its own inputs


def test_pass_count_depends_on_seconds_only():
    assert run.pass_count("large-and-zeros", 0.1) == 1
    for workload, pass_s in run.PASS_SECONDS.items():
        assert run.pass_count(workload, 40 * run.ROUNDS * pass_s) == 40
    assert run.pass_count("suites-small", 45) == run.pass_count("suites-small", 45.0)


# -- the contract with BENCHMARK.json -------------------------------------------


def test_reported_metric_names_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(workloads.BUILDERS) == run.WORKLOADS


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "suites-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
