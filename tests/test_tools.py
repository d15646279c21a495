"""The job-summary row of tools/call_count_row.py, which both benchmark
steps of the CI workflow pipe a traced run's result line into, and the
seed check of tools/report_set.py."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SCRIPT = TOOLS / "call_count_row.py"
sys.path.insert(0, str(TOOLS))

from report_set import seed_dependent_info  # noqa: E402


def _row(workload: str, result: dict) -> str:
    done = subprocess.run([sys.executable, str(SCRIPT), workload], input=json.dumps(result),
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_the_row_gives_the_gather_and_product_counts_in_order():
    metrics = {"algebra.left_matrix_vec.calls": {"value": 10528, "unit": "count"},
               "algebra.right_matrix_vec.calls": {"value": 3398, "unit": "count"},
               "algebra.multiply_vec.calls": {"value": 3526, "unit": "count"},
               "wall_s": {"value": 1.2, "unit": "s"}}
    assert _row("suites-small", {"correct": True, "metrics": metrics}) == \
        "| suites-small | 10528 | 3398 | 3526 |\n"


def test_a_count_the_run_did_not_report_is_none():
    """An untraced run reports no call counts; a result with no metrics
    still gives a row."""
    metrics = {"algebra.left_matrix_vec.calls": {"value": 7, "unit": "count"}}
    assert _row("w", {"metrics": metrics}) == "| w | 7 | None | None |\n"
    assert _row("w", {"correct": False}) == "| w | None | None | None |\n"


def test_the_report_set_names_each_algebra_whose_info_moves_with_the_seed(tmp_path):
    """An algebra run at seed 0 alone is not compared."""
    for name, seed0, seed7 in (("H", "a", "a"), ("M2(R)", "a", "b"), ("rot-Cl(1,1)", "c", "d"),
                               ("T2(R)", "a", None)):
        (tmp_path / f"info_{name}_seed0.json").write_text(seed0)
        if seed7 is not None:
            (tmp_path / f"info_{name}_seed7.json").write_text(seed7)
    assert seed_dependent_info(tmp_path) == ["M2(R)", "rot-Cl(1,1)"]
