"""The job-summary row of tools/call_count_row.py, which both benchmark
steps of the CI workflow pipe a traced run's result line into."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "call_count_row.py"


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
