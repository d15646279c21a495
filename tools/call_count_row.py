"""One markdown table row of a traced benchmark run's call counts.

    python bench/run.py --workload W --seed 1 --seconds 4 --trace 1 | tail -n 1 |
        python tools/call_count_row.py W

reads the run's result line (JSON) on stdin and prints
`| W | left_matrix_vec | right_matrix_vec | multiply_vec |`: the
operator-gather and product call counts, the `algebra.<name>.calls`
metrics, each "None" when the run did not report it.
"""

from __future__ import annotations

import json
import sys

COUNTED = ("left_matrix_vec", "right_matrix_vec", "multiply_vec")


def row(workload: str, result: dict) -> str:
    metrics = result.get("metrics", {})
    counts = [str(metrics.get(f"algebra.{name}.calls", {}).get("value")) for name in COUNTED]
    return "| " + " | ".join([workload, *counts]) + " |"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(row(sys.argv[1], json.load(sys.stdin)))
