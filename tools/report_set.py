"""Write the CLI's verify reports for a fixed set of suites, algebras and seeds.

    python tools/report_set.py OUT_DIR

Runs `slicealg verify SUITE --algebra A --seed S` for every suite on H,
Cl(0,3), Cl(1,1), Cl(2,1), Cl(2,2), Cl(3,0), Cl(0,6) and Cl(3,3) at seeds 0
and 7, with 200 trials (40 at N = 64), on the package in this checkout's
src/. Each JSON report goes to OUT_DIR/<suite>_<algebra>_seed<S>.json (a
suite that does not apply writes none), and every exit code to
OUT_DIR/exit_codes.json, so that `diff -r` of the directories written by two
checkouts lists every report a change moved. It is not a pass/fail gate:
max_residual is rounding-level and differs between BLAS builds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from slicealgebra.cli import SUITES, main  # noqa: E402

ALGEBRAS = {"H": ("quaternions", 4), "Cl(0,3)": ("clifford 0 3", 8),
            "Cl(1,1)": ("clifford 1 1", 4), "Cl(2,1)": ("clifford 2 1", 8),
            "Cl(2,2)": ("clifford 2 2", 16), "Cl(3,0)": ("clifford 3 0", 8),
            "Cl(0,6)": ("clifford 0 6", 64), "Cl(3,3)": ("clifford 3 3", 64)}
SEEDS = (0, 7)


def write_report_set(out_dir: Path) -> dict[str, int]:
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for suite in SUITES:
        for name, (spec, dimension) in ALGEBRAS.items():
            for seed in SEEDS:
                stem = f"{suite}_{name}_seed{seed}"
                trials = 40 if dimension == 64 else 200
                with contextlib.redirect_stderr(io.StringIO()):  # summaries hold wall times
                    codes[stem] = main(["verify", suite, "--algebra", spec, "--seed", str(seed),
                                        "--trials", str(trials),
                                        "--json", str(out_dir / f"{stem}.json")])
    (out_dir / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    return codes


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    codes = write_report_set(Path(sys.argv[1]))
    tally = {code: list(codes.values()).count(code) for code in sorted(set(codes.values()))}
    print(f"{len(codes)} runs; exit codes {tally}")
