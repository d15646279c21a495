"""Write the CLI's info, verify and roots reports for a fixed set of inputs.

    python tools/report_set.py OUT_DIR

Runs `slicealg verify SUITE --algebra A --seed S` for every suite on H,
Cl(0,3), Cl(1,1), Cl(2,1), Cl(2,2), Cl(3,0), Cl(0,6) and Cl(3,3) at seeds 0
and 7, with 200 trials (40 at N = 64): 128 runs.  Runs `slicealg info
--algebra A --seed S` on the same algebras and seeds, whose zerodivisor
witness pins `is_zerodivisor`'s verdicts: 16 runs.  Writes H, Cl(1,1),
Cl(0,3) and Cl(2,2) in a seeded orthogonal basis that keeps the unit to
OUT_DIR/algebra_rot-<algebra>.json, whose dense tensors take the (N, N^2)
kernel path, and runs every suite (200 trials) and `info` on each at
seeds 0 and 7: 72 runs.  Runs `slicealg roots` on
H, Cl(0,3), Cl(1,1) and Cl(2,2) for x^2 + 1, (x^2 + 1)^3, x^5, x^4 (x^2 - 1),
1 + 1e40 x^2, 1e10 + 1e-300 x^2, three seeded random stems of degree 2, 3
and 4, and the degree-4 one times 1e-200, each over the regions +-2,
+-1e100 and +-1e300: 120 runs, whose scales reach the ends of the float
range.  Runs `slicealg roots` on H for x^2 + 1 with --target=1e300,0,0,0
and with --target=1e308,0,0,0, and for -1e308 + x^2, over the same three
regions: 9 runs, whose terms overflow unless the scan scales them.  Runs
every suite on C and H at --tol 1e-6 and at --tol 1e-1, seeds 0 and 1, with
200 trials: 64 runs, whose verdicts follow the tolerance rule at a tol other
than the default (at 1e-1 a cone member can be real to the tolerance).
Writes each algebra of tests/einsum_reference.py's CORPUS (matrix
algebras, tensor products, dual numbers, direct sums, T2(R)) to
OUT_DIR/algebra_<algebra>.json and runs every suite and `info` at seeds 0
and 7 with 40 trials on the six where S is nonempty, and `traces` and
`info` at seed 0 on the five where it is empty: 118 runs.  527 runs in
all, on the package in this checkout's src/, from
OUT_DIR as the working directory (so a rotated algebra's report names it
by its file name alone).  Each JSON report
goes to OUT_DIR/<suite>_<algebra>_seed<S>.json or
OUT_DIR/<suite>_<algebra>_tol<T>_seed<S>.json (a suite that does not apply
writes none), OUT_DIR/info_<algebra>_seed<S>.json,
OUT_DIR/roots_<stem>_<algebra>_<region>.json or
OUT_DIR/roots_<stem>_target<T>_<algebra>_<region>.json, each
coefficient file to OUT_DIR/poly_<stem>_<algebra>.json, and every exit code
to OUT_DIR/exit_codes.json, so that `diff -r` of the directories written by
two checkouts lists every report a change moved (max_residual is
rounding-level and differs between BLAS builds).  Exits 1, naming the runs,
when any run exits 1 or 3 (a failed check or an internal numerical failure)
or raises a RuntimeWarning (numpy's over- or underflow, invalid value or
division by zero, which a run must not meet), and, naming the algebras,
when an algebra's `info` reports at seeds 0 and 7 differ (`info` ignores
--seed).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from einsum_reference import CORPUS, rotated, rotation, s_nonempty  # noqa: E402
from slicealgebra import dump_algebra, make_algebra  # noqa: E402
from slicealgebra.cli import SUITES, main, resolve_algebra  # noqa: E402

ALGEBRAS = {"H": ("quaternions", 4), "Cl(0,3)": ("clifford 0 3", 8),
            "Cl(1,1)": ("clifford 1 1", 4), "Cl(2,1)": ("clifford 2 1", 8),
            "Cl(2,2)": ("clifford 2 2", 16), "Cl(3,0)": ("clifford 3 0", 8),
            "Cl(0,6)": ("clifford 0 6", 64), "Cl(3,3)": ("clifford 3 3", 64)}
ROTATED = ("H", "Cl(1,1)", "Cl(0,3)", "Cl(2,2)")
SEEDS = (0, 7)
# roots: real coefficients of the stems, index = degree, times the unit
ROOTS_ALGEBRAS = ("H", "Cl(0,3)", "Cl(1,1)", "Cl(2,2)")
STEMS = {"x2+1": [1, 0, 1], "x2+1_cubed": [1, 0, 3, 0, 3, 0, 1], "x5": [0, 0, 0, 0, 0, 1],
         "x4_x2-1": [0, 0, 0, 0, -1, 0, 1], "1+1e40x2": [1, 0, 1e40],
         "1e10+1e-300x2": [1e10, 0, 1e-300]}
RANDOM_DEGREES = (2, 3, 4)
REGIONS = {"2": "-2,2,-2,2", "1e100": "-1e100,1e100,-1e100,1e100",
           "1e300": "-1e300,1e300,-1e300,1e300"}
# roots near the float limit on H: (stem, its real coefficients, the target's real part)
LIMIT_RUNS = (("x2+1", [1.0, 0.0, 1.0], "1e300"), ("x2+1", [1.0, 0.0, 1.0], "1e308"),
              ("-1e308+x2", [-1e308, 0.0, 1.0], None))
# every suite at a tol other than the default
TOL_ALGEBRAS = {"C": "complex", "H": "quaternions"}
TOLS, TOL_SEEDS = ("1e-6", "1e-1"), (0, 1)


def _stems(name: str) -> dict[str, list[list[float]]]:
    """The coefficient rows of every roots stem on the algebra `name`."""
    alg = resolve_algebra(ALGEBRAS[name][0])[1]
    unit = alg.unit().coeffs
    stems = {stem: [(c * unit).tolist() for c in real] for stem, real in STEMS.items()}
    rng = np.random.default_rng(ROOTS_ALGEBRAS.index(name))
    for degree in RANDOM_DEGREES:
        stems[f"random{degree}"] = rng.standard_normal((degree + 1, alg.dimension)).tolist()
    stems["1e-200random4"] = (1e-200 * np.array(stems["random4"])).tolist()
    return stems


def _write_rotated(name: str) -> str:
    """Write the algebra `name` in the orthogonal basis of
    einsum_reference.rotation, seeded, which keeps the unit; return the
    file name."""
    c = resolve_algebra(ALGEBRAS[name][0])[1].structure_constants
    basis = rotation(c.shape[0], np.random.default_rng(ROTATED.index(name)))
    path = f"algebra_rot-{name}.json"
    dump_algebra(make_algebra(rotated(c, basis)), path)
    return path


def _run(argv: list[str]) -> tuple[int, list[str]]:
    """main(argv)'s exit code and the messages of the RuntimeWarnings it raised."""
    with contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:  # summaries hold wall times
        warnings.simplefilter("always")
        code = main(argv)
    return code, sorted({str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)})


def write_report_set(out_dir: Path) -> tuple[dict[str, int], dict[str, list[str]]]:
    """Write every report; return the exit code of each run, and the
    warnings of each run that raised any."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out_dir = out_dir.resolve()
    os.chdir(out_dir)
    algebras = dict(ALGEBRAS)
    for name in ROTATED:
        algebras[f"rot-{name}"] = (_write_rotated(name), ALGEBRAS[name][1])
    runs = {}
    for suite in SUITES:
        for name, (spec, dimension) in algebras.items():
            for seed in SEEDS:
                stem = f"{suite}_{name}_seed{seed}"
                trials = 40 if dimension == 64 else 200
                runs[stem] = _run(["verify", suite, "--algebra", spec, "--seed", str(seed),
                                   "--trials", str(trials),
                                   "--json", str(out_dir / f"{stem}.json")])
    for tol in TOLS:
        for suite in SUITES:
            for name, spec in TOL_ALGEBRAS.items():
                for seed in TOL_SEEDS:
                    stem = f"{suite}_{name}_tol{tol}_seed{seed}"
                    runs[stem] = _run(["verify", suite, "--algebra", spec, "--seed", str(seed),
                                       "--tol", tol, "--json", str(out_dir / f"{stem}.json")])
    for name, (spec, _) in algebras.items():
        for seed in SEEDS:
            stem = f"info_{name}_seed{seed}"
            runs[stem] = _run(["info", "--algebra", spec, "--seed", str(seed),
                               "--json", str(out_dir / f"{stem}.json")])
    for name, (tensor, _) in CORPUS.items():
        spec = f"algebra_{name}.json"
        dump_algebra(make_algebra(tensor), spec)
        suites, seeds = (SUITES, SEEDS) if s_nonempty(name) else (("traces",), SEEDS[:1])
        for seed in seeds:
            for suite in suites:
                stem = f"{suite}_{name}_seed{seed}"
                runs[stem] = _run(["verify", suite, "--algebra", spec, "--seed", str(seed),
                                   "--trials", "40", "--json", str(out_dir / f"{stem}.json")])
            stem = f"info_{name}_seed{seed}"
            runs[stem] = _run(["info", "--algebra", spec, "--seed", str(seed),
                               "--json", str(out_dir / f"{stem}.json")])
    roots = [(name, stem, rows, None) for name in ROOTS_ALGEBRAS
             for stem, rows in _stems(name).items()]
    roots += [("H", stem, [[c, 0.0, 0.0, 0.0] for c in real], target)
              for stem, real, target in LIMIT_RUNS]
    for name, stem, rows, target in roots:
        poly = out_dir / f"poly_{stem}_{name}.json"
        poly.write_text(json.dumps(rows) + "\n")
        options = [] if target is None else [f"--target={target},0,0,0"]
        stem += "" if target is None else f"_target{target}"
        for region, extent in REGIONS.items():
            report = f"roots_{stem}_{name}_{region}"
            runs[report] = _run(["roots", str(poly), "--algebra", ALGEBRAS[name][0],
                                 f"--region={extent}", *options,
                                 "--json", str(out_dir / f"{report}.json")])
    codes = {run: code for run, (code, _) in runs.items()}
    (out_dir / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    return codes, {run: messages for run, (_, messages) in runs.items() if messages}


def seed_dependent_info(out_dir: Path) -> list[str]:
    """The algebras whose `info` reports in out_dir differ between seeds 0 and 7."""
    differ = []
    for path in sorted(out_dir.glob("info_*_seed0.json")):
        other = path.with_name(path.name.replace("_seed0.json", "_seed7.json"))
        if other.exists() and other.read_bytes() != path.read_bytes():
            differ.append(path.name[len("info_"):-len("_seed0.json")])
    return differ


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out_dir = Path(sys.argv[1]).resolve()
    codes, warned = write_report_set(out_dir)
    seeded = seed_dependent_info(out_dir)
    tally = {code: list(codes.values()).count(code) for code in sorted(set(codes.values()))}
    print(f"{len(codes)} runs; exit codes {tally}; {len(warned)} warned")
    failed = sorted(run for run, code in codes.items() if code in (1, 3))
    for run in failed:
        print(f"exit {codes[run]}: {run}")
    for run, messages in sorted(warned.items()):
        print(f"warned: {run}: {'; '.join(messages)}")
    for name in seeded:
        print(f"info differs between seeds 0 and 7: {name}")
    sys.exit(1 if failed or warned or seeded else 0)
