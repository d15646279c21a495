"""Time every verify suite on two checkouts in one process, op by op.

    python tools/suite_ab.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository.  Each one's
src/slicealgebra is copied into a temporary directory under a private
package name (the package imports itself only relatively), and both are
imported here, so the two sides share one interpreter and meet the same
phases of a machine whose speed drifts.  An op is one `run_suite` call:
every suite on H, Cl(0,3) and Cl(2,2) at 5 trials and on Cl(0,6) and
Cl(3,3) at 3 trials, at seeds 0-29; a suite that does not apply is left
out.  The structure-tensor layer adds two kinds of op: `build`, one
`clifford_algebra(p, q)` for each of the five algebras (its associativity
check included), and `dump+load`, `dump_algebra` then `load_algebra` of
one dense Cl(2,3) (N = 32) in a seeded orthonormal basis that keeps the
unit, the same tensor on both sides.  The constructions layer adds `A0`,
`orthogonal.antisymmetric_subspace` under the standard inner product on H,
Cl(2,2), Cl(0,6) and Cl(3,3), one op per seed (the same call).  An
InnerProduct keeps the A0 it built, so each `A0` call makes its own G and
every round, and each tracemalloc peak, times one build.  Each of 7 rounds runs every op on both sides, alternating which
side goes first from op to op.  An op's time is its fastest round.  The table
gives, for each (suite, algebra), the median over seeds of the op times of
each side and the relative change; an `A0` row also gives each side's
tracemalloc peak of one call, after the rounds.  BLAS runs on one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from einsum_reference import rotated, rotation  # noqa: E402

ALGEBRAS = {"H": ((0, 2), 5), "Cl(0,3)": ((0, 3), 5), "Cl(2,2)": ((2, 2), 5),
            "Cl(0,6)": ((0, 6), 3), "Cl(3,3)": ((3, 3), 3)}
A0_ALGEBRAS = ("H", "Cl(2,2)", "Cl(0,6)", "Cl(3,3)")
SEEDS = range(30)
ROUNDS = 7


def _dense_cl23(algebra) -> np.ndarray:
    """Cl(2,3)'s tensor in the orthonormal basis of einsum_reference.rotation,
    seeded, which keeps the unit, with the unit law reset exactly."""
    c = algebra.clifford_algebra(2, 3).structure_constants
    return rotated(c, rotation(c.shape[0], np.random.default_rng(23)))


def _ops(checkout: str, name: str, into: str) -> dict:
    """{(suite, algebra, seed): op} for every op of `checkout`'s package,
    imported as `name`, that applies; op() runs it."""
    shutil.copytree(Path(checkout) / "src" / "slicealgebra", Path(into) / name)
    cli = importlib.import_module(f"{name}.cli")
    algebra = importlib.import_module(f"{name}.algebra")
    ops = {}
    for alg_name, ((p, q), _) in ALGEBRAS.items():
        ops["build", alg_name, 0] = lambda p=p, q=q: algebra.clifford_algebra(p, q)
    dense = algebra.Algebra(_dense_cl23(algebra), 0, tuple(f"f{k}" for k in range(32)))
    path = str(Path(into) / f"{name}-dense.json")

    def round_trip():
        algebra.dump_algebra(dense, path)
        algebra.load_algebra(path)

    ops["dump+load", "dense Cl(2,3)", 0] = round_trip
    orthogonal = importlib.import_module(f"{name}.orthogonal")
    for alg_name in A0_ALGEBRAS:
        alg = algebra.clifford_algebra(*ALGEBRAS[alg_name][0])
        for seed in SEEDS:  # the same call: 30 repeats
            ops["A0", alg_name, seed] = lambda a=alg: orthogonal.antisymmetric_subspace(
                a, orthogonal.InnerProduct.standard(a))  # a new G: G keeps the A0 it built
    for alg_name, ((p, q), trials) in ALGEBRAS.items():
        alg = cli.clifford_algebra(p, q)
        for suite in cli.SUITES:
            for seed in SEEDS:
                op = (lambda s=suite, a=alg, n=alg_name, t=trials, k=seed:
                      cli.run_suite(s, a, n, t, k, 1e-9))
                try:
                    op()  # untimed: the first call fills the algebra's caches
                except cli.SuiteNotApplicableError:
                    break
                ops[suite, alg_name, seed] = op
    return ops


def main(parent: str, change: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [_ops(path, f"slicealgebra_ab{k}", tmp) for k, path in enumerate((parent, change))]
        if sides[0].keys() != sides[1].keys():
            sys.exit("the two checkouts apply different suites")
        keys = list(sides[0])
        fastest = np.full((2, len(keys)), np.inf)
        for rnd in range(ROUNDS):
            for k, key in enumerate(keys):
                for side in ((0, 1) if (rnd + k) % 2 == 0 else (1, 0)):
                    started = time.perf_counter()
                    sides[side][key]()
                    fastest[side, k] = min(fastest[side, k], time.perf_counter() - started)
        peaks = {key: [_peak_mib(side[key]) for side in sides] for key in keys if key[0] == "A0"}
    print(f"{'suite':<14}{'algebra':<14}{'parent ms':>10}{'change ms':>10}{'change':>9}"
          f"{'parent MiB':>12}{'change MiB':>12}")
    for suite, alg_name in dict.fromkeys(key[:2] for key in keys):
        cols = [k for k, key in enumerate(keys) if key[:2] == (suite, alg_name)]
        before, after = (1e3 * np.median(fastest[side, cols]) for side in (0, 1))
        peak = peaks.get((suite, alg_name, 0))
        print(f"{suite:<14}{alg_name:<14}{before:>10.3f}{after:>10.3f}"
              f"{after / before - 1:>+9.1%}" + (f"{peak[0]:>12.3f}{peak[1]:>12.3f}" if peak else ""))


def _peak_mib(op) -> float:
    """tracemalloc's peak over one call of op, in MiB."""
    tracemalloc.start()
    try:
        op()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
