"""Time every verify suite on two checkouts in one process, op by op.

    python tools/suite_ab.py PARENT CHANGE

PARENT and CHANGE are two checkouts of this repository.  Each one's
src/slicealgebra is copied into a temporary directory under a private
package name (the package imports itself only relatively), and both are
imported here, so the two sides share one interpreter and meet the same
phases of a machine whose speed drifts.  Each side is imported twice, in
two orders: the parent's first copy before the change's, then the change's
second copy before the parent's.  An op is one `run_suite` call: every
suite on H, Cl(0,3) and Cl(2,2) at 5 trials and on Cl(0,6) and Cl(3,3) at 3
trials, at seeds 0-29; a suite that does not apply is left out.  The
structure-tensor layer adds two kinds of op: `build`, one
`clifford_algebra(p, q)` for each of the five algebras (its associativity
check included), and `dump+load`, `dump_algebra` then `load_algebra` of
one dense Cl(2,3) (N = 32) in a seeded orthonormal basis that keeps the
unit, the same tensor on both sides.  The constructions layer adds `A0`,
`orthogonal.antisymmetric_subspace` under the identity inner product on H,
Cl(2,2), Cl(0,6) and Cl(3,3).  An InnerProduct keeps the A0 it built, so
each `A0` call makes its own G, `InnerProduct(np.eye(N))` (not the one
`InnerProduct.standard` keeps per algebra), and every round, and each
tracemalloc peak, times one build.  The solvers layer adds four kinds on
Cl(2,2) and Cl(3,3), one input a seed, drawn once as arrays (by a copy
of the parent's package imported for that alone) and given to both sides:
`witness member` and `witness random`, `zero_variety_witness` on w = (a,
b) with the zerodivisor b = (1 + e1) r (e1 squares to +1), and a = -s*b
for s = y e y^-1 (e a basis root, y = 1 + 0.3 r') or a standard normal,
as bench/workloads.py draws the benchmark's witness ops; and `Z0 member`
and `Z0 random`, `z0_equivalence_check` under the standard G on a =
-s*b, b = (1 + e1) r, for s from `sample_S0`, or on a standard normal a
and b.  Each search gets the rng default_rng(seed).  A `build`,
`dump+load` or `A0` op is the same call at every seed, repeated once per
seed so that its median, like a suite's, is taken over 30 ops; its row
prints no interval, since a
bootstrap over the seeds resamples repeats of one call and measures no
spread of the inputs (in an A/A run such rows read intervals that exclude
0, e.g. +0.9% [+0.1%, +1.4%]).  Each of 8 rounds
runs every op on both sides, on the copies of one import order, the orders
taking turns from round to round, and alternating which side goes first
from op to op.  An op's time in an order is its fastest round there.  The
table gives, for each (suite, algebra), the median over seeds and both
orders of the op times of each side, then the change: the median, over
seeds and both orders, of each op's paired ratio (change over parent, the
same op in the same order) less 1, and for a suite its 95% bootstrap
interval, the 2.5th and 97.5th percentiles of that median over 2000
resamples of the seeds (both orders of a seed drawn together; generator
seeded 0).  The
change in each order alone (parent imported first, change imported first)
is the median of the paired ratios in that order: the headline lies
between the two, and a gap between them is the bias of import order.  A
ratio of pooled medians would not: when the orders run at different
speeds the op times split into two clusters, and a ratio of their
unpaired medians can fall outside both orders' changes.  An `A0` row also
gives each side's tracemalloc peak of one call, after the rounds.  BLAS
runs on one thread.
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
SEARCH_ALGEBRAS = ("Cl(2,2)", "Cl(3,3)")
REPEATED = ("build", "dump+load", "A0")  # one call at every seed: no interval
SEEDS = range(30)
ROUNDS = 8  # 4 in each import order
RESAMPLES = 2000  # of the seeds, for the interval of the change


def _dense_cl23(algebra) -> np.ndarray:
    """Cl(2,3)'s tensor in the orthonormal basis of einsum_reference.rotation,
    seeded, which keeps the unit, with the unit law reset exactly."""
    c = algebra.clifford_algebra(2, 3).structure_constants
    return rotated(c, rotation(c.shape[0], np.random.default_rng(23)))


def _search_inputs(pkg) -> dict:
    """{(kind, algebra, seed): (a, b)}, the witness and Z0 inputs as arrays,
    drawn with the package `pkg` (see the module docstring)."""
    inputs = {}
    for alg_name in SEARCH_ALGEBRAS:
        alg = pkg.clifford_algebra(*ALGEBRAS[alg_name][0])
        root, zerodivisor = pkg.find_seed_root(alg).element, alg.unit() + alg.basis_element(1)
        for seed in SEEDS:
            rng = np.random.default_rng([seed, 0x5EA2C4])
            y = alg.unit() + 0.3 * alg.random_element(rng)
            b = zerodivisor * alg.random_element(rng)
            inputs["witness member", alg_name, seed] = -(pkg.right_divide(y * root, y) * b), b
            inputs["witness random", alg_name, seed] = (alg.random_element(rng),
                                                        zerodivisor * alg.random_element(rng))
            s = pkg.sample_S0(alg, pkg.InnerProduct.standard(alg), rng).element
            b = zerodivisor * alg.random_element(rng)
            inputs["Z0 member", alg_name, seed] = -(s * b), b
            inputs["Z0 random", alg_name, seed] = alg.random_element(rng), alg.random_element(rng)
    # grouped by (kind, algebra), seeds in turn, as the suite ops are: which
    # side runs first alternates over the seeds of a row
    return {key: (a.coeffs.copy(), b.coeffs.copy())
            for key, (a, b) in sorted(inputs.items(), key=lambda item: item[0][:2])}


def _package(checkout: str, name: str, into: str):
    """`checkout`'s package, copied into `into` and imported as `name`."""
    shutil.copytree(Path(checkout) / "src" / "slicealgebra", Path(into) / name)
    return importlib.import_module(name)


def _ops(checkout: str, name: str, into: str, inputs: dict) -> dict:
    """{(suite, algebra, seed): op} for every op of `checkout`'s package,
    imported as `name`, that applies; op() runs it.  `inputs` holds the
    witness and Z0 inputs (_search_inputs)."""
    pkg = _package(checkout, name, into)
    cli = importlib.import_module(f"{name}.cli")
    algebra = importlib.import_module(f"{name}.algebra")
    ops = {}
    for alg_name, ((p, q), _) in ALGEBRAS.items():
        for seed in SEEDS:  # the same call: 30 repeats
            ops["build", alg_name, seed] = lambda p=p, q=q: algebra.clifford_algebra(p, q)
    dense = algebra.Algebra(_dense_cl23(algebra), 0, tuple(f"f{k}" for k in range(32)))
    path = str(Path(into) / f"{name}-dense.json")

    def round_trip():
        algebra.dump_algebra(dense, path)
        algebra.load_algebra(path)

    for seed in SEEDS:
        ops["dump+load", "dense Cl(2,3)", seed] = round_trip
    orthogonal = importlib.import_module(f"{name}.orthogonal")
    for alg_name in A0_ALGEBRAS:
        alg = algebra.clifford_algebra(*ALGEBRAS[alg_name][0])
        for seed in SEEDS:  # the same call: 30 repeats
            ops["A0", alg_name, seed] = lambda a=alg: orthogonal.antisymmetric_subspace(
                a, orthogonal.InnerProduct(np.eye(a.dimension)))  # a new G: G keeps its A0
    searched = {alg_name: pkg.clifford_algebra(*ALGEBRAS[alg_name][0])
                for alg_name in SEARCH_ALGEBRAS}
    for (kind, alg_name, seed), (a, b) in inputs.items():
        alg = searched[alg_name]
        w = pkg.ComplexElement(alg.element(a), alg.element(b))
        if kind.startswith("Z0"):
            op = (lambda w=w, G=pkg.InnerProduct.standard(alg), k=seed:
                  pkg.z0_equivalence_check(w, G, rng=np.random.default_rng(k)))
        else:
            op = lambda w=w, k=seed: pkg.zero_variety_witness(w, rng=np.random.default_rng(k))
        op()  # untimed: the first call builds A0 under the standard G
        ops[kind, alg_name, seed] = op
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
        # sides[order][side], side 0 the parent: order 0 imports the parent
        # first, order 1 the change
        sides = [[None, None], [None, None]]
        inputs = _search_inputs(_package(parent, "slicealgebra_ab_inputs", tmp))
        for order, side in ((0, 0), (0, 1), (1, 1), (1, 0)):
            sides[order][side] = _ops((parent, change)[side], f"slicealgebra_ab{order}{side}",
                                      tmp, inputs)
        if any(ops.keys() != sides[0][0].keys() for pair in sides for ops in pair):
            sys.exit("the two checkouts apply different suites")
        keys = list(sides[0][0])
        fastest = np.full((2, 2, len(keys)), np.inf)  # [order, side, op]
        for rnd in range(ROUNDS):
            order = rnd % 2
            for k, key in enumerate(keys):
                for side in ((0, 1) if (rnd // 2 + k) % 2 == 0 else (1, 0)):
                    started = time.perf_counter()
                    sides[order][side][key]()
                    fastest[order, side, k] = min(fastest[order, side, k],
                                                  time.perf_counter() - started)
        peaks = {key: [_peak_mib(pair[key]) for pair in sides[0]]
                 for key in keys if key[0] == "A0"}
    print(f"{'suite':<16}{'algebra':<14}{'parent ms':>10}{'change ms':>10}{'change':>9}"
          f"{'95% interval':>18}{'p first':>9}{'c first':>9}{'parent MiB':>12}{'change MiB':>12}")
    for suite, alg_name in dict.fromkeys(key[:2] for key in keys):
        cols = [k for k, key in enumerate(keys) if key[:2] == (suite, alg_name)]
        before, after = (1e3 * np.median(fastest[:, side, cols]) for side in (0, 1))
        ratios = fastest[:, 1, cols] / fastest[:, 0, cols]  # [order, seed], paired
        interval = ""
        if suite not in REPEATED:
            picks = np.random.default_rng(0).integers(0, len(cols), (RESAMPLES, len(cols)))
            low, high = np.percentile(np.median(ratios[:, picks], axis=(0, 2)), [2.5, 97.5]) - 1
            interval = f"[{low:+.1%}, {high:+.1%}]"
        by_order = np.median(ratios, axis=1) - 1
        peak = peaks.get((suite, alg_name, 0))
        print(f"{suite:<16}{alg_name:<14}{before:>10.3f}{after:>10.3f}"
              f"{np.median(ratios) - 1:>+9.1%}{interval:>18}"
              f"{by_order[0]:>+9.1%}{by_order[1]:>+9.1%}"
              + (f"{peak[0]:>12.3f}{peak[1]:>12.3f}" if peak else ""))


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
