"""The benchmark's workloads: inputs built from the workload seed, the fixed
op list of every pass of a run, and the correctness check of every op.

An op is one `run_suite` call, one `discrete_zero_scan` call or one
`zero_variety_witness` call.  The library is reached through attribute
lookups on the `slicealgebra` package at call time, so the traced run sees
every call.  Checks use their own arithmetic on the raw structure constants
(`_lmat`, `_rmat`, `_stem_value`), never the library's kernels.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import slicealgebra as sa
from slicealgebra import cli

from measure import FAILED, OK, WRONG

SMALL_ALGEBRAS = ((0, 2), (0, 3), (2, 2))  # H, Cl(0,3), Cl(2,2)
LARGE_CLIFFORD = ((0, 6), (3, 3))
DENSE_BASE = (2, 3)
NON_TWISTOR = tuple(s for s in cli.SUITES if s != "twistor")

# Ops per suite on each N=64 algebra.  Op latencies cluster by kind, and a
# percentile that falls between two clusters jumps from run to run.  In
# large-and-zeros these counts, with the many cheap Cl(2,2) witness ops,
# put p50 inside the traces/dims/zero-variety cluster and p90 inside the
# N=64 stereographic cluster.  Above p90 lie the Cl(2,2) scans and the
# slowest ops: N=64 cone, and the dense algebra's ops, whose seed search
# makes their cost vary widely.
LARGE_REPEATS = {"traces": 22, "dims": 22, "zero-variety": 22,
                 "nijenhuis": 4, "absorption": 4, "stereographic": 16}

REGION = (-2.0, 2.0, -2.0, 2.0)
# The zero ops.  Cl(3,3) members are few because their Newton restarts have
# a heavy-tailed cost: rare inputs take seconds.
RANDOM_STEMS_PER_DEGREE = {(0, 2): 1, (0, 3): 1, (2, 2): 2}
WITNESS_INPUTS = {(2, 2): (48, 50), (3, 3): (4, 16)}  # (members, random inputs)
# Independent re-checks accept a residual up to this, relative to input size.
RECHECK_RTOL = 1e-6
WITNESS_RTOL = 1e-8
# Mixed into pass seeds so that they differ from op seeds.
PASS_TAG = 0x9A55


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]  # -> (outcome, reason)


def op_seed(seed: int, index: int) -> int:
    """Seed of op `index` in a pass with seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def pass_seed(seed: int, index: int) -> int:
    """Seed of pass `index` in a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, PASS_TAG, index]).generate_state(1)[0])


def _algebra_id(p: int, q: int) -> str:
    return f"clifford({p},{q})"


@functools.cache
def _clifford(p: int, q: int):
    """Each Clifford algebra is built once per process, as a user would."""
    return sa.clifford_algebra(p, q)


# -- independent arithmetic ----------------------------------------------------


def _lmat(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Matrix of x -> a*x straight from the structure constants."""
    return np.tensordot(a, c, axes=(0, 0)).T


def _rmat(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of x -> x*b straight from the structure constants."""
    return np.tensordot(b, c, axes=(0, 1)).T


def _stem_value(coeff_matrix: np.ndarray, z: complex) -> np.ndarray:
    """F(z) = sum_k z^k c_k by explicit powers."""
    return (complex(z) ** np.arange(coeff_matrix.shape[0])) @ coeff_matrix


def _unit(n: int) -> np.ndarray:
    v = np.zeros(n)
    v[0] = 1.0
    return v


def _blade_root(c: np.ndarray) -> np.ndarray:
    """A basis element squaring to -1 (every Clifford algebra used has one)."""
    n = c.shape[0]
    for k in range(n):
        if np.array_equal(c[k, k], -_unit(n)):
            return np.eye(n)[k]
    raise ValueError("no basis element squares to -1")


def _conjugated_root(c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """y e y^-1 for a basis root e and a random y near the unit."""
    n = c.shape[0]
    y = _unit(n) + 0.3 * rng.standard_normal(n)
    y_inv = np.linalg.inv(_lmat(c, y))[:, 0]
    return _lmat(c, _lmat(c, y) @ _blade_root(c)) @ y_inv


def _zero_residual(c: np.ndarray, a: np.ndarray, b: np.ndarray,
                   s: np.ndarray) -> tuple[float, float]:
    """(||a + s b||, ||s s + 1||)."""
    n = c.shape[0]
    return (float(np.linalg.norm(a + _lmat(c, s) @ b)),
            float(np.linalg.norm(_lmat(c, s) @ s + _unit(n))))


# -- dense algebra -----------------------------------------------------------


def dense_structure_constants(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """`base` (unit at index 0) in a random orthonormal basis that keeps the
    unit.  The unit rows and columns are then set to the exact identity,
    because the algebra constructor requires the unit law exactly."""
    n = base.shape[0]
    q, r = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
    basis = np.eye(n)
    basis[1:, 1:] = q * np.sign(np.diag(r))
    # f_i = sum_a basis[a, i] e_a, and basis^-1 = basis^T
    c = np.einsum("ai,bj,abm,mk->ijk", basis, basis, base, basis, optimize=True)
    c[0] = np.eye(n)
    c[:, 0] = np.eye(n)
    return c


def dense_algebra(seed: int, scratch_dir: str):
    """Dense Cl(2,3) from the workload seed, round-tripped through the JSON
    interchange (`dump_algebra` / `load_algebra`)."""
    base = _clifford(*DENSE_BASE)
    c = dense_structure_constants(base.structure_constants,
                                  np.random.default_rng([seed, 0xDE45E]))
    labels = ["1"] + [f"f{k}" for k in range(1, c.shape[0])]
    os.makedirs(scratch_dir, exist_ok=True)
    path = os.path.join(scratch_dir, f"dense-{os.getpid()}.json")
    try:
        sa.dump_algebra(sa.Algebra(c, 0, tuple(labels)), path)
        loaded = sa.load_algebra(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    if not np.array_equal(loaded.structure_constants, c):
        raise ValueError("dense algebra does not round-trip through JSON")
    return loaded


# -- verify ops ----------------------------------------------------------------


def _check_report(report) -> tuple[str, str]:
    if report.pass_count + len(report.failures) != report.trials:
        return WRONG, "pass count and failures disagree with trials"
    if report.passed:
        return OK, ""
    return FAILED, f"{len(report.failures)} trial(s) failed: {report.failures[0]['input']}"


def _verify_op(suite: str, algebra, algebra_id: str, trials: int, seed: int) -> Op:
    tol = sa.config.default_tol()
    return Op(f"verify {suite} {algebra_id} trials={trials} seed={seed}",
              lambda: sa.run_suite(suite, algebra, algebra_id, trials, seed, tol),
              _check_report)


def _verify_ops(pairs, seed: int) -> list[Op]:
    """pairs: (suite, algebra, algebra_id, trials, repeats)."""
    ops = []
    for suite, algebra, algebra_id, trials, repeats in pairs:
        for _ in range(repeats):
            ops.append(_verify_op(suite, algebra, algebra_id, trials,
                                  op_seed(seed, len(ops))))
    return ops


def suites_small(seed: int, scratch_dir: str) -> list[Op]:
    pairs = []
    for p, q in SMALL_ALGEBRAS:
        alg = _clifford(p, q)
        suites = cli.SUITES if (p, q) == (0, 2) else NON_TWISTOR
        pairs += [(s, alg, _algebra_id(p, q), 5, 2) for s in suites]
    return _verify_ops(pairs, seed)


def suites_large(seed: int, scratch_dir: str) -> list[Op]:
    pairs = []
    for p, q in LARGE_CLIFFORD:
        alg, algebra_id = _clifford(p, q), _algebra_id(p, q)
        pairs += [(suite, alg, algebra_id, 3, repeats)
                  for suite, repeats in LARGE_REPEATS.items()]
        # two sample_S0 calls per op, each one full-U SVD of an N^2 x N matrix
        pairs.append(("cone", alg, algebra_id, 1, 1))
    dense = dense_algebra(seed, scratch_dir)
    pairs += [(suite, dense, "dense-clifford(2,3)", 1 if suite == "cone" else 3, 1)
              for suite in NON_TWISTOR]
    return _verify_ops(pairs, seed)


# -- zero scans --------------------------------------------------------------


def _recheck_hit(c: np.ndarray, coeff_matrix: np.ndarray, hit) -> str:
    """'' if the hit holds up by independent arithmetic, else the reason."""
    w = _stem_value(coeff_matrix, hit.z)
    a, b = w.real, w.imag
    scale = 1.0 + float(np.linalg.norm(coeff_matrix))
    bound = RECHECK_RTOL * scale
    if hit.classification in ("real", "sphere"):
        if hit.classification == "real" and hit.z.imag != 0.0:
            return f"real hit {hit.z} off the axis"
        # a zero for every root s (or for real z) forces F(z) = 0 in A (x) C
        if np.linalg.norm(w) > bound:
            return f"{hit.classification} hit {hit.z}: |F(z)| = {np.linalg.norm(w):.2e}"
        return ""
    if hit.classification != "isolated":
        return f"unknown class {hit.classification!r}"
    # s b = -a: unique s when R_b is invertible, and it must square to -1
    rb = _rmat(c, b)
    s, *_ = np.linalg.lstsq(rb, -a, rcond=None)
    lin, root = _zero_residual(c, a, b, s)
    if lin <= bound and root <= bound:
        return ""
    sv = np.linalg.svd(rb, compute_uv=False)
    if sv[-1] > 1e-8 * sv[0]:
        return f"isolated hit {hit.z}: unique s misses (|a+sb|={lin:.2e}, |ss+1|={root:.2e})"
    # b is a zerodivisor: (i + s) w = 0 still forces R_w to be singular
    sw = np.linalg.svd(_rmat(c, a) + 1j * _rmat(c, b), compute_uv=False)
    if lin > bound or sw[-1] > RECHECK_RTOL * sw[0]:
        return f"isolated hit {hit.z}: F(z) is not a zero-variety value"
    return ""


def _scan_check(c: np.ndarray, coeff_matrix: np.ndarray, expected):
    """expected: the (z, class) zeros the input is known to have, or [].

    A hit that fails the independent re-check, or a known zero reported
    with the wrong class, is a wrong answer.  A known zero the grid search
    misses is a failed op: the scan is a bounded search, not a proof."""

    def check(hits) -> tuple[str, str]:
        for hit in hits:
            reason = _recheck_hit(c, coeff_matrix, hit)
            if reason:
                return WRONG, reason
        for z, kind in expected:
            match = [h for h in hits if abs(h.z - z) <= 1e-6]
            if not match:
                return FAILED, f"missed the {kind} zero at {z:.6f}"
            if match[0].classification != kind:
                return WRONG, f"{kind} zero at {z:.6f} reported {match[0].classification}"
        return OK, ""

    return check


def _scan_op(name: str, stem, seed: int, expected) -> Op:
    c = stem.algebra.structure_constants
    return Op(f"scan {name} seed={seed}",
              lambda: sa.discrete_zero_scan(stem, REGION, rng=np.random.default_rng(seed)),
              _scan_check(c, np.array(stem.coeff_matrix), expected))


# -- witness searches ----------------------------------------------------------


def _witness_check(c: np.ndarray, a: np.ndarray, b: np.ndarray, member: bool):
    scale = 1.0 + float(np.hypot(np.linalg.norm(a), np.linalg.norm(b)))

    def solvable() -> bool:
        # an exact "absent" needs s b = -a to have no solution at all
        rb = _rmat(c, b)
        s = np.linalg.lstsq(rb, -a, rcond=None)[0]
        return member or np.linalg.norm(rb @ s + a) <= RECHECK_RTOL * scale

    def check(search) -> tuple[str, str]:
        if search.status == "found":
            lin, root = _zero_residual(c, a, b, search.witness.root.element.coeffs)
            if lin <= WITNESS_RTOL * scale and root <= WITNESS_RTOL * scale:
                return OK, ""
            return WRONG, f"witness misses: |a+sb|={lin:.2e}, |ss+1|={root:.2e}"
        if search.status == "absent":
            return (WRONG, "solvable input reported absent") if solvable() else (OK, "")
        return FAILED, search.status

    return check


def _witness_op(name: str, alg, a: np.ndarray, b: np.ndarray, member: bool, seed: int) -> Op:
    w = sa.ComplexElement(alg.element(a), alg.element(b))
    return Op(f"witness {name} seed={seed}",
              lambda: sa.zero_variety_witness(w, rng=np.random.default_rng(seed)),
              _witness_check(alg.structure_constants, a, b, member))


def zeros(seed: int, scratch_dir: str) -> list[Op]:
    rng = np.random.default_rng([seed, 0x2E205])
    ops: list[Op] = []

    def next_seed() -> int:
        return op_seed(seed, len(ops))

    for p, q in SMALL_ALGEBRAS:
        alg = _clifford(p, q)
        c = alg.structure_constants
        name = _algebra_id(p, q)
        one, zero = alg.unit(), alg.zero()
        stem = sa.stem_from_slice_poly([one, zero, one])
        ops.append(_scan_op(f"x^2+1 {name}", stem, next_seed(),
                            [(1j, "sphere"), (-1j, "sphere")]))
        for _ in range(2):
            # x - q with q = x0 + y0 s0 vanishes exactly at z0 = x0 + i y0
            # (through s0) and at its conjugate (through -s0)
            x0, y0 = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5)
            q_elem = alg.element(x0 * _unit(alg.dimension) + y0 * _conjugated_root(c, rng))
            z0 = complex(x0, y0)
            ops.append(_scan_op(f"linear {name}", sa.stem_from_slice_poly([-q_elem, one]),
                                next_seed(), [(z0, "isolated"), (z0.conjugate(), "isolated")]))
        for degree in (2, 3, 4) * RANDOM_STEMS_PER_DEGREE[p, q]:
            stem = sa.stem_from_slice_poly([alg.random_element(rng)
                                            for _ in range(degree + 1)])
            ops.append(_scan_op(f"random degree {degree} {name}", stem, next_seed(), []))

    for (p, q), (members, randoms) in WITNESS_INPUTS.items():
        alg = _clifford(p, q)
        c = alg.structure_constants
        n = alg.dimension
        name = _algebra_id(p, q)
        zerodivisor = _lmat(c, _unit(n) + np.eye(n)[1])  # e1 squares to +1
        for _ in range(members):
            b = zerodivisor @ rng.standard_normal(n)
            a = -(_lmat(c, _conjugated_root(c, rng)) @ b)
            ops.append(_witness_op(f"member {name}", alg, a, b, True, next_seed()))
        for _ in range(randoms):
            b = zerodivisor @ rng.standard_normal(n)
            ops.append(_witness_op(f"random {name}", alg, rng.standard_normal(n), b,
                                   False, next_seed()))
    return ops


def large_and_zeros(seed: int, scratch_dir: str) -> list[Op]:
    return suites_large(seed, scratch_dir) + zeros(seed, scratch_dir)


BUILDERS = {"suites-small": suites_small, "large-and-zeros": large_and_zeros}


def build(workload: str, seed: int, scratch_dir: str, passes: int) -> list[Op]:
    """The op list of a run: `passes` passes, one after the other.  Every
    pass has its own inputs (for large-and-zeros its own dense algebra too),
    drawn from its pass seed, so a run averages over many inputs and its op
    list depends on the seed and the pass count alone."""
    return [op for k in range(passes)
            for op in BUILDERS[workload](pass_seed(seed, k), scratch_dir)]
