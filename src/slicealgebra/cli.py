"""Command line driver: algebra inspection, randomized verification suites,
and polynomial zero scans with JSON/CSV reports.

Reports are emitted as canonical JSON (sorted keys, no whitespace) so that
identical seeds give byte-identical output; wall time is kept out of the
serialized report for the same reason.  Exit codes: 0 all checks pass, 1 a
check failed, 2 usage errors or a suite that does not apply to the algebra,
3 an internal numerical failure (LAPACK raised LinAlgError).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .algebra import (
    Algebra,
    Element,
    clifford_algebra,
    is_zerodivisor,
    json_numbers,
    left_divide,
    load_algebra,
)
from .config import default_tol, within_tol
from .errors import (
    BadSectionError,
    FrameNotFoundError,
    NotFoundError,
    NotTangentError,
    SliceAlgebraError,
    SuiteNotApplicableError,
    ZeroDivisorError,
)
from .numerics import numerical_rank
from .orthogonal import InnerProduct, cone_decompose, sample_S0
from .roots import (
    RootOfMinusOne,
    find_seed_root,
    nijenhuis,
    component_invariant,
    sample_root,
    verify_trace_identities,
)
from .slicefunctions import eval_slice, stem_from_slice_poly
from .twistor import (
    ProjectivePoint,
    QuaternionFrame,
    fiber_embed,
    gamma,
    generalized_twistor,
    rho1,
    rho1_general,
    standard_section,
    stereographic_fiber,
    twistor_lift,
)
from .zerovariety import (
    ComplexElement,
    discrete_zero_scan,
    left_absorption,
    right_absorption,
    zero_variety_witness,
)

_ALIASES = {
    "reals": (0, 0), "r": (0, 0),
    "complex": (0, 1), "c": (0, 1),
    "quaternions": (0, 2), "h": (0, 2),
}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def resolve_algebra(text: str, tol: float | None = None) -> tuple[str, Algebra]:
    """Built-in name ("clifford P Q", quaternions, ...) or a JSON file path,
    whose associativity is checked to tol."""
    tokens = text.replace(",", " ").split()
    if tokens and tokens[0].lower() == "clifford" and len(tokens) == 3:
        p, q = int(tokens[1]), int(tokens[2])
        return f"clifford({p},{q})", clifford_algebra(p, q)
    if len(tokens) == 1 and tokens[0].lower() in _ALIASES:
        p, q = _ALIASES[tokens[0].lower()]
        return f"clifford({p},{q})", clifford_algebra(p, q)
    return text, load_algebra(text, tol=tol)


# -- verification suites -----------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    algebra_id: str
    trials: int
    max_residual: float
    pass_count: int
    failures: tuple[dict, ...]
    wall_time: float
    rng_seed: int

    @property
    def passed(self) -> bool:
        return self.pass_count == self.trials

    def to_json(self) -> dict:
        # wall_time stays out: byte-identical reports for identical seeds
        return {"suite": self.suite,
                "algebra": self.algebra_id,
                "trials": self.trials,
                "max_residual": self.max_residual,
                "pass_count": self.pass_count,
                "failures": [dict(f) for f in self.failures],
                "rng_seed": self.rng_seed}


def _seed_or_not_applicable(alg: Algebra, rng, suite: str):
    try:
        return find_seed_root(alg, rng=rng)
    except NotFoundError as exc:
        raise SuiteNotApplicableError(
            f"suite {suite!r} needs a root of -1 in the algebra") from exc


def _sampled_roots(alg: Algebra, trials: int, rng, suite: str):
    seed = _seed_or_not_applicable(alg, rng, suite)
    for t in range(trials):
        yield t, sample_root(seed, rng)


def _suite_traces(alg, trials, rng, tol):
    for t, s in _sampled_roots(alg, trials, rng, "traces"):
        report = verify_trace_identities(s, tol)
        residual = max(row["residual"] for row in report.rows)
        yield report.passed, residual, f"trial {t}"


def _suite_nijenhuis(alg, trials, rng, tol):
    seed = _seed_or_not_applicable(alg, rng, "nijenhuis")
    # T_s = L_s R_s is an involution whose +1 eigenspace is the tangent space
    # ker(L_s + R_s), so (1 + T_s)/2 projects onto it: no frame.  Its rank
    # (N + tr T_s)/2 is the same on the whole conjugation orbit of the seed
    tangent = alg.dimension + component_invariant(seed) > 0
    for t in range(trials):
        s = sample_root(seed, rng)
        r = rng.standard_normal((2, alg.dimension))
        if tangent:
            r += (s.left @ (s.right @ r.T)).T
            r /= np.linalg.norm(r, axis=1, keepdims=True)  # residual at rounding level
        else:  # ker F_s = {0}, as on C: r + T_s r is rounding noise
            r[:] = 0.0
        x, y = Element(alg, r[0]), Element(alg, r[1])
        try:
            residual = nijenhuis(s, x, y, tol).norm()
        except NotTangentError as exc:  # x or y fails tangency at tol
            yield False, float("inf"), f"trial {t}: {exc}"
            continue
        size = 4.0 * s.element.norm() * x.norm() * y.norm()  # four products cancel
        yield within_tol(residual, size, tol), residual, f"trial {t}"


def _suite_dims(alg, trials, rng, tol):
    for t, s in _sampled_roots(alg, trials, rng, "dims"):
        expected = (alg.dimension + component_invariant(s)) // 2  # N + tr T_s is even
        kernel = alg.dimension - numerical_rank(np.linalg.svd(s.left + s.right, compute_uv=False))
        gap = abs(kernel - expected)  # dim ker(L_s + R_s), counted, not built
        yield gap == 0, float(gap), f"trial {t}"


def _suite_zero_variety(alg, trials, rng, tol):
    seed = _seed_or_not_applicable(alg, rng, "zero-variety")
    for t in range(trials):
        if t % 2 == 0:  # constructed member: a = -(s b) so the search must succeed
            s, b = sample_root(seed, rng), alg.random_element(rng)
            w = ComplexElement(Element(alg, s.left @ -b.coeffs), b)
            search = zero_variety_witness(w, tol, rng)
            if not search.found:
                yield False, float("inf"), f"trial {t}: no witness for member"
                continue
        else:
            w = ComplexElement(alg.random_element(rng), alg.random_element(rng))
            search = zero_variety_witness(w, tol, rng)
            if not search.found:
                # exact verdicts only; inconclusive is recorded, not failed
                yield True, 0.0, f"trial {t}: {search.status}"
                continue
        yield search.witness.holds(tol), search.witness.residual, f"trial {t}"


def _suite_absorption(alg, trials, rng, tol):
    for t, s in _sampled_roots(alg, trials, rng, "absorption"):
        b = alg.random_element(rng)
        base = zero_variety_witness(ComplexElement(Element(alg, s.left @ -b.coeffs), b), tol, rng)
        if not base.found:
            yield False, float("inf"), f"trial {t}: base witness missing"
            continue
        wp = ComplexElement(alg.random_element(rng), alg.random_element(rng))
        right = right_absorption(base.witness, wp, tol)
        left = left_absorption(base.witness, wp, tol=tol, rng=rng)
        if not left.found:
            yield False, float("inf"), f"trial {t}: left witness {left.status}"
            continue
        yield (right.holds(tol) and left.witness.holds(tol),
               max(right.residual, left.witness.residual), f"trial {t}")


def _suite_cone(alg, trials, rng, tol):
    G = InnerProduct.standard(alg)
    for t in range(trials):
        if t % 2 == 0:
            try:
                s = sample_S0(alg, G, rng)
            except NotFoundError as exc:  # A0 is trivial or holds no root
                raise SuiteNotApplicableError("no orthogonal roots for this algebra") from exc
            beta, gam = rng.standard_normal(), abs(rng.standard_normal()) + 0.1
            x = beta * alg.unit() + gam * s.element
            dec = cone_decompose(x, G, tol)
            if dec is None:
                yield False, float("inf"), f"trial {t}: member not decomposed"
                continue
            if dec.root is not None:
                residual = max(abs(dec.beta - beta),
                               abs(dec.alpha - float(np.hypot(beta, gam))),
                               (dec.root.element * dec.gamma - gam * s.element).norm())
                # each difference pairs two parts of x = beta + gamma*s
                size = 2.0 * (abs(beta) + gam * s.element.norm())
                yield within_tol(residual, size, tol), residual, f"trial {t}"
                continue
            # real to cone_decompose (gamma*s within tol): beta*1 must rebuild x
        else:
            x = alg.random_element(rng)
            dec = cone_decompose(x, G, tol)
            if dec is None:
                yield True, 0.0, f"trial {t}: outside cone"
                continue
        rebuilt = dec.beta * alg.unit() + (dec.gamma * dec.root.element
                                           if dec.root else alg.zero())
        residual = (x - rebuilt).norm()
        yield within_tol(residual, x.norm() + rebuilt.norm(), tol), residual, f"trial {t}"


def _suite_twistor(alg, trials, rng, tol):
    try:
        frame = QuaternionFrame.detect(alg)
    except FrameNotFoundError as exc:
        raise SuiteNotApplicableError(str(exc)) from exc
    i_root = frame.i_root
    for t in range(trials):
        degree = int(rng.integers(1, 6))
        stem = stem_from_slice_poly([alg.random_element(rng)
                                     for _ in range(degree + 1)])
        z = complex(rng.standard_normal(), rng.standard_normal())
        u = ProjectivePoint(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        g = gamma(u.coords[0], u.coords[1], frame)
        s_u = RootOfMinusOne.from_element(left_divide(g, Element(alg, i_root.left @ g.coeffs)))
        lift = twistor_lift(stem, z, u, frame)
        residual = (eval_slice(stem, z, s_u) - rho1(lift, frame)).norm()
        # both sides sum the terms of F(z) = a + ib in a + s*b
        size = (1.0 + s_u.element.norm()) * stem.term_size(z)
        # I g = g s_u, so g is a section value over s_u of the bundle at u = I,
        # whose point is the chart of the lift [w0 : w1 : w2 : w3] half by half
        chart = ProjectivePoint(np.concatenate([fiber_embed(i_root, gamma(*half, frame))
                                                for half in np.split(lift.coords, 2)]))
        distance = chart.chordal_distance(generalized_twistor(stem, lambda _: g, z, s_u, i_root))
        ok = within_tol(residual, size, tol) and within_tol(distance, 2.0, tol)
        yield ok, max(residual, distance), f"trial {t}"


def _suite_stereographic(alg, trials, rng, tol):
    u = _seed_or_not_applicable(alg, rng, "stereographic")
    # the fiber over a conjugate of u is a translate of the centralizer of u
    expected = (alg.dimension - component_invariant(u)) // 4
    stem = stem_from_slice_poly([alg.unit(), alg.zero(), alg.unit()])
    section = standard_section(u)
    z = 0.3 + 0.7j
    terms = stem.term_size(z)  # of F(z) = a + ib, fixed
    for t in range(trials):
        s = sample_root(u, rng)
        basis = stereographic_fiber(u, s)  # its rank is a trace: check Q, on its real view
        swapped = (s.right @ (u.left @ basis.view(float))).view(complex)
        fiber_res = float(np.linalg.norm(basis + swapped))
        fiber_ok = basis.shape[1] == expected and within_tol(
            fiber_res, np.linalg.norm(basis) + np.linalg.norm(swapped), tol)
        try:
            point = generalized_twistor(stem, section, z, s, u)
            residual = (rho1_general(point, u) - eval_slice(stem, z, s)).norm()
            cons_ok = within_tol(residual, (1.0 + s.element.norm()) * terms, tol)
        except ZeroDivisorError:  # section chart misses s; the fiber check stands
            cons_ok, residual = True, 0.0
        except BadSectionError as exc:  # the section value is zero or off the fiber over s
            yield False, float("inf"), f"trial {t}: {exc}"
            continue
        yield fiber_ok and cons_ok, max(fiber_res, residual), f"trial {t}"


_SUITE_FUNCS = {
    "traces": _suite_traces,
    "nijenhuis": _suite_nijenhuis,
    "dims": _suite_dims,
    "zero-variety": _suite_zero_variety,
    "absorption": _suite_absorption,
    "cone": _suite_cone,
    "twistor": _suite_twistor,
    "stereographic": _suite_stereographic,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suite(suite: str, algebra: Algebra, algebra_id: str,
              trials: int, seed: int, tol: float) -> SuiteReport:
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    started = time.perf_counter()
    max_residual = 0.0
    pass_count = 0
    failures: list[dict] = []
    for ok, residual, desc in _SUITE_FUNCS[suite](algebra, trials, rng, tol):
        if np.isfinite(residual):
            max_residual = max(max_residual, float(residual))
        if ok:
            pass_count += 1
        else:
            failures.append({"input": desc,
                             "residual": float(residual) if np.isfinite(residual) else None})
    wall = time.perf_counter() - started
    return SuiteReport(suite, algebra_id, trials, max_residual,
                       pass_count, tuple(failures), wall, seed)


# -- commands ----------------------------------------------------------------


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _probe_zerodivisors(alg: Algebra, rng) -> dict:
    candidates = [alg.basis_element(k) for k in range(alg.dimension)]
    for k in range(alg.dimension):
        if k != alg.unit_index:
            candidates.append(alg.unit() + alg.basis_element(k))
            candidates.append(alg.unit() - alg.basis_element(k))
    # a - x at a real eigenvalue x of L_a, else (a - x)^2 + y^2: singular in any basis
    roots = []  # (a - x)/y, a root of -1 where (a - x)^2 + y^2 vanishes, as on M2(R)
    for a in (alg.random_element(rng) for _ in range(8)):
        for lam in np.linalg.eigvals(alg.left_matrix_vec(a.coeffs)):
            shift = a - alg.scalar(lam.real)
            candidates.append(shift * shift + alg.scalar(lam.imag ** 2) if lam.imag else shift)
            if lam.imag:
                roots.append(RootOfMinusOne(shift / lam.imag))
    for cand in chain(candidates, _anticommuting_shifts(alg, roots, rng)):
        if cand.norm() > 0 and is_zerodivisor(cand):
            return {"found": True,
                    "witness": alg.label_linear_combination(cand.coeffs)}
    return {"found": False, "witness": None}


def _anticommuting_shifts(alg: Algebra, roots, rng):
    """For each root u, with a fresh draw c: b = c + u c u anticommutes with
    u, and b - x is singular at a real eigenvalue x of L_b.  On M2(R) b is a
    traceless symmetric matrix in a basis where u is a rotation, so it has
    real eigenvalues; in H b is imaginary, and in C it is 0."""
    for u in (u for u in roots if u.holds()):
        c = alg.random_element(rng)
        b = c + u.element * c * u.element
        for lam in np.linalg.eigvals(alg.left_matrix_vec(b.coeffs)):
            yield b - alg.scalar(lam.real)


def cmd_algebra_info(args) -> int:
    algebra_id, alg = resolve_algebra(args.algebra, args.tol)
    rng = np.random.default_rng(args.seed)
    report = {
        "algebra": algebra_id,
        "dimension": alg.dimension,
        "unit_index": alg.unit_index,
        "labels": list(alg.labels),
        "signature": list(alg.signature) if alg.signature else None,
        "associativity_residual": alg.associativity_residual,
        "unit_ok": True,
        "zerodivisors": _probe_zerodivisors(alg, rng),
    }
    _emit(canonical_json(report) + "\n", args.json)
    return 0


def cmd_verify(args) -> int:
    algebra_id, alg = resolve_algebra(args.algebra, args.tol)
    report = run_suite(args.suite, alg, algebra_id, args.trials,
                       args.seed, args.tol)
    _emit(canonical_json(report.to_json()) + "\n", args.json)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} suite={report.suite} algebra={report.algebra_id} "
          f"trials={report.trials} pass={report.pass_count} "
          f"max_residual={report.max_residual:.3e} "
          f"wall={report.wall_time:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


def _finite_floats(text: str, count: int, what: str) -> list[float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != count or not np.all(np.isfinite(parts)):
        raise ValueError(f"{what} must be {count} finite comma-separated numbers")
    return parts


def _load_poly(path: str, alg: Algebra):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("coefficients")
    malformed = ValueError(f"{path}: expected a list of coefficient rows, or an "
                           f"object with a \"coefficients\" list")
    if not isinstance(data, list):
        raise malformed
    try:
        coeffs = [alg.element(json_numbers(row)) for row in data]
    except (TypeError, OverflowError):  # a row holds no number, or an int past float
        raise malformed from None
    return stem_from_slice_poly(coeffs)


def cmd_roots(args) -> int:
    algebra_id, alg = resolve_algebra(args.algebra, args.tol)
    stem = _load_poly(args.poly, alg)
    region = _finite_floats(args.region, 4, "region x0,x1,y0,y1")
    target = None
    if args.target:
        target = alg.element(np.asarray(_finite_floats(args.target, alg.dimension, "target")))
    rng = np.random.default_rng(args.seed)
    hits = discrete_zero_scan(stem, region, target=target, rng=rng, tol=args.tol)
    report = {"algebra": algebra_id,
              "region": list(region),
              "degree": stem.degree,
              "rng_seed": args.seed,
              "zeros": [h.to_json() for h in hits]}
    _emit(canonical_json(report) + "\n", args.json)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["re_z", "im_z", "class"])
            writer.writerows([repr(h.z.real), repr(h.z.imag), h.classification] for h in hits)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicealg",
        description="Square roots of -1, slice functions and twistor maps "
                    "in finite-dimensional real associative algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", default="quaternions",
                       help="built-in name ('clifford P Q', quaternions, "
                            "complex, reals) or JSON file path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=default_tol())
        p.add_argument("--json", default=None, metavar="PATH",
                       help="write the JSON report here instead of stdout")

    info = sub.add_parser("info", help="inspect an algebra")
    common(info)
    info.set_defaults(func=cmd_algebra_info)

    verify = sub.add_parser("verify", help="run a randomized verification suite")
    verify.add_argument("suite", choices=SUITES)
    common(verify)
    verify.add_argument("--trials", type=int, default=200)
    verify.set_defaults(func=cmd_verify)

    roots = sub.add_parser("roots", help="scan a slice polynomial for zeros")
    roots.add_argument("poly", help="JSON coefficient file (length-N arrays, "
                                    "index = degree)")
    common(roots)
    roots.add_argument("--region", default="-2,2,-2,2",
                       help="x0,x1,y0,y1 (symmetrized about the real axis)")
    roots.add_argument("--target", default=None,
                       help="comma-separated coefficients of the target value")
    roots.add_argument("--csv", default=None, metavar="PATH")
    roots.set_defaults(func=cmd_roots)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not (np.isfinite(args.tol) and args.tol > 0):
            parser.error("--tol must be finite and > 0")
        if getattr(args, "trials", 1) < 1:
            parser.error("--trials must be at least 1")
        if args.seed < 0:
            parser.error("--seed must be a non-negative integer")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but not a usage error
        print(f"internal numerical failure: {exc}", file=sys.stderr)
        return 3
    except SuiteNotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    except (SliceAlgebraError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
