"""Acceptance gate: eleven numbered end-to-end checks.

Each test prints exactly one [criterion NN] PASS/FAIL line with the worst
observed number, then asserts.  Everything is seeded, so a green run is
reproducible bit for bit.
"""

import json

import numpy as np

import oracle_quaternion as oq
from slicealgebra import (
    ComplexElement,
    Element,
    InnerProduct,
    NotFoundError,
    ProjectivePoint,
    QuaternionFrame,
    RootOfMinusOne,
    cauchy_riemann_residual,
    clifford_algebra,
    component_invariant,
    cone_decompose,
    discrete_zero_scan,
    eval_slice,
    find_seed_root,
    is_zerodivisor,
    left_absorption,
    minus_i_eigenspace,
    nijenhuis,
    pi_tensor_eval,
    rho1,
    right_absorption,
    sample_S0,
    sample_root,
    stem_from_slice_poly,
    stereographic_fiber,
    tangent_frame,
    twistor_lift,
    verify_trace_identities,
    z0_equivalence_check,
    z0_residual,
    zero_variety_witness,
)
from slicealgebra.cli import main

ALL_SMALL_SIGNATURES = [(p, q) for n in range(5)
                        for p in range(n + 1) for q in [n - p]]
TRACE_SIGNATURES = [(0, 1), (0, 2), (2, 0), (1, 1), (0, 3), (3, 0),
                    (1, 2), (2, 1), (0, 4)]


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {detail}")
    assert ok, detail


def test_criterion_01_operator_identities():
    worst = 0.0
    rng = np.random.default_rng(1)
    for p, q in ALL_SMALL_SIGNATURES:
        alg = clifford_algebra(p, q)
        eye = np.eye(alg.dimension)
        for _ in range(500):
            a = alg.random_element(rng)
            la, ra = alg.left_matrix_vec(a.coeffs), alg.right_matrix_vec(a.coeffs)
            fa, ta = la + ra, la @ ra
            worst = max(worst,
                        np.abs(ra @ la - la @ ra).max(),
                        np.abs(fa @ fa - (la @ la + ra @ ra + 2 * ta)).max())
        try:
            seed = find_seed_root(alg, rng=rng)
        except NotFoundError:
            continue  # no roots in R or R_{1,0}: element identities only
        for _ in range(500):
            s = sample_root(seed, rng)
            ls, rs = alg.left_matrix_vec(s.element.coeffs), alg.right_matrix_vec(s.element.coeffs)
            fs, ts = ls + rs, ls @ rs
            worst = max(worst,
                        np.abs(ls @ ls + eye).max(),
                        np.abs(rs @ rs + eye).max(),
                        np.abs(rs @ fs - (ts - eye)).max(),
                        np.abs(fs @ fs - (2 * ts - 2 * eye)).max(),
                        np.abs(ts @ ts - eye).max())
    _report(1, worst <= 1e-9,
            f"operator identities over {len(ALL_SMALL_SIGNATURES)} algebras, "
            f"max residual {worst:.3e}")


def test_criterion_02_trace_theorems():
    worst_trace = 0.0
    worst_formula = 0.0
    rng = np.random.default_rng(2)
    all_ok = True
    for p, q in TRACE_SIGNATURES:
        alg = clifford_algebra(p, q)
        seed = find_seed_root(alg, rng=rng)
        for _ in range(1000):
            s = sample_root(seed, rng)
            report = verify_trace_identities(s)
            all_ok = all_ok and report.passed
            worst_trace = max(worst_trace,
                              *(r["residual"] for r in report.rows[:3]))
            worst_formula = max(worst_formula, report.rows[4]["residual"])
    # the top-form component drives the invariant when p - q = 3 mod 4
    alg = clifford_algebra(3, 0)
    seed = find_seed_root(alg, rng=rng)
    pseudo_ok = True
    for _ in range(1000):
        s = sample_root(seed, rng)
        s_top = float(s.element.coeffs[-1])
        expected = -8.0 * s_top * s_top
        t = alg.left_matrix_vec(s.element.coeffs) @ alg.right_matrix_vec(s.element.coeffs)
        gap = abs(float(np.trace(t)) - expected)
        pseudo_ok = pseudo_ok and gap <= 1e-6
    ok = all_ok and worst_trace <= 1e-9 and pseudo_ok
    _report(2, ok,
            f"traces over {len(TRACE_SIGNATURES)} signatures, max trace "
            f"residual {worst_trace:.3e}, max formula gap {worst_formula:.3e}")


def test_criterion_03_tangent_dimension():
    rng = np.random.default_rng(3)
    mismatches = 0
    checked = 0
    for p, q in TRACE_SIGNATURES:
        alg = clifford_algebra(p, q)
        n = alg.dimension
        seed = find_seed_root(alg, rng=rng)
        # the complex numbers are the one small signature whose roots are
        # the two isolated points +-i (invariant -2), so the half-dimension
        # form applies to the other signatures
        half_exact = (p - q) % 8 != 3 and (p, q) != (0, 1)
        for _ in range(1000):
            s = sample_root(seed, rng)
            dim = tangent_frame(s).shape[1]
            inv = component_invariant(s)
            checked += 1
            if 2 * dim != n + inv:
                mismatches += 1
            elif half_exact and dim != n // 2:
                mismatches += 1
    _report(3, mismatches == 0,
            f"tangent dimension (N + invariant)/2 on {checked} roots, "
            f"{mismatches} mismatches")


def test_criterion_04_integrability():
    rng = np.random.default_rng(4)
    worst = 0.0
    for p, q in TRACE_SIGNATURES:
        alg = clifford_algebra(p, q)
        seed = find_seed_root(alg, rng=rng)
        for _ in range(500):
            s = sample_root(seed, rng)
            basis = tangent_frame(s)
            x = Element(alg, basis @ rng.standard_normal(basis.shape[1]))
            y = Element(alg, basis @ rng.standard_normal(basis.shape[1]))
            worst = max(worst, nijenhuis(s, x, y).norm())
    _report(4, worst <= 1e-9,
            f"nijenhuis on 500 triples x {len(TRACE_SIGNATURES)} algebras, "
            f"max residual {worst:.3e}")


def test_criterion_05_zero_variety_vs_brute_force(quaternions):
    rng = np.random.default_rng(5)
    grid = oq.unit_sphere_grid(10_000)
    agreements = 0
    trials = 0
    for _ in range(1000):
        w = ComplexElement(quaternions.random_element(rng),
                           quaternions.random_element(rng))
        if is_zerodivisor(w.im):
            continue
        trials += 1
        search = zero_variety_witness(w, rng=rng)
        brute = oq.brute_force_zero(w.re.coeffs, w.im.coeffs, grid)
        if (search.status == "found") == (brute <= 1e-6):
            agreements += 1

    worst_col = 0.0
    seed = find_seed_root(quaternions)
    for _ in range(100):
        s = sample_root(seed, rng)
        for col in minus_i_eigenspace(s).T:
            w = ComplexElement.from_vector(quaternions, col)
            worst_col = max(worst_col, pi_tensor_eval(w, s).norm())
    ok = trials >= 990 and agreements == trials and worst_col <= 1e-10
    _report(5, ok,
            f"witness vs 10^4-point brute force: {agreements}/{trials} agree; "
            f"eigenspace columns max pi residual {worst_col:.3e}")


def test_criterion_06_absorption(quaternions, cl03):
    rng = np.random.default_rng(6)
    worst_right = 0.0
    for alg in (quaternions, cl03):
        seed = find_seed_root(alg)
        for _ in range(500):
            s = sample_root(seed, rng)
            b = alg.random_element(rng)
            base = zero_variety_witness(ComplexElement(-(s.element * b), b),
                                        rng=rng)
            assert base.status == "found"
            wp = ComplexElement(alg.random_element(rng),
                                alg.random_element(rng))
            worst_right = max(worst_right,
                              right_absorption(base.witness, wp).residual)

    seed = find_seed_root(quaternions)
    found = 0
    invertible_trials = 0
    invertible_found = 0
    worst_root = 0.0
    for _ in range(500):
        s = sample_root(seed, rng)
        b = quaternions.random_element(rng)
        base = zero_variety_witness(ComplexElement(-(s.element * b), b),
                                    rng=rng)
        wp = ComplexElement(quaternions.random_element(rng),
                            quaternions.random_element(rng))
        d = wp.re - wp.im * base.witness.root.element
        res = left_absorption(base.witness, wp, rng=rng)
        if not is_zerodivisor(d):
            invertible_trials += 1
            if res.status == "found":
                invertible_found += 1
                worst_root = max(worst_root, res.witness.root.residual)
        if res.status == "found":
            found += 1
    ok = (worst_right <= 1e-8 and invertible_found == invertible_trials
          and worst_root <= 1e-9 and found >= 495)
    _report(6, ok,
            f"right absorption max residual {worst_right:.3e}; left found "
            f"{found}/500, conjugated root residual <= {worst_root:.3e}")


def test_criterion_07_slice_evaluation(quaternions):
    rng = np.random.default_rng(7)
    seed = find_seed_root(quaternions)
    worst_sigma = 0.0
    for _ in range(20):
        stem = stem_from_slice_poly([quaternions.random_element(rng)
                                     for _ in range(4)])
        for _ in range(5):
            s = sample_root(seed, rng)
            z = complex(*rng.standard_normal(2))
            lhs = eval_slice(stem, z, s)
            rhs = eval_slice(stem, np.conj(z),
                             RootOfMinusOne.from_element(-s.element))
            worst_sigma = max(worst_sigma, (lhs - rhs).norm())

    cubic = stem_from_slice_poly([quaternions.zero()] * 3
                                 + [quaternions.unit()])
    ratios = []
    for _ in range(5):
        s = sample_root(seed, rng)
        z = complex(*rng.standard_normal(2))
        r1 = cauchy_riemann_residual(cubic, z, s, h=1e-3)
        r2 = cauchy_riemann_residual(cubic, z, s, h=5e-4)
        ratios.append(r1 / r2)
    ratio_ok = all(3.5 <= r <= 4.5 for r in ratios)

    hits = discrete_zero_scan(
        stem_from_slice_poly([quaternions.unit(), quaternions.zero(),
                              quaternions.unit()]),
        (-2.0, 2.0, -2.0, 2.0))
    zs = sorted((h.z for h in hits), key=lambda z: z.imag)
    scan_ok = (len(hits) == 2
               and all(h.classification == "sphere" for h in hits)
               and abs(zs[0] + 1j) <= 1e-7 and abs(zs[1] - 1j) <= 1e-7)
    ok = worst_sigma <= 1e-10 and ratio_ok and scan_ok
    _report(7, ok,
            f"sigma equivariance {worst_sigma:.3e}; CR h^2 ratios "
            f"{min(ratios):.2f}..{max(ratios):.2f}; x^2+1 scan -> "
            f"{[(h.classification, round(h.z.imag)) for h in hits]}")


def test_criterion_08_quadratic_cone(quaternions, cl03):
    rng = np.random.default_rng(8)
    G4 = InnerProduct.standard(quaternions)
    worst = 0.0
    for _ in range(1000):
        x = quaternions.random_element(rng)
        dec = cone_decompose(x, G4)
        assert dec is not None
        worst = max(worst, abs(dec.beta - float(x.coeffs[0])),
                    abs(dec.alpha - float(np.linalg.norm(x.coeffs))))

    G8 = InnerProduct.standard(cl03)
    constructed_ok = True
    for _ in range(200):
        s = sample_S0(cl03, G8, rng)
        beta = float(rng.standard_normal())
        gam = float(abs(rng.standard_normal()) + 0.1)
        x = beta * cl03.unit() + gam * s.element
        dec = cone_decompose(x, G8)
        good = (dec is not None and dec.root is not None
                and abs(dec.beta - beta) <= 1e-7
                and (dec.gamma * dec.root.element
                     - gam * s.element).norm() <= 1e-6)
        constructed_ok = constructed_ok and good
    outside = sum(cone_decompose(cl03.random_element(rng), G8) is None
                  for _ in range(400))
    ok = worst <= 1e-8 and constructed_ok and outside >= 0.95 * 400
    _report(8, ok,
            f"quaternion beta/alpha max error {worst:.3e}; constructed "
            f"members all decompose: {constructed_ok}; generic outside "
            f"{outside}/400")


def test_criterion_09_z0_equations(quaternions, cl03):
    rng = np.random.default_rng(9)
    worst = 0.0
    for alg in (quaternions, cl03):
        G = InnerProduct.standard(alg)
        for _ in range(100):
            s = sample_S0(alg, G, rng)
            for _ in range(10):
                a = alg.random_element(rng)
                w = ComplexElement(a, s.element * a)
                worst = max(worst,
                            z0_residual(w, G) / (1.0 + a.norm()) ** 2)

    G4 = InnerProduct.standard(quaternions)
    agree = 0
    for _ in range(1000):
        w = ComplexElement(quaternions.random_element(rng),
                           quaternions.random_element(rng))
        verdict = z0_equivalence_check(w, G4, rng=rng)
        if verdict.agree:
            agree += 1
    ok = worst <= 1e-9 and agree == 1000
    _report(9, ok,
            f"member residual (scaled) max {worst:.3e}; equivalence "
            f"agreement {agree}/1000")


def test_criterion_10_twistor(quaternions, cl03):
    rng = np.random.default_rng(10)
    frame = QuaternionFrame.detect(quaternions)
    worst_diagram = 0.0
    for _ in range(20):
        degree = int(rng.integers(1, 6))
        coeffs = [quaternions.random_element(rng) for _ in range(degree + 1)]
        stem = stem_from_slice_poly(coeffs)
        raw = [c.coeffs for c in coeffs]
        for _ in range(100):
            z = complex(*rng.standard_normal(2))
            u = ProjectivePoint(rng.standard_normal(2)
                                + 1j * rng.standard_normal(2))
            got = rho1(twistor_lift(stem, z, u, frame), frame)
            want = oq.slice_poly_eval(raw, oq.rho_point(z, u.coords[0],
                                                        u.coords[1]))
            worst_diagram = max(worst_diagram,
                                float(np.linalg.norm(got.coeffs - want)))

    stem = stem_from_slice_poly([quaternions.random_element(rng)
                                 for _ in range(4)])
    worst_rank = 0.0
    for _ in range(50):
        z = complex(*rng.standard_normal(2))
        rows = np.stack([twistor_lift(stem, z, ProjectivePoint(
            rng.standard_normal(2) + 1j * rng.standard_normal(2)),
            frame).coords for _ in range(6)])
        sv = np.linalg.svd(rows, compute_uv=False)
        worst_rank = max(worst_rank, float(sv[2] / sv[0]))

    dims_ok = True
    for alg, expected in ((quaternions, 1), (cl03, 2)):
        u = find_seed_root(alg)
        for _ in range(200):
            s = sample_root(u, rng)
            dims_ok = dims_ok and stereographic_fiber(u, s).shape[1] == expected
    ok = worst_diagram <= 1e-8 and worst_rank <= 1e-8 and dims_ok
    _report(10, ok,
            f"diagram gap {worst_diagram:.3e}; line third-singular-value "
            f"ratio {worst_rank:.3e}; fiber dims N/4: {dims_ok}")


def test_criterion_11_determinism(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps([[1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]))
    pairs = []
    for argv in (["verify", "zero-variety", "--trials", "40", "--seed", "11"],
                 ["verify", "stereographic", "--trials", "10", "--seed", "4"],
                 ["roots", str(poly), "--seed", "3", "--region=-2,2,-2,2"]):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--json", str(a)]) in (0, 1)
        assert main(argv + ["--json", str(b)]) in (0, 1)
        pairs.append(a.read_bytes() == b.read_bytes())
    _report(11, all(pairs),
            f"byte-identical reports for repeated seeds: {pairs}")
