"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to stream them).
The algebraic criteria are exact; the numerical ones carry the pinned
tolerances in the constants below.
"""

import cmath
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from whittaker_mb.bz import (
    bz_closed_form,
    bz_inverse,
    bz_map_coords,
    bz_oracle,
    random_positive_chart,
    u_matrix_check,
)
from whittaker_mb.charts import (
    RANK2_LENGTH_CLASSES,
    RANK2_MONOMIALS,
    measure_jacobian_logdet,
    mutate_a2,
    mutate_b2,
    mutate_g2,
)
from whittaker_mb.mellin import (
    assemble_mb_integrand,
    bump_gl3,
    int_identity,
    mellin_of_whittaker,
)
from whittaker_mb.quadrature import (
    barnes_first_lemma_quad,
    constraint_slacks,
    contour_base_point,
    eval_cone,
    eval_mb,
    eval_mellin_transform,
    log_gamma_complex,
)
from whittaker_mb.roots import build_root_system

from bessel_oracle import bessel_k_imag_order

BZ_RANKS = {
    "gl": (2, 3, 4, 5, 6),
    "so_even": (2, 3, 4),
    "so_odd": (1, 2, 3, 4),
    "sp": (1, 2, 3, 4),
}

TOL_INT_IDENTITY = 1e-7
TOL_GL2_BESSEL = 1e-6
TOL_BUMP_GRID = 1e-6
TOL_BARNES = 1e-8
TOL_ROUTE = 1e-4
TOL_ROUTE_SP4 = 1e-3
TOL_SHIFT = 1e-6
TOL_LAMBDA_SYM = 1e-5

ROUTE_CASES = [
    ("gl", 2, TOL_ROUTE),
    ("gl", 3, TOL_ROUTE),
    ("so_odd", 1, TOL_ROUTE),
    ("so_even", 2, TOL_ROUTE),
    ("sp", 1, TOL_ROUTE),
    ("sp", 2, TOL_ROUTE_SP4),
]


def report(num, text, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>2}: {text}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_01_closed_form_equals_oracle():
    t0 = time.perf_counter()
    rng = random.Random(1)
    checked = 0
    ok = True
    for family, ranks in BZ_RANKS.items():
        for n in ranks:
            for _ in range(100):
                ch = random_positive_chart(family, n, rng)
                a = bz_closed_form(ch)
                b = bz_oracle(ch)
                if a.image_chart != b.image_chart or a.twist != b.twist:
                    ok = False
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(1, "closed-form transform and twist equal the Gauss oracle exactly", ok,
           f"{checked} charts, {elapsed:.1f}s")


def test_02_involution_and_inverse():
    rng = random.Random(2)
    ok = True
    for family, ranks in BZ_RANKS.items():
        for k in range(200):
            n = ranks[k % len(ranks)]
            ch = random_positive_chart(family, n, rng)
            image = bz_closed_form(ch).image_chart
            if bz_closed_form(image).image_chart != ch:
                ok = False
            if bz_inverse(family, image) != ch:
                ok = False
    report(2, "transform involutivity and closed-form inverse, 200 charts per family", ok)


def test_03_mutation_suite():
    rng = random.Random(3)
    muts = {"a2": (mutate_a2, 3), "b2": (mutate_b2, 4), "g2": (mutate_g2, 6)}
    ok = True
    for name, (mut, size) in muts.items():
        for _ in range(500):
            pt = tuple(Fraction(rng.randint(1, 100), rng.randint(1, 100))
                       for _ in range(size))
            out = mut(pt)
            if mut(out) != pt or any(v <= 0 for v in out):
                ok = False
            for cls in RANK2_LENGTH_CLASSES[name]:
                if sum(pt[i] for i in cls) != sum(out[i] for i in cls):
                    ok = False
            if sum(pt) != sum(out):
                ok = False
            for exps in RANK2_MONOMIALS[name].values():
                before = after = Fraction(1)
                for i, e in enumerate(exps):
                    before *= pt[i] ** e
                    after *= out[i] ** e
                if before != after:
                    ok = False
    report(3, "rank-two transition maps: involutivity, invariant monomials and sums", ok)


def test_04_measure_preservation():
    rng = random.Random(4)
    ok = True
    for family, ranks in BZ_RANKS.items():
        for k in range(20):
            n = ranks[k % len(ranks)]
            rs = build_root_system(family, n)
            labels = rs.positive_roots
            ch = random_positive_chart(family, n, rng)

            def bz_as_map(vals):
                img = bz_map_coords(family, n, dict(zip(labels, vals)))
                return tuple(img[l] for l in labels)

            det = measure_jacobian_logdet(bz_as_map, ch.values_in_order())
            if abs(float(det) - 1.0) > 1e-10:
                ok = False
    for mut, size in ((mutate_a2, 3), (mutate_b2, 4), (mutate_g2, 6)):
        for _ in range(20):
            pt = tuple(Fraction(rng.randint(1, 60), rng.randint(1, 60))
                       for _ in range(size))
            if abs(float(measure_jacobian_logdet(mut, pt)) - 1.0) > 1e-10:
                ok = False
    report(4, "log-coordinate Jacobians of transform and mutations have |det| = 1", ok)


def test_05_u_matrix_structure():
    rng = random.Random(5)
    ok = True
    for family, ranks in BZ_RANKS.items():
        for k in range(50):
            n = ranks[k % len(ranks)]
            try:
                u_matrix_check(random_positive_chart(family, n, rng))
            except Exception:
                ok = False
    report(5, "first-string block diagonalization structure, 50 charts per family", ok)


def test_06_three_gamma_integral():
    rng = random.Random(6)
    h = 0.01
    u = np.arange(-32.0, 6.0, h)
    xs = np.exp(u)[:, None]
    ys = np.exp(u)[None, :]
    worst = 0.0
    for k in range(10):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        c = rng.uniform(-0.4, 1.0)
        quad = float((xs**a * ys**b * (xs + ys) ** c * np.exp(-xs - ys)).sum()) * h * h
        ref = int_identity(a, b, c).real
        worst = max(worst, abs(quad - ref) / abs(ref))
    report(6, "three-Gamma mixed-power integral vs 2-D quadrature", worst <= TOL_INT_IDENTITY,
           f"max rel {worst:.2e}")


def test_07_gl2_bessel_closed_form():
    t0 = time.perf_counter()
    mb = assemble_mb_integrand("gl", 2)

    def oracle(lam, x):
        nu = lam[0] - lam[1]
        uu = math.exp(x[0] - x[1])
        phase = cmath.exp(-1j * (lam[0] * x[0] + lam[1] * x[1]))
        return phase * 2 * complex(uu) ** (0.5j * nu) * bessel_k_imag_order(nu, 2 * math.sqrt(uu))

    lam0, x0 = (0.3, -0.2), (0.1, -0.1)
    c = eval_mb(mb, x0, lam0, tol=1e-8).value / oracle(lam0, x0)
    rng = random.Random(7)
    worst = 0.0
    for _ in range(10):
        lam = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        got = eval_mb(mb, x, lam, tol=1e-8).value
        ref = c * oracle(lam, x)
        worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= TOL_GL2_BESSEL and elapsed < 10.0
    report(7, "rank-two contour route matches the K-Bessel closed form", ok,
           f"max rel {worst:.2e}, constant {c.real:.6f}, {elapsed:.1f}s")


def test_08_gl3_gamma_product_reduction():
    split = mellin_of_whittaker("gl", 3)
    lam = (1.0, 0.0, -1.0)
    grid = np.linspace(0.4, 2.0, 5)
    worst = 0.0
    for s1 in grid:
        for s2 in grid:
            got = eval_mellin_transform(split, (s1, s2), lam, tol=1e-8).value
            ref = bump_gl3(lam, s1, s2)
            worst = max(worst, abs(got - ref) / abs(ref))
    a, b, c, d = 0.6 + 0.3j, 0.8 - 0.2j, 0.7 + 0.1j, 0.5 - 0.4j
    lhs = barnes_first_lemma_quad(a, b, c, d, tol=1e-10)
    rhs = cmath.exp(
        log_gamma_complex(a + c) + log_gamma_complex(a + d)
        + log_gamma_complex(b + c) + log_gamma_complex(b + d)
        - log_gamma_complex(a + b + c + d)
    )
    barnes_rel = abs(lhs - rhs) / abs(rhs)
    ok = worst <= TOL_BUMP_GRID and barnes_rel <= TOL_BARNES
    report(8, "rank-three Mellin transform equals the Gamma-product formula", ok,
           f"grid max rel {worst:.2e}, Barnes lemma rel {barnes_rel:.2e}")


def test_09_route_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(9)
    ok = True
    details = []
    for family, n, tol in ROUTE_CASES:
        mb = assemble_mb_integrand(family, n)
        worst = 0.0
        for _ in range(5):
            lam = tuple(rng.uniform(-2, 2) for _ in range(n))
            x = tuple(rng.uniform(-1, 1) for _ in range(n))
            qtol = min(tol / 5.0, 1e-6) if mb.dimension < 4 else tol / 5.0
            a = eval_mb(mb, x, lam, tol=qtol).value
            b = eval_cone(family, n, lam, x, tol=qtol).value
            worst = max(worst, abs(a - b) / abs(b))
        details.append(f"{family}{n}:{worst:.1e}")
        if worst > tol:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    report(9, "contour route equals positive-cone route on all families", ok,
           ", ".join(details) + f", {elapsed:.0f}s")


def _interior_shifts(mb, base, rng, count=3):
    # well-interior alternates: a healthy margin keeps the pole distance,
    # and hence the step size, comparable to the reference contour
    shifts = []
    variables = mb.variables
    while len(shifts) < count:
        trial = {v: base[v] + rng.uniform(0.0, 0.6) for v in variables}
        if min(constraint_slacks(mb.constraints, trial)) > 0.3:
            shifts.append(trial)
    return shifts


def _eval_mb_best(mb, x, lam, qtol, base_point=None):
    # every contour must meet the internal target; NotConverged fails the test
    r = eval_mb(mb, x, lam, tol=qtol, base_point=base_point, max_refine=3)
    assert r.converged and r.est_error <= qtol * max(abs(r.value), 1e-300)
    return r.value


def test_10_contour_shift_independence():
    rng = random.Random(10)
    ok = True
    details = []
    for family, n, _ in ROUTE_CASES:
        mb = assemble_mb_integrand(family, n)
        base = contour_base_point(mb.constraints, variables=mb.variables)
        lam = tuple(rng.uniform(-1.5, 1.5) for _ in range(n))
        x = tuple(rng.uniform(-0.8, 0.8) for _ in range(n))
        qtol = 3e-8
        ref = _eval_mb_best(mb, x, lam, qtol)
        worst = 0.0
        for shifted in _interior_shifts(mb, base, rng):
            got = _eval_mb_best(mb, x, lam, qtol, base_point=shifted)
            worst = max(worst, abs(got - ref) / abs(ref))
        details.append(f"{family}{n}:{worst:.1e}")
        if worst > TOL_SHIFT:
            ok = False
    report(10, "contour shifts inside the feasible polytope leave the value fixed", ok,
           ", ".join(details))


def test_11_gl_lambda_symmetry():
    rng = random.Random(11)
    mb2 = assemble_mb_integrand("gl", 2)
    worst = 0.0
    for _ in range(4):
        lam = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        x = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        a = eval_mb(mb2, x, lam, tol=1e-8).value
        b = eval_mb(mb2, x, (lam[1], lam[0]), tol=1e-8).value
        worst = max(worst, abs(a - b) / abs(a))
    mb3 = assemble_mb_integrand("gl", 3)
    for _ in range(2):
        lam = tuple(rng.uniform(-1.2, 1.2) for _ in range(3))
        x = tuple(rng.uniform(-0.6, 0.6) for _ in range(3))
        ref = eval_mb(mb3, x, lam, tol=1e-7).value
        for perm in itertools.permutations(range(3)):
            got = eval_mb(mb3, x, tuple(lam[p] for p in perm), tol=1e-7).value
            worst = max(worst, abs(got - ref) / abs(ref))
    report(11, "wave function is symmetric in the spectral parameters", worst <= TOL_LAMBDA_SYM,
           f"max rel {worst:.2e}")
