import json
import math
import random
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import numpy as np
import pytest

from whittaker_mb.bz import bz_map_coords
from whittaker_mb.mellin import (
    AffineForm,
    DomainViolation,
    assemble_from_vectors,
    assemble_mb_integrand,
    bump_gl3,
    cartan_exponent,
    int_identity,
    left_vector_mellin,
    mellin_of_whittaker,
    phi_psi_theta,
    right_vector_mellin,
    tilde_substitution,
    variables_of,
)
from whittaker_mb.roots import build_root_system, cartan_scaling_exponent
from whittaker_mb.gammafn import log_gamma_complex

ALL_RANKS = [("gl", n) for n in range(2, 7)] + [
    ("so_even", n) for n in range(2, 5)
] + [("so_odd", n) for n in range(1, 5)] + [("sp", n) for n in range(1, 5)]


def gamma_count(family, n):
    pairs = n * (n - 1) // 2
    if family == "gl":
        return 2 * pairs, 0
    if family == "so_even":
        return 4 * pairs + (n - 2), n - 2
    if family == "so_odd":
        return 2 * n * n, 0
    return 4 * pairs + (n - 1) + 2 * n, n - 1


class TestAffineForm:
    def test_eval_and_flip(self):
        f = AffineForm({("g", 1, 2): 2}, {1: Fraction(1, 2)}, Fraction(3))
        val = f.eval({("g", 1, 2): 1.5 + 1j}, [2.0])
        assert val == pytest.approx(2 * (1.5 + 1j) + 1j * 1.0 + 3)
        flip = f.conj_flip()
        assert flip.gamma == {("g", 1, 2): Fraction(-2)}
        assert flip.ilam == {1: Fraction(-1, 2)}
        assert flip.const == 3

    def test_subs(self):
        f = AffineForm({("g", 1, 2): 1, ("g", 1, 3): 2})
        sub = {("g", 1, 2): AffineForm({("g", 1, 3): -1}, const=5)}
        g = f.subs(sub)
        assert g.gamma == {("g", 1, 3): Fraction(1)}
        assert g.const == 5

    def test_json_roundtrip(self):
        f = AffineForm({("g", 1, 2): Fraction(-2, 3)}, {2: 1}, Fraction(1, 4))
        assert AffineForm.from_json(f.to_json()) == f


class TestStructure:
    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_dimension_matches_positive_root_count(self, family, n):
        mb = assemble_mb_integrand(family, n)
        assert mb.dimension == build_root_system(family, n).d

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_gamma_factor_counts(self, family, n):
        mb = assemble_mb_integrand(family, n)
        num, den = gamma_count(family, n)
        assert (len(mb.num), len(mb.den)) == (num, den)

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_two_assembly_routes_agree(self, family, n):
        # theorem-box transcription versus the Plancherel pairing of the
        # two vector transforms followed by the telescoping substitution
        a = assemble_mb_integrand(family, n)
        b = assemble_from_vectors(family, n)
        assert Counter(f.key() for f in a.num) == Counter(f.key() for f in b.num)
        assert Counter(f.key() for f in a.den) == Counter(f.key() for f in b.den)
        for v in a.variables:
            assert a.exponent[v] == b.exponent[v]

    def test_gl2_integrand_explicit(self):
        mb = assemble_mb_integrand("gl", 2)
        v = ("g", 1, 2)
        keys = {f.key() for f in mb.num}
        assert AffineForm({v: 1}, {1: 1, 2: -1}).key() in keys
        assert AffineForm({v: 1}).key() in keys
        assert mb.exponent[v] == (Fraction(-1), Fraction(1))

    def test_gl3_has_three_variables_six_factors(self):
        mb = assemble_mb_integrand("gl", 3)
        assert mb.dimension == 3
        assert len(mb.num) == 6

    def test_sp_denominator_carries_imaginary_spectral_shift(self):
        # the long-root telescoped denominators read 2(g1_k - g1_{k+1}) + 2 i lam_k
        mb = assemble_mb_integrand("sp", 3)
        for k, f in enumerate(mb.den, start=1):
            assert f.ilam == {k: Fraction(2)}
            assert f.gamma[("g1", k)] == 2

    def test_constraints_cover_all_variables(self):
        mb = assemble_mb_integrand("so_even", 3)
        constrained = set()
        for f in mb.constraints:
            constrained.update(f.gamma)
        assert constrained == set(mb.variables)


class TestCartanExponent:
    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_rows_are_negated_scaling_exponents(self, family, n):
        rows = cartan_exponent(family, n)
        label_map = {"g": "m", "d": "p", "g1": "s"}
        for var, row in rows.items():
            label = (label_map[var[0]],) + var[1:]
            scaling = cartan_scaling_exponent(family, n, label)
            assert row == [-c for c in scaling]

    def test_gl2_row(self):
        rows = cartan_exponent("gl", 2)
        assert rows[("g", 1, 2)] == [-1, 1]

    def test_sp_single_row(self):
        rows = cartan_exponent("sp", 2)
        assert rows[("g1", 1)] == [0, -2]


def mellin_quadrature(family, n, gamma_vals, nu_vals, lo=-9.0, hi=7.0, h=0.05):
    """Direct Mellin transform of t^{nu'} exp(-sum image coords) on the cone."""
    rs = build_root_system(family, n)
    labels = list(rs.positive_roots)
    d = len(labels)
    grids = np.meshgrid(*[np.arange(lo, hi, h)] * d, indexing="ij")
    coords = {lab: np.exp(g) for lab, g in zip(labels, grids)}
    img = bz_map_coords(family, n, coords)
    s = sum(img.values())
    expo = -s
    for k, lab in enumerate(labels):
        expo = expo + (gamma_vals[lab] + nu_vals[lab]) * grids[k]
    return float(np.exp(expo).sum()) * h**d


class TestVectorTransforms:
    def test_right_vector_forms_are_identities(self):
        forms = right_vector_mellin("sp", 2)
        assert [f.gamma for f in forms] == [{v: Fraction(1)} for v in variables_of("sp", 2)]

    def test_exponential_mellin_niceties(self):
        # 1-d transform of exp(-t) at 0.7 equals Gamma(0.7)
        u = np.arange(-40, 8, 0.01)
        val = float(np.exp(0.7 * u - np.exp(u)).sum()) * 0.01
        ref = math.gamma(0.7)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_gl2_left_vector_form(self):
        num, den = left_vector_mellin("gl", 2)
        assert den == []
        assert len(num) == 1
        assert num[0] == AffineForm({("g", 1, 2): -1}, {1: -1, 2: 1})

    @pytest.mark.parametrize("n", [2, 3])
    def test_gl_left_vector_against_quadrature(self, n):
        # real spectral values: evaluate the Gamma product at nu' = i*lam
        # with lam = -i*nu purely imaginary
        rs = build_root_system("gl", n)
        num, den = left_vector_mellin("gl", n)
        nu_prime = [-6.0, -3.5, -1.0][3 - n :]  # spread for upper-tail decay
        gamma_vals = {lab: -0.4 - 0.05 * i for i, lab in enumerate(rs.positive_roots)}
        nu_vals = {}
        for lab in rs.positive_roots:
            _, i, j = lab
            nu_vals[lab] = nu_prime[i - 1] - nu_prime[j - 1]
        direct = mellin_quadrature(
            "gl", n, gamma_vals, nu_vals, hi=8.5, h=0.06 if n == 3 else 0.01
        )
        lam_fake = [-1j * v for v in nu_prime]
        acc = 0.0j
        values = {("g",) + lab[1:]: gamma_vals[lab] for lab in rs.positive_roots}
        for f in num:
            acc += log_gamma_complex(f.eval(values, lam_fake))
        formula = complex(np.exp(acc))
        assert direct == pytest.approx(formula.real, rel=2e-5)
        assert abs(formula.imag) < 1e-12

    def test_so_even_telescoping(self):
        # the mixed-sum Gamma ratios collapse to boundary terms
        n = 4
        phi, psi, theta, _ = phi_psi_theta("so_even", n)
        rng = random.Random(9)
        values = {v: rng.uniform(0.1, 0.9) for v in variables_of("so_even", n)}
        nu_prime = [-(2.1 + 0.8 * i) for i in range(n)]
        lam_fake = [-1j * v for v in nu_prime]

        def ev(form):
            return form.eval(values, lam_fake)

        lhs = 0j
        for i in range(1, n):
            for j in range(i + 1, n):
                top = ev(phi[(i, j)] + theta[(i, j)] + psi[(i, j)]) - 2 * nu_prime[i - 1]
                bot = ev(phi[(i, j)] + psi[(i, j)]) - 2 * nu_prime[i - 1]
                lhs += log_gamma_complex(top) - log_gamma_complex(bot)
        rhs = 0j
        for i in range(1, n - 1):
            top = -values[("g", i, i + 1)] - values[("d", i, i + 1)] - 2 * nu_prime[i - 1]
            bot = -values[("g", i, n)] - values[("d", i, n)] - 2 * nu_prime[i - 1]
            rhs += log_gamma_complex(top) - log_gamma_complex(bot)
        assert complex(np.exp(lhs)) == pytest.approx(complex(np.exp(rhs)), rel=1e-11)

    @pytest.mark.parametrize("family,n", [("so_even", 3), ("so_odd", 3), ("sp", 3)])
    def test_theta_vanishes_at_last_column_only_for_so_even(self, family, n):
        _, _, theta, _ = phi_psi_theta(family, n)
        if family == "so_even":
            assert theta[(1, n)].is_zero()
        else:
            assert not theta[(1, n)].is_zero()


class TestTildeSubstitution:
    @pytest.mark.parametrize("family,n", [("gl", 4), ("so_even", 3), ("sp", 3)])
    def test_substitution_is_unimodular(self, family, n):
        # triangular with unit diagonal in a suitable variable order
        sub = tilde_substitution(family, n)
        for var, form in sub.items():
            assert form.gamma.get(var, 0) in (1, Fraction(1)) or (
                family == "so_even" and var[1:] and var[2] == n
            )


class TestMellinSplit:
    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_inner_dimension(self, family, n):
        split = mellin_of_whittaker(family, n)
        outer = n - 1 if family == "gl" else n
        assert len(split.outer_vars) == outer
        assert split.inner.dimension == build_root_system(family, n).d - outer

    def test_gl3_inner_is_single_barnes_variable(self):
        split = mellin_of_whittaker("gl", 3)
        assert split.inner.variables == (("g", 2, 3),)

    @pytest.mark.parametrize("family,n", [("gl", 2), ("sp", 1), ("so_odd", 1), ("so_even", 2)])
    def test_outer_data_give_the_wave_function(self, family, n):
        """With no inner variables M(s) is its Gamma product, and
        phase(x, lam) (2 pi i)^{-N} Int prod_j z_j^{-s_j} M(s) ds is the
        wave function; the shifts split lambda . x along the z rows."""
        from whittaker_mb.mellin import _constraints
        from whittaker_mb.quadrature import _integrate, eval_mb

        split = mellin_of_whittaker(family, n)
        assert split.inner.dimension == 0
        outer = replace(
            split.inner,
            variables=split.outer_vars,
            exponent={s: tuple(-c for c in row) for s, row in zip(split.outer_vars, split.z_rows)},
            constraints=_constraints(split.inner.num, split.outer_vars),
        )
        scale = float(split.jacobian) / (2.0 * math.pi) ** len(split.outer_vars)
        mb = assemble_mb_integrand(family, n)
        rng = random.Random(f"outer {family} {n}")
        for _ in range(5):
            lam = tuple(Fraction(rng.randint(-15, 15), 10) for _ in range(n))
            x = tuple(Fraction(rng.randint(-5, 5), 10) for _ in range(n))
            along = sum(
                sum(f.ilam.get(k, 0) * l for k, l in enumerate(lam, 1))
                * sum(c * xi for c, xi in zip(row, x))
                for f, row in zip(split.shifts, split.z_rows)
            )
            if split.residual_row is not None:
                along += sum(c * l for c, l in zip(split.residual_lam, lam)) * sum(
                    c * xi for c, xi in zip(split.residual_row, x)
                )
            assert along == sum(l * xi for l, xi in zip(lam, x))
            lam, x = tuple(map(float, lam)), tuple(map(float, x))
            got = split.phase(x, lam) * _integrate(outer, lam, 1e-10, scale, 4, x=x).value
            ref = eval_mb(mb, x, lam, tol=1e-10).value
            assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_gl2_closed_product(self):
        from whittaker_mb.quadrature import eval_mellin_transform

        split = mellin_of_whittaker("gl", 2)
        lam = (0.9, -0.7)
        s = 1.3
        r = eval_mellin_transform(split, (s,), lam)
        half = (lam[0] - lam[1]) / 2
        ref = np.exp(
            log_gamma_complex(s + 1j * half) + log_gamma_complex(s - 1j * half)
        )
        assert r.value == pytest.approx(complex(ref), rel=1e-12)

    def test_gl3_matches_bump_at_random_points(self):
        from whittaker_mb.quadrature import eval_mellin_transform

        split = mellin_of_whittaker("gl", 3)
        rng = random.Random(21)
        for _ in range(5):
            lam = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            s1, s2 = rng.uniform(0.3, 1.8), rng.uniform(0.3, 1.8)
            got = eval_mellin_transform(split, (s1, s2), lam, tol=1e-7).value
            ref = bump_gl3(lam, s1, s2)
            assert abs(got - ref) / abs(ref) < 1e-7


class TestBuildCache:
    """Each (family, rank) is built once per process as an immutable
    value: every call returns the same object, and no field can be set."""

    @pytest.mark.parametrize("family,n", [("gl", 3), ("sp", 2), ("so_even", 3)])
    def test_mutated_integrand_does_not_reach_the_next_call(self, family, n):
        mb = assemble_mb_integrand(family, n)
        assert assemble_mb_integrand(family, n) is mb
        with pytest.raises(FrozenInstanceError):
            mb.num = mb.num + (AffineForm(const=3),)
        for seq in (mb.variables, mb.num, mb.den, mb.constraints, *mb.exponent.values()):
            assert isinstance(seq, tuple)
        changed = replace(mb, num=mb.num + (AffineForm(const=3),))
        assert len(changed.num) == len(mb.num) + 1
        assert assemble_mb_integrand(family, n) is mb

    @pytest.mark.parametrize("family,n", [("gl", 3), ("sp", 2)])
    def test_mutated_split_does_not_reach_the_next_call(self, family, n):
        split = mellin_of_whittaker(family, n)
        assert mellin_of_whittaker(family, n) is split
        assert mellin_of_whittaker(family, n).inner is split.inner
        with pytest.raises(FrozenInstanceError):
            split.outer_vars = split.outer_vars + (("s", 9),)
        with pytest.raises(FrozenInstanceError):
            split.inner.num = ()
        rows = split.z_rows + (() if split.residual_row is None else (split.residual_row,))
        for seq in (split.outer_vars, split.shifts, split.z_rows, *rows, split.inner.variables):
            assert isinstance(seq, tuple)
        # the inner integrand holds the split-substituted forms of the wave-function integrand
        assert len(split.inner.num) == len(assemble_mb_integrand(family, n).num)


class TestClosedGammaValues:
    def test_int_identity_trivial(self):
        assert int_identity(1, 1, 0) == pytest.approx(1.0, abs=1e-12)
        assert int_identity(2, 1, 1) == pytest.approx(3.0, rel=1e-12)

    def test_int_identity_against_quadrature(self):
        h = 0.01
        u = np.arange(-32, 6, h)
        for a, b, c in [(0.7, 1.3, 0.4), (1.5, 0.8, -0.3)]:
            xs = np.exp(u)[:, None]
            ys = np.exp(u)[None, :]
            val = float(
                (xs**a * ys**b * (xs + ys) ** c * np.exp(-xs - ys)).sum()
            ) * h * h
            assert val == pytest.approx(int_identity(a, b, c).real, rel=1e-7)

    def test_int_identity_domain(self):
        with pytest.raises(DomainViolation):
            int_identity(-0.5, 1, 1)

    def test_bump_zero_spectrum(self):
        s1, s2 = 0.8, 1.1
        got = bump_gl3([0.0, 0.0, 0.0], s1, s2)
        ref = np.exp(
            3 * log_gamma_complex(s1) + 3 * log_gamma_complex(s2) - log_gamma_complex(s1 + s2)
        )
        assert got == pytest.approx(complex(ref), rel=1e-13)


class TestSerialization:
    def test_roundtrip(self):
        mb = assemble_mb_integrand("so_odd", 2)
        from whittaker_mb.mellin import MBIntegrand

        back = MBIntegrand.from_json(json.loads(mb.dumps()))
        assert Counter(f.key() for f in back.num) == Counter(f.key() for f in mb.num)
        assert back.exponent == mb.exponent

    def test_schema_validation(self):
        import importlib.resources as res

        import jsonschema

        schema = json.loads(
            res.files("whittaker_mb").joinpath("schemas/mb_integrand.schema.json").read_text()
        )
        for family, n in (("gl", 3), ("sp", 2)):
            doc = assemble_mb_integrand(family, n).to_json()
            jsonschema.validate(doc, schema)
