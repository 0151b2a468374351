import math
import random
import zlib
from fractions import Fraction

import pytest
from dense_realization import dense_realization

from whittaker_mb.bz import (
    OutsideBigCell,
    _lift_perm,
    _times_string1_inverse,
    bz_closed_form,
    bz_inverse,
    bz_map_coords,
    bz_map_program,
    bz_oracle,
    bz_twist_coords,
    bz_twist_program,
    left_whittaker_value,
    random_positive_chart,
    right_whittaker_value,
    string1_matrix,
    u_matrix_check,
)
from whittaker_mb.charts import chart_to_matrix, constant_chart, monomial_weight
from whittaker_mb.exact import ExactMatrix, IntRows, NotMonomial, compile_monomials
from whittaker_mb.roots import Weight, w0_lift, w0_lift_embedded

SMALL_RANKS = [("gl", 2), ("gl", 3), ("gl", 4), ("so_even", 2), ("so_even", 3),
               ("so_odd", 1), ("so_odd", 2), ("so_odd", 3), ("sp", 1), ("sp", 2),
               ("sp", 3)]

# every family and rank of the verify sweep (test_acceptance.BZ_RANKS)
ALL_RANKS = [("gl", n) for n in (2, 3, 4, 5, 6)] + [("so_even", n) for n in (2, 3, 4)] + [
    (family, n) for family in ("so_odd", "sp") for n in (1, 2, 3, 4)
]


def _dense_matrix(family, n, rng):
    """Random exact matrix of the family's size with some zero entries."""
    size = w0_lift(family, n).nrows
    return ExactMatrix(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(size)]
         for _ in range(size)]
    )


class TestStructuredFactors:
    @pytest.mark.parametrize("family,n", ALL_RANKS)
    @pytest.mark.parametrize("embedded", [False, True])
    def test_lift_permutation_matches_dense_product(self, family, n, embedded):
        lift = w0_lift_embedded(family, n) if embedded else w0_lift(family, n)
        perm = _lift_perm(family, n, embedded)
        m = _dense_matrix(family, n, random.Random(zlib.crc32(repr((family, n)).encode())))
        rows = IntRows.from_exact(m)
        assert rows.permute_columns(perm).to_exact() == m * lift
        assert rows.permute_rows(perm).to_exact() == lift.transpose() * m
        assert lift.transpose() * lift == ExactMatrix.identity(lift.nrows)

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_reversed_string_factors_invert_the_string(self, family, n):
        rng = random.Random(zlib.crc32(repr((family, n, "a")).encode()))
        for chart in (random_positive_chart(family, n, rng),
                      bz_closed_form(random_positive_chart(family, n, rng)).image_chart):
            a = IntRows.from_exact(string1_matrix(chart))
            _times_string1_inverse(a, chart)
            assert a.is_identity()



class TestOracle:
    def test_gl3_all_ones_fixed_point(self):
        res = bz_oracle(constant_chart("gl", 3))
        assert all(v == 1 for v in res.image_chart.coords.values())
        assert res.twist == [1, 1, 1]

    def test_gl_twist_corners(self):
        rng = random.Random(1)
        n = 4
        ch = random_positive_chart("gl", n, rng)
        res = bz_oracle(ch)
        top = Fraction(1)
        bot = Fraction(1)
        for j in range(2, n + 1):
            top *= ch.coords[("m", 1, j)]
        for i in range(1, n):
            bot *= ch.coords[("m", i, n)]
        assert res.twist[0] == top
        assert res.twist[-1] == 1 / bot

    def test_oracle_involution(self):
        rng = random.Random(2)
        for family, n in (("gl", 3), ("so_even", 2), ("so_odd", 2), ("sp", 2)):
            ch = random_positive_chart(family, n, rng)
            assert bz_oracle(bz_oracle(ch).image_chart).image_chart == ch

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_so_odd_entries_are_rational(self, n, monkeypatch):
        """The so_odd realization and a chart matrix hold Fractions only, the
        oracle's integer matrices hold ints only, and the oracle returns
        Fractions: the basis carries no sqrt(2)."""
        real = dense_realization("so_odd", n)
        matrices = [*real.e.values(), *real.f.values(), *real.h.values(), real.form]
        chart = random_positive_chart("so_odd", n, random.Random(n))
        matrices.append(chart_to_matrix(chart))
        assert all(type(v) is Fraction for m in matrices for row in m.rows for v in row)

        kernels = {}
        times, ldu = IntRows.times, IntRows.ldu

        def record_times(self, terms):
            times(self, terms)
            kernels[id(self)] = self

        def record_ldu(self):
            kernels[id(self)] = self
            diag, upper = ldu(self)
            kernels[id(upper)] = upper
            return diag, upper

        monkeypatch.setattr(IntRows, "times", record_times)
        monkeypatch.setattr(IntRows, "ldu", record_ldu)
        res = bz_oracle(chart)
        # X(-t), X(-t) w0bar after the LDU, U, the peeled copy of U and the
        # rebuilt chart
        assert len(kernels) == 5
        assert all(
            type(v) is int for m in kernels.values() for row in [*m.rows, m.dens] for v in row
        )
        assert all(type(v) is Fraction for v in [*res.image_chart.coords.values(), *res.twist])

    def test_outside_big_cell(self):
        # zero chart: X(0) w0bar is the bare lift, whose leading minors vanish
        with pytest.raises(OutsideBigCell):
            bz_oracle(constant_chart("gl", 3, Fraction(0)))


class TestClosedForms:
    @pytest.mark.parametrize("family,n", SMALL_RANKS)
    def test_matches_oracle(self, family, n):
        rng = random.Random(zlib.crc32(repr((family, n, "cf")).encode()))
        for _ in range(20):
            ch = random_positive_chart(family, n, rng)
            a = bz_closed_form(ch)
            b = bz_oracle(ch)
            assert a.image_chart == b.image_chart
            assert a.twist == b.twist

    def test_gl_first_string_reciprocal(self):
        n = 5
        ch = random_positive_chart("gl", n, random.Random(9))
        img = bz_closed_form(ch).image_chart
        for j in range(2, n + 1):
            assert img.coords[("m", 1, j)] == 1 / ch.coords[("m", 1, n + 2 - j)]

    def test_so_even_first_string(self):
        n = 4
        ch = random_positive_chart("so_even", n, random.Random(11))
        c = ch.coords
        img = bz_closed_form(ch).image_chart

        def u(i, j):
            if i == j:
                return Fraction(1)
            if j < n:
                return c[("m", i, j)] + c[("p", i, j)]
            return c[("m", i, n)] if (n - i) % 2 else c[("p", i, n)]

        for j in range(2, n + 1):
            p_expected = u(1, j - 1) / (u(1, j) * (c[("p", 1, j - 1)] if j > 2 else 1))
            ratio = c[("p", 1, j)] / c[("m", 1, j)]
            if j == n and (n - 1) % 2:  # last-column parity flips the ratio
                ratio = 1 / ratio
            assert img.coords[("m", 1, j)] == p_expected
            assert img.coords[("p", 1, j)] == p_expected * ratio

    def test_so_odd_single_root_value(self):
        n = 3
        ch = random_positive_chart("so_odd", n, random.Random(12))
        c = ch.coords
        img = bz_closed_form(ch).image_chart
        u1n = c[("m", 1, n)] + c[("p", 1, n)]
        assert img.coords[("s", 1)] == u1n / (c[("s", 1)] * c[("p", 1, n)])

    def test_sp_single_root_squares(self):
        n = 3
        ch = random_positive_chart("sp", n, random.Random(13))
        c = ch.coords
        img = bz_closed_form(ch).image_chart
        u1n = c[("m", 1, n)] + c[("p", 1, n)]
        assert img.coords[("s", 1)] == u1n**2 / (c[("s", 1)] * c[("p", 1, n)] ** 2)

    @pytest.mark.parametrize("family,n", SMALL_RANKS)
    def test_positive_cone_preserved(self, family, n):
        ch = random_positive_chart(family, n, random.Random(3))
        assert bz_closed_form(ch).image_chart.in_positive_cone

    @pytest.mark.parametrize("family,n", SMALL_RANKS)
    def test_twist_duality(self, family, n):
        # the twist evaluated on reciprocal image coordinates reproduces itself
        ch = random_positive_chart(family, n, random.Random(6))
        res = bz_closed_form(ch)
        recip = {k: 1 / v for k, v in res.image_chart.coords.items()}
        assert bz_twist_coords(family, n, recip) == res.twist


class TestMonomialPrograms:
    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_equal_to_the_formulas(self, family, n):
        # on charts, their image charts and the reciprocal image coordinates,
        # with the output keys in the formulas' order
        rng = random.Random(zlib.crc32(repr((family, n, "mono")).encode()))
        forward, twist = bz_map_program(family, n), bz_twist_program(family, n)
        for _ in range(200):
            coords = random_positive_chart(family, n, rng).coords
            image = bz_map_coords(family, n, coords)
            recip = {k: 1 / v for k, v in image.items()}
            for c in (coords, image, recip):
                got = forward(c)
                assert list(got.items()) == list(bz_map_coords(family, n, c).items())
                assert all(type(v) is Fraction for v in got.values())
                assert twist(c) == bz_twist_coords(family, n, c)

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_zero_coordinate_raises_as_the_formulas_do(self, family, n):
        base = random_positive_chart(family, n, random.Random(n)).coords
        for label in base:
            c = base | {label: Fraction(0)}
            for formula, program in ((bz_map_coords, bz_map_program), (bz_twist_coords, bz_twist_program)):
                try:
                    want = formula(family, n, c)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        program(family, n)(c)
                else:
                    assert program(family, n)(c) == want
            with pytest.raises(ZeroDivisionError):
                bz_map_coords(family, n, c)
            with pytest.raises(ZeroDivisionError):
                bz_map_program(family, n)(c)

    @pytest.mark.parametrize("family,n", [("so_even", 3), ("so_odd", 2), ("sp", 4)])
    def test_zero_pair_sum_raises(self, family, n):
        c = dict(random_positive_chart(family, n, random.Random(5)).coords)
        c[("p", 1, 2)] = -c[("m", 1, 2)]
        with pytest.raises(ZeroDivisionError):
            bz_map_coords(family, n, c)
        with pytest.raises(ZeroDivisionError):
            bz_map_program(family, n)(c)

    def test_pair_sums_are_atoms(self):
        program = bz_map_program("sp", 4)
        assert len(program.pairs) == 6
        assert not bz_map_program("gl", 6).pairs
        assert not bz_twist_program("sp", 4).pairs

    @pytest.mark.parametrize(
        "func",
        [
            lambda c: [c["a"] * c["b"] + c["a"]],
            lambda c: [c["a"] + 1],
            lambda c: [2 * c["a"] + c["b"]],
            lambda c: [c["a"] - c["b"]],
            lambda c: [1 - c["a"]],
            lambda c: {"x": c["a"] ** 2 + c["b"]},
        ],
    )
    def test_tracer_raises_on_a_sum_of_non_atoms(self, func):
        with pytest.raises(NotMonomial):
            compile_monomials(func, "ab")

    def test_sums_of_atoms_and_constants(self):
        program = compile_monomials(
            lambda c: [(c["a"] + c["b"]) / (c["a"] * 3), 2, (c["a"] + c["b"] + c["a"]) ** -2],
            "ab",
        )
        a, b = Fraction(2, 7), Fraction(-5, 3)
        assert program({"a": a, "b": b}) == [(a + b) / (a * 3), 2, (a + b + a) ** -2]
        with pytest.raises(ZeroDivisionError):
            program({"a": Fraction(1), "b": Fraction(-2)})


class TestInverse:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gl_all_ones_fixed_point(self, n):
        ch = constant_chart("gl", n)
        res = bz_closed_form(ch)
        assert res.image_chart == ch
        assert bz_inverse("gl", ch) == ch

    @pytest.mark.parametrize("family,n", SMALL_RANKS)
    def test_all_ones_roundtrip(self, family, n):
        # all-ones is a fixed point only when no mixed t+s sums enter
        # (gl at any rank, the others at the bottom rank); in general the
        # oracle-backed involution is the invariant content
        ch = constant_chart(family, n)
        res = bz_oracle(ch)
        assert res.image_chart == bz_closed_form(ch).image_chart
        assert bz_inverse(family, res.image_chart) == ch

    @pytest.mark.parametrize("family,n", SMALL_RANKS)
    def test_inverse_of_forward(self, family, n):
        rng = random.Random(zlib.crc32(repr((family, n, "inv")).encode()))
        for _ in range(20):
            ch = random_positive_chart(family, n, rng)
            assert bz_inverse(family, bz_closed_form(ch).image_chart) == ch


class TestUMatrix:
    def test_gl3_all_ones(self):
        report = u_matrix_check(constant_chart("gl", 3))
        assert report["entries"]["U[1,1]"] == "1"
        assert report["entries"]["U[2,2]"] == "1"

    @pytest.mark.parametrize("family,n", SMALL_RANKS)
    def test_structure_random(self, family, n):
        rng = random.Random(zlib.crc32(repr((family, n, "u")).encode()))
        for _ in range(5):
            u_matrix_check(random_positive_chart(family, n, rng))

    def test_so_even_diagonal_reciprocal(self):
        n = 3
        ch = random_positive_chart("so_even", n, random.Random(14))
        report = u_matrix_check(ch)
        for k in range(2, n + 1):
            a = Fraction(report["entries"][f"U[{k},{k}]"])
            b = Fraction(report["entries"][f"U[{2 * n + 1 - k},{2 * n + 1 - k}]"])
            assert a * b == 1

    def test_so_odd_middle_entry_is_one(self):
        n = 3
        report = u_matrix_check(random_positive_chart("so_odd", n, random.Random(15)))
        assert report["entries"][f"U[{n + 1},{n + 1}]"] == "1"


class TestWhittakerValues:
    def test_right_value_zero_chart(self):
        assert right_whittaker_value(constant_chart("gl", 3, Fraction(0))) == 1.0

    def test_right_value_gl3_ones(self):
        assert right_whittaker_value(constant_chart("gl", 3)) == pytest.approx(
            math.exp(-3), rel=1e-15
        )

    def test_left_value_zero_weight(self):
        ch = random_positive_chart("sp", 2, random.Random(16))
        img = bz_closed_form(ch).image_chart
        expected = math.exp(-sum(float(v) for v in img.coords.values()))
        assert left_whittaker_value(ch, Weight({})) == pytest.approx(expected, rel=1e-14)

    def test_left_value_gl3_ones(self):
        assert left_whittaker_value(constant_chart("gl", 3), Weight({})) == pytest.approx(
            math.exp(-3), rel=1e-15
        )

    @pytest.mark.parametrize("family,n", SMALL_RANKS)
    def test_monomial_forms_agree(self, family, n):
        # t^nu on the chart equals p^(-nu) on the image, exactly
        rng = random.Random(zlib.crc32(repr((family, n, "lw")).encode()))
        ch = random_positive_chart(family, n, rng)
        img = bz_closed_form(ch).image_chart
        nu = Weight({k: rng.randint(-3, 3) for k in range(1, n + 1)})
        assert monomial_weight(ch, nu) * monomial_weight(img, nu) == 1

    @pytest.mark.parametrize("family,n", [("gl", 3), ("so_odd", 2)])
    def test_left_value_both_forms(self, family, n):
        rng = random.Random(18)
        ch = random_positive_chart(family, n, rng)
        nu = Weight({k: rng.randint(-2, 2) for k in range(1, n + 1)})
        assert left_whittaker_value(ch, nu, form="t") == pytest.approx(
            left_whittaker_value(ch, nu, form="p"), rel=1e-12
        )

    def test_right_value_mutation_invariant(self):
        # coordinate sums are chart independent, hence so is the value
        from whittaker_mb.charts import mutate_b2

        pt = (Fraction(3, 2), Fraction(1, 3), Fraction(5), Fraction(2, 7))
        out = mutate_b2(pt)
        assert math.exp(-float(sum(pt))) == pytest.approx(
            math.exp(-float(sum(out))), rel=1e-15
        )
