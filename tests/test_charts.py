import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittaker_mb.exact import ExactMatrix
from whittaker_mb.charts import (
    NotInChartDomain,
    RANK2_LENGTH_CLASSES,
    RANK2_MONOMIALS,
    chart_from_values,
    chart_to_matrix,
    constant_chart,
    extract_coordinates,
    measure_jacobian_logdet,
    monomial_weight,
    mutate_a2,
    mutate_b2,
    mutate_g2,
)
from whittaker_mb.bz import bz_map_coords, random_positive_chart
from whittaker_mb.roots import Weight, build_root_system

positive_fractions = st.fractions(min_value=Fraction(1, 40), max_value=50, max_denominator=40)

MUTATIONS = {"a2": (mutate_a2, 3), "b2": (mutate_b2, 4), "g2": (mutate_g2, 6)}


class TestChartToMatrix:
    def test_gl3_all_ones(self):
        m = chart_to_matrix(constant_chart("gl", 3))
        assert m == ExactMatrix([[1, 1, 1], [0, 1, 2], [0, 0, 1]])

    def test_zero_chart_is_identity(self):
        for family, n in (("gl", 4), ("so_even", 3), ("so_odd", 2), ("sp", 3)):
            ch = constant_chart(family, n, Fraction(0))
            assert chart_to_matrix(ch).is_identity()

    def test_gl2_single_coordinate(self):
        c = Fraction(7, 3)
        m = chart_to_matrix(chart_from_values("gl", 2, [c]))
        assert m == ExactMatrix([[1, c], [0, 1]])

    def test_so_odd_quadratic_exponential_term(self):
        # the short generator e = E_12 - 2 E_23 squares to -2 E_13, so its
        # exponential carries a genuine quadratic entry
        m = chart_to_matrix(chart_from_values("so_odd", 1, [Fraction(2)]))
        assert m[0, 1] == Fraction(2)
        assert m[1, 2] == Fraction(-4)
        assert m[0, 2] == Fraction(-4)

    def test_unipotent_in_the_group(self):
        from whittaker_mb.roots import build_realization

        rng = random.Random(8)
        for family, n in (("so_even", 3), ("so_odd", 2), ("sp", 3)):
            real = build_realization(family, n)
            m = chart_to_matrix(random_positive_chart(family, n, rng))
            g = real.form
            if real.form_kind == "skew":
                assert m.transpose() * g * m == g
            else:
                assert m.transpose() * g * m == g


class TestExtraction:
    def test_gl3_hand_example(self):
        rs = build_root_system("gl", 3)
        ch = extract_coordinates(ExactMatrix([[1, 1, 1], [0, 1, 2], [0, 0, 1]]), rs)
        assert all(v == 1 for v in ch.coords.values())

    def test_identity_is_zero_chart(self):
        for family, n in (("gl", 3), ("so_even", 2), ("so_odd", 2), ("sp", 2)):
            rs = build_root_system(family, n)
            size = build_root_system(family, n).matrix_size
            ch = extract_coordinates(ExactMatrix.identity(size), rs)
            assert all(v == 0 for v in ch.coords.values())
            assert not ch.in_positive_cone

    @pytest.mark.parametrize(
        "family,n",
        [("gl", 2), ("gl", 3), ("gl", 4), ("so_even", 2), ("so_even", 3),
         ("so_even", 4), ("so_odd", 1), ("so_odd", 2), ("so_odd", 3),
         ("so_odd", 4), ("sp", 1), ("sp", 2), ("sp", 3), ("sp", 4)],
    )
    def test_roundtrip_random_charts(self, family, n):
        rng = random.Random(zlib.crc32(repr((family, n)).encode()))
        for _ in range(10):
            ch = random_positive_chart(family, n, rng)
            back = extract_coordinates(chart_to_matrix(ch), ch.root_system)
            assert back == ch

    def test_out_of_domain(self):
        rs = build_root_system("gl", 3)
        # vanishing leading first-row entry with nonzero later entries
        bad = ExactMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(NotInChartDomain):
            extract_coordinates(bad, rs)


class TestMutations:
    def test_a2_hand_value(self):
        assert mutate_a2((Fraction(2), Fraction(3), Fraction(4))) == (
            Fraction(1),
            Fraction(6),
            Fraction(2),
        )

    def test_b2_all_ones(self):
        assert mutate_b2((1, 1, 1, 1)) == (
            Fraction(1, 5),
            Fraction(5, 3),
            Fraction(9, 5),
            Fraction(1, 3),
        )

    @pytest.mark.parametrize("pattern", ["a2", "b2", "g2"])
    def test_involutive_and_invariants_500(self, pattern):
        mut, size = MUTATIONS[pattern]
        rng = random.Random(101)
        for _ in range(500):
            pt = tuple(
                Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(size)
            )
            out = mut(pt)
            assert mut(out) == pt
            assert all(v > 0 for v in out)
            for cls in RANK2_LENGTH_CLASSES[pattern]:
                assert sum(pt[i] for i in cls) == sum(out[i] for i in cls)
            for exps in RANK2_MONOMIALS[pattern].values():
                before = after = Fraction(1)
                for i, e in enumerate(exps):
                    before *= pt[i] ** e
                    after *= out[i] ** e
                assert before == after

    @given(positive_fractions, positive_fractions, positive_fractions)
    @settings(max_examples=60)
    def test_a2_involution_property(self, a, b, c):
        assert mutate_a2(mutate_a2((a, b, c))) == (a, b, c)

    def test_total_sum_invariant_under_composition(self):
        rng = random.Random(5)
        pt = tuple(Fraction(rng.randint(1, 9)) for _ in range(6))
        out = mutate_g2(mutate_g2(pt))
        assert sum(out) == sum(pt)


class TestMonomials:
    def test_zero_weight_gives_one(self):
        ch = constant_chart("sp", 2, Fraction(3))
        assert monomial_weight(ch, Weight({})) == 1

    def test_gl_fundamental_like_weight(self):
        # weight pairing to 1 on one simple coroot only
        ch = random_positive_chart("gl", 3, random.Random(4))
        mu = Weight({1: 1})  # pairs 1 with (e1-e2)vee and (e1-e3)vee
        expected = ch.coords[("m", 1, 2)] * ch.coords[("m", 1, 3)]
        assert monomial_weight(ch, mu) == expected

    def test_rank2_monomial_tables_match_membership(self):
        # the invariant-monomial exponent tables are what the mutation
        # invariance test consumed; spot check the quoted entries
        assert RANK2_MONOMIALS["a2"]["alpha"] == (1, 1, 0)
        assert RANK2_MONOMIALS["b2"]["alpha"] == (1, 2, 1, 0)
        assert RANK2_MONOMIALS["b2"]["beta"] == (0, 1, 1, 1)


class TestMeasure:
    def test_a2_mutation_log_jacobian(self):
        det = measure_jacobian_logdet(mutate_a2, (Fraction(2), Fraction(3), Fraction(4)))
        assert det == 1

    def test_identity_map(self):
        det = measure_jacobian_logdet(lambda p: p, (Fraction(2), Fraction(5)))
        assert det == 1

    @pytest.mark.parametrize("pattern", ["b2", "g2"])
    def test_rank2_mutations_preserve_measure(self, pattern):
        mut, size = MUTATIONS[pattern]
        rng = random.Random(77)
        pt = tuple(Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(size))
        assert measure_jacobian_logdet(mut, pt) == 1

    def test_gl3_bz_map_preserves_measure(self):
        rs = build_root_system("gl", 3)
        labels = rs.positive_roots
        rng = random.Random(13)
        pt = tuple(Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in labels)

        def as_map(vals):
            img = bz_map_coords("gl", 3, dict(zip(labels, vals)))
            return tuple(img[l] for l in labels)

        assert measure_jacobian_logdet(as_map, pt) == 1
