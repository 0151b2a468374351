import random
import zlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dense_matrix import Dense
from dense_realization import dense_realization

from whittaker_mb.exact import IntRows, jacobian_exact
from whittaker_mb.charts import (
    ChartError,
    DegenerateDenominator,
    NotInChartDomain,
    RANK2_LENGTH_CLASSES,
    RANK2_MONOMIALS,
    ReconstructionMismatch,
    chart_from_values,
    chart_to_matrix,
    constant_chart,
    extract_coordinates,
    measure_jacobian_logdet,
    monomial_weight,
    mutate_a2,
    mutate_b2,
    mutate_g2,
    _word_rows,
)
from whittaker_mb.bz import bz_map_coords, random_positive_chart
from whittaker_mb.roots import Weight, build_root_system

positive_fractions = st.fractions(min_value=Fraction(1, 40), max_value=50, max_denominator=40)

MUTATIONS = {"a2": (mutate_a2, 3), "b2": (mutate_b2, 4), "g2": (mutate_g2, 6)}

# every family and rank of the verify sweep (test_acceptance.BZ_RANKS)
ALL_RANKS = [("gl", n) for n in (2, 3, 4, 5, 6)] + [("so_even", n) for n in (2, 3, 4)] + [
    (family, n) for family in ("so_odd", "sp") for n in (1, 2, 3, 4)
]


def dense_exp(x: Dense) -> Dense:
    """exp(x) of a nilpotent matrix, summed until a power vanishes."""
    size = x.nrows
    total = power = Dense.identity(size)
    k = 1
    while True:
        power = power * x * Fraction(1, k)
        if power == Dense.zeros(size):
            return total
        total, k = total + power, k + 1


class TestChartToMatrix:
    def test_gl3_all_ones(self):
        m = chart_to_matrix(constant_chart("gl", 3))
        assert m == IntRows.from_rows([[1, 1, 1], [0, 1, 2], [0, 0, 1]])

    def test_zero_chart_is_identity(self):
        for family, n in (("gl", 4), ("so_even", 3), ("so_odd", 2), ("sp", 3)):
            ch = constant_chart(family, n, Fraction(0))
            assert chart_to_matrix(ch).is_identity()

    def test_gl2_single_coordinate(self):
        c = Fraction(7, 3)
        m = chart_to_matrix(chart_from_values("gl", 2, [c]))
        assert m == IntRows.from_rows([[1, c], [0, 1]])

    def test_so_odd_quadratic_exponential_term(self):
        # the short generator e = E_12 - 2 E_23 squares to -2 E_13, so its
        # exponential carries a genuine quadratic entry
        m = Dense.of(chart_to_matrix(chart_from_values("so_odd", 1, [Fraction(2)])))
        assert m[0, 1] == Fraction(2)
        assert m[1, 2] == Fraction(-4)
        assert m[0, 2] == Fraction(-4)

    def test_unipotent_in_the_group(self):
        rng = random.Random(8)
        for family, n in (("so_even", 3), ("so_odd", 2), ("sp", 3)):
            m = Dense.of(chart_to_matrix(random_positive_chart(family, n, rng)))
            g = dense_realization(family, n).form
            assert m.transpose() * g * m == g


class TestIntegerChartProduct:
    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_matches_dense_exponentials(self, family, n):
        chart = random_positive_chart(family, n, random.Random(zlib.crc32(repr((family, n, "e")).encode())))
        real = dense_realization(family, n)
        want = Dense.identity(real.matrix_size)
        for letter, label in chart.root_system.word:
            want = want * dense_exp(chart.coords[label] * real.e[letter])
        rows = _word_rows(chart, chart.root_system.word)
        assert all(type(v) is int for row in [*rows.rows, rows.dens] for v in row)
        assert Dense.of(rows) == want
        assert chart_to_matrix(chart) == rows


class TestExtraction:
    def test_gl3_hand_example(self):
        rs = build_root_system("gl", 3)
        ch = extract_coordinates(IntRows.from_rows([[1, 1, 1], [0, 1, 2], [0, 0, 1]]), rs)
        assert all(v == 1 for v in ch.coords.values())

    def test_identity_is_zero_chart(self):
        for family, n in (("gl", 3), ("so_even", 2), ("so_odd", 2), ("sp", 2)):
            rs = build_root_system(family, n)
            size = build_root_system(family, n).matrix_size
            ch = extract_coordinates(IntRows.identity(size), rs)
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

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_corrupted_matrix_is_rejected(self, family, n):
        chart = random_positive_chart(family, n, random.Random(zlib.crc32(repr((family, n, "c")).encode())))
        rs = chart.root_system
        good = _word_rows(chart, rs.word)
        assert extract_coordinates(good, rs) == chart
        last = len(good.rows) - 1
        # the last diagonal entry and an entry below the diagonal; outside
        # gl (where every unitriangular matrix is a chart matrix), also an
        # entry above it that the group fixes
        for i, j in ((last, last), (last, 0)) + (((1, last),) if family != "gl" else ()):
            bad = IntRows([list(row) for row in good.rows], list(good.dens))
            bad.rows[i][j] += 7 * bad.dens[i]
            with pytest.raises(ReconstructionMismatch):
                extract_coordinates(bad, rs)

    @pytest.mark.parametrize(
        "family,n,col",
        [("gl", 3, 1), ("gl", 6, 1), ("so_even", 3, 4), ("so_even", 4, 6), ("so_odd", 2, 3),
         ("so_odd", 4, 7), ("sp", 2, 2), ("sp", 4, 6)],
    )
    def test_vanishing_first_row_entry_is_out_of_domain(self, family, n, col):
        # col is the entry the first ratio of the first string divides by
        chart = random_positive_chart(family, n, random.Random(n))
        x = _word_rows(chart, chart.root_system.word)
        x.rows[0][col] = 0
        with pytest.raises(NotInChartDomain):
            extract_coordinates(x, chart.root_system)

    def test_out_of_domain(self):
        rs = build_root_system("gl", 3)
        # vanishing leading first-row entry with nonzero later entries
        bad = IntRows.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
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

    def test_square_map_has_log_jacobian_two(self):
        pt = (Fraction(3, 7), Fraction(-5, 2))
        assert measure_jacobian_logdet(lambda p: (p[0] ** 2, p[1]), pt) == 2
        assert measure_jacobian_logdet(lambda p: (p[0] * p[0], p[1]), pt) == 2

    @pytest.mark.parametrize("x", [Fraction(2, 3), Fraction(-9, 4), Fraction(5)])
    def test_moebius_map_has_log_jacobian_one_over_one_plus_x(self, x):
        assert measure_jacobian_logdet(lambda p: (p[0] / (1 + p[0]),), (x,)) == abs(1 / (1 + x))

    def test_constant_component_has_log_jacobian_zero(self):
        assert measure_jacobian_logdet(lambda p: (p[0], 1), (2, 3)) == 0
        assert measure_jacobian_logdet(lambda p: (Fraction(1, 2), p[1]), (2, 3)) == 0

    def test_vanishing_component_is_named(self):
        with pytest.raises(NotInChartDomain, match="component 1 "):
            measure_jacobian_logdet(lambda p: (p[0], p[1] * 0), (2, 3))

    def test_non_square_map_raises(self):
        with pytest.raises(ChartError):
            measure_jacobian_logdet(lambda p: (p[0], p[1], p[0] * p[1]), (Fraction(1), Fraction(2)))

    @pytest.mark.parametrize(
        "f,pt,exc",
        [
            (mutate_a2, (1, 2, -1), DegenerateDenominator),  # the map's own guard
            (lambda p: (1 / p[0], p[1]), (0, 1), ZeroDivisionError),
            (lambda p: (p[0] ** -2, p[1]), (0, 1), ZeroDivisionError),
            (lambda p: (p[1] / (p[0] - 1), p[1]), (1, 2), ZeroDivisionError),
            (lambda p: (p[0] - 1, p[1]), (1, 2), NotInChartDomain),  # a zero value
        ],
    )
    def test_zero_denominator_raises(self, f, pt, exc):
        with pytest.raises(exc):
            measure_jacobian_logdet(f, tuple(Fraction(v) for v in pt))


class _Dual:
    """Scalar dual number over Fractions: the reference for the jets."""

    def __init__(self, val, eps=Fraction(0)):
        self.val, self.eps = Fraction(val), Fraction(eps)

    @staticmethod
    def lift(o):
        return o if isinstance(o, _Dual) else _Dual(o)

    def __add__(self, o):
        o = self.lift(o)
        return _Dual(self.val + o.val, self.eps + o.eps)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.val, -self.eps)

    def __sub__(self, o):
        return self + -self.lift(o)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        o = self.lift(o)
        return _Dual(self.val * o.val, self.val * o.eps + self.eps * o.val)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self.lift(o)
        v = self.val / o.val
        return _Dual(v, (self.eps - v * o.eps) / o.val)

    def __rtruediv__(self, o):
        return self.lift(o) / self

    def __pow__(self, k):
        out = _Dual(1)
        for _ in range(abs(k)):
            out = out * self
        return out if k >= 0 else 1 / out

    def __eq__(self, o):
        return self.val == o


def reference_jacobian(func, point):
    """d scalar passes, one per seed direction."""
    d = len(point)
    cols = [
        [y.eps for y in func(tuple(_Dual(x, int(k == j)) for k, x in enumerate(point)))]
        for j in range(d)
    ]
    return [[cols[j][i] for j in range(d)] for i in range(len(cols[0]))]


ALL_RANKS = [("gl", n) for n in (2, 3, 4, 5, 6)] + [("so_even", n) for n in (2, 3, 4)] + [
    (family, n) for family in ("so_odd", "sp") for n in (1, 2, 3, 4)
]


class TestJetAgainstScalarDuals:
    @pytest.mark.parametrize("pattern", ["a2", "b2", "g2"])
    def test_rank2_mutations(self, pattern):
        mut, size = MUTATIONS[pattern]
        rng = random.Random(zlib.crc32(pattern.encode()))
        for _ in range(3):
            pt = tuple(Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(size))
            assert jacobian_exact(mut, pt) == reference_jacobian(mut, pt)

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_bz_map(self, family, n):
        labels = build_root_system(family, n).positive_roots

        def as_map(vals):
            img = bz_map_coords(family, n, dict(zip(labels, vals)))
            return tuple(img[l] for l in labels)

        rng = random.Random(zlib.crc32(f"{family}{n}".encode()))
        for _ in range(3):
            pt = random_positive_chart(family, n, rng).values_in_order()
            assert jacobian_exact(as_map, pt) == reference_jacobian(as_map, pt)
