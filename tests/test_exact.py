import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittaker_mb.exact import (
    Dual,
    DivisionByZero,
    ExactMatrix,
    QSqrt2,
    SQRT2,
    SingularLeadingMinor,
    jacobian_exact,
    lu_gauss_decompose,
    signed_permutation,
)

fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


def frac_matrix(n, rng):
    return ExactMatrix(
        [
            [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
    )


class TestQSqrt2:
    def test_conjugate_product(self):
        assert QSqrt2(1, 1) * QSqrt2(1, -1) == QSqrt2(-1)

    def test_inverse_of_one_plus_sqrt2(self):
        assert QSqrt2(1, 1).inverse() == QSqrt2(-1, 1)

    def test_sqrt2_squares_to_two(self):
        assert SQRT2 * SQRT2 == QSqrt2(2)
        assert SQRT2**2 == QSqrt2(2)

    def test_zero_inverse_raises(self):
        with pytest.raises(DivisionByZero):
            QSqrt2(0, 0).inverse()

    @given(fractions, fractions, fractions, fractions, fractions, fractions)
    def test_multiplication_associative(self, a, b, c, d, e, f):
        x, y, z = QSqrt2(a, b), QSqrt2(c, d), QSqrt2(e, f)
        assert (x * y) * z == x * (y * z)

    @given(fractions, fractions)
    def test_field_inverse(self, a, b):
        x = QSqrt2(a, b)
        if x == QSqrt2(0):
            return
        assert x * x.inverse() == QSqrt2(1)

    @given(fractions, fractions, fractions, fractions)
    def test_float_conversion_monotone(self, a, b, c, d):
        x, y = QSqrt2(a, b), QSqrt2(c, d)
        if x < y:
            assert float(x) <= float(y)
        elif y < x:
            assert float(y) <= float(x)

    @pytest.mark.parametrize("other", [Fraction(-7, 3), 5, QSqrt2(Fraction(2, 9))])
    def test_rational_fast_path_matches_general_formula(self, other):
        x = QSqrt2(Fraction(5, 4))
        o = QSqrt2._coerce(other)
        general_sum = QSqrt2(x.a + o.a, x.b + o.b)
        general_product = QSqrt2(x.a * o.a + 2 * x.b * o.b, x.a * o.b + x.b * o.a)
        for got, want in ((x + other, general_sum), (other + x, general_sum),
                          (x * other, general_product), (other * x, general_product)):
            assert type(got) is QSqrt2
            assert got == want and hash(got) == hash(want)
            assert (got.a, got.b) == (want.a, want.b)
            assert type(got.a) is Fraction and type(got.b) is Fraction
            assert hash(got) == hash(want.a)

    def test_mixed_arithmetic_with_fraction(self):
        assert Fraction(1, 2) + SQRT2 == QSqrt2(Fraction(1, 2), 1)
        assert Fraction(3) * SQRT2 == QSqrt2(0, 3)
        assert (Fraction(2) / SQRT2) == SQRT2


class TestGaussDecomposition:
    def test_two_by_two_closed_form(self):
        a, b, c, d = Fraction(3), Fraction(5), Fraction(2), Fraction(7)
        m = ExactMatrix([[a, b], [c, d]])
        dec = lu_gauss_decompose(m)
        assert dec.lower == ExactMatrix([[1, 0], [c / a, 1]])
        assert dec.diag_entries() == [a, (a * d - b * c) / a]
        assert dec.upper == ExactMatrix([[1, b / a], [0, 1]])

    def test_hand_computed_three_by_three(self):
        # chart matrix times the longest-element lift at all-ones coordinates
        m = ExactMatrix([[1, 1, 1], [-2, -1, 0], [1, 0, 0]])
        dec = lu_gauss_decompose(m)
        assert dec.diag_entries() == [1, 1, 1]
        assert dec.upper == ExactMatrix([[1, 1, 1], [0, 1, 2], [0, 0, 1]])
        assert dec.recompose() == m

    def test_singular_leading_minor(self):
        with pytest.raises(SingularLeadingMinor) as exc:
            lu_gauss_decompose(ExactMatrix([[0, 1], [1, 0]]))
        assert exc.value.k == 1

    def test_roundtrip_and_determinant_1000_random(self):
        rng = random.Random(20240817)
        done = 0
        while done < 1000:
            n = rng.randint(1, 8)
            m = frac_matrix(n, rng)
            try:
                dec = lu_gauss_decompose(m)
            except SingularLeadingMinor:
                continue
            assert dec.recompose() == m
            det = Fraction(1)
            for v in dec.diag_entries():
                det *= v
            assert det == m.det()
            done += 1

    def test_sqrt2_entries(self):
        m = ExactMatrix([[SQRT2, Fraction(1)], [Fraction(1), SQRT2]])
        dec = lu_gauss_decompose(m)
        assert dec.recompose() == m
        assert dec.diag_entries()[0] == SQRT2


class TestMatrixAlgebra:
    @given(st.integers(2, 4), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_associativity_and_distributivity(self, n, seed):
        rng = random.Random(seed)
        a, b, c = (frac_matrix(n, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_apply_right_sparse_simultaneous_terms_match_dense(self):
        # a term's target column is another term's source column, and rows
        # with a zero source entry are skipped
        m = ExactMatrix(
            [[1, 0, 2, 0], [0, 3, 0, 1], [Fraction(1, 2), 0, 0, 5], [0, 0, SQRT2, 1]]
        )
        terms = [(0, 1, Fraction(2)), (1, 2, SQRT2), (2, 0, Fraction(-3, 4)),
                 (1, 3, Fraction(1, 3))]
        s = ExactMatrix.zeros(4)
        for i, j, v in terms:
            s.rows[i][j] = v
        expected = m * (ExactMatrix.identity(4) + s)
        got = m.copy()
        got.apply_right_sparse(terms)
        assert got == expected

    def test_apply_right_sparse_matches_dense(self):
        rng = random.Random(3)
        m = frac_matrix(4, rng)
        terms = [(0, 2, Fraction(5)), (1, 3, Fraction(-2))]
        s = ExactMatrix.zeros(4)
        for i, j, v in terms:
            s.rows[i][j] = v
        expected = m * (ExactMatrix.identity(4) + s)
        got = m.copy()
        got.apply_right_sparse(terms)
        assert got == expected


class TestSignedPermutation:
    def test_map_of_a_signed_permutation(self):
        w = ExactMatrix([[0, -1, 0], [0, 0, 1], [QSqrt2(1), 0, 0]])
        assert signed_permutation(w) == ((2, 1), (0, -1), (1, 1))

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [1, 1]],  # two nonzero entries in a column
            [[0, 2], [1, 0]],  # entry other than +-1
            [[0, SQRT2], [1, 0]],
            [[1, 0], [0, 0]],  # zero column
            [[1, 1], [0, 0]],  # columns share a row
            [[1, 0, 0], [0, 1, 0]],  # not square
        ],
    )
    def test_rejects_other_matrices(self, rows):
        with pytest.raises(ValueError):
            signed_permutation(ExactMatrix(rows))


class TestDualNumbers:
    def test_rational_map_derivative(self):
        def f(p):
            (x, y) = p
            return (x * y / (x + y), x + y)

        jac = jacobian_exact(f, (Fraction(2), Fraction(3)))
        # d/dx [xy/(x+y)] = y^2/(x+y)^2 at (2,3) -> 9/25
        assert jac[0][0] == Fraction(9, 25)
        assert jac[0][1] == Fraction(4, 25)
        assert jac[1] == [1, 1]

    def test_power_and_division(self):
        x = Dual(Fraction(3), Fraction(1))
        y = x**3 / (1 + x)
        assert y.val == Fraction(27, 4)
        assert y.eps == Fraction(27, 4) * (Fraction(3, 3) - Fraction(1, 4))

    @pytest.mark.parametrize("k", range(-3, 5))
    @pytest.mark.parametrize(
        "val,eps",
        [(Fraction(3, 7), Fraction(-2, 5)), (Fraction(-4), Fraction(1)),
         (QSqrt2(Fraction(1, 2), 3), QSqrt2(-1, Fraction(2, 3))),
         (QSqrt2(Fraction(5, 3)), Fraction(1))],
    )
    def test_power_matches_repeated_multiplication(self, k, val, eps):
        x = Dual(val, eps)
        base = x if k >= 0 else Dual(Fraction(1)) / x
        want = Dual(Fraction(1))
        for _ in range(abs(k)):
            want = want * base
        got = x**k
        assert got.val == want.val and got.eps == want.eps

    def test_negative_power_of_zero_raises(self):
        with pytest.raises(DivisionByZero):
            Dual(Fraction(0), Fraction(1)) ** -2
