import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whittaker_mb.exact import (
    DivisionByZero,
    ExactMatrix,
    IntRows,
    Jet,
    SingularLeadingMinor,
    jacobian_exact,
    lu_gauss_decompose,
    signed_permutation,
)

def frac_matrix(n, rng):
    return ExactMatrix(
        [
            [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def reference_ldu(m):
    """(L, D, U) of M = L D U by plain Fraction elimination without
    pivoting; raises SingularLeadingMinor(k + 1) at a zero pivot k."""
    n = m.nrows
    u = [list(r) for r in m.rows]
    lower = ExactMatrix.identity(n)
    for k in range(n):
        p = u[k][k]
        if p == 0:
            raise SingularLeadingMinor(k + 1)
        for i in range(k + 1, n):
            if u[i][k] != 0:
                f = u[i][k] / p
                lower.rows[i][k] = f
                for j in range(k, n):
                    u[i][j] = u[i][j] - f * u[k][j]
    diag = ExactMatrix.identity(n)
    upper = ExactMatrix.identity(n)
    for k in range(n):
        p = u[k][k]
        diag.rows[k][k] = p
        for j in range(k, n):
            upper.rows[k][j] = u[k][j] / p
    return lower, diag, upper


def singular_at(m, k, rng):
    """m with its k-th leading principal minor made to vanish: the first k
    entries of row k - 1 become a combination of the rows above."""
    rows = [list(r) for r in m.rows]
    coef = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k - 1)]
    rows[k - 1][:k] = [
        sum((c * rows[i][j] for i, c in enumerate(coef)), Fraction(0)) for j in range(k)
    ]
    return ExactMatrix(rows)


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

    def test_matches_fraction_elimination(self):
        rng = random.Random(20261021)
        done = 0
        for n in range(1, 9):
            for _ in range(12):
                m = frac_matrix(n, rng)
                try:
                    want = reference_ldu(m)
                except SingularLeadingMinor:
                    continue
                dec = lu_gauss_decompose(m)
                assert (dec.lower, dec.diag, dec.upper) == want
                done += 1
        assert done > 80

    def test_vanishing_leading_minor_at_each_k(self):
        rng = random.Random(7)
        for n in range(1, 9):
            for k in range(1, n + 1):
                m = singular_at(frac_matrix(n, rng), k, rng)
                with pytest.raises(SingularLeadingMinor) as want:
                    reference_ldu(m)
                with pytest.raises(SingularLeadingMinor) as got:
                    lu_gauss_decompose(m)
                assert got.value.k == want.value.k <= k


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
            [[1, 0, 2, 0], [0, 3, 0, 1], [Fraction(1, 2), 0, 0, 5], [0, 0, Fraction(-2, 3), 1]]
        )
        terms = [(0, 1, Fraction(2)), (1, 2, Fraction(5, 7)), (2, 0, Fraction(-3, 4)),
                 (1, 3, Fraction(1, 3))]
        s = ExactMatrix.zeros(4)
        for i, j, v in terms:
            s.rows[i][j] = v
        expected = m * (ExactMatrix.identity(4) + s)
        got = IntRows.from_exact(m)
        got.times(terms)
        assert got.to_exact() == expected

    def test_apply_right_sparse_matches_dense(self):
        rng = random.Random(3)
        m = frac_matrix(4, rng)
        terms = [(0, 2, Fraction(5)), (1, 3, Fraction(-2))]
        s = ExactMatrix.zeros(4)
        for i, j, v in terms:
            s.rows[i][j] = v
        expected = m * (ExactMatrix.identity(4) + s)
        got = IntRows.from_exact(m)
        got.times(terms)
        assert got.to_exact() == expected


class TestSignedPermutation:
    def test_map_of_a_signed_permutation(self):
        w = ExactMatrix([[0, -1, 0], [0, 0, 1], [Fraction(1), 0, 0]])
        assert signed_permutation(w) == ((2, 1), (0, -1), (1, 1))

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [1, 1]],  # two nonzero entries in a column
            [[0, 2], [1, 0]],  # entry other than +-1
            [[1, 0], [0, 0]],  # zero column
            [[1, 1], [0, 0]],  # columns share a row
            [[1, 0, 0], [0, 1, 0]],  # not square
        ],
    )
    def test_rejects_other_matrices(self, rows):
        with pytest.raises(ValueError):
            signed_permutation(ExactMatrix(rows))


def cofactor_det(rows):
    """Determinant by Laplace expansion along the first row."""
    if len(rows) == 1:
        return Fraction(rows[0][0])
    return sum(
        (-1) ** j * v * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, v in enumerate(rows[0])
        if v
    )


class TestDeterminant:
    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2, 3], [2, 4, 6], [Fraction(1, 3), 5, -7]],  # rows 1 and 2 dependent
            [[0, 0, 1], [0, 0, 2], [3, 4, 5]],  # zero column
            [[0, 1, 2], [3, 4, 5], [6, 7, 9]],  # zero first pivot
            [[1, 2, 3, 4], [2, 4, 7, 1], [0, 1, -1, 2], [5, 3, 0, -2]],  # zero pivot mid-way
            [[Fraction(-3, 4), 2, Fraction(-1, 6)], [Fraction(5, 9), -7, 1],
             [-2, Fraction(-4, 3), Fraction(1, 2)]],
            [[Fraction(-7, 3)]],
        ],
    )
    def test_matches_cofactor_expansion(self, rows):
        m = ExactMatrix(rows)
        assert m.det() == cofactor_det(m.rows)

    def test_singular_is_zero_and_swap_flips_sign(self):
        assert ExactMatrix([[1, 2, 3], [2, 4, 6], [7, 8, 9]]).det() == 0
        m = [[0, 2, 1], [3, Fraction(-1, 2), 4], [1, 1, Fraction(5, 7)]]
        swapped = [m[1], m[0], m[2]]
        assert ExactMatrix(m).det() == -ExactMatrix(swapped).det() == cofactor_det(m)

    def test_random_negative_entries_match_cofactor_expansion(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) * rng.randint(0, 1)
                 for _ in range(n)]
                for _ in range(n)
            ]
            assert ExactMatrix(rows).det() == cofactor_det(rows)


def jet(val, eps):
    """Jet in one direction with value `val` and derivative `eps`."""
    val, eps = Fraction(val), Fraction(eps)
    q = val.denominator * eps.denominator
    return Jet(val.numerator * eps.denominator, [eps.numerator * val.denominator], q)


class TestDualNumbers:
    """The jets are dual numbers in every direction at once."""

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
        x = jet(Fraction(3), Fraction(1))
        y = x**3 / (1 + x)
        assert y.value == Fraction(27, 4)
        assert y.grad == [Fraction(27, 4) * (Fraction(3, 3) - Fraction(1, 4))]

    @pytest.mark.parametrize("k", range(-3, 5))
    @pytest.mark.parametrize(
        "val,eps",
        [(Fraction(3, 7), Fraction(-2, 5)), (Fraction(-4), Fraction(1)),
         (Fraction(-5, 2), Fraction(0)), (Fraction(1), Fraction(7, 3))],
    )
    def test_power_matches_repeated_multiplication(self, k, val, eps):
        x = jet(val, eps)
        base = x if k >= 0 else 1 / x
        want = jet(1, 0)
        for _ in range(abs(k)):
            want = want * base
        got = x**k
        assert got.value == want.value and got.grad == want.grad

    def test_constant_component_has_zero_gradient(self):
        jac = jacobian_exact(lambda p: (p[0], 1, Fraction(2, 3)), (2, 3, 5))
        assert jac == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_negative_power_of_zero_raises(self):
        with pytest.raises(DivisionByZero):
            jet(Fraction(0), Fraction(1)) ** -2
