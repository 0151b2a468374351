from fractions import Fraction

import pytest
from dense_realization import dense_realization

from whittaker_mb.exact import ExactMatrix
from whittaker_mb.roots import (
    UnsupportedRank,
    Weight,
    build_realization,
    build_root_system,
    cartan_scaling_exponent,
    coroot_pairing,
    rho_of,
    w0_lift,
    weyl_lift,
)

ALL_RANKS = [("gl", n) for n in range(2, 7)] + [
    ("so_even", n) for n in range(2, 5)
] + [("so_odd", n) for n in range(1, 5)] + [("sp", n) for n in range(1, 5)]


class TestOrdering:
    def test_gl3_ordering(self):
        rs = build_root_system("gl", 3)
        assert rs.positive_roots == (("m", 2, 3), ("m", 1, 3), ("m", 1, 2))
        assert rs.d == 3

    def test_so_even2_ordering(self):
        rs = build_root_system("so_even", 2)
        assert rs.positive_roots == (("p", 1, 2), ("m", 1, 2))
        assert rs.d == 2

    def test_so_odd1_degenerate(self):
        rs = build_root_system("so_odd", 1)
        assert rs.positive_roots == (("s", 1),)
        assert rs.d == 1

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_root_counts(self, family, n):
        rs = build_root_system(family, n)
        expected = {
            "gl": n * (n - 1) // 2,
            "so_even": n * (n - 1),
            "so_odd": n * n,
            "sp": n * n,
        }[family]
        assert rs.d == expected
        assert len(rs.word) == rs.d

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_ordering_is_normal(self, family, n):
        # any decomposable positive root sits between its two summands
        rs = build_root_system(family, n)
        vecs = {}
        for label in rs.positive_roots:
            v = [0] * n
            if label[0] == "s":
                v[label[1] - 1] = 2 if family == "sp" else 1
            else:
                _, i, j = label
                v[i - 1] = 1
                v[j - 1] = -1 if label[0] == "m" else 1
            vecs[tuple(v)] = rs.positive_roots.index(label)
        for a, pa in vecs.items():
            for b, pb in vecs.items():
                s = tuple(x + y for x, y in zip(a, b))
                if s in vecs:
                    ps = vecs[s]
                    assert min(pa, pb) < ps < max(pa, pb)

    def test_unsupported_rank(self):
        with pytest.raises(UnsupportedRank):
            build_root_system("gl", 1)
        with pytest.raises(UnsupportedRank):
            build_root_system("sp", 9)


class TestRealization:
    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_sl2_triples(self, family, n):
        real = dense_realization(family, n)
        for letter in build_root_system(family, n).letters:
            e, f, h = real.e[letter], real.f[letter], real.h[letter]
            assert h * e - e * h == e + e
            assert h * f - f * h == -(f + f)
            assert e * f - f * e == h

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_generators_preserve_form(self, family, n):
        real = dense_realization(family, n)
        if real.form is None:
            return
        g = real.form
        for letter in build_root_system(family, n).letters:
            for m in (real.e[letter], real.f[letter]):
                assert m.transpose() * g + g * m == ExactMatrix.zeros(real.matrix_size)

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_generators_nilpotent(self, family, n):
        real = dense_realization(family, n)
        size = real.matrix_size
        for letter in build_root_system(family, n).letters:
            p = ExactMatrix.identity(size)
            for _ in range(size):
                p = p * real.e[letter]
            assert p == ExactMatrix.zeros(size)


class TestWeylLifts:
    def test_gl2_single_reflection(self):
        real = build_realization("gl", 2)
        assert weyl_lift([1], real) == ExactMatrix([[0, 1], [-1, 0]])

    def test_gl3_antidiagonal_closed_form(self):
        w = w0_lift("gl", 3)
        assert w == ExactMatrix([[0, 0, 1], [0, -1, 0], [1, 0, 0]])

    @pytest.mark.parametrize("n", [2, 4])
    def test_so_even_closed_form_even_rank(self, n):
        w = w0_lift("so_even", n)
        size = 2 * n
        expected = ExactMatrix.zeros(size)
        for k in range(size):
            expected.rows[k][size - 1 - k] = Fraction(-1)
        assert w == expected

    def test_so_even_odd_rank_structure(self):
        # fixed middle 2x2 block, antidiagonal elsewhere; sign from the lift
        n = 3
        w = w0_lift("so_even", n)
        size = 2 * n
        for k in range(size):
            for j in range(size):
                v = w[k, j]
                if k in (n - 1, n):
                    assert (v != 0) == (j == k)
                elif j == size - 1 - k:
                    assert v != 0
                else:
                    assert v == 0

    def test_braid_invariance(self):
        real = build_realization("gl", 3)
        assert weyl_lift([1, 2, 1], real) == weyl_lift([2, 1, 2], real)
        real_d = build_realization("so_even", 2)
        assert weyl_lift([1, 2], real_d) == weyl_lift([2, 1], real_d)
        real_b = build_realization("so_odd", 2)
        assert weyl_lift([1, 2, 1, 2], real_b) == weyl_lift([2, 1, 2, 1], real_b)
        real_c = build_realization("sp", 2)
        assert weyl_lift([1, 2, 1, 2], real_c) == weyl_lift([2, 1, 2, 1], real_c)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gl_w0_squared(self, n):
        w = w0_lift("gl", n)
        sign = Fraction((-1) ** (n + 1))
        assert w * w == ExactMatrix.identity(n) * sign

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_so_even_w0_squared_is_identity(self, n):
        w = w0_lift("so_even", n)
        assert w * w == ExactMatrix.identity(2 * n)

    @pytest.mark.parametrize("family,n", ALL_RANKS)
    def test_w0_conjugation_sends_raising_to_lowering(self, family, n):
        real = dense_realization(family, n)
        rs = build_root_system(family, n)
        w = w0_lift(family, n)
        aug = _inverse(w)
        lowering = {letter: -real.f[letter] for letter in rs.letters}
        for letter in rs.letters:
            conj = w * real.e[letter] * aug
            assert any(conj == m for m in lowering.values()), letter


def _inverse(m: ExactMatrix) -> ExactMatrix:
    n = m.nrows
    rows = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i, r in enumerate(m.rows)]
    for k in range(n):
        piv = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[piv] = rows[piv], rows[k]
        p = rows[k][k]
        rows[k] = [v / p for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                f = rows[i][k]
                rows[i] = [vi - f * vk for vi, vk in zip(rows[i], rows[k])]
    return ExactMatrix([r[n:] for r in rows])


class TestWeights:
    def test_rho_pairings_so_even(self):
        n = 4
        rho = rho_of("so_even", n)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert coroot_pairing(rho, ("m", i, j), "so_even") == j - i
                assert coroot_pairing(rho, ("p", i, j), "so_even") == 2 * n - i - j

    def test_rho_so_odd_half_integers(self):
        n = 3
        rho = rho_of("so_odd", n)
        for k in range(1, n + 1):
            assert rho[k] == Fraction(2 * n + 1 - 2 * k, 2)
            assert coroot_pairing(rho, ("s", k), "so_odd") == 2 * n + 1 - 2 * k

    def test_rho_sp(self):
        n = 3
        rho = rho_of("sp", n)
        for k in range(1, n + 1):
            assert coroot_pairing(rho, ("s", k), "sp") == n + 1 - k

    def test_rho_gl(self):
        rho = rho_of("gl", 4)
        assert coroot_pairing(rho, ("m", 1, 3), "gl") == 2

    def test_pairing_linear(self):
        mu = Weight({1: 2, 2: -1})
        nu = Weight({1: Fraction(1, 2), 3: 3})
        for label in (("m", 1, 3), ("p", 2, 3)):
            assert coroot_pairing(mu + nu, label, "so_even") == coroot_pairing(
                mu, label, "so_even"
            ) + coroot_pairing(nu, label, "so_even")


class TestScalingExponents:
    def test_gl_rows(self):
        # coordinate at pair (i, j) sits at the simple root with index n-j+i
        row = cartan_scaling_exponent("gl", 3, ("m", 1, 3))
        assert row == [1, -1, 0]
        row = cartan_scaling_exponent("gl", 3, ("m", 1, 2))
        assert row == [0, 1, -1]

    def test_so_even_last_column_parity(self):
        n = 3
        # minus-root at (i, n): sign of x_n flips with the parity of n-i+1
        row = cartan_scaling_exponent("so_even", n, ("m", 2, n))
        assert row == [0, 1, -1]  # eps(n-i+1) = eps(2) = +1
        row = cartan_scaling_exponent("so_even", n, ("m", 1, n))
        assert row == [0, 1, 1]  # eps(3) = -1
        row = cartan_scaling_exponent("so_even", n, ("p", 1, n))
        assert row == [0, 1, -1]

    def test_single_roots(self):
        assert cartan_scaling_exponent("so_odd", 2, ("s", 1)) == [0, 1]
        assert cartan_scaling_exponent("sp", 2, ("s", 1)) == [0, 2]
