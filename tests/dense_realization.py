"""Dense generators e, f, h and the invariant form of a family and rank,
built from the sparse generator pairs of whittaker_mb.roots, for tests
that check the realization itself."""

from fractions import Fraction
from types import SimpleNamespace

from whittaker_mb.exact import ExactMatrix
from whittaker_mb.roots import _f_pairs, _gen_pairs, build_root_system


def _dense(size, pairs) -> ExactMatrix:
    m = ExactMatrix.zeros(size)
    for (i, j), w in pairs:
        m.rows[i - 1][j - 1] = Fraction(w)
    return m


def dense_realization(family: str, n: int) -> SimpleNamespace:
    """e, f, h (dicts by letter), the preserved bilinear form (None for gl)
    and the matrix size; h = e f - f e."""
    rs = build_root_system(family, n)
    size = rs.matrix_size
    e = {letter: _dense(size, _gen_pairs(family, n, letter)) for letter in rs.letters}
    f = {letter: _dense(size, _f_pairs(family, n, letter)) for letter in rs.letters}
    h = {letter: e[letter] * f[letter] - f[letter] * e[letter] for letter in rs.letters}
    form = None
    if family == "sp":
        form = ExactMatrix.zeros(size)
        for i in range(1, n + 1):
            form.rows[i - 1][2 * n - i] = Fraction(1)
            form.rows[2 * n - i][i - 1] = Fraction(-1)
    elif family != "gl":
        form = ExactMatrix.zeros(size)
        for i in range(1, size + 1):
            form.rows[i - 1][size - i] = Fraction(1)
        if family == "so_odd":  # the middle basis vector is scaled by sqrt(2)
            form.rows[n][n] = Fraction(1, 2)
    return SimpleNamespace(e=e, f=f, h=h, form=form, matrix_size=size)
