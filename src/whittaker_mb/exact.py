"""Exact scalar and matrix arithmetic.

Everything here is exact: scalars are arbitrary-precision rationals
(every family's realization has rational entries, see roots), matrices
are dense grids of them, the Gauss (LDU) decomposition runs plain
elimination with exact pivots, determinants run fraction-free, and
derivatives of rational maps come from one unreduced pass of integer
jets.  Floats appear only as an export format.
"""

from __future__ import annotations

from fractions import Fraction


class ExactError(ArithmeticError):
    pass


class DivisionByZero(ExactError, ZeroDivisionError):
    pass


class SingularLeadingMinor(ExactError):
    """Raised when the k-th leading principal minor vanishes (element
    outside the big Bruhat cell)."""

    def __init__(self, k: int):
        super().__init__(f"leading principal minor {k} vanishes")
        self.k = k


class ExactMatrix:
    """Dense matrix over exact rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [
            [Fraction(v) if isinstance(v, int) else v for v in r] for r in rows
        ]
        m = len(self.rows[0])
        if any(len(r) != m for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        z, o = Fraction(0), Fraction(1)
        return cls([[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "ExactMatrix":
        m = n if m is None else m
        z = Fraction(0)
        return cls([[z] * m for _ in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def copy(self) -> "ExactMatrix":
        return ExactMatrix(self.rows)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            bt = list(zip(*other.rows))
            return ExactMatrix(
                [[_dot(row, col) for col in bt] for row in self.rows]
            )
        return ExactMatrix([[v * other for v in row] for row in self.rows])

    def __rmul__(self, other):
        return ExactMatrix([[other * v for v in row] for row in self.rows])

    def __add__(self, other):
        return ExactMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return ExactMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return ExactMatrix([[-v for v in row] for row in self.rows])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.rows)))

    def is_identity(self) -> bool:
        return all(
            v == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, v in enumerate(row)
        )

    def apply_right_sparse(self, terms) -> None:
        """In-place M <- M * (Id + S) for sparse S = [(a, b, v), ...].

        The (a, b) pairs must be distinct; the update reads original
        columns, so simultaneous terms are handled correctly.  Rows whose
        entry in column a is zero get nothing from that term.
        """
        adds = [
            [(row, row[a] * v) for row in self.rows if row[a]] for (a, b, v) in terms
        ]
        for (a, b, v), col in zip(terms, adds):
            for row, x in col:
                row[b] = row[b] + x

    def permute_columns(self, perm) -> "ExactMatrix":
        """M * W for a signed permutation W with perm = signed_permutation(W):
        column j of the product is sign * (column r of M) for perm[j] = (r, sign)."""
        return ExactMatrix(
            [[row[r] if s > 0 else -row[r] for r, s in perm] for row in self.rows]
        )

    def permute_rows(self, perm) -> "ExactMatrix":
        """W^T * M = W^{-1} * M for a signed permutation W with
        perm = signed_permutation(W): row i of the product is
        sign * (row r of M) for perm[i] = (r, sign)."""
        return ExactMatrix(
            [self.rows[r] if s > 0 else [-v for v in self.rows[r]] for r, s in perm]
        )

    def det(self) -> Fraction:
        """Exact determinant by fraction-free (Bareiss) elimination: rows
        cleared of denominators, exact division by the previous pivot, and
        a row swap (with a sign flip) past a zero pivot."""
        from math import lcm, prod

        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of non-square matrix")
        dens = [lcm(*(v.denominator for v in row)) for row in self.rows]
        a = [[v.numerator * (d // v.denominator) for v in row] for row, d in zip(self.rows, dens)]
        sign, prev = 1, 1
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k]), None)
            if piv is None:
                return Fraction(0)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            top, p = a[k], a[k][k]
            for row in a[k + 1:]:
                m = row[k]
                row[k + 1:] = [(p * x - m * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])]
            prev = p
        return Fraction(sign * a[-1][-1], prod(dens))

    def __repr__(self):
        return "ExactMatrix(" + repr(self.rows) + ")"


def signed_permutation(m: ExactMatrix) -> tuple:
    """Column map of a signed permutation matrix: perm[j] = (r, sign) where
    m[r, j] = sign = +-1 is the only nonzero entry of column j.

    Raises ValueError unless every column is monomial with entry +-1 and
    the rows r are distinct, so that m is orthogonal and its inverse is
    its transpose.
    """
    if m.nrows != m.ncols:
        raise ValueError("signed permutation of a non-square matrix")
    perm = []
    for j in range(m.ncols):
        nonzero = [(r, row[j]) for r, row in enumerate(m.rows) if row[j]]
        if len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
            raise ValueError(f"column {j} is not monomial with entry +-1")
        r, v = nonzero[0]
        perm.append((r, 1 if v == 1 else -1))
    if len({r for r, _ in perm}) != len(perm):
        raise ValueError("columns share a row")
    return tuple(perm)


def _dot(row, col):
    it = iter(zip(row, col))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


class GaussDecomposition:
    """Triple (L, D, U) with M = L*D*U, L unit-lower, D diagonal, U unit-upper."""

    __slots__ = ("lower", "diag", "upper")

    def __init__(self, lower: ExactMatrix, diag: ExactMatrix, upper: ExactMatrix):
        self.lower = lower
        self.diag = diag
        self.upper = upper

    def recompose(self) -> ExactMatrix:
        return self.lower * self.diag * self.upper

    def diag_entries(self):
        return [self.diag[k, k] for k in range(self.diag.nrows)]


def lu_gauss_decompose(m: ExactMatrix) -> GaussDecomposition:
    """Exact LDU decomposition without pivoting.

    D[k,k] equals the ratio of consecutive leading principal minors, so a
    zero pivot means the k-th leading minor vanishes and the input is
    outside the big Bruhat cell.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("LDU needs a square matrix")
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
        pinv = 1 / p
        for j in range(k, n):
            upper.rows[k][j] = u[k][j] * pinv
    return GaussDecomposition(lower, diag, upper)


class Jet:
    """Value v/q and gradient g/q of a rational function at a point, with
    v, g[j] and q > 0 plain ints.  Field operations and integer powers
    follow the forward-mode rules unreduced (no gcd), so a map runs in one
    pass over all directions; `value` and `grad` reduce once.  A jet
    equals a scalar when its value does, as a map's zero tests need."""

    __slots__ = ("v", "g", "q")

    def __init__(self, v, g, q):
        self.v, self.g, self.q = v, g, q

    @property
    def value(self) -> Fraction:
        return Fraction(self.v, self.q)

    @property
    def grad(self) -> list:
        return [Fraction(x, self.q) for x in self.g]

    def __add__(self, o):
        if type(o) is Jet:
            q, r = self.q, o.q
            return Jet(self.v * r + o.v * q, [a * r + b * q for a, b in zip(self.g, o.g)], q * r)
        if not isinstance(o, (int, Fraction)):
            return NotImplemented
        n, m = o.numerator, o.denominator
        return Jet(self.v * m + n * self.q, [a * m for a in self.g], self.q * m)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, [-a for a in self.g], self.q)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if type(o) is Jet:
            a, b = self.v, o.v
            return Jet(a * b, [a * y + b * x for x, y in zip(self.g, o.g)], self.q * o.q)
        if not isinstance(o, (int, Fraction)):
            return NotImplemented
        n = o.numerator
        return Jet(self.v * n, [a * n for a in self.g], self.q * o.denominator)

    __rmul__ = __mul__

    def __truediv__(self, o):
        # (v/q) / (b/r) = v r b / (q b^2), gradient (g b - v h) r / (q b^2) with h = o.g
        if type(o) is not Jet:
            return self * (Fraction(1) / o) if isinstance(o, (int, Fraction)) else NotImplemented
        v, b, r = self.v, o.v, o.q
        if b == 0:
            raise DivisionByZero("jet division by zero")
        return Jet(v * r * b, [(x * b - v * y) * r for x, y in zip(self.g, o.g)], self.q * b * b)

    def __rtruediv__(self, o):
        # c / (v/q) = c q v / v^2, gradient -c q g / v^2
        if not isinstance(o, (int, Fraction)):
            return NotImplemented
        if self.v == 0:
            raise DivisionByZero("jet division by zero")
        v, q, n = self.v, self.q, o.numerator
        return Jet(n * q * v, [-n * q * x for x in self.g], o.denominator * v * v)

    def __pow__(self, k: int):
        """(v/q)^k = v^k / q^k with gradient k v^(k-1) g / q^k; 1 / x^-k for k < 0."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return 1 / self**-k
        p = self.v ** (k - 1) if k else 0
        return Jet(p * self.v if k else 1, [k * p * x for x in self.g], self.q**k)

    def __eq__(self, o):
        if isinstance(o, (int, Fraction)):
            return self.v * o.denominator == o.numerator * self.q
        return NotImplemented


def jet_forward(func, point) -> tuple:
    """Outputs of `func` on the jets seeded at `point`, in one pass:
    coordinate j = a/b is the jet with value a/b and gradient b e_j / b."""
    d = len(point)
    seeds = [Jet(x.numerator, [x.denominator * (k == j) for k in range(d)], x.denominator)
             for j, x in enumerate(point)]
    return tuple(func(tuple(seeds)))


def jacobian_exact(func, point):
    """Exact Jacobian J[i][j] = d func_i / d x_j (Fractions) of a map made
    of field operations and integer powers, from one pass of jets."""
    return [y.grad for y in jet_forward(func, point)]
