"""Exact scalar and matrix arithmetic.

Everything here is exact: scalars are arbitrary-precision rationals,
optionally extended by sqrt(2) (the odd orthogonal Chevalley generators
need the irrationality), matrices are dense grids of such scalars, and
the Gauss (LDU) decomposition runs plain elimination with exact pivots.
Floats appear only as an export format.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ExactError(ArithmeticError):
    pass


class DivisionByZero(ExactError):
    pass


class SingularLeadingMinor(ExactError):
    """Raised when the k-th leading principal minor vanishes (element
    outside the big Bruhat cell)."""

    def __init__(self, k: int):
        super().__init__(f"leading principal minor {k} vanishes")
        self.k = k


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


class QSqrt2:
    """Element a + b*sqrt(2) of the quadratic field Q(sqrt 2).

    Field inverse goes through the conjugate: 1/(a+b*sqrt2) =
    (a-b*sqrt2)/(a^2-2b^2); the denominator vanishes only at 0 because
    sqrt(2) is irrational.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)

    @staticmethod
    def _coerce(x):
        if isinstance(x, QSqrt2):
            return x
        if isinstance(x, Fraction):
            return _rational(x)
        if isinstance(x, int):
            return _rational(Fraction(x))
        return None

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} is irrational")
        return self.a

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.b or o.b):
            return _rational(self.a + o.a)
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.b or o.b):
            return _rational(self.a * o.a)
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        d = self.a * self.a - 2 * self.b * self.b
        if d == 0:
            raise DivisionByZero("inverse of zero in Q(sqrt2)")
        return QSqrt2(self.a / d, -self.b / d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = QSqrt2(1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def _sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2 exactly
        if a * a > 2 * b * b:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o)._sign() >= 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    def __repr__(self):
        if self.b == 0:
            return f"QSqrt2({self.a})"
        return f"QSqrt2({self.a}, {self.b})"


_ZERO = Fraction(0)


def _rational(a: Fraction) -> QSqrt2:
    """QSqrt2 with rational part a and no sqrt(2) part, built without coercion."""
    x = object.__new__(QSqrt2)
    x.a = a
    x.b = _ZERO
    return x


SQRT2 = QSqrt2(0, 1)


def scalar_inverse(x):
    """Exact inverse of a Fraction/int/QSqrt2, raising DivisionByZero at 0."""
    if isinstance(x, QSqrt2):
        return x.inverse()
    x = _as_fraction(x)
    if x == 0:
        raise DivisionByZero("inverse of zero")
    return 1 / x


class ExactMatrix:
    """Dense matrix over exact scalars (Fraction and/or QSqrt2)."""

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

    def det(self):
        """Exact determinant via elimination with row pivoting."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of non-square matrix")
        a = [list(r) for r in self.rows]
        sign = 1
        det = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                sign = -sign
            p = a[k][k]
            det = det * p
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    m = a[i][k] / p
                    for j in range(k, n):
                        a[i][j] = a[i][j] - m * a[k][j]
        return det * sign

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
        pinv = scalar_inverse(p)
        for j in range(k, n):
            upper.rows[k][j] = u[k][j] * pinv
    return GaussDecomposition(lower, diag, upper)


class Dual:
    """First-order dual number over exact scalars (forward-mode derivative).

    Used to differentiate the rational chart maps exactly; `eps` carries
    d(value)/d(seed direction).
    """

    __slots__ = ("val", "eps")

    def __init__(self, val, eps=0):
        self.val = val
        self.eps = eps

    @staticmethod
    def _coerce(x):
        if isinstance(x, Dual):
            return x
        if isinstance(x, (int, Fraction, QSqrt2)):
            return Dual(x, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.val + o.val, self.eps + o.eps)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.val - o.val, self.eps - o.eps)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(o.val - self.val, o.eps - self.eps)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.val * o.val, self.val * o.eps + self.eps * o.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise DivisionByZero("dual division by zero")
        v = self.val / o.val
        return Dual(v, (self.eps - v * o.eps) / o.val)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, k: int):
        """(v, e)**k = (v**k, k * v**(k-1) * e)."""
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return Dual(Fraction(1))
        if k < 0 and self.val == 0:
            raise DivisionByZero("dual division by zero")
        v = Fraction(self.val) if isinstance(self.val, int) else self.val
        p = v ** (k - 1)
        return Dual(p * v, k * p * self.eps)

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __repr__(self):
        return f"Dual({self.val}, {self.eps})"


def jacobian_exact(func, point):
    """Exact Jacobian of a rational map via dual numbers.

    `func` maps a tuple of scalars to a tuple of scalars using only
    field operations; `point` is a tuple of Fractions.  Returns a list of
    rows J[i][j] = d func_i / d x_j as Fractions.
    """
    point = tuple(point)
    d = len(point)
    cols = []
    for j in range(d):
        seeded = tuple(
            Dual(x, Fraction(1) if k == j else Fraction(0))
            for k, x in enumerate(point)
        )
        out = func(seeded)
        cols.append([y.eps for y in out])
    return [[cols[j][i] for j in range(d)] for i in range(len(cols[0]))]
