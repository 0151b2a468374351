"""Dense matrices over exact rationals: the reference that tests hold the
package's row-scaled integer matrices (whittaker_mb.exact.IntRows) to."""

from fractions import Fraction


class Dense:
    """Grid of exact rationals with +, -, matrix and scalar *, and ==."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [[Fraction(v) if isinstance(v, int) else v for v in r] for r in rows]

    @classmethod
    def of(cls, m) -> "Dense":
        """The IntRows m, entry (i, j) = m.rows[i][j] / m.dens[i]."""
        return cls([[Fraction(v, d) for v in row] for row, d in zip(m.rows, m.dens)])

    @classmethod
    def identity(cls, n: int) -> "Dense":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "Dense":
        return cls([[0] * n for _ in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if isinstance(other, Dense):
            cols = list(zip(*other.rows))
            return Dense([[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows])
        return Dense([[v * other for v in row] for row in self.rows])

    __rmul__ = __mul__

    def __add__(self, other):
        return Dense([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return Dense([[-v for v in row] for row in self.rows])

    def __sub__(self, other):
        return self + -other

    def __eq__(self, other):
        if not isinstance(other, Dense):
            return NotImplemented
        return self.rows == other.rows

    def transpose(self) -> "Dense":
        return Dense(list(zip(*self.rows)))
