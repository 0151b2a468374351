"""Exact scalar and matrix arithmetic.

Everything here is exact: scalars are arbitrary-precision rationals
(every family's realization has rational entries, see roots), and the
one matrix type is IntRows, a row-scaled integer matrix (int numerators
over one int denominator per row).  Chart products run on it, and one
fraction-free (Bareiss) elimination gives both the Gauss (LDU)
decomposition and determinants.  Derivatives of rational maps come from
one unreduced pass of integer jets, and a map whose outputs are Laurent
monomials is traced once into a program of int products
(MonomialProgram).  Floats appear only as an export format.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


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


def signed_permutation(m: IntRows) -> tuple:
    """Column map of a signed permutation matrix: perm[j] = (r, sign) where
    m[r, j] = sign = +-1 is the only nonzero entry of column j, stored as a
    numerator equal to sign times its row's denominator.

    Raises ValueError unless every column is monomial with entry +-1 and
    the rows r are distinct, so that m is orthogonal and its inverse is
    its transpose.
    """
    n = len(m.rows)
    if any(len(row) != n for row in m.rows):
        raise ValueError("signed permutation of a non-square matrix")
    perm = []
    for j in range(n):
        nonzero = [(r, row[j], d) for r, (row, d) in enumerate(zip(m.rows, m.dens)) if row[j]]
        if len(nonzero) != 1 or abs(nonzero[0][1]) != nonzero[0][2]:
            raise ValueError(f"column {j} is not monomial with entry +-1")
        r, v, _ = nonzero[0]
        perm.append((r, 1 if v > 0 else -1))
    if len({r for r, _ in perm}) != len(perm):
        raise ValueError("columns share a row")
    return tuple(perm)


class IntRows:
    """Row-scaled integer matrix: entry (i, j) is rows[i][j] / dens[i],
    with int numerators and one positive int denominator per row.  No
    operation takes a gcd: products scale rows, eliminations divide
    exactly, and equality cross-multiplies."""

    __slots__ = ("rows", "dens")

    def __init__(self, rows, dens):
        self.rows, self.dens = rows, dens

    @classmethod
    def identity(cls, n: int) -> "IntRows":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], [1] * n)

    @classmethod
    def from_rows(cls, rows) -> "IntRows":
        """Rows of ints or Fractions, each over the lcm of its denominators."""
        dens = [lcm(*(v.denominator for v in row)) for row in rows]
        return cls([[v.numerator * (d // v.denominator) for v in row] for row, d in zip(rows, dens)], dens)

    def __eq__(self, other):
        if not isinstance(other, IntRows):
            return NotImplemented
        return len(self.rows) == len(other.rows) and all(
            len(a) == len(b) and all(x * e == y * d for x, y in zip(a, b))
            for a, d, b, e in zip(self.rows, self.dens, other.rows, other.dens)
        )

    def is_identity(self, lo: int = 0, hi: int | None = None) -> bool:
        """Whether the diagonal block [lo, hi) is the identity."""
        block = range(lo, len(self.rows) if hi is None else hi)
        return all(self.rows[i][j] == (self.dens[i] if i == j else 0) for i in block for j in block)

    def times(self, terms) -> None:
        """In-place M <- M * (Id + S) for sparse rational S = [(a, b, v), ...].

        The (a, b) pairs must be distinct; the update reads original
        columns, so simultaneous terms are handled correctly.  A row with
        a nonzero entry in a column a is scaled by the lcm L of the term
        denominators and gets v L times that entry in column b.
        """
        big = lcm(*(v.denominator for _, _, v in terms))
        ints = [(a, b, v.numerator * (big // v.denominator)) for a, b, v in terms]
        for i, row in enumerate(self.rows):
            adds = [(b, row[a] * k) for a, b, k in ints if row[a]]
            if not adds:
                continue
            if big != 1:
                row[:] = [x * big for x in row]
                self.dens[i] *= big
            for b, x in adds:
                row[b] += x

    def permute_columns(self, perm) -> "IntRows":
        """M * W for a signed permutation W with perm = signed_permutation(W):
        column j of the product is sign * (column r of M) for perm[j] = (r, sign)."""
        rows = [[row[r] if s > 0 else -row[r] for r, s in perm] for row in self.rows]
        return IntRows(rows, list(self.dens))

    def permute_rows(self, perm) -> "IntRows":
        """W^T * M = W^{-1} * M for a signed permutation W with
        perm = signed_permutation(W): row i of the product is
        sign * (row r of M) for perm[i] = (r, sign)."""
        rows = [list(self.rows[r]) if s > 0 else [-v for v in self.rows[r]] for r, s in perm]
        return IntRows(rows, [self.dens[r] for r, _ in perm])

    def eliminate(self, pivoting: bool = False) -> int:
        """Fraction-free (Bareiss, Math. Comp. 22, 1968) elimination of the
        row-cleared matrix in place; returns the sign of the row swaps.

        Step k sets a_ij = (p_k a_ij - a_ik a_kj) / p_(k-1) below and right
        of the pivot, an exact division.  Then rows[k][k] = p_k is the
        (k+1)-th leading minor, rows[k][k:] the Bareiss row and
        rows[i > k][k] the entry step k eliminated.  A zero pivot raises
        SingularLeadingMinor(k + 1), unless `pivoting` finds a row below to
        swap in (with its denominator).
        """
        a, dens, n = self.rows, self.dens, len(self.rows)
        sign, prev = 1, 1
        for k in range(n):
            if not a[k][k]:
                piv = next((i for i in range(k + 1, n) if a[i][k]), None) if pivoting else None
                if piv is None:
                    raise SingularLeadingMinor(k + 1)
                a[k], a[piv] = a[piv], a[k]
                dens[k], dens[piv] = dens[piv], dens[k]
                sign = -sign
            top, p = a[k], a[k][k]
            for row in a[k + 1:]:
                m = row[k]
                row[k + 1:] = [(p * x - m * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])]
            prev = p
        return sign

    def ldu(self) -> tuple:
        """(D, U) of M = L D U, by eliminate() without pivoting in place.

        Scaling rows leaves U alone: row k of U is the Bareiss row k over
        the pivot p_k.  D_k = p_k / (p_(k-1) s_k) is a Fraction, with s_k
        the row's own denominator.
        """
        self.eliminate()
        diag, rows, prev = [], [], 1
        for k, (row, s) in enumerate(zip(self.rows, self.dens)):
            diag.append(Fraction(row[k], prev * s))
            prev = row[k]
            rows.append([0] * k + (row[k:] if prev > 0 else [-x for x in row[k:]]))
        return diag, IntRows(rows, [abs(row[k]) for k, row in enumerate(self.rows)])

    def det(self) -> Fraction:
        """Exact determinant: eliminate() with row swaps, on a copy."""
        if any(len(row) != len(self.rows) for row in self.rows):
            raise ValueError("determinant of non-square matrix")
        a = IntRows([list(row) for row in self.rows], list(self.dens))
        try:
            sign = a.eliminate(pivoting=True)
        except SingularLeadingMinor:
            return Fraction(0)
        return Fraction(sign * a.rows[-1][-1], prod(a.dens))


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
    coordinate j = a/b is the jet with value a/b and gradient b e_j / b.
    An int or Fraction output is a constant jet, with gradient 0."""
    d = len(point)
    seeds = [Jet(x.numerator, [x.denominator * (k == j) for k in range(d)], x.denominator)
             for j, x in enumerate(point)]
    return tuple(
        y if type(y) is Jet else Jet(y.numerator, [0] * d, y.denominator)
        for y in func(tuple(seeds))
    )


def jacobian_exact(func, point):
    """Exact Jacobian J[i][j] = d func_i / d x_j (Fractions) of a map made
    of field operations and integer powers, from one pass of jets."""
    return [y.grad for y in jet_forward(func, point)]


class NotMonomial(ExactError, TypeError):
    """A traced map added or subtracted values other than two atoms, so it
    is not a Laurent monomial in its atoms and cannot be compiled."""


class _Trace:
    """Atoms met while tracing one map: its inputs, then each distinct sum
    of two earlier atoms; and the atoms it divides by."""

    def __init__(self, n_inputs: int):
        self.n_inputs = n_inputs
        self.pairs = {}  # (a, b) with a < b -> atom index
        self.divisors = set()

    def sum_atom(self, a: int, b: int) -> "_Monomial":
        key = (min(a, b), max(a, b))
        k = self.pairs.setdefault(key, self.n_inputs + len(self.pairs))
        return _Monomial(self, Fraction(1), {k: 1})


class _Monomial:
    """Tracer scalar coef * prod(atom_k ** e_k) with a Fraction coef and int
    exponents.  Products, quotients and integer powers only add exponents;
    a sum is allowed only of two bare atoms, and makes a new atom."""

    __slots__ = ("trace", "coef", "exps")

    def __init__(self, trace, coef, exps):
        self.trace, self.coef, self.exps = trace, coef, exps

    def _bare_atom(self):
        if self.coef == 1 and len(self.exps) == 1:
            ((k, e),) = self.exps.items()
            if e == 1:
                return k
        return None

    def __add__(self, o):
        a = self._bare_atom()
        b = o._bare_atom() if type(o) is _Monomial else None
        if a is None or b is None:
            raise NotMonomial("a compiled map may only add two atoms")
        return self.trace.sum_atom(a, b)

    __radd__ = __add__

    def __sub__(self, o):
        raise NotMonomial("a compiled map may not subtract")

    __rsub__ = __sub__

    def __mul__(self, o):
        if type(o) is _Monomial:
            exps = dict(self.exps)
            for k, e in o.exps.items():
                e += exps.get(k, 0)
                if e:
                    exps[k] = e
                else:
                    del exps[k]
            return _Monomial(self.trace, self.coef * o.coef, exps)
        if isinstance(o, (int, Fraction)):
            return _Monomial(self.trace, self.coef * o, self.exps)
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self) -> "_Monomial":
        # the map divides by this value: it is zero where one of its atoms
        # with a positive exponent is (an atom with a negative one was a
        # divisor already)
        self.trace.divisors.update(k for k, e in self.exps.items() if e > 0)
        return _Monomial(self.trace, 1 / self.coef, {k: -e for k, e in self.exps.items()})

    def __truediv__(self, o):
        if type(o) is _Monomial:
            return self * o._inverse()
        if isinstance(o, (int, Fraction)):
            return self * (1 / Fraction(o))
        return NotImplemented

    def __rtruediv__(self, o):
        if isinstance(o, (int, Fraction)):
            return self._inverse() * o
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return 1 / self**-k
        return _Monomial(self.trace, self.coef**k, {a: e * k for a, e in self.exps.items()} if k else {})


class MonomialProgram:
    """A map whose every output is a Laurent monomial in atoms: the inputs
    (read as int or Fraction) and sums of two earlier atoms.  A call
    computes each atom's numerator and denominator once, multiplies them
    as ints, and makes one Fraction per output.

    `labels` are the input keys (atoms 0..len-1), `pairs` the (a, b)
    operands of each sum atom, `checked` the atoms the traced map divides
    by (a zero one raises ZeroDivisionError, as the map does), `keys` the
    output keys (None for a list output), and `rows` one (coef numerator,
    coef denominator, ((atom, exponent), ...)) per output.
    """

    __slots__ = ("labels", "pairs", "checked", "keys", "rows", "_plan")

    def __init__(self, labels, pairs, checked, keys, rows):
        self.labels, self.pairs, self.checked, self.keys = labels, pairs, checked, keys
        self.rows = rows
        # the values of a call are the atoms' numerators, then their
        # denominators: a positive exponent e takes e numerators into the
        # output's numerator and e denominators into its denominator
        size = len(labels) + len(pairs)
        plan = []
        for cn, cd, factors in rows:
            num = [k + (e < 0) * size for k, e in factors for _ in range(abs(e))]
            den = [k + (e > 0) * size for k, e in factors for _ in range(abs(e))]
            plan.append((cn, cd, tuple(num), tuple(den)))
        self._plan = tuple(plan)

    def __call__(self, c):
        vals = [c[label] for label in self.labels]
        nums = [v.numerator for v in vals]
        dens = [v.denominator for v in vals]
        for a, b in self.pairs:
            nums.append(nums[a] * dens[b] + nums[b] * dens[a])
            dens.append(dens[a] * dens[b])
        if not all(map(nums.__getitem__, self.checked)):
            raise ZeroDivisionError("monomial program divides by a zero atom")
        get = (nums + dens).__getitem__
        out = [Fraction(prod(map(get, num), start=cn), prod(map(get, den), start=cd))
               for cn, cd, num, den in self._plan]
        return out if self.keys is None else dict(zip(self.keys, out))


def compile_monomials(func, labels) -> MonomialProgram:
    """Trace `func` once on a dict of tracer scalars keyed by `labels` and
    return its program.  `func` returns a dict or a list of values built
    by field operations and integer powers; it must add only pairs of
    atoms and never subtract, or NotMonomial is raised."""
    labels = tuple(labels)
    trace = _Trace(len(labels))
    out = func({label: _Monomial(trace, Fraction(1), {k: 1}) for k, label in enumerate(labels)})
    keys = tuple(out) if isinstance(out, dict) else None
    rows = []
    for v in out.values() if keys is not None else out:
        if isinstance(v, (int, Fraction)):
            v = _Monomial(trace, Fraction(v), {})
        elif type(v) is not _Monomial:
            raise NotMonomial(f"output {v!r} is not a monomial of the traced atoms")
        rows.append((v.coef.numerator, v.coef.denominator, tuple(sorted(v.exps.items()))))
    return MonomialProgram(labels, tuple(trace.pairs), tuple(sorted(trace.divisors)), keys, tuple(rows))
