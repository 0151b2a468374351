"""Root systems and sparse exact realizations of the four classical split families.

Families are named by the split real group they realize:

* ``gl``      -- GL(n,R), type A data in GL(n) conventions, n x n matrices;
* ``so_even`` -- SO(n,n), type D, 2n x 2n matrices preserving the
  antidiagonal symmetric form;
* ``so_odd``  -- SO(n+1,n), type B, (2n+1) x (2n+1) matrices preserving
  the antidiagonal symmetric form with 1/2 at the centre;
* ``sp``      -- Sp(2n,R), type C, 2n x 2n matrices preserving the
  antidiagonal skew form.

Positive roots are labelled by tuples that mirror the coordinate names
used throughout: ``('m', i, j)`` is eps_i - eps_j (coordinate t_{i,j}),
``('p', i, j)`` is eps_i + eps_j (coordinate s_{i,j}), and ``('s', k)``
is the single-index root eps_k resp. 2 eps_k (coordinate t_k).

Every realization has rational entries.  For so_odd this takes a choice
of basis: with the plain antidiagonal form the short generator would be
sqrt(2) (E_{n,n+1} - E_{n+1,n+2}); scaling the middle basis vector by
sqrt(2), i.e. conjugating by D = diag(1, ..., sqrt 2, ..., 1), gives
e_n = E_{n,n+1} - 2 E_{n+1,n+2} and f_n = 2 E_{n+1,n} - E_{n+2,n+1}, the
integral Chevalley basis of a split group (Steinberg, Lectures on
Chevalley Groups, 1967), and halves the centre of the form.  The
conjugation leaves h, every zero pattern, the Gauss diagonal and the
chart coordinates as they were.

A realization is held sparse: each generator is its (row, col, int
weight) entries, and chart products read the nonzero entries of
exp(c * generator) from them.  No dense generator matrix is built.

Each family comes with one fixed normal ordering of the positive roots
and the matching reduced word for the longest Weyl element; the word is
stored as a list of (letter, root label) pairs in product order, which
is exactly the recipe for building unipotent chart matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import ExactMatrix, IntRows

FAMILIES = ("gl", "so_even", "so_odd", "sp")

MAX_RANK = 8


class UnsupportedRank(ValueError):
    pass


def _min_rank(family: str) -> int:
    """Smallest supported rank: 2 for gl and so_even, 1 otherwise."""
    return 2 if family in ("gl", "so_even") else 1


def _eps(k: int) -> int:
    """Sign (-1)**k used in the even orthogonal interleaving."""
    return 1 if k % 2 == 0 else -1


@dataclass(frozen=True)
class RootSystem:
    family: str
    n: int
    positive_roots: tuple  # root labels in the fixed normal ordering
    word: tuple  # (letter, root label) pairs, product order
    letters: tuple  # all letter ids
    matrix_size: int

    @property
    def d(self) -> int:
        return len(self.positive_roots)


def _gl_word(n):
    word = []
    for i in range(n - 1, 0, -1):
        for j in range(n, i, -1):
            word.append((n - j + i, ("m", i, j)))
    return word


def _so_even_word(n):
    word = []
    for i in range(n - 1, 0, -1):
        for j in range(i + 1, n):
            word.append((j - 1, ("p", i, j)))
        # letter n-1 is e^+, letter n is e^-
        word.append((n - 1 if _eps(n - i) == 1 else n, ("p", i, n)))
        word.append((n - 1 if _eps(n - i + 1) == 1 else n, ("m", i, n)))
        for j in range(n - 1, i, -1):
            word.append((j - 1, ("m", i, j)))
    return word


def _bc_word(n):
    word = [(n, ("s", n))]
    for i in range(n - 1, 0, -1):
        for j in range(i + 1, n + 1):
            word.append((j - 1, ("p", i, j)))
        word.append((n, ("s", i)))
        for j in range(n, i, -1):
            word.append((j - 1, ("m", i, j)))
    return word


@lru_cache(maxsize=None)
def build_root_system(family: str, n: int) -> RootSystem:
    """Root data with the fixed normal ordering and reduced word for w0."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not (_min_rank(family) <= n <= MAX_RANK):
        raise UnsupportedRank(f"{family} rank {n} outside [{_min_rank(family)}, {MAX_RANK}]")
    if family == "gl":
        word = _gl_word(n)
        letters = tuple(range(1, n))
        size = n
    elif family == "so_even":
        word = _so_even_word(n)
        letters = tuple(range(1, n + 1))
        size = 2 * n
    elif family == "so_odd":
        word = _bc_word(n)
        letters = tuple(range(1, n + 1))
        size = 2 * n + 1
    else:
        word = _bc_word(n)
        letters = tuple(range(1, n + 1))
        size = 2 * n
    roots = tuple(lbl for _, lbl in word)
    if len(set(roots)) != len(roots):
        raise AssertionError("word does not enumerate distinct positive roots")
    return RootSystem(family, n, roots, tuple(word), letters, size)


# ---------------------------------------------------------------------------
# matrix realizations


@dataclass(frozen=True)
class ChevalleyRealization:
    """The generators e_letter, f_letter of a family and rank, held sparse:
    chart products read only the nonzero entries of their exponentials."""

    family: str
    n: int
    matrix_size: int

    def exp_terms(self, letter: int, c):
        """Sparse non-identity part of exp(c * e_letter) as (row, col, value) triples.

        All generators square to zero except the short generator of so_odd,
        whose exponential picks up one quadratic term.
        """
        return _exp_terms(self.family, self.n, letter, c, neg=False)

    def exp_terms_f(self, letter: int, c):
        return _exp_terms(self.family, self.n, letter, c, neg=True)


def _gen_pairs(family: str, n: int, letter: int):
    """(row, col) index pairs (1-based) and int weights of e_letter."""
    if family == "gl":
        return [((letter, letter + 1), 1)]
    if family == "so_even":
        N = 2 * n
        if letter <= n - 2:
            i = letter
            return [((i, i + 1), 1), ((N - i, N + 1 - i), -1)]
        if letter == n - 1:  # e^+
            return [((n - 1, n), 1), ((n + 1, n + 2), -1)]
        return [((n - 1, n + 1), 1), ((n, n + 2), -1)]  # e^-
    if family == "so_odd":
        if letter <= n - 1:
            i = letter
            return [((i, i + 1), 1), ((2 * n + 1 - i, 2 * n + 2 - i), -1)]
        return [((n, n + 1), 1), ((n + 1, n + 2), -2)]
    if family == "sp":
        if letter <= n - 1:
            i = letter
            return [((i, i + 1), 1), ((2 * n - i, 2 * n + 1 - i), -1)]
        return [((n, n + 1), 1)]
    raise ValueError(family)


def _f_pairs(family: str, n: int, letter: int):
    """(row, col) index pairs (1-based) and int weights of f_letter: the
    transpose of e_letter, except at the short letter of so_odd, where
    f_n = 2 E_{n+1,n} - E_{n+2,n+1} pairs with e_n = E_{n,n+1} - 2 E_{n+1,n+2}."""
    if family == "so_odd" and letter == n:
        return [((n + 1, n), 2), ((n + 2, n + 1), -1)]
    return [((j, i), w) for (i, j), w in _gen_pairs(family, n, letter)]


@lru_cache(maxsize=None)
def _exp_pairs(family: str, n: int, letter: int, neg: bool) -> tuple:
    """0-based (row, col, weight) triples of f_letter (neg) or e_letter, and
    the (row, col) of the quadratic term of exp(c * generator), or None:
    e_n^2 = -2 E_{n,n+2} at the short letter of so_odd (the f side mirrors)."""
    pairs = _f_pairs(family, n, letter) if neg else _gen_pairs(family, n, letter)
    quad = None
    if family == "so_odd" and letter == n:
        quad = (n + 1, n - 1) if neg else (n - 1, n + 1)
    return tuple((i - 1, j - 1, w) for (i, j), w in pairs), quad


def _exp_terms(family, n, letter, c, neg):
    pairs, quad = _exp_pairs(family, n, letter, neg)
    minus = -c
    terms = [(i, j, c if w == 1 else minus if w == -1 else w * c) for i, j, w in pairs]
    if quad is not None:
        terms.append((*quad, minus * c))
    return terms


@lru_cache(maxsize=None)
def build_realization(family: str, n: int) -> ChevalleyRealization:
    return ChevalleyRealization(family, n, build_root_system(family, n).matrix_size)


def weyl_lift(word, real: ChevalleyRealization) -> ExactMatrix:
    """Product of standard reflection lifts exp(e) exp(-f) exp(e) along a word.

    Independent of the choice of reduced word for the same Weyl element.
    """
    m = IntRows.identity(real.matrix_size)
    for letter in word:
        m.times(real.exp_terms(letter, Fraction(1)))
        m.times(real.exp_terms_f(letter, Fraction(-1)))
        m.times(real.exp_terms(letter, Fraction(1)))
    return m.to_exact()


@lru_cache(maxsize=None)
def w0_lift(family: str, n: int) -> ExactMatrix:
    rs = build_root_system(family, n)
    real = build_realization(family, n)
    return weyl_lift([letter for letter, _ in rs.word], real)


@lru_cache(maxsize=None)
def w0_lift_embedded(family: str, n: int) -> ExactMatrix:
    """Lift of the longest element of the embedded rank-(n-1) subgroup.

    The subgroup lives on the middle block; its letters are the rank-(n-1)
    letters shifted by one, acting in the rank-n realization.
    """
    real = build_realization(family, n)
    if n - 1 < _min_rank(family):
        return ExactMatrix.identity(real.matrix_size)
    word = [letter + 1 for letter, _ in build_root_system(family, n - 1).word]
    return weyl_lift(word, real)


# ---------------------------------------------------------------------------
# weights


class Weight(dict):
    """Weight in the eps basis: {index: coefficient}, exact coefficients."""

    def __init__(self, coeffs=()):
        super().__init__()
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for k, v in items:
            if v != 0:
                self[k] = Fraction(v)

    def __add__(self, other):
        out = Weight(self)
        for k, v in other.items():
            w = out.get(k, Fraction(0)) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return out

    def __neg__(self):
        return Weight({k: -v for k, v in self.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Weight":
        return Weight({k: c * v for k, v in self.items()})


def coroot_pairing(mu: Weight, label, family: str) -> Fraction:
    """Pairing (mu, gamma^vee) for a positive root label.

    Roots eps_i +- eps_j are their own coroots in all four families; the
    single-index root pairs as 2*mu_k for so_odd (short root eps_k) and as
    mu_k for sp (long root 2 eps_k).
    """
    kind = label[0]
    if kind == "m":
        _, i, j = label
        return mu.get(i, Fraction(0)) - mu.get(j, Fraction(0))
    if kind == "p":
        _, i, j = label
        return mu.get(i, Fraction(0)) + mu.get(j, Fraction(0))
    _, k = label
    if family == "so_odd":
        return 2 * mu.get(k, Fraction(0))
    if family == "sp":
        return mu.get(k, Fraction(0))
    raise ValueError(f"single-index root in family {family}")


def rho_of(family: str, n: int) -> Weight:
    """Weyl vector in the convention used by the Mellin weight shifts."""
    if family == "gl":
        return Weight({k: -k for k in range(1, n + 1)})
    if family == "so_even":
        return Weight({k: n - k for k in range(1, n + 1)})
    if family == "so_odd":
        return Weight({k: Fraction(2 * n + 1 - 2 * k, 2) for k in range(1, n + 1)})
    if family == "sp":
        return Weight({k: n + 1 - k for k in range(1, n + 1)})
    raise ValueError(family)


def cartan_scaling_exponent(family: str, n: int, label):
    """x-linear form a_gamma with t'_gamma = t_gamma * exp(a_gamma(x)).

    Right translation by exp(-h(x)) rescales each chart coordinate by the
    exponential of the simple root sitting at its letter; returns the
    row of x-coefficients (length n) of that simple root.
    """
    row = [Fraction(0)] * n
    kind = label[0]
    if family == "gl":
        _, i, j = label
        a = n - j + i
        row[a - 1] += 1
        row[a] -= 1
        return row
    if kind == "s":
        row[n - 1] = Fraction(2 if family == "sp" else 1)
        return row
    _, i, j = label
    if family == "so_even" and j == n:
        par = _eps(n - i) if kind == "p" else _eps(n - i + 1)
        row[n - 2] += 1
        row[n - 1] += -par
        return row
    row[j - 2] += 1
    row[j - 1] -= 1
    return row
